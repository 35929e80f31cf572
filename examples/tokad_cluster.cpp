// tokad: a tokend cluster under membership churn, end to end.
//
// Three ClusterServer nodes (each its own sharded AccountTable and the
// ShardEngine that owns it, behind the in-process fabric) serve
// Zipf-skewed acquire traffic from several ClusterClient workers, routed
// by consistent hashing. Mid-run the demo kills one node and then joins a
// fresh node (the survivors hand the moved accounts off, carrying their
// balances). Workers absorb every
// redirect and dead-node timeout internally: the run must end with zero
// client-visible errors.
//
// By default the cluster runs with --replicas=1: every primary streams
// account deltas to its ring successor, so the kill is survived by a
// promote() failover — a survivor drops the dead node from membership and
// installs its replicas at the conservative floor. What the floor could
// not cover is *forfeited* (printed next to the final audit); with
// --replicas=0 the kill falls back to an operator map push and the dead
// node's entire banked balance is the forfeit.
//
// The run closes with the cluster-wide §3.4 audit: per key, the total
// tokens granted anywhere in the cluster must fit one token per period
// plus the capacity burst — kill, promotion, handoff and join included —
// and every node's own table-side audit must agree. Replication must
// never let a promoted floor re-grant what the dead primary already
// granted (duplicate never; forfeit at most the replication lag).
//
// Node 0 additionally exports telemetry: its ClusterServer registers the
// ring epoch, redirect and handoff counters (plus the inner tokend
// metrics) into an obs::Registry served by a Prometheus scrape endpoint
// for the duration of the run (--scrape-port=0 picks a free port).
//
//   $ ./tokad_cluster [--workers=3] [--ms=1200] [--keys=256]
//                     [--delta-ms=25] [--a=2] [--c=8] [--zipf=0.9]
//                     [--replicas=1] [--scrape-port=0]
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "obs/scrape.hpp"
#include "obs/telemetry.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/shard_engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

int main(int argc, char** argv) {
  using namespace toka;
  using Clock = std::chrono::steady_clock;
  const util::Args args(argc, argv);
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 3));
  const auto run_ms = args.get_int("ms", 1200);
  const auto keys = static_cast<std::uint64_t>(args.get_int("keys", 256));
  const TimeUs delta_us = args.get_int("delta-ms", 25) * 1000;
  const Tokens capacity_c = args.get_int("c", 8);
  const auto replicas = static_cast<std::uint32_t>(
      std::max<std::int64_t>(args.get_int("replicas", 1), 0));

  service::ServiceConfig cfg;
  cfg.shards = 16;
  cfg.delta_us = delta_us;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = args.get_int("a", 2);
  cfg.strategy.c_param = capacity_c;
  cfg.initial_tokens = 0;  // every granted token is earned inside the run
  cfg.audit = true;        // per-node §3.4 check of every account

  struct ClusterNode {
    service::AccountTable table;
    service::ClockDriver driver;
    service::ShardEngine engine;
    std::unique_ptr<cluster::ClusterServer> server;
    ClusterNode(const service::ServiceConfig& node_cfg,
                runtime::Transport& transport, const cluster::ClusterMap& map,
                service::ServerOptions opts = {})
        : table(node_cfg), driver(table, 1000), engine(table) {
      driver.start();
      opts.engine = &engine;
      server = std::make_unique<cluster::ClusterServer>(table, transport, map,
                                                        opts);
    }
  };

  constexpr std::size_t kMaxNodes = 4;  // 0..2 initial, 3 joins mid-run
  const cluster::ClusterMap map1{1, cluster::kDefaultVnodes, {0, 1, 2},
                                 replicas};
  runtime::InProcNetwork net(kMaxNodes + (workers + 1) * kMaxNodes,
                             /*latency_us=*/0, /*dispatchers=*/kMaxNodes);
  auto endpoints_of = [&](std::size_t slot) {
    return [&net, slot](NodeId server) -> runtime::Transport& {
      return net.endpoint(
          static_cast<NodeId>(kMaxNodes + slot * kMaxNodes + server));
    };
  };

  // Node 0 is the observed node: registry + scrape endpoint. Declared
  // before the nodes so it outlives node 0's server (which unregisters
  // its metrics on destruction).
  obs::Registry registry;
  service::ServerOptions observed;
  observed.registry = &registry;

  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (NodeId n = 0; n < 3; ++n)
    nodes.push_back(std::make_unique<ClusterNode>(
        cfg, net.endpoint(n), map1,
        n == 0 ? observed : service::ServerOptions{}));
  net.start();
  obs::ScrapeServer scrape(
      registry, static_cast<std::uint16_t>(args.get_int("scrape-port", 0)));
  // /healthz reports node 0's liveness facts: the ring epoch it serves
  // under and whether its server object is still alive (it survives this
  // demo's churn; the probe is what an orchestrator would poll).
  scrape.set_health([&nodes] {
    const bool up = nodes[0]->server != nullptr;
    return std::string("{\"ok\":") + (up ? "true" : "false") +
           ",\"epoch\":" +
           std::to_string(up ? nodes[0]->server->map_epoch() : 0) +
           "}";
  });
  std::printf("scrape (node 0): curl http://127.0.0.1:%u/metrics "
              "(/healthz, /traces too)\n",
              scrape.port());

  std::printf("tokad: 3 nodes (%s, Δ=%lld ms, C=%lld, replicas=%u), "
              "%zu workers, %llu keys — kill node 2, then join node 3\n",
              cfg.strategy.label().c_str(),
              static_cast<long long>(delta_us / 1000),
              static_cast<long long>(capacity_c), replicas, workers,
              static_cast<unsigned long long>(keys));

  cluster::ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 150 * 1'000;
  client_cfg.max_attempts = 12;

  struct GrantEvent {
    std::uint64_t key;
    TimeUs at_us;
    Tokens granted;
  };
  struct WorkerTally {
    std::vector<GrantEvent> grants;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t redirects = 0;
    std::uint64_t io_retries = 0;
  };
  std::vector<WorkerTally> tallies(workers);

  const auto start = Clock::now();
  auto now_us = [&] {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start)
        .count();
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      cluster::ClusterClient client(endpoints_of(w), map1, client_cfg);
      util::Rng rng(100 + w);
      const util::ZipfSampler zipf(keys, args.get_double("zipf", 0.9));
      while (Clock::now() - start < std::chrono::milliseconds(run_ms)) {
        const std::uint64_t key = zipf.next(rng);
        ++tallies[w].requests;
        try {
          const service::AcquireResult res =
              client.acquire(service::kDefaultNamespace, key, 1);
          if (res.granted > 0)
            tallies[w].grants.push_back(GrantEvent{key, now_us(), res.granted});
        } catch (const std::exception&) {
          ++tallies[w].errors;
        }
      }
      tallies[w].redirects = client.redirects_followed();
      tallies[w].io_retries = client.io_retries();
    });
  }

  // The coordinator drives the churn: kill at ~1/3, join at ~2/3.
  cluster::ClusterClient admin(endpoints_of(workers), map1, client_cfg);
  std::this_thread::sleep_for(std::chrono::milliseconds(run_ms / 3));
  nodes[2]->server.reset();  // node 2 dies mid-traffic
  const cluster::ClusterMap map2 = map1.without_node(2);
  if (replicas > 0) {
    // Failover: node 0 coordinates the promotion — membership drops the
    // dead node, its replicas are installed at the conservative floor on
    // whichever survivor now owns each key, and the map broadcast brings
    // the other survivor along.
    const cluster::PromoteOutcome out = nodes[0]->server->promote(2);
    std::printf("t=%.2fs  killed node 2, promoted its replicas: epoch %llu, "
                "%llu accounts installed here, %lld tokens forfeited\n",
                to_seconds(now_us()),
                static_cast<unsigned long long>(out.epoch),
                static_cast<unsigned long long>(out.installed),
                static_cast<long long>(out.forfeited));
  } else {
    // Unreplicated: the operator pushes the shrunk map; every banked
    // token node 2 held is forfeited.
    admin.push_map(map2);
    std::printf("t=%.2fs  killed node 2, pushed map epoch %llu {0,1}\n",
                to_seconds(now_us()),
                static_cast<unsigned long long>(map2.epoch));
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(run_ms / 3));
  const cluster::ClusterMap map3 = map2.with_node(3);
  nodes.push_back(std::make_unique<ClusterNode>(cfg, net.endpoint(3), map3));
  admin.push_map(map3);
  std::printf("t=%.2fs  joined node 3, pushed map epoch %llu {0,1,3}\n",
              to_seconds(now_us()),
              static_cast<unsigned long long>(map3.epoch));

  for (auto& thread : threads) thread.join();
  const TimeUs run_us = now_us();
  for (auto& node : nodes) node->driver.stop();
  net.stop();

  std::printf("\n%-8s %10s %10s %8s %10s %10s\n", "worker", "requests",
              "granted", "errors", "redirects", "io-retry");
  std::uint64_t total_errors = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    Tokens granted = 0;
    for (const GrantEvent& event : tallies[w].grants) granted += event.granted;
    total_errors += tallies[w].errors;
    std::printf("%-8zu %10llu %10lld %8llu %10llu %10llu\n", w,
                static_cast<unsigned long long>(tallies[w].requests),
                static_cast<long long>(granted),
                static_cast<unsigned long long>(tallies[w].errors),
                static_cast<unsigned long long>(tallies[w].redirects),
                static_cast<unsigned long long>(tallies[w].io_retries));
  }
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    ClusterNode& node = *nodes[n];
    const auto& server = node.server;
    const std::size_t accounts =
        node.engine.quiesced([&] { return node.table.account_count(); });
    std::printf("node %zu: %llu accounts, %s%s\n", n,
                static_cast<unsigned long long>(accounts),
                server ? "" : "KILLED, ",
                server
                    ? ("served " + std::to_string(server->inner().requests_served()) +
                       ", redirected " + std::to_string(server->redirects_sent()) +
                       ", handoffs out " + std::to_string(server->handoffs_sent()) +
                       " / in " + std::to_string(server->handoffs_installed()))
                          .c_str()
                    : "frozen for the post-mortem audit");
  }

  // Node 0's telemetry view of the same churn (registry == what a scrape
  // would have returned at this instant).
  std::printf("node 0 telemetry:");
  for (const obs::Metric& metric : registry.collect()) {
    if (metric.name.rfind("tokad_", 0) == 0)
      std::printf("  %s=%.0f", metric.name.c_str() + 6, metric.value);
  }
  std::printf("\n");

  // ---- the cluster-wide audit ------------------------------------------
  bool ok = total_errors == 0;
  if (!ok) std::printf("\nFAIL: %llu client-visible errors\n",
                       static_cast<unsigned long long>(total_errors));

  for (std::size_t n = 0; n < nodes.size(); ++n) {
    ClusterNode& node = *nodes[n];
    if (const auto violation = node.engine.quiesced(
            [&] { return node.table.audit_violation(); })) {
      std::printf("FAIL: node %zu table audit: %s\n", n, violation->c_str());
      ok = false;
    }
  }

  // Per key, across every node it ever lived on: total grants must fit
  // one-token-per-period plus the burst capacity over the whole run.
  std::map<std::uint64_t, Tokens> per_key;
  for (const WorkerTally& tally : tallies)
    for (const GrantEvent& event : tally.grants)
      per_key[event.key] += event.granted;
  const Tokens bound = run_us / delta_us + 1 + capacity_c;
  std::uint64_t worst_key = 0;
  Tokens worst = 0;
  for (const auto& [key, granted] : per_key) {
    if (granted > worst) { worst = granted; worst_key = key; }
    if (granted > bound) {
      std::printf("FAIL: key %llu granted %lld > cluster-wide bound %lld\n",
                  static_cast<unsigned long long>(key),
                  static_cast<long long>(granted),
                  static_cast<long long>(bound));
      ok = false;
    }
  }
  // Forfeit accounting, next to the audit it balances: every token the
  // cluster dropped across the churn — promotion installs below the dead
  // primary's balance, refused handoffs, unroutable extractions. With
  // replication this is the failover's lag; without it, node 2's whole
  // bank dies with it.
  Tokens forfeited = 0;
  std::uint64_t installs = 0, delta_frames = 0;
  for (const auto& node : nodes) {
    if (node->server == nullptr) continue;
    forfeited += node->server->tokens_forfeited();
    installs += node->server->replication().replica_installs();
    delta_frames += node->server->replication().deltas_sent();
  }
  std::printf("\nforfeit accounting: %lld tokens forfeited cluster-wide "
              "(%llu replica accounts installed at the floor, %llu delta "
              "frames streamed)\n",
              static_cast<long long>(forfeited),
              static_cast<unsigned long long>(installs),
              static_cast<unsigned long long>(delta_frames));
  std::printf("cluster-wide burst bound (<= t/Δ + 1 + C = %lld per key): "
              "%s (hottest key %llu at %lld)\n",
              static_cast<long long>(bound),
              ok ? "HELD ON ALL KEYS" : "VIOLATED",
              static_cast<unsigned long long>(worst_key),
              static_cast<long long>(worst));
  return ok ? 0 : 1;
}
