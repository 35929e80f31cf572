// tokactl: the operator's observability CLI for a tokad cluster.
//
// Every view is built purely from the cluster's own wire protocol — the
// kStats sweep (ClusterClient::cluster_stats merges every node's bucketed
// snapshot with the single-node ≤1/16 quantile-error bound intact) and the
// kTraces sweep (fetch_cluster_traces stitches every node's flight
// recorder into one timeline per trace id). Nothing here reads a node's
// memory directly; what tokactl prints is exactly what an operator could
// get from a real deployment's sockets.
//
// The transports in this repo are meshes (in-process or TCP between
// co-spawned nodes), so tokactl demonstrates against a live in-process
// demo cluster it spins up itself: 3 nodes, replication on, Zipf traffic,
// and a mid-run node kill + promotion — which is precisely the churn the
// trace view is for.
//
//   $ ./tokactl                  # the full tour: stats, top, ring, trace, watch
//   $ ./tokactl stats            # merged cluster metrics (ops/shed/p99/invariants)
//   $ ./tokactl top              # per-node hot-key share and traffic
//   $ ./tokactl ring             # membership epoch, handoffs, replication lag
//   $ ./tokactl trace [<id>]     # one trace id's spans across every node
//   $ ./tokactl watch            # periodic one-line cluster summary
//
// Flags: --ms=400 (traffic duration) --keys=128 --zipf=0.9 --workers=2
//        --watch-iters=3 --interval-ms=100
//
// Exit code: 0 only when the demo cluster behaved — at least one node
// answered every sweep, the §3.4 invariant watchdog counted checks and no
// violations, and at least one trace id spans two or more nodes.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/shard_engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace {

using namespace toka;

const obs::Metric* find_metric(const std::vector<obs::Metric>& metrics,
                               const char* name) {
  for (const obs::Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

double metric_value(const std::vector<obs::Metric>& metrics, const char* name) {
  const obs::Metric* m = find_metric(metrics, name);
  return m != nullptr ? m->value : 0.0;
}

// ---------------------------------------------------------------- views

void cmd_stats(cluster::ClusterClient& admin) {
  const auto cs = admin.cluster_stats();
  std::printf("cluster stats — %zu node(s) answered, merged view\n",
              cs.per_node.size());
  std::printf("%-32s %-10s %12s %10s %10s %10s %10s\n", "metric", "kind",
              "value", "p50", "p90", "p99", "max");
  for (const obs::Metric& m : cs.merged) {
    if (m.kind == obs::Metric::Kind::kHistogram) {
      std::printf("%-32s %-10s %12.0f %10.0f %10.0f %10.0f %10.0f\n",
                  m.name.c_str(), "histogram", m.value, m.p50, m.p90, m.p99,
                  m.max);
    } else {
      std::printf("%-32s %-10s %12.0f\n", m.name.c_str(),
                  m.kind == obs::Metric::Kind::kCounter ? "counter" : "gauge",
                  m.value);
    }
  }
  const double checks = metric_value(cs.merged, "tokend_invariant_checks");
  const double bad = metric_value(cs.merged, "tokend_invariant_violations");
  std::printf("§3.4 watchdog: %.0f sampled-grant checks, %.0f violations%s\n",
              checks, bad, bad == 0 ? " — bound held" : "  <-- VIOLATED");
}

void cmd_top(cluster::ClusterClient& admin) {
  const auto cs = admin.cluster_stats();
  std::printf("per-node traffic — %zu node(s) answered\n", cs.per_node.size());
  std::printf("%-6s %10s %12s %12s %10s %14s\n", "node", "accounts",
              "acquires", "granted", "shed", "hot-key-share");
  for (const auto& [node, metrics] : cs.per_node) {
    std::printf("%-6u %10.0f %12.0f %12.0f %10.0f %13.1f%%\n", node,
                metric_value(metrics, "tokend_accounts"),
                metric_value(metrics, "tokend_acquires"),
                metric_value(metrics, "tokend_tokens_granted"),
                metric_value(metrics, "tokend_requests_shed"),
                100.0 * metric_value(metrics, "tokend_hot_key_share"));
  }
}

void cmd_ring(cluster::ClusterClient& admin) {
  const auto cs = admin.cluster_stats();
  const cluster::ClusterMap map = admin.map();
  std::printf("membership epoch %" PRIu64 ", %zu member(s), replicas=%u\n",
              map.epoch, map.nodes.size(), map.replicas);
  std::printf("%-6s %8s %10s %12s %10s %10s %10s\n", "node", "epoch",
              "repl-lag", "deltas-out", "hand-out", "hand-in", "forfeit");
  std::set<double> epochs;
  for (const auto& [node, metrics] : cs.per_node) {
    const double epoch = metric_value(metrics, "tokad_ring_epoch");
    epochs.insert(epoch);
    std::printf("%-6u %8.0f %10.0f %12.0f %10.0f %10.0f %10.0f\n", node, epoch,
                metric_value(metrics, "tokad_replication_lag"),
                metric_value(metrics, "tokad_replica_deltas"),
                metric_value(metrics, "tokad_handoffs_sent"),
                metric_value(metrics, "tokad_handoffs_installed"),
                metric_value(metrics, "tokad_tokens_forfeited"));
  }
  std::printf("epoch agreement: %s\n",
              epochs.size() <= 1 ? "OK (all answering nodes agree)"
                                 : "SPLIT  <-- map push in flight or stuck");
}

/// Renders one trace id's spans as a timeline; with id 0, picks the trace
/// covering the most distinct nodes (ties: most spans). Returns the
/// number of distinct nodes the rendered trace touched (0 = nothing).
std::size_t cmd_trace(cluster::ClusterClient& admin, std::uint64_t trace_id) {
  std::vector<service::protocol::TraceSpan> spans =
      admin.fetch_cluster_traces(trace_id);
  if (trace_id == 0) {
    struct Spread {
      std::set<std::uint32_t> nodes;
      std::size_t spans = 0;
    };
    std::map<std::uint64_t, Spread> by_trace;
    for (const auto& s : spans) {
      by_trace[s.trace_id].nodes.insert(s.node);
      ++by_trace[s.trace_id].spans;
    }
    for (const auto& [id, spread] : by_trace) {
      if (trace_id == 0) trace_id = id;
      const Spread& best = by_trace[trace_id];
      if (spread.nodes.size() > best.nodes.size() ||
          (spread.nodes.size() == best.nodes.size() &&
           spread.spans > best.spans))
        trace_id = id;
    }
    std::erase_if(spans, [&](const service::protocol::TraceSpan& s) {
      return s.trace_id != trace_id;
    });
  }
  if (spans.empty()) {
    std::printf("trace %" PRIu64 ": no spans held anywhere in the cluster\n",
                trace_id);
    return 0;
  }
  std::set<std::uint32_t> nodes;
  for (const auto& s : spans) nodes.insert(s.node);
  std::printf("trace %" PRIu64 " — %zu span(s) across %zu node(s)\n", trace_id,
              spans.size(), nodes.size());
  std::printf("%10s %-6s %-10s %-8s %12s %10s %5s\n", "t+us", "node", "stage",
              "outcome", "key", "dur-us", "flags");
  const std::int64_t t0 = spans.front().start_us;
  for (const auto& s : spans) {
    char flags[3] = "--";
    if (s.flags & obs::kSpanSampled) flags[0] = 'S';
    if (s.flags & obs::kSpanForced) flags[1] = 'F';
    std::printf("%10lld %-6u %-10s %-8s %12" PRIu64 " %10lld %5s\n",
                static_cast<long long>(s.start_us - t0), s.node,
                obs::to_string(static_cast<obs::Stage>(s.stage)),
                obs::to_string(static_cast<obs::Decision>(s.decision)), s.key,
                static_cast<long long>(s.dur_us), flags);
  }
  return nodes.size();
}

void cmd_watch(cluster::ClusterClient& admin, int iters, int interval_ms) {
  std::printf("%-6s %12s %10s %10s %10s %12s %10s\n", "tick", "served", "shed",
              "p99-us", "accounts", "wd-checks", "wd-viol");
  for (int i = 0; i < iters; ++i) {
    const auto cs = admin.cluster_stats();
    const obs::Metric* lat =
        find_metric(cs.merged, "tokend_request_latency_us");
    std::printf("%-6d %12.0f %10.0f %10.0f %10.0f %12.0f %10.0f\n", i,
                metric_value(cs.merged, "tokend_requests_served"),
                metric_value(cs.merged, "tokend_requests_shed"),
                lat != nullptr ? lat->p99 : 0.0,
                metric_value(cs.merged, "tokend_accounts"),
                metric_value(cs.merged, "tokend_invariant_checks"),
                metric_value(cs.merged, "tokend_invariant_violations"));
    if (i + 1 < iters)
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

void usage(const char* prog) {
  std::printf(
      "usage: %s [flags] [stats|top|ring|trace [<id>]|watch]\n"
      "  (no command runs the full tour against the demo cluster)\n"
      "flags: --ms=400 --keys=128 --zipf=0.9 --workers=2\n"
      "       --watch-iters=3 --interval-ms=100\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  const util::Args args(argc, argv);
  if (args.get_flag("help")) {
    usage(args.program().c_str());
    return 0;
  }
  const std::string cmd =
      args.positional().empty() ? "tour" : args.positional()[0];
  std::uint64_t trace_arg = 0;
  if (cmd == "trace" && args.positional().size() > 1)
    trace_arg = std::strtoull(args.positional()[1].c_str(), nullptr, 0);
  const auto run_ms = args.get_int("ms", 400);
  const auto keys = static_cast<std::uint64_t>(args.get_int("keys", 128));
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 2));

  // ---- the demo cluster: 3 nodes, replicas=1, per-node telemetry -------
  service::ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 10'000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 8;
  cfg.initial_tokens = 0;
  cfg.audit = true;
  cfg.watchdog_sample = 4;  // demo: audit 1-in-4 keys so checks pile up fast

  struct DemoNode {
    obs::Registry registry;
    obs::Tracer tracer;
    service::AccountTable table;
    service::ClockDriver driver;
    service::ShardEngine engine;
    std::unique_ptr<cluster::ClusterServer> server;
    static obs::TracerOptions tracer_opts(obs::Registry& registry) {
      obs::TracerOptions t;
      t.sample_every = 16;  // demo traffic is small; sample densely
      t.registry = &registry;
      return t;
    }
    static service::ShardEngineOptions engine_opts(obs::Registry& registry,
                                                   obs::Tracer& tracer) {
      service::ShardEngineOptions e;
      e.registry = &registry;
      e.tracer = &tracer;
      return e;
    }
    DemoNode(const service::ServiceConfig& node_cfg,
             runtime::Transport& transport, const cluster::ClusterMap& map,
             NodeId node)
        : tracer(tracer_opts(registry)),
          table(node_cfg),
          driver(table, 1000),
          engine(table, engine_opts(registry, tracer)) {
      driver.start();
      service::ServerOptions opts;
      opts.engine = &engine;
      opts.registry = &registry;
      opts.tracer = &tracer;
      opts.node = node;
      server = std::make_unique<cluster::ClusterServer>(table, transport, map,
                                                        opts);
    }
  };

  constexpr std::size_t kNodes = 3;
  const cluster::ClusterMap map1{1, cluster::kDefaultVnodes, {0, 1, 2},
                                 /*replicas=*/1};
  // Client slots: the workers plus the admin sweep client.
  runtime::InProcNetwork net(kNodes + (workers + 1) * kNodes,
                             /*latency_us=*/0, /*dispatchers=*/kNodes);
  auto endpoints_of = [&](std::size_t slot) {
    return [&net, slot](NodeId server) -> runtime::Transport& {
      return net.endpoint(static_cast<NodeId>(kNodes + slot * kNodes + server));
    };
  };
  std::vector<std::unique_ptr<DemoNode>> nodes;
  for (NodeId n = 0; n < kNodes; ++n)
    nodes.push_back(
        std::make_unique<DemoNode>(cfg, net.endpoint(n), map1, n));
  net.start();

  std::printf("tokactl demo cluster: %zu nodes, replicas=1, %zu workers, "
              "%" PRIu64 " keys — node 2 dies and is promoted mid-run\n\n",
              kNodes, workers, keys);

  cluster::ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 150 * 1'000;
  client_cfg.max_attempts = 12;

  // Zipf traffic with a mid-run kill + promotion, so the trace view has a
  // real failover to show. Workers record their client spans into node
  // 0's flight recorder (the demo co-locates them with node 0).
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      cluster::ClusterClient client(endpoints_of(w), map1, client_cfg);
      client.set_tracer(&nodes[0]->tracer);
      util::Rng rng(7 + w);
      const util::ZipfSampler zipf(keys, args.get_double("zipf", 0.9));
      while (Clock::now() - start < std::chrono::milliseconds(run_ms)) {
        try {
          client.acquire(service::kDefaultNamespace, zipf.next(rng), 1);
        } catch (const std::exception&) {
          // dead-node timeouts mid-churn; the views don't need every op
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(run_ms / 2));
  nodes[2]->server.reset();
  nodes[0]->server->promote(2);
  for (auto& t : threads) t.join();

  cluster::ClusterClient admin(endpoints_of(workers), map1, client_cfg);
  admin.refresh_map();

  // ---- dispatch --------------------------------------------------------
  bool ok = true;
  const auto watch_iters = static_cast<int>(args.get_int("watch-iters", 3));
  const auto interval_ms = static_cast<int>(args.get_int("interval-ms", 100));
  try {
    if (cmd == "stats") {
      cmd_stats(admin);
    } else if (cmd == "top") {
      cmd_top(admin);
    } else if (cmd == "ring") {
      cmd_ring(admin);
    } else if (cmd == "trace") {
      ok = cmd_trace(admin, trace_arg) >= (trace_arg == 0 ? 2 : 1);
    } else if (cmd == "watch") {
      cmd_watch(admin, watch_iters, interval_ms);
    } else if (cmd == "tour") {
      cmd_stats(admin);
      std::printf("\n");
      cmd_top(admin);
      std::printf("\n");
      cmd_ring(admin);
      std::printf("\n");
      ok = cmd_trace(admin, 0) >= 2;  // the failover must stitch across nodes
      std::printf("\n");
      cmd_watch(admin, watch_iters, interval_ms);
    } else {
      usage(args.program().c_str());
      ok = false;
    }

    // The demo's own acceptance: the watchdog audited real grants and
    // found nothing, on every command path.
    const auto cs = admin.cluster_stats();
    const double checks = metric_value(cs.merged, "tokend_invariant_checks");
    const double bad = metric_value(cs.merged, "tokend_invariant_violations");
    std::printf("\ntokactl demo verdict: %.0f watchdog checks, %.0f "
                "violations, %zu nodes answering — %s\n",
                checks, bad, cs.per_node.size(),
                ok && bad == 0 && checks > 0 ? "OK" : "FAIL");
    if (bad != 0 || checks == 0) ok = false;
  } catch (const std::exception& e) {
    std::printf("tokactl: %s\n", e.what());
    ok = false;
  }

  for (auto& node : nodes) node->driver.stop();
  net.stop();
  return ok ? 0 : 1;
}
