// cluster_failover: three tokad nodes on one EpollMesh, each a
// ClusterServer over a one-worker ShardEngine with replication factor 1,
// driven by one ClusterClient. Node 2's endpoint is shut down part-way
// through the open-loop phase; its id-order successor promotes the
// replicas on the peer-down signal.
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "burst_audit.hpp"
#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "obs/telemetry.hpp"
#include "probes.hpp"
#include "run.hpp"
#include "runtime/epoll.hpp"
#include "service/shard_engine.hpp"
#include "traced.hpp"

namespace tokabench {

namespace cluster = toka::cluster;
namespace obs = toka::obs;
namespace runtime = toka::runtime;
namespace service = toka::service;
using toka::NodeId;

namespace {

constexpr NodeId kNodes = 3;
constexpr NodeId kVictim = 2;
/// Share of the failover phase that runs before the victim is shut down.
constexpr double kKillAt = 0.4;
/// The replication headroom in force: 0 in ServerOptions means half the
/// namespace capacity, rounded up.
constexpr Tokens kHeadroom = (kCapacity + 1) / 2;

struct Node {
  explicit Node(std::uint64_t seed) : table(service_config(seed)), ticker(table, 1000) {}
  service::AccountTable table;
  service::ClockDriver ticker;
  obs::Registry registry;
  std::unique_ptr<service::ShardEngine> engine;
  std::unique_ptr<cluster::ClusterServer> server;
};

/// Cluster-wide replication and routing counters at one instant.
struct ClusterCounters {
  double delta_frames = 0, delta_accounts = 0, redirects = 0;
};

ClusterCounters counters(const std::vector<std::unique_ptr<Node>>& nodes) {
  ClusterCounters c;
  for (const auto& node : nodes) {
    c.delta_frames += static_cast<double>(node->server->replication().deltas_sent());
    c.delta_accounts +=
        static_cast<double>(node->server->replication().delta_accounts_sent());
    c.redirects += static_cast<double>(node->server->redirects_sent());
  }
  return c;
}

/// The failover phase's outcome, read off its per-request records.
struct Failover {
  double ms = 0;              ///< kill → first post-kill success on a victim key
  std::uint64_t inflight = 0; ///< requests issued before the kill, done after
};

Failover read_failover(const OpenLoop& loop, std::uint64_t n, std::int64_t kill_ns,
                       const cluster::HashRing& ring) {
  Failover f;
  std::int64_t first_ns = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const OpenRecord& rec = loop.records[i];
    const float lat = rec.latency_us.load(std::memory_order_acquire);
    const std::int64_t sched = loop.scheduled_ns(i);
    const std::int64_t done = sched + static_cast<std::int64_t>(lat * 1e3);
    if (sched < kill_ns && (lat < 0 || done > kill_ns)) ++f.inflight;
    if (sched >= kill_ns && lat >= 0 && rec.status == Outcome::Status::kOk &&
        ring.owner(service::kDefaultNamespace, loop.keys[i]) == kVictim &&
        (first_ns == 0 || done < first_ns))
      first_ns = done;
  }
  if (first_ns > 0) f.ms = static_cast<double>(first_ns - kill_ns) / 1e6;
  return f;
}

}  // namespace

Report run_cluster(const RunOptions& o) {
  const WorkloadSpec& spec = o.spec;
  const Plan plan = make_plan(o);
  const toka::util::ZipfSampler keys(spec.keys, spec.zipf);
  const cluster::ClusterMap map{1, cluster::kDefaultVnodes, {0, 1, 2}, /*replicas=*/1};
  const cluster::HashRing ring(map);

  // ---------------------------------------------------------------- set-up
  std::vector<std::vector<std::uint64_t>> owned(kNodes);
  for (std::uint64_t k = 0; k < spec.keys; ++k)
    owned[ring.owner(service::kDefaultNamespace, k)].push_back(k);
  std::vector<std::unique_ptr<Node>> nodes;
  const double rss_before = current_rss_bytes();
  const std::int64_t t_preload = now_ns();
  std::uint64_t accounts = 0;
  for (NodeId n = 0; n < kNodes; ++n) {
    nodes.push_back(std::make_unique<Node>(o.seed * kNodes + n));
    accounts += preload(nodes[n]->table, spec, &owned[n]);
  }
  const double preload_s = seconds_since(t_preload);
  const double bytes_per_account =
      (current_rss_bytes() - rss_before) / static_cast<double>(accounts);
  // Tokens accrue from the first clock start on (zero initial tokens).
  const std::int64_t clock_start_us = now_ns() / 1000;
  for (auto& node : nodes) node->ticker.start();

  std::optional<Instruments> instruments;
  if (o.traced) instruments.emplace();
  obs::Tracer* tracer = o.traced ? instruments->tracer() : nullptr;
  const std::vector<pid_t> tasks = list_tasks();
  for (auto& node : nodes) {
    service::ShardEngineOptions engine_opts;
    engine_opts.workers = spec.workers;
    engine_opts.registry = &node->registry;
    engine_opts.tracer = tracer;
    node->engine = std::make_unique<service::ShardEngine>(node->table, engine_opts);
  }
  const std::vector<pid_t> worker_tids = new_tasks(tasks, list_tasks());
  // Endpoints 0-2 are the nodes, 3-5 the client's per-node connections.
  auto mesh = std::make_unique<runtime::EpollMesh>(2 * kNodes, /*io_threads=*/1);
  std::vector<runtime::Transport*> endpoints;
  for (NodeId id = 0; id < 2 * kNodes; ++id) {
    runtime::Transport* ep = &mesh->endpoint(id);
    if (o.traced) ep = &instruments->wrap(*ep, /*server_side=*/id < kNodes);
    endpoints.push_back(ep);
  }
  for (NodeId n = 0; n < kNodes; ++n) {
    service::ServerOptions server_opts;
    server_opts.registry = &nodes[n]->registry;
    server_opts.engine = nodes[n]->engine.get();
    server_opts.tracer = tracer;
    nodes[n]->server = std::make_unique<cluster::ClusterServer>(
        nodes[n]->table, *endpoints[n], map, server_opts);
  }
  cluster::ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 250'000;
  // The client retries without backoff. Right after the promotion a
  // survivor that has not yet applied the new map redirects to the dead
  // owner, and with 12 attempts a few runs in a hundred surfaced 30-60 of
  // those redirects as errors. A caller that must ride out a failover
  // needs attempts to outlast that window; the extra ones show in
  // client.retries_per_op.
  client_cfg.max_attempts = 256;
  const auto make_client = [&](obs::Tracer* client_tracer) {
    auto client = std::make_unique<cluster::ClusterClient>(
        [&endpoints](NodeId server) -> runtime::Transport& {
          return *endpoints[kNodes + server];
        },
        map, client_cfg);
    client->set_tracer(client_tracer);
    for (NodeId n = 0; n < kNodes; ++n)  // connects to every node
      client->acquire(service::kDefaultNamespace, owned[n].front(), 0);
    return client;
  };
  auto client = make_client(nullptr);
  const double setup_s = seconds_since(o.start_ns);
  if (o.setup_only) finish_setup_only(setup_s);

  // ---------------------------------------------------------------- phases
  Report report;
  Tally tally;
  std::vector<GrantEvent> grants;
  std::mutex grants_mu;
  auto target = std::make_unique<ClusterTarget>(*client, nullptr);
  LoadContext ctx{&spec, &keys, o.seed, target.get(), &tally, &grants, &grants_mu};
  OpenLoops loops;
  run_open(ctx, kPhaseWarmup, spec.nominal_rate(), plan.warmup, plan.drain,
           Clock::now(), loops);

  // The failover phase: an open loop at the nominal rate with node 2's
  // endpoint shut down part-way through it.
  std::int64_t kill_ns = 0;
  const auto failover_phase = [&](double seconds) {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    const Clock::time_point kill_at =
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * kKillAt * 1e9));
    std::thread killer([&] {
      std::this_thread::sleep_until(kill_at);
      kill_ns = now_ns();
      mesh->shutdown_endpoint(kVictim);
    });
    const OpenResult open = run_open(ctx, kPhaseOpen, spec.nominal_rate(), seconds,
                                     plan.drain, start, loops);
    killer.join();
    return open;
  };

  // The cluster client takes its tracer before its first op only: a traced
  // phase runs on a fresh client over the same endpoints.
  const auto swap_client = [&](obs::Tracer* client_tracer, IssueTrace* issue) {
    report.check(loops.wait_all(30), "open-loop requests never completed");
    target.reset();
    client.reset();
    client = make_client(client_tracer);
    target = std::make_unique<ClusterTarget>(*client, issue);
    ctx.target = target.get();
  };

  Failover failover;
  if (!o.traced) {
    const OpenResult open = failover_phase(plan.nominal);
    report.check(loops.wait_all(30), "failover requests never completed");
    failover = read_failover(*loops.steps.back(), open.offered, kill_ns, ring);
    report.add("setup_s", setup_s, "s");
    // Read before the audit below, whose working memory is the benchmark's.
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  } else {
    // A: untraced closed loop: the capacity, and the baseline of
    // trace.overhead.
    const ClosedResult untraced = run_closed(ctx, kPhaseClosed, plan.closed);
    // B: traced closed loop, then the span ledger.
    swap_client(tracer, instruments->issue());
    instruments->set_enabled(true);
    const LayerSnapshot before = instruments->snapshot();
    const ClosedResult traced = run_closed(ctx, kPhaseTracedClosed, plan.traced_closed);
    add_closed_layers(report, before, instruments->snapshot(), traced, 1);
    instruments->record_ledger([&] { run_closed(ctx, kPhaseLedger, plan.ledger); });
    // C: traced open loop at the nominal rate, every node up.
    {
      std::vector<const service::ShardEngine*> engines;
      for (const auto& node : nodes) engines.push_back(node->engine.get());
      OpenWindow window(*instruments, engines, worker_tids);
      const OpenResult open = run_open(ctx, kPhaseTracedOpen, spec.nominal_rate(),
                                       plan.traced_open, plan.drain, Clock::now(), loops);
      window.finish(report, open, 1);
    }
    instruments->set_enabled(false);
    // D: the failover phase, untraced (the wrappers still count frames).
    swap_client(nullptr, nullptr);
    const ClusterCounters c0 = counters(nodes);
    const LayerSnapshot s0 = instruments->snapshot();
    const OpenResult open = failover_phase(2 * plan.traced_open);
    report.check(loops.wait_all(30), "failover requests never completed");
    const ClusterCounters c1 = counters(nodes);
    const LayerSnapshot s1 = instruments->snapshot();
    failover = read_failover(*loops.steps.back(), open.offered, kill_ns, ring);
    const double open_ops = static_cast<double>(open.completed);
    // E: node 0's engine with no wire in front.
    const double direct = engine_direct_ops(*nodes[0]->engine, spec, keys,
                                            stream_seed(o.seed, kPhaseDirect, 0),
                                            plan.direct);
    double sheds = 0;
    for (const auto& node : nodes)
      sheds += static_cast<double>(node->server->inner().requests_shed());
    const double frames = c1.delta_frames - c0.delta_frames;
    // Retries matter across the failover: replaces the closed loop's value.
    report.add("client.retries_per_op",
               (s1.client_frames - s0.client_frames) / static_cast<double>(open.offered),
               "frames/op");
    report.add("throughput_ops", untraced.ops_per_s, "ops/s");
    add_nominal_layers(report, open, 1);
    report.add("engine.direct_ops", direct, "ops/s");
    report.add("engine.wire_gap", untraced.ops_per_s / direct, "ratio");
    report.add("engine.sheds", sheds, "count");
    report.add("trace.overhead", 1 - traced.ops_per_s / untraced.ops_per_s, "ratio");
    report.add("slo_rate_ops", slo_rate(spec, {open}), "ops/s");
    report.add("table.preload_s", preload_s, "s");
    report.add("table.bytes_per_account", bytes_per_account, "B");
    report.add("repl.delta_frames_per_op", frames / open_ops, "frames/op");
    report.add("repl.accounts_per_frame",
               frames > 0 ? (c1.delta_accounts - c0.delta_accounts) / frames : 0,
               "accounts");
    report.add("cluster.redirects_per_op", (c1.redirects - c0.redirects) / open_ops, "1/op");
    report.add("cluster.failover_ms", failover.ms, "ms");
  }

  // ------------------------------------------------------ correctness checks
  check_tally(tally, report);
  service::TableStats all;
  for (NodeId n = 0; n < kNodes; ++n) {
    Node& node = *nodes[n];
    const service::TableStats stats =
        node.engine->quiesced([&] { return node.table.stats(); });
    check_table(stats, "node " + std::to_string(n), report);
    all.merge(stats);
  }
  std::uint64_t promotions = 0, installs = 0;
  Tokens forfeited = 0;
  for (const auto& node : nodes) {
    promotions += node->server->promotions();
    installs += node->server->replication().replica_installs();
    forfeited += node->server->tokens_forfeited();
  }
  report.check(promotions >= 1, "the kill promoted no replica");
  report.check(failover.ms > 0, "no request for a victim-owned key succeeded after the kill");
  // Replicated ownership's bound: a promoted install forfeits at most the
  // headroom; a request racing the kill can cost one account's capacity.
  const Tokens forfeit_bound = static_cast<Tokens>(installs) * kHeadroom +
                               static_cast<Tokens>(failover.inflight + 1) * (kCapacity + 1);
  report.check(forfeited <= forfeit_bound,
               std::to_string(forfeited) + " tokens forfeited, bound " +
                   std::to_string(forfeit_bound));
  const BurstAudit audit = audit_grants(grants, kDeltaUs, kCapacity, clock_start_us);
  report.check(audit.grants > 0, "the cluster granted nothing to audit");
  for (const std::string& v : audit.violations) report.check(false, v);
  if (o.traced) {
    add_table_layers(report, all, tally);
    report.add("repl.installs", static_cast<double>(installs), "count");
    report.add("repl.tokens_forfeited", static_cast<double>(forfeited), "tokens");
  }

  // --------------------------------------------------------------- teardown
  target.reset();
  client.reset();
  for (auto& node : nodes) node->server.reset();
  for (auto& node : nodes) node->engine.reset();
  mesh.reset();
  if (o.traced) {
    add_replay_layers(report, nodes[0]->table, spec, keys, o.seed, plan.replay);
    write_spans(*instruments, o);
  }
  for (auto& node : nodes) node->ticker.stop();
  return report;
}

}  // namespace tokabench
