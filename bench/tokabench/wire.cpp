// The single-node workloads (wire_zipf, wire_batch, wire_mixed): one
// ShardEngine-backed service::Server on an EpollMesh endpoint, driven by
// one pipelined async service::Client on a second endpoint over loopback.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "probes.hpp"
#include "run.hpp"
#include "runtime/epoll.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "traced.hpp"

namespace tokabench {

namespace obs = toka::obs;
namespace runtime = toka::runtime;
namespace service = toka::service;

namespace {

double stat_value(const std::vector<service::protocol::StatsEntry>& stats,
                  const std::string& name) {
  for (const auto& e : stats)
    if (e.name == name) return e.value;
  return 0;
}

}  // namespace

Report run_wire(const RunOptions& o) {
  const WorkloadSpec& spec = o.spec;
  const Plan plan = make_plan(o);
  const double opr = static_cast<double>(spec.ops_per_request);
  const toka::util::ZipfSampler keys(spec.keys, spec.zipf);
  const NamespaceId ns = data_namespaces(spec.shape).front();

  // ---------------------------------------------------------------- set-up
  service::AccountTable table(service_config(o.seed));
  configure_namespaces(table, spec.shape);
  const double rss_before = current_rss_bytes();
  const std::int64_t t_preload = now_ns();
  const std::uint64_t accounts = preload(table, spec);
  const double preload_s = seconds_since(t_preload);
  const double bytes_per_account =
      (current_rss_bytes() - rss_before) / static_cast<double>(accounts);
  service::ClockDriver ticker(table, /*resolution_us=*/1000);
  ticker.start();

  std::optional<Instruments> instruments;
  if (o.traced) instruments.emplace();
  obs::Tracer* tracer = o.traced ? instruments->tracer() : nullptr;
  obs::Registry registry;
  const std::vector<pid_t> tasks = list_tasks();
  service::ShardEngineOptions engine_opts;
  engine_opts.workers = spec.workers;
  engine_opts.registry = &registry;
  engine_opts.tracer = tracer;
  auto engine = std::make_unique<service::ShardEngine>(table, engine_opts);
  const std::vector<pid_t> worker_tids = new_tasks(tasks, list_tasks());
  const std::vector<pid_t> before_mesh = list_tasks();
  auto mesh = std::make_unique<runtime::EpollMesh>(2, /*io_threads=*/1);
  // One CPU each for the two event loops and the shard workers; the
  // generator and the idle helpers share what is left.
  std::vector<pid_t> busy = new_tasks(before_mesh, list_tasks());
  busy.insert(busy.end(), worker_tids.begin(), worker_tids.end());
  pin_apart(busy);
  runtime::Transport* server_ep = &mesh->endpoint(0);
  runtime::Transport* client_ep = &mesh->endpoint(1);
  if (o.traced) {
    server_ep = &instruments->wrap(*server_ep, /*server_side=*/true);
    client_ep = &instruments->wrap(*client_ep, /*server_side=*/false);
  }
  service::ServerOptions server_opts;
  server_opts.registry = &registry;
  server_opts.engine = engine.get();
  server_opts.tracer = tracer;
  auto server = std::make_unique<service::Server>(table, *server_ep, server_opts);
  auto client = std::make_unique<service::Client>(*client_ep, 0);
  client->query(ns, 0);  // connects
  const double setup_s = seconds_since(o.start_ns);
  if (o.setup_only) finish_setup_only(setup_s);

  // ---------------------------------------------------------------- phases
  Report report;
  Tally tally;
  ClientTarget target(*client, o.traced ? instruments->issue() : nullptr);
  const LoadContext ctx{&spec, &keys, o.seed, &target, &tally, nullptr, nullptr};
  run_closed(ctx, kPhaseWarmup, plan.warmup);

  OpenLoops loops;
  if (!o.traced) {
    run_open(ctx, kPhaseOpen, spec.nominal_rate(), plan.nominal, plan.drain,
             Clock::now(), loops);
    report.check(loops.wait_all(30), "open-loop requests never completed");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
  } else {
    // A: untraced closed loop: the capacity, and the baseline of
    // trace.overhead.
    const ClosedResult untraced = run_closed(ctx, kPhaseClosed, plan.closed);
    // B: traced closed loop — per-op layer times — then the span ledger.
    instruments->set_enabled(true);
    client->set_tracer(tracer);
    const LayerSnapshot before = instruments->snapshot();
    const ClosedResult traced = run_closed(ctx, kPhaseTracedClosed, plan.traced_closed);
    add_closed_layers(report, before, instruments->snapshot(), traced, opr);
    instruments->record_ledger([&] { run_closed(ctx, kPhaseLedger, plan.ledger); });
    // C: traced open loop at the nominal rate — waits, queues, threads.
    {
      OpenWindow window(*instruments, {engine.get()}, worker_tids);
      const OpenResult open = run_open(ctx, kPhaseTracedOpen, spec.nominal_rate(),
                                       plan.traced_open, plan.drain, Clock::now(), loops);
      window.finish(report, open, opr);
    }
    instruments->set_enabled(false);
    client->set_tracer(nullptr);
    report.check(loops.wait_all(30), "traced open-loop requests never completed");
    // The SLO ladder, untraced; its first step runs at the nominal rate.
    std::vector<OpenResult> ladder;
    for (std::size_t i = 0; i < spec.ladder.size(); ++i)
      ladder.push_back(run_open(ctx, kPhaseLadder + i, spec.ladder[i],
                                plan.slo_step, plan.drain, Clock::now(), loops));
    report.check(loops.wait_all(30), "SLO ladder requests never completed");
    // D: the engine with no wire in front.
    const double direct = engine_direct_ops(
        *engine, spec, keys, stream_seed(o.seed, kPhaseDirect, 0), plan.direct);

    report.add("throughput_ops", untraced.ops_per_s, "ops/s");
    add_nominal_layers(report, ladder.front(), opr);
    report.add("engine.direct_ops", direct, "ops/s");
    report.add("engine.wire_gap", untraced.ops_per_s / direct, "ratio");
    report.add("engine.sheds", static_cast<double>(server->requests_shed()), "count");
    report.add("trace.overhead", 1 - traced.ops_per_s / untraced.ops_per_s, "ratio");
    report.add("slo_rate_ops", slo_rate(spec, ladder), "ops/s");
    report.add("table.preload_s", preload_s, "s");
    report.add("table.bytes_per_account", bytes_per_account, "B");
    // One node: no replication, routing or failover to measure.
    report.add("repl.delta_frames_per_op", 0, "frames/op");
    report.add("repl.accounts_per_frame", 0, "accounts");
    report.add("repl.installs", 0, "count");
    report.add("repl.tokens_forfeited", 0, "tokens");
    report.add("cluster.redirects_per_op", 0, "1/op");
    report.add("cluster.failover_ms", 0, "ms");
  }

  // ------------------------------------------------------ correctness checks
  check_tally(tally, report);
  service::TableStats stats = engine->quiesced([&] { return table.stats(); });
  // The watchdog as an operator reads it: over the wire, from kStats.
  const std::vector<service::protocol::StatsEntry> wire_stats = client->stats();
  stats.watchdog_checks =
      static_cast<std::uint64_t>(stat_value(wire_stats, "tokend_invariant_checks"));
  stats.watchdog_violations =
      static_cast<std::uint64_t>(stat_value(wire_stats, "tokend_invariant_violations"));
  check_table(stats, "server", report);

  // --------------------------------------------------------------- teardown
  client.reset();
  server.reset();
  mesh.reset();
  engine.reset();
  if (o.traced) {
    add_table_layers(report, stats, tally);
    // The table is single-owner again: replay straight into it, then
    // through the codec.
    add_replay_layers(report, table, spec, keys, o.seed, plan.replay);
    write_spans(*instruments, o);
  }
  ticker.stop();
  return report;
}

}  // namespace tokabench
