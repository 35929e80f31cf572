// End-to-end cluster observability: a live 3-node tokad cluster under
// Zipf traffic with a mid-run node kill + promotion, observed purely
// through the wire — the kStats sweep (ClusterClient::cluster_stats
// merging every node's bucketed telemetry) and the kTraces sweep
// (fetch_cluster_traces stitching per-node flight recorders). Asserts
// the ISSUE-level acceptance: the merged latency histogram is exactly
// the union of the per-node ones (same ≤1/16 quantile-error bound), at
// least one trace id spans two or more nodes after the failover, and
// the online §3.4 invariant watchdog accumulates >= 1000 checks with
// zero violations. Runs under TSan in CI (the ^test_cluster regex).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace toka::cluster {
namespace {

namespace proto = service::protocol;

const obs::Metric* find_metric(const std::vector<obs::Metric>& metrics,
                               const char* name) {
  for (const obs::Metric& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

double metric_value(const std::vector<obs::Metric>& metrics,
                    const char* name) {
  const obs::Metric* m = find_metric(metrics, name);
  return m != nullptr ? m->value : 0.0;
}

/// One cluster member with its own telemetry registry, flight recorder,
/// table, clock driver and shard engine — the per-node stack a real
/// deployment runs.
struct ObservedNode {
  obs::Registry registry;
  obs::Tracer tracer;
  service::AccountTable table;
  service::ClockDriver driver;
  service::ShardEngine engine;
  std::unique_ptr<ClusterServer> server;

  static obs::TracerOptions tracer_opts(obs::Registry& registry) {
    obs::TracerOptions t;
    t.sample_every = 8;  // small test runs must still fill the rings
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
  ObservedNode(const service::ServiceConfig& cfg,
               runtime::Transport& transport, const ClusterMap& map,
               NodeId node)
      : tracer(tracer_opts(registry)),
        table(cfg),
        driver(table, 500),
        engine(table, engine_opts(registry, tracer)) {
    driver.start();
    service::ServerOptions opts;
    opts.engine = &engine;
    opts.registry = &registry;
    opts.tracer = &tracer;
    opts.node = node;
    server = std::make_unique<ClusterServer>(table, transport, map, opts);
  }
  ~ObservedNode() { driver.stop(); }
};

TEST(ClusterObs, MergedStatsTracesAndWatchdogSurviveFailover) {
  service::ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 8;
  cfg.initial_tokens = 4;  // grants flow from the first request on
  cfg.watchdog_sample = 1;  // audit every key: deterministic check growth
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kWorkers = 2;
  const ClusterMap map1{1, kDefaultVnodes, {0, 1, 2}, /*replicas=*/1};

  // Server slots 0..2, then per-client endpoint fans (workers + admin).
  runtime::InProcNetwork net(kNodes + (kWorkers + 1) * kNodes,
                             /*latency_us=*/0, /*dispatchers=*/kNodes);
  auto endpoints_of = [&](std::size_t slot) {
    return [&net, slot](NodeId server) -> runtime::Transport& {
      return net.endpoint(static_cast<NodeId>(kNodes + slot * kNodes + server));
    };
  };
  std::vector<std::unique_ptr<ObservedNode>> nodes;
  for (NodeId n = 0; n < kNodes; ++n)
    nodes.push_back(
        std::make_unique<ObservedNode>(cfg, net.endpoint(n), map1, n));
  net.start();

  ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 150 * 1'000;
  client_cfg.max_attempts = 12;

  // Zipf workload with a kill + promotion halfway. Workers record their
  // client spans into node 0's recorder (co-located, as in the demo CLI),
  // so a sampled request served by node 1 or 2 is already a cross-node
  // trace — and the promotion's kHandoff/kPromote frames carry their own
  // context to every survivor.
  std::vector<std::thread> workers;
  std::atomic<bool> stop{false};
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ClusterClient client(endpoints_of(w), map1, client_cfg);
      client.set_tracer(&nodes[0]->tracer);
      util::Rng rng(11 + w);
      const util::ZipfSampler zipf(64, 0.9);
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          client.acquire(service::kDefaultNamespace, zipf.next(rng), 1);
        } catch (const std::exception&) {
          // dead-node timeouts mid-churn are expected
        }
      }
    });
  }

  ClusterClient admin(endpoints_of(kWorkers), map1, client_cfg);

  // Let traffic flow, then kill node 2 and promote from node 0.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  nodes[2]->server.reset();
  const auto promoted = nodes[0]->server->promote(2);
  EXPECT_GT(promoted.epoch, 1u);

  // Keep the load running until the watchdog has audited >= 1000 §3.4
  // windows cluster-wide (bounded by a generous deadline, so a slow TSan
  // run converges instead of flaking).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  double checks = 0;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    checks = metric_value(admin.cluster_stats().merged,
                          "tokend_invariant_checks");
  } while (checks < 1000 && std::chrono::steady_clock::now() < deadline);
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  admin.refresh_map();

  const auto cs = admin.cluster_stats();
  ASSERT_EQ(cs.per_node.size(), 2u);  // node 2 is dead; survivors answer

  // ---- merged histogram: exact union of the survivors' snapshots ------
  const obs::Metric* merged_lat =
      find_metric(cs.merged, "tokend_request_latency_us");
  ASSERT_NE(merged_lat, nullptr);
  double count_sum = 0;
  double p99_max = 0;
  for (const auto& [node, metrics] : cs.per_node) {
    const obs::Metric* lat = find_metric(metrics, "tokend_request_latency_us");
    ASSERT_NE(lat, nullptr) << "node " << node;
    EXPECT_FALSE(lat->buckets.empty()) << "node " << node;
    count_sum += lat->value;
    p99_max = std::max(p99_max, lat->p99);
  }
  EXPECT_GT(merged_lat->value, 0.0);
  EXPECT_DOUBLE_EQ(merged_lat->value, count_sum);
  EXPECT_GT(merged_lat->p99, 0.0);
  // The union's p99 ranks within the per-node histograms it was built
  // from: it can never exceed the worst node's p99 bucket (one 1/16
  // log-linear bucket of slack for the midpoint convention).
  EXPECT_LE(merged_lat->p99, p99_max * (1.0 + 1.0 / 16.0) + 1.0);
  EXPECT_LE(merged_lat->p50, merged_lat->p99);
  EXPECT_LE(merged_lat->p99, merged_lat->max);

  // ---- the watchdog audited the §3.4 bound online, and it held --------
  EXPECT_GE(metric_value(cs.merged, "tokend_invariant_checks"), 1000.0);
  EXPECT_EQ(metric_value(cs.merged, "tokend_invariant_violations"), 0.0);

  // ---- at least one trace id spans two or more nodes ------------------
  const std::vector<proto::TraceSpan> spans = admin.fetch_cluster_traces(0);
  ASSERT_FALSE(spans.empty());
  std::map<std::uint64_t, std::set<std::uint32_t>> nodes_by_trace;
  for (const proto::TraceSpan& s : spans)
    nodes_by_trace[s.trace_id].insert(s.node);
  std::size_t best_spread = 0;
  std::uint64_t best_trace = 0;
  for (const auto& [id, node_set] : nodes_by_trace) {
    if (node_set.size() > best_spread) {
      best_spread = node_set.size();
      best_trace = id;
    }
  }
  EXPECT_GE(best_spread, 2u) << "no trace id was stitched across nodes";

  // Fetching that id alone returns exactly its spans, still multi-node.
  const auto one = admin.fetch_cluster_traces(best_trace);
  ASSERT_FALSE(one.empty());
  std::set<std::uint32_t> one_nodes;
  for (const proto::TraceSpan& s : one) {
    EXPECT_EQ(s.trace_id, best_trace);
    one_nodes.insert(s.node);
  }
  EXPECT_GE(one_nodes.size(), 2u);

  net.stop();
}

}  // namespace
}  // namespace toka::cluster
