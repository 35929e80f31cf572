// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// strategy evaluation, account operations, rounding, peer sampling, event
// processing throughput, graph construction, the analysis kernels, the
// tokend service layer (protocol v2 encode/decode, sync vs pipelined
// round trips through the in-process fabric), and the tokad cluster layer
// (HashRing owner lookups and ring rebuilds).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <semaphore>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/eigen.hpp"
#include "cluster/hash_ring.hpp"
#include "core/account.hpp"
#include "core/rand_round.hpp"
#include "core/strategies.hpp"
#include "net/graph.hpp"
#include "net/online_peer_view.hpp"
#include "net/peer_sampling.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace toka;

void BM_RngNextU64(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_RngBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.below(20));
}
BENCHMARK(BM_RngBelow);

void BM_StrategyEval(benchmark::State& state) {
  core::RandomizedTokenAccount strategy(5, 10);
  Tokens a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.proactive(a));
    benchmark::DoNotOptimize(strategy.reactive(a, true));
    a = (a + 1) % 11;
  }
}
BENCHMARK(BM_StrategyEval);

void BM_RandRound(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(core::rand_round(2.7, rng));
}
BENCHMARK(BM_RandRound);

void BM_AccountTick(benchmark::State& state) {
  core::RandomizedTokenAccount strategy(5, 10);
  core::TokenAccount account(strategy);
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(account.on_tick(rng));
}
BENCHMARK(BM_AccountTick);

void BM_AccountMessage(benchmark::State& state) {
  core::RandomizedTokenAccount strategy(5, 10);
  core::TokenAccount account(strategy, 10);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(account.on_message(true, rng));
    account.refund_reactive(0);  // keep the loop honest
    if (account.balance() == 0) account = core::TokenAccount(strategy, 10);
  }
}
BENCHMARK(BM_AccountMessage);

// -- SELECTPEER(): old O(out-degree) scan vs. the O(1) indexed view -------

/// The pre-refactor send path, replicated verbatim: an inline reservoir
/// scan over the adjacency list with a direct online-array lookup (the
/// deleted Simulator::select_peer loop — no predicate indirection), so
/// the view's speedup is measured against an honest baseline.
void BM_SelectPeerScan(benchmark::State& state) {
  util::Rng graph_rng(1);
  const auto graph =
      net::random_k_out(10'000, static_cast<std::size_t>(state.range(0)),
                        graph_rng);
  std::vector<std::uint8_t> online(10'000, 1);
  for (std::size_t v = 0; v < online.size(); v += 10) online[v] = 0;
  util::Rng rng(2);
  NodeId v = 0;
  for (auto _ : state) {
    NodeId chosen = kNoNode;
    std::uint64_t eligible = 0;
    for (NodeId w : graph.out(v)) {
      if (!online[w]) continue;
      ++eligible;
      if (rng.below(eligible) == 0) chosen = w;
    }
    benchmark::DoNotOptimize(chosen);
    v = (v + 1) % 10'000;
  }
}
BENCHMARK(BM_SelectPeerScan)->Arg(20)->Arg(4);

/// The post-refactor send path: one random index into the online prefix.
void BM_SelectPeerView(benchmark::State& state) {
  util::Rng graph_rng(1);
  const auto graph =
      net::random_k_out(10'000, static_cast<std::size_t>(state.range(0)),
                        graph_rng);
  net::OnlinePeerView view(graph, {}, /*enable_updates=*/true);
  for (NodeId v = 0; v < 10'000; v += 10) view.set_online(v, false);
  util::Rng rng(2);
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.pick(v, rng));
    v = (v + 1) % 10'000;
  }
}
BENCHMARK(BM_SelectPeerView)->Arg(20)->Arg(4);

/// Cost of one churn transition: node flips state and every in-neighbor's
/// online prefix is updated (the price paid for O(1) picks).
void BM_ChurnToggle(benchmark::State& state) {
  util::Rng graph_rng(1);
  const auto graph = net::random_k_out(10'000, 20, graph_rng);
  net::OnlinePeerView view(graph, {}, /*enable_updates=*/true);
  NodeId v = 0;
  for (auto _ : state) {
    view.set_online(v, false);
    view.set_online(v, true);
    v = (v + 1) % 10'000;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ChurnToggle);

// -- Event queue push/pop --------------------------------------------------

struct BenchEvent {
  TimeUs at;
  std::uint64_t seq;
  std::uint64_t payload[3];  // roughly an arrival-sized record
};

/// Steady-state main-lane throughput: one push + one pop per iteration
/// against a standing population of range(0) events.
void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue<BenchEvent> queue;
  util::Rng rng(1);
  std::uint64_t seq = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    queue.push(BenchEvent{static_cast<TimeUs>(rng.below(1'000'000)), seq++,
                          {}});
  for (auto _ : state) {
    const TimeUs base = queue.next_time();
    queue.push(BenchEvent{base + static_cast<TimeUs>(rng.below(1000)), seq++,
                          {}});
    benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1 << 10)->Arg(1 << 16);

/// Same workload on the tick lane (small fixed-size records).
void BM_EventQueueTickLane(benchmark::State& state) {
  sim::EventQueue<BenchEvent> queue;
  util::Rng rng(1);
  std::uint64_t seq = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    queue.push_tick(sim::TickEntry{
        static_cast<TimeUs>(rng.below(1'000'000)), seq++, 0, 0});
  for (auto _ : state) {
    const TimeUs base = queue.next_time();
    queue.push_tick(sim::TickEntry{
        base + static_cast<TimeUs>(rng.below(1000)), seq++, 0, 0});
    benchmark::DoNotOptimize(queue.pop_tick());
  }
}
BENCHMARK(BM_EventQueueTickLane)->Arg(1 << 16);

void BM_PeerSampling(benchmark::State& state) {
  util::Rng graph_rng(1);
  const auto graph =
      net::random_k_out(10'000, static_cast<std::size_t>(state.range(0)),
                        graph_rng);
  net::UniformNeighborSampler sampler(graph);
  util::Rng rng(2);
  NodeId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.select(v, rng));
    v = (v + 1) % 10'000;
  }
}
BENCHMARK(BM_PeerSampling)->Arg(20)->Arg(4);

void BM_GraphKOut(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(1);
    const auto g =
        net::random_k_out(static_cast<std::size_t>(state.range(0)), 20, rng);
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GraphKOut)->Arg(1000)->Arg(10'000);

void BM_GraphWattsStrogatz(benchmark::State& state) {
  for (auto _ : state) {
    util::Rng rng(1);
    const auto g = net::watts_strogatz(
        static_cast<std::size_t>(state.range(0)), 4, 0.01, rng);
    benchmark::DoNotOptimize(g.edge_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GraphWattsStrogatz)->Arg(5000);

struct NullBody {};

class NullLogic final : public sim::NodeLogic<NullBody> {
 public:
  NullBody create_message(NodeId, sim::Simulator<NullBody>&) override {
    return {};
  }
  bool update_state(NodeId, const sim::Arrival<NullBody>&,
                    sim::Simulator<NullBody>&) override {
    return true;
  }
};

/// End-to-end engine throughput: events per second for a proactive sim.
void BM_SimulatorThroughput(benchmark::State& state) {
  util::Rng graph_rng(1);
  const auto graph = net::random_k_out(
      static_cast<std::size_t>(state.range(0)), 20, graph_rng);
  std::uint64_t events = 0;
  for (auto _ : state) {
    NullLogic logic;
    sim::SimConfig cfg;
    cfg.timing.delta = 1000;
    cfg.timing.transfer = 10;
    cfg.timing.horizon = 100 * 1000;
    cfg.strategy.kind = core::StrategyKind::kProactive;
    sim::Simulator<NullBody> simulator(graph, logic, cfg);
    simulator.run();
    events += simulator.counters().events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond)->MinTime(0.2);

void BM_PowerIteration(benchmark::State& state) {
  util::Rng rng(1);
  const auto g = net::watts_strogatz(
      static_cast<std::size_t>(state.range(0)), 4, 0.01, rng);
  const net::InWeights weights(g);
  const analysis::SparseMatrix m(weights);
  for (auto _ : state) {
    const auto result = analysis::power_iteration(m, 2000, 1e-10);
    benchmark::DoNotOptimize(result.eigenvalue);
  }
  state.SetLabel("n=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PowerIteration)->Arg(1000)->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

// ------------------------------------------------------ tokend service layer

void BM_ProtocolEncodeAcquire(benchmark::State& state) {
  const service::protocol::AcquireRequest req{1234567, 0xDEADBEEF, 3, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::protocol::encode(req));
  }
}
BENCHMARK(BM_ProtocolEncodeAcquire);

void BM_ProtocolDecodeAcquire(benchmark::State& state) {
  const std::vector<std::byte> wire = service::protocol::encode(
      service::protocol::AcquireRequest{1234567, 0xDEADBEEF, 3, 7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::protocol::decode_request(wire));
  }
}
BENCHMARK(BM_ProtocolDecodeAcquire);

/// Encode+decode of a whole batch frame; items/s = ops through the codec.
void BM_ProtocolBatchRoundTrip(benchmark::State& state) {
  service::protocol::BatchAcquireRequest req;
  req.id = 1;
  req.ns = 3;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    req.ops.push_back({static_cast<std::uint64_t>(i) * 977, 1});
  std::uint64_t ops = 0;
  for (auto _ : state) {
    const std::vector<std::byte> wire = service::protocol::encode(req);
    benchmark::DoNotOptimize(service::protocol::decode_request(wire));
    ops += req.ops.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ProtocolBatchRoundTrip)->Arg(16)->Arg(256);

service::ServiceConfig service_bench_config() {
  service::ServiceConfig cfg;
  cfg.shards = 16;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 8;
  return cfg;
}

/// One blocking acquire per iteration through Server/Client (and the
/// server's shard engine) over the in-process fabric: one blocking round
/// trip per op, what the sync wrappers pay.
void BM_ServiceRoundTripSync(benchmark::State& state) {
  service::AccountTable table(service_bench_config());
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  service::Server server(table, net.endpoint(0), {.engine = &engine});
  service::Client client(net.endpoint(1), 0);
  net.start();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.acquire(1, 0));
  }
  net.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServiceRoundTripSync)->MinTime(0.2);

/// The same round trip with range(0) calls in flight through the async
/// core: items/s vs the sync case is the pipelining win in-process.
void BM_ServiceRoundTripPipelined(benchmark::State& state) {
  service::AccountTable table(service_bench_config());
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  service::Server server(table, net.endpoint(0), {.engine = &engine});
  service::Client client(net.endpoint(1), 0);
  net.start();
  const std::int64_t window = state.range(0);
  std::vector<std::future<service::AcquireResult>> futures;
  futures.reserve(static_cast<std::size_t>(window));
  std::uint64_t ops = 0;
  for (auto _ : state) {
    futures.clear();
    for (std::int64_t i = 0; i < window; ++i)
      futures.push_back(client.acquire_async(service::kDefaultNamespace, 1, 0));
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
    ops += static_cast<std::uint64_t>(window);
  }
  net.stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ServiceRoundTripPipelined)->Arg(32)->MinTime(0.2);

// ------------------------------------------------- shard-per-thread plane

/// Uncontended queue cost: one producer pushing and popping through the
/// MPSC ring in drain-sized batches (the shard worker's steady state).
void BM_MpscQueuePushPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::MpscQueue<std::uint64_t> queue(1 << 14);
  std::vector<std::uint64_t> out;
  out.reserve(batch);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i) queue.try_push(i);
    out.clear();
    benchmark::DoNotOptimize(queue.pop_batch(out, batch));
    ops += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_MpscQueuePushPop)->Arg(1)->Arg(64)->Arg(256);

/// Cross-thread hand-off: range(0) producer threads blast the queue while
/// one consumer thread drains; measures sustained elements/s through the
/// ring under real contention (1 producer = the SPSC base case).
void BM_MpscQueueHandoff(benchmark::State& state) {
  const auto producers = static_cast<std::size_t>(state.range(0));
  constexpr std::uint64_t kPerIter = 64 * 1024;
  util::MpscQueue<std::uint64_t> queue(1 << 14);
  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&queue, producers, p] {
        const std::uint64_t n = kPerIter / producers + (p == 0 ? kPerIter % producers : 0);
        for (std::uint64_t i = 0; i < n; ++i) queue.push(i);
      });
    }
    std::uint64_t drained = 0;
    std::vector<std::uint64_t> out;
    out.reserve(256);
    while (drained < kPerIter) {
      out.clear();
      const std::size_t n = queue.pop_batch(out, 256);
      if (n == 0) {
        std::this_thread::yield();
        continue;
      }
      drained += n;
    }
    for (auto& t : threads) t.join();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kPerIter));
}
BENCHMARK(BM_MpscQueueHandoff)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Full op hand-off round trip: submit a ShardOp to a one-worker engine
/// and wait for its completion to fire — queue push + worker wake + table
/// acquire + completion, the sharded server's per-request skeleton.
void BM_ShardOpRoundTrip(benchmark::State& state) {
  service::ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 10;
  service::AccountTable table(cfg);
  table.clock().advance(1'000'000);
  service::ShardEngineOptions opts;
  opts.workers = 1;
  service::ShardEngine engine(table, opts);

  std::binary_semaphore done(0);
  std::uint64_t ops = 0;
  for (auto _ : state) {
    service::ShardOp op;
    op.kind = service::ShardOp::Kind::kAcquire;
    op.key = ops++ % 64;
    op.tokens = 0;
    op.done = [](service::ShardOp&, void* ctx) {
      static_cast<std::binary_semaphore*>(ctx)->release();
    };
    op.ctx = &done;
    engine.submit(op);
    done.acquire();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_ShardOpRoundTrip)->MinTime(0.2);

service::ServiceConfig table_bench_config() {
  service::ServiceConfig cfg;  // 16 shards
  cfg.delta_us = 10'000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 4;
  cfg.strategy.c_param = 16;
  return cfg;
}

constexpr std::uint64_t kTableBenchKeys = 2'000'000;

/// A table preloaded with the first kTableBenchKeys keys for which `keep`
/// holds, in 4096-op batches; returns those keys.
std::vector<std::uint64_t> preload(service::AccountTable& table,
                                   const std::function<bool(std::uint64_t)>& keep) {
  std::vector<std::uint64_t> keys;
  keys.reserve(kTableBenchKeys);
  std::vector<service::AcquireOp> ops;
  for (std::uint64_t k = 0; keys.size() < kTableBenchKeys; ++k) {
    if (!keep(k)) continue;
    keys.push_back(k);
    ops.push_back(service::AcquireOp{k, 0});
    if (ops.size() == 4096 || keys.size() == kTableBenchKeys) {
      table.acquire_batch(ops);
      ops.clear();
    }
  }
  return keys;
}

/// Keys [0, kTableBenchKeys) preloaded once and shared by every run of the
/// hit variants (Google Benchmark re-enters a benchmark to size its runs).
service::AccountTable& preloaded_table() {
  static service::AccountTable* table = [] {
    auto* t = new service::AccountTable(table_bench_config());
    preload(*t, [](std::uint64_t) { return true; });
    return t;
  }();
  return *table;
}

/// As preloaded_table(), but holding only keys that node 0 of a 3-node
/// HashRing owns — what one tokad node's table holds. The ring position is
/// the account hash's top bits, and the stores take their homes from other
/// bits (AccountTable::store_hash), so these keys' homes spread over each
/// array as uniform keys' do instead of bunching into node 0's arcs.
std::pair<service::AccountTable*, const std::vector<std::uint64_t>*>
ring_node_table() {
  static const std::vector<NodeId> nodes{0, 1, 2};
  static const cluster::HashRing ring(std::span<const NodeId>(nodes),
                                      cluster::kDefaultVnodes);
  static auto* table = new service::AccountTable(table_bench_config());
  static const auto* keys = new std::vector<std::uint64_t>(preload(
      *table, [](std::uint64_t k) { return ring.owner(0, k) == 0; }));
  return {table, keys};
}

/// One AccountTable::acquire, the per-op cost of the account store.
/// range(0) = 0: hits on 2M preloaded uniform keys — every lookup misses
/// the cache, so the probe's memory touches dominate. range(0) = 1:
/// first-contact inserts of fresh keys (capped at 1M iterations so the
/// table stays small). range(0) = 2: hits on 2M keys one node of a 3-node
/// ring owns; next to range(0) = 0 it prices any longer probe runs a
/// node's keys get, which homes taken from the ring bits would cause.
void BM_AccountTableAcquire(benchmark::State& state) {
  const std::int64_t variant = state.range(0);
  std::unique_ptr<service::AccountTable> fresh;
  service::AccountTable* table = nullptr;
  const std::vector<std::uint64_t>* ring_keys = nullptr;
  if (variant == 1) {
    fresh = std::make_unique<service::AccountTable>(table_bench_config());
    table = fresh.get();
  } else if (variant == 2) {
    std::tie(table, ring_keys) = ring_node_table();
  } else {
    table = &preloaded_table();
  }
  util::Rng rng(7);
  std::uint64_t next = 0;
  for (auto _ : state) {
    std::uint64_t key = 0;
    if (variant == 1) {
      key = next++;
    } else {
      key = rng.below(kTableBenchKeys);
      if (ring_keys != nullptr) key = (*ring_keys)[key];
    }
    benchmark::DoNotOptimize(table->acquire(key, 1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(variant == 1 ? "insert" : variant == 2 ? "ring-node hit" : "hit");
}
BENCHMARK(BM_AccountTableAcquire)->Arg(0);
BENCHMARK(BM_AccountTableAcquire)->Arg(1)->Iterations(1 << 20);
BENCHMARK(BM_AccountTableAcquire)->Arg(2);

/// Keys [0, kCachedTableKeys) preloaded once: 1024 accounts per shard, about
/// 1 MiB of slots in all, so hits stay in cache.
constexpr std::uint64_t kCachedTableKeys = 16'384;

/// The process's resident set size in bytes (/proc/self/statm; 0 where
/// it cannot be read).
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t pages = 0;
  std::int64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return resident * ::sysconf(_SC_PAGESIZE);
}

service::AccountTable& cached_table() {
  static service::AccountTable* table = [] {
    auto* t = new service::AccountTable(table_bench_config());
    std::vector<service::AcquireOp> ops;
    for (std::uint64_t k = 0; k < kCachedTableKeys; ++k)
      ops.push_back(service::AcquireOp{k, 0});
    t->acquire_batch(ops);
    return t;
  }();
  return *table;
}

/// One AccountTable::acquire_batch, the path that prefetches home slots.
/// range(0) = 0: 64-op batches of random hits on the 2M preloaded keys,
/// the wire_batch frame shape (about four ops per shard). range(0) = 1:
/// 4096-op chunks of first-contact inserts, the tokabench preload shape
/// (capped at 256 chunks, 1M accounts). range(0) = 2: 4096-op chunks of
/// random hits on the 16k-key cached table, which price the grouping and
/// the settle arithmetic without the DRAM misses of the other two. Items
/// are ops. The insert shape also reports `bytes_per_account`: the
/// process's RSS growth over the run divided by the accounts it created.
void BM_AccountTableAcquireBatch(benchmark::State& state) {
  const std::int64_t shape = state.range(0);
  const bool inserts = shape == 1;
  const std::size_t batch = shape == 0 ? 64 : 4096;
  const std::uint64_t keys = shape == 2 ? kCachedTableKeys : kTableBenchKeys;
  const std::int64_t rss_before = resident_bytes();
  std::unique_ptr<service::AccountTable> fresh;
  if (inserts) fresh = std::make_unique<service::AccountTable>(table_bench_config());
  service::AccountTable& table = inserts      ? *fresh
                                 : shape == 0 ? preloaded_table()
                                              : cached_table();
  util::Rng rng(7);
  std::uint64_t next = 0;
  std::vector<service::AcquireOp> ops(batch);
  for (auto _ : state) {
    for (service::AcquireOp& op : ops)
      op = service::AcquireOp{inserts ? next++ : rng.below(keys), 1};
    benchmark::DoNotOptimize(table.acquire_batch(ops));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch));
  if (inserts) {
    state.counters["bytes_per_account"] =
        static_cast<double>(resident_bytes() - rss_before) /
        static_cast<double>(table.account_count());
  }
  state.SetLabel(inserts      ? "insert chunks"
                 : shape == 0 ? "hit frames"
                              : "cached hit chunks");
}
BENCHMARK(BM_AccountTableAcquireBatch)->Arg(0);
BENCHMARK(BM_AccountTableAcquireBatch)->Arg(1)->Iterations(256);
BENCHMARK(BM_AccountTableAcquireBatch)->Arg(2);

std::vector<NodeId> ring_nodes(std::int64_t count) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < nodes.size(); ++i)
    nodes[i] = static_cast<NodeId>(i);
  return nodes;
}

/// The per-request routing cost of the cluster layer: one (ns, key) →
/// owner lookup. range(0) = members, range(1) = virtual nodes per member
/// (the binary search is over members * vnodes points).
void BM_HashRingOwner(benchmark::State& state) {
  const cluster::HashRing ring(
      std::span<const NodeId>(ring_nodes(state.range(0))),
      static_cast<std::uint32_t>(state.range(1)));
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.owner(0, key++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashRingOwner)
    ->Args({3, 64})
    ->Args({16, 64})
    ->Args({64, 64})
    ->Args({16, 256})
    ->Args({64, 256});

/// Membership-change cost: rebuilding the ring from a fresh map (point
/// generation + sort). Paid once per epoch bump per node/client, never on
/// the request path.
void BM_HashRingRebuild(benchmark::State& state) {
  const std::vector<NodeId> nodes = ring_nodes(state.range(0));
  const auto vnodes = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    cluster::HashRing ring(std::span<const NodeId>(nodes), vnodes);
    benchmark::DoNotOptimize(ring.point_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashRingRebuild)
    ->Args({3, 64})
    ->Args({16, 64})
    ->Args({64, 64})
    ->Args({16, 256})
    ->Args({64, 256});

/// The per-delta routing cost of replication: one (ns, key) →
/// replication-group lookup (owner + k distinct ring successors, walking
/// past same-node virtual points). range(0) = members, range(1) = k.
/// Includes the group vector allocation — the price flush_shards pays per
/// drained account.
void BM_HashRingSuccessors(benchmark::State& state) {
  const cluster::HashRing ring(
      std::span<const NodeId>(ring_nodes(state.range(0))),
      cluster::kDefaultVnodes);
  const auto k = static_cast<std::size_t>(state.range(1));
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.successors(0, key++, k));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HashRingSuccessors)
    ->Args({3, 1})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({64, 2})
    ->Args({64, 4});

}  // namespace

BENCHMARK_MAIN();
