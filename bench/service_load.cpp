// Load generator behind the service CI gates: 1M Zipf-distributed keys
// against the tokend data plane, one mode per layer (kModes), and one
// table of gates over what the modes measured (kGates).
//
//   $ ./service_load --quick                        # every mode, 1 s each
//   $ ./service_load --quick --gates --json=BENCH_service.json
//   $ ./service_load --modes=preload,table,sync,pipeline --gates
//
// Modes, in run order:
//   preload    creates every key in 4096-op batches (one thread, no engine)
//   table      raw acquires from the one thread that owns the table
//   sync       one blocking acquire per round trip on one epoll connection
//   pipeline   the same connection with kWindow async acquires in flight
//   sharded    batches straight into the ShardEngine, no wire
//   shardedtr  sharded with the flight recorder stamping every batch
//   shardedwd  sharded with the §3.4 watchdog at its production sampling
//   epoll      pipelined async clients over the epoll mesh into the server
//   cluster    the pipelined workload against 1 and kClusterNodes tokad
//              nodes, then an unreplicated and a replicated kill+join pair
//   scenario   trace-shaped open-loop traffic against an admission-
//              controlled, traced server: a diurnal ramp, a 10x flash
//              crowd, a thundering-herd reconnect and a Byzantine phase
//
// The gate table's correctness checks (the scenario's and the §3.4
// watchdog's) run whenever their modes ran; --gates adds the performance
// bounds. Any failed gate exits 1. --json
// writes the runs, the gates and the counters they read; --scrape-out and
// --trace-out capture the scenario server's Prometheus exposition and
// flight-recorder spans. Any other flag is a usage error (exit 2).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <optional>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/prctl.h>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/epoll.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace {

using namespace toka;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kKeys = 1 << 20;
constexpr double kZipf = 0.99;
constexpr std::size_t kBatch = 16;   ///< ops per sharded-mode batch
constexpr std::size_t kWindow = 64;  ///< acquires in flight per connection
constexpr std::size_t kClusterNodes = 3;
constexpr std::uint64_t kTraceSample = 128;    ///< recorder keeps 1 in N
constexpr std::uint64_t kWatchdogSample = 64;  ///< shardedwd audits 1 in N
/// Scenario baseline arrival rate (ops/s); the admission budget is 2x it.
constexpr double kOpenLoopRate = 20'000;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         1e3;
}

struct ModeResult {
  std::string mode;
  std::size_t threads = 0;
  double seconds = 0;       ///< wall time of the measured phase
  std::uint64_t ops = 0;    ///< acquire ops (each batch element counts)
  std::uint64_t errors = 0; ///< client-visible failures of the chain modes
  double p50_us = 0, p99_us = 0;

  double ops_per_sec() const { return seconds > 0 ? ops / seconds : 0; }
};

/// One thread's (or one chain's) counts; merged once the run is over.
struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t errors = 0;
  std::vector<double> lat_us;

  void merge(const Tally& other) {
    ops += other.ops;
    errors += other.errors;
    lat_us.insert(lat_us.end(), other.lat_us.begin(), other.lat_us.end());
  }
};

/// Runs `body(thread_index, tally)` on `threads` OS threads and merges.
ModeResult run_threads(const std::string& mode, std::size_t threads,
                       const std::function<void(std::size_t, Tally&)>& body) {
  std::vector<Tally> tallies(threads);
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&, t] { body(t, tallies[t]); });
  for (auto& w : workers) w.join();

  ModeResult res;
  res.mode = mode;
  res.threads = threads;
  res.seconds = us_between(start, Clock::now()) / 1e6;
  Tally all;
  for (const Tally& tally : tallies) all.merge(tally);
  res.ops = all.ops;
  res.errors = all.errors;
  if (!all.lat_us.empty()) {
    res.p50_us = util::quantile(all.lat_us, 0.50);
    res.p99_us = util::quantile(std::move(all.lat_us), 0.99);
  }
  return res;
}

/// What the cluster mode's replicated churn run measured beyond its ops:
/// the JSON's "replication" block.
struct ReplicationOutcome {
  bool ran = false;
  double failover_ms = 0;       ///< kill -> a victim-owned key served again
  std::uint64_t promotions = 0; ///< accepted promote() calls, cluster-wide
  std::uint64_t replica_installs = 0;  ///< replicas promoted into tables
  Tokens tokens_forfeited = 0;         ///< cluster-wide at run end
  /// One capacity per account that could have been mid-stream at the
  /// kill: each installed replica, and one in-flight op per client chain.
  Tokens forfeit_bound = 0;
  std::uint64_t delta_frames = 0;      ///< kReplicate frames streamed
  std::uint64_t delta_accounts = 0;    ///< account deltas they carried
};

/// The scenario counters the gates read.
struct ScenarioOutcome {
  bool ran = false;
  std::uint64_t violations = 0;        ///< untyped failures, every phase
  std::uint64_t flash_shed = 0;        ///< typed sheds in the flash crowd
  std::uint64_t shed_spans = 0;        ///< kShed spans the recorder kept
  std::uint64_t malformed_rejected = 0;  ///< typed kMalformedBody answers
  std::uint64_t refund_dropped = 0;      ///< refund-abuse tokens refused
  std::uint64_t watchdog_checks = 0;     ///< §3.4 grants audited
  std::uint64_t watchdog_violations = 0;
  std::string scrape_text;  ///< --scrape-out
  std::string trace_json;   ///< --trace-out
};

service::ServiceConfig service_config() {
  service::ServiceConfig cfg;
  cfg.shards = 256;
  cfg.delta_us = 10'000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 4;
  cfg.strategy.c_param = 16;
  return cfg;
}

/// What every mode shares, and what the modes leave for the gates.
struct Bench {
  explicit Bench(double run_seconds)
      : seconds(run_seconds),
        table(cfg),
        driver(table, /*resolution_us=*/1000),
        sampler(kKeys, kZipf) {
    driver.start();
  }

  Clock::time_point deadline() const {
    return Clock::now() + std::chrono::microseconds(from_seconds(seconds));
  }

  /// The last run of `mode`, or nullptr if it did not run.
  const ModeResult* result(const std::string& mode) const {
    for (auto it = runs.rbegin(); it != runs.rend(); ++it)
      if (it->mode == mode) return &*it;
    return nullptr;
  }

  const double seconds;  ///< per mode; an open-loop phase runs a share
  const std::size_t threads = util::ThreadPool::resolve(0);
  const service::ServiceConfig cfg = service_config();
  /// preload, table, sync and pipeline run on this table: the first two
  /// call it directly from the main thread, the wire modes through an
  /// engine that owns it for their duration.
  service::AccountTable table;
  service::ClockDriver driver;
  const util::ZipfSampler sampler;
  std::vector<ModeResult> runs;
  ReplicationOutcome replication;
  ScenarioOutcome scenario;
};

/// Creates every key with 4096-op batches from the calling thread, which
/// must own the table (no engine running on it).
void preload_keys(service::AccountTable& table) {
  constexpr std::size_t kChunk = 4096;
  std::vector<service::AcquireOp> ops;
  ops.reserve(kChunk);
  for (std::uint64_t key = 0; key < kKeys; key += kChunk) {
    ops.clear();
    const std::uint64_t end = std::min<std::uint64_t>(key + kChunk, kKeys);
    for (std::uint64_t k = key; k < end; ++k)
      ops.push_back(service::AcquireOp{k, 0});
    table.acquire_batch(ops);
  }
}

/// Every key created once, so the timed modes run against a populated
/// store; creation throughput is reported as a mode of its own.
void run_preload(Bench& b) {
  b.runs.push_back(run_threads("preload", 1, [&](std::size_t, Tally& tally) {
    preload_keys(b.table);
    tally.ops = kKeys;
  }));
}

/// Raw store cost: direct acquires from the one thread that owns the table
/// (no engine, no hand-off) — the floor every other mode adds layers to.
void run_table(Bench& b) {
  const auto deadline = b.deadline();
  b.runs.push_back(run_threads("table", 1, [&](std::size_t, Tally& tally) {
    util::Rng rng(1000);
    for (std::uint64_t i = 0;; ++i) {
      if ((i & 0xFF) == 0 && Clock::now() >= deadline) break;
      const std::uint64_t key = b.sampler.next(rng);
      if ((i & 0x3F) == 0) {
        const auto t0 = Clock::now();
        b.table.acquire(key, 1);
        tally.lat_us.push_back(us_between(t0, Clock::now()));
      } else {
        b.table.acquire(key, 1);
      }
      ++tally.ops;
    }
  }));
}

/// Keeps kWindow self-sustaining acquire chains on one async client until
/// `deadline`. Each completion records its op and issues the chain's next
/// acquire, so under load a receive burst's completions leave as one
/// coalesced write; an error retires its chain. Latency spans issue ->
/// completion. service::Client and cluster::ClusterClient share the
/// callback acquire_async shape.
template <typename AsyncClient>
void run_chains(AsyncClient& client, const util::ZipfSampler& sampler,
                std::uint64_t seed, Clock::time_point deadline,
                Tally& tally) {
  // Completions may arrive on several threads (a cluster client's node
  // lanes, timeout sweepers), so each chain tallies on its own — it has
  // one op in flight, and its reissue happens-before the next completion
  // — and the chains merge once all have retired. The semaphore is shared
  // so a completion's release() can never outlive it.
  struct Chain {
    util::Rng rng;
    Tally tally;
  };
  std::vector<Chain> chains(kWindow);
  for (std::size_t s = 0; s < kWindow; ++s) chains[s].rng.reseed(seed + s);
  auto finished = std::make_shared<std::counting_semaphore<>>(0);
  std::function<void(std::size_t)> issue = [&](std::size_t s) {
    const std::uint64_t key = sampler.next(chains[s].rng);
    const auto t0 = Clock::now();
    client.acquire_async(
        service::kDefaultNamespace, key, 1,
        [&, s, t0, finished](service::AcquireResult, std::exception_ptr err) {
          const auto now = Clock::now();
          Tally& chain = chains[s].tally;
          if (err != nullptr) {
            ++chain.errors;
            finished->release();
            return;
          }
          chain.lat_us.push_back(us_between(t0, now));
          ++chain.ops;
          if (now >= deadline) {
            finished->release();
          } else {
            issue(s);
          }
        });
  };
  for (std::size_t s = 0; s < kWindow; ++s) issue(s);
  for (std::size_t s = 0; s < kWindow; ++s) finished->acquire();
  for (const Chain& chain : chains) tally.merge(chain.tally);
}

/// One epoll connection to a server over the shared table: "sync" makes
/// one blocking acquire per round trip, "pipeline" keeps kWindow chains in
/// flight. Their ratio is the async client's speedup.
void run_connection(Bench& b, const std::string& mode) {
  service::ShardEngine engine(b.table);
  runtime::EpollMesh mesh(2);
  service::Server server(b.table, mesh.endpoint(0), {.engine = &engine});
  const auto deadline = b.deadline();
  b.runs.push_back(run_threads(mode, 1, [&](std::size_t, Tally& tally) {
    service::Client client(mesh.endpoint(1), 0);
    if (mode == "pipeline") {
      run_chains(client, b.sampler, 5000, deadline, tally);
      return;
    }
    util::Rng rng(5000);
    while (Clock::now() < deadline) {
      const std::uint64_t key = b.sampler.next(rng);
      const auto t0 = Clock::now();
      client.acquire(key, 1);
      tally.lat_us.push_back(us_between(t0, Clock::now()));
      ++tally.ops;
    }
  }));
}

/// Closed loop straight into the shard engine on its own preloaded table:
/// each submitter keeps a small ring of batches in flight, refilling a
/// slot as soon as its completion (fired by whichever shard-owner worker
/// finishes last) frees it. Latency spans submit -> completion. The plain
/// "sharded" run has the watchdog off; "shardedtr" stamps every batch for
/// the flight recorder and "shardedwd" turns the watchdog on, so each
/// ratio against "sharded" prices one feature.
void run_sharded(Bench& b, const std::string& mode) {
  service::ServiceConfig cfg = b.cfg;
  cfg.watchdog_sample = mode == "shardedwd" ? kWatchdogSample : 0;
  service::AccountTable table(cfg);
  // Until the engine starts the table is single-owner.
  preload_keys(table);
  service::ClockDriver driver(table, 1000);
  driver.start();
  obs::TracerOptions trace_opts;
  trace_opts.sample_every = kTraceSample;
  obs::Tracer tracer(trace_opts);
  obs::Tracer* const stamp = mode == "shardedtr" ? &tracer : nullptr;
  service::ShardEngineOptions engine_opts;
  engine_opts.tracer = stamp;
  service::ShardEngine engine(table, engine_opts);
  const auto deadline = b.deadline();
  b.runs.push_back(run_threads(mode, b.threads, [&](std::size_t t,
                                                    Tally& tally) {
    constexpr std::size_t kDepth = 4;  ///< batches in flight per submitter
    struct Slot {
      std::binary_semaphore free{1};
      std::vector<service::AcquireOp> ops;
      double lat_us = 0;
      Clock::time_point t0;
      bool warm = false;  ///< has a harvestable result
    };
    // The completion runs on a worker thread, but only after the submitter
    // parked the slot: acquire() below is the fence that makes the slot's
    // fields safe to read back.
    const auto done = [](service::EngineBatch&, void* ctx) {
      auto* slot = static_cast<Slot*>(ctx);
      slot->lat_us = us_between(slot->t0, Clock::now());
      slot->free.release();
    };
    std::array<Slot, kDepth> slots;
    util::Rng rng(9000 + t);
    const auto harvest = [&](Slot& slot, bool sample_latency) {
      if (sample_latency) tally.lat_us.push_back(slot.lat_us);
      tally.ops += slot.ops.size();
    };
    for (std::uint64_t i = 0;; ++i) {
      if (Clock::now() >= deadline) break;
      Slot& slot = slots[i % kDepth];
      slot.free.acquire();
      if (slot.warm) harvest(slot, (i & 0x3F) == 0);
      slot.warm = true;
      slot.ops.resize(kBatch);
      for (service::AcquireOp& op : slot.ops)
        op = service::AcquireOp{b.sampler.next(rng), 1};
      slot.t0 = Clock::now();
      std::uint64_t trace_id = 0;
      bool trace_sampled = false;
      if (stamp != nullptr) {
        trace_id = stamp->next_trace_id();
        trace_sampled = stamp->sample_next();
      }
      // A full owner queue sheds the whole batch; the closed loop just
      // offers it again (the bench measures capacity, not the valve).
      while (!engine.submit_batch(service::kDefaultNamespace, slot.ops, done,
                                  &slot, trace_id, trace_sampled))
        std::this_thread::yield();
    }
    for (Slot& slot : slots) {  // retire the in-flight tail
      slot.free.acquire();
      if (slot.warm) harvest(slot, /*sample_latency=*/true);
    }
  }));
  engine.drain();
  driver.stop();
}

/// The whole plane end to end on its own table: one pipelined async client
/// per thread over the nonblocking epoll mesh into the server, whose
/// workers reply from their completions (the loop batches their writes).
void run_epoll(Bench& b) {
  // Watchdog off, as in "sharded": "shardedwd" already prices the
  // watchdog, and ROADMAP item 2's epoll/sharded ratio must compare like
  // with like.
  service::ServiceConfig cfg = b.cfg;
  cfg.watchdog_sample = 0;
  service::AccountTable table(cfg);
  service::ClockDriver driver(table, 1000);
  driver.start();
  service::ShardEngine engine(table);
  runtime::EpollMesh mesh(1 + b.threads);
  service::Server server(table, mesh.endpoint(0), {.engine = &engine});
  const auto deadline = b.deadline();
  b.runs.push_back(run_threads("epoll", b.threads, [&](std::size_t t,
                                                       Tally& tally) {
    service::Client client(mesh.endpoint(static_cast<NodeId>(1 + t)), 0);
    run_chains(client, b.sampler, 5000 + 997 * t, deadline, tally);
  }));
  driver.stop();
}

/// The pipelined workload against a tokad cluster of `node_count`
/// in-process nodes, each a ClusterServer over a one-worker engine on its
/// own dispatcher lane (one node models one machine's serial capacity),
/// with ClusterClient routing per key. With `churn`, the last node dies at
/// ~40% of the run and a fresh node joins at ~70%; the clients absorb both
/// through retries, and what they cannot absorb counts as errors. With
/// `replicas` > 0 the kill fails over through promote() instead of an
/// operator map push, and b.replication records the failover.
ModeResult run_cluster(Bench& b, const std::string& mode,
                       std::size_t node_count, bool churn,
                       std::uint32_t replicas) {
  struct ClusterNode {
    service::AccountTable table;
    service::ClockDriver driver;
    service::ShardEngine engine;
    std::unique_ptr<cluster::ClusterServer> server;
    static service::ShardEngineOptions one_worker() {
      service::ShardEngineOptions opts;
      opts.workers = 1;  // a node stays one serial unit
      return opts;
    }
    ClusterNode(const service::ServiceConfig& node_cfg,
                runtime::Transport& transport, const cluster::ClusterMap& map)
        : table(node_cfg), driver(table, 1000), engine(table, one_worker()) {
      driver.start();
      service::ServerOptions opts;
      opts.engine = &engine;
      server = std::make_unique<cluster::ClusterServer>(table, transport, map,
                                                        opts);
    }
  };

  const std::size_t slots = node_count + (churn ? 1 : 0);  // spare for join
  cluster::ClusterMap map{1, cluster::kDefaultVnodes, {}};
  for (std::size_t n = 0; n < node_count; ++n)
    map.nodes.push_back(static_cast<NodeId>(n));
  map.replicas = replicas;

  // Endpoints: servers 0..slots-1, then a stride of `slots` per worker,
  // one for the churn admin and one for the failover probe. Server lanes
  // are distinct (lane = destination % lanes and lanes >= slots), so
  // nodes parallelize.
  runtime::InProcNetwork net(
      slots + (b.threads + 2) * slots, /*latency_us=*/0,
      /*dispatchers=*/slots + std::min<std::size_t>(b.threads, 8));
  auto endpoints_of = [&](std::size_t slot) {
    return [&net, slot, slots](NodeId server) -> runtime::Transport& {
      return net.endpoint(static_cast<NodeId>(slots + slot * slots + server));
    };
  };
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (std::size_t n = 0; n < node_count; ++n)
    nodes.push_back(std::make_unique<ClusterNode>(
        b.cfg, net.endpoint(static_cast<NodeId>(n)), map));
  net.start();

  cluster::ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 250 * 1'000;
  client_cfg.max_attempts = 12;

  const auto deadline = b.deadline();
  std::atomic<std::uint64_t> failover_us{0};
  std::atomic<bool> stop_churn{false};
  std::thread churn_thread;
  if (churn) {
    churn_thread = std::thread([&] {
      cluster::ClusterClient admin(endpoints_of(b.threads), map, client_cfg);
      std::this_thread::sleep_for(
          std::chrono::microseconds(from_seconds(b.seconds * 0.4)));
      if (stop_churn.load()) return;
      const NodeId victim = static_cast<NodeId>(node_count - 1);
      // A probe key the victim owns, picked before the kill so the timed
      // failover window measures the cluster, not the search.
      std::uint64_t probe_key = 0;
      if (replicas > 0) {
        const cluster::HashRing ring(map);
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          if (ring.owner(service::kDefaultNamespace, k) == victim) {
            probe_key = k;
            break;
          }
        }
      }
      const auto t_kill = Clock::now();
      nodes[victim]->server.reset();
      const cluster::ClusterMap shrunk = map.without_node(victim);
      if (replicas > 0) {
        // The failover path proper: a survivor coordinates the promotion
        // (drops the victim from membership, installs its replicas at the
        // floor, broadcasts the new map) instead of an operator map push.
        nodes.front()->server->promote(victim);
        // Failover ends when a key the victim owned is served again. The
        // probe client starts from the post-failover map with a short
        // timeout, so the measurement is promotion + install + serve, not
        // the prober's own stale-routing backoff.
        cluster::ClusterClientConfig probe_cfg = client_cfg;
        probe_cfg.call_timeout_us = 10 * 1'000;
        probe_cfg.max_attempts = 100;
        cluster::ClusterClient probe(endpoints_of(b.threads + 1), shrunk,
                                     probe_cfg);
        while (!stop_churn.load()) {
          try {
            probe.acquire(service::kDefaultNamespace, probe_key, 0);
            failover_us.store(us_between(t_kill, Clock::now()));
            break;
          } catch (const std::exception&) {
          }
        }
      } else {
        admin.push_map(shrunk);
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(from_seconds(b.seconds * 0.3)));
      if (stop_churn.load()) return;
      const NodeId joiner = static_cast<NodeId>(node_count);
      const cluster::ClusterMap grown = shrunk.with_node(joiner);
      nodes.push_back(
          std::make_unique<ClusterNode>(b.cfg, net.endpoint(joiner), grown));
      admin.push_map(grown);
    });
  }

  ModeResult res = run_threads(mode, b.threads, [&](std::size_t t,
                                                    Tally& tally) {
    cluster::ClusterClient client(endpoints_of(t), map, client_cfg);
    run_chains(client, b.sampler, 7000 + 997 * t, deadline, tally);
  });
  stop_churn.store(true);
  if (churn_thread.joinable()) churn_thread.join();
  for (auto& node : nodes) node->driver.stop();
  net.stop();
  if (res.errors > 0)
    std::fprintf(stderr, "cluster mode '%s': %llu client-visible errors\n",
                 mode.c_str(), static_cast<unsigned long long>(res.errors));
  if (replicas > 0) {
    ReplicationOutcome& out = b.replication;
    out.ran = true;
    out.failover_ms = failover_us.load() / 1000.0;
    for (const auto& node : nodes) {
      if (node->server == nullptr) continue;  // the churn victim
      out.promotions += node->server->promotions();
      out.tokens_forfeited += node->server->tokens_forfeited();
      const cluster::ReplicationEngine& repl = node->server->replication();
      out.replica_installs += repl.replica_installs();
      out.delta_frames += repl.deltas_sent();
      out.delta_accounts += repl.delta_accounts_sent();
    }
    out.forfeit_bound =
        static_cast<Tokens>(out.replica_installs + b.threads * kWindow) *
        (b.cfg.strategy.c_param + 1);
  }
  return res;
}

/// Scale-out pair (1 node, then kClusterNodes), then the replication
/// pricing pair. Both runs of that pair churn, the replicated one failing
/// over by promotion, so their ops/s ratio prices the delta stream rather
/// than the kill window.
void run_cluster_mode(Bench& b) {
  b.runs.push_back(run_cluster(b, "cluster1", 1, false, 0));
  b.runs.push_back(run_cluster(b, "cluster", kClusterNodes, false, 0));
  b.runs.push_back(run_cluster(b, "cluster-churn", kClusterNodes, true, 0));
  b.runs.push_back(run_cluster(b, "cluster-repl", kClusterNodes, true, 1));
}

/// Open-loop generators sleep until each scheduled arrival. The default
/// 50 µs timer slack would make every wake-up tens of microseconds late,
/// and that lateness would read as service latency; 1 µs keeps it out.
void tighten_timer_slack() {
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);  // in nanoseconds
}

/// Replays trace-shaped traffic against the full traced plane: async
/// clients over the epoll mesh into an admission-controlled server with
/// the flight recorder on both ends. Four phases, each a run of its own:
///
///   diurnal   — the arrival rate follows the synthetic availability
///               trace's online fraction (the paper's two-day curve,
///               compressed onto the phase), inside the admission budget;
///   flash     — baseline, then a 10x crowd through the middle third: the
///               excess must come back as typed sheds, each force-recorded;
///   herd      — a dead-quiet window (every client "offline"), then all of
///               them reconnect at once into a 5x burst;
///   byzantine — baseline traffic next to an adversary that replays
///               frames, truncates bodies and refunds tokens it never got.
///
/// Anything that is not a success or a typed kOverloaded is a violation.
void run_scenario(Bench& b) {
  ScenarioOutcome& out = b.scenario;
  service::ServiceConfig cfg = b.cfg;
  // Audit every key: the Byzantine phase's point is that replay and refund
  // abuse cannot move the watchdog's violation counter, so the watchdog
  // must watch everything the abuse touches.
  cfg.watchdog_sample = 1;
  service::AccountTable table(cfg);
  service::ClockDriver driver(table, /*resolution_us=*/1000);
  driver.start();
  obs::Registry registry;
  obs::TracerOptions trace_opts;
  trace_opts.sample_every = kTraceSample;
  trace_opts.registry = &registry;
  obs::Tracer tracer(trace_opts);
  service::ShardEngineOptions engine_opts;
  engine_opts.registry = &registry;
  engine_opts.tracer = &tracer;
  service::ShardEngine engine(table, engine_opts);
  // Two extra endpoints past the load threads: the raw-frame adversary and
  // the refund-abuse client of the Byzantine phase.
  runtime::EpollMesh mesh(3 + b.threads);
  mesh.register_metrics(registry);
  service::ServerOptions opts;
  opts.registry = &registry;
  opts.engine = &engine;
  opts.tracer = &tracer;
  opts.admission.enabled = true;
  opts.admission.interval_us = 10'000;
  opts.admission.min_budget = 32;
  // Budget ~2x the baseline rate: the diurnal curve fits, the bursts don't.
  opts.admission.max_budget = std::max<std::int64_t>(
      static_cast<std::int64_t>(2.0 * kOpenLoopRate *
                                (opts.admission.interval_us / 1e6)),
      64);
  service::Server server(table, mesh.endpoint(0), opts);

  // The traffic shape: the synthetic availability trace's online fraction
  // over its two-day horizon, evaluated at phase fraction f in [0, 1].
  util::Rng shape_rng(cfg.seed + 97);
  const trace::SyntheticTraceConfig shape_cfg;
  const std::vector<trace::Segment> segments =
      trace::generate_segments(shape_cfg, 256, shape_rng);
  const auto online_frac = [&](double f) {
    const TimeUs t = static_cast<TimeUs>(
        f * static_cast<double>(shape_cfg.horizon - 1));
    std::size_t online = 0;
    for (const trace::Segment& seg : segments)
      if (seg.online_at(t)) ++online;
    return static_cast<double>(online) / static_cast<double>(segments.size());
  };

  const double phase_s = std::max(b.seconds / 3, 0.5);
  // Runs one phase; returns its {typed sheds, violations}.
  const auto drive = [&](const std::string& name,
                         const std::function<double(double)>& rate_of) {
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> violations{0};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::microseconds(from_seconds(phase_s));
    ModeResult res = run_threads(name, b.threads, [&](std::size_t t,
                                                      Tally& tally) {
      tighten_timer_slack();
      auto client = std::make_unique<service::Client>(
          mesh.endpoint(static_cast<NodeId>(1 + t)), 0);
      client->set_tracer(&tracer);
      util::Rng rng(8500 + t);
      std::counting_semaphore<> outstanding(0);
      std::uint64_t issued = 0, drained = 0;
      auto scheduled = start;
      while (Clock::now() < deadline) {
        const double f = std::min(
            us_between(start, Clock::now()) / (phase_s * 1e6), 1.0);
        const double rate = rate_of(f);
        if (rate <= 0) {
          // Offline stretch: retire the connection like a vanished client
          // (the herd phase's quiet window). Outstanding completions
          // reference the client, so drain before dropping it.
          if (client != nullptr) {
            for (; drained < issued; ++drained) outstanding.acquire();
            client.reset();
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          scheduled = Clock::now();
          continue;
        }
        if (client == nullptr) {
          // Back online: every thread hits this edge within ~1ms of each
          // other — the thundering-herd reconnect.
          client = std::make_unique<service::Client>(
              mesh.endpoint(static_cast<NodeId>(1 + t)), 0);
          client->set_tracer(&tracer);
        }
        const auto interval = std::chrono::nanoseconds(std::max<std::int64_t>(
            static_cast<std::int64_t>(1e9 * b.threads / rate), 1));
        std::this_thread::sleep_until(scheduled);
        const std::uint64_t key = b.sampler.next(rng);
        const auto t0 = Clock::now();
        client->acquire_async(
            service::kDefaultNamespace, key, 1,
            [&tally, &outstanding, &shed, &violations, t0](
                service::AcquireResult, std::exception_ptr err) {
              if (!err) {
                tally.lat_us.push_back(us_between(t0, Clock::now()));
                ++tally.ops;
              } else {
                try {
                  std::rethrow_exception(err);
                } catch (const service::protocol::OverloadedError&) {
                  shed.fetch_add(1, std::memory_order_relaxed);
                } catch (...) {
                  violations.fetch_add(1, std::memory_order_relaxed);
                }
              }
              outstanding.release();
            });
        ++issued;
        scheduled += interval;
        // Past a burst the generator may be far behind schedule; snap
        // forward so the next phase fraction's rate applies now.
        if (scheduled + std::chrono::milliseconds(50) < Clock::now())
          scheduled = Clock::now();
      }
      for (; drained < issued; ++drained) outstanding.acquire();
    });
    res.seconds = phase_s;  // an open loop is defined by its schedule
    b.runs.push_back(std::move(res));
    out.violations += violations.load();
    return shed.load();
  };

  // Diurnal ramp: rate tracks the online fraction (roughly 0.3..0.55 over
  // the horizon), scaled to live comfortably inside the 2x budget.
  drive("scn-diurnal",
        [&](double f) { return kOpenLoopRate * (0.25 + 1.5 * online_frac(f)); });
  // Flash crowd: 10x through the middle third.
  out.flash_shed = drive("scn-flash", [](double f) {
    return f >= 1.0 / 3 && f < 2.0 / 3 ? kOpenLoopRate * 10 : kOpenLoopRate;
  });
  // Thundering herd: dead air, then everyone reconnects into a 5x burst.
  drive("scn-herd",
        [](double f) { return f < 0.3 ? 0.0 : kOpenLoopRate * 5; });

  // Byzantine-ish clients: legit traffic keeps flowing at the baseline
  // rate while an adversary (a) replays byte-identical acquire frames, (b)
  // streams frames whose header parses but whose body does not, and (c)
  // refunds tokens it was never granted. A replay settles against the same
  // bucket as any request (the bucket, not the frame, is the authority),
  // the garbage must draw kMalformedBody, the abuse a zero-accepted
  // refund, and the every-key watchdog must find the §3.4 bound intact.
  {
    namespace proto = service::protocol;
    std::atomic<bool> byz_stop{false};
    std::atomic<std::uint64_t> malformed_rejected{0};
    runtime::Transport& raw =
        mesh.endpoint(static_cast<NodeId>(1 + b.threads));
    raw.set_handler([&](NodeId, std::vector<std::byte> payload) {
      try {
        const proto::Response resp = proto::decode_response(payload);
        const auto* err = std::get_if<proto::ErrorResponse>(&resp);
        if (err != nullptr && err->code == proto::ErrorCode::kMalformedBody)
          malformed_rejected.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception&) {
        // Undecodable response to a hostile frame: ignore.
      }
    });
    std::thread adversary([&] {
      service::Client refunder(
          mesh.endpoint(static_cast<NodeId>(2 + b.threads)), 0);
      util::Rng rng(0xB12A);
      std::uint64_t id = 1;
      while (!byz_stop.load(std::memory_order_relaxed)) {
        // Replay: one legit frame, byte-identical on the wire, sent twice.
        const std::uint64_t key = rng.next_u64() % 64;
        const std::vector<std::byte> frame = proto::encode(
            proto::AcquireRequest{id++, key, 1, service::kDefaultNamespace});
        raw.send(0, std::vector<std::byte>(frame));
        raw.send(0, std::vector<std::byte>(frame));
        // Malformed: a valid header riding a truncated body.
        std::vector<std::byte> garbage = proto::encode(
            proto::AcquireRequest{id++, key, 1, service::kDefaultNamespace});
        garbage.resize(std::min<std::size_t>(garbage.size(), 12));
        raw.send(0, std::move(garbage));
        // Refund abuse: the table accepts at most what the account's grant
        // history covers, so accepted stays 0 and the drop counter moves.
        try {
          const service::RefundResult r =
              refunder.refund(service::kDefaultNamespace, 1'000'000 + key, 8);
          out.refund_dropped += static_cast<std::uint64_t>(8 - r.accepted);
        } catch (const std::exception&) {
          // A shed refund is fine; the abuse tally just doesn't move.
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    drive("scn-byzantine", [](double) { return kOpenLoopRate; });
    byz_stop.store(true, std::memory_order_relaxed);
    adversary.join();
    raw.set_handler({});
    out.malformed_rejected = malformed_rejected.load();
  }

  engine.drain();
  const service::TableStats stats =
      engine.quiesced([&] { return table.stats(); });
  out.watchdog_checks = stats.watchdog_checks;
  out.watchdog_violations = stats.watchdog_violations;
  for (const obs::SpanRecord& span : tracer.snapshot())
    if (span.decision == obs::Decision::kShed) ++out.shed_spans;
  out.scrape_text = registry.render_prometheus();
  out.trace_json = tracer.render_json(/*max_spans=*/4096);
  out.ran = true;
  driver.stop();
}

struct Mode {
  const char* name;
  void (*run)(Bench&);
};

/// Every mode, in run order; --modes picks a subset.
const Mode kModes[] = {
    {"preload", run_preload},
    {"table", run_table},
    {"sync", [](Bench& b) { run_connection(b, "sync"); }},
    {"pipeline", [](Bench& b) { run_connection(b, "pipeline"); }},
    {"sharded", [](Bench& b) { run_sharded(b, "sharded"); }},
    {"shardedtr", [](Bench& b) { run_sharded(b, "shardedtr"); }},
    {"shardedwd", [](Bench& b) { run_sharded(b, "shardedwd"); }},
    {"epoll", run_epoll},
    {"cluster", run_cluster_mode},
    {"scenario", run_scenario},
};

std::optional<double> ops_of(const Bench& b, const std::string& mode) {
  const ModeResult* r = b.result(mode);
  if (r == nullptr) return std::nullopt;
  return r->ops_per_sec();
}

/// fast's ops/s over slow's; a slow mode that served nothing reads 0.
std::optional<double> speedup(const Bench& b, const std::string& fast,
                              const std::string& slow) {
  const auto f = ops_of(b, fast), s = ops_of(b, slow);
  if (!f || !s) return std::nullopt;
  return *s > 0 ? *f / *s : 0.0;
}

/// Percent of base's ops/s that `with` loses; a base that served nothing
/// reads 100.
std::optional<double> overhead_pct(const Bench& b, const std::string& with,
                                   const std::string& base) {
  const auto w = ops_of(b, with), s = ops_of(b, base);
  if (!w || !s) return std::nullopt;
  return *s > 0 ? 100.0 * (1.0 - *w / *s) : 100.0;
}

std::optional<double> scenario_count(
    const Bench& b, std::uint64_t ScenarioOutcome::*counter) {
  if (!b.scenario.ran) return std::nullopt;
  return static_cast<double>(b.scenario.*counter);
}

std::optional<double> cluster_errors(const Bench& b) {
  if (!b.replication.ran) return std::nullopt;
  double errors = 0;
  for (const char* mode : {"cluster1", "cluster", "cluster-churn",
                           "cluster-repl"})
    errors += static_cast<double>(b.result(mode)->errors);
  return errors;
}

std::optional<double> replication_errors(const Bench& b) {
  if (!b.replication.ran) return std::nullopt;
  return static_cast<double>(b.result("cluster-repl")->errors);
}

/// Installed replicas, counted only if a promotion happened.
std::optional<double> replication_installs(const Bench& b) {
  if (!b.replication.ran) return std::nullopt;
  return b.replication.promotions > 0
             ? static_cast<double>(b.replication.replica_installs)
             : 0.0;
}

/// Forfeited tokens as a share of the lag bound (ReplicationOutcome).
/// A duplicate grant shows in the churn tests; this catches failover
/// silently confiscating the keyspace.
std::optional<double> replication_forfeit(const Bench& b) {
  if (!b.replication.ran) return std::nullopt;
  return static_cast<double>(b.replication.tokens_forfeited) /
         static_cast<double>(b.replication.forfeit_bound);
}

struct Gate {
  const char* name;
  double bound;
  bool ceiling;  ///< the value must stay <= bound; otherwise >= bound
  /// A ratio or floor of parallel runs: on fewer CPUs the runs time-slice
  /// and the reading measures the scheduler, not the code.
  bool needs_4_cpus;
  /// A correctness check, not a performance bound: evaluated whenever its
  /// modes ran, with or without --gates, so every run of the scenario (the
  /// ctest smoke and its sanitizer builds among them) exits 1 on a broken
  /// promise.
  bool check;
  /// nullopt when the modes it reads did not run.
  std::optional<double> (*value)(const Bench&);
};

const Gate kGates[] = {
    // {name, bound, ceiling, needs_4_cpus, check, value}
    // The raw store, and the pipelined client against the sync loop on
    // the same connection (the floor only catches the pipeline regressing
    // into sync behaviour).
    {"min_table_ops", 100'000, false, false, false,
     [](const Bench& b) { return ops_of(b, "table"); }},
    {"min_pipeline_speedup", 1.0, false, false, false,
     [](const Bench& b) { return speedup(b, "pipeline", "sync"); }},
    // The engine, and what the flight recorder and the watchdog cost it.
    {"min_sharded_ops", 250'000, false, true, false,
     [](const Bench& b) { return ops_of(b, "sharded"); }},
    {"max_trace_overhead_pct", 2, true, true, false,
     [](const Bench& b) { return overhead_pct(b, "shardedtr", "sharded"); }},
    {"max_watchdog_overhead_pct", 2, true, true, false,
     [](const Bench& b) { return overhead_pct(b, "shardedwd", "sharded"); }},
    // Scale-out: kClusterNodes nodes against one, error-free.
    {"min_cluster_speedup", 1.5, false, true, false,
     [](const Bench& b) { return speedup(b, "cluster", "cluster1"); }},
    {"cluster_errors", 0, true, true, false, cluster_errors},
    // Failover by promotion under a kill: no client errors, a forfeit
    // within the replication lag, and what the delta stream costs.
    {"replication_errors", 0, true, true, false, replication_errors},
    {"replication_installs", 1, false, true, false, replication_installs},
    {"replication_forfeit", 1, true, true, false, replication_forfeit},
    {"max_replication_overhead_pct", 15, true, true, false,
     [](const Bench& b) {
       return overhead_pct(b, "cluster-repl", "cluster-churn");
     }},
    // The scenario's promises: failures are typed sheds in every phase
    // (the flash crowd against the admission budget included), the flash
    // crowd's sheds left kShed spans, every abuse class drew its typed
    // answer, and the every-key watchdog audited grants and found the §3.4
    // bound.
    {"scenario_violations", 0, true, false, true,
     [](const Bench& b) {
       return scenario_count(b, &ScenarioOutcome::violations);
     }},
    {"scenario_shed_spans", 1, false, false, true,
     [](const Bench& b) {
       return scenario_count(b, &ScenarioOutcome::shed_spans);
     }},
    {"byzantine_malformed_rejected", 1, false, false, true,
     [](const Bench& b) {
       return scenario_count(b, &ScenarioOutcome::malformed_rejected);
     }},
    {"byzantine_refund_dropped", 1, false, false, true,
     [](const Bench& b) {
       return scenario_count(b, &ScenarioOutcome::refund_dropped);
     }},
    {"watchdog_checks", 1, false, false, true,
     [](const Bench& b) {
       return scenario_count(b, &ScenarioOutcome::watchdog_checks);
     }},
    {"watchdog_violations", 0, true, false, true,
     [](const Bench& b) {
       return scenario_count(b, &ScenarioOutcome::watchdog_violations);
     }},
};

struct GateOutcome {
  const Gate* gate;
  std::optional<double> value;  ///< nullopt: could not be evaluated
  bool pass;
};

/// CPUs this process may run on — what nproc reports. hardware_concurrency
/// ignores the affinity mask.
unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return std::max(std::thread::hardware_concurrency(), 1U);
  return static_cast<unsigned>(CPU_COUNT(&set));
}

void print_result(const ModeResult& r) {
  std::printf("%-13s %3zu thr %6.2fs %10llu ops %10.0f ops/s", r.mode.c_str(),
              r.threads, r.seconds, static_cast<unsigned long long>(r.ops),
              r.ops_per_sec());
  if (r.p99_us > 0)
    std::printf("   lat p50 %8.1fus  p99 %8.1fus", r.p50_us, r.p99_us);
  std::printf("\n");
}

/// UTC wall-clock now, ISO-8601 (the JSON stamp when --timestamp is not
/// passed).
std::string iso8601_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json(const std::string& path, const Bench& b,
                const std::string& git_sha, const std::string& timestamp,
                const std::vector<GateOutcome>& gates) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"toka-bench-service-v3\",\n");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", json_escape(git_sha).c_str());
  std::fprintf(f, "  \"timestamp\": \"%s\",\n",
               json_escape(timestamp).c_str());
  std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus());
  const ScenarioOutcome& scn = b.scenario;
  if (scn.ran) {
    std::fprintf(
        f,
        "  \"scenario\": {\"violations\": %llu, \"flash_shed\": %llu, "
        "\"shed_spans\": %llu,\n"
        "    \"malformed_rejected\": %llu, \"refund_dropped\": %llu, "
        "\"watchdog_checks\": %llu, \"watchdog_violations\": %llu},\n",
        static_cast<unsigned long long>(scn.violations),
        static_cast<unsigned long long>(scn.flash_shed),
        static_cast<unsigned long long>(scn.shed_spans),
        static_cast<unsigned long long>(scn.malformed_rejected),
        static_cast<unsigned long long>(scn.refund_dropped),
        static_cast<unsigned long long>(scn.watchdog_checks),
        static_cast<unsigned long long>(scn.watchdog_violations));
  }
  const ReplicationOutcome& repl = b.replication;
  if (repl.ran) {
    const double ops = b.result("cluster-repl")->ops_per_sec();
    const double baseline = b.result("cluster-churn")->ops_per_sec();
    std::fprintf(
        f,
        "  \"replication\": {\"replicas\": 1, \"ops_per_sec\": %.0f, "
        "\"baseline_ops_per_sec\": %.0f, \"overhead\": %.4f,\n"
        "    \"failover_ms\": %.3f, \"promotions\": %llu, "
        "\"replica_installs\": %llu, \"tokens_forfeited\": %lld, "
        "\"forfeit_bound\": %lld,\n"
        "    \"delta_frames\": %llu, \"delta_accounts\": %llu},\n",
        ops, baseline, baseline > 0 ? 1.0 - ops / baseline : 0.0,
        repl.failover_ms, static_cast<unsigned long long>(repl.promotions),
        static_cast<unsigned long long>(repl.replica_installs),
        static_cast<long long>(repl.tokens_forfeited),
        static_cast<long long>(repl.forfeit_bound),
        static_cast<unsigned long long>(repl.delta_frames),
        static_cast<unsigned long long>(repl.delta_accounts));
  }
  std::fprintf(f, "  \"gates\": [\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const GateOutcome& g = gates[i];
    char value[32] = "null";
    if (g.value) std::snprintf(value, sizeof value, "%.6g", *g.value);
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %s, \"bound\": %.6g, "
                 "\"pass\": %s}%s\n",
                 g.gate->name, value, g.gate->bound,
                 g.pass ? "true" : "false", i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"runs\": [\n");
  for (std::size_t i = 0; i < b.runs.size(); ++i) {
    const ModeResult& r = b.runs[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %zu, \"seconds\": %.3f, "
                 "\"ops\": %llu, \"ops_per_sec\": %.0f, "
                 "\"latency_us\": {\"p50\": %.2f, \"p99\": %.2f}}%s\n",
                 r.mode.c_str(), r.threads, r.seconds,
                 static_cast<unsigned long long>(r.ops), r.ops_per_sec(),
                 r.p50_us, r.p99_us, i + 1 < b.runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void write_text(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

constexpr const char* kUsage =
    "usage: service_load [--quick] [--modes=a,b,...] [--gates] [--json=FILE]\n"
    "                    [--scrape-out=FILE] [--trace-out=FILE]\n"
    "                    [--git-sha=SHA] [--timestamp=ISO8601]\n";

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered, so piped stdout interleaves with the FAIL lines on
  // stderr in the order they happened.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const util::Args args(argc, argv);
  // A stale flag (say --max-trace-overhead=2 from an old script) must not
  // be ignored without a word.
  const std::vector<std::string> known = {
      "quick",     "modes",   "gates",    "json",
      "scrape-out", "trace-out", "git-sha", "timestamp"};
  for (const std::string& name : args.names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "service_load: unknown flag --%s\n%s",
                   name.c_str(), kUsage);
      return 2;
    }
  }
  bool quick = false;
  bool gates_on = false;
  try {
    quick = args.get_flag("quick");
    gates_on = args.get_flag("gates");
  } catch (const util::IoError& e) {
    std::fprintf(stderr, "service_load: %s\n%s", e.what(), kUsage);
    return 2;
  }
  if (!args.positional().empty()) {
    std::fprintf(stderr, "service_load: unexpected argument '%s'\n%s",
                 args.positional().front().c_str(), kUsage);
    return 2;
  }

  std::vector<const Mode*> modes;
  for (const Mode& mode : kModes) modes.push_back(&mode);
  const bool subset = args.has("modes");
  if (subset) {
    modes.clear();
    std::stringstream list(args.get_string("modes", ""));
    for (std::string name; std::getline(list, name, ',');) {
      const auto it = std::find_if(std::begin(kModes), std::end(kModes),
                                   [&](const Mode& m) { return name == m.name; });
      if (it == std::end(kModes)) {
        std::fprintf(stderr, "service_load: unknown mode '%s'; modes are",
                     name.c_str());
        for (const Mode& m : kModes) std::fprintf(stderr, " %s", m.name);
        std::fprintf(stderr, "\n");
        return 2;
      }
      modes.push_back(&*it);
    }
    if (modes.empty()) {
      std::fprintf(stderr, "service_load: --modes names no mode\n");
      return 2;
    }
  }

  Bench b(quick ? 1.0 : 4.0);
  std::printf("service_load: %s, %zu shards, Δ=%lldms | %llu keys zipf %.2f | "
              "%zu threads, %.1fs per mode\n\n",
              b.cfg.strategy.label().c_str(), b.table.shard_count(),
              static_cast<long long>(b.cfg.delta_us / 1000),
              static_cast<unsigned long long>(kKeys), kZipf, b.threads,
              b.seconds);
  for (const Mode* mode : modes) {
    const std::size_t before = b.runs.size();
    mode->run(b);
    for (std::size_t i = before; i < b.runs.size(); ++i)
      print_result(b.runs[i]);
  }
  b.driver.stop();

  // --gates evaluates the whole table. With the default mode set every
  // gate must be evaluated then, so CI cannot lose one unnoticed; a --modes
  // subset evaluates the gates it can. Without --gates only the checks
  // run, each whenever its modes ran.
  std::vector<GateOutcome> gates;
  std::size_t failed = 0;
  const unsigned cpus = host_cpus();
  std::string skipped;
  for (const Gate& gate : kGates) {
    if (!gates_on && !gate.check) continue;
    if (gate.needs_4_cpus && cpus < 4) {
      skipped += std::string(" ") + gate.name;
      continue;
    }
    const std::optional<double> value = gate.value(b);
    if (!value && (subset || !gates_on)) {
      if (gates_on)
        std::printf("-- gate %s: not evaluated (its modes did not run)\n",
                    gate.name);
      continue;
    }
    const bool pass = value && (gate.ceiling ? *value <= gate.bound
                                             : *value >= gate.bound);
    gates.push_back(GateOutcome{&gate, value, pass});
    failed += pass ? 0 : 1;
    if (value) {
      std::fprintf(pass ? stdout : stderr, "%s gate %s: %g (%s %g)\n",
                   pass ? "OK" : "FAIL:", gate.name, *value,
                   gate.ceiling ? "ceiling" : "floor", gate.bound);
    } else {
      std::fprintf(stderr, "FAIL: gate %s: not evaluated\n", gate.name);
    }
  }
  if (!skipped.empty())
    std::fprintf(stderr,
                 "WARN: only %u CPU(s); skipping the gates that need >= 4 "
                 "(on fewer they measure the scheduler):%s\n",
                 cpus, skipped.c_str());

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty()) {
    write_json(json_path, b, args.get_string("git-sha", "unknown"),
               args.get_string("timestamp", iso8601_now()), gates);
  }
  write_text(args.get_string("scrape-out", ""), b.scenario.scrape_text);
  write_text(args.get_string("trace-out", ""), b.scenario.trace_json);

  std::uint64_t scenario_served = 0;
  for (const ModeResult& r : b.runs)
    if (r.mode.rfind("scn-", 0) == 0) scenario_served += r.ops;
  const ModeResult* flash = b.result("scn-flash");
  std::printf(
      "summary: table %.0f ops/s, sharded %.0f ops/s, pipelined wire %.0f "
      "ops/s, epoll wire %.0f ops/s, %zu-node cluster %.2fx one node, flash "
      "crowd served/shed %llu/%llu, scenario served %llu, violations %llu, "
      "replicated failover %.1f ms, forfeited %lld tokens",
      ops_of(b, "table").value_or(0), ops_of(b, "sharded").value_or(0),
      ops_of(b, "pipeline").value_or(0), ops_of(b, "epoll").value_or(0),
      kClusterNodes, speedup(b, "cluster", "cluster1").value_or(0),
      static_cast<unsigned long long>(flash != nullptr ? flash->ops : 0),
      static_cast<unsigned long long>(b.scenario.flash_shed),
      static_cast<unsigned long long>(scenario_served),
      static_cast<unsigned long long>(b.scenario.violations),
      b.replication.failover_ms,
      static_cast<long long>(b.replication.tokens_forfeited));
  if (!gates.empty())
    std::printf(" | %zu gates, %zu failed", gates.size(), failed);
  std::printf("\n");
  return failed > 0 ? 1 : 0;
}
