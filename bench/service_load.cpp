// Multi-threaded open- and closed-loop load generator for the tokend
// service layer: 1M+ distinct keys with Zipf popularity against the sharded
// AccountTable, measured raw (direct calls from the one thread that owns
// the table while no engine runs), straight into the ShardEngine, and
// through the wire protocol (engine-backed Server/Client over the epoll
// mesh or, for the cluster modes, the in-process fabric) — synchronously
// and pipelined through the async client core.
//
//   $ ./service_load --quick   # CI: preload,table,...,pipeline,cluster
//   $ ./service_load --modes=preload,epoll --threads=16 --keys=4194304
//   $ ./service_load --modes=sync,pipeline --window=32 --seconds=5
//   $ ./service_load --modes=cluster --cluster-nodes=3 --churn
//
// --modes takes a comma-separated list; an unknown mode is a usage error.
//
// The paired "sync" and "pipeline" modes answer the async API's headline
// question: both run single-connection closed loops over the epoll mesh,
// sync one blocking acquire per round trip, pipeline keeping --window
// async acquires in flight through the completion registry.
// --min-pipeline-speedup turns the ratio into a CI floor.
//
// The "cluster" mode answers the scale-OUT question: the same pipelined
// Zipf workload against one tokad node ("cluster1") and against
// --cluster-nodes nodes ("cluster"), each node a ClusterServer over a
// one-worker ShardEngine on its own in-process dispatcher lane (one lane
// and one worker ≈ one machine's serial capacity),
// with ClusterClient routing per key. --min-cluster-speedup turns the
// N-node-vs-1-node ratio into a CI floor, and --churn kills one node and
// joins a fresh one mid-run (reported: errors must stay 0).
//
// The "sharded" and "epoll" modes answer the scale-UP question for the
// data plane. "sharded" drives batches straight into the ShardEngine
// (bounded MPSC hand-off to shard-owner workers, vectorized settle, no
// wire); --min-sharded-ops turns it into a CI floor on hosts with enough
// cores for the workers not to fight the submitters. "epoll" runs the full
// plane end to end — pipelined async clients over the nonblocking
// EpollMesh into the server with corked replies. Both record the shard
// queues' depth percentiles while they run.
//
// The "overload" mode answers the graceful-degradation question: an
// admission-controlled server takes a 10x flash crowd on top of a baseline
// open loop; the excess must come back as typed kOverloaded sheds (any
// timeout or untyped error fails the run) while the served requests' p99
// stays near the unloaded baseline. Shed/served ratios land in the JSON
// document, and --scrape-out=FILE captures the server's Prometheus
// exposition at the end of the run.
//
// The "scenario" mode replays trace-shaped traffic against the full traced
// plane (async clients over the epoll mesh into an admission-controlled
// server with the flight recorder attached): a
// diurnal ramp whose arrival rate follows the synthetic availability
// trace's online fraction, a 10x flash crowd, and a thundering-herd
// reconnect (a dead-quiet window, then every client reconnects at once
// into a 5x burst). Served/shed/violation counts and the per-stage
// (queue-wait / execute / cork) p99s from the trace histograms land in the
// JSON document; --trace-out=FILE captures the flight recorder's span
// JSON. The flash crowd must shed typed — and every shed must have left a
// kShed span in the recorder — or the bench exits 1. A fourth, Byzantine
// phase runs legit traffic while an adversary replays byte-identical
// acquire frames, streams truncated bodies and refunds tokens it never
// earned: every abuse class must draw its typed answer, and the every-key
// §3.4 watchdog must report > 0 checks and exactly 0 violations.
//
// "shardedtr" is "sharded" with the flight recorder attached and every
// batch trace-stamped (sampled 1 in --trace-sample): the pair measures the
// recorder's overhead on the hottest no-wire path, and
// --max-trace-overhead turns it into a CI ceiling. "shardedwd" is
// "sharded" with the §3.4 invariant watchdog at its production sampling
// (1 in --watchdog-sample keys); --max-watchdog-overhead is the matching
// ceiling for the online check.
//
// Reports per-mode throughput and latency percentiles, then evaluates every
// gate the flags enable (the --min-*/--max-* floors and ceilings plus the
// scenario and overload promises) and prints each outcome; the exit code is
// non-zero if any gate failed. With --json=FILE it writes the
// BENCH_service.json document the release-bench CI job uploads, gate
// outcomes included (stamped with --git-sha and an ISO-8601 --timestamp,
// self-generated when not passed).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <semaphore>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "metrics/timeseries.hpp"
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
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/zipf.hpp"

namespace {

using namespace toka;
using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         1e3;
}

struct LatencySummary {
  std::size_t samples = 0;
  double mean_us = 0, p50_us = 0, p90_us = 0, p99_us = 0, max_us = 0;
};

LatencySummary summarize(std::vector<double> samples_us) {
  LatencySummary out;
  out.samples = samples_us.size();
  if (samples_us.empty()) return out;
  util::RunningStat stat;
  for (double v : samples_us) stat.add(v);
  out.mean_us = stat.mean();
  out.max_us = stat.max();
  out.p50_us = util::quantile(samples_us, 0.50);
  out.p90_us = util::quantile(samples_us, 0.90);
  out.p99_us = util::quantile(samples_us, 0.99);
  return out;
}

struct ModeResult {
  std::string mode;
  std::size_t threads = 0;
  double seconds = 0;      ///< wall time of the measured phase
  std::uint64_t ops = 0;   ///< acquire ops (each batch element counts)
  std::uint64_t calls = 0; ///< API calls / wire round trips
  std::int64_t granted = 0;
  LatencySummary latency;
  /// Instantaneous throughput (ops/s per 100 ms bucket) over the run, for
  /// modes that sample it; "sustained" is the worst bucket.
  metrics::TimeSeries throughput;
  /// Shard-engine queue depth percentiles over the run (sharded/epoll
  /// modes): samples of the deepest worker queue, in ops — how much
  /// hand-off buffering the load actually needed.
  bool has_queue_depth = false;
  LatencySummary queue_depth;
  /// Open-loop modes: how late the generator woke for each scheduled
  /// arrival. Their latencies run from the schedule, so this lag is part
  /// of every reading; a large p99 means the generator, not the service,
  /// set the tail.
  bool has_gen_lag = false;
  LatencySummary gen_lag;

  double ops_per_sec() const { return seconds > 0 ? ops / seconds : 0; }

  double sustained_ops_per_sec() const {
    if (throughput.empty()) return 0;
    double worst = throughput[0].value;
    for (std::size_t i = 1; i < throughput.size(); ++i)
      worst = std::min(worst, throughput[i].value);
    return worst;
  }
};

/// Padded so neighbouring threads' counters (read by the throughput
/// sampler while workers run) never share a cache line.
struct alignas(64) PerThread {
  std::atomic<std::uint64_t> ops{0};
  std::uint64_t calls = 0;
  std::int64_t granted = 0;
  std::vector<double> lat_us;
  std::vector<double> lag_us;  ///< open loops: wake-up lateness per arrival
};

/// Open-loop generators sleep until each scheduled arrival. The default
/// 50 µs timer slack would make every wake-up tens of microseconds late,
/// and that lateness would read as service latency; 1 µs keeps it out.
void tighten_timer_slack() {
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);  // in nanoseconds
}

/// Sleeps until `scheduled` and records how late the wake-up came.
void wait_for_arrival(Clock::time_point scheduled, PerThread& tally) {
  std::this_thread::sleep_until(scheduled);
  tally.lag_us.push_back(us_between(scheduled, Clock::now()));
}

/// Runs `body(thread_index, tally)` on `threads` OS threads and merges;
/// meanwhile a sampler thread on the side records instantaneous throughput
/// into the result's TimeSeries every 100 ms.
ModeResult run_threads(const std::string& mode, std::size_t threads,
                       const std::function<void(std::size_t, PerThread&)>& body) {
  std::vector<PerThread> tallies(threads);
  std::atomic<bool> done{false};
  metrics::TimeSeries throughput;
  const auto start = Clock::now();
  std::thread sampler([&] {
    std::uint64_t prev_total = 0;
    auto prev_time = start;
    while (!done.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::uint64_t total = 0;
      for (const PerThread& tally : tallies)
        total += tally.ops.load(std::memory_order_relaxed);
      const auto now = Clock::now();
      const double dt_s = us_between(prev_time, now) / 1e6;
      if (dt_s <= 0) continue;
      throughput.add(static_cast<TimeUs>(us_between(start, now)),
                     static_cast<double>(total - prev_total) / dt_s);
      prev_total = total;
      prev_time = now;
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t)
    workers.emplace_back([&, t] { body(t, tallies[t]); });
  for (auto& w : workers) w.join();
  const auto stop = Clock::now();
  done.store(true);
  sampler.join();

  ModeResult res;
  res.mode = mode;
  res.threads = threads;
  res.seconds = us_between(start, stop) / 1e6;
  res.throughput = std::move(throughput);
  std::vector<double> all_lat, all_lag;
  for (PerThread& tally : tallies) {
    res.ops += tally.ops.load();
    res.calls += tally.calls;
    res.granted += tally.granted;
    all_lat.insert(all_lat.end(), tally.lat_us.begin(), tally.lat_us.end());
    all_lag.insert(all_lag.end(), tally.lag_us.begin(), tally.lag_us.end());
  }
  res.latency = summarize(std::move(all_lat));
  if (!all_lag.empty()) {
    res.has_gen_lag = true;
    res.gen_lag = summarize(std::move(all_lag));
  }
  return res;
}

struct LoadConfig {
  std::size_t threads = 0;
  std::uint64_t keys = 0;
  double zipf = 0;
  double seconds = 0;
  std::size_t batch = 0;
  std::size_t window = 0; ///< in-flight cap per connection (pipeline mode)
  std::size_t cluster_nodes = 0;  ///< tokad members for the cluster mode
  bool churn = false;             ///< kill+join mid-run in the cluster mode
  std::uint32_t replicas = 0;     ///< replication factor for the churn run
  std::size_t workers = 0;     ///< shard-owner workers (0 = one per core)
  std::size_t io_threads = 1;  ///< epoll event loops per endpoint
  std::uint64_t trace_sample = 128;  ///< flight recorder: sample 1 in N
  std::uint64_t watchdog_sample = 64;  ///< §3.4 watchdog: audit 1 in N keys
  std::string git_sha;    ///< stamped into the JSON (bench_snapshot passes it)
  std::string timestamp;  ///< ISO-8601 run time, same provenance trail
};

/// Samples the engine's deepest worker queue every 2 ms while a mode runs;
/// stop() turns the samples into the percentiles the JSON reports.
class QueueDepthSampler {
 public:
  explicit QueueDepthSampler(const service::ShardEngine& engine)
      : thread_([this, &engine] {
          while (!done_.load(std::memory_order_relaxed)) {
            samples_.push_back(static_cast<double>(engine.queue_depth_max()));
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }) {}

  ~QueueDepthSampler() {
    if (thread_.joinable()) {
      done_.store(true);
      thread_.join();
    }
  }

  LatencySummary stop() {
    done_.store(true);
    thread_.join();
    return summarize(std::move(samples_));
  }

 private:
  std::atomic<bool> done_{false};
  std::vector<double> samples_;
  std::thread thread_;
};

/// Creates every key in [0, keys) with 4096-op batches from the calling
/// thread, which must own the table (no engine running on it).
void preload_keys(service::AccountTable& table, std::uint64_t keys) {
  constexpr std::size_t kChunk = 4096;
  std::vector<service::AcquireOp> ops;
  ops.reserve(kChunk);
  for (std::uint64_t key = 0; key < keys; key += kChunk) {
    ops.clear();
    const std::uint64_t end = std::min<std::uint64_t>(key + kChunk, keys);
    for (std::uint64_t k = key; k < end; ++k)
      ops.push_back(service::AcquireOp{k, 0});
    table.acquire_batch(ops);
  }
}

/// Preload: batch-create every key once so the timed phases run against a
/// fully populated store (and so "distinct keys served" covers the whole
/// keyspace). Reported as its own mode: creation throughput matters too.
/// One thread, the table's sole accessor while no engine runs.
ModeResult run_preload(service::AccountTable& table, const LoadConfig& load) {
  return run_threads("preload", 1, [&](std::size_t, PerThread& tally) {
    preload_keys(table, load.keys);
    tally.ops += load.keys;
    tally.calls += (load.keys + 4095) / 4096;
  });
}

/// Raw store cost: direct acquires from the one thread that owns the table
/// (no engine, no hand-off) — the floor every other mode adds layers to.
ModeResult run_table_closed(service::AccountTable& table,
                            const util::ZipfSampler& sampler,
                            const LoadConfig& load) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  return run_threads("table", 1, [&](std::size_t, PerThread& tally) {
    util::Rng rng(1000);
    for (std::uint64_t i = 0;; ++i) {
      if ((i & 0xFF) == 0 && Clock::now() >= deadline) break;
      const std::uint64_t key = sampler.next(rng);
      if ((i & 0x3F) == 0) {
        const auto t0 = Clock::now();
        tally.granted += table.acquire(key, 1).granted;
        tally.lat_us.push_back(us_between(t0, Clock::now()));
      } else {
        tally.granted += table.acquire(key, 1).granted;
      }
      ++tally.ops;
      ++tally.calls;
    }
  });
}

/// Closed loop straight into the shard engine: each submitter keeps a
/// small ring of batches in flight, refilling a slot as soon as its
/// completion (fired by whichever shard-owner worker finishes last) frees
/// it. This is the vectorized settle path with no wire in between. Latency
/// spans submit -> completion, so queue wait on the owner workers is
/// included.
/// With `tracer` set ("shardedtr"), every batch is trace-stamped (sampled
/// per the tracer's 1-in-N policy) so the run prices the flight recorder
/// on this hottest path.
ModeResult run_sharded(const std::string& mode, service::ShardEngine& engine,
                       const util::ZipfSampler& sampler,
                       const LoadConfig& load, obs::Tracer* tracer) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  return run_threads(mode, load.threads, [&](std::size_t t,
                                             PerThread& tally) {
    constexpr std::size_t kDepth = 4;  ///< batches in flight per submitter
    struct Slot {
      std::binary_semaphore free{1};
      std::vector<service::AcquireOp> ops;
      std::int64_t granted = 0;
      double lat_us = 0;
      Clock::time_point t0;
      bool warm = false;  ///< has a harvestable result
    };
    // The completion runs on a worker thread, but only after the submitter
    // parked the slot: acquire() below is the fence that makes the slot's
    // fields safe to read back.
    const auto done = [](service::EngineBatch& batch, void* ctx) {
      auto* slot = static_cast<Slot*>(ctx);
      std::int64_t granted = 0;
      for (const service::AcquireResult& r : batch.results)
        granted += r.granted;
      slot->granted = granted;
      slot->lat_us = us_between(slot->t0, Clock::now());
      slot->free.release();
    };
    std::array<Slot, kDepth> slots;
    util::Rng rng(9000 + t);
    const auto harvest = [&](Slot& slot, bool sample_latency) {
      tally.granted += slot.granted;
      if (sample_latency) tally.lat_us.push_back(slot.lat_us);
      tally.ops.fetch_add(slot.ops.size(), std::memory_order_relaxed);
      ++tally.calls;
    };
    for (std::uint64_t i = 0;; ++i) {
      if (Clock::now() >= deadline) break;
      Slot& slot = slots[i % kDepth];
      slot.free.acquire();
      if (slot.warm) harvest(slot, (i & 0x3F) == 0);
      slot.warm = true;
      slot.ops.resize(load.batch);
      for (service::AcquireOp& op : slot.ops)
        op = service::AcquireOp{sampler.next(rng), 1};
      slot.t0 = Clock::now();
      std::uint64_t trace_id = 0;
      bool trace_sampled = false;
      if (tracer != nullptr) {
        trace_id = tracer->next_trace_id();
        trace_sampled = tracer->sample_next();
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
  });
}

/// Single-connection sync closed loop (one blocking acquire per round
/// trip): the baseline the pipeline mode's speedup — and the CI floor —
/// is measured against.
ModeResult run_sync(const std::string& mode, const util::ZipfSampler& sampler,
                    const LoadConfig& load,
                    const std::function<runtime::Transport&(std::size_t)>& endpoint_of) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  return run_threads(mode, 1, [&](std::size_t t, PerThread& tally) {
    service::Client client(endpoint_of(t), 0);
    util::Rng rng(5000 + t);
    while (Clock::now() < deadline) {
      const std::uint64_t key = sampler.next(rng);
      const auto t0 = Clock::now();
      tally.granted += client.acquire(key, 1).granted;
      tally.lat_us.push_back(us_between(t0, Clock::now()));
      tally.ops.fetch_add(1, std::memory_order_relaxed);
      ++tally.calls;
    }
  });
}

/// Closed-loop pipelining over one async client: `window` self-sustaining
/// op chains per connection. Each completion callback (running on the
/// transport's receive thread) records its op's latency and immediately
/// issues the chain's next acquire — so under load the whole client side
/// (parse burst, completions, next issues) happens inside one receive
/// burst and the issues leave as one coalesced write. Latency spans
/// issue -> completion, including in-flight queueing.
ModeResult run_pipeline(const std::string& mode,
                        const util::ZipfSampler& sampler,
                        const LoadConfig& load, std::size_t connections,
                        const std::function<runtime::Transport&(std::size_t)>& endpoint_of) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  const std::size_t window = std::max<std::size_t>(load.window, 1);
  return run_threads(mode, connections, [&](std::size_t t, PerThread& tally) {
    service::Client client(endpoint_of(t), 0);
    // One RNG per chain: a chain has at most one op in flight, so its RNG
    // is only ever touched by the thread completing that op.
    std::vector<util::Rng> rngs;
    rngs.reserve(window);
    for (std::size_t s = 0; s < window; ++s)
      rngs.emplace_back(5000 + 997 * t + s);
    std::counting_semaphore<> finished(0);

    // issue(s) starts chain s's next op; the completion either re-issues
    // or, past the deadline (or on timeout), retires the chain.
    std::function<void(std::size_t)> issue = [&](std::size_t s) {
      const std::uint64_t key = sampler.next(rngs[s]);
      const auto t0 = Clock::now();
      client.acquire_async(
          service::kDefaultNamespace, key, 1,
          [&, s, t0](service::AcquireResult res, std::exception_ptr err) {
            const auto now = Clock::now();
            if (err != nullptr) {
              finished.release();  // timed out / shut down: retire the chain
              return;
            }
            tally.granted += res.granted;
            tally.lat_us.push_back(us_between(t0, now));
            tally.ops.fetch_add(1, std::memory_order_relaxed);
            ++tally.calls;
            if (now >= deadline) {
              finished.release();
            } else {
              issue(s);
            }
          });
    };
    for (std::size_t s = 0; s < window; ++s) issue(s);
    // All chains retire on their own completions; wait them out so every
    // callback has run before the client is destroyed.
    for (std::size_t s = 0; s < window; ++s) finished.acquire();
  });
}

/// What the replicated churn run measured — the "replication" block of
/// BENCH_service.json. Overhead is the replicated run's throughput against
/// the unreplicated cluster run of the same invocation.
struct ReplicationOutcome {
  bool ran = false;
  std::uint32_t replicas = 0;
  double failover_ms = 0;       ///< kill -> a victim-owned key served again
  std::uint64_t promotions = 0; ///< accepted promote() calls, cluster-wide
  std::uint64_t replica_installs = 0;  ///< replicas promoted into tables
  Tokens tokens_forfeited = 0;         ///< cluster-wide at run end
  std::uint64_t delta_frames = 0;      ///< kReplicate frames streamed
  std::uint64_t delta_accounts = 0;    ///< account deltas they carried
  double ops_per_sec = 0;              ///< replicated churn run
  double baseline_ops_per_sec = 0;     ///< unreplicated churn run
  std::uint64_t errors = 0;            ///< client-visible, replicated run
};

/// The pipelined Zipf workload against a tokad cluster of `node_count`
/// in-process nodes (each on its own dispatcher lane over a one-worker
/// engine, so one node models one machine's serial capacity). With
/// `churn`, the last node is killed at ~40% of the run and a fresh node
/// joins at ~70% — the workers must absorb both through ClusterClient
/// retries; `errors_out` reports what they could not. With `replicas` > 0 the map carries that replication
/// factor, the kill goes through the promote() failover path instead of an
/// operator map push, and `repl_out` (if given) collects the failover
/// time, forfeit and delta-stream accounting.
ModeResult run_cluster(const std::string& mode, const util::ZipfSampler& sampler,
                       const LoadConfig& load, const service::ServiceConfig& cfg,
                       std::size_t node_count, bool churn,
                       std::uint32_t replicas, ReplicationOutcome* repl_out,
                       std::uint64_t& errors_out) {
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
  // then the coordinator's stride. Server lanes are distinct (lane =
  // destination % lanes and lanes >= slots), so nodes parallelize.
  // Endpoint strides: one per worker, one for the churn admin, one spare
  // for the failover probe client (replicated churn only).
  runtime::InProcNetwork net(
      slots + (load.threads + 2) * slots, /*latency_us=*/0,
      /*dispatchers=*/slots + std::min<std::size_t>(load.threads, 8));
  auto endpoints_of = [&](std::size_t slot) {
    return [&net, slot, slots](NodeId server) -> runtime::Transport& {
      return net.endpoint(static_cast<NodeId>(slots + slot * slots + server));
    };
  };
  std::vector<std::unique_ptr<ClusterNode>> nodes;
  for (std::size_t n = 0; n < node_count; ++n)
    nodes.push_back(std::make_unique<ClusterNode>(
        cfg, net.endpoint(static_cast<NodeId>(n)), map));
  net.start();

  cluster::ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 250 * 1'000;
  client_cfg.max_attempts = 12;

  const auto deadline =
      Clock::now() + std::chrono::microseconds(from_seconds(load.seconds));
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> failover_us{0};
  std::atomic<bool> stop_churn{false};
  std::thread churn_thread;
  if (churn) {
    churn_thread = std::thread([&] {
      cluster::ClusterClient admin(endpoints_of(load.threads), map, client_cfg);
      const auto nap = std::chrono::microseconds(
          from_seconds(load.seconds * 0.4));
      std::this_thread::sleep_for(nap);
      if (stop_churn.load()) return;
      const NodeId victim = static_cast<NodeId>(node_count - 1);
      // A probe key the victim owns, picked before the kill so the timed
      // failover window measures the cluster, not the search.
      std::uint64_t probe_key = 0;
      if (replicas > 0) {
        const cluster::HashRing ring(map);
        for (std::uint64_t k = 0; k < load.keys; ++k) {
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
        cluster::ClusterClient probe(endpoints_of(load.threads + 1), shrunk,
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
          std::chrono::microseconds(from_seconds(load.seconds * 0.3)));
      if (stop_churn.load()) return;
      const NodeId joiner = static_cast<NodeId>(node_count);
      const cluster::ClusterMap grown = shrunk.with_node(joiner);
      nodes.push_back(std::make_unique<ClusterNode>(
          cfg, net.endpoint(joiner), grown));
      admin.push_map(grown);
    });
  }

  ModeResult res = run_threads(mode, load.threads, [&](std::size_t t,
                                                       PerThread& tally) {
    cluster::ClusterClient client(endpoints_of(t), map, client_cfg);
    const std::size_t window = std::max<std::size_t>(load.window, 1);
    // Unlike the single-connection modes, a cluster worker's completions
    // arrive on several dispatcher lanes (one per routed node) plus the
    // timeout sweepers — so each chain tallies into its own slot (a chain
    // has one op in flight, and its reissue happens-before the next
    // completion) and the worker merges after all chains retire. The
    // semaphore is shared so a completion's release() can never outlive it.
    struct Chain {
      util::Rng rng{0};
      std::int64_t granted = 0;
      std::uint64_t calls = 0;
      std::vector<double> lat_us;
    };
    std::vector<Chain> chains(window);
    for (std::size_t s = 0; s < window; ++s)
      chains[s].rng.reseed(7000 + 997 * t + s);
    auto finished = std::make_shared<std::counting_semaphore<>>(0);
    std::function<void(std::size_t)> issue = [&](std::size_t s) {
      const std::uint64_t key = sampler.next(chains[s].rng);
      const auto t0 = Clock::now();
      client.acquire_async(
          service::kDefaultNamespace, key, 1,
          [&, s, t0, finished](service::AcquireResult result,
                               std::exception_ptr err) {
            const auto now = Clock::now();
            if (err != nullptr) {
              errors.fetch_add(1, std::memory_order_relaxed);
              finished->release();  // retries exhausted: retire the chain
              return;
            }
            Chain& chain = chains[s];
            chain.granted += result.granted;
            if ((chain.calls & 0x3F) == 0)
              chain.lat_us.push_back(us_between(t0, now));
            tally.ops.fetch_add(1, std::memory_order_relaxed);
            ++chain.calls;
            if (now >= deadline) {
              finished->release();
            } else {
              issue(s);
            }
          });
    };
    for (std::size_t s = 0; s < window; ++s) issue(s);
    for (std::size_t s = 0; s < window; ++s) finished->acquire();
    for (const Chain& chain : chains) {
      tally.granted += chain.granted;
      tally.calls += chain.calls;
      tally.lat_us.insert(tally.lat_us.end(), chain.lat_us.begin(),
                          chain.lat_us.end());
    }
  });
  stop_churn.store(true);
  if (churn_thread.joinable()) churn_thread.join();
  for (auto& node : nodes) node->driver.stop();
  net.stop();
  errors_out = errors.load();
  if (errors_out > 0)
    std::fprintf(stderr, "cluster mode '%s': %llu client-visible errors\n",
                 mode.c_str(), static_cast<unsigned long long>(errors_out));
  if (repl_out != nullptr) {
    repl_out->ran = true;
    repl_out->replicas = replicas;
    repl_out->failover_ms = failover_us.load() / 1000.0;
    repl_out->ops_per_sec = res.ops_per_sec();
    for (const auto& node : nodes) {
      if (node->server == nullptr) continue;  // the churn victim
      repl_out->promotions += node->server->promotions();
      repl_out->tokens_forfeited += node->server->tokens_forfeited();
      const cluster::ReplicationEngine& repl = node->server->replication();
      repl_out->replica_installs += repl.replica_installs();
      repl_out->delta_frames += repl.deltas_sent();
      repl_out->delta_accounts += repl.delta_accounts_sent();
    }
  }
  return res;
}

void print_result(const ModeResult& res);

/// What the flash-crowd scenario measured (reported into BENCH_service.json
/// and summarized on stdout).
struct OverloadOutcome {
  bool ran = false;
  std::uint64_t served = 0;        ///< spike-phase successes
  std::uint64_t shed = 0;          ///< typed kOverloaded (wire or local backoff)
  std::uint64_t violations = 0;    ///< timeouts / untyped errors (must be 0)
  std::uint64_t baseline_shed = 0; ///< sheds below budget (should be 0)
  double baseline_p99_us = 0;      ///< served p99, unloaded phase
  double p99_us = 0;               ///< served p99 under the flash crowd
  std::string scrape_text;         ///< the server's exposition at run end
};

/// Flash crowd against one admission-controlled server: phase 1 runs an
/// open loop comfortably below the budget (nothing may be shed, and its
/// served p99 is the baseline), phase 2 multiplies the arrival rate by 10.
/// The valve must turn the excess into typed kOverloaded rejections —
/// counted as shed, never as errors — while the requests it does admit
/// stay near the baseline latency.
void run_overload(std::vector<ModeResult>& runs,
                  const util::ZipfSampler& sampler, const LoadConfig& load,
                  const service::ServiceConfig& cfg, double base_rate,
                  OverloadOutcome& out) {
  service::AccountTable table(cfg);
  service::ClockDriver driver(table, /*resolution_us=*/1000);
  driver.start();
  service::ShardEngineOptions engine_opts;
  engine_opts.workers = load.workers;
  service::ShardEngine engine(table, engine_opts);
  runtime::InProcNetwork net(1 + load.threads);
  obs::Registry registry;
  service::ServerOptions opts;
  opts.engine = &engine;
  opts.registry = &registry;
  opts.admission.enabled = true;
  opts.admission.interval_us = 10'000;
  opts.admission.min_budget = 32;
  // Cap the budget at ~2x the baseline arrival rate: phase 1 fits with
  // headroom, the 10x spike cannot, so the valve has to shed.
  opts.admission.max_budget = std::max<std::int64_t>(
      static_cast<std::int64_t>(2.0 * base_rate *
                                (opts.admission.interval_us / 1e6)),
      64);
  service::Server server(table, net.endpoint(0), opts);
  net.start();

  const double phase_s = std::max(load.seconds / 2, 0.25);
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> violations{0};
  const auto drive = [&](const std::string& mode, double rate) {
    const double per_thread_rate = rate / load.threads;
    const auto interval = std::chrono::nanoseconds(std::max<std::int64_t>(
        static_cast<std::int64_t>(1e9 / per_thread_rate), 1));
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::microseconds(from_seconds(phase_s));
    ModeResult res = run_threads(mode, load.threads, [&](std::size_t t,
                                                         PerThread& tally) {
      tighten_timer_slack();
      service::Client client(net.endpoint(static_cast<NodeId>(1 + t)), 0);
      util::Rng rng(8000 + t);
      std::counting_semaphore<> outstanding(0);
      std::uint64_t issued = 0;
      auto scheduled = start + interval * static_cast<std::int64_t>(t) /
                                   static_cast<std::int64_t>(load.threads);
      while (scheduled < deadline) {
        wait_for_arrival(scheduled, tally);
        const std::uint64_t key = sampler.next(rng);
        // Latency from issue, not schedule: under overload the question is
        // what the *admitted* requests pay, not how far the generator lags.
        const auto t0 = Clock::now();
        client.acquire_async(
            service::kDefaultNamespace, key, 1,
            [&tally, &outstanding, &shed, &violations, t0](
                service::AcquireResult r, std::exception_ptr err) {
              if (!err) {
                tally.granted += r.granted;
                tally.lat_us.push_back(us_between(t0, Clock::now()));
                tally.ops.fetch_add(1, std::memory_order_relaxed);
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
        ++tally.calls;
        scheduled += interval;
      }
      for (std::uint64_t i = 0; i < issued; ++i) outstanding.acquire();
    });
    res.seconds = phase_s;  // open loop is defined by its schedule
    return res;
  };

  ModeResult base = drive("overload0", base_rate);
  out.baseline_shed = shed.exchange(0);
  out.baseline_p99_us = base.latency.p99_us;
  print_result(base);
  ModeResult spike = drive("overload", base_rate * 10);
  out.ran = true;
  out.served = spike.ops;
  out.shed = shed.load();
  out.violations = violations.load();
  out.p99_us = spike.latency.p99_us;
  out.scrape_text = registry.render_prometheus();
  runs.push_back(std::move(base));
  runs.push_back(std::move(spike));

  std::printf("overload: served %llu, shed %llu (%.0f%%), violations %llu, "
              "p99 %.1fus vs baseline %.1fus%s\n",
              static_cast<unsigned long long>(out.served),
              static_cast<unsigned long long>(out.shed),
              out.served + out.shed > 0
                  ? 100.0 * out.shed / (out.served + out.shed)
                  : 0.0,
              static_cast<unsigned long long>(out.violations), out.p99_us,
              out.baseline_p99_us,
              out.baseline_shed > 0 ? "  WARN: shed below budget" : "");

  net.stop();
  driver.stop();
}

/// One replayed traffic shape's tally (diurnal / flash / herd).
struct ScenarioPhase {
  std::string name;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t violations = 0;
  double p99_us = 0;  ///< served-request p99 within the phase
};

/// What the trace-replay scenario suite measured. The hard promises: zero
/// violations anywhere, and — because sheds force-record — a flash crowd
/// that shed must have left kShed spans in the flight recorder.
struct ScenarioOutcome {
  bool ran = false;
  std::vector<ScenarioPhase> phases;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t violations = 0;
  std::uint64_t flash_shed = 0;    ///< sheds in the flash-crowd phase alone
  std::uint64_t spans = 0;         ///< spans the flight recorder kept
  std::uint64_t shed_spans = 0;    ///< kShed-decision spans in the snapshot
  // The Byzantine phase's tallies: every abuse class must have moved its
  // typed counter, and none of it may have dented the §3.4 invariant.
  std::uint64_t byz_replayed = 0;        ///< replayed frames the server answered
  std::uint64_t byz_malformed = 0;       ///< typed kMalformedBody rejections
  std::uint64_t byz_refund_dropped = 0;  ///< refund-abuse tokens refused
  std::uint64_t watchdog_checks = 0;     ///< §3.4 watchdog grants audited
  std::uint64_t watchdog_violations = 0; ///< must stay 0 through the abuse
  double queue_wait_p99_us = 0;    ///< per-stage p99s from the trace
  double execute_p99_us = 0;       ///< histograms (tokend_trace_*_us)
  double cork_p99_us = 0;
  std::string trace_json;          ///< flight-recorder spans (--trace-out)
};

/// Replays trace-shaped traffic against the full traced plane: async
/// clients over the epoll mesh into an admission-controlled server with
/// the flight recorder on both ends. Three phases:
///
///   diurnal — the arrival rate follows the synthetic availability trace's
///             online fraction (the paper's two-day diurnal curve,
///             compressed onto the phase), staying inside the admission
///             budget: nothing should shed;
///   flash   — baseline, then a 10x crowd through the middle third: the
///             excess must come back as typed sheds, each force-recorded;
///   herd    — a dead-quiet window (every client "offline"), then all of
///             them reconnect at the same instant into a 5x burst — the
///             accept storm and the valve's first interval take it.
///
/// Anything that is not a success or a typed kOverloaded is a violation.
void run_scenario(std::vector<ModeResult>& runs,
                  const util::ZipfSampler& sampler, const LoadConfig& load,
                  const service::ServiceConfig& cfg, double base_rate,
                  ScenarioOutcome& out) {
  // A server on its own table, with the flight recorder wired through
  // every layer: client stamp, epoll decode, shard queue/execute, reply
  // cork.
  service::ServiceConfig sharded_cfg = cfg;
  // Audit every key: the Byzantine phase's whole point is that replay and
  // refund abuse cannot move the watchdog's violation counter, so the
  // watchdog must actually be watching everything the abuse touches.
  sharded_cfg.watchdog_sample = 1;
  service::AccountTable table(sharded_cfg);
  service::ClockDriver driver(table, /*resolution_us=*/1000);
  driver.start();
  obs::Registry registry;
  obs::TracerOptions trace_opts;
  trace_opts.sample_every = load.trace_sample;
  trace_opts.registry = &registry;
  obs::Tracer tracer(trace_opts);
  service::ShardEngineOptions engine_opts;
  engine_opts.workers = load.workers;
  engine_opts.registry = &registry;
  engine_opts.tracer = &tracer;
  service::ShardEngine engine(table, engine_opts);
  // Two extra endpoints past the load threads: the raw-frame adversary and
  // the refund-abuse client of the Byzantine phase.
  runtime::EpollMesh mesh(3 + load.threads, load.io_threads);
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
      static_cast<std::int64_t>(2.0 * base_rate *
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

  const double phase_s = std::max(load.seconds / 3, 0.5);
  const auto drive = [&](const std::string& name,
                         const std::function<double(double)>& rate_of,
                         ScenarioPhase& phase) {
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> violations{0};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::microseconds(from_seconds(phase_s));
    ModeResult res = run_threads(name, load.threads, [&](std::size_t t,
                                                         PerThread& tally) {
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
            static_cast<std::int64_t>(1e9 * load.threads / rate), 1));
        std::this_thread::sleep_until(scheduled);
        const std::uint64_t key = sampler.next(rng);
        const auto t0 = Clock::now();
        client->acquire_async(
            service::kDefaultNamespace, key, 1,
            [&tally, &outstanding, &shed, &violations, t0](
                service::AcquireResult r, std::exception_ptr err) {
              if (!err) {
                tally.granted += r.granted;
                tally.lat_us.push_back(us_between(t0, Clock::now()));
                tally.ops.fetch_add(1, std::memory_order_relaxed);
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
        ++tally.calls;
        scheduled += interval;
        // Past a burst the generator may be far behind schedule; snap
        // forward so the next phase fraction's rate applies now.
        if (scheduled + std::chrono::milliseconds(50) < Clock::now())
          scheduled = Clock::now();
      }
      for (; drained < issued; ++drained) outstanding.acquire();
    });
    res.seconds = phase_s;  // open loop is defined by its schedule
    phase.name = name;
    phase.served = res.ops;
    phase.shed = shed.load();
    phase.violations = violations.load();
    phase.p99_us = res.latency.p99_us;
    print_result(res);
    runs.push_back(std::move(res));
  };

  out.phases.resize(4);
  // Diurnal ramp: rate tracks the online fraction (roughly 0.3..0.55 over
  // the horizon), scaled to live comfortably inside the 2x budget.
  drive("scn-diurnal",
        [&](double f) { return base_rate * (0.25 + 1.5 * online_frac(f)); },
        out.phases[0]);
  // Flash crowd: 10x through the middle third.
  drive("scn-flash",
        [&](double f) {
          return f >= 1.0 / 3 && f < 2.0 / 3 ? base_rate * 10 : base_rate;
        },
        out.phases[1]);
  // Thundering herd: dead air, then everyone reconnects into a 5x burst.
  drive("scn-herd",
        [&](double f) { return f < 0.3 ? 0.0 : base_rate * 5; },
        out.phases[2]);

  // Byzantine-ish clients: legit traffic keeps flowing at the baseline
  // rate while an adversary (a) replays byte-identical acquire frames, (b)
  // streams frames whose header parses but whose body does not, and (c)
  // refunds tokens it was never granted. Every abuse class must come back
  // as a typed answer (a normal grant/deny for the replay — the bucket,
  // not the frame, is the authority; kMalformedBody for the garbage; a
  // zero-accepted refund for the abuse), the legit clients must see no
  // untyped failure, and the every-key watchdog must find the §3.4 bound
  // intact afterwards.
  {
    namespace proto = service::protocol;
    std::atomic<bool> byz_stop{false};
    std::atomic<std::uint64_t> replay_answered{0};
    std::atomic<std::uint64_t> malformed_rejected{0};
    runtime::Transport& raw = mesh.endpoint(static_cast<NodeId>(
        1 + load.threads));
    raw.set_handler([&](NodeId, std::vector<std::byte> payload) {
      try {
        const proto::Response resp = proto::decode_response(payload);
        if (const auto* err = std::get_if<proto::ErrorResponse>(&resp)) {
          if (err->code == proto::ErrorCode::kMalformedBody)
            malformed_rejected.fetch_add(1, std::memory_order_relaxed);
          // kOverloaded sheds of adversary frames are neither counted nor
          // complained about — the valve owes an attacker nothing.
        } else {
          replay_answered.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        // Undecodable response to a hostile frame: ignore.
      }
    });
    std::thread adversary([&] {
      service::Client refunder(
          mesh.endpoint(static_cast<NodeId>(2 + load.threads)), 0);
      util::Rng rng(0xB12A);
      std::uint64_t id = 1;
      while (!byz_stop.load(std::memory_order_relaxed)) {
        // Replay: one legit frame, byte-identical on the wire, sent twice.
        // The second copy is indistinguishable from a fresh request and is
        // settled against the same token bucket — over-granting through
        // replay is structurally impossible, which the watchdog confirms.
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
        // Refund abuse: hand back tokens that were never granted. The
        // table accepts at most what the account's grant history covers,
        // so accepted stays 0 and the drop counter moves.
        try {
          const service::RefundResult r =
              refunder.refund(service::kDefaultNamespace, 1'000'000 + key, 8);
          out.byz_refund_dropped += static_cast<std::uint64_t>(8 - r.accepted);
        } catch (const std::exception&) {
          // A shed refund is fine; the abuse tally just doesn't move.
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    drive("scn-byzantine", [&](double) { return base_rate; }, out.phases[3]);
    byz_stop.store(true, std::memory_order_relaxed);
    adversary.join();
    raw.set_handler({});
    out.byz_replayed = replay_answered.load();
    out.byz_malformed = malformed_rejected.load();
  }

  engine.drain();
  {
    const service::TableStats tstats =
        engine.quiesced([&] { return table.stats(); });
    out.watchdog_checks = tstats.watchdog_checks;
    out.watchdog_violations = tstats.watchdog_violations;
  }
  for (const ScenarioPhase& phase : out.phases) {
    out.served += phase.served;
    out.shed += phase.shed;
    out.violations += phase.violations;
  }
  out.flash_shed = out.phases[1].shed;
  out.spans = tracer.recorded();
  for (const obs::SpanRecord& span : tracer.snapshot())
    if (span.decision == obs::Decision::kShed) ++out.shed_spans;
  for (const obs::Metric& m : registry.collect()) {
    if (m.name == "tokend_trace_queue_wait_us") out.queue_wait_p99_us = m.p99;
    if (m.name == "tokend_trace_execute_us") out.execute_p99_us = m.p99;
    if (m.name == "tokend_trace_cork_us") out.cork_p99_us = m.p99;
  }
  out.trace_json = tracer.render_json(/*max_spans=*/4096);
  out.ran = true;

  std::printf(
      "scenario: served %llu, shed %llu, violations %llu | %llu spans "
      "(%llu shed) | stage p99 queue %.1fus exec %.1fus cork %.1fus\n",
      static_cast<unsigned long long>(out.served),
      static_cast<unsigned long long>(out.shed),
      static_cast<unsigned long long>(out.violations),
      static_cast<unsigned long long>(out.spans),
      static_cast<unsigned long long>(out.shed_spans), out.queue_wait_p99_us,
      out.execute_p99_us, out.cork_p99_us);
  std::printf(
      "byzantine: %llu replays answered, %llu malformed rejected, %llu "
      "refund-abuse tokens refused | watchdog %llu checks, %llu violations\n",
      static_cast<unsigned long long>(out.byz_replayed),
      static_cast<unsigned long long>(out.byz_malformed),
      static_cast<unsigned long long>(out.byz_refund_dropped),
      static_cast<unsigned long long>(out.watchdog_checks),
      static_cast<unsigned long long>(out.watchdog_violations));

  driver.stop();
}

void print_result(const ModeResult& res) {
  std::printf("%-8s %3zu thr %8.2fs %12llu ops %12.0f ops/s", res.mode.c_str(),
              res.threads, res.seconds,
              static_cast<unsigned long long>(res.ops), res.ops_per_sec());
  if (res.latency.samples > 0) {
    std::printf("   lat p50 %8.1fus  p99 %8.1fus  max %9.1fus",
                res.latency.p50_us, res.latency.p99_us, res.latency.max_us);
  }
  if (!res.throughput.empty()) {
    std::printf("   sustained %10.0f ops/s", res.sustained_ops_per_sec());
  }
  if (res.has_queue_depth) {
    std::printf("   qdepth p50 %.0f p99 %.0f max %.0f", res.queue_depth.p50_us,
                res.queue_depth.p99_us, res.queue_depth.max_us);
  }
  std::printf("\n");
}

/// UTC wall-clock now, ISO-8601 (the JSON stamp when --timestamp is not
/// passed in by the harness).
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

/// Throughput of the last run of `mode` (0 when the mode did not run).
double ops_of(const std::vector<ModeResult>& runs, const std::string& mode) {
  double ops = 0;
  for (const ModeResult& r : runs)
    if (r.mode == mode) ops = r.ops_per_sec();
  return ops;
}

/// One gate's outcome. Every gate a run enables is evaluated and reported,
/// so one failure never hides another.
struct GateOutcome {
  std::string name;
  double value = 0;
  double bound = 0;
  bool pass = false;
};

void write_json(const std::string& path, const std::vector<ModeResult>& runs,
                const service::AccountTable& table, const LoadConfig& load,
                bool quick, const OverloadOutcome& overload,
                const ScenarioOutcome& scenario,
                const ReplicationOutcome& replication,
                const std::vector<GateOutcome>& gates,
                std::size_t workers_used) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const service::TableStats stats = table.stats();
  const double table_ops_per_sec = ops_of(runs, "table");
  const double shardedwd_ops_per_sec = ops_of(runs, "shardedwd");
  const double pipeline_ops_per_sec = ops_of(runs, "pipeline");
  const double cluster_ops_per_sec = ops_of(runs, "cluster");
  const double cluster1_ops_per_sec = ops_of(runs, "cluster1");
  const double sharded_ops_per_sec = ops_of(runs, "sharded");
  const double epoll_ops_per_sec = ops_of(runs, "epoll");
  double pipeline_p99 = 0;
  for (const ModeResult& r : runs)
    if (r.mode == "pipeline") pipeline_p99 = r.latency.p99_us;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"toka-bench-service-v2\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n",
               json_escape(load.git_sha.empty() ? "unknown" : load.git_sha)
                   .c_str());
  std::fprintf(f, "  \"timestamp\": \"%s\",\n",
               json_escape(load.timestamp.empty() ? iso8601_now()
                                                  : load.timestamp)
                   .c_str());
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"keys\": %llu,\n",
               static_cast<unsigned long long>(load.keys));
  std::fprintf(f, "  \"zipf\": %g,\n", load.zipf);
  std::fprintf(f, "  \"threads\": %zu,\n", load.threads);
  std::fprintf(f, "  \"batch\": %zu,\n", load.batch);
  std::fprintf(f, "  \"strategy\": \"%s\",\n",
               json_escape(table.config().strategy.label()).c_str());
  std::fprintf(f, "  \"shards\": %zu,\n", table.shard_count());
  std::fprintf(f, "  \"delta_us\": %lld,\n",
               static_cast<long long>(table.config().delta_us));
  std::fprintf(f, "  \"window\": %zu,\n", load.window);
  std::fprintf(f, "  \"workers\": %zu,\n", workers_used);
  std::fprintf(f, "  \"io_threads\": %zu,\n", load.io_threads);
  // The raw-store figure comes from one thread, the table's sole owner,
  // whatever --threads says.
  std::fprintf(f, "  \"table_threads\": 1,\n");
  std::fprintf(f, "  \"acquire_ops_per_sec\": %.0f,\n", table_ops_per_sec);
  std::fprintf(f, "  \"sharded_ops_per_sec\": %.0f,\n", sharded_ops_per_sec);
  std::fprintf(f, "  \"shardedwd_ops_per_sec\": %.0f,\n",
               shardedwd_ops_per_sec);
  std::fprintf(f, "  \"watchdog_overhead\": %.4f,\n",
               sharded_ops_per_sec > 0 && shardedwd_ops_per_sec > 0
                   ? 1.0 - shardedwd_ops_per_sec / sharded_ops_per_sec
                   : 0.0);
  std::fprintf(f, "  \"epoll_ops_per_sec\": %.0f,\n", epoll_ops_per_sec);
  std::fprintf(f, "  \"pipeline_ops_per_sec\": %.0f,\n", pipeline_ops_per_sec);
  std::fprintf(f, "  \"pipeline_p99_us\": %.2f,\n", pipeline_p99);
  std::fprintf(f, "  \"cluster_nodes\": %zu,\n", load.cluster_nodes);
  std::fprintf(f, "  \"cluster_ops_per_sec\": %.0f,\n", cluster_ops_per_sec);
  std::fprintf(f, "  \"cluster1_ops_per_sec\": %.0f,\n", cluster1_ops_per_sec);
  std::fprintf(f, "  \"cluster_speedup\": %.2f,\n",
               cluster1_ops_per_sec > 0
                   ? cluster_ops_per_sec / cluster1_ops_per_sec
                   : 0);
  std::fprintf(f, "  \"distinct_keys_served\": %llu,\n",
               static_cast<unsigned long long>(stats.accounts));
  if (overload.ran) {
    const std::uint64_t offered = overload.served + overload.shed;
    std::fprintf(f, "  \"overload_served\": %llu,\n",
                 static_cast<unsigned long long>(overload.served));
    std::fprintf(f, "  \"overload_shed\": %llu,\n",
                 static_cast<unsigned long long>(overload.shed));
    std::fprintf(f, "  \"overload_violations\": %llu,\n",
                 static_cast<unsigned long long>(overload.violations));
    std::fprintf(f, "  \"overload_shed_ratio\": %.4f,\n",
                 offered > 0 ? static_cast<double>(overload.shed) / offered
                             : 0.0);
    std::fprintf(f, "  \"overload_p99_us\": %.2f,\n", overload.p99_us);
    std::fprintf(f, "  \"overload_baseline_p99_us\": %.2f,\n",
                 overload.baseline_p99_us);
  }
  if (replication.ran) {
    std::fprintf(f, "  \"replication\": {\n");
    std::fprintf(f, "    \"replicas\": %u,\n", replication.replicas);
    std::fprintf(f, "    \"ops_per_sec\": %.0f,\n", replication.ops_per_sec);
    std::fprintf(f, "    \"baseline_ops_per_sec\": %.0f,\n",
                 replication.baseline_ops_per_sec);
    std::fprintf(f, "    \"overhead\": %.4f,\n",
                 replication.baseline_ops_per_sec > 0
                     ? 1.0 - replication.ops_per_sec /
                                 replication.baseline_ops_per_sec
                     : 0.0);
    std::fprintf(f, "    \"failover_ms\": %.3f,\n", replication.failover_ms);
    std::fprintf(f, "    \"promotions\": %llu,\n",
                 static_cast<unsigned long long>(replication.promotions));
    std::fprintf(f, "    \"replica_installs\": %llu,\n",
                 static_cast<unsigned long long>(replication.replica_installs));
    std::fprintf(f, "    \"tokens_forfeited\": %lld,\n",
                 static_cast<long long>(replication.tokens_forfeited));
    std::fprintf(f, "    \"delta_frames\": %llu,\n",
                 static_cast<unsigned long long>(replication.delta_frames));
    std::fprintf(f, "    \"delta_accounts\": %llu\n",
                 static_cast<unsigned long long>(replication.delta_accounts));
    std::fprintf(f, "  },\n");
  }
  if (scenario.ran) {
    std::fprintf(f, "  \"scenario\": {\n");
    std::fprintf(f, "    \"served\": %llu, \"shed\": %llu, "
                 "\"violations\": %llu,\n",
                 static_cast<unsigned long long>(scenario.served),
                 static_cast<unsigned long long>(scenario.shed),
                 static_cast<unsigned long long>(scenario.violations));
    std::fprintf(f, "    \"trace_spans\": %llu, \"shed_spans\": %llu, "
                 "\"trace_sample\": %llu,\n",
                 static_cast<unsigned long long>(scenario.spans),
                 static_cast<unsigned long long>(scenario.shed_spans),
                 static_cast<unsigned long long>(load.trace_sample));
    std::fprintf(f,
                 "    \"queue_wait_p99_us\": %.2f, \"execute_p99_us\": %.2f, "
                 "\"cork_p99_us\": %.2f,\n",
                 scenario.queue_wait_p99_us, scenario.execute_p99_us,
                 scenario.cork_p99_us);
    std::fprintf(f,
                 "    \"byzantine\": {\"replays_answered\": %llu, "
                 "\"malformed_rejected\": %llu, \"refund_dropped\": %llu, "
                 "\"watchdog_checks\": %llu, \"watchdog_violations\": %llu},\n",
                 static_cast<unsigned long long>(scenario.byz_replayed),
                 static_cast<unsigned long long>(scenario.byz_malformed),
                 static_cast<unsigned long long>(scenario.byz_refund_dropped),
                 static_cast<unsigned long long>(scenario.watchdog_checks),
                 static_cast<unsigned long long>(scenario.watchdog_violations));
    std::fprintf(f, "    \"phases\": [\n");
    for (std::size_t i = 0; i < scenario.phases.size(); ++i) {
      const ScenarioPhase& phase = scenario.phases[i];
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"served\": %llu, "
                   "\"shed\": %llu, \"violations\": %llu, "
                   "\"p99_us\": %.2f}%s\n",
                   json_escape(phase.name).c_str(),
                   static_cast<unsigned long long>(phase.served),
                   static_cast<unsigned long long>(phase.shed),
                   static_cast<unsigned long long>(phase.violations),
                   phase.p99_us,
                   i + 1 < scenario.phases.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"gates\": [\n");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const GateOutcome& g = gates[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %.6g, \"bound\": %.6g, "
                 "\"pass\": %s}%s\n",
                 json_escape(g.name).c_str(), g.value, g.bound,
                 g.pass ? "true" : "false", i + 1 < gates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ModeResult& r = runs[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"threads\": %zu, \"seconds\": %.3f, "
                 "\"ops\": %llu, \"calls\": %llu, \"ops_per_sec\": %.0f, "
                 "\"granted_tokens\": %lld,\n",
                 r.mode.c_str(), r.threads, r.seconds,
                 static_cast<unsigned long long>(r.ops),
                 static_cast<unsigned long long>(r.calls), r.ops_per_sec(),
                 static_cast<long long>(r.granted));
    std::fprintf(f,
                 "     \"sustained_ops_per_sec\": %.0f, \"throughput_series\": [",
                 r.sustained_ops_per_sec());
    for (std::size_t p = 0; p < r.throughput.size(); ++p) {
      std::fprintf(f, "%s[%.2f, %.0f]", p > 0 ? ", " : "",
                   to_seconds(r.throughput[p].t), r.throughput[p].value);
    }
    std::fprintf(f, "],\n");
    if (r.has_queue_depth) {
      std::fprintf(f,
                   "     \"queue_depth\": {\"samples\": %zu, \"mean\": %.1f, "
                   "\"p50\": %.0f, \"p90\": %.0f, \"p99\": %.0f, \"max\": "
                   "%.0f},\n",
                   r.queue_depth.samples, r.queue_depth.mean_us,
                   r.queue_depth.p50_us, r.queue_depth.p90_us,
                   r.queue_depth.p99_us, r.queue_depth.max_us);
    }
    if (r.has_gen_lag) {
      std::fprintf(f,
                   "     \"gen_lag_us\": {\"samples\": %zu, \"p99\": %.2f, "
                   "\"max\": %.2f},\n",
                   r.gen_lag.samples, r.gen_lag.p99_us, r.gen_lag.max_us);
    }
    std::fprintf(f,
                 "     \"latency_us\": {\"samples\": %zu, \"mean\": %.2f, "
                 "\"p50\": %.2f, \"p90\": %.2f, \"p99\": %.2f, \"max\": "
                 "%.2f}}%s\n",
                 r.latency.samples, r.latency.mean_us, r.latency.p50_us,
                 r.latency.p90_us, r.latency.p99_us, r.latency.max_us,
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"table_stats\": {\"accounts\": %llu, \"acquires\": %llu, "
               "\"tokens_requested\": %llu, \"tokens_granted\": %llu, "
               "\"proactive_dropped\": %llu, \"ticks_forfeited\": %llu}\n",
               static_cast<unsigned long long>(stats.accounts),
               static_cast<unsigned long long>(stats.acquires),
               static_cast<unsigned long long>(stats.tokens_requested),
               static_cast<unsigned long long>(stats.tokens_granted),
               static_cast<unsigned long long>(stats.proactive_dropped),
               static_cast<unsigned long long>(stats.ticks_forfeited));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const bool quick = args.get_flag("quick");

  LoadConfig load;
  load.threads = util::ThreadPool::resolve(
      static_cast<std::size_t>(args.get_int("threads", 0)));
  load.keys = static_cast<std::uint64_t>(
      args.get_int("keys", 1 << 20));  // >= 1M distinct keys by default
  load.zipf = args.get_double("zipf", 0.99);
  load.seconds = args.get_double("seconds", quick ? 1.0 : 4.0);
  load.batch = static_cast<std::size_t>(args.get_int("batch", 16));
  load.window = static_cast<std::size_t>(args.get_int("window", 64));
  load.cluster_nodes =
      static_cast<std::size_t>(args.get_int("cluster-nodes", 3));
  load.churn = args.get_flag("churn");
  load.replicas = static_cast<std::uint32_t>(
      std::max<std::int64_t>(args.get_int("replicas", 0), 0));
  load.workers = static_cast<std::size_t>(args.get_int("workers", 0));
  load.io_threads =
      std::max<std::size_t>(args.get_int("io-threads", 1), 1);
  load.trace_sample = static_cast<std::uint64_t>(
      std::max<std::int64_t>(args.get_int("trace-sample", 128), 0));
  load.watchdog_sample = static_cast<std::uint64_t>(
      std::max<std::int64_t>(args.get_int("watchdog-sample", 64), 0));
  load.git_sha = args.get_string("git-sha", "");
  load.timestamp = args.get_string("timestamp", "");

  service::ServiceConfig cfg;
  cfg.shards = static_cast<std::size_t>(args.get_int("shards", 256));
  cfg.delta_us = args.get_int("delta-ms", 10) * 1000;
  cfg.strategy.kind =
      core::parse_strategy_kind(args.get_string("strategy", "generalized"));
  cfg.strategy.a_param = args.get_int("a", 4);
  cfg.strategy.c_param = args.get_int("c", 16);
  cfg.idle_ttl_us = args.get_int("ttl-ms", 0) * 1000;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // A stale --mode (the old alias) would otherwise be ignored silently and
  // run the default mode set.
  if (args.has("mode")) {
    std::fprintf(stderr, "service_load: --mode is not an option; use "
                         "--modes=a,b\n");
    return 2;
  }
  // Every mode, in run order; --modes picks a subset (default: all).
  const std::vector<std::string> all_modes = {
      "preload",   "table", "sync",    "pipeline", "sharded", "shardedtr",
      "shardedwd", "epoll", "cluster", "overload", "scenario"};
  std::vector<std::string> modes = all_modes;
  if (args.has("modes")) {
    modes.clear();
    std::stringstream modes_stream(args.get_string("modes", ""));
    for (std::string m; std::getline(modes_stream, m, ',');) {
      if (std::find(all_modes.begin(), all_modes.end(), m) ==
          all_modes.end()) {
        std::fprintf(stderr, "service_load: unknown mode '%s'; modes are",
                     m.c_str());
        for (const std::string& known : all_modes)
          std::fprintf(stderr, " %s", known.c_str());
        std::fprintf(stderr, "\n");
        return 2;
      }
      modes.push_back(m);
    }
    if (modes.empty()) {
      std::fprintf(stderr, "service_load: --modes names no mode\n");
      return 2;
    }
  }

  // The shared table: "preload" and "table" call it directly from this
  // thread; the wire modes each run an engine on it for their duration,
  // after which it is single-owner again.
  service::AccountTable table(cfg);
  service::ClockDriver driver(table, /*resolution_us=*/1000);
  driver.start();
  const util::ZipfSampler sampler(load.keys, load.zipf);
  service::ShardEngineOptions engine_opts;
  engine_opts.workers = load.workers;

  std::printf("service_load: %s, %zu shards, Δ=%lldms | %llu keys zipf %.2f | "
              "%zu threads, %.1fs per mode\n\n",
              cfg.strategy.label().c_str(), table.shard_count(),
              static_cast<long long>(cfg.delta_us / 1000),
              static_cast<unsigned long long>(load.keys), load.zipf,
              load.threads, load.seconds);

  std::vector<ModeResult> runs;
  std::uint64_t cluster_errors = 0;
  std::size_t workers_used = 0;  ///< resolved shard-owner worker count
  OverloadOutcome overload;
  ScenarioOutcome scenario;
  ReplicationOutcome replication;
  for (const std::string& mode : modes) {
    if (mode == "preload") {
      runs.push_back(run_preload(table, load));
    } else if (mode == "table") {
      runs.push_back(run_table_closed(table, sampler, load));
    } else if (mode == "sync") {
      service::ShardEngine engine(table, engine_opts);
      runtime::EpollMesh mesh(2);
      service::Server server(table, mesh.endpoint(0), {.engine = &engine});
      runs.push_back(run_sync("sync", sampler, load, [&](std::size_t t) -> runtime::Transport& {
        return mesh.endpoint(static_cast<NodeId>(1 + t));
      }));
    } else if (mode == "pipeline") {
      // Same single connection as "sync", but --window acquires deep.
      service::ShardEngine engine(table, engine_opts);
      runtime::EpollMesh mesh(2);
      service::Server server(table, mesh.endpoint(0), {.engine = &engine});
      runs.push_back(run_pipeline("pipeline", sampler, load, /*connections=*/1,
                                  [&](std::size_t t) -> runtime::Transport& {
        return mesh.endpoint(static_cast<NodeId>(1 + t));
      }));
    } else if (mode == "sharded" || mode == "shardedtr" ||
               mode == "shardedwd") {
      // The engine on its own table, fed batches straight from the
      // submitters. "shardedtr" is the same run with the flight recorder
      // attached and every batch trace-stamped: the sharded/shardedtr
      // ratio prices the recorder on the hottest path
      // (--max-trace-overhead gates it).
      // "shardedwd" is the same run with the §3.4 invariant watchdog at
      // its production sampling (--watchdog-sample, 1-in-64 keys by
      // default): the sharded/shardedwd ratio prices the online auditor
      // the same way (--max-watchdog-overhead gates it). The plain
      // "sharded" baseline runs with both off so each ratio isolates one
      // feature.
      service::ServiceConfig sharded_cfg = cfg;
      sharded_cfg.watchdog_sample =
          mode == "shardedwd" ? load.watchdog_sample : 0;
      service::AccountTable sharded_table(sharded_cfg);
      // Preload before the engine starts: until the workers exist the
      // table is single-owner, so direct (single-threaded) access is legal.
      preload_keys(sharded_table, load.keys);
      service::ClockDriver sharded_driver(sharded_table, 1000);
      sharded_driver.start();
      obs::TracerOptions trace_opts;
      trace_opts.sample_every = load.trace_sample;
      obs::Tracer tracer(trace_opts);
      service::ShardEngineOptions traced_opts = engine_opts;
      if (mode == "shardedtr") traced_opts.tracer = &tracer;
      service::ShardEngine engine(sharded_table, traced_opts);
      workers_used = engine.worker_count();
      QueueDepthSampler depth(engine);
      runs.push_back(run_sharded(mode, engine, sampler, load,
                                 mode == "shardedtr" ? &tracer : nullptr));
      runs.back().queue_depth = depth.stop();
      runs.back().has_queue_depth = true;
      engine.drain();
      sharded_driver.stop();
    } else if (mode == "epoll") {
      // The whole plane end to end: pipelined async clients over the
      // nonblocking epoll mesh into the server, whose workers reply from
      // their completions (the loop corks them per connection).
      service::AccountTable sharded_table(cfg);
      service::ClockDriver sharded_driver(sharded_table, 1000);
      sharded_driver.start();
      service::ShardEngine engine(sharded_table, engine_opts);
      workers_used = engine.worker_count();
      runtime::EpollMesh mesh(1 + load.threads, load.io_threads);
      service::ServerOptions server_opts;
      server_opts.engine = &engine;
      service::Server server(sharded_table, mesh.endpoint(0), server_opts);
      QueueDepthSampler depth(engine);
      runs.push_back(run_pipeline("epoll", sampler, load, load.threads,
                                  [&](std::size_t t) -> runtime::Transport& {
        return mesh.endpoint(static_cast<NodeId>(1 + t));
      }));
      runs.back().queue_depth = depth.stop();
      runs.back().has_queue_depth = true;
      sharded_driver.stop();
    } else if (mode == "cluster") {
      // Scale-out pair: the same pipelined workload against 1 node, then
      // against the full member count; the ratio is the speedup the
      // consistent-hash sharding buys.
      std::uint64_t errors1 = 0, errors_n = 0, errors_r = 0;
      runs.push_back(run_cluster("cluster1", sampler, load, cfg, 1,
                                 /*churn=*/false, /*replicas=*/0, nullptr,
                                 errors1));
      print_result(runs.back());
      runs.push_back(run_cluster("cluster", sampler, load, cfg,
                                 std::max<std::size_t>(load.cluster_nodes, 1),
                                 load.churn, /*replicas=*/0, nullptr,
                                 errors_n));
      cluster_errors = errors1 + errors_n;
      if (load.replicas > 0) {
        // Replication pricing pair: the replicated run always churns (the
        // kill + promote() failover is the point), so its baseline must
        // churn too — the "cluster" run if --churn was given, otherwise a
        // dedicated unreplicated churn run. The ops/s ratio then prices
        // exactly the delta stream, not the kill window.
        print_result(runs.back());
        double churn_baseline = runs.back().ops_per_sec();
        if (!load.churn) {
          std::uint64_t errors_c = 0;
          runs.push_back(run_cluster(
              "cluster-churn", sampler, load, cfg,
              std::max<std::size_t>(load.cluster_nodes, 1), /*churn=*/true,
              /*replicas=*/0, nullptr, errors_c));
          print_result(runs.back());
          churn_baseline = runs.back().ops_per_sec();
          cluster_errors += errors_c;
        }
        runs.push_back(run_cluster(
            "cluster-repl", sampler, load, cfg,
            std::max<std::size_t>(load.cluster_nodes, 1), /*churn=*/true,
            load.replicas, &replication, errors_r));
        replication.baseline_ops_per_sec = churn_baseline;
        replication.errors = errors_r;
        cluster_errors += errors_r;
      }
    } else if (mode == "overload") {
      // Flash crowd against its own admission-controlled server (the shared
      // table stays untouched — the scenario measures the valve, not the
      // store).
      run_overload(runs, sampler, load, cfg,
                   args.get_double("overload-rate", 20'000), overload);
    } else if (mode == "scenario") {
      // Trace-replay suite against its own fully traced plane; each phase
      // prints and lands in `runs` on its own.
      run_scenario(runs, sampler, load, cfg,
                   args.get_double("scenario-rate", 20'000), scenario);
      continue;
    }
    print_result(runs.back());
  }
  driver.stop();

  const service::TableStats stats = table.stats();
  std::printf("\n%llu live accounts, %llu/%llu tokens granted, "
              "%llu proactive drops, %llu ticks forfeited\n",
              static_cast<unsigned long long>(stats.accounts),
              static_cast<unsigned long long>(stats.tokens_granted),
              static_cast<unsigned long long>(stats.tokens_requested),
              static_cast<unsigned long long>(stats.proactive_dropped),
              static_cast<unsigned long long>(stats.ticks_forfeited));

  // ---- gates: every enabled gate is evaluated and reported ---------------
  std::vector<GateOutcome> gates;
  const auto gate = [&gates](const std::string& name, double value,
                             double bound, bool pass,
                             const std::string& reading) {
    gates.push_back(GateOutcome{name, value, bound, pass});
    std::fprintf(pass ? stdout : stderr, "%s gate %s: %s\n",
                 pass ? "OK" : "FAIL:", name.c_str(), reading.c_str());
  };
  const auto fmt = [](const char* format, auto... values) {
    char buf[256];
    std::snprintf(buf, sizeof buf, format, values...);
    return std::string(buf);
  };

  // The scenario suite's hard promises: every failure is a typed shed, and
  // because sheds force-record, a flash crowd that shed must have left
  // kShed spans in the flight recorder. The Byzantine phase must have
  // bitten (every abuse class moved its typed counter) and must not have
  // bent the invariant: the every-key watchdog audited real grants and
  // found the §3.4 bound intact.
  if (scenario.ran) {
    gate("scenario_violations", static_cast<double>(scenario.violations), 0,
         scenario.violations == 0,
         fmt("%llu non-typed failures (timeouts/errors) alongside %llu "
             "typed sheds",
             static_cast<unsigned long long>(scenario.violations),
             static_cast<unsigned long long>(scenario.shed)));
    gate("scenario_shed_spans", static_cast<double>(scenario.shed_spans),
         scenario.flash_shed > 0 ? 1 : 0,
         scenario.flash_shed == 0 || scenario.shed_spans > 0,
         fmt("flash crowd shed %llu requests, flight recorder holds %llu "
             "kShed spans",
             static_cast<unsigned long long>(scenario.flash_shed),
             static_cast<unsigned long long>(scenario.shed_spans)));
    gate("byzantine_malformed_rejected",
         static_cast<double>(scenario.byz_malformed), 1,
         scenario.byz_malformed > 0,
         fmt("%llu typed kMalformedBody rejections",
             static_cast<unsigned long long>(scenario.byz_malformed)));
    gate("byzantine_refund_dropped",
         static_cast<double>(scenario.byz_refund_dropped), 1,
         scenario.byz_refund_dropped > 0,
         fmt("%llu refund-abuse tokens refused",
             static_cast<unsigned long long>(scenario.byz_refund_dropped)));
    gate("watchdog_checks", static_cast<double>(scenario.watchdog_checks), 1,
         scenario.watchdog_checks > 0,
         fmt("the watchdog audited %llu grants",
             static_cast<unsigned long long>(scenario.watchdog_checks)));
    gate("watchdog_violations",
         static_cast<double>(scenario.watchdog_violations), 0,
         scenario.watchdog_violations == 0,
         fmt("the watchdog flagged %llu §3.4 violations",
             static_cast<unsigned long long>(scenario.watchdog_violations)));
  }

  // Overhead ceilings, in percent of the plain sharded run's throughput:
  // release-bench CI passes --max-trace-overhead=2 (the flight recorder
  // attached and stamping every batch) and --max-watchdog-overhead=2 (the
  // §3.4 watchdog at its production sampling) on >= 4-core runners.
  const auto overhead_gate = [&](const std::string& name,
                                 const std::string& mode, double ceiling) {
    const double base = ops_of(runs, "sharded");
    const double with = ops_of(runs, mode);
    if (base <= 0 || with <= 0) {
      gate(name, 0, ceiling, false,
           "needs both the sharded and the " + mode + " modes in --modes");
      return;
    }
    const double overhead_pct = 100.0 * (1.0 - with / base);
    gate(name, overhead_pct, ceiling, overhead_pct <= ceiling,
         fmt("%s costs %.2f%% on the sharded plane (%.0f -> %.0f ops/s, "
             "ceiling %.2f%%)",
             mode.c_str(), overhead_pct, base, with, ceiling));
  };
  const double max_trace_overhead = args.get_double("max-trace-overhead", 0);
  if (max_trace_overhead > 0)
    overhead_gate("max_trace_overhead_pct", "shardedtr", max_trace_overhead);
  const double max_watchdog_overhead =
      args.get_double("max-watchdog-overhead", 0);
  if (max_watchdog_overhead > 0) {
    overhead_gate("max_watchdog_overhead_pct", "shardedwd",
                  max_watchdog_overhead);
  }

  // The overload scenario's hard promise: excess load turns into typed
  // kOverloaded sheds, never into timeouts or untyped failures.
  if (overload.ran) {
    gate("overload_violations", static_cast<double>(overload.violations), 0,
         overload.violations == 0,
         fmt("%llu non-typed failures (timeouts/errors) alongside %llu typed "
             "sheds",
             static_cast<unsigned long long>(overload.violations),
             static_cast<unsigned long long>(overload.shed)));
  }

  // Absolute throughput floors: --min-table-ops=100000 for the raw store,
  // and --min-sharded-ops on >= 4-core runners for the engine
  // (bench_snapshot.sh gates the flag on the core count — with one or two
  // cores the workers just time-slice against the submitters).
  const auto floor_gate = [&](const std::string& name, const std::string& mode,
                              double floor) {
    const double ops = ops_of(runs, mode);
    gate(name, ops, floor, ops >= floor,
         fmt("%s mode %.0f ops/s (floor %.0f)", mode.c_str(), ops, floor));
  };
  const double min_table_ops = args.get_double("min-table-ops", 0);
  if (min_table_ops > 0) floor_gate("min_table_ops", "table", min_table_ops);
  const double min_sharded_ops = args.get_double("min-sharded-ops", 0);
  if (min_sharded_ops > 0)
    floor_gate("min_sharded_ops", "sharded", min_sharded_ops);

  // Speedup floors: --min-pipeline-speedup=1 (the async pipelined client
  // must never fall behind the sync closed loop on the same single
  // connection; locally the ratio is far higher, the floor only guards
  // against the pipeline regressing into sync behaviour) and
  // --min-cluster-speedup=1.5 (N tokad nodes, each one dispatcher lane and
  // one worker ≈ one machine, must beat one node on the same pipelined
  // Zipf workload).
  const auto speedup_gate = [&](const std::string& name,
                                const std::string& slow_mode,
                                const std::string& fast_mode, double floor) {
    const double slow = ops_of(runs, slow_mode);
    const double fast = ops_of(runs, fast_mode);
    if (slow <= 0 || fast <= 0) {
      gate(name, 0, floor, false,
           "needs both the " + slow_mode + " and the " + fast_mode +
               " modes in --modes");
      return;
    }
    const double speedup = fast / slow;
    gate(name, speedup, floor, speedup >= floor,
         fmt("%s %.0f ops/s is %.2fx %s %.0f ops/s (floor %.2fx)",
             fast_mode.c_str(), fast, speedup, slow_mode.c_str(), slow,
             floor));
  };
  const double min_speedup = args.get_double("min-pipeline-speedup", 0);
  if (min_speedup > 0)
    speedup_gate("min_pipeline_speedup", "sync", "pipeline", min_speedup);
  const double min_cluster = args.get_double("min-cluster-speedup", 0);
  if (min_cluster > 0) {
    // Any client-visible error in a cluster run fails too.
    gate("cluster_errors", static_cast<double>(cluster_errors), 0,
         cluster_errors == 0,
         fmt("cluster runs saw %llu client errors",
             static_cast<unsigned long long>(cluster_errors)));
    speedup_gate("min_cluster_speedup", "cluster1", "cluster", min_cluster);
  }

  // Release-bench CI passes --enforce-replication-churn with --replicas=1:
  // the replicated churn run must actually fail over (a promotion that
  // installed replicas), keep every client error-free, and forfeit at most
  // a bounded number of tokens — one capacity's worth per account that
  // could have been mid-stream at the kill (installed replicas, and one
  // in-flight op per client chain; deltas flush at every worker drain
  // boundary). A duplicate-grant bug shows up in the churn *tests*; what
  // this smoke catches is the catastrophic regression where failover
  // silently confiscates the keyspace.
  if (args.get_flag("enforce-replication-churn")) {
    if (!replication.ran) {
      gate("replication_churn", 0, 1, false,
           "--enforce-replication-churn needs the cluster mode with "
           "--replicas");
    } else {
      gate("replication_errors", static_cast<double>(replication.errors), 0,
           replication.errors == 0,
           fmt("replicated churn run saw %llu client errors",
               static_cast<unsigned long long>(replication.errors)));
      gate("replication_installs",
           static_cast<double>(replication.replica_installs), 1,
           replication.promotions > 0 && replication.replica_installs > 0,
           fmt("%llu promotions installed %llu replicas (failover %.1fms)",
               static_cast<unsigned long long>(replication.promotions),
               static_cast<unsigned long long>(replication.replica_installs),
               replication.failover_ms));
      const std::int64_t capacity = cfg.strategy.c_param + 1;
      const std::int64_t forfeit_bound =
          static_cast<std::int64_t>(replication.replica_installs +
                                    load.threads * load.window) *
          capacity;
      gate("replication_forfeit",
           static_cast<double>(replication.tokens_forfeited),
           static_cast<double>(forfeit_bound),
           replication.tokens_forfeited <= forfeit_bound,
           fmt("replicated churn forfeited %lld tokens (lag bound %lld)",
               static_cast<long long>(replication.tokens_forfeited),
               static_cast<long long>(forfeit_bound)));
    }
  }

  // Release-bench CI passes --max-replication-overhead=15 (percent) on
  // >= 4-core runners: the delta stream may cost at most this much of the
  // unreplicated churn run's throughput. Needs real parallelism for the
  // same reason as the other ratios — on one or two cores the follower
  // lanes time-share the primaries' cores and the delta measures the
  // scheduler, not the stream.
  const double max_repl_overhead = args.get_double("max-replication-overhead", 0);
  if (max_repl_overhead > 0) {
    if (!replication.ran || replication.baseline_ops_per_sec <= 0) {
      gate("max_replication_overhead_pct", 0, max_repl_overhead, false,
           "needs the cluster mode with --replicas");
    } else {
      const double overhead =
          100.0 * (1.0 - replication.ops_per_sec /
                             replication.baseline_ops_per_sec);
      gate("max_replication_overhead_pct", overhead, max_repl_overhead,
           overhead <= max_repl_overhead,
           fmt("replication costs %.1f%% of unreplicated churn throughput "
               "(ceiling %.1f%%)",
               overhead, max_repl_overhead));
    }
  }

  const std::string json_path = args.get_string("json", "");
  if (!json_path.empty())
    write_json(json_path, runs, table, load, quick, overload, scenario,
               replication, gates, workers_used);

  // --scrape-out captures the overload server's Prometheus exposition (the
  // release-bench job uploads it as an artifact).
  const std::string scrape_path = args.get_string("scrape-out", "");
  if (!scrape_path.empty()) {
    if (std::FILE* f = std::fopen(scrape_path.c_str(), "w")) {
      std::fputs(overload.scrape_text.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s\n", scrape_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", scrape_path.c_str());
    }
  }

  // --trace-out captures the scenario run's flight-recorder spans (the
  // release-bench job uploads the JSON as an artifact).
  const std::string trace_path = args.get_string("trace-out", "");
  if (!trace_path.empty()) {
    if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
      std::fputs(scenario.trace_json.c_str(), f);
      std::fclose(f);
      std::printf("wrote %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }

  std::size_t failed = 0;
  for (const GateOutcome& g : gates) failed += g.pass ? 0 : 1;
  if (!gates.empty()) {
    std::printf("%zu gate(s) evaluated, %zu failed\n", gates.size(), failed);
  }
  return failed > 0 ? 1 : 0;
}
