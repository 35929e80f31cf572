// Per-layer probes for the --traced run: isolated replays of the
// workload's own op stream into one layer at a time (engine, table,
// codec), readings of the program's obs::Tracer stage histograms, and a
// queue-depth sampler.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "service/account_table.hpp"
#include "service/shard_engine.hpp"
#include "workload.hpp"

namespace tokabench {

/// Creates every account of the workload's namespaces (0-token acquires,
/// single-threaded, before any engine owns the table). Returns the number
/// of accounts created.
std::uint64_t preload(toka::service::AccountTable& table, const WorkloadSpec& spec,
                      const std::vector<std::uint64_t>* only_keys = nullptr);

/// Logical ops per second through ShardEngine::try_submit/submit_batch,
/// no wire: `spec.window` requests in flight for `seconds`.
double engine_direct_ops(toka::service::ShardEngine& engine,
                         const WorkloadSpec& spec,
                         const toka::util::ZipfSampler& keys, std::uint64_t seed,
                         double seconds);

/// Nanoseconds per logical op of a single-threaded replay straight into
/// the table (acquire / acquire_batch / query / refund). The table must
/// not be owned by a running engine.
double table_op_ns(toka::service::AccountTable& table, const WorkloadSpec& spec,
                   const toka::util::ZipfSampler& keys, std::uint64_t seed,
                   double seconds);

/// Request + reply encode and decode cost per logical op, replaying the
/// workload's own frames through service::protocol.
struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
};
CodecCost codec_cost(const WorkloadSpec& spec, const toka::util::ZipfSampler& keys,
                     std::uint64_t seed, double seconds);

/// A registry histogram as it stood at one instant.
struct HistogramReading {
  double count = 0;
  double sum = 0;
  std::vector<toka::obs::HistogramBucket> buckets;
};
HistogramReading read_histogram(const toka::obs::Registry& registry,
                                const std::string& name);
/// Quantile `q` of the samples recorded between two readings.
double quantile_between(const HistogramReading& before,
                        const HistogramReading& after, double q);

/// Samples `engine.queue_depth_max()` every millisecond until stopped.
class DepthSampler {
 public:
  explicit DepthSampler(const toka::service::ShardEngine& engine);
  ~DepthSampler();
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;
  /// Stops sampling; returns the samples.
  std::vector<double> stop();

 private:
  std::atomic<bool> done_{false};
  std::vector<double> samples_;
  std::thread thread_;
};

}  // namespace tokabench
