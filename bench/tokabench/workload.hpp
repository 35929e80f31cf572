// The four fixed tokabench workloads, the policy they run under, and the
// seeded op streams that are the only input the system receives.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/account_table.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace tokabench {

using toka::Tokens;
using toka::service::AcquireOp;
using toka::service::NamespaceId;

enum class Shape {
  kSingle,   ///< one single-key acquire per request
  kBatch,    ///< one 64-op acquire_batch frame per request
  kMixed,    ///< acquires on two namespaces, queries and refunds
  kCluster,  ///< single-key acquires through the cluster client
};

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kSingle;
  std::uint64_t keys = 0;
  double zipf = 0;  ///< Zipf exponent of the key popularity; 0 = uniform
  std::size_t window = 64;    ///< closed-loop requests in flight
  std::size_t workers = 1;    ///< shard workers per node
  /// Open-loop request rates (frames/s for kBatch), ascending. The first is
  /// the nominal rate latency and CPU are reported at. The cluster
  /// workload uses only the first. The top step stays below the slowest
  /// closed-loop capacity seen on a busy 4-vCPU host: beyond it the
  /// engine's queues fill and shed requests, and a shed is a failed op.
  std::array<double, 4> ladder{};
  double slo_p90_us = 500;  ///< latency limit for slo_rate_ops
  std::size_t ops_per_request = 1;

  double nominal_rate() const { return ladder[0]; }
};

/// The fixed workloads, in the order a full run executes them.
const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);
/// The --quick form: a small keyspace, so set-up and the smoke run are fast.
WorkloadSpec quick_variant(WorkloadSpec spec);

// Every workload runs the same policy: the paper's generalized token
// account (A=4, C=16) with a 10 ms token period, and zero initial tokens,
// so every granted token was earned inside the run. wire_mixed adds a
// classic token bucket of the same size on a second namespace.
inline constexpr NamespaceId kNsGeneralized = 1;
inline constexpr NamespaceId kNsBucket = 2;
inline constexpr Tokens kCapacity = 16;
inline constexpr toka::TimeUs kDeltaUs = 10'000;

toka::service::ServiceConfig service_config(std::uint64_t seed);
/// Creates the namespaces `shape` uses beyond the default one.
void configure_namespaces(toka::service::AccountTable& table, Shape shape);
/// The namespaces whose accounts are preloaded (and addressed).
std::vector<NamespaceId> data_namespaces(Shape shape);

enum class OpKind : std::uint8_t { kAcquire, kQuery, kRefund, kBatch };

struct Op {
  OpKind kind = OpKind::kAcquire;
  NamespaceId ns = toka::service::kDefaultNamespace;
  std::uint64_t key = 0;
  Tokens tokens = 1;
};

/// A deterministic request stream: the same (spec, seed) yields the same
/// requests in the same order.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, const toka::util::ZipfSampler& keys,
           std::uint64_t seed);

  /// Draws the next request into `op`; for kBatch also refills `batch`
  /// with the frame's 64 acquires.
  void next(Op& op, std::vector<AcquireOp>& batch);

 private:
  std::uint64_t draw_key();

  const WorkloadSpec* spec_;
  const toka::util::ZipfSampler* keys_;
  toka::util::Rng rng_;
  /// Recent acquires, the targets of wire_mixed's refunds.
  std::array<Op, 16> recent_{};
  std::size_t recent_n_ = 0;
};

/// Independent stream seed for (run seed, phase, stream index).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t phase,
                          std::uint64_t index);

}  // namespace tokabench
