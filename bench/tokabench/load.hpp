// Load generation: targets that issue one request into the system under
// test, a closed loop of self-sustaining request chains, and an open loop
// that sends on a fixed schedule and times each request from when it was
// due.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "ledger.hpp"
#include "service/client.hpp"
#include "workload.hpp"

namespace tokabench {

using Clock = std::chrono::steady_clock;

/// One request's completion as the load generator sees it.
struct Outcome {
  enum class Status : std::uint8_t { kOk, kShed, kTimeout, kError };
  Status status = Status::kOk;
  bool valid = true;   ///< the reply passed the result checks
  Tokens granted = 0;  ///< tokens granted (acquires and batches)
  std::uint64_t key = 0;
  std::string error;   ///< what a failed request failed with
};

/// The outcome of a failed request: a typed overload shed, a timeout, or
/// anything else, with the error's message.
Outcome failed(std::exception_ptr error, std::uint64_t key);

class Sink {
 public:
  virtual ~Sink() = default;
  /// Runs on whichever thread completes the request.
  virtual void on_done(std::uint64_t tag, const Outcome& outcome) = 0;
};

/// Time spent inside *_async calls, and the ledger the request and
/// callback spans go to. Shared by the targets of a traced run.
struct IssueTrace {
  Ledger* ledger = nullptr;
  LayerTime issue;
  std::atomic<bool> on{false};
};

class Target {
 public:
  virtual ~Target() = default;
  /// Issues `op` (with `batch` for batch frames); completion reports to
  /// `sink` with `tag`.
  virtual void issue(const Op& op, const std::vector<AcquireOp>& batch,
                     Sink& sink, std::uint64_t tag) = 0;
};

class ClientTarget final : public Target {
 public:
  ClientTarget(toka::service::Client& client, IssueTrace* trace)
      : client_(&client), trace_(trace) {}
  void issue(const Op& op, const std::vector<AcquireOp>& batch, Sink& sink,
             std::uint64_t tag) override;

 private:
  toka::service::Client* client_;
  IssueTrace* trace_;
};

class ClusterTarget final : public Target {
 public:
  ClusterTarget(toka::cluster::ClusterClient& client, IssueTrace* trace)
      : client_(&client), trace_(trace) {}
  void issue(const Op& op, const std::vector<AcquireOp>& batch, Sink& sink,
             std::uint64_t tag) override;

 private:
  toka::cluster::ClusterClient* client_;
  IssueTrace* trace_;
};

/// Request tallies over every phase of a run.
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> invalid{0};  ///< replies failing result checks
  /// Counts one request carrying `ops` logical ops.
  void count(const Outcome& outcome, std::uint64_t ops);
  std::uint64_t failed() const { return shed + timeouts + errors; }
  /// The message of the first untyped error or timeout, if any.
  std::string first_error() const;

 private:
  mutable std::mutex mu_;
  std::string first_error_;  ///< guarded by mu_
};

/// A granted acquire, as the client saw it complete (for the cluster-wide
/// burst audit).
struct GrantEvent {
  std::uint64_t key = 0;
  std::int64_t at_us = 0;
  Tokens granted = 0;
};

struct LoadContext {
  const WorkloadSpec* spec = nullptr;
  const toka::util::ZipfSampler* keys = nullptr;
  std::uint64_t seed = 0;
  Target* target = nullptr;
  Tally* tally = nullptr;
  /// When set, every grant is appended under `grants_mu` (the cluster
  /// workload's audit).
  std::vector<GrantEvent>* grants = nullptr;
  std::mutex* grants_mu = nullptr;
};

struct ClosedResult {
  /// Logical ops (64 per batch frame) per second: the median over the
  /// phase's 250 ms windows.
  double ops_per_s = 0;
  double mean_latency_us = 0;  ///< of the requests completed in time
};

/// `spec.window` chains each keep one request in flight for `seconds`.
ClosedResult run_closed(const LoadContext& ctx, std::uint64_t phase,
                        double seconds);

struct OpenResult {
  double rate = 0;              ///< offered requests/s
  std::uint64_t offered = 0;    ///< requests scheduled
  std::uint64_t completed = 0;  ///< successful completions, ever
  std::uint64_t in_time = 0;    ///< ...within the step plus its drain window
  /// Latency from the scheduled time. p50/p90: the median over 250 ms
  /// windows of each window's quantile; step_p90/p99: over the whole step,
  /// a request in flight or failed counting as missing every limit.
  double p50_us = 0, p90_us = 0;
  double step_p90_us = 0, p99_us = 0;
  double lag_p99_us = 0, lag_max_us = 0;      ///< generator lateness
  double cpu_us = 0;   ///< process CPU over the step and its drain
  double wall_s = 0;   ///< step plus drain
};

/// Per-request record of an open-loop step.
struct OpenRecord {
  /// Scheduled time → completion; negative while in flight. Stored last
  /// (release) by the completing thread, so `status` is valid once it is.
  std::atomic<float> latency_us{-1};
  float lag_us = 0;  ///< scheduled time → issue
  Outcome::Status status = Outcome::Status::kOk;
};

/// One open-loop step's state. Requests still in flight when the step
/// returns complete into it later, so it must outlive them (see
/// OpenLoops).
class OpenLoop final : public Sink {
 public:
  OpenLoop(const LoadContext& ctx, double rate, std::uint64_t n,
           std::int64_t start_ns);
  void on_done(std::uint64_t tag, const Outcome& outcome) override;

  std::int64_t scheduled_ns(std::uint64_t seq) const {
    return start_ns_ + static_cast<std::int64_t>(static_cast<double>(seq) * interval_ns_);
  }
  bool all_done() const { return done_.load(std::memory_order_acquire) == records.size(); }

  std::vector<OpenRecord> records;
  std::vector<std::uint64_t> keys;  ///< per request, when grants are audited

 private:
  LoadContext ctx_;
  double interval_ns_;
  std::int64_t start_ns_;
  std::atomic<std::uint64_t> done_{0};
};

/// Owns open-loop steps until their stragglers have completed.
struct OpenLoops {
  std::vector<std::unique_ptr<OpenLoop>> steps;
  /// Frees every step whose requests have all completed.
  void reap();
  /// Waits until every request completed or `timeout_s` passed.
  bool wait_all(double timeout_s);
};

/// Open-loop step: requests due every 1/rate seconds from `start` for
/// `seconds`, then a drain of up to `drain_s`. The calling thread is the
/// one generator: it issues everything due at each wake-up.
OpenResult run_open(const LoadContext& ctx, std::uint64_t phase, double rate,
                    double seconds, double drain_s, Clock::time_point start,
                    OpenLoops& loops);

/// Quantile of `v` (sorted in place), linear between order statistics.
double quantile(std::vector<double>& v, double q);

}  // namespace tokabench
