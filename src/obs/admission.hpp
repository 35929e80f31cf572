// Adaptive overload control: the paper's bounded-token-budget idea applied
// to the server itself.
//
// AdmissionBucket grants the server a budget of data-op admissions per
// fixed interval — exactly a token account with interval-sized refills —
// and the budget adapts to measured service time: an interval can admit at
// most the work that fits into `utilization` of its wall time, estimated
// from an EWMA of per-request service time. Requests beyond the budget are
// shed with a typed kOverloaded error carrying a retry-after hint (the
// time to the next interval boundary), instead of queueing unboundedly.
//
// Setting min_budget == max_budget pins the budget (no adaptivity), which
// is what deterministic tests use. The `now` fed to try_admit comes from
// the table's CoarseClock, so tests control interval rollover explicitly.
//
// SpaceSaving is the classic top-k heavy-hitter sketch (Metwally et al.):
// k slots of (item, count); a miss evicts the minimum slot and inherits
// its count (so a true heavy hitter's count is never undercounted by more
// than the evicted minimum). It is NOT thread-safe — each table shard owns
// one, updated only by the shard's one accessor.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace toka::obs {

struct AdmissionConfig {
  bool enabled = false;
  /// Budget interval; also the granularity of retry-after hints.
  TimeUs interval_us = 10'000;
  /// Budget clamp. min == max pins the budget for deterministic tests.
  std::int64_t min_budget = 32;
  std::int64_t max_budget = 1'000'000;
  /// Fraction of interval wall time the adaptive budget may fill with
  /// estimated service time.
  double utilization = 0.75;
};

/// Per-server admission token bucket. All operations are lock-free; the
/// interval-rollover race (a late admit landing on a freshly reset
/// interval) can over- or under-admit by a handful of requests, which is
/// fine for an overload valve.
class AdmissionBucket {
 public:
  explicit AdmissionBucket(AdmissionConfig config = {});

  bool enabled() const { return cfg_.enabled; }
  const AdmissionConfig& config() const { return cfg_; }

  /// Consumes one unit of the current interval's budget. False = shed.
  bool try_admit(TimeUs now);

  /// Retry-after hint for a shed request: time to the next interval.
  TimeUs retry_after_us(TimeUs now) const;

  /// Feeds one measured per-request service time into the EWMA the
  /// adaptive budget is derived from.
  void record_service_time_us(double us);

  std::int64_t budget() const { return budget_.load(std::memory_order_relaxed); }
  std::int64_t used() const { return used_.load(std::memory_order_relaxed); }
  double ewma_service_us() const;

 private:
  /// The budget a fresh interval gets, given the current EWMA.
  std::int64_t compute_budget() const;

  AdmissionConfig cfg_;
  std::atomic<std::int64_t> interval_{-1};  ///< now / interval_us
  std::atomic<std::int64_t> used_{0};
  std::atomic<std::int64_t> budget_;
  std::atomic<std::uint64_t> ewma_bits_{0};  ///< double bit pattern; 0 = none
};

/// Space-saving top-k sketch over 64-bit item ids. Not thread-safe.
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t k = 8) : slots_(), k_(k) {
    slots_.reserve(k);
  }

  struct HeavyHitter {
    std::uint64_t item = 0;
    std::uint64_t count = 0;
  };

  void record(std::uint64_t item);
  /// Tracked items, descending by count.
  std::vector<HeavyHitter> top() const;
  /// Total records fed in (the share denominator).
  std::uint64_t total() const { return total_; }

 private:
  std::vector<HeavyHitter> slots_;
  std::size_t k_;
  std::uint64_t total_ = 0;
};

}  // namespace toka::obs
