// Checks of the burst bound of paper §3.4.
//
// A token-capacity-C strategy guarantees that a node sends at most
// ceil(t/Δ) + C messages within any time window of length t. For closed
// windows [t_i, t_j] that both contain a send, the equivalent discrete bound
// checked here is
//
//     count(i..j) <= (t_j - t_i)/Δ + 1 + C      (integer division)
//
// (+1 because a closed window of length 0 still contains one tick's worth of
// granted token; e.g. a tick-send and a full-balance reactive burst can land
// at the same instant, giving C+1 sends at one timestamp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace toka::core {

/// Description of a window that exceeded the bound.
struct RateLimitViolation {
  TimeUs window_start = 0;
  TimeUs window_end = 0;
  std::uint64_t sends = 0;
  std::uint64_t bound = 0;

  std::string describe() const;
};

/// Records send timestamps and checks every send-anchored window against
/// the §3.4 bound. The exhaustive O(n^2) reference that tests compare
/// BurstCheck against; fine at test scales.
class RateLimitAuditor {
 public:
  /// Δ is the token period, C the token capacity of the strategy under
  /// audit.
  RateLimitAuditor(TimeUs delta, Tokens capacity);

  /// Records a send at time t. Timestamps must be non-decreasing.
  void record(TimeUs t);

  /// Strikes the `n` most recent records from the trace. Used by the
  /// service's refund path: a returned token's admission never happened,
  /// and newest-first matches the account's fungible-token accounting
  /// (refund_spend), so the trace always holds exactly the outstanding
  /// spends. Requires n <= send_count().
  void retract(std::size_t n);

  std::size_t send_count() const { return sends_.size(); }

  /// Exhaustively checks all send-anchored windows. Returns the first
  /// violation found, or nullopt if the trace satisfies the bound.
  std::optional<RateLimitViolation> first_violation() const;

 private:
  TimeUs delta_;
  Tokens capacity_;
  std::vector<TimeUs> sends_;
};

/// The exact online check of the §3.4 bound, cheap enough to run on every
/// grant in the data plane: the Generic Cell Rate Algorithm's theoretical
/// arrival time. The bound's left side is an integer, so the floor drops
/// out, and for sends t_1 <= ... <= t_j it reads u_i - u_j <= CΔ for every
/// i <= j, where u_k = t_k - kΔ. The check keeps tat = max_{i<=j} u_i +
/// (j+1)Δ — one timestamp instead of the trace — and flags the newest send
/// iff tat - t_j > (C+1)Δ: exactly when some window ending at it breaks
/// the bound, however old its start (DESIGN.md has the proof).
///
/// A 16-byte trivially copyable value whose all-zero state is the empty
/// check, so flat stores hold it and dropping it frees nothing. Δ and C
/// are passed to every call rather than stored; a check must always be
/// given the same pair. Times must be non-negative.
class BurstCheck {
 public:
  /// Records `n` grants at time t under period `delta` > 0 and capacity
  /// `capacity` >= 0 and returns whether a window ending at them breaks
  /// the bound. An earlier t clamps forward to the newest grant time, like
  /// the table's settle(); n <= 0 records nothing and returns false.
  bool record(TimeUs delta, Tokens capacity, TimeUs t, Tokens n);

  /// Strikes the `n` newest grants (the refund path), newest-first like
  /// RateLimitAuditor::retract. Every struck grant is later than every
  /// kept one and no later than the next grant, which record() clamps to
  /// the newest grant time, so the next verdict is exact.
  void retract(TimeUs delta, Tokens n);

 private:
  TimeUs tat_ = 0;   ///< theoretical arrival time of the next grant
  TimeUs last_ = 0;  ///< the newest grant time
};
static_assert(sizeof(BurstCheck) == 16);
static_assert(std::is_trivially_copyable_v<BurstCheck>);

/// One grant as a client observed it: `tokens` admitted for `key` at
/// `at_us` (the completion time, on the caller's clock).
struct KeyedGrant {
  std::uint64_t key = 0;
  TimeUs at_us = 0;
  Tokens tokens = 0;
};

/// The cluster-wide §3.4 replay: sorts `grants` by key and time and runs
/// each key's trace, wherever in a cluster the key was served, through a
/// BurstCheck and against whole-run conservation: at most
/// `run_us`/Δ + 1 + `capacity` tokens, the most a zero-initial account can
/// earn in the run. Callers pass C plus their timestamp slack as
/// `capacity` (completion times can compress a window by one scheduling
/// delay, worth one tick); a duplicated handoff or promotion still injects
/// up to C extra grants and is caught.
/// Returns one description per offending key, in key order.
std::vector<std::string> keyed_burst_violations(std::vector<KeyedGrant> grants,
                                                TimeUs delta, Tokens capacity,
                                                TimeUs run_us);

}  // namespace toka::core
