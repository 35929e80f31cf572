// Auditor for the burst bound of paper §3.4.
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
/// the §3.4 bound. Intended for tests and the runtime demo; the O(n^2)
/// exhaustive check is fine at those scales.
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

  /// Largest number of sends observed in any window of length `window`.
  std::uint64_t max_in_window(TimeUs window) const;

 private:
  TimeUs delta_;
  Tokens capacity_;
  std::vector<TimeUs> sends_;
};

/// Bounded-memory online variant of RateLimitAuditor, cheap enough to run
/// inside the data plane on sampled keys: a ring of the most recent grant
/// records (coalesced per timestamp) re-checked on every grant.
///
/// Sound but windowed — any violation it flags is a real §3.4 violation
/// (a retained window genuinely exceeded its bound); history that rotated
/// out of the ring is no longer checked, so absence of violations bounds
/// only the retained horizon. Refunds must be retracted (newest-first,
/// like RateLimitAuditor) so the audited trace holds net admissions.
///
/// The ring follows its use: a watchdog starts with no storage and
/// doubles its ring as distinct grant timestamps arrive, up to the window;
/// only a full window rotates. The watchdog itself is a 16-byte handle,
/// trivially copyable so that flat stores can hold it, and the all-zero
/// value is the empty watchdog. Its ring storage is owned by whoever holds
/// the handle: call release() exactly once before dropping it (copies
/// alias the same ring).
class BurstWatchdog {
 public:
  /// The §3.4 bound under audit: Δ and C of the strategy, and the window —
  /// how many distinct grant timestamps the ring retains. Passed to every
  /// record() rather than stored per watchdog; a watchdog must always be
  /// given the same bound, so a holder of many watchdogs builds one Bound
  /// per policy (AccountTable keeps it in the namespace).
  struct Bound {
    /// The largest window the ring's one-byte counters can hold.
    static constexpr std::size_t kMaxWindow = 255;

    /// The bound for period Δ and capacity C over `window` timestamps.
    /// Throws util::InvariantError on Δ <= 0, C < 0 or a window outside
    /// [1, kMaxWindow].
    static Bound checked(TimeUs delta, Tokens capacity,
                         std::size_t window = 32);

    TimeUs delta = 0;
    Tokens capacity = 0;
    std::size_t window = 32;
  };

  /// What one record() checked: windows swept, and those over the bound.
  struct Sweep {
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
  };

  /// Records `n` grants at non-decreasing time t, then checks every
  /// retained send-anchored window ending at t against `bound`, which must
  /// come from Bound::checked(). A clean grant reports 0 violations;
  /// n <= 0 records and checks nothing.
  Sweep record(const Bound& bound, TimeUs t, Tokens n);

  /// Strikes the `n` newest grants (the refund path). Clamps at what the
  /// ring still holds — rotated-out history cannot be retracted.
  void retract(Tokens n);

  /// Frees the ring, leaving the empty watchdog.
  void release();

  /// Records the ring has room for: 0 before the first grant, at most
  /// the window.
  std::size_t ring_capacity() const { return capacity_; }

 private:
  struct Grant {
    TimeUs t = 0;
    Tokens count = 0;
  };

  Grant& at(std::size_t i) { return ring_[(head_ + i) % capacity_]; }
  /// Moves the records into a ring of `capacity`; head_ is 0 before and
  /// after, because a ring that has not reached its window never rotates.
  void grow(std::size_t capacity);

  Grant* ring_ = nullptr;
  std::uint8_t capacity_ = 0;
  std::uint8_t head_ = 0;  ///< the oldest record
  std::uint8_t size_ = 0;
};
static_assert(sizeof(BurstWatchdog) == 16);

/// One grant as a client observed it: `tokens` admitted for `key` at
/// `at_us` (the completion time, on the caller's clock).
struct KeyedGrant {
  std::uint64_t key = 0;
  TimeUs at_us = 0;
  Tokens tokens = 0;
};

/// The cluster-wide §3.4 replay: sorts `grants` by time and checks each
/// key's trace, wherever in a cluster the key was served, against the
/// burst bound over every send-anchored window (a RateLimitAuditor) and
/// against whole-run conservation: at most `run_us`/Δ + 1 + `capacity`
/// tokens, the most a zero-initial account can earn in the run. Callers
/// pass C plus their timestamp slack as `capacity` (completion times can
/// compress a window by one scheduling delay, worth one tick); a duplicated
/// handoff or promotion still injects up to C extra grants and is caught.
/// Returns one description per offending key, in key order.
std::vector<std::string> keyed_burst_violations(std::vector<KeyedGrant> grants,
                                                TimeUs delta, Tokens capacity,
                                                TimeUs run_us);

}  // namespace toka::core
