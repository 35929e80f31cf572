// The per-node token account (paper Algorithm 4).
//
// Every period Δ the node calls on_tick(): with probability proactive(a) the
// period's token is spent on a proactive message (the balance is unchanged);
// otherwise the token is banked (a += 1). On every incoming message the node
// calls on_message(useful): the strategy's reactive value is probabilistically
// rounded, capped by the balance, deducted, and returned as the number of
// reactive messages to send.
#pragma once

#include <cstdint>

#include "core/strategy.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace toka::core {

/// Aggregate send/earn counters for audits and cost accounting.
struct AccountCounters {
  std::uint64_t ticks = 0;              ///< on_tick() calls (periods online)
  std::uint64_t proactive_sends = 0;    ///< proactive messages decided
  std::uint64_t reactive_sends = 0;     ///< reactive messages decided
  std::uint64_t banked_tokens = 0;      ///< ticks that banked the token
  std::uint64_t overflowed_tokens = 0;  ///< ticks lost to the bucket cap
  std::uint64_t messages_received = 0;  ///< on_message() calls
  std::uint64_t direct_spends = 0;      ///< try_spend() tokens (pull replies)

  std::uint64_t total_sends() const {
    return proactive_sends + reactive_sends + direct_spends;
  }
};

/// How fractional reactive values are turned into message counts.
enum class RoundingMode {
  kRandomized,  ///< floor + Bernoulli(frac) — Algorithm 4's randRound
  kFloor,       ///< plain floor — ablation of the randomized rounding
};

// Algorithm 4's balance arithmetic as free functions over a bare balance.
// TokenAccount (the simulator's account, with counters) and the service's
// compact account store both run exactly these, so the two draw the same
// random numbers in the same order and reach the same decisions.

/// What one period boundary did with its token.
enum class TickOutcome {
  kProactive,   ///< spent on a proactive message; balance unchanged
  kBanked,      ///< banked: balance += 1
  kOverflowed,  ///< lost to the bucket cap (classic token bucket only)
};

/// One period boundary (Algorithm 4 lines 4-9): one Bernoulli draw of
/// proactive(balance) from `rng`, then the token is banked unless
/// `bucket_cap` (0 = none) is reached.
TickOutcome tick_balance(const Strategy& strategy, Tokens& balance,
                         Tokens bucket_cap, util::Rng& rng);

/// Deducts up to `n` >= 0 tokens — all of them with overdraft, else at
/// most the non-negative balance — adds them to `outstanding` (the direct
/// spends refund_balance may give back) and returns the amount deducted.
Tokens spend_balance(Tokens& balance, std::uint64_t& outstanding, Tokens n,
                     bool allow_overdraft);

/// Gives back up to `n` >= 0 of the `outstanding` directly spent tokens:
/// restores the balance, decrements `outstanding` and returns the amount
/// accepted, min(n, outstanding).
Tokens refund_balance(Tokens& balance, std::uint64_t& outstanding, Tokens n);

class TokenAccount {
 public:
  /// The strategy must outlive the account. `initial` is the starting
  /// balance (the paper's experiments use 0). `allow_overdraft` permits a
  /// negative balance and removes the spend cap — only the pure-reactive
  /// reference uses this.
  /// `bucket_cap` (0 = none) externally caps the banked balance: a tick
  /// whose token would exceed the cap overflows (token lost). Only the
  /// classic token-bucket reference needs this — the paper's strategies
  /// bound the balance through proactive(C) = 1 instead.
  explicit TokenAccount(const Strategy& strategy, Tokens initial = 0,
                        bool allow_overdraft = false,
                        RoundingMode rounding = RoundingMode::kRandomized,
                        Tokens bucket_cap = 0);

  Tokens balance() const { return balance_; }
  const Strategy& strategy() const { return *strategy_; }
  const AccountCounters& counters() const { return counters_; }

  /// One period boundary. Returns true if a proactive message must be sent
  /// now (the period's token pays for it); false means the token was banked.
  bool on_tick(util::Rng& rng);

  /// An application message arrived with the given usefulness. Returns the
  /// number of reactive messages to send; that many tokens have been
  /// deducted (never overdrawing unless allow_overdraft).
  Tokens on_message(bool useful, util::Rng& rng);

  /// Unconditionally spends up to `n` tokens outside the tick/reaction flow
  /// (used by the push-gossip rejoin pull reply, §4.1.2). Returns the number
  /// actually spent (0 if the balance is empty and overdraft is off).
  Tokens try_spend(Tokens n);

  /// Returns `n` tokens deducted by on_message() whose sends could not be
  /// performed (no online peer available). Restores the balance and the
  /// reactive-send counter; never pushes the balance above its
  /// pre-deduction value, so the capacity invariant is preserved.
  void refund_reactive(Tokens n);

  /// Returns up to `n` tokens previously taken with try_spend() (the
  /// service's refund path: a client giving back admission tokens it did
  /// not use). Accepts at most the spends still recorded in the counters,
  /// restores the balance, decrements direct_spends, and returns the amount
  /// actually accepted. Callers that must preserve a balance cap (the
  /// service's capacity invariant) clamp `n` before calling.
  Tokens refund_spend(Tokens n);

 private:
  const Strategy* strategy_;
  Tokens balance_;
  bool allow_overdraft_;
  RoundingMode rounding_;
  Tokens bucket_cap_;
  AccountCounters counters_;
};

}  // namespace toka::core
