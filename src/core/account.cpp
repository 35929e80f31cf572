#include "core/account.hpp"

#include <algorithm>

#include "core/rand_round.hpp"
#include "util/error.hpp"

namespace toka::core {

TokenAccount::TokenAccount(const Strategy& strategy, Tokens initial,
                           bool allow_overdraft, RoundingMode rounding,
                           Tokens bucket_cap)
    : strategy_(&strategy),
      balance_(initial),
      allow_overdraft_(allow_overdraft),
      rounding_(rounding),
      bucket_cap_(bucket_cap) {
  TOKA_CHECK_MSG(allow_overdraft || initial >= 0,
                 "initial balance must be non-negative, got " << initial);
  TOKA_CHECK_MSG(bucket_cap >= 0,
                 "bucket cap must be non-negative, got " << bucket_cap);
}

TickOutcome tick_balance(const Strategy& strategy, Tokens& balance,
                         Tokens bucket_cap, util::Rng& rng) {
  if (rng.bernoulli(strategy.proactive(balance))) {
    // The period's token is consumed by the proactive send; the balance is
    // unchanged (Algorithm 4 lines 4-7).
    return TickOutcome::kProactive;
  }
  // Classic bucket overflow: the token is lost.
  if (bucket_cap > 0 && balance >= bucket_cap) return TickOutcome::kOverflowed;
  ++balance;  // Algorithm 4 line 9.
  return TickOutcome::kBanked;
}

Tokens spend_balance(Tokens& balance, std::uint64_t& outstanding, Tokens n,
                     bool allow_overdraft) {
  TOKA_CHECK_MSG(n >= 0, "try_spend requires n >= 0, got " << n);
  Tokens x = n;
  if (!allow_overdraft) x = std::min(x, std::max<Tokens>(balance, 0));
  balance -= x;
  outstanding += static_cast<std::uint64_t>(x);
  return x;
}

Tokens refund_balance(Tokens& balance, std::uint64_t& outstanding, Tokens n) {
  TOKA_CHECK_MSG(n >= 0, "refund requires n >= 0, got " << n);
  const Tokens accepted = std::min(n, static_cast<Tokens>(outstanding));
  balance += accepted;
  outstanding -= static_cast<std::uint64_t>(accepted);
  return accepted;
}

bool TokenAccount::on_tick(util::Rng& rng) {
  ++counters_.ticks;
  switch (tick_balance(*strategy_, balance_, bucket_cap_, rng)) {
    case TickOutcome::kProactive:
      ++counters_.proactive_sends;
      return true;
    case TickOutcome::kOverflowed:
      ++counters_.overflowed_tokens;
      return false;
    case TickOutcome::kBanked:
      ++counters_.banked_tokens;
      return false;
  }
  return false;
}

Tokens TokenAccount::on_message(bool useful, util::Rng& rng) {
  ++counters_.messages_received;
  const double r = strategy_->reactive(balance_, useful);
  Tokens x = rounding_ == RoundingMode::kRandomized
                 ? rand_round(r, rng)
                 : static_cast<Tokens>(std::floor(r));
  if (!allow_overdraft_) {
    // The strategy contract already guarantees r <= a; the cap also absorbs
    // the +1 that randomized rounding can add at the boundary.
    x = std::min(x, std::max<Tokens>(balance_, 0));
  }
  balance_ -= x;
  counters_.reactive_sends += static_cast<std::uint64_t>(x);
  return x;
}

void TokenAccount::refund_reactive(Tokens n) {
  TOKA_CHECK_MSG(n >= 0, "refund requires n >= 0, got " << n);
  TOKA_CHECK_MSG(static_cast<std::uint64_t>(n) <= counters_.reactive_sends,
                 "refunding more reactive sends than recorded");
  balance_ += n;
  counters_.reactive_sends -= static_cast<std::uint64_t>(n);
}

Tokens TokenAccount::refund_spend(Tokens n) {
  return refund_balance(balance_, counters_.direct_spends, n);
}

Tokens TokenAccount::try_spend(Tokens n) {
  return spend_balance(balance_, counters_.direct_spends, n, allow_overdraft_);
}

}  // namespace toka::core
