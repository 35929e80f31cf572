#include "core/rate_limit.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace toka::core {

std::string RateLimitViolation::describe() const {
  std::ostringstream os;
  os << "rate limit violated: " << sends << " sends in ["
     << to_seconds(window_start) << "s, " << to_seconds(window_end)
     << "s] but bound is " << bound;
  return os.str();
}

RateLimitAuditor::RateLimitAuditor(TimeUs delta, Tokens capacity)
    : delta_(delta), capacity_(capacity) {
  TOKA_CHECK_MSG(delta > 0, "period must be positive, got " << delta);
  TOKA_CHECK_MSG(capacity >= 0,
                 "capacity must be non-negative, got " << capacity);
}

void RateLimitAuditor::record(TimeUs t) {
  TOKA_CHECK_MSG(sends_.empty() || t >= sends_.back(),
                 "send timestamps must be non-decreasing");
  sends_.push_back(t);
}

void RateLimitAuditor::retract(std::size_t n) {
  TOKA_CHECK_MSG(n <= sends_.size(),
                 "retracting " << n << " of " << sends_.size() << " records");
  sends_.resize(sends_.size() - n);
}

std::optional<RateLimitViolation> RateLimitAuditor::first_violation() const {
  const auto cap = static_cast<std::uint64_t>(capacity_);
  for (std::size_t i = 0; i < sends_.size(); ++i) {
    for (std::size_t j = i; j < sends_.size(); ++j) {
      const std::uint64_t count = j - i + 1;
      const TimeUs elapsed = sends_[j] - sends_[i];
      const std::uint64_t bound =
          static_cast<std::uint64_t>(elapsed / delta_) + 1 + cap;
      if (count > bound) {
        return RateLimitViolation{sends_[i], sends_[j], count, bound};
      }
    }
  }
  return std::nullopt;
}

namespace {

/// t + nΔ, saturated: Δ and C come from outside the program, and a check
/// that keeps recording violations moves tat ever further ahead. A
/// saturated tat still flags every grant, which stays true of its trace.
TimeUs add_periods(TimeUs t, Tokens n, TimeUs delta) {
  TimeUs span = 0;
  TimeUs out = 0;
  if (__builtin_mul_overflow(n, delta, &span) ||
      __builtin_add_overflow(t, span, &out))
    return n < 0 ? std::numeric_limits<TimeUs>::min()
                 : std::numeric_limits<TimeUs>::max();
  return out;
}

}  // namespace

bool BurstCheck::record(TimeUs delta, Tokens capacity, TimeUs t, Tokens n) {
  if (n <= 0) return false;
  last_ = std::max(last_, t);
  tat_ = add_periods(std::max(tat_, last_), n, delta);
  return tat_ - last_ > add_periods(0, capacity + 1, delta);
}

void BurstCheck::retract(TimeUs delta, Tokens n) {
  tat_ = add_periods(tat_, -n, delta);
}

std::vector<std::string> keyed_burst_violations(std::vector<KeyedGrant> grants,
                                                TimeUs delta, Tokens capacity,
                                                TimeUs run_us) {
  TOKA_CHECK_MSG(delta > 0, "period must be positive, got " << delta);
  TOKA_CHECK_MSG(capacity >= 0,
                 "capacity must be non-negative, got " << capacity);
  std::sort(grants.begin(), grants.end(),
            [](const KeyedGrant& a, const KeyedGrant& b) {
              return std::pair(a.key, a.at_us) < std::pair(b.key, b.at_us);
            });
  const Tokens earnable = run_us / delta + 1 + capacity;
  std::vector<std::string> out;
  for (auto g = grants.begin(); g != grants.end();) {
    const std::uint64_t key = g->key;
    BurstCheck check;
    const KeyedGrant* over = nullptr;  // the first grant over the bound
    Tokens total = 0;
    for (; g != grants.end() && g->key == key; ++g) {
      if (check.record(delta, capacity, g->at_us, g->tokens) && over == nullptr)
        over = &*g;
      total += g->tokens;
    }
    std::ostringstream os;
    if (over != nullptr) {
      os << "key " << key << ": rate limit violated: " << over->tokens
         << " tokens granted at " << to_seconds(over->at_us)
         << "s end a window over the bound";
    } else if (total > earnable) {
      os << "key " << key << " was granted " << total << " tokens, at most "
         << earnable << " were earnable";
    } else {
      continue;
    }
    out.push_back(os.str());
  }
  return out;
}

}  // namespace toka::core
