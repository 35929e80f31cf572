#include "core/rate_limit.hpp"

#include <algorithm>
#include <map>
#include <sstream>

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

BurstWatchdog::Bound BurstWatchdog::Bound::checked(TimeUs delta,
                                                   Tokens capacity,
                                                   std::size_t window) {
  TOKA_CHECK_MSG(delta > 0, "period must be positive, got " << delta);
  TOKA_CHECK_MSG(capacity >= 0,
                 "capacity must be non-negative, got " << capacity);
  TOKA_CHECK_MSG(window >= 1 && window <= kMaxWindow,
                 "window must lie in [1, " << kMaxWindow << "], got "
                                           << window);
  return Bound{delta, capacity, window};
}

BurstWatchdog::Sweep BurstWatchdog::record(const Bound& bound, TimeUs t,
                                           Tokens n) {
  if (n <= 0) return {};
  // Coalesce same-instant grants into one record: the window sweep then
  // scales with distinct timestamps, and a burst at one instant (legal up
  // to C+1) costs one slot, not C.
  if (size_ > 0 && t <= at(size_ - 1).t) {
    at(size_ - 1).count += n;  // an earlier t clamps forward, like settle()
  } else if (size_ == bound.window) {
    ring_[head_] = Grant{t, n};
    head_ = static_cast<std::uint8_t>((head_ + 1) % capacity_);
  } else {
    if (size_ == capacity_)
      grow(std::min<std::size_t>(std::max(2 * capacity_, 1), bound.window));
    at(size_) = Grant{t, n};
    ++size_;
  }
  // Sweep every retained window ending now: walking newest → oldest, the
  // running sum is count(i..newest) and the anchor t_i widens the bound.
  const auto cap = static_cast<std::uint64_t>(bound.capacity);
  const TimeUs end = at(size_ - 1).t;
  std::uint64_t sum = 0;
  Sweep sweep;
  for (std::size_t back = 0; back < size_; ++back) {
    const Grant& g = at(size_ - 1 - back);
    sum += static_cast<std::uint64_t>(g.count);
    const std::uint64_t limit =
        static_cast<std::uint64_t>((end - g.t) / bound.delta) + 1 + cap;
    ++sweep.checks;
    if (sum > limit) ++sweep.violations;
  }
  return sweep;
}

void BurstWatchdog::grow(std::size_t capacity) {
  Grant* const fresh = new Grant[capacity];
  std::copy(ring_, ring_ + size_, fresh);
  delete[] ring_;
  ring_ = fresh;
  capacity_ = static_cast<std::uint8_t>(capacity);
}

void BurstWatchdog::retract(Tokens n) {
  while (n > 0 && size_ > 0) {
    Grant& newest = at(size_ - 1);
    const Tokens take = std::min(newest.count, n);
    newest.count -= take;
    n -= take;
    if (newest.count == 0) --size_;
  }
}

void BurstWatchdog::release() {
  delete[] ring_;
  *this = BurstWatchdog{};
}

std::uint64_t RateLimitAuditor::max_in_window(TimeUs window) const {
  TOKA_CHECK(window >= 0);
  std::uint64_t best = 0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < sends_.size(); ++hi) {
    while (sends_[hi] - sends_[lo] > window) ++lo;
    best = std::max(best, static_cast<std::uint64_t>(hi - lo + 1));
  }
  return best;
}

std::vector<std::string> keyed_burst_violations(std::vector<KeyedGrant> grants,
                                                TimeUs delta, Tokens capacity,
                                                TimeUs run_us) {
  std::stable_sort(grants.begin(), grants.end(),
                   [](const KeyedGrant& a, const KeyedGrant& b) {
                     return a.at_us < b.at_us;
                   });
  std::map<std::uint64_t, RateLimitAuditor> audits;
  std::map<std::uint64_t, Tokens> totals;
  for (const KeyedGrant& g : grants) {
    auto it = audits.try_emplace(g.key, delta, capacity).first;
    for (Tokens i = 0; i < g.tokens; ++i) it->second.record(g.at_us);
    totals[g.key] += g.tokens;
  }
  const Tokens earnable = run_us / delta + 1 + capacity;
  std::vector<std::string> out;
  for (const auto& [key, audit] : audits) {
    std::ostringstream os;
    if (const auto violation = audit.first_violation()) {
      os << "key " << key << ": " << violation->describe();
    } else if (totals[key] > earnable) {
      os << "key " << key << " was granted " << totals[key]
         << " tokens, at most " << earnable << " were earnable";
    } else {
      continue;
    }
    out.push_back(os.str());
  }
  return out;
}

}  // namespace toka::core
