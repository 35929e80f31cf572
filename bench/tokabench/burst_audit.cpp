#include "burst_audit.hpp"

#include <algorithm>
#include <map>

#include "core/rate_limit.hpp"

namespace tokabench {

BurstAudit audit_grants(std::vector<GrantEvent> grants, toka::TimeUs delta_us,
                        toka::Tokens capacity, std::int64_t clock_start_us) {
  constexpr std::size_t kMaxReported = 5;
  BurstAudit out;
  std::stable_sort(grants.begin(), grants.end(),
                   [](const GrantEvent& a, const GrantEvent& b) { return a.at_us < b.at_us; });
  // Completion timestamps can compress a window by one scheduling delay,
  // worth at most one tick: capacity gets +1 slack. A duplicated handoff
  // or promotion would inject up to C extra grants and still be caught.
  std::map<std::uint64_t, toka::core::RateLimitAuditor> audits;
  std::map<std::uint64_t, toka::Tokens> totals;
  std::int64_t last_us = clock_start_us;
  for (const GrantEvent& g : grants) {
    auto it = audits.try_emplace(g.key, delta_us, capacity + 1).first;
    for (toka::Tokens i = 0; i < g.granted; ++i) it->second.record(g.at_us);
    totals[g.key] += g.granted;
    out.grants += static_cast<std::uint64_t>(g.granted);
    last_us = std::max(last_us, g.at_us);
  }
  // Whole-run conservation: with zero initial tokens every grant was
  // earned by a tick after the first clock started, wherever the key lived.
  const toka::Tokens earnable =
      static_cast<toka::Tokens>((last_us - clock_start_us) / delta_us) + 1 + capacity + 1;
  for (auto& [key, audit] : audits) {
    if (out.violations.size() >= kMaxReported) break;
    if (const auto violation = audit.first_violation()) {
      out.violations.push_back("key " + std::to_string(key) +
                               " broke the cluster-wide §3.4 bound: " +
                               violation->describe());
    } else if (totals[key] > earnable) {
      out.violations.push_back("key " + std::to_string(key) + " was granted " +
                               std::to_string(totals[key]) + " tokens, at most " +
                               std::to_string(earnable) + " were earnable");
    }
  }
  return out;
}

}  // namespace tokabench
