// The client-side, cluster-wide per-key §3.4 checker: every grant the
// cluster client saw, replayed per key through core::RateLimitAuditor,
// plus whole-run conservation. With initial_tokens = 0 a duplicated token
// (a handoff or promotion that minted balance) shows up as a window or a
// total over the bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load.hpp"
#include "util/types.hpp"

namespace tokabench {

struct BurstAudit {
  std::uint64_t grants = 0;
  /// The first few violations found (empty when the bound held).
  std::vector<std::string> violations;
};

/// `delta_us` and `capacity` are the policy's Δ and C; `clock_start_us`
/// is when the first node's token clock started (steady-clock µs).
BurstAudit audit_grants(std::vector<GrantEvent> grants, toka::TimeUs delta_us,
                        toka::Tokens capacity, std::int64_t clock_start_us);

}  // namespace tokabench
