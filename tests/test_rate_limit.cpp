#include "core/rate_limit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "core/account.hpp"
#include "core/strategies.hpp"
#include "net/graph.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace toka::core {
namespace {

constexpr TimeUs kDelta = 1'000'000;  // 1 s period for readability

TEST(RateLimitAuditor, AcceptsPeriodicSends) {
  RateLimitAuditor auditor(kDelta, 0);
  for (int i = 0; i < 100; ++i) auditor.record(i * kDelta);
  EXPECT_FALSE(auditor.first_violation().has_value());
}

TEST(RateLimitAuditor, AcceptsBurstUpToCapacity) {
  // C tokens can be burnt at one instant on top of the tick send.
  constexpr Tokens kCap = 5;
  RateLimitAuditor auditor(kDelta, kCap);
  for (int i = 0; i < kCap + 1; ++i) auditor.record(1000);
  EXPECT_FALSE(auditor.first_violation().has_value());
}

TEST(RateLimitAuditor, RejectsBurstBeyondCapacity) {
  constexpr Tokens kCap = 5;
  RateLimitAuditor auditor(kDelta, kCap);
  for (int i = 0; i < kCap + 2; ++i) auditor.record(1000);
  const auto violation = auditor.first_violation();
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->sends, static_cast<std::uint64_t>(kCap) + 2);
  EXPECT_EQ(violation->bound, static_cast<std::uint64_t>(kCap) + 1);
  EXPECT_FALSE(violation->describe().empty());
}

TEST(RateLimitAuditor, RejectsSustainedOverRate) {
  // 2 sends per period with capacity 3 must eventually violate.
  RateLimitAuditor auditor(kDelta, 3);
  for (int i = 0; i < 20; ++i) auditor.record(i * kDelta / 2);
  EXPECT_TRUE(auditor.first_violation().has_value());
}

TEST(RateLimitAuditor, WindowBoundScalesWithLength) {
  // ~1 send per period plus a C-burst at the end stays legal.
  constexpr Tokens kCap = 4;
  RateLimitAuditor auditor(kDelta, kCap);
  for (int i = 0; i < 10; ++i) auditor.record(i * kDelta);
  for (int i = 0; i < kCap; ++i) auditor.record(9 * kDelta);
  EXPECT_FALSE(auditor.first_violation().has_value());
}

TEST(RateLimitAuditor, RetractStrikesNewestRecords) {
  constexpr Tokens kCap = 5;
  RateLimitAuditor auditor(kDelta, kCap);
  for (int i = 0; i < kCap + 1; ++i) auditor.record(1000);
  auditor.record(2000);  // one too many for the [1000, 2000] window
  ASSERT_TRUE(auditor.first_violation().has_value());
  // Refunding (retracting) the newest admission restores legality, and the
  // trace can keep growing afterwards with earlier timestamps intact.
  auditor.retract(1);
  EXPECT_EQ(auditor.send_count(), static_cast<std::size_t>(kCap) + 1);
  EXPECT_FALSE(auditor.first_violation().has_value());
  auditor.record(kDelta + 1000);
  EXPECT_FALSE(auditor.first_violation().has_value());
  EXPECT_THROW(auditor.retract(100), util::InvariantError);
}

TEST(RateLimitAuditor, RequiresMonotoneTimestamps) {
  RateLimitAuditor auditor(kDelta, 1);
  auditor.record(100);
  EXPECT_THROW(auditor.record(50), util::InvariantError);
}

TEST(RateLimitAuditor, RejectsBadConstruction) {
  EXPECT_THROW(RateLimitAuditor(0, 1), util::InvariantError);
  EXPECT_THROW(RateLimitAuditor(kDelta, -1), util::InvariantError);
}

// ---------------------------------------------------------------------------
// The paper's §3.4 guarantee as an executable property: an adversarial
// message flood against a real TokenAccount can never produce a send trace
// that violates ceil(t/Δ)+C, for any shipped bounded strategy.

struct FloodParam {
  StrategyKind kind;
  Tokens a;
  Tokens c;
};

class BurstBound : public testing::TestWithParam<FloodParam> {};

TEST_P(BurstBound, HoldsUnderAdversarialFlood) {
  const FloodParam& p = GetParam();
  StrategyConfig cfg;
  cfg.kind = p.kind;
  cfg.a_param = p.a;
  cfg.c_param = p.c;
  const auto strategy = make_strategy(cfg);
  TokenAccount account(*strategy);
  RateLimitAuditor auditor(kDelta, strategy->capacity());
  util::Rng rng(1234);
  util::Rng workload(99);

  TimeUs now = 0;
  TimeUs next_tick = kDelta;
  for (int step = 0; step < 5000; ++step) {
    // Adversary: bursts of useful messages between ticks, concentrated
    // right after the account has had time to fill.
    now += workload.bernoulli(0.2) ? kDelta / 3 : 1;
    while (now >= next_tick) {
      if (account.on_tick(rng)) auditor.record(next_tick);
      next_tick += kDelta;
    }
    const Tokens x = account.on_message(true, rng);
    for (Tokens i = 0; i < x; ++i) auditor.record(now);
  }
  const auto violation = auditor.first_violation();
  EXPECT_FALSE(violation.has_value())
      << violation->describe() << " for " << strategy->name();
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, BurstBound,
    testing::Values(FloodParam{StrategyKind::kSimple, 1, 0},
                    FloodParam{StrategyKind::kSimple, 1, 1},
                    FloodParam{StrategyKind::kSimple, 1, 10},
                    FloodParam{StrategyKind::kGeneralized, 1, 5},
                    FloodParam{StrategyKind::kGeneralized, 5, 10},
                    FloodParam{StrategyKind::kGeneralized, 10, 10},
                    FloodParam{StrategyKind::kRandomized, 1, 5},
                    FloodParam{StrategyKind::kRandomized, 5, 10},
                    FloodParam{StrategyKind::kRandomized, 10, 20},
                    FloodParam{StrategyKind::kProactive, 1, 0}),
    [](const testing::TestParamInfo<FloodParam>& info) {
      return to_string(info.param.kind) + "_A" +
             std::to_string(info.param.a) + "_C" +
             std::to_string(info.param.c);
    });

// ---------------------------------------------------------------------------
// End-to-end audit: a full Simulator run over a random overlay — ticks,
// reactive cascades, randomized rounding and all — must keep every node's
// send trace within the §3.4 bound. This is the engine-level counterpart of
// the adversarial flood above, and exercises the drop-the-token-when-no-peer
// decision documented in DESIGN.md (banking those tokens would break it).

struct AuditBody {};

class EchoLogic final : public sim::NodeLogic<AuditBody> {
 public:
  AuditBody create_message(NodeId, sim::Simulator<AuditBody>&) override {
    return {};
  }
  bool update_state(NodeId, const sim::Arrival<AuditBody>&,
                    sim::Simulator<AuditBody>&) override {
    return true;  // every message is useful: maximal reactive pressure
  }
};

TEST(RateLimitAuditor, SimulatorRunObeysBurstBoundPerNode) {
  util::Rng graph_rng(3);
  const auto g = net::random_k_out(30, 4, graph_rng);

  sim::SimConfig cfg;
  cfg.timing.delta = kDelta;
  cfg.timing.transfer = kDelta / 100;
  cfg.timing.horizon = 100 * kDelta;
  cfg.strategy.kind = StrategyKind::kRandomized;
  cfg.strategy.a_param = 3;
  cfg.strategy.c_param = 12;
  cfg.seed = 7;

  EchoLogic logic;
  sim::Simulator<AuditBody> sim(g, logic, cfg);

  const auto strategy = make_strategy(cfg.strategy);
  std::vector<RateLimitAuditor> auditors(
      g.node_count(), RateLimitAuditor(kDelta, strategy->capacity()));
  sim.set_send_observer(
      [&](NodeId from, TimeUs at) { auditors[from].record(at); });
  sim.run();

  ASSERT_GT(sim.counters().data_messages_sent, 0u);
  std::size_t audited_sends = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto violation = auditors[v].first_violation();
    EXPECT_FALSE(violation.has_value())
        << "node " << v << ": " << violation->describe();
    audited_sends += auditors[v].send_count();
  }
  EXPECT_EQ(audited_sends, sim.counters().data_messages_sent);
}

// ------------------------------------------------------ online burst check

/// A check bound to one §3.4 bound, counting the violations its records
/// reported.
class CountedCheck {
 public:
  CountedCheck(TimeUs delta, Tokens capacity)
      : delta_(delta), capacity_(capacity) {}

  /// Records `n` grants at t; returns whether they broke the bound.
  bool record(TimeUs t, Tokens n) {
    const bool over = check_.record(delta_, capacity_, t, n);
    violations_ += over ? 1 : 0;
    return over;
  }
  void retract(Tokens n) { check_.retract(delta_, n); }

  std::uint64_t violations() const { return violations_; }

 private:
  TimeUs delta_;
  Tokens capacity_;
  BurstCheck check_;
  std::uint64_t violations_ = 0;
};

TEST(BurstCheck, PeriodicGrantsCheckCleanly) {
  CountedCheck check(kDelta, 3);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(check.record(i * kDelta, 1));
  EXPECT_EQ(check.violations(), 0u);
}

TEST(BurstCheck, InstantBurstLegalUpToCapacityPlusOne) {
  // A single-instant window [t, t] bounds grants at 0/Δ + 1 + C.
  constexpr Tokens kCap = 5;
  CountedCheck ok(kDelta, kCap);
  EXPECT_FALSE(ok.record(1000, kCap + 1));

  CountedCheck bad(kDelta, kCap);
  EXPECT_TRUE(bad.record(1000, kCap + 2));
  EXPECT_EQ(bad.violations(), 1u);
}

TEST(BurstCheck, SustainedOverRateViolatesWideWindows) {
  // 2 grants per period against capacity 3: short windows pass, but once
  // the window is long enough the (t_j-t_i)/Δ + 1 + C bound must break.
  CountedCheck check(kDelta, 3);
  for (int i = 0; i < 20; ++i) check.record(i * kDelta / 2, 1);
  EXPECT_GT(check.violations(), 0u);
}

TEST(BurstCheck, ChecksWindowsOfAnyLength) {
  // One grant every Δ - 1 with C = 1 gains a period's worth of sends only
  // after Δ grants: the first window over the bound spans 102 sends, more
  // than any bounded history of grant instants would hold.
  constexpr TimeUs kPeriod = 100;
  CountedCheck check(kPeriod, 1);
  RateLimitAuditor exhaustive(kPeriod, 1);
  for (TimeUs k = 0; k <= 100; ++k) {
    EXPECT_FALSE(check.record(k * (kPeriod - 1), 1)) << "send " << k;
    exhaustive.record(k * (kPeriod - 1));
  }
  EXPECT_FALSE(exhaustive.first_violation().has_value());
  EXPECT_TRUE(check.record(101 * (kPeriod - 1), 1));
  exhaustive.record(101 * (kPeriod - 1));
  const auto violation = exhaustive.first_violation();
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->sends, 102u);
}

TEST(BurstCheck, RetractForgivesTheRefundedGrants) {
  constexpr Tokens kCap = 2;
  CountedCheck check(kDelta, kCap);
  EXPECT_FALSE(check.record(1000, kCap + 1));  // at the single-instant bound
  check.retract(2);  // refund: those grants never counted
  // Re-granting what was refunded stays within the same window's bound.
  EXPECT_FALSE(check.record(1000, 2));
  EXPECT_EQ(check.violations(), 0u);
  // Without the retract the identical extra grant violates.
  CountedCheck unforgiven(kDelta, kCap);
  unforgiven.record(1000, kCap + 1);
  EXPECT_TRUE(unforgiven.record(1000, 2));
}

TEST(BurstCheck, SameInstantGrantsAddUp) {
  // C + 1 one-token grants at one instant are legal, one more is not,
  // whether they arrive as one record or as many.
  CountedCheck check(kDelta, 4);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(check.record(1000, 1));
  EXPECT_TRUE(check.record(1000, 1));  // 6th grant at [t,t]: over 1 + C
}

TEST(BurstCheck, NonMonotoneTimestampsClampForward) {
  // Like settle(), the check clamps a backwards clock to the newest grant
  // time instead of corrupting window arithmetic.
  CountedCheck check(kDelta, 1);
  check.record(5 * kDelta, 1);
  EXPECT_FALSE(check.record(3 * kDelta, 1));  // counts at t = 5Δ
  EXPECT_TRUE(check.record(3 * kDelta, 1));   // third same-instant grant
}

TEST(BurstCheck, SaturatesInsteadOfOverflowing) {
  // Δ and C come from outside the program: a period so long that nΔ
  // overflows must still flag the burst rather than wrap around.
  constexpr TimeUs kHuge = std::numeric_limits<TimeUs>::max() / 4;
  CountedCheck check(kHuge, 2);
  EXPECT_FALSE(check.record(0, 3));
  EXPECT_TRUE(check.record(0, 1'000));
  EXPECT_TRUE(check.record(1, 1));
}

TEST(BurstCheck, MatchesTheExhaustiveScanOnRandomStreams) {
  // Seeded streams over Δ 1-50 and C 0-5, mixing same-instant bursts and
  // newest-first retracts, in a mostly conforming regime (a grant per 4Δ/3
  // on average) and a mostly violating one (twelve per Δ). Every record's
  // verdict must be the exhaustive scan's: is there a window ending at the
  // newest send over the bound? A record the check flags is then retracted
  // from both, as a limiter would refuse it, so the trace before each
  // record holds no violation and the scan can only find one ending at it.
  std::uint64_t verdicts[2][2] = {};  // [violating regime][flagged]
  for (std::uint64_t stream = 0; stream < 10000; ++stream) {
    util::Rng rng(stream + 1);
    const TimeUs delta = rng.range(1, 50);
    const Tokens cap = rng.range(0, 5);
    const bool violating = stream % 2 == 1;
    BurstCheck check;
    RateLimitAuditor exhaustive(delta, cap);
    TimeUs t = 0;
    for (int step = 0; step < 60; ++step) {
      const auto held = static_cast<std::int64_t>(exhaustive.send_count());
      if (held > 0 && rng.below(5) == 0) {
        const Tokens n = rng.range(1, held);
        exhaustive.retract(static_cast<std::size_t>(n));
        check.retract(delta, n);
        continue;
      }
      const Tokens n =
          violating ? rng.range(1, cap + 2) : rng.range(0, cap + 1);
      if (rng.below(3) != 0) {  // otherwise the same instant
        const TimeUs spread = std::max<Tokens>(n, 1) * delta;
        t += violating ? rng.range(0, spread / 4) : rng.range(0, 4 * spread);
      }
      for (Tokens i = 0; i < n; ++i) exhaustive.record(t);
      const bool flagged = check.record(delta, cap, t, n);
      ASSERT_EQ(flagged, exhaustive.first_violation().has_value())
          << "stream " << stream << " step " << step << " (Δ=" << delta
          << ", C=" << cap << ", t=" << t << ", n=" << n << ")";
      ++verdicts[violating][flagged];
      if (flagged) {
        exhaustive.retract(static_cast<std::size_t>(n));
        check.retract(delta, n);
      }
    }
  }
  for (const bool violating : {false, true}) {
    EXPECT_GT(verdicts[violating][false], 0u);
    EXPECT_GT(verdicts[violating][true], 0u);
  }
  EXPECT_GT(verdicts[0][false], 4 * verdicts[0][true]);
  EXPECT_GT(verdicts[1][true], verdicts[1][false]);
}

// ------------------------------------------------- cluster-wide replay

TEST(KeyedBurstViolations, DuplicatedGrantRunIsCaught) {
  constexpr TimeUs kDelta = 1000;
  constexpr Tokens kC = 8;
  // Key 7 spends a full C-token bank at 10Δ, then one grant per tick up to
  // 20Δ — exactly at the bound; key 9 trickles one grant every other tick.
  std::vector<KeyedGrant> grants{KeyedGrant{7, 10 * kDelta, kC}};
  for (TimeUs t = 11; t <= 20; ++t)
    grants.push_back(KeyedGrant{7, t * kDelta, 1});
  for (TimeUs t = 0; t <= 30; t += 2)
    grants.push_back(KeyedGrant{9, t * kDelta, 1});
  EXPECT_TRUE(keyed_burst_violations(grants, kDelta, kC + 1, 30 * kDelta)
                  .empty());
  // A handoff or promotion that duplicated the account lets a second node
  // spend the same bank again: C extra grants on key 7, out of time order
  // (the replay sorts).
  grants.insert(grants.begin(), KeyedGrant{7, 20 * kDelta, kC});
  const std::vector<std::string> violations =
      keyed_burst_violations(grants, kDelta, kC + 1, 30 * kDelta);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("key 7"), std::string::npos) << violations[0];
}

TEST(KeyedBurstViolations, ConservationCatchesSpreadOutOvergrants) {
  // One grant per tick never breaks a window, but 31 grants are more than
  // a 10-tick run can have earned (10 + 1 + 9).
  constexpr TimeUs kDelta = 1000;
  std::vector<KeyedGrant> grants;
  for (TimeUs t = 0; t <= 30; ++t)
    grants.push_back(KeyedGrant{3, t * kDelta, 1});
  const std::vector<std::string> violations =
      keyed_burst_violations(grants, kDelta, /*capacity=*/9, 10 * kDelta);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("earnable"), std::string::npos) << violations[0];
}

}  // namespace
}  // namespace toka::core
