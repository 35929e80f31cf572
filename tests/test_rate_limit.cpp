#include "core/rate_limit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
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

TEST(RateLimitAuditor, MaxInWindow) {
  RateLimitAuditor auditor(kDelta, 10);
  for (TimeUs t : {0, 100, 200, 5000, 5100}) auditor.record(t);
  EXPECT_EQ(auditor.max_in_window(250), 3u);
  EXPECT_EQ(auditor.max_in_window(10'000), 5u);
  EXPECT_EQ(auditor.max_in_window(0), 1u);
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

// ------------------------------------------------- online burst watchdog

/// A watchdog bound to one §3.4 bound, with running totals of what its
/// records checked. It releases the ring at scope exit, as a store of
/// watchdogs does when it drops one.
class AuditedWatchdog {
 public:
  explicit AuditedWatchdog(TimeUs delta, Tokens capacity,
                           std::size_t window = 32)
      : bound_(BurstWatchdog::Bound::checked(delta, capacity, window)) {}
  ~AuditedWatchdog() { wd_.release(); }
  AuditedWatchdog(const AuditedWatchdog&) = delete;
  AuditedWatchdog& operator=(const AuditedWatchdog&) = delete;

  /// Records `n` grants at t; returns how many windows violated.
  std::uint64_t record(TimeUs t, Tokens n) {
    const BurstWatchdog::Sweep sweep = wd_.record(bound_, t, n);
    checks_ += sweep.checks;
    violations_ += sweep.violations;
    return sweep.violations;
  }
  void retract(Tokens n) { wd_.retract(n); }

  std::uint64_t checks() const { return checks_; }
  std::uint64_t violations() const { return violations_; }
  std::size_t ring_capacity() const { return wd_.ring_capacity(); }

 private:
  BurstWatchdog::Bound bound_;
  BurstWatchdog wd_;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
};

TEST(BurstWatchdog, PeriodicGrantsCheckCleanly) {
  AuditedWatchdog wd(kDelta, 3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(wd.record(i * kDelta, 1), 0u);
  EXPECT_GT(wd.checks(), 0u);
  EXPECT_EQ(wd.violations(), 0u);
}

TEST(BurstWatchdog, InstantBurstLegalUpToCapacityPlusOne) {
  // A single-instant window [t, t] bounds grants at 0/Δ + 1 + C.
  constexpr Tokens kCap = 5;
  AuditedWatchdog ok(kDelta, kCap);
  EXPECT_EQ(ok.record(1000, kCap + 1), 0u);
  EXPECT_EQ(ok.violations(), 0u);

  AuditedWatchdog bad(kDelta, kCap);
  EXPECT_EQ(bad.record(1000, kCap + 2), 1u);
  EXPECT_EQ(bad.violations(), 1u);
}

TEST(BurstWatchdog, SustainedOverRateViolatesWideWindows) {
  // 2 grants per period against capacity 3: short windows pass, but once
  // the window is long enough the (t_j-t_i)/Δ + 1 + C bound must break.
  AuditedWatchdog wd(kDelta, 3);
  for (int i = 0; i < 20; ++i) wd.record(i * kDelta / 2, 1);
  EXPECT_GT(wd.violations(), 0u);
}

TEST(BurstWatchdog, ChecksScaleWithRetainedTimestamps) {
  // Every record() sweeps all retained send-anchored windows, so the
  // check counter grows ~quadratically until the ring caps retention.
  AuditedWatchdog wd(kDelta, 0, /*window=*/4);
  for (int i = 0; i < 10; ++i) wd.record(i * kDelta, 1);
  // First 4 records check 1+2+3+4 windows; the remaining 6 check 4 each.
  EXPECT_EQ(wd.checks(), 1u + 2u + 3u + 4u + 6u * 4u);
  EXPECT_EQ(wd.violations(), 0u);
}

TEST(BurstWatchdog, RetractForgivesTheRefundedGrants) {
  constexpr Tokens kCap = 2;
  AuditedWatchdog wd(kDelta, kCap);
  EXPECT_EQ(wd.record(1000, kCap + 1), 0u);  // at the single-instant bound
  wd.retract(2);  // refund: those grants never counted
  // Re-granting what was refunded stays within the same window's bound.
  EXPECT_EQ(wd.record(1000, 2), 0u);
  EXPECT_EQ(wd.violations(), 0u);
  // Without the retract the identical extra grant violates.
  AuditedWatchdog unforgiven(kDelta, kCap);
  unforgiven.record(1000, kCap + 1);
  EXPECT_EQ(unforgiven.record(1000, 2), 1u);
}

TEST(BurstWatchdog, SameInstantGrantsCoalesceIntoOneSlot) {
  // C grants at one instant must cost one ring slot, not C: a tiny ring
  // still audits the whole burst window.
  AuditedWatchdog wd(kDelta, 4, /*window=*/2);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(wd.record(1000, 1), 0u);
  EXPECT_EQ(wd.record(1000, 1), 1u);  // 6th grant at [t,t]: over 1 + C
  EXPECT_EQ(wd.ring_capacity(), 1u);
}

TEST(BurstWatchdog, NonMonotoneTimestampsClampForward) {
  // Like settle(), the watchdog clamps a backwards clock to the newest
  // retained timestamp instead of corrupting window arithmetic.
  AuditedWatchdog wd(kDelta, 1);
  wd.record(5 * kDelta, 1);
  EXPECT_EQ(wd.record(3 * kDelta, 1), 0u);  // coalesces at t = 5Δ
  EXPECT_EQ(wd.record(3 * kDelta, 1), 1u);  // third same-instant grant
}

TEST(BurstWatchdog, RingGrowsByDoublingUpToTheWindow) {
  // No storage before the first grant; after it the ring doubles only when
  // a new distinct timestamp finds it full, and stops at the window.
  AuditedWatchdog wd(kDelta, 20, /*window=*/32);
  EXPECT_EQ(wd.ring_capacity(), 0u);
  EXPECT_EQ(wd.record(0, 0), 0u);  // no grant, no ring
  EXPECT_EQ(wd.ring_capacity(), 0u);
  const std::size_t expected[] = {1, 2, 4, 4, 8, 8, 8, 8, 16};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    wd.record(static_cast<TimeUs>(i) * kDelta, 1);
    wd.record(static_cast<TimeUs>(i) * kDelta, 1);  // same instant
    EXPECT_EQ(wd.ring_capacity(), expected[i]) << "after " << i + 1;
  }
  for (TimeUs i = 9; i < 100; ++i) wd.record(i * kDelta, 1);
  EXPECT_EQ(wd.ring_capacity(), 32u);
  EXPECT_EQ(wd.violations(), 0u);
}

TEST(BurstWatchdog, ReleaseLeavesTheEmptyWatchdog) {
  BurstWatchdog wd;
  const BurstWatchdog::Bound bound = BurstWatchdog::Bound::checked(kDelta, 1);
  for (TimeUs i = 0; i < 5; ++i) wd.record(bound, i * kDelta, 1);
  EXPECT_EQ(wd.ring_capacity(), 8u);
  wd.release();
  EXPECT_EQ(wd.ring_capacity(), 0u);
  // Empty again: the next grant starts a one-record ring and one window.
  EXPECT_EQ(wd.record(bound, 10 * kDelta, 2).checks, 1u);
  EXPECT_EQ(wd.ring_capacity(), 1u);
  wd.release();
}

TEST(BurstWatchdog, BoundRejectsBadValues) {
  using Bound = BurstWatchdog::Bound;
  EXPECT_THROW(Bound::checked(0, 1), util::InvariantError);
  EXPECT_THROW(Bound::checked(kDelta, -1), util::InvariantError);
  EXPECT_THROW(Bound::checked(kDelta, 1, 0), util::InvariantError);
  EXPECT_THROW(Bound::checked(kDelta, 1, Bound::kMaxWindow + 1),
               util::InvariantError);
  const Bound ok = Bound::checked(kDelta, 1, Bound::kMaxWindow);
  EXPECT_EQ(ok.window, Bound::kMaxWindow);
}

/// The watchdog as it was before its ring grew on demand: Δ, C and a ring
/// of `window` records allocated up front, with running totals. Kept as
/// the reference the on-demand ring must match record for record.
class FixedRingWatchdog {
 public:
  FixedRingWatchdog(TimeUs delta, Tokens capacity, std::size_t window)
      : delta_(delta), capacity_(capacity), ring_(window) {}

  std::uint64_t record(TimeUs t, Tokens n) {
    if (n <= 0) return 0;
    if (size_ > 0) {
      Grant& newest = ring_[(head_ + size_ - 1) % ring_.size()];
      if (t < newest.t) t = newest.t;
      if (t == newest.t) {
        newest.count += n;
      } else if (size_ == ring_.size()) {
        ring_[head_] = Grant{t, n};
        head_ = (head_ + 1) % ring_.size();
      } else {
        ring_[(head_ + size_) % ring_.size()] = Grant{t, n};
        ++size_;
      }
    } else {
      ring_[head_] = Grant{t, n};
      size_ = 1;
    }
    const auto cap = static_cast<std::uint64_t>(capacity_);
    const TimeUs end = ring_[(head_ + size_ - 1) % ring_.size()].t;
    std::uint64_t sum = 0;
    std::uint64_t bad = 0;
    for (std::size_t back = 0; back < size_; ++back) {
      const Grant& g = ring_[(head_ + size_ - 1 - back) % ring_.size()];
      sum += static_cast<std::uint64_t>(g.count);
      const std::uint64_t bound =
          static_cast<std::uint64_t>((end - g.t) / delta_) + 1 + cap;
      ++checks_;
      if (sum > bound) ++bad;
    }
    return bad;
  }

  void retract(Tokens n) {
    while (n > 0 && size_ > 0) {
      Grant& newest = ring_[(head_ + size_ - 1) % ring_.size()];
      const Tokens take = std::min(newest.count, n);
      newest.count -= take;
      n -= take;
      if (newest.count == 0) --size_;
    }
  }

  std::uint64_t checks() const { return checks_; }

 private:
  struct Grant {
    TimeUs t = 0;
    Tokens count = 0;
  };

  TimeUs delta_;
  Tokens capacity_;
  std::vector<Grant> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t checks_ = 0;
};

TEST(BurstWatchdog, MatchesTheFixedRingOnRandomStreams) {
  // Seeded streams mixing same-instant grants, clocks that step back, and
  // retracts larger than the newest record (or the whole ring), against
  // small Δ so that bursts do break the bound.
  constexpr TimeUs kStreamDelta = 10;
  std::uint64_t violations = 0;
  for (const std::size_t window : {std::size_t{2}, std::size_t{4},
                                   std::size_t{32}}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      util::Rng rng(seed * 1000 + window);
      const Tokens cap = rng.range(0, 4);
      FixedRingWatchdog reference(kStreamDelta, cap, window);
      AuditedWatchdog wd(kStreamDelta, cap, window);
      std::set<TimeUs> distinct;
      TimeUs t = 0;
      for (int step = 0; step < 400; ++step) {
        const std::int64_t roll = rng.range(0, 99);
        if (roll < 25) {
          const Tokens n = rng.range(0, 3 * cap + 6);
          reference.retract(n);
          wd.retract(n);
          continue;
        }
        if (roll < 45) {
          // same instant
        } else if (roll < 55) {
          t = std::max<TimeUs>(t - rng.range(1, 3 * kStreamDelta), 0);
        } else {
          t += rng.range(1, 2 * kStreamDelta);
        }
        const Tokens n = rng.range(0, cap + 2);
        if (n > 0) distinct.insert(t);
        const std::uint64_t expected = reference.record(t, n);
        ASSERT_EQ(wd.record(t, n), expected)
            << "window " << window << " seed " << seed << " step " << step;
        violations += expected;
        ASSERT_EQ(wd.checks(), reference.checks())
            << "window " << window << " seed " << seed << " step " << step;
        ASSERT_LE(wd.ring_capacity(), window);
        ASSERT_LE(wd.ring_capacity(), 2 * distinct.size());
      }
    }
  }
  EXPECT_GT(violations, 0u);  // the streams reach the violating branches
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
