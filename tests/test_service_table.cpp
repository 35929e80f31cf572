#include "service/account_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/hash_ring.hpp"
#include "core/account.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace toka::service {
namespace {

ServiceConfig simple_config(Tokens c, TimeUs delta = 1000) {
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = delta;
  cfg.strategy.kind = core::StrategyKind::kSimple;
  cfg.strategy.c_param = c;
  return cfg;
}

TEST(CoarseClock, MonotoneAdvance) {
  CoarseClock clock;
  EXPECT_EQ(clock.now_us(), 0);
  clock.advance_to(50);
  EXPECT_EQ(clock.now_us(), 50);
  clock.advance_to(20);  // ignored: the clock never retreats
  EXPECT_EQ(clock.now_us(), 50);
  clock.advance(10);
  EXPECT_EQ(clock.now_us(), 60);
}

TEST(CoarseClock, RejectsTimesPastTheSlotField) {
  // An account slot packs its last access time into 48 bits; the clock
  // refuses to reach 2^48 us rather than let that field wrap.
  CoarseClock clock;
  clock.advance_to(CoarseClock::kLimitUs - 1);
  EXPECT_EQ(clock.now_us(), CoarseClock::kLimitUs - 1);
  EXPECT_THROW(clock.advance_to(CoarseClock::kLimitUs), util::InvariantError);
  EXPECT_THROW(clock.advance(1), util::InvariantError);
  EXPECT_THROW(clock.advance(std::numeric_limits<TimeUs>::max()),
               util::InvariantError);
  EXPECT_EQ(clock.now_us(), CoarseClock::kLimitUs - 1);
  clock.advance(0);
  EXPECT_EQ(clock.now_us(), CoarseClock::kLimitUs - 1);
}

TEST(AccountTable, RejectsUnboundedAndBadConfigs) {
  ServiceConfig cfg;
  cfg.strategy.kind = core::StrategyKind::kPureReactive;
  EXPECT_THROW(AccountTable{cfg}, util::InvariantError);

  ServiceConfig high = simple_config(5);
  high.initial_tokens = 6;  // above capacity
  EXPECT_THROW(AccountTable{high}, util::InvariantError);

  ServiceConfig zero = simple_config(5);
  zero.delta_us = 0;
  EXPECT_THROW(AccountTable{zero}, util::InvariantError);
}

TEST(AccountTable, ShardCountRoundsUpToPowerOfTwo) {
  ServiceConfig cfg = simple_config(4);
  cfg.shards = 12;
  AccountTable table(cfg);
  EXPECT_EQ(table.shard_count(), 16u);
}

TEST(AccountTable, FreshAccountStartsAtInitialBalance) {
  AccountTable table(simple_config(10));
  // Balance 0, nothing to grant yet.
  const AcquireResult res = table.acquire(42, 5);
  EXPECT_EQ(res.granted, 0);
  EXPECT_EQ(res.balance, 0);
  EXPECT_EQ(table.account_count(), 1u);

  ServiceConfig warm = simple_config(10);
  warm.initial_tokens = 3;
  AccountTable table2(warm);
  EXPECT_EQ(table2.acquire(42, 5).granted, 3);
}

TEST(AccountTable, TokensAccrueWithTheClock) {
  AccountTable table(simple_config(10, /*delta=*/1000));
  table.acquire(7, 0);  // create at tick 0
  table.clock().advance(3000);  // 3 periods elapse
  const AcquireResult res = table.acquire(7, 100);
  // The simple strategy banks every tick below C: exactly 3 tokens.
  EXPECT_EQ(res.granted, 3);
  EXPECT_EQ(res.balance, 0);
}

TEST(AccountTable, BalanceNeverExceedsCapacity) {
  AccountTable table(simple_config(10, 1000));
  table.acquire(7, 0);
  table.clock().advance(1'000'000);  // 1000 periods, far past C and the cap
  EXPECT_EQ(table.query(7).balance, 10);
  EXPECT_EQ(table.acquire(7, 1000).granted, 10);
}

TEST(AccountTable, CatchupCapForfeitsAncientTicks) {
  ServiceConfig cfg = simple_config(10, 1000);
  cfg.max_catchup_ticks = 4;
  AccountTable table(cfg);
  table.acquire(7, 0);
  table.clock().advance(100'000);  // 100 periods due, only 4 replayed
  EXPECT_EQ(table.acquire(7, 100).granted, 4);
  EXPECT_EQ(table.stats().ticks_forfeited, 96u);
}

TEST(AccountTable, RefundRestoresUpToOutstanding) {
  AccountTable table(simple_config(10, 1000));
  table.acquire(1, 0);
  table.clock().advance(5000);
  ASSERT_EQ(table.acquire(1, 5).granted, 5);

  EXPECT_EQ(table.refund(1, 3).accepted, 3);
  EXPECT_EQ(table.query(1).balance, 3);
  // Only 2 of the original 5 remain outstanding.
  const RefundResult rest = table.refund(1, 10);
  EXPECT_EQ(rest.accepted, 2);
  EXPECT_EQ(rest.balance, 5);
  EXPECT_EQ(table.stats().tokens_refund_dropped, 8u);
}

TEST(AccountTable, LateRefundCappedByCapacityHeadroom) {
  AccountTable table(simple_config(4, 1000));
  table.acquire(1, 0);
  table.clock().advance(4000);
  ASSERT_EQ(table.acquire(1, 4).granted, 4);
  // The balance refills to C while the client sits on its tokens...
  table.clock().advance(100'000);
  ASSERT_EQ(table.query(1).balance, 4);
  // ...so a late refund has no headroom and is dropped entirely.
  EXPECT_EQ(table.refund(1, 4).accepted, 0);
  EXPECT_EQ(table.query(1).balance, 4);
}

TEST(AccountTable, RefundToUnknownKeyIsDropped) {
  AccountTable table(simple_config(10));
  const RefundResult res = table.refund(999, 5);
  EXPECT_EQ(res.accepted, 0);
  EXPECT_EQ(table.account_count(), 0u);
  EXPECT_EQ(table.stats().tokens_refund_dropped, 5u);
}

TEST(AccountTable, RefundsToUnknownAccountsCountAsDroppedEvents) {
  // Regression: refunds addressed to keys the table does not hold used to
  // vanish silently (only the token-weighted counter moved). Each such
  // call now also bumps the refunds_dropped *event* counter the telemetry
  // exports — both for a key that never existed and for one that was
  // evicted out from under an in-flight refund.
  ServiceConfig cfg = simple_config(10, 1000);
  cfg.idle_ttl_us = 5'000;
  AccountTable table(cfg);

  EXPECT_EQ(table.refund(999, 3).accepted, 0);
  EXPECT_EQ(table.stats().refunds_dropped, 1u);

  table.acquire(1, 0);             // created broke (balance 0)
  table.clock().advance(10'000);   // idle past the TTL with nothing banked
  ASSERT_EQ(table.evict_idle(), 1u);
  EXPECT_EQ(table.refund(1, 2).accepted, 0);  // the late refund
  EXPECT_EQ(table.stats().refunds_dropped, 2u);
  // The token-weighted view still advances alongside the event count.
  EXPECT_EQ(table.stats().tokens_refund_dropped, 5u);
  // Accepted refunds never touch the event counter.
  table.acquire(2, 0);
  table.clock().advance(3'000);
  ASSERT_EQ(table.acquire(2, 3).granted, 3);
  EXPECT_EQ(table.refund(2, 1).accepted, 1);
  EXPECT_EQ(table.stats().refunds_dropped, 2u);
}

TEST(AccountTable, EvictionSparesBankedBalancesUntilTwiceTtl) {
  // Regression: evict_idle used to drop an idle account at the TTL even
  // with tokens still banked, destroying the balance (and stranding any
  // refund racing in) the moment traffic paused. A nonzero balance now
  // buys a grace window: eviction waits for 2x the TTL.
  ServiceConfig cfg = simple_config(10, 1000);
  cfg.idle_ttl_us = 10'000;
  AccountTable table(cfg);
  table.acquire(1, 0);  // will go idle holding tokens
  table.acquire(2, 0);  // will go idle broke
  table.clock().advance(5'000);
  table.acquire(1, 0);  // settle: key 1 banks 5 tokens, last access t=5ms

  table.clock().advance(10'000);  // key 1 idle == TTL, key 2 idle 15ms
  EXPECT_EQ(table.evict_idle(), 1u);  // only the zero-balance account goes
  EXPECT_FALSE(table.query(2).exists);
  EXPECT_TRUE(table.query(1).exists);

  table.clock().advance(20'000);  // key 1 idle reaches 2x TTL
  EXPECT_EQ(table.evict_idle(), 1u);  // banked or not, it goes now
  EXPECT_FALSE(table.query(1).exists);
  EXPECT_EQ(table.stats().accounts_evicted, 2u);
}

TEST(AccountTable, QueryDoesNotCreateAccounts) {
  AccountTable table(simple_config(10));
  const QueryResult res = table.query(123);
  EXPECT_FALSE(res.exists);
  EXPECT_EQ(res.balance, 0);
  EXPECT_EQ(table.account_count(), 0u);
}

TEST(AccountTable, NegativeAmountsRejected) {
  AccountTable table(simple_config(10));
  EXPECT_THROW(table.acquire(1, -1), util::InvariantError);
  EXPECT_THROW(table.refund(1, -1), util::InvariantError);
}

TEST(AccountTable, BatchAlignsWithOpsAndMatchesScalarSemantics) {
  AccountTable table(simple_config(10, 1000));
  table.acquire(1, 0);
  table.acquire(2, 0);
  table.clock().advance(5000);  // both accounts hold 5 tokens
  const std::vector<AcquireOp> ops{{1, 3}, {2, 4}, {1, 3}, {3, 1}};
  const std::vector<AcquireResult> res = table.acquire_batch(ops);
  ASSERT_EQ(res.size(), 4u);
  EXPECT_EQ(res[0].granted, 3);  // key 1: 5 -> 2
  EXPECT_EQ(res[1].granted, 4);  // key 2: 5 -> 1
  EXPECT_EQ(res[2].granted, 2);  // key 1 again: only 2 left
  EXPECT_EQ(res[2].balance, 0);
  EXPECT_EQ(res[3].granted, 0);  // key 3 created empty
  EXPECT_EQ(table.stats().acquires, 6u);
}

TEST(AccountTable, BatchWithANegativeOpAppliesNothing) {
  // Every op is checked before any shard is touched: the valid ops around
  // the offender are not applied either, wherever their shards sort.
  AccountTable table(simple_config(10, 1000));
  table.clock().advance(5000);
  std::vector<AcquireOp> ops;
  for (std::uint64_t key = 0; key < 32; ++key) ops.push_back({key, 2});
  ops.insert(ops.begin() + 16, AcquireOp{99, -1});
  EXPECT_THROW(table.acquire_batch(ops), util::InvariantError);
  EXPECT_EQ(table.account_count(), 0u);
  EXPECT_TRUE(table.stats() == TableStats{});
}

TEST(AccountTable, TokenBucketBackendHonoursBucketSize) {
  ServiceConfig cfg;
  cfg.shards = 4;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kTokenBucket;
  cfg.strategy.c_param = 4;
  AccountTable table(cfg);
  EXPECT_EQ(table.capacity_bound(), 4);
  table.acquire(9, 0);
  table.clock().advance(1'000'000);
  EXPECT_EQ(table.acquire(9, 100).granted, 4);  // bucket caps at 4
  // The bucket refills 1 token per period after being drained.
  table.clock().advance(2000);
  EXPECT_EQ(table.acquire(9, 100).granted, 2);
}

TEST(AccountTable, EvictionRemovesOnlyIdleAccounts) {
  ServiceConfig cfg = simple_config(10, 1000);
  cfg.idle_ttl_us = 10'000;
  AccountTable table(cfg);
  table.acquire(1, 0);
  table.clock().advance(8000);
  table.acquire(2, 0);  // key 2 is 8ms younger
  table.clock().advance(4000);  // key 1 idle 12ms > TTL, key 2 idle 4ms
  EXPECT_EQ(table.evict_idle(), 1u);
  EXPECT_FALSE(table.query(1).exists);
  EXPECT_TRUE(table.query(2).exists);
  EXPECT_EQ(table.stats().accounts_evicted, 1u);
}

TEST(AccountTable, EvictionDisabledByDefault) {
  AccountTable table(simple_config(10));
  table.acquire(1, 0);
  table.clock().advance(duration::kDay);
  EXPECT_EQ(table.evict_idle(), 0u);
  EXPECT_TRUE(table.query(1).exists);
}

TEST(AccountTable, ProactiveTicksAreDroppedNotBanked) {
  // At a full balance the simple strategy's proactive(a)=1 fires every
  // period; the service has no message to pay for, so the token is dropped
  // and the balance stays pinned at C.
  AccountTable table(simple_config(5, 1000));
  table.acquire(1, 0);
  table.clock().advance(20'000);
  EXPECT_EQ(table.query(1).balance, 5);
  EXPECT_GT(table.stats().proactive_dropped, 0u);
}

TEST(AccountTable, StatsAggregateAcrossShards) {
  AccountTable table(simple_config(10));
  for (std::uint64_t key = 0; key < 100; ++key) table.acquire(key, 1);
  const TableStats stats = table.stats();
  EXPECT_EQ(stats.accounts, 100u);
  EXPECT_EQ(stats.accounts_created, 100u);
  EXPECT_EQ(stats.acquires, 100u);
  EXPECT_EQ(stats.tokens_requested, 100u);
}

TEST(AccountTable, RingNodeKeysSpreadEvenlyOverStoreHomes) {
  // A cluster node holds only the keys of the HashRing arcs it owns, and a
  // key's ring point is its account hash. Were the store homes the top
  // bits of that hash too, a node's keys would crowd the same arcs of
  // every shard's array and spill long probe runs past them. A store hash's
  // top 4 bits place its home in one of 16 equal stretches of any array;
  // the keys node 0 of a 3-node ring owns must fill each stretch to within
  // 25% of an even share.
  const std::vector<NodeId> nodes{0, 1, 2};
  const cluster::HashRing ring(std::span<const NodeId>(nodes),
                               cluster::kDefaultVnodes);
  AccountTable table(simple_config(4));
  std::vector<AcquireOp> ops;
  std::array<std::size_t, 16> stretches{};
  for (std::uint64_t key = 0; ops.size() < 32'768; ++key) {
    if (ring.owner(kDefaultNamespace, key) != 0) continue;
    ops.push_back(AcquireOp{key, 0});
    ++stretches[AccountTable::store_hash(kDefaultNamespace, key) >> 60];
  }
  table.acquire_batch(ops);
  ASSERT_EQ(table.account_count(), ops.size());
  const double even = static_cast<double>(ops.size()) / 16;
  for (std::size_t i = 0; i < stretches.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(stretches[i]), even, even / 4)
        << "stretch " << i;
  }
}

TEST(AccountTable, WatchdogAuditsGrantsAndRefundsCleanly) {
  // The online §3.4 watchdog shadows sampled keys' grants; a table whose
  // settle logic is correct can never trip it, refunds included.
  ServiceConfig cfg = simple_config(10, 1000);
  cfg.watchdog_sample = 1;  // audit every key
  AccountTable table(cfg);
  table.acquire(7, 0);
  for (int i = 0; i < 100; ++i) {
    table.clock().advance(1000);
    EXPECT_EQ(table.acquire(7, 1).granted, 1);
  }
  EXPECT_EQ(table.stats().watchdog_checks, 100u);  // one check per grant
  EXPECT_EQ(table.stats().watchdog_violations, 0u);

  // A refund retracts the newest audited grants; re-granting the refunded
  // tokens later must not read as a burst-bound breach.
  table.refund(7, 1);
  table.clock().advance(1000);
  table.acquire(7, 2);
  EXPECT_EQ(table.stats().watchdog_checks, 101u);
  EXPECT_EQ(table.stats().watchdog_violations, 0u);
  EXPECT_EQ(table.audit_violation(), std::nullopt);
}

// The restart tests below spend a full bank of C tokens at one instant,
// drop the account, and spend C again at the same instant from a fresh
// account. That is legal for the new account, but a check that kept the
// dropped account's history would see 2C grants at one instant, over the
// bound of 1 + C.
constexpr Tokens kBank = 10;

/// Every key checked, and a fresh account starts with a full bank.
ServiceConfig banked_config() {
  ServiceConfig cfg = simple_config(kBank, 1000);
  cfg.initial_tokens = kBank;
  cfg.watchdog_sample = 1;
  return cfg;
}

/// Spends key 7's whole bank now and expects the grant checked cleanly.
void spend_bank(AccountTable& table) {
  const TableStats before = table.stats();
  ASSERT_EQ(table.acquire(7, kBank).granted, kBank);
  EXPECT_EQ(table.stats().watchdog_checks, before.watchdog_checks + 1);
  EXPECT_EQ(table.stats().watchdog_violations, 0u);
  EXPECT_EQ(table.audit_violation(), std::nullopt);
}

TEST(AccountTable, EvictedWatchdogKeyRestartsWithAnEmptyCheck) {
  // The check lives beside the account, not in it: evicting a sampled key
  // must drop its check too, so a re-created key is checked from scratch.
  ServiceConfig cfg = banked_config();
  cfg.idle_ttl_us = 2000;  // a broke account goes after 2Δ
  AccountTable table(cfg);
  table.clock().advance(1000);
  spend_bank(table);
  table.clock().advance(2000);
  ASSERT_EQ(table.evict_idle(), 1u);
  // A kept check would still hold the old bank 8Δ ahead of now, and C
  // more grants would end 18Δ ahead, over (C+1)Δ.
  spend_bank(table);
}

TEST(AccountTable, ExtractedWatchdogKeyRestartsWithAnEmptyCheck) {
  // Extraction is an erase path too: a key handed off and later installed
  // (or re-created) here again must not inherit the check it left with.
  AccountTable table(banked_config());
  table.clock().advance(1000);
  spend_bank(table);
  ASSERT_EQ(table.extract_if([](NamespaceId, std::uint64_t) { return true; })
                .size(),
            1u);
  ASSERT_TRUE(table.install_account(kDefaultNamespace, 7, kBank));
  spend_bank(table);

  // Extracted and re-created by a plain acquire: an empty check as well.
  ASSERT_EQ(table.extract_if([](NamespaceId, std::uint64_t) { return true; })
                .size(),
            1u);
  spend_bank(table);
}

TEST(AccountTable, ResetNamespaceRestartsItsWatchdogChecks) {
  // Reconfiguring a namespace purges its accounts; their checks go with
  // them, so the keys are checked from scratch under the new policy.
  const ServiceConfig cfg = banked_config();
  AccountTable table(cfg);
  table.clock().advance(1000);
  spend_bank(table);
  EXPECT_FALSE(table.configure_namespace(kDefaultNamespace,
                                         cfg.default_namespace()));
  EXPECT_EQ(table.account_count(), 0u);
  spend_bank(table);
}

TEST(AccountTable, AuditNamespaceChecksEveryKey) {
  // An audit namespace checks every key, sampled or not, in the one
  // watchdog store: a grant per key, and none of the keys breaks the bound.
  ServiceConfig cfg = simple_config(4, 1000);
  cfg.initial_tokens = 2;
  cfg.watchdog_sample = 0;
  AccountTable table(cfg);
  NamespaceConfig audited = cfg.default_namespace();
  audited.audit = true;
  ASSERT_TRUE(table.configure_namespace(1, audited));
  for (std::uint64_t key = 0; key < 50; ++key) {
    ASSERT_EQ(table.acquire(0, key, 2).granted, 2);
    ASSERT_EQ(table.acquire(1, key, 2).granted, 2);
  }
  EXPECT_EQ(table.stats(0).watchdog_checks, 0u);
  EXPECT_EQ(table.stats(1).watchdog_checks, 50u);
  EXPECT_EQ(table.stats().watchdog_violations, 0u);
  EXPECT_EQ(table.audit_violation(), std::nullopt);
}

TEST(AccountTable, RejectsCapacitiesBeyondTheSlotBalance) {
  // Account slots keep balances in 31 bits; a namespace whose capacity
  // could not fit is refused up front rather than wrapped later.
  ServiceConfig cfg = simple_config(10);
  AccountTable table(cfg);
  NamespaceConfig huge;
  huge.strategy.kind = core::StrategyKind::kTokenBucket;
  huge.strategy.c_param = Tokens{1} << 31;
  EXPECT_THROW(table.configure_namespace(1, huge), util::InvariantError);
  huge.strategy.c_param = (Tokens{1} << 31) - 1;
  EXPECT_TRUE(table.configure_namespace(1, huge));
}

TEST(AccountTable, WatchdogSampleZeroDisablesAuditing) {
  ServiceConfig cfg = simple_config(10, 1000);
  cfg.watchdog_sample = 0;
  AccountTable table(cfg);
  table.acquire(7, 0);
  table.clock().advance(50'000);
  table.acquire(7, 10);
  EXPECT_EQ(table.stats().watchdog_checks, 0u);
}

// ------------------------------------------- concurrent submitters
// A table is touched by one accessor per shard; concurrency comes from
// submitter threads feeding a ShardEngine, as every server does.

/// Runs one op on `engine` and waits for it: the submitter's synchronous
/// view of the data plane.
ShardOp run_op(ShardEngine& engine, ShardOp::Kind kind, NamespaceId ns,
               std::uint64_t key, Tokens tokens) {
  std::promise<ShardOp> done;
  ShardOp op;
  op.kind = kind;
  op.ns = ns;
  op.key = key;
  op.tokens = tokens;
  op.done = [](ShardOp& finished, void* ctx) {
    static_cast<std::promise<ShardOp>*>(ctx)->set_value(finished);
  };
  op.ctx = &done;
  engine.submit(op);
  return done.get_future().get();
}

Tokens engine_acquire(ShardEngine& engine, std::uint64_t key, Tokens n,
                      NamespaceId ns = kDefaultNamespace) {
  return run_op(engine, ShardOp::Kind::kAcquire, ns, key, n).out_a;
}

/// Posts `ops` as one batch and waits until every worker group ran.
void engine_acquire_batch(ShardEngine& engine, std::vector<AcquireOp> ops) {
  std::promise<void> done;
  ASSERT_TRUE(engine.submit_batch(
      kDefaultNamespace, std::move(ops),
      [](EngineBatch&, void* ctx) {
        static_cast<std::promise<void>*>(ctx)->set_value();
      },
      &done));
  done.get_future().wait();
}

ShardEngineOptions two_workers() {
  ShardEngineOptions opts;
  opts.workers = 2;
  return opts;
}

TEST(AccountTable, WatchdogStaysCleanUnderConcurrentLoad) {
  // TSan-relevant: racing acquires/refunds on audited keys while the
  // clock advances. The watchdog rides with its account's shard owner, so
  // checks must account every sampled grant and the bound must hold
  // throughout.
  ServiceConfig cfg = simple_config(8, 1000);
  cfg.watchdog_sample = 1;
  AccountTable table(cfg);
  ShardEngine engine(table, two_workers());
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(i) % 32;
        if (engine_acquire(engine, key, 1 + t % 2) > 0 && i % 7 == 0)
          run_op(engine, ShardOp::Kind::kRefund, kDefaultNamespace, key, 1);
      }
    });
  }
  std::thread ticker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      table.clock().advance(1000);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  ticker.join();

  // Top up deterministically if the racing phase was scheduled too thin
  // to bank many tokens: every granted acquire adds at least one check.
  const auto checks = [&] {
    return engine.quiesced([&] { return table.stats().watchdog_checks; });
  };
  for (int i = 0; i < 2000 && checks() < 1000; ++i) {
    table.clock().advance(1000);
    engine_acquire(engine, static_cast<std::uint64_t>(i) % 32, 1);
  }

  const TableStats stats = engine.quiesced([&] { return table.stats(); });
  EXPECT_GE(stats.watchdog_checks, 1000u);
  EXPECT_EQ(stats.watchdog_violations, 0u);
}

TEST(AccountTable, ConcurrentAcquiresNeverOvergrant) {
  // 8 submitters race on 4 keys with a frozen clock: the total granted per
  // key can never exceed the tokens actually banked (C each).
  constexpr Tokens kCap = 16;
  AccountTable table(simple_config(kCap, 1000));
  for (std::uint64_t key = 0; key < 4; ++key) table.acquire(key, 0);
  table.clock().advance(1'000'000);  // every key saturates at C
  ShardEngine engine(table, two_workers());

  constexpr int kThreads = 8;
  std::vector<std::int64_t> granted(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        granted[t] += engine_acquire(engine, i % 4, 1);
      }
    });
  }
  for (auto& w : workers) w.join();
  std::int64_t total = 0;
  for (std::int64_t g : granted) total += g;
  EXPECT_EQ(total, 4 * kCap);
  EXPECT_EQ(engine.quiesced([&] { return table.stats().tokens_granted; }),
            static_cast<std::uint64_t>(total));
}

TEST(AccountTable, ConcurrentMixedTrafficKeepsCountersConsistent) {
  // Acquire/refund/query/batch from many submitters while the clock
  // advances; afterwards the global conservation law must hold:
  // granted == refunded + outstanding-spends, and balances stay in [0, C].
  ServiceConfig cfg = simple_config(8, 100);
  cfg.shards = 4;
  AccountTable table(cfg);
  ShardEngine engine(table, two_workers());
  std::atomic<bool> go{true};
  std::thread ticker([&] {
    while (go.load()) {
      table.clock().advance(100);
      std::this_thread::yield();
    }
  });
  constexpr int kThreads = 6;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = (t + i) % 32;
        switch (i % 4) {
          case 0:
            engine_acquire(engine, key, 2);
            break;
          case 1:
            run_op(engine, ShardOp::Kind::kRefund, kDefaultNamespace, key, 1);
            break;
          case 2:
            run_op(engine, ShardOp::Kind::kQuery, kDefaultNamespace, key, 0);
            break;
          default:
            engine_acquire_batch(engine,
                                 {AcquireOp{key, 1}, AcquireOp{key + 1, 1}});
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  go.store(false);
  ticker.join();

  engine.quiesced([&] {
    const TableStats stats = table.stats();
    EXPECT_GE(stats.tokens_granted, stats.tokens_refunded);
    for (std::uint64_t key = 0; key < 33; ++key) {
      const QueryResult q = table.query(key);
      if (!q.exists) continue;
      EXPECT_GE(q.balance, 0);
      EXPECT_LE(q.balance, 8);
    }
  });
}

// -------------------------------------------------------------- namespaces

NamespaceConfig bucket_namespace(Tokens c, TimeUs delta) {
  NamespaceConfig ns;
  ns.strategy.kind = core::StrategyKind::kTokenBucket;
  ns.strategy.c_param = c;
  ns.delta_us = delta;
  return ns;
}

TEST(AccountTableNamespaces, DefaultNamespaceAlwaysExists) {
  AccountTable table(simple_config(10));
  EXPECT_TRUE(table.has_namespace(kDefaultNamespace));
  EXPECT_EQ(table.namespace_count(), 1u);
  const auto info = table.namespace_info(kDefaultNamespace);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->config, table.config().default_namespace());
  EXPECT_EQ(info->capacity, 10);
}

TEST(AccountTableNamespaces, SameKeyIsolatedAcrossNamespaces) {
  AccountTable table(simple_config(10, 1000));
  ASSERT_TRUE(table.configure_namespace(1, bucket_namespace(2, 1000)));
  table.acquire(0, 42, 0);
  table.acquire(1, 42, 0);
  table.clock().advance(6000);
  // Same key, different policies: simple C=10 banks 6, bucket caps at 2.
  EXPECT_EQ(table.acquire(0, 42, 100).granted, 6);
  EXPECT_EQ(table.acquire(1, 42, 100).granted, 2);
  EXPECT_EQ(table.account_count(), 2u);
}

TEST(AccountTableNamespaces, PerNamespaceDeltaDividesTheSharedClock) {
  // One shared CoarseClock, two clock divisors: after 10 ms the Δ=1 ms
  // namespace banked 10 tokens, the Δ=5 ms namespace only 2.
  AccountTable table(simple_config(100, 1000));
  NamespaceConfig slow = simple_config(100, 5000).default_namespace();
  ASSERT_TRUE(table.configure_namespace(9, slow));
  table.acquire(0, 1, 0);
  table.acquire(9, 1, 0);
  table.clock().advance(10'000);
  EXPECT_EQ(table.acquire(0, 1, 100).granted, 10);
  EXPECT_EQ(table.acquire(9, 1, 100).granted, 2);
}

TEST(AccountTableNamespaces, UnknownNamespaceThrowsForDirectCallers) {
  AccountTable table(simple_config(10));
  EXPECT_FALSE(table.has_namespace(3));
  EXPECT_THROW(table.acquire(3, 1, 1), util::InvariantError);
  EXPECT_THROW(table.query(3, 1), util::InvariantError);
  EXPECT_THROW(table.refund(3, 1, 1), util::InvariantError);
  EXPECT_FALSE(table.namespace_info(3).has_value());
}

TEST(AccountTableNamespaces, InvalidConfigsRejectedAtConfigureTime) {
  AccountTable table(simple_config(10));
  NamespaceConfig unbounded;
  unbounded.strategy.kind = core::StrategyKind::kPureReactive;
  EXPECT_THROW(table.configure_namespace(1, unbounded), util::InvariantError);
  NamespaceConfig bad_delta = simple_config(5).default_namespace();
  bad_delta.delta_us = 0;
  EXPECT_THROW(table.configure_namespace(1, bad_delta), util::InvariantError);
  NamespaceConfig rich = simple_config(5).default_namespace();
  rich.initial_tokens = 6;  // above capacity
  EXPECT_THROW(table.configure_namespace(1, rich), util::InvariantError);
  // A failed configure must not half-create the namespace.
  EXPECT_FALSE(table.has_namespace(1));
}

TEST(AccountTableNamespaces, ReconfigureResetsAccounts) {
  AccountTable table(simple_config(10, 1000));
  ASSERT_TRUE(table.configure_namespace(2, bucket_namespace(8, 1000)));
  table.acquire(2, 5, 0);
  table.clock().advance(4000);
  ASSERT_EQ(table.acquire(2, 5, 100).granted, 4);
  // Replacing the policy drops the namespace's accounts: the key restarts
  // from the (new) initial balance, which can only under-grant.
  EXPECT_FALSE(table.configure_namespace(2, bucket_namespace(3, 1000)));
  EXPECT_FALSE(table.query(2, 5).exists);
  EXPECT_EQ(table.capacity_bound(2), 3);
  table.acquire(2, 5, 0);  // re-created under the new policy, balance 0
  table.clock().advance(100'000);
  EXPECT_EQ(table.acquire(2, 5, 100).granted, 3);  // new, tighter cap
  EXPECT_EQ(table.stats(2).accounts_evicted, 1u);
}

TEST(AccountTableNamespaces, ReconfigureRacingTrafficNeverResurrectsOldPolicy) {
  // A reset storm against live traffic: submitters keep creating and
  // settling accounts of the namespace through the engine while it is
  // reconfigured over and over, each reset running quiesced (as the
  // server's admin path does). After the final reset no account of the
  // namespace may carry the old policy's state. Runs under TSan in CI.
  AccountTable table(simple_config(4, 1000));

  // Old policy: generous, with a full initial balance so a resurrected
  // account is unmistakable (balance >= 64, and acquires of 0 tokens never
  // drain it). New policy: capacity 4, initial 0.
  NamespaceConfig generous;
  generous.strategy.kind = core::StrategyKind::kTokenBucket;
  generous.strategy.c_param = 64;
  generous.delta_us = 1000;
  generous.initial_tokens = 64;
  generous.idle_ttl_us = 2000;  // the workers' eviction sweeps race too
  NamespaceConfig tight;
  tight.strategy.kind = core::StrategyKind::kTokenBucket;
  tight.strategy.c_param = 4;
  tight.delta_us = 1000;
  tight.initial_tokens = 0;
  tight.idle_ttl_us = 2000;

  constexpr NamespaceId kNs = 7;
  constexpr std::uint64_t kKeys = 256;
  ASSERT_TRUE(table.configure_namespace(kNs, generous));
  ShardEngine engine(table, two_workers());
  const auto reconfigure = [&](const NamespaceConfig& config) {
    engine.quiesced([&] { table.configure_namespace(kNs, config); });
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t key = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        // 0-token acquires create/settle accounts without draining them.
        engine_acquire(engine, key % kKeys, 0, kNs);
        engine_acquire(engine, (key * 7) % kKeys, 0);  // default-ns bystanders
        ++key;
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      table.clock().advance(500);
      std::this_thread::yield();
    }
  });

  // Pace the reset storm against actual submitter progress, so every
  // reconfigure genuinely lands between live acquires instead of finishing
  // before the threads have spun up.
  auto await_ops = [&](std::uint64_t more) {
    const std::uint64_t target = ops.load() + more;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (ops.load() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  await_ops(500);
  for (int round = 0; round < 60; ++round) {
    reconfigure(round % 2 == 0 ? tight : generous);
    await_ops(100);
  }
  // The final reset happens while traffic is still running, then the
  // submitters stop: whatever accounts remain were created by acquires
  // racing that reset.
  reconfigure(tight);
  stop.store(true);
  for (auto& thread : threads) thread.join();

  engine.quiesced([&] {
    // No resurrected accounts: everything left in the namespace carries
    // the new policy — balance within the tight capacity (an old-policy
    // insert would sit at >= 64 since nothing ever drained it).
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      const QueryResult res = table.query(kNs, key);
      if (!res.exists) continue;
      EXPECT_LE(res.balance, 4) << "key " << key
                                << " resurrected under the old policy";
    }
    // Default-namespace bystanders were never dropped by the resets.
    EXPECT_GT(table.stats(kDefaultNamespace).accounts, 0u);
  });
  // And the namespace still works after the storm: a live account fills
  // to the tight capacity. Ticks advance one at a time, each followed by a
  // settling query, so the workers' TTL sweeps never find it idle.
  engine_acquire(engine, 1, 0, kNs);  // ensure the account exists first
  for (int tick = 0; tick < 8; ++tick) {
    table.clock().advance(1000);
    run_op(engine, ShardOp::Kind::kQuery, kNs, 1, 0);
  }
  EXPECT_EQ(engine_acquire(engine, 1, 100, kNs), 4);
}

TEST(AccountTableNamespaces, StatsBreakOutPerNamespace) {
  AccountTable table(simple_config(10, 1000));
  ASSERT_TRUE(table.configure_namespace(1, bucket_namespace(4, 1000)));
  for (std::uint64_t key = 0; key < 5; ++key) table.acquire(0, key, 1);
  for (std::uint64_t key = 0; key < 3; ++key) table.acquire(1, key, 1);
  const TableStats ns0 = table.stats(0);
  const TableStats ns1 = table.stats(1);
  EXPECT_EQ(ns0.acquires, 5u);
  EXPECT_EQ(ns0.accounts, 5u);
  EXPECT_EQ(ns1.acquires, 3u);
  EXPECT_EQ(ns1.accounts, 3u);
  // The merged view is exactly the per-namespace sum.
  const TableStats all = table.stats();
  EXPECT_EQ(all.acquires, 8u);
  EXPECT_EQ(all.accounts, 8u);
  EXPECT_EQ(all.tokens_requested, ns0.tokens_requested + ns1.tokens_requested);
}

TEST(AccountTableNamespaces, PerNamespaceTtlEviction) {
  ServiceConfig cfg = simple_config(10, 1000);  // default ns: no TTL
  AccountTable table(cfg);
  NamespaceConfig ephemeral = simple_config(10, 1000).default_namespace();
  ephemeral.idle_ttl_us = 10'000;
  ASSERT_TRUE(table.configure_namespace(7, ephemeral));
  EXPECT_EQ(table.min_idle_ttl_us(), 10'000);
  table.acquire(0, 1, 0);
  table.acquire(7, 1, 0);
  table.clock().advance(50'000);  // both idle 50 ms
  EXPECT_EQ(table.evict_idle(), 1u);  // only the TTL'd namespace evicts
  EXPECT_TRUE(table.query(0, 1).exists);
  EXPECT_FALSE(table.query(7, 1).exists);
}

TEST(AccountTableNamespaces, BatchRunsAgainstItsNamespace) {
  AccountTable table(simple_config(10, 1000));
  ASSERT_TRUE(table.configure_namespace(1, bucket_namespace(2, 1000)));
  const std::vector<AcquireOp> warm{{1, 0}, {2, 0}};
  table.acquire_batch(1, warm);
  table.clock().advance(9000);
  const std::vector<AcquireOp> ops{{1, 5}, {2, 5}};
  const std::vector<AcquireResult> res = table.acquire_batch(1, ops);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].granted, 2);  // bucket cap, not the default ns's C=10
  EXPECT_EQ(res[1].granted, 2);
  EXPECT_EQ(table.stats(0).acquires, 0u);
}

// ------------------------------------------------- batch vs scalar path

TEST(AccountTable, RandomizedBatchesMatchScalarAcquires) {
  // Twin tables, one fed acquire_batch and the other the same ops one by
  // one: per-op results and the counters must agree exactly. Batches of 1
  // to 600 ops give shard runs both shorter and longer than the batch
  // prefetch distance; keys repeat within a batch and span two
  // namespaces; and ~24k fresh keys grow every shard's store through
  // several doublings, many of them in the middle of a batch. The shard
  // counts cover the grouping's edge cases: one shard takes a whole batch
  // as one run, and at 1024 most shards get no op.
  for (const std::size_t shards : {1, 8, 1024}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    ServiceConfig cfg = simple_config(6, 1000);
    cfg.shards = shards;
    cfg.strategy.kind = core::StrategyKind::kGeneralized;  // draws the RNG
    cfg.strategy.a_param = 3;
    cfg.watchdog_sample = 4;
    AccountTable batched(cfg);
    AccountTable scalar(cfg);
    for (AccountTable* t : {&batched, &scalar}) {
      ASSERT_TRUE(t->configure_namespace(1, bucket_namespace(4, 700)));
    }
    util::Rng rng(29);
    std::uint64_t next_fresh = 0;
    std::vector<AcquireOp> ops;
    for (int round = 0; round < 320; ++round) {
      const auto ns = static_cast<NamespaceId>(rng.below(2));
      const std::uint64_t size =
          round % 4 == 0 ? 1 + rng.below(8) : 1 + rng.below(600);
      ops.clear();
      for (std::uint64_t i = 0; i < size; ++i) {
        std::uint64_t key = 0;
        if (rng.below(3) == 0 && !ops.empty()) {
          key = ops[rng.below(ops.size())].key;  // repeat within the batch
        } else if (rng.below(2) == 0 || next_fresh == 0) {
          key = next_fresh++;
        } else {
          key = rng.below(next_fresh);
        }
        ops.push_back(AcquireOp{key, static_cast<Tokens>(rng.below(4))});
      }
      const std::vector<AcquireResult> got = batched.acquire_batch(ns, ops);
      ASSERT_EQ(got.size(), ops.size());
      for (std::size_t i = 0; i < ops.size(); ++i) {
        const AcquireResult want =
            scalar.acquire(ns, ops[i].key, ops[i].tokens);
        ASSERT_EQ(got[i].granted, want.granted)
            << "round " << round << " op " << i;
        ASSERT_EQ(got[i].balance, want.balance)
            << "round " << round << " op " << i;
        ASSERT_EQ(got[i].fresh, want.fresh) << "round " << round << " op " << i;
      }
      const TimeUs step = static_cast<TimeUs>(rng.below(3000));
      batched.clock().advance(step);
      scalar.clock().advance(step);
    }
    EXPECT_EQ(batched.shard_count(), shards);
    EXPECT_GT(next_fresh, 20'000u);
    EXPECT_TRUE(batched.stats() == scalar.stats());
    EXPECT_TRUE(batched.stats(1) == scalar.stats(1));
    EXPECT_GT(batched.stats().watchdog_checks, 0u);
  }
}

TEST(AccountTable, EmptyBatchReturnsNothingAndCountsNothing) {
  AccountTable table(simple_config(10, 1000));
  ASSERT_TRUE(table.configure_namespace(1, bucket_namespace(4, 700)));
  EXPECT_TRUE(table.acquire_batch({}).empty());
  EXPECT_TRUE(table.acquire_batch(1, {}).empty());
  EXPECT_EQ(table.account_count(), 0u);
  EXPECT_TRUE(table.stats() == TableStats{});
  EXPECT_TRUE(table.stats(1) == TableStats{});
}

TEST(AccountTable, ConcurrentGrowingBatchesOnSharedShards) {
  // Several submitters post long batches whose keys spread over every
  // shard, so each batch fans out to both workers; each batch inserts
  // enough fresh accounts to grow its shards' stores while the other
  // worker runs its own slices. A worker may touch only the shards it
  // owns: any read of another worker's store (a prefetch reaching past its
  // own shards, say) races a concurrent rehash, which TSan reports.
  ServiceConfig cfg = simple_config(4, 1000);
  cfg.shards = 4;
  AccountTable table(cfg);
  ShardEngine engine(table, two_workers());
  constexpr int kThreads = 4;
  constexpr std::uint64_t kBatches = 24;
  constexpr std::uint64_t kBatchOps = 512;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&engine, t] {
      const std::uint64_t first = static_cast<std::uint64_t>(t) << 32;
      for (std::uint64_t b = 0; b < kBatches; ++b) {
        std::vector<AcquireOp> ops;
        for (std::uint64_t i = 0; i < kBatchOps; ++i)
          ops.push_back(AcquireOp{first + b * kBatchOps + i, 1});
        ops.push_back(AcquireOp{first, 1});  // and one old key
        engine_acquire_batch(engine, std::move(ops));
      }
    });
  }
  for (auto& w : workers) w.join();
  engine.quiesced([&] {
    const TableStats stats = table.stats();
    EXPECT_EQ(stats.accounts, kThreads * kBatches * kBatchOps);
    EXPECT_EQ(stats.accounts_created, stats.accounts);
    EXPECT_EQ(stats.acquires, kThreads * kBatches * (kBatchOps + 1));
    for (int t = 0; t < kThreads; ++t) {
      const std::uint64_t first = static_cast<std::uint64_t>(t) << 32;
      EXPECT_TRUE(table.query(first).exists);
      EXPECT_TRUE(table.query(first + kBatches * kBatchOps - 1).exists);
    }
  });
}

// ------------------------------------------------ decision-identity digest

/// Folds one value into a running digest.
void fold(std::uint64_t& digest, std::uint64_t value) {
  std::uint64_t state = digest ^ value;
  digest = util::splitmix64(state);
}

/// Folds every counter but watchdog_checks, whose unit (checks per grant)
/// is the watchdog's choice, not a decision of the table.
void fold(std::uint64_t& digest, const TableStats& s) {
  for (const std::uint64_t v :
       {s.accounts, s.accounts_created, s.accounts_evicted, s.acquires,
        s.tokens_requested, s.tokens_granted, s.refunds, s.tokens_refunded,
        s.tokens_refund_dropped, s.refunds_dropped, s.queries,
        s.proactive_dropped, s.ticks_forfeited, s.accounts_extracted,
        s.accounts_installed, s.watchdog_violations})
    fold(digest, v);
}

TEST(AccountTable, SeededScriptKeepsItsDecisionDigest) {
  // One seeded script over every path that reads or writes account state:
  // two namespaces with their own Δ and TTL (the second a token bucket),
  // batches, scalar acquires, refunds and queries, clock jumps past the
  // catch-up cap, TTL evictions, a namespace reset, a handoff extraction
  // with re-installs, and replication switched on part-way with drains at
  // two acknowledgement watermarks. Every result, every replica delta and
  // the final counters go into one digest. The pinned value is what this
  // same source gives on the table whose §3.4 watchdog was a ring of the
  // newest grant instants, so it holds the exact check to the very same
  // decisions.
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;  // draws the RNG
  cfg.strategy.a_param = 3;
  cfg.strategy.c_param = 6;
  cfg.initial_tokens = 2;
  cfg.idle_ttl_us = 40'000;
  cfg.watchdog_sample = 4;
  cfg.seed = 7;
  AccountTable table(cfg);
  NamespaceConfig bucket = bucket_namespace(4, 700);
  bucket.initial_tokens = 1;
  bucket.idle_ttl_us = 15'000;
  ASSERT_TRUE(table.configure_namespace(1, bucket));

  util::Rng rng(41);
  std::uint64_t digest = 0;
  std::uint64_t key_space = 64;
  std::uint64_t seq = 0;
  std::vector<AcquireOp> ops;
  std::vector<ReplicaDeltaExport> deltas;
  std::size_t delta_count = 0;
  const auto draw_key = [&] {
    // Mostly recent keys, sometimes fresh ones, so stores keep growing.
    if (rng.below(8) == 0) return key_space++;
    return rng.below(key_space);
  };
  for (int step = 0; step < 6000; ++step) {
    const auto ns = static_cast<NamespaceId>(rng.below(2));
    switch (rng.below(8)) {
      case 0:
      case 1: {
        ops.clear();
        const std::uint64_t size = 1 + rng.below(80);
        for (std::uint64_t i = 0; i < size; ++i)
          ops.push_back(AcquireOp{draw_key(), static_cast<Tokens>(rng.below(4))});
        for (const AcquireResult& r : table.acquire_batch(ns, ops)) {
          fold(digest, static_cast<std::uint64_t>(r.granted));
          fold(digest, static_cast<std::uint64_t>(r.balance));
          fold(digest, r.fresh ? 1 : 0);
        }
        break;
      }
      case 2:
      case 3: {
        const AcquireResult r = table.acquire(
            ns, draw_key(), static_cast<Tokens>(rng.below(5)));
        fold(digest, static_cast<std::uint64_t>(r.granted));
        fold(digest, static_cast<std::uint64_t>(r.balance));
        fold(digest, r.fresh ? 1 : 0);
        break;
      }
      case 4: {
        const RefundResult r = table.refund(
            ns, draw_key(), static_cast<Tokens>(rng.below(4)));
        fold(digest, static_cast<std::uint64_t>(r.accepted));
        fold(digest, static_cast<std::uint64_t>(r.balance));
        break;
      }
      case 5: {
        const QueryResult r = table.query(ns, draw_key());
        fold(digest, static_cast<std::uint64_t>(r.balance));
        fold(digest, r.exists ? 1 : 0);
        break;
      }
      default:
        table.clock().advance(static_cast<TimeUs>(rng.below(1500)));
        break;
    }
    if (step % 500 == 250) {
      // Past the default namespace's auto catch-up cap of 2C = 12 ticks.
      table.clock().advance(30'000 + static_cast<TimeUs>(rng.below(5000)));
    }
    if (step % 300 == 299) fold(digest, table.evict_idle());
    if (step == 2000) {
      // Reset: every account of namespace 1 goes; it comes back as a
      // bucket of another size and Δ.
      NamespaceConfig reset = bucket_namespace(5, 900);
      reset.idle_ttl_us = 12'000;
      ASSERT_FALSE(table.configure_namespace(1, reset));
    }
    if (step == 2500) {
      std::vector<AccountExport> moved = table.extract_if(
          [](NamespaceId, std::uint64_t key) { return key % 7 == 3; });
      EXPECT_FALSE(moved.empty());
      // extract_if returns a shard's accounts in slot order, which follows
      // the store's layout, not the decisions; sorted, the digest sees
      // only the decisions.
      std::sort(moved.begin(), moved.end(),
                [](const AccountExport& a, const AccountExport& b) {
                  return std::pair(a.ns, a.key) < std::pair(b.ns, b.key);
                });
      for (const AccountExport& e : moved) {
        fold(digest, e.ns);
        fold(digest, e.key);
        fold(digest, static_cast<std::uint64_t>(e.balance));
      }
      // Half come back; a key re-created meanwhile refuses its install.
      for (std::size_t i = 0; i < moved.size(); i += 2) {
        if (i % 4 == 0) table.acquire(moved[i].ns, moved[i].key, 1);
        fold(digest, table.install_account(moved[i].ns, moved[i].key,
                                           moved[i].balance)
                         ? 1
                         : 0);
      }
    }
    if (step == 3000) table.enable_replication(0);
    if (step > 3000 && step % 40 == 0) {
      ++seq;
      // Alternate a stream that has acked the previous round with one
      // whose acknowledgements lag three rounds behind.
      const std::uint64_t acked = seq % 2 == 0 ? seq - 1 : (seq > 3 ? seq - 3 : 0);
      for (std::size_t s = 0; s < table.shard_count(); ++s) {
        deltas.clear();
        delta_count += table.drain_replica_dirty(s, seq, acked, deltas);
        fold(digest, deltas.size());
        for (const ReplicaDeltaExport& d : deltas) {
          fold(digest, d.ns);
          fold(digest, d.key);
          fold(digest, static_cast<std::uint64_t>(d.balance));
          fold(digest, static_cast<std::uint64_t>(d.floor));
        }
      }
    }
  }
  const TableStats stats = table.stats();
  fold(digest, stats);
  fold(digest, table.stats(1));
  EXPECT_GT(delta_count, 0u);
  EXPECT_GT(stats.tokens_refunded, 0u);
  EXPECT_GT(stats.proactive_dropped, 0u);
  EXPECT_GT(stats.accounts_evicted, 0u);
  EXPECT_GT(stats.ticks_forfeited, 0u);
  EXPECT_GT(stats.accounts_installed, 0u);
  EXPECT_GT(stats.watchdog_checks, 0u);
  EXPECT_EQ(stats.watchdog_violations, 0u);
  EXPECT_EQ(digest, 0x7e7cd475dc096931ULL)
      << std::hex << "digest 0x" << digest;
}

TEST(AccountTable, RefundsMatchAnExactOutstandingCount) {
  // A slot stores min(outstanding, C) for the tokens granted and not
  // refunded. A refund reads that count only through min(count, C -
  // balance), so the cap must change no refund. Seeded streams of acquires,
  // refunds and clock jumps, in which each key's outstanding count climbs
  // far past C, must give every grant, acceptance and balance of an exact
  // u64 model run on the core arithmetic. The token bucket ticks without
  // randomness: every elapsed tick, up to the catch-up cap, banks one
  // token below C.
  constexpr TimeUs kDelta = 1000;
  for (const Tokens c : {Tokens{1}, Tokens{3}, Tokens{8}}) {
    SCOPED_TRACE(c);
    ServiceConfig cfg;
    cfg.shards = 4;
    cfg.delta_us = kDelta;
    cfg.strategy.kind = core::StrategyKind::kTokenBucket;
    cfg.strategy.c_param = c;
    cfg.initial_tokens = c;
    AccountTable table(cfg);
    const Tokens catchup = std::max<Tokens>(2 * c, 16);

    struct Account {
      Tokens balance = 0;
      std::uint64_t outstanding = 0;
      TimeUs last_us = 0;
    };
    std::vector<std::optional<Account>> model(6);
    const auto settle = [&](Account& a, TimeUs now) {
      const std::int64_t due = now / kDelta - a.last_us / kDelta;
      if (due > 0) a.balance = std::min(a.balance + std::min(due, catchup), c);
      a.last_us = now;
    };
    util::Rng rng(900 + static_cast<std::uint64_t>(c));
    std::uint64_t max_outstanding = 0;
    for (int step = 0; step < 20'000; ++step) {
      const std::uint64_t key = rng.below(model.size());
      std::optional<Account>& a = model[key];
      const TimeUs now = table.clock().now_us();
      switch (rng.below(5)) {
        case 0:
        case 1: {
          const auto n = static_cast<Tokens>(rng.below(2 * c + 1));
          if (!a) a = Account{c, 0, now};
          settle(*a, now);
          const Tokens granted = core::spend_balance(
              a->balance, a->outstanding, n, /*allow_overdraft=*/false);
          const AcquireResult r = table.acquire(key, n);
          ASSERT_EQ(r.granted, granted) << "step " << step;
          ASSERT_EQ(r.balance, a->balance) << "step " << step;
          break;
        }
        case 2:
        case 3: {
          const auto n = static_cast<Tokens>(rng.below(3 * c + 1));
          Tokens accepted = 0;
          Tokens balance = 0;
          if (a) {
            settle(*a, now);
            const Tokens headroom = std::max<Tokens>(c - a->balance, 0);
            accepted = core::refund_balance(a->balance, a->outstanding,
                                            std::min(n, headroom));
            balance = a->balance;
          }
          const RefundResult r = table.refund(key, n);
          ASSERT_EQ(r.accepted, accepted) << "step " << step;
          ASSERT_EQ(r.balance, balance) << "step " << step;
          break;
        }
        default:
          // Mostly part of a tick, sometimes past the catch-up cap.
          table.clock().advance(static_cast<TimeUs>(
              rng.below(8) == 0 ? rng.below(40 * kDelta) : rng.below(kDelta)));
          break;
      }
      if (a) max_outstanding = std::max(max_outstanding, a->outstanding);
    }
    EXPECT_GT(max_outstanding, 100 * static_cast<std::uint64_t>(c));
  }
}

TEST(AccountTableNamespaces, RefusesANamespacePastTheLimit) {
  // A slot keeps its namespace's index + 1 in 16 bits, so a table holds
  // 65,535 namespaces. One more is refused, and the registry and every
  // account stay as they were.
  ServiceConfig cfg = simple_config(10);
  cfg.initial_tokens = 10;
  AccountTable table(cfg);
  NamespaceConfig bucket = bucket_namespace(4, 1000);
  bucket.initial_tokens = 4;
  ASSERT_TRUE(table.configure_namespace(70'000, bucket));
  EXPECT_EQ(table.acquire(kDefaultNamespace, 1, 3).granted, 3);
  EXPECT_EQ(table.acquire(70'000, 1, 1).granted, 1);
  NamespaceId last = 0;
  for (NamespaceId id = 1; table.namespace_count() < AccountTable::kMaxNamespaces;
       ++id) {
    ASSERT_TRUE(table.configure_namespace(id, bucket));
    last = id;
  }
  ASSERT_EQ(table.namespace_count(), 65'535u);
  EXPECT_EQ(table.acquire(last, 1, 2).granted, 2);  // the last index serves

  EXPECT_THROW(table.configure_namespace(1'000'000, bucket),
               util::InvariantError);
  EXPECT_EQ(table.namespace_count(), 65'535u);
  EXPECT_FALSE(table.has_namespace(1'000'000));
  EXPECT_THROW(table.acquire(1'000'000, 1, 1), util::InvariantError);
  // A namespace that exists is still replaced at the limit.
  EXPECT_FALSE(table.configure_namespace(7, bucket));

  EXPECT_EQ(table.query(kDefaultNamespace, 1).balance, 7);
  EXPECT_EQ(table.query(70'000, 1).balance, 3);
  EXPECT_EQ(table.query(last, 1).balance, 2);
  EXPECT_EQ(table.account_count(), 3u);
  EXPECT_EQ(table.stats(70'000).accounts, 1u);
  const auto info = table.namespace_info(70'000);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->config, bucket);
  EXPECT_EQ(info->accounts, 1u);
}

}  // namespace
}  // namespace toka::service
