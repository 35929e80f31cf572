// The data plane: ShardEngine equivalence against the same ops replayed
// directly on a single-owner table (byte-identical grants, stats and §3.4
// audit traces), the quiesce protocol under load, and the full
// Server+engine stack over the in-process fabric and the epoll mesh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <random>
#include <semaphore>
#include <thread>
#include <vector>

#include "runtime/epoll.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"

namespace toka::service {
namespace {

using namespace std::chrono_literals;

ServiceConfig base_config() {
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 10;
  cfg.seed = 42;
  cfg.audit = true;
  return cfg;
}

struct ScriptOp {
  ShardOp::Kind kind;
  std::uint64_t key;
  Tokens tokens;
};

/// A deterministic op script: mixed acquires/refunds/queries over a small
/// key range (so shards see repeated traffic), in rounds separated by
/// clock advances.
std::vector<std::vector<ScriptOp>> make_script() {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::uint64_t> key_dist(0, 31);
  std::uniform_int_distribution<int> kind_dist(0, 9);
  std::uniform_int_distribution<Tokens> tok_dist(1, 4);
  std::vector<std::vector<ScriptOp>> rounds(20);
  for (auto& round : rounds) {
    round.resize(200);
    for (ScriptOp& op : round) {
      const int k = kind_dist(rng);
      op.kind = k < 7   ? ShardOp::Kind::kAcquire
                : k < 9 ? ShardOp::Kind::kRefund
                        : ShardOp::Kind::kQuery;
      op.key = key_dist(rng);
      op.tokens = tok_dist(rng);
    }
  }
  return rounds;
}

struct OpResult {
  Tokens a = 0;
  Tokens b = 0;
  bool ok = true;
  friend bool operator==(const OpResult&, const OpResult&) = default;
};

/// Runs the script single-threaded against a directly called table.
std::vector<OpResult> run_direct(AccountTable& table,
                                 const std::vector<std::vector<ScriptOp>>& s) {
  std::vector<OpResult> out;
  for (const auto& round : s) {
    for (const ScriptOp& op : round) {
      OpResult r;
      switch (op.kind) {
        case ShardOp::Kind::kAcquire: {
          const AcquireResult res = table.acquire(op.key, op.tokens);
          r = {res.granted, res.balance, true};
          break;
        }
        case ShardOp::Kind::kRefund: {
          const RefundResult res = table.refund(op.key, op.tokens);
          r = {res.accepted, res.balance, true};
          break;
        }
        default: {
          const QueryResult res = table.query(op.key);
          r = {res.balance, res.exists ? 1 : 0, true};
          break;
        }
      }
      out.push_back(r);
    }
    table.clock().advance(1500);
  }
  return out;
}

/// Runs the script through a ShardEngine (single submitting thread, so
/// per-shard op order matches the sequential run exactly).
std::vector<OpResult> run_sharded(AccountTable& table, std::size_t workers,
                                  const std::vector<std::vector<ScriptOp>>& s) {
  ShardEngineOptions opts;
  opts.workers = workers;
  ShardEngine engine(table, opts);
  std::size_t total = 0;
  for (const auto& round : s) total += round.size();
  std::vector<OpResult> out(total);
  std::size_t idx = 0;
  for (const auto& round : s) {
    for (const ScriptOp& op : round) {
      ShardOp shard_op;
      shard_op.kind = op.kind;
      shard_op.key = op.key;
      shard_op.tokens = op.tokens;
      shard_op.done = [](ShardOp& done_op, void* ctx) {
        auto* slot = static_cast<OpResult*>(ctx);
        *slot = {done_op.out_a, done_op.out_b, done_op.ok};
      };
      shard_op.ctx = &out[idx++];
      engine.submit(shard_op);
    }
    // Round boundary: every op lands before the clock moves, exactly like
    // the sequential run.
    engine.drain();
    table.clock().advance(1500);
  }
  engine.drain();
  return out;
}

// The plane's equivalence reference: a worker runs exactly the table calls
// a single-threaded caller makes, so results, stats, RNG draws and the §3.4
// audit trace match the same script replayed directly on a table — for one
// worker and for many.
TEST(ShardEngine, ByteIdenticalWithDirectTableReplay) {
  const auto script = make_script();

  AccountTable direct(base_config());
  const std::vector<OpResult> want = run_direct(direct, script);
  const TableStats want_stats = direct.stats();
  EXPECT_EQ(direct.audit_violation(), std::nullopt);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    AccountTable sharded(base_config());
    const std::vector<OpResult> got = run_sharded(sharded, workers, script);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "op " << i << " workers=" << workers;
    const TableStats got_stats = sharded.stats();  // engine gone: direct ok
    EXPECT_EQ(got_stats.acquires, want_stats.acquires);
    EXPECT_EQ(got_stats.tokens_granted, want_stats.tokens_granted);
    EXPECT_EQ(got_stats.refunds, want_stats.refunds);
    EXPECT_EQ(got_stats.refunds_dropped, want_stats.refunds_dropped);
    EXPECT_TRUE(got_stats == want_stats) << "workers=" << workers;
    EXPECT_EQ(sharded.audit_violation(), std::nullopt);
  }
}

TEST(ShardEngine, BatchResultsArePositionallyAligned) {
  AccountTable table(base_config());
  table.clock().advance(6000);  // all accounts start with grantable tokens
  ShardEngineOptions opts;
  opts.workers = 3;
  ShardEngine engine(table, opts);

  // Keys deliberately interleaved across shards; tokens = key so each
  // result is attributable to its op.
  std::vector<AcquireOp> ops;
  for (std::uint64_t key = 0; key < 64; ++key) ops.push_back({key, 1});
  std::promise<std::vector<AcquireResult>> done;
  auto fut = done.get_future();
  ASSERT_TRUE(engine.submit_batch(
      kDefaultNamespace, ops,
      [](EngineBatch& batch, void* ctx) {
        static_cast<std::promise<std::vector<AcquireResult>>*>(ctx)->set_value(
            std::move(batch.results));
      },
      &done));
  ASSERT_EQ(fut.wait_for(5s), std::future_status::ready);
  const std::vector<AcquireResult> results = fut.get();
  ASSERT_EQ(results.size(), ops.size());

  // Same batch against a directly called twin gives the reference,
  // position by position.
  AccountTable twin(base_config());
  twin.clock().advance(6000);
  const std::vector<AcquireResult> want = twin.acquire_batch(ops);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(results[i].granted, want[i].granted) << i;
    EXPECT_EQ(results[i].balance, want[i].balance) << i;
  }
}

// A run of coalesced acquires holding one negative op: acquire_batch
// rejects the run before applying anything, and the worker's op-by-op redo
// applies each valid op exactly once and fails only the offender. The
// offender sits on the highest shard of the run, so a batch that applied
// shards in order until it met the bad op would have charged the others
// twice.
TEST(ShardEngine, BadOpInACoalescedRunFailsAloneAndOthersApplyOnce) {
  AccountTable table(base_config());
  AccountTable twin(base_config());
  table.clock().advance(6000);
  twin.clock().advance(6000);
  std::uint64_t bad_key = 100;
  while (table.shard_of(kDefaultNamespace, bad_key) + 1 < table.shard_count())
    ++bad_key;
  std::vector<AcquireOp> ops;
  for (std::uint64_t key = 0; key < 12; ++key) ops.push_back({key % 8, 2});
  ops.insert(ops.begin() + 6, AcquireOp{bad_key, -1});

  std::vector<OpResult> got(ops.size());
  {
    ShardEngineOptions opts;
    opts.workers = 1;
    ShardEngine engine(table, opts);
    // Queued while the worker is parked, so it pops the whole run in one
    // drain and coalesces it into one acquire_batch call.
    engine.quiesced([&] {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        ShardOp op;
        op.kind = ShardOp::Kind::kAcquire;
        op.key = ops[i].key;
        op.tokens = ops[i].tokens;
        op.done = [](ShardOp& done_op, void* ctx) {
          *static_cast<OpResult*>(ctx) = {done_op.out_a, done_op.out_b,
                                          done_op.ok};
        };
        op.ctx = &got[i];
        engine.submit(op);
      }
    });
    engine.drain();
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].tokens < 0) {
      EXPECT_FALSE(got[i].ok) << "op " << i;
      continue;
    }
    const AcquireResult want = twin.acquire(ops[i].key, ops[i].tokens);
    EXPECT_TRUE(got[i].ok) << "op " << i;
    EXPECT_EQ(got[i].a, want.granted) << "op " << i;
    EXPECT_EQ(got[i].b, want.balance) << "op " << i;
  }
  EXPECT_EQ(table.stats().acquires, ops.size() - 1);
  EXPECT_TRUE(table.stats() == twin.stats());
  for (std::uint64_t key = 0; key < 8; ++key)
    EXPECT_EQ(table.query(key).balance, twin.query(key).balance) << key;
  EXPECT_FALSE(table.query(bad_key).exists);
}

// Concurrent producers + quiesced sweeps + §3.4 audit: the plane's whole
// point is that this is safe without a single shard lock.
TEST(ShardEngine, ConcurrentSubmittersStayAuditClean) {
  AccountTable table(base_config());
  ShardEngineOptions opts;
  opts.workers = 2;
  ShardEngine engine(table, opts);

  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load()) {
      table.clock().advance(500);
      std::this_thread::sleep_for(200us);
    }
  });

  constexpr int kProducers = 3;
  constexpr int kOpsPerProducer = 5000;
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937_64 rng(100 + p);
      std::uniform_int_distribution<std::uint64_t> key_dist(0, 255);
      for (int i = 0; i < kOpsPerProducer; ++i) {
        ShardOp op;
        op.kind = (i % 8 == 7) ? ShardOp::Kind::kRefund
                               : ShardOp::Kind::kAcquire;
        op.key = key_dist(rng);
        op.tokens = 1 + (i % 3);
        op.done = [](ShardOp&, void* ctx) {
          static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(1);
        };
        op.ctx = &completed;
        engine.submit(op);
      }
    });
  }
  // Interleave admin sweeps from the main thread while producers run.
  for (int sweep = 0; sweep < 20; ++sweep) {
    const auto violation =
        engine.quiesced([&] { return table.audit_violation(); });
    EXPECT_EQ(violation, std::nullopt);
    engine.quiesced([&] { return table.stats(); });
    std::this_thread::sleep_for(1ms);
  }
  for (auto& t : producers) t.join();
  engine.drain();
  stop.store(true);
  ticker.join();

  EXPECT_EQ(completed.load(),
            static_cast<std::uint64_t>(kProducers * kOpsPerProducer));
  EXPECT_EQ(engine.quiesced([&] { return table.audit_violation(); }),
            std::nullopt);
  const TableStats stats = engine.quiesced([&] { return table.stats(); });
  const std::uint64_t acquires_expected =
      static_cast<std::uint64_t>(kProducers) * kOpsPerProducer * 7 / 8;
  EXPECT_EQ(stats.acquires + stats.refunds,
            static_cast<std::uint64_t>(kProducers * kOpsPerProducer));
  EXPECT_GE(stats.acquires, acquires_expected);
}

TEST(ShardEngine, WorkerOwnedTtlEviction) {
  ServiceConfig cfg = base_config();
  cfg.idle_ttl_us = 10'000;
  AccountTable table(cfg);
  ShardEngineOptions opts;
  opts.workers = 2;
  ShardEngine engine(table, opts);

  table.clock().advance(6000);
  for (std::uint64_t key = 0; key < 32; ++key) {
    ShardOp op;
    op.kind = ShardOp::Kind::kAcquire;
    op.key = key;
    op.tokens = 1;
    engine.submit(op);
  }
  engine.drain();
  ASSERT_EQ(engine.quiesced([&] { return table.account_count(); }), 32u);

  // Push all accounts past 2x TTL, then keep one key alive; the workers'
  // own sweeps (no ClockDriver, no quiesce) must evict the rest.
  table.clock().advance(50'000);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  std::size_t count = 32;
  while (count > 1 && std::chrono::steady_clock::now() < deadline) {
    ShardOp keepalive;
    keepalive.kind = ShardOp::Kind::kAcquire;
    keepalive.key = 7;
    keepalive.tokens = 0;
    engine.submit(keepalive);
    engine.drain();
    count = engine.quiesced([&] { return table.account_count(); });
    std::this_thread::sleep_for(1ms);
    table.clock().advance(5'000);
  }
  EXPECT_LE(count, 1u) << "worker-owned eviction never swept idle accounts";
}

// ---------------------------------------------------------------- Server

TEST(ShardedServer, InprocAcquireRefundQueryBatch) {
  AccountTable table(base_config());
  ShardEngineOptions eopts;
  eopts.workers = 2;
  ShardEngine engine(table, eopts);
  runtime::InProcNetwork net(2);
  ServerOptions sopts;
  sopts.engine = &engine;
  Server server(table, net.endpoint(0), sopts);
  Client client(net.endpoint(1), 0);
  net.start();

  EXPECT_FALSE(client.query(5).exists);
  EXPECT_EQ(client.acquire(5, 3).granted, 0);  // fresh account, no tokens yet
  table.clock().advance(6000);
  const AcquireResult res = client.acquire(5, 3);
  EXPECT_EQ(res.granted, 3);
  EXPECT_EQ(res.balance, 3);
  EXPECT_EQ(client.refund(5, 2).accepted, 2);
  EXPECT_EQ(client.query(5).balance, 5);

  std::vector<AcquireOp> ops;
  for (std::uint64_t key = 100; key < 116; ++key) ops.push_back({key, 2});
  client.acquire_batch(ops);  // creates the accounts
  table.clock().advance(6000);
  const std::vector<AcquireResult> batch = client.acquire_batch(ops);
  ASSERT_EQ(batch.size(), ops.size());
  for (const AcquireResult& r : batch) EXPECT_EQ(r.granted, 2);

  EXPECT_EQ(server.requests_served(), 7u);
  EXPECT_EQ(server.requests_errored(), 0u);
  net.stop();
}

TEST(ShardedServer, UnknownNamespaceAndConfigureUnderLoad) {
  AccountTable table(base_config());
  ShardEngine engine(table);
  runtime::InProcNetwork net(3);
  ServerOptions sopts;
  sopts.engine = &engine;
  Server server(table, net.endpoint(0), sopts);
  Client admin(net.endpoint(1), 0);
  Client load(net.endpoint(2), 0);
  net.start();
  table.clock().advance(6000);

  EXPECT_THROW(load.acquire(99, 1, 1), protocol::RpcError);

  // Reconfigure (quiesced purge) while a second client hammers acquires.
  std::atomic<bool> stop{false};
  std::thread hammer([&] {
    std::uint64_t key = 0;
    while (!stop.load()) {
      load.acquire(kDefaultNamespace, key++ % 64, 1);
    }
  });
  for (int i = 0; i < 10; ++i) {
    NamespaceConfig ns_cfg;
    ns_cfg.strategy.kind = core::StrategyKind::kGeneralized;
    ns_cfg.strategy.a_param = 1;
    ns_cfg.strategy.c_param = 4 + i;
    ns_cfg.delta_us = 2000;
    admin.configure_namespace(99, ns_cfg);
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  hammer.join();

  table.clock().advance(6000);
  EXPECT_GE(load.acquire(99, 1, 1).granted, 0);  // namespace exists now
  EXPECT_EQ(engine.quiesced([&] { return table.audit_violation(); }),
            std::nullopt);
  net.stop();
}

TEST(ShardedServer, FullQueueShedsWithTypedOverload) {
  AccountTable table(base_config());
  ShardEngineOptions eopts;
  eopts.workers = 1;
  eopts.queue_capacity = 2;  // absurdly small: force queue-full sheds
  ShardEngine engine(table, eopts);
  runtime::InProcNetwork net(2);
  ServerOptions sopts;
  sopts.engine = &engine;
  Server server(table, net.endpoint(0), sopts);
  Client client(net.endpoint(1), 0);
  net.start();
  table.clock().advance(6000);

  std::atomic<int> overloaded{0};
  std::atomic<int> completed{0};
  constexpr int kBurst = 200;
  // Issue the burst with the workers parked: the 2-slot queue cannot
  // drain, so everything past the first two ops MUST bounce — either shed
  // by the server with the typed overload or rejected by the client's
  // backoff window the first overload opened.
  engine.quiesced([&] {
    for (int i = 0; i < kBurst; ++i) {
      client.acquire_async(
          kDefaultNamespace, static_cast<std::uint64_t>(i % 16), 1,
          [&](AcquireResult, std::exception_ptr err) {
            if (err) {
              try {
                std::rethrow_exception(err);
              } catch (const protocol::OverloadedError&) {
                ++overloaded;
              } catch (...) {
              }
            }
            ++completed;
          });
    }
    // Wait (still parked) until every op that can complete without a
    // worker has: all but the queued couple.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (completed.load() < kBurst - 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  });
  ASSERT_TRUE([&] {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (completed.load() < kBurst) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(1ms);
    }
    return true;
  }());
  // With a 2-slot queue some of the burst must bounce, each answered with
  // the typed overload (client-side backoff may also reject locally
  // without touching the wire, so only inequalities hold exactly).
  EXPECT_GT(overloaded.load(), 0);
  EXPECT_LE(server.requests_served() + server.requests_shed(),
            static_cast<std::uint64_t>(kBurst));
  EXPECT_GT(server.requests_served(), 0u);
  net.stop();
}

TEST(ShardedServer, OverEpollMeshEndToEnd) {
  AccountTable table(base_config());
  ShardEngineOptions eopts;
  eopts.workers = 2;
  ShardEngine engine(table, eopts);
  runtime::EpollMesh mesh(2);
  ServerOptions sopts;
  sopts.engine = &engine;
  Server server(table, mesh.endpoint(0), sopts);
  Client client(mesh.endpoint(1), 0);
  table.clock().advance(6000);

  // Pipelined burst: many async acquires in flight at once, replies ride
  // the batched write path back.
  constexpr int kInFlight = 500;
  std::atomic<int> done_count{0};
  std::atomic<int> failures{0};
  for (int i = 0; i < kInFlight; ++i) {
    client.acquire_async(kDefaultNamespace,
                         static_cast<std::uint64_t>(i % 32), 1,
                         [&](AcquireResult, std::exception_ptr err) {
                           if (err) ++failures;
                           ++done_count;
                         });
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (done_count.load() < kInFlight &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(done_count.load(), kInFlight);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client.query(0).exists, true);
  EXPECT_EQ(engine.quiesced([&] { return table.audit_violation(); }),
            std::nullopt);
  EXPECT_EQ(server.requests_errored(), 0u);
}

}  // namespace
}  // namespace toka::service
