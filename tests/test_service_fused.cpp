// The fused data plane: ShardEngine driven by event loops instead of worker
// threads. A LoopHost stand-in lets the test thread be "the loop" and call
// run_once itself; the real EpollMesh endpoints check that a fused Server
// runs no worker thread and maps no queue ring while only its loop submits,
// that the drain hook runs at the end of the loop's pass, that a node whose
// loop has died still quiesces, drains and stops, and that an endpoint
// shutdown racing the server's teardown is safe.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "runtime/epoll.hpp"
#include "runtime/transport.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"

namespace toka::service {
namespace {

using namespace std::chrono_literals;

constexpr NamespaceId kOtherNs = 7;

ServiceConfig base_config() {
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 10;
  cfg.initial_tokens = 3;
  cfg.seed = 42;
  cfg.audit = true;
  return cfg;
}

/// One event loop played by whichever thread calls pass(): the engine sees
/// that thread as loop 0 until another thread takes the role or
/// leave_loop() is called.
class FakeLoopHost final : public runtime::LoopHost {
 public:
  std::size_t loop_count() const override { return 1; }
  std::size_t current_loop() const override {
    return std::this_thread::get_id() == loop_thread_.load() ? 0 : kNoLoop;
  }
  void wake(std::size_t /*loop*/) override { wakes_.fetch_add(1); }
  bool attach(runtime::LoopWork& work) override {
    std::lock_guard lock(mu_);
    if (work_ != nullptr) return false;
    work_ = &work;
    return true;
  }
  void detach(runtime::LoopWork& work) override {
    std::lock_guard lock(mu_);  // waits out a pass in progress
    if (work_ == &work) work_ = nullptr;
  }

  void become_loop() { loop_thread_.store(std::this_thread::get_id()); }
  void leave_loop() { loop_thread_.store(std::thread::id()); }
  /// One pass of loop 0 on the calling thread.
  void pass() {
    become_loop();
    std::lock_guard lock(mu_);
    if (work_ != nullptr) work_->on_pass(0);
  }
  std::uint64_t wakes() const { return wakes_.load(); }

 private:
  std::atomic<std::thread::id> loop_thread_{};
  std::atomic<std::uint64_t> wakes_{0};
  std::mutex mu_;
  runtime::LoopWork* work_ = nullptr;
};

struct OpResult {
  Tokens a = 0;
  Tokens b = 0;
  bool ok = true;
  friend bool operator==(const OpResult&, const OpResult&) = default;
};

/// One submitted op, remembered for the direct replay.
struct Sent {
  ShardOp::Kind kind;
  NamespaceId ns;
  std::uint64_t key;
  Tokens tokens;
  bool on_loop;
  std::size_t slot;  ///< index into the results (ops) or batches
};

TEST(FusedStep, RunOnceFromTheTestThreadMatchesDirectReplay) {
  const ServiceConfig cfg = base_config();
  AccountTable table(cfg);
  AccountTable direct(cfg);
  ASSERT_TRUE(table.configure_namespace(kOtherNs, cfg.default_namespace()));
  ASSERT_TRUE(direct.configure_namespace(kOtherNs, cfg.default_namespace()));
  table.clock().advance(6000);
  direct.clock().advance(6000);

  ShardEngineOptions opts;
  opts.workers = 2;
  ShardEngine engine(table, opts);
  std::vector<std::size_t> hook_calls(2, 0);
  engine.set_drain_hook([&](std::size_t w) { ++hook_calls[w]; });
  FakeLoopHost host;
  ASSERT_TRUE(engine.drive_from(host));
  EXPECT_EQ(engine.worker_threads(), 0u);
  EXPECT_EQ(engine.queues_allocated(), 0u);

  std::vector<Sent> sent;
  std::vector<OpResult> results(64);
  std::size_t next_slot = 0;
  const auto send = [&](ShardOp::Kind kind, NamespaceId ns, std::uint64_t key,
                        Tokens tokens) {
    ShardOp op;
    op.kind = kind;
    op.ns = ns;
    op.key = key;
    op.tokens = tokens;
    op.done = [](ShardOp& done, void* ctx) {
      *static_cast<OpResult*>(ctx) = {done.out_a, done.out_b, done.ok};
    };
    const std::size_t slot = next_slot++;
    op.ctx = &results[slot];
    sent.push_back(Sent{kind, ns, key, tokens,
                        host.current_loop() == 0, slot});
    engine.submit(op);
  };

  // On the loop: acquires on two namespaces (interleaved, so coalescing
  // breaks on the namespace switch), a refund, a query, an install and a
  // batch whose groups land on both owners.
  host.become_loop();
  for (std::uint64_t key = 0; key < 6; ++key) {
    send(ShardOp::Kind::kAcquire, kDefaultNamespace, key, 1 + key % 3);
    send(ShardOp::Kind::kAcquire, kDefaultNamespace, key + 10, 2);
    send(ShardOp::Kind::kAcquire, kOtherNs, key, 1);
  }
  send(ShardOp::Kind::kRefund, kDefaultNamespace, 3, 2);
  send(ShardOp::Kind::kQuery, kOtherNs, 2, 0);
  send(ShardOp::Kind::kInstall, kDefaultNamespace, 100, 5);
  std::vector<AcquireOp> batch_ops;
  for (std::uint64_t key = 20; key < 28; ++key)
    batch_ops.push_back(AcquireOp{key, 1});
  batch_ops.push_back(AcquireOp{0, 2});  // a key the loop already touched
  std::vector<AcquireResult> batch_results;
  sent.push_back(Sent{ShardOp::Kind::kBatchGroup, kDefaultNamespace, 0, 0,
                      true, 0});
  ASSERT_TRUE(engine.submit_batch(
      kDefaultNamespace, batch_ops,
      [](EngineBatch& done, void* ctx) {
        *static_cast<std::vector<AcquireResult>*>(ctx) = done.results;
      },
      &batch_results));
  EXPECT_EQ(engine.queues_allocated(), 0u) << "loop ops went to a queue";

  // From another thread: these go through the owners' queues.
  host.leave_loop();
  std::vector<bool> posted_to(2, false);
  for (std::uint64_t key = 0; key < 4; ++key) {
    send(ShardOp::Kind::kAcquire, kDefaultNamespace, key, 1);
    posted_to[engine.worker_of(kDefaultNamespace, key)] = true;
  }
  send(ShardOp::Kind::kRefund, kOtherNs, 1, 1);
  posted_to[engine.worker_of(kOtherNs, 1)] = true;
  EXPECT_EQ(engine.queues_allocated(),
            static_cast<std::size_t>(posted_to[0]) + posted_to[1]);
  EXPECT_GT(host.wakes(), 0u);  // the idle loop was woken

  // The test thread is the loop again and runs each owner's step.
  host.become_loop();
  std::vector<std::size_t> steps(2, 0);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t w = 0; w < 2; ++w) {
      if (engine.run_once(w) > 0) ++steps[w];
    }
  }
  EXPECT_EQ(steps[0], 1u);
  EXPECT_EQ(steps[1], 1u);
  EXPECT_EQ(hook_calls, steps) << "the drain hook runs once per non-empty step";
  host.leave_loop();
  engine.stop_driving_from(host);

  // Replay in the order the steps ran: per owner, the loop's own ops, then
  // what its queue held.
  std::vector<OpResult> want(results.size());
  std::vector<AcquireResult> want_batch(batch_ops.size());
  for (std::size_t w = 0; w < 2; ++w) {
    for (const bool from_loop : {true, false}) {
      for (const Sent& s : sent) {
        if (s.on_loop != from_loop) continue;
        if (s.kind == ShardOp::Kind::kBatchGroup) {
          std::vector<AcquireOp> slice;
          std::vector<std::size_t> where;
          for (std::size_t i = 0; i < batch_ops.size(); ++i) {
            if (engine.worker_of(s.ns, batch_ops[i].key) != w) continue;
            slice.push_back(batch_ops[i]);
            where.push_back(i);
          }
          const auto res = direct.acquire_batch(s.ns, slice);
          for (std::size_t i = 0; i < res.size(); ++i)
            want_batch[where[i]] = res[i];
          continue;
        }
        if (engine.worker_of(s.ns, s.key) != w) continue;
        OpResult& r = want[s.slot];
        switch (s.kind) {
          case ShardOp::Kind::kAcquire: {
            const AcquireResult res = direct.acquire(s.ns, s.key, s.tokens);
            r = {res.granted, res.balance, true};
            break;
          }
          case ShardOp::Kind::kRefund: {
            const RefundResult res = direct.refund(s.ns, s.key, s.tokens);
            r = {res.accepted, res.balance, true};
            break;
          }
          case ShardOp::Kind::kQuery: {
            const QueryResult res = direct.query(s.ns, s.key);
            r = {res.balance, res.exists ? 1 : 0, true};
            break;
          }
          case ShardOp::Kind::kInstall:
            r = {direct.install_account(s.ns, s.key, s.tokens) ? 1 : 0, 0,
                 true};
            break;
          case ShardOp::Kind::kBatchGroup:
            break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < next_slot; ++i)
    EXPECT_EQ(results[i], want[i]) << "op " << i;
  ASSERT_EQ(batch_results.size(), batch_ops.size());
  for (std::size_t i = 0; i < batch_ops.size(); ++i) {
    EXPECT_EQ(batch_results[i].granted, want_batch[i].granted) << "batch " << i;
    EXPECT_EQ(batch_results[i].balance, want_batch[i].balance) << "batch " << i;
  }
  EXPECT_EQ(results[next_slot - 1 - 5].a, 1) << "the install took";
  const TableStats got = engine.quiesced([&] { return table.stats(); });
  EXPECT_TRUE(got == direct.stats());
  EXPECT_EQ(engine.quiesced([&] { return table.audit_violation(); }),
            std::nullopt);
}

TEST(FusedStep, DrainAndDriveFromAreRefusedOnTheDrivingLoop) {
  AccountTable table(base_config());
  ShardEngine engine(table, {.workers = 2});
  FakeLoopHost host;
  ASSERT_TRUE(engine.drive_from(host));
  FakeLoopHost other;
  EXPECT_FALSE(engine.drive_from(other)) << "one host drives at a time";
  host.become_loop();
  EXPECT_THROW(engine.drain(), util::InvariantError);
  EXPECT_THROW(engine.drive_from(host), util::InvariantError);
  // quiesced() keeps its contract on the loop: its own owners count as
  // parked, so it returns instead of waiting on itself.
  EXPECT_EQ(engine.quiesced([] { return 5; }), 5);
  host.leave_loop();
  engine.stop_driving_from(host);
}

// Producers keep submitting while the engine moves between the thread
// driver and a loop and back; no op is lost or run twice (and, under TSan,
// no shard has two accessors).
TEST(FusedStep, SubmitsRacingTheDriverSwitchAllComplete) {
  AccountTable table(base_config());
  ShardEngine engine(table, {.workers = 2});
  FakeLoopHost host;
  std::atomic<bool> stop_loop{false};
  std::thread loop([&] {
    while (!stop_loop.load()) {
      host.pass();
      std::this_thread::sleep_for(20us);
    }
  });
  constexpr int kProducers = 2;
  constexpr int kOps = 20000;
  std::atomic<int> done{0};
  std::atomic<int> producers_left{kProducers};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kOps; ++i) {
        ShardOp op;
        op.key = static_cast<std::uint64_t>((p * kOps + i) % 64);
        op.tokens = 0;
        op.done = [](ShardOp&, void* ctx) {
          static_cast<std::atomic<int>*>(ctx)->fetch_add(1);
        };
        op.ctx = &done;
        engine.submit(op);
      }
      producers_left.fetch_sub(1);
    });
  }
  int switches = 0;
  while (producers_left.load() > 0 || switches < 20) {
    ASSERT_TRUE(engine.drive_from(host));
    std::this_thread::sleep_for(200us);
    engine.stop_driving_from(host);
    std::this_thread::sleep_for(200us);
    ++switches;
  }
  for (std::thread& t : producers) t.join();
  engine.drain();
  EXPECT_EQ(done.load(), kProducers * kOps);
  stop_loop.store(true);
  loop.join();
  EXPECT_EQ(engine.quiesced([&] { return table.stats().acquires; }),
            static_cast<std::uint64_t>(kProducers * kOps));
}

// ------------------------------------------------------- over the epoll mesh

/// One server endpoint with one loop, so both owners run on it.
struct FusedStack {
  explicit FusedStack(obs::Registry* registry = nullptr)
      : table(base_config()), mesh(2, /*io_threads=*/1) {
    engine = std::make_unique<ShardEngine>(table, ShardEngineOptions{.workers = 2});
    ServerOptions sopts;
    sopts.engine = engine.get();
    sopts.registry = registry;
    server = std::make_unique<Server>(table, mesh.endpoint(0), sopts);
    table.clock().advance(6000);
  }
  ~FusedStack() {
    server.reset();
    engine.reset();
  }

  AccountTable table;
  runtime::EpollMesh mesh;
  std::unique_ptr<ShardEngine> engine;
  std::unique_ptr<Server> server;
};

TEST(FusedServer, RunsNoWorkerThreadAndNoRingWhileOnlyItsLoopSubmits) {
  obs::Registry registry;  // the stats frame renders the swept gauges
  FusedStack stack(&registry);
  Client client(stack.mesh.endpoint(1), 0);
  EXPECT_EQ(stack.engine->worker_threads(), 0u);
  constexpr int kInFlight = 400;
  std::atomic<int> replies{0};
  for (int i = 0; i < kInFlight; ++i) {
    client.acquire_async(kDefaultNamespace, static_cast<std::uint64_t>(i % 40),
                         1, [&](AcquireResult, std::exception_ptr err) {
                           if (!err) replies.fetch_add(1);
                         });
  }
  std::vector<AcquireOp> ops;
  for (std::uint64_t key = 0; key < 64; ++key) ops.push_back(AcquireOp{key, 0});
  EXPECT_EQ(client.acquire_batch(kDefaultNamespace, ops).size(), ops.size());
  EXPECT_EQ(client.refund(kDefaultNamespace, 3, 1).accepted >= 0, true);
  EXPECT_TRUE(client.query(kDefaultNamespace, 3).exists);
  // Admin and stats frames quiesce the engine from the loop that drives
  // it.
  NamespaceConfig other = stack.table.config().default_namespace();
  EXPECT_TRUE(client.configure_namespace(kOtherNs, other));
  EXPECT_EQ(client.acquire(kOtherNs, 1, 1).granted, 1);
  EXPECT_FALSE(client.stats().empty());
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (replies.load() < kInFlight && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(replies.load(), kInFlight);
  EXPECT_EQ(stack.engine->worker_threads(), 0u);
  EXPECT_EQ(stack.engine->queues_allocated(), 0u);
  EXPECT_EQ(stack.server->requests_errored(), 0u);
}

TEST(FusedServer, DrainHookRunsAtTheEndOfTheLoopPass) {
  FusedStack stack;
  Client client(stack.mesh.endpoint(1), 0);
  std::atomic<int> calls{0};
  std::atomic<bool> off_loop{false};
  const std::thread::id test_thread = std::this_thread::get_id();
  stack.engine->set_drain_hook([&](std::size_t) {
    calls.fetch_add(1);
    if (std::this_thread::get_id() == test_thread) off_loop.store(true);
  });
  for (std::uint64_t key = 0; key < 20; ++key)
    client.acquire(kDefaultNamespace, key, 1);
  EXPECT_GE(calls.load(), 1) << "the loop's pass ran ops but not the hook";
  EXPECT_FALSE(off_loop.load());
  stack.engine->set_drain_hook({});
}

TEST(FusedServer, ANodeWhoseLoopDiedStillQuiescesDrainsAndStops) {
  obs::Registry registry;
  FusedStack stack(&registry);
  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::thread load;
  {
    Client client(stack.mesh.endpoint(1), 0);
    load = std::thread([&] {
      std::uint64_t key = 0;
      while (!stop.load()) {
        client.acquire_async(kDefaultNamespace, key++ % 500, 1,
                             [&](AcquireResult, std::exception_ptr err) {
                               if (!err) answered.fetch_add(1);
                             });
        if (key % 64 == 0) std::this_thread::sleep_for(100us);
      }
    });
    const auto warm = std::chrono::steady_clock::now() + 10s;
    while (answered.load() < 200 && std::chrono::steady_clock::now() < warm)
      std::this_thread::sleep_for(1ms);
    ASSERT_GE(answered.load(), 200);

    stack.mesh.shutdown_endpoint(0);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_GT(stack.engine->quiesced([&] { return stack.table.account_count(); }),
              0u);
    stack.engine->drain();
    EXPECT_NE(registry.render_prometheus().find("tokend"), std::string::npos);
    // An op from another thread after the loop died starts the workers.
    std::atomic<bool> ran{false};
    ShardOp op;
    op.key = 1;
    op.done = [](ShardOp&, void* ctx) {
      static_cast<std::atomic<bool>*>(ctx)->store(true);
    };
    op.ctx = &ran;
    stack.engine->submit(op);
    stack.engine->drain();
    EXPECT_TRUE(ran.load());
    EXPECT_EQ(stack.engine->worker_threads(), 2u);
    stop.store(true);
    load.join();
    stack.server.reset();
    stack.engine.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
  }
}

TEST(FusedServer, EndpointShutdownRacesServerTeardown) {
  for (int round = 0; round < 10; ++round) {
    FusedStack stack;
    {
      Client client(stack.mesh.endpoint(1), 0);
      for (std::uint64_t key = 0; key < 8; ++key)
        client.acquire(kDefaultNamespace, key, 1);
    }
    std::thread killer([&] { stack.mesh.shutdown_endpoint(0); });
    stack.server.reset();
    stack.engine.reset();
    killer.join();
  }
}

}  // namespace
}  // namespace toka::service
