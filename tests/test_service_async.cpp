// The v2 client's async core: pipelined futures and callbacks, the timeout
// wheel (slot reclamation, straggler replies after a timeout, per-call
// deadlines), and destruction with calls outstanding. Runs under TSan in
// CI (the ^test_service regex), so the straggler/shutdown races are
// exercised with the race detector on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/epoll.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"

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

TEST(ClientAsync, ManyFuturesInFlightAllComplete) {
  AccountTable table(simple_config(10));
  table.acquire(7, 0);  // before the engine owns the shards
  table.clock().advance(5000);  // key 7 banks 5 tokens
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();

  // Pipelining: issue every call before harvesting any result.
  std::vector<std::future<AcquireResult>> futures;
  for (int i = 0; i < 200; ++i)
    futures.push_back(client.acquire_async(kDefaultNamespace, 7, 1));
  Tokens granted = 0;
  for (auto& f : futures) granted += f.get().granted;
  EXPECT_EQ(granted, 5);
  EXPECT_EQ(server.requests_served(), 200u);
  EXPECT_EQ(client.inflight(), 0u);
  net.stop();
}

TEST(ClientAsync, CallbackRunsWithResult) {
  AccountTable table(simple_config(4));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();

  std::promise<AcquireResult> relay;
  client.acquire_async(kDefaultNamespace, 1, 0,
                       [&relay](AcquireResult res, std::exception_ptr err) {
                         EXPECT_EQ(err, nullptr);
                         relay.set_value(res);
                       });
  EXPECT_EQ(relay.get_future().get().granted, 0);
  net.stop();
}

TEST(ClientAsync, TimeoutRejectsFutureAndReclaimsSlot) {
  runtime::InProcNetwork net(2);  // nobody listens on endpoint 0
  Client client(net.endpoint(1), 0, /*timeout_us=*/20'000);
  net.start();
  std::future<AcquireResult> future = client.acquire_async(kDefaultNamespace, 1, 1);
  EXPECT_EQ(client.inflight(), 1u);
  EXPECT_THROW(future.get(), util::IoError);
  EXPECT_EQ(client.timeouts(), 1u);
  EXPECT_EQ(client.inflight(), 0u);  // the wheel reclaimed the slot
  net.stop();
}

TEST(ClientAsync, SyncWrapperStillThrowsOnTimeout) {
  runtime::InProcNetwork net(2);
  Client client(net.endpoint(1), 0, /*timeout_us=*/20'000);
  net.start();
  EXPECT_THROW(client.acquire(1, 1), util::IoError);
  EXPECT_EQ(client.timeouts(), 1u);
  net.stop();
}

TEST(ClientAsync, StragglerReplyAfterTimeoutIsDropped) {
  // The fabric delays every delivery by 500 ms while the call's deadline
  // is 20 ms: the call must time out (and its slot be reclaimed) long
  // before the reply arrives; the straggler must then be dropped without
  // touching the dead slot, and later calls must be unaffected. Expiry is
  // forced through expire_overdue() after the deadline has passed, so the
  // test cannot flake on sweeper-thread scheduling under TSan.
  AccountTable table(simple_config(4));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2, /*latency_us=*/500'000);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0, /*timeout_us=*/20'000);
  net.start();

  std::future<AcquireResult> doomed =
      client.acquire_async(kDefaultNamespace, 3, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  client.expire_overdue();  // deadline long past; reply still 400+ ms away
  EXPECT_THROW(doomed.get(), util::IoError);
  EXPECT_EQ(client.timeouts(), 1u);
  EXPECT_EQ(client.inflight(), 0u);
  net.drain();  // the stale reply is delivered (and dropped) in here
  // A fresh call with a roomy per-call deadline completes normally.
  std::future<AcquireResult> retry = client.acquire_async(
      kDefaultNamespace, 3, 0, /*timeout_us=*/30 * duration::kSecond);
  EXPECT_EQ(retry.get().granted, 0);
  EXPECT_EQ(client.timeouts(), 1u);
  net.stop();
}

TEST(ClientAsync, DeadlineShorterThanOneWheelTickStillExpires) {
  // A 10 s default timeout clamps the wheel tick to 50 ms, so a 20 ms
  // per-call deadline arms into a slot whose tick may already have been
  // swept. The sweep re-scans the last swept tick, so the call must still
  // expire within ~one tick — not a 256-tick wheel rotation later.
  runtime::InProcNetwork net(2);  // no server: the call can only time out
  Client client(net.endpoint(1), 0, /*timeout_us=*/10 * duration::kSecond);
  net.start();
  // Land mid-tick deliberately (the sweeper has swept tick 1 by ~50 ms).
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  std::future<AcquireResult> future =
      client.acquire_async(kDefaultNamespace, 1, 1, /*timeout_us=*/20'000);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  client.expire_overdue();  // deterministic under sanitizer slowdown
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_THROW(future.get(), util::IoError);
  EXPECT_EQ(client.timeouts(), 1u);
  EXPECT_EQ(client.inflight(), 0u);
  net.stop();
}

TEST(ClientAsync, PerCallDeadlineOverridesDefault) {
  runtime::InProcNetwork net(2);  // no server: every call must time out
  Client client(net.endpoint(1), 0, /*timeout_us=*/10 * duration::kSecond);
  net.start();
  const auto t0 = std::chrono::steady_clock::now();
  std::future<AcquireResult> future =
      client.acquire_async(kDefaultNamespace, 1, 1, /*timeout_us=*/20'000);
  EXPECT_THROW(future.get(), util::IoError);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  // Rejected by the per-call deadline, orders of magnitude before the
  // 10 s client default (wheel granularity adds at most a few ticks).
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(client.timeouts(), 1u);
  net.stop();
}

TEST(ClientAsync, DestructionRejectsOutstandingCalls) {
  runtime::InProcNetwork net(2);  // no server: the call would hang forever
  net.start();
  std::future<AcquireResult> orphan;
  {
    Client client(net.endpoint(1), 0, /*timeout_us=*/10 * duration::kSecond);
    orphan = client.acquire_async(kDefaultNamespace, 1, 1);
  }
  // Rejected with IoError by ~Client, not std::future_error.
  EXPECT_THROW(orphan.get(), util::IoError);
  net.stop();
}

TEST(ClientAsync, TypedErrorsSurfaceAsRpcError) {
  AccountTable table(simple_config(4));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();

  try {
    client.acquire(/*ns=*/42, 1, 1);  // namespace 42 was never configured
    FAIL() << "expected RpcError";
  } catch (const protocol::RpcError& e) {
    EXPECT_EQ(e.code(), protocol::ErrorCode::kUnknownNamespace);
  }
  EXPECT_EQ(server.requests_errored(), 1u);
  EXPECT_EQ(server.requests_served(), 0u);
  net.stop();
}

TEST(ClientAsync, ConcurrentMixedSyncAndAsyncCallers) {
  // Several application threads share one client: sync wrappers, futures
  // and callbacks interleaved, all over one endpoint. Counters must add
  // up and nothing may deadlock (TSan covers the rest).
  AccountTable table(simple_config(8, /*delta=*/500));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();
  ClockDriver driver(table, /*resolution_us=*/500);
  driver.start();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 100;
  std::atomic<int> callbacks_run{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<AcquireResult>> futures;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = (t * 31 + i) % 16;
        switch (i % 3) {
          case 0:
            client.acquire(key, 1);
            break;
          case 1:
            futures.push_back(client.acquire_async(kDefaultNamespace, key, 1));
            break;
          default:
            client.acquire_async(kDefaultNamespace, key, 1,
                                 [&callbacks_run](AcquireResult,
                                                  std::exception_ptr err) {
                                   if (err == nullptr) ++callbacks_run;
                                 });
            break;
        }
      }
      for (auto& f : futures) f.get();
    });
  }
  for (auto& t : threads) t.join();
  // Drain the fire-and-forget callbacks before asserting.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.inflight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  driver.stop();
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_EQ(callbacks_run.load(), kThreads * (kOpsPerThread / 3));
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(client.timeouts(), 0u);
  net.stop();
}

TEST(ClientAsync, ServerDeathRejectsInFlightCallsImmediately) {
  // The kill-server-mid-flight case: calls parked on a server that stops
  // answering must fail the moment the fabric reports the connection
  // closed — as typed IoErrors — instead of each ripening into its own
  // (here deliberately huge) timeout.
  runtime::EpollMesh mesh(2);
  AccountTable table(simple_config(10));
  ShardEngine engine(table);
  auto server = std::make_unique<Server>(
      table, mesh.endpoint(0), ServerOptions{.engine = &engine});
  Client client(mesh.endpoint(1), 0, /*timeout_us=*/60 * duration::kSecond);

  // One round trip establishes both directions of the conversation.
  EXPECT_EQ(client.acquire(1, 0).granted, 0);

  // The server stops answering but the sockets stay up: calls sit in
  // flight.
  server.reset();
  std::vector<std::future<AcquireResult>> stuck;
  for (int i = 0; i < 8; ++i)
    stuck.push_back(client.acquire_async(kDefaultNamespace, 1, 0));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(client.inflight(), 8u);

  // Kill the server's endpoint: its sockets close, the client's fabric
  // observes it, and every future rejects far inside the 60s deadline.
  const auto killed_at = std::chrono::steady_clock::now();
  mesh.shutdown_endpoint(0);
  for (auto& future : stuck) {
    try {
      future.get();
      FAIL() << "a call to a dead server succeeded";
    } catch (const util::IoError& error) {
      EXPECT_NE(std::string(error.what()).find("connection closed"),
                std::string::npos)
          << error.what();
    }
  }
  const auto waited = std::chrono::steady_clock::now() - killed_at;
  EXPECT_LT(waited, std::chrono::seconds(10));
  EXPECT_GE(client.disconnects(), 1u);
  EXPECT_EQ(client.inflight(), 0u);
  EXPECT_EQ(client.timeouts(), 0u);  // fail-fast, not timed out
}

TEST(ClientAsync, CallsToANeverUpServerFailFastOverTcp) {
  // The connect-refused flavour: the server's endpoint is already gone
  // before the first call, so the failed connect itself reports the peer
  // down and the just-registered call rejects without waiting.
  runtime::EpollMesh mesh(2);
  mesh.shutdown_endpoint(0);
  Client client(mesh.endpoint(1), 0, /*timeout_us=*/60 * duration::kSecond);
  const auto started = std::chrono::steady_clock::now();
  EXPECT_THROW(client.acquire(1, 1), util::IoError);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
  EXPECT_GE(client.disconnects(), 1u);
}

TEST(ClientAsync, ACallIssuedFromAPeerDownCompletionFailsFast) {
  // A completion that runs because the server is down issues another call
  // to the same server. The transport reports peer-down from its loop, not
  // from inside the failed send, so the nested call's failure is reported
  // too and it rejects at once instead of ripening into its timeout.
  runtime::EpollMesh mesh(2);
  mesh.shutdown_endpoint(0);
  // The nested call's error message, copied on the thread that completes
  // it: the exception object dies there, so the test thread reads a copy.
  std::promise<std::string> nested;
  Client client(mesh.endpoint(1), 0, /*timeout_us=*/60 * duration::kSecond);
  const auto started = std::chrono::steady_clock::now();
  client.acquire_async(
      kDefaultNamespace, 1, 1, [&](AcquireResult, std::exception_ptr error) {
        EXPECT_NE(error, nullptr);
        client.acquire_async(
            kDefaultNamespace, 2, 1,
            [&](AcquireResult, std::exception_ptr inner) {
              std::string what = "no error";
              try {
                if (inner) std::rethrow_exception(inner);
              } catch (const util::IoError& e) {
                what = e.what();
              } catch (...) {
                what = "not an IoError";
              }
              nested.set_value(what);
            });
      });
  std::future<std::string> done = nested.get_future();
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
  const std::string what = done.get();
  EXPECT_NE(what.find("connection closed"), std::string::npos) << what;
  EXPECT_GE(client.disconnects(), 2u);
  EXPECT_EQ(client.timeouts(), 0u);
}

TEST(ClientAsync, PipelinedFuturesOverTcp) {
  AccountTable table(simple_config(10));
  table.acquire(1, 0);  // before the engine owns the shards
  table.clock().advance(10'000);
  ShardEngine engine(table);
  runtime::EpollMesh mesh(2);
  Server server(table, mesh.endpoint(0), {.engine = &engine});
  Client client(mesh.endpoint(1), 0);

  std::vector<std::future<AcquireResult>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(client.acquire_async(kDefaultNamespace, 1, 1));
  Tokens granted = 0;
  for (auto& f : futures) granted += f.get().granted;
  EXPECT_EQ(granted, 10);  // exactly the banked capacity
  EXPECT_EQ(server.requests_served(), 64u);
}

}  // namespace
}  // namespace toka::service
