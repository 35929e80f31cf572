// End-to-end tokend: an AccountTable and its ShardEngine behind
// Server/Client over the in-process fabric and over real TCP sockets (the
// epoll mesh), including the §3.4 burst-bound audit of every key under
// concurrent refunding clients.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "runtime/epoll.hpp"
#include "runtime/framing.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"
#include "util/serde.hpp"

namespace toka::service {
namespace {

ServiceConfig generalized_config(Tokens a, Tokens c, TimeUs delta) {
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = delta;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = a;
  cfg.strategy.c_param = c;
  return cfg;
}

/// Engine sized for concurrent clients: at least two workers, so submitters
/// on different shards really do run in parallel.
ShardEngineOptions two_workers() {
  ShardEngineOptions opts;
  opts.workers = 2;
  return opts;
}

TEST(ServiceEndToEnd, InprocAcquireRefundQuery) {
  ServiceConfig cfg = generalized_config(2, 10, 1000);
  AccountTable table(cfg);
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
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
  EXPECT_EQ(server.requests_served(), 5u);
  net.stop();
}

TEST(ServiceEndToEnd, InprocBatchAcquire) {
  AccountTable table(generalized_config(1, 8, 1000));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();

  std::vector<AcquireOp> warm;
  for (std::uint64_t key = 0; key < 16; ++key) warm.push_back({key, 0});
  client.acquire_batch(warm);
  table.clock().advance(4000);
  std::vector<AcquireOp> ops;
  for (std::uint64_t key = 0; key < 16; ++key) ops.push_back({key, 2});
  const std::vector<AcquireResult> res = client.acquire_batch(ops);
  ASSERT_EQ(res.size(), ops.size());
  for (const AcquireResult& r : res) EXPECT_EQ(r.granted, 2);
  EXPECT_EQ(engine.quiesced([&] { return table.stats().tokens_granted; }),
            32u);
  net.stop();
}

TEST(ServiceEndToEnd, MalformedFramesAreCountedAndSkipped) {
  AccountTable table(generalized_config(1, 8, 1000));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();

  std::vector<std::byte> garbage{std::byte{0xFF}, std::byte{0x01}};
  net.endpoint(1).send(0, garbage);
  // drain() only waits for the queue to empty; the dispatcher may still be
  // inside the delivery, so poll for the counter.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.requests_malformed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(server.requests_malformed(), 1u);
  EXPECT_EQ(server.requests_errored(), 0u);  // no header: no typed answer
  // The server keeps serving after a malformed frame.
  EXPECT_EQ(client.acquire(1, 0).granted, 0);
  EXPECT_EQ(server.requests_served(), 1u);
  net.stop();
}

TEST(ServiceEndToEnd, BadBodyWithValidHeaderGetsTypedErrorResponse) {
  AccountTable table(generalized_config(1, 8, 1000));
  ShardEngine engine(table);
  runtime::InProcNetwork net(3);
  Server server(table, net.endpoint(0), {.engine = &engine});

  // Endpoint 2 is a raw observer: it crafts a frame whose header decodes
  // (v2, acquire, id 77) but whose body is garbage, and captures the reply.
  std::promise<protocol::Response> reply;
  net.endpoint(2).set_handler(
      [&reply](NodeId from, std::vector<std::byte> payload) {
        if (from == 0) reply.set_value(protocol::decode_response(payload));
      });
  net.start();

  std::vector<std::byte> frame = protocol::encode(protocol::AcquireRequest{77, 1, 1});
  frame.resize(frame.size() - 3);  // truncate the body, keep the header
  net.endpoint(2).send(0, frame);

  const protocol::Response got = reply.get_future().get();
  ASSERT_TRUE(std::holds_alternative<protocol::ErrorResponse>(got));
  const auto& err = std::get<protocol::ErrorResponse>(got);
  EXPECT_EQ(err.id, 77u);
  EXPECT_EQ(err.code, protocol::ErrorCode::kMalformedBody);
  EXPECT_EQ(server.requests_errored(), 1u);
  EXPECT_EQ(server.requests_malformed(), 0u);
  EXPECT_EQ(server.requests_served(), 0u);
  net.stop();
}

TEST(ServiceEndToEnd, NamespacesConfiguredAndServedOverTheWire) {
  AccountTable table(generalized_config(2, 10, 1000));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();

  // Create a second namespace with a tighter token-bucket policy.
  NamespaceConfig bulk;
  bulk.strategy.kind = core::StrategyKind::kTokenBucket;
  bulk.strategy.c_param = 2;
  bulk.delta_us = 1000;
  EXPECT_TRUE(client.configure_namespace(5, bulk));
  EXPECT_FALSE(client.configure_namespace(5, bulk));  // reset, not created

  client.acquire(5, 9, 0);
  client.acquire(9, 0);  // same key, default namespace
  table.clock().advance(6000);
  EXPECT_EQ(client.acquire(5, 9, 100).granted, 2);   // bucket cap
  EXPECT_EQ(client.acquire(9, 100).granted, 6);      // default C=10

  const auto info = client.namespace_info(5);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->config, bulk);
  EXPECT_EQ(info->capacity, 2);
  EXPECT_EQ(info->accounts, 1u);
  EXPECT_FALSE(client.namespace_info(6).has_value());

  // Invalid policies come back as typed errors, not server crashes.
  NamespaceConfig unbounded;
  unbounded.strategy.kind = core::StrategyKind::kPureReactive;
  try {
    client.configure_namespace(6, unbounded);
    FAIL() << "expected RpcError";
  } catch (const protocol::RpcError& e) {
    EXPECT_EQ(e.code(), protocol::ErrorCode::kInvalidConfig);
  }
  EXPECT_FALSE(client.namespace_info(6).has_value());
  net.stop();
}

TEST(ServiceEndToEnd, NamespacePastTheTableLimitIsAnInvalidConfig) {
  // The table holds at most 65,535 namespaces; the one after them comes
  // back as kInvalidConfig, and the namespaces and accounts already there
  // keep serving as before.
  AccountTable table(generalized_config(2, 10, 1000));
  NamespaceConfig bucket;
  bucket.strategy.kind = core::StrategyKind::kTokenBucket;
  bucket.strategy.c_param = 2;
  bucket.delta_us = 1000;
  bucket.initial_tokens = 2;
  for (NamespaceId id = 1; table.namespace_count() < AccountTable::kMaxNamespaces;
       ++id)
    ASSERT_TRUE(table.configure_namespace(id, bucket));
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Server server(table, net.endpoint(0), {.engine = &engine});
  Client client(net.endpoint(1), 0);
  net.start();

  EXPECT_EQ(client.acquire(7, 1, 1).granted, 1);
  try {
    client.configure_namespace(100'000, bucket);
    FAIL() << "expected RpcError";
  } catch (const protocol::RpcError& e) {
    EXPECT_EQ(e.code(), protocol::ErrorCode::kInvalidConfig);
  }
  EXPECT_FALSE(client.namespace_info(100'000).has_value());
  EXPECT_EQ(client.query(7, 1).balance, 1);
  EXPECT_EQ(client.acquire(7, 1, 5).granted, 1);
  const auto info = client.namespace_info(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->config, bucket);
  EXPECT_EQ(info->accounts, 1u);
  EXPECT_EQ(table.namespace_count(), 65'535u);
  net.stop();
}

TEST(ServiceEndToEnd, ServerRequiresAnEngineOnItsTable) {
  AccountTable table(generalized_config(1, 8, 1000));
  AccountTable other(generalized_config(1, 8, 1000));
  ShardEngine engine(other);
  runtime::InProcNetwork net(1);
  EXPECT_THROW({ Server server(table, net.endpoint(0)); },
               util::InvariantError);
  EXPECT_THROW(
      { Server server(table, net.endpoint(0), {.engine = &engine}); },
      util::InvariantError);
}

TEST(ServiceEndToEnd, CallWithoutServerTimesOut) {
  runtime::InProcNetwork net(2);  // nobody listens on endpoint 0
  Client client(net.endpoint(1), 0, /*timeout_us=*/20'000);
  net.start();
  EXPECT_THROW(client.acquire(1, 1), util::IoError);
  EXPECT_EQ(client.timeouts(), 1u);
  net.stop();
}

TEST(ServiceEndToEnd, TcpRoundTrip) {
  AccountTable table(generalized_config(2, 6, 1000));
  table.acquire(3, 0);  // create before the engine owns the shards
  table.clock().advance(4000);  // then let tokens accrue
  ShardEngine engine(table);
  runtime::EpollMesh mesh(2);
  Server server(table, mesh.endpoint(0), {.engine = &engine});
  Client client(mesh.endpoint(1), 0);

  EXPECT_EQ(client.acquire(3, 2).granted, 2);
  EXPECT_EQ(client.query(3).balance, 2);
  EXPECT_EQ(client.refund(3, 1).accepted, 1);
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(ServiceEndToEnd, Version1FrameOverTheSocketIsDroppedAsMalformed) {
  // Protocol version 1 is retired: a live server must treat a frame laid
  // out the old way (no namespace field) as garbage — no reply, one
  // malformed count, no table effect.
  constexpr std::uint64_t kKey = 3;
  AccountTable table(generalized_config(2, 6, 1000));
  table.acquire(kKey, 0);  // create before the engine owns the shards
  table.clock().advance(4000);
  ShardEngine engine(table);
  // Endpoint 1 is the identity the raw frame claims: it only counts what
  // the server sends it. Endpoint 2 is an ordinary client.
  runtime::EpollMesh mesh(3);
  Server server(table, mesh.endpoint(0), {.engine = &engine});
  std::atomic<int> replies{0};
  mesh.endpoint(1).set_handler(
      [&](NodeId, std::vector<std::byte>) { replies.fetch_add(1); });
  Client client(mesh.endpoint(2), 0);
  const Tokens balance = client.query(kKey).balance;
  ASSERT_GT(balance, 0);

  util::BinaryWriter v1;
  v1.u8(1);  // version byte 1
  v1.u8(static_cast<std::uint8_t>(protocol::MsgType::kAcquire));
  v1.u64(77);    // request id
  v1.u64(kKey);  // key, where version 2 puts the namespace
  v1.i64(1);     // tokens
  std::vector<std::uint8_t> wire;
  runtime::append_frame(wire, /*from=*/1, v1.data());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(mesh.port_of(0));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.requests_malformed() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.requests_malformed(), 1u);
  // Any answer would have gone out on this loop iteration; give it time
  // to arrive anyway.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(replies.load(), 0);
  char byte = 0;
  EXPECT_LT(::recv(fd, &byte, 1, MSG_DONTWAIT), 0);  // nothing on the socket
  EXPECT_EQ(server.requests_errored(), 0u);  // not even a typed error
  EXPECT_EQ(client.query(kKey).balance, balance);
  EXPECT_EQ(server.requests_served(), 2u);  // the two queries
  ::close(fd);
}

TEST(ServiceEndToEnd, ConcurrentClientsManyKeys) {
  // Several client threads over their own endpoints, contending on a small
  // key space while the clock runs: the table must conserve tokens
  // (granted <= banked + initial) for every key.
  constexpr int kClients = 4;
  constexpr Tokens kCap = 8;
  ServiceConfig cfg = generalized_config(1, kCap, 500);
  AccountTable table(cfg);
  ShardEngine engine(table, two_workers());
  runtime::InProcNetwork net(1 + kClients);
  Server server(table, net.endpoint(0), {.engine = &engine});
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c)
    clients.push_back(std::make_unique<Client>(net.endpoint(1 + c), 0));
  net.start();
  ClockDriver driver(table, /*resolution_us=*/500);
  driver.start();

  std::atomic<std::int64_t> granted{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < 200; ++i) {
        granted += clients[c]->acquire((c + i) % 8, 1).granted;
      }
    });
  }
  for (auto& t : threads) t.join();
  driver.stop();
  net.stop();

  const TableStats stats = engine.quiesced([&] { return table.stats(); });
  EXPECT_EQ(stats.acquires, static_cast<std::uint64_t>(kClients) * 200);
  EXPECT_EQ(stats.tokens_granted, static_cast<std::uint64_t>(granted.load()));
  // Conservation: every granted token was banked by some elapsed tick.
  const std::uint64_t ticks_elapsed =
      static_cast<std::uint64_t>(table.clock().now_us() / cfg.delta_us + 1);
  EXPECT_LE(stats.tokens_granted, 8 * (ticks_elapsed + kCap));
}

TEST(ServiceEndToEnd, AuditedAccountsHoldTheBurstBoundUnderConcurrency) {
  // The §3.4 satellite: with every key checked in the service path, a
  // served account must never exceed ceil(t/Δ)+C sends in any window even
  // with concurrent clients hammering it through the wire protocol while
  // the coarse clock advances — now per namespace: the default namespace
  // and a runtime-configured one (different Δ, C and strategy) are audited
  // independently against their own bounds.
  constexpr int kClients = 4;
  ServiceConfig cfg = generalized_config(2, 6, /*delta=*/2000);
  cfg.audit = true;
  cfg.initial_tokens = 3;
  AccountTable table(cfg);
  NamespaceConfig bulk;
  bulk.strategy.kind = core::StrategyKind::kSimple;
  bulk.strategy.c_param = 2;
  bulk.delta_us = 1000;
  bulk.audit = true;
  ASSERT_TRUE(table.configure_namespace(1, bulk));
  ShardEngine engine(table, two_workers());
  runtime::InProcNetwork net(1 + kClients);
  Server server(table, net.endpoint(0), {.engine = &engine});
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c)
    clients.push_back(std::make_unique<Client>(net.endpoint(1 + c), 0));
  net.start();
  ClockDriver driver(table, /*resolution_us=*/500);
  driver.start();

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // All clients fight over 4 keys in two namespaces with oversized
      // requests — the worst case for over-granting — and refund part of
      // what they got (a refunded admission is struck from the key's
      // check, so re-granting it later must not read as a violation).
      for (int i = 0; i < 150; ++i) {
        const NamespaceId ns = i % 2;
        const AcquireResult res = clients[c]->acquire(ns, i % 4, 3);
        if (res.granted > 0 && i % 3 == 0) {
          clients[c]->refund(ns, i % 4, 1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  driver.stop();
  net.stop();

  engine.quiesced([&] {
    EXPECT_GT(table.stats(0).tokens_granted, 0u);
    EXPECT_GT(table.stats(1).tokens_granted, 0u);
    const std::optional<std::string> violation = table.audit_violation();
    EXPECT_FALSE(violation.has_value()) << *violation;
  });
}

}  // namespace
}  // namespace toka::service
