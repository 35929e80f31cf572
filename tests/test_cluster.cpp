// The tokad cluster layer: HashRing placement properties, the cluster
// protocol vocabulary, AccountTable handoff primitives, ClusterServer
// redirect/apply-map/handoff behaviour and ClusterClient routing+retry —
// all over the in-process fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"

namespace toka::cluster {
namespace {

namespace proto = service::protocol;

service::ServiceConfig node_config(Tokens a, Tokens c, TimeUs delta) {
  service::ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = delta;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = a;
  cfg.strategy.c_param = c;
  return cfg;
}

/// Polls `pred` until it holds or ~2s elapse.
bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// A key whose ring owner under `ring` is `owner` (search from `start`).
std::uint64_t key_owned_by(const HashRing& ring, NodeId owner,
                           std::uint64_t start = 0) {
  for (std::uint64_t key = start; key < start + 100'000; ++key) {
    if (ring.owner(service::kDefaultNamespace, key) == owner) return key;
  }
  ADD_FAILURE() << "no key owned by node " << owner;
  return 0;
}

// --------------------------------------------------------------- HashRing

TEST(HashRing, EmptyRingOwnsNothing) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.owner(0, 42), kNoNode);
  HashRing from_map{ClusterMap{7, 64, {}}};
  EXPECT_EQ(from_map.owner(3, 42), kNoNode);
}

TEST(HashRing, DeterministicAcrossConstructions) {
  const std::vector<NodeId> nodes{0, 2, 5};
  HashRing a(nodes, 32);
  HashRing b(nodes, 32);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.owner(1, key), b.owner(1, key));
  }
  EXPECT_EQ(a.node_count(), 3u);
  EXPECT_EQ(a.point_count(), 3u * 32u);
}

TEST(HashRing, SingleNodeOwnsEverything) {
  const std::vector<NodeId> nodes{4};
  HashRing ring(nodes, 16);
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(ring.owner(0, key), 4u);
    EXPECT_EQ(ring.owner(9, key), 4u);
  }
}

TEST(HashRing, RoughlyBalanced) {
  const std::vector<NodeId> nodes{0, 1, 2, 3};
  HashRing ring(nodes, kDefaultVnodes);
  std::map<NodeId, int> share;
  constexpr int kKeys = 20'000;
  for (std::uint64_t key = 0; key < kKeys; ++key) ++share[ring.owner(0, key)];
  for (const NodeId node : nodes) {
    // Fair share is 25%; with 64 vnodes the split stays within a loose
    // band — the property that matters is "no node starves or hogs".
    EXPECT_GT(share[node], kKeys / 10) << "node " << node;
    EXPECT_LT(share[node], kKeys / 2) << "node " << node;
  }
}

TEST(HashRing, RemovalOnlyRemapsTheRemovedNodesKeys) {
  const std::vector<NodeId> all{0, 1, 2};
  const std::vector<NodeId> survivors{0, 1};
  HashRing before(all, kDefaultVnodes);
  HashRing after(survivors, kDefaultVnodes);
  int moved = 0;
  for (std::uint64_t key = 0; key < 5000; ++key) {
    const NodeId was = before.owner(0, key);
    const NodeId now = after.owner(0, key);
    if (was != 2) {
      EXPECT_EQ(now, was) << "key " << key << " moved without cause";
    } else {
      ++moved;
      EXPECT_NE(now, 2u);
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(HashRing, AdditionOnlyPullsKeysOntoTheNewcomer) {
  HashRing before(std::vector<NodeId>{0, 1}, kDefaultVnodes);
  HashRing after(std::vector<NodeId>{0, 1, 2}, kDefaultVnodes);
  int pulled = 0;
  for (std::uint64_t key = 0; key < 5000; ++key) {
    const NodeId was = before.owner(0, key);
    const NodeId now = after.owner(0, key);
    if (now != was) {
      EXPECT_EQ(now, 2u) << "key " << key << " moved to an old node";
      ++pulled;
    }
  }
  EXPECT_GT(pulled, 0);
}

TEST(HashRing, VnodeCountSmoothsTheSplit) {
  // More virtual nodes → the biggest share shrinks towards fair.
  auto max_share = [](std::uint32_t vnodes) {
    HashRing ring(std::vector<NodeId>{0, 1, 2, 3, 4}, vnodes);
    std::map<NodeId, int> share;
    for (std::uint64_t key = 0; key < 20'000; ++key)
      ++share[ring.owner(0, key)];
    int max = 0;
    for (const auto& [node, count] : share) max = std::max(max, count);
    return max;
  };
  EXPECT_LE(max_share(128), max_share(1));
}

TEST(HashRing, SuccessorsAreDistinctAndOwnerFirst) {
  const std::vector<NodeId> nodes{0, 1, 2, 3, 4};
  HashRing ring(nodes, kDefaultVnodes);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const std::vector<NodeId> group = ring.successors(0, key, 2);
    ASSERT_EQ(group.size(), 3u) << "key " << key;
    EXPECT_EQ(group.front(), ring.owner(0, key));
    std::vector<NodeId> sorted = group;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "key " << key << " repeats a node in its replication group";
  }
}

TEST(HashRing, SuccessorsCapAtMembershipAndDegradeGracefully) {
  HashRing ring(std::vector<NodeId>{7, 9}, kDefaultVnodes);
  // k = 0 is just the owner; k beyond the member count caps at it.
  EXPECT_EQ(ring.successors(0, 42, 0),
            std::vector<NodeId>{ring.owner(0, 42)});
  const std::vector<NodeId> capped = ring.successors(0, 42, 5);
  EXPECT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped.front(), ring.owner(0, 42));
  EXPECT_NE(capped[1], capped[0]);
  // Empty ring: no owner, no group.
  EXPECT_TRUE(HashRing{}.successors(0, 42, 3).empty());
}

TEST(HashRing, SuccessorsDeterministicAcrossConstructions) {
  const std::vector<NodeId> nodes{0, 2, 5, 11};
  HashRing a(nodes, 32);
  HashRing b(nodes, 32);
  for (std::uint64_t key = 0; key < 500; ++key) {
    EXPECT_EQ(a.successors(1, key, 2), b.successors(1, key, 2));
  }
}

// ----------------------------------------------------- protocol vocabulary

TEST(ClusterProtocol, MapRoundTrip) {
  const ClusterMap map{42, 64, {1, 5, 9}};
  const proto::Response resp = proto::ClusterMapResponse{7, map};
  const auto wire = proto::encode(resp);
  const proto::Response back = proto::decode_response(wire);
  EXPECT_EQ(back, resp);

  const proto::Request req = proto::ApplyMapRequest{8, map};
  EXPECT_EQ(proto::decode_request(proto::encode(req)), req);
  EXPECT_EQ(proto::namespace_of(req), service::kDefaultNamespace);
}

TEST(ClusterProtocol, HandoffAndRedirectRoundTrip) {
  const proto::Request handoff = proto::HandoffRequest{9, 3, 2, 0xABCD, 17};
  EXPECT_EQ(proto::decode_request(proto::encode(handoff)), handoff);
  EXPECT_EQ(proto::namespace_of(handoff), 2u);

  const proto::Response ack = proto::HandoffResponse{9, true};
  EXPECT_EQ(proto::decode_response(proto::encode(ack)), ack);

  const proto::Response redirect = proto::RedirectResponse{10, 4, 2};
  EXPECT_EQ(proto::decode_response(proto::encode(redirect)), redirect);
}

TEST(ClusterProtocol, StrictDecode) {
  // Out-of-order member list.
  {
    ClusterMap bad{1, 64, {5, 3}};
    const auto wire = proto::encode(proto::Request{proto::ApplyMapRequest{1, bad}});
    EXPECT_THROW(proto::decode_request(wire), util::IoError);
  }
  // Truncations of every cluster frame are rejected.
  const std::vector<std::vector<std::byte>> frames = {
      proto::encode(proto::ApplyMapRequest{1, ClusterMap{2, 8, {0, 1}}}),
      proto::encode(proto::HandoffRequest{2, 1, 0, 77, 3}),
      proto::encode(proto::ClusterMapResponse{3, ClusterMap{2, 8, {0}}}),
      proto::encode(proto::ApplyMapResponse{4, true, 2, 5}),
      proto::encode(proto::RedirectResponse{5, 2, 1}),
      proto::encode(proto::HandoffResponse{6, false}),
  };
  for (const auto& frame : frames) {
    for (std::size_t cut = 11; cut < frame.size(); ++cut) {
      std::span<const std::byte> head(frame.data(), cut);
      EXPECT_THROW(
          {
            try {
              proto::decode_request(head);
            } catch (const util::IoError&) {
              proto::decode_response(head);
            }
          },
          util::IoError);
    }
  }
  // Negative handoff balance.
  {
    auto wire = proto::encode(proto::HandoffRequest{2, 1, 0, 77, 3});
    wire.back() = std::byte{0xFF};  // balance low bytes → sign bit set later
    // Rebuild properly: craft via encode of a valid one and flip the sign
    // byte of the trailing i64.
    wire[wire.size() - 1] = std::byte{0x80};
    EXPECT_THROW(proto::decode_request(wire), util::IoError);
  }
}

// --------------------------------------------------- table handoff helpers

TEST(TableHandoff, ExtractRemovesAndExports) {
  service::AccountTable table(node_config(2, 8, 1000));
  table.clock().advance(20'000);  // bank some tokens
  for (std::uint64_t key = 0; key < 32; ++key) table.acquire(key, 0);
  const std::size_t before = table.account_count();
  ASSERT_EQ(before, 32u);

  const auto exported = table.extract_if(
      [](service::NamespaceId, std::uint64_t key) { return key % 2 == 0; });
  EXPECT_EQ(exported.size(), 16u);
  EXPECT_EQ(table.account_count(), 16u);
  for (const auto& account : exported) {
    EXPECT_EQ(account.key % 2, 0u);
    EXPECT_GE(account.balance, 0);
    EXPECT_LE(account.balance, table.capacity_bound());
    // Gone for good: a refund to the extracted key is dropped.
    EXPECT_EQ(table.refund(account.key, 1).accepted, 0);
  }
  EXPECT_EQ(table.stats().accounts_extracted, 16u);
}

TEST(TableHandoff, InstallCreatesSettledAndNeverDuplicates) {
  service::AccountTable table(node_config(2, 8, 1000));
  table.clock().advance(5000);
  EXPECT_TRUE(table.install_account(service::kDefaultNamespace, 7, 5));
  EXPECT_EQ(table.query(7).balance, 5);
  // A second install for a live key is refused — never duplicate.
  EXPECT_FALSE(table.install_account(service::kDefaultNamespace, 7, 8));
  EXPECT_EQ(table.query(7).balance, 5);
  // Settled at install: no retroactive catch-up of the pre-install ticks.
  EXPECT_EQ(table.stats().accounts_installed, 1u);

  // Unknown namespace: refused (forfeit).
  EXPECT_FALSE(table.install_account(99, 1, 3));
  // Balance clamped to the capacity bound.
  EXPECT_TRUE(table.install_account(service::kDefaultNamespace, 8, 1'000'000));
  EXPECT_LE(table.query(8).balance, table.capacity_bound());
}

// ------------------------------------------------------------ ClusterServer

struct Node {
  service::AccountTable table;
  service::ShardEngine engine;
  ClusterServer server;
  Node(const service::ServiceConfig& cfg, runtime::Transport& transport,
       const ClusterMap& map)
      : table(cfg),
        engine(table),
        server(table, transport, map, {.engine = &engine}) {}
};

TEST(ClusterServer, ServesOwnedKeysAndRedirectsForeignOnes) {
  const ClusterMap map{1, kDefaultVnodes, {0, 1}};
  const HashRing ring(map);
  runtime::InProcNetwork net(3);
  Node node0(node_config(2, 8, 1000), net.endpoint(0), map);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), map);
  service::Client to_node0(net.endpoint(2), 0);
  net.start();

  const std::uint64_t mine = key_owned_by(ring, 0);
  const std::uint64_t theirs = key_owned_by(ring, 1);

  EXPECT_EQ(to_node0.acquire(mine, 0).granted, 0);  // create, bank nothing
  node0.table.clock().advance(10'000);
  EXPECT_GT(to_node0.acquire(mine, 2).granted, 0);
  EXPECT_EQ(node0.server.inner().requests_served(), 2u);

  try {
    to_node0.acquire(theirs, 1);
    FAIL() << "expected a redirect";
  } catch (const proto::RedirectError& redirect) {
    EXPECT_EQ(redirect.owner(), 1u);
    EXPECT_EQ(redirect.map_epoch(), 1u);
  }
  EXPECT_EQ(node0.server.redirects_sent(), 1u);

  // A batch with any foreign key redirects whole.
  const std::vector<service::AcquireOp> ops{{mine, 1}, {theirs, 1}};
  EXPECT_THROW(to_node0.acquire_batch(ops), proto::RedirectError);
  EXPECT_EQ(node0.server.redirects_sent(), 2u);
  net.stop();
}

TEST(ClusterServer, PlainServerAnswersClusterOpsUnsupported) {
  service::AccountTable table(node_config(2, 8, 1000));
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  service::Server server(table, net.endpoint(0), {.engine = &engine});
  service::Client client(net.endpoint(1), 0);
  net.start();
  try {
    client.fetch_cluster_map();
    FAIL() << "expected kUnsupported";
  } catch (const proto::RpcError& error) {
    EXPECT_EQ(error.code(), proto::ErrorCode::kUnsupported);
  }
  net.stop();
}

TEST(ClusterServer, ApplyMapHandsAccountsOffWithoutDuplication) {
  const ClusterMap solo{1, kDefaultVnodes, {0}};
  const ClusterMap both{2, kDefaultVnodes, {0, 1}};
  runtime::InProcNetwork net(3);
  Node node0(node_config(2, 8, 1000), net.endpoint(0), solo);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), both);
  service::Client admin(net.endpoint(2), 0);
  net.start();

  // Bank tokens on node 0 for a spread of keys (it owns everything).
  std::map<std::uint64_t, Tokens> banked;
  Tokens total_banked = 0;
  node0.engine.quiesced([&] {
    for (std::uint64_t key = 0; key < 64; ++key) node0.table.acquire(key, 0);
    node0.table.clock().advance(50'000);
    for (std::uint64_t key = 0; key < 64; ++key) {
      banked[key] = node0.table.query(key).balance;  // query settles ticks
      total_banked += banked[key];
    }
  });
  ASSERT_EQ(node0.engine.quiesced([&] { return node0.table.account_count(); }),
            64u);
  ASSERT_GT(total_banked, 0);

  // Stale map is refused.
  const ApplyOutcome stale = node0.server.apply_map(solo);
  EXPECT_FALSE(stale.accepted);

  // Adopt {0,1}: everything the new ring puts on node 1 must move there.
  const service::ApplyMapResult outcome = admin.apply_cluster_map(both);
  EXPECT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.epoch, 2u);
  EXPECT_GT(outcome.handoffs, 0u);

  const HashRing ring(both);
  ASSERT_TRUE(eventually([&] {
    return node1.server.handoffs_installed() == outcome.handoffs;
  }));
  // A key's balance on `node`, or -1 where it has no live account.
  const auto balance_on = [](Node& node, std::uint64_t key) {
    return node.engine.quiesced([&] {
      const service::QueryResult q = node.table.query(key);
      return q.exists ? q.balance : Tokens{-1};
    });
  };
  for (const auto& [key, balance] : banked) {
    const NodeId owner = ring.owner(service::kDefaultNamespace, key);
    const Tokens on0 = balance_on(node0, key);
    const Tokens on1 = balance_on(node1, key);
    if (owner == 0) {
      EXPECT_GE(on0, balance) << "key " << key;  // stayed (and may earn)
      EXPECT_EQ(on1, -1) << "key " << key;
    } else {
      // Moved: exactly one copy, with the banked balance (node 1's clock
      // is fresh, so nothing extra was earned there yet).
      EXPECT_EQ(on0, -1) << "key " << key;
      EXPECT_EQ(on1, balance) << "key " << key;
    }
  }
  ASSERT_TRUE(eventually([&] {
    return node0.server.handoffs_accepted() + node0.server.handoffs_rejected() ==
           outcome.handoffs;
  }));
  EXPECT_EQ(node0.server.handoffs_accepted(), outcome.handoffs);
  net.stop();
}

TEST(ClusterServer, HandoffIntoLiveAccountIsDropped) {
  const ClusterMap both{1, kDefaultVnodes, {0, 1}};
  const HashRing ring(both);
  runtime::InProcNetwork net(3);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), both);
  net.start();

  const std::uint64_t key = key_owned_by(ring, 1);
  node1.table.clock().advance(3000);
  const auto balance = [&](std::uint64_t k) {
    return node1.engine.quiesced(
        [&] { return node1.table.query(k).balance; });
  };
  node1.engine.quiesced([&] { node1.table.acquire(key, 0); });
  const Tokens before = balance(key);

  // A duplicate handoff arrives (e.g. replayed): it must not add tokens.
  runtime::Transport& rogue = net.endpoint(2);
  // The install runs on the key's shard worker; the refusal is counted as
  // a forfeit before the reply goes out.
  rogue.send(1, proto::encode(proto::HandoffRequest{1, 1, 0, key, 8}));
  ASSERT_TRUE(eventually([&] { return node1.server.tokens_forfeited() == 8; }));
  EXPECT_EQ(node1.server.handoffs_received(), 1u);
  EXPECT_EQ(node1.server.handoffs_installed(), 0u);
  EXPECT_EQ(balance(key), before);

  // And a handoff for a key this node does not own is dropped too.
  const std::uint64_t foreign = key_owned_by(ring, 0);
  rogue.send(1, proto::encode(proto::HandoffRequest{2, 1, 0, foreign, 8}));
  ASSERT_TRUE(
      eventually([&] { return node1.server.tokens_forfeited() == 16; }));
  EXPECT_EQ(node1.server.handoffs_received(), 2u);
  EXPECT_EQ(node1.server.handoffs_installed(), 0u);
  EXPECT_FALSE(
      node1.engine.quiesced([&] { return node1.table.query(foreign).exists; }));
  net.stop();
}

TEST(ClusterServer, ReplicatesDeltasAndPromotesAtTheFloor) {
  // 2 nodes, replication factor 1: every key's group is {owner, other}.
  const ClusterMap map{1, kDefaultVnodes, {0, 1}, 1};
  const HashRing ring(map);
  runtime::InProcNetwork net(4);
  service::AccountTable table0(node_config(2, 8, 1000));
  service::AccountTable table1(node_config(2, 8, 1000));
  service::ShardEngine engine0(table0);
  service::ShardEngine engine1(table1);
  service::ServerOptions opts;
  opts.replication_headroom = 2;
  opts.engine = &engine0;
  auto node0 = std::make_unique<ClusterServer>(table0, net.endpoint(0), map,
                                               opts);
  opts.engine = &engine1;
  ClusterServer node1(table1, net.endpoint(1), map, opts);
  service::Client to_node0(net.endpoint(2), 0);
  net.start();

  const std::uint64_t key = key_owned_by(ring, 0);
  to_node0.acquire(key, 0);        // create the account
  table0.clock().advance(50'000);  // bank tokens
  EXPECT_EQ(to_node0.acquire(key, 1).granted, 1);

  // Each request's drain-boundary flush streamed the account to its
  // follower (one frame per request), which acked both.
  ASSERT_TRUE(eventually([&] {
    return node1.replication().replica_accounts() == 1 &&
           node0->replication().deltas_sent() >= 2 &&
           node0->replication().lag_rounds() == 0;
  }));
  EXPECT_GT(node0->replication().deltas_sent(), 0u);
  EXPECT_GT(node0->replication().acks_received(), 0u);
  EXPECT_EQ(node1.replication().replica_accounts(), 1u);

  // Kill the primary (its transport handler detaches — frames to it are
  // dropped from here on), then fail over.
  const Tokens balance =
      engine0.quiesced([&] { return table0.query(key).balance; });
  ASSERT_GT(balance, 2);
  node0.reset();

  const PromoteOutcome out = node1.promote(0);
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.installed, 1u);
  // Conservative install: the floor is headroom below the last streamed
  // balance; the gap is the failover's forfeit — all of it accounted.
  const Tokens floor = balance - 2;
  EXPECT_EQ(out.forfeited, balance - floor);
  EXPECT_EQ(node1.tokens_forfeited(), balance - floor);
  EXPECT_EQ(node1.promotions(), 1u);
  const service::QueryResult installed =
      engine1.quiesced([&] { return table1.query(key); });
  ASSERT_TRUE(installed.exists);
  EXPECT_EQ(installed.balance, floor);
  EXPECT_FALSE(node1.map().contains(0));
  EXPECT_EQ(node1.map_epoch(), 2u);
  EXPECT_EQ(node1.replication().replica_accounts(), 0u);  // consumed

  // Idempotent: the node is already gone.
  EXPECT_FALSE(node1.promote(0).accepted);
  EXPECT_EQ(node1.promotions(), 1u);

  // The survivor now owns and serves the key.
  service::Client to_node1(net.endpoint(3), 1);
  table1.clock().advance(10'000);
  EXPECT_GT(to_node1.acquire(key, 2).granted, 0);
  net.stop();
}

TEST(ClusterServer, ReplicationIdleWithoutReplicas) {
  // replicas = 0: same topology, no stream — the engine stays dormant.
  const ClusterMap map{1, kDefaultVnodes, {0, 1}};
  const HashRing ring(map);
  runtime::InProcNetwork net(3);
  Node node0(node_config(2, 8, 1000), net.endpoint(0), map);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), map);
  service::Client to_node0(net.endpoint(2), 0);
  net.start();

  const std::uint64_t key = key_owned_by(ring, 0);
  to_node0.acquire(key, 0);
  node0.table.clock().advance(20'000);
  to_node0.acquire(key, 1);
  EXPECT_EQ(node0.server.replication().deltas_sent(), 0u);
  EXPECT_EQ(node1.server.replication().replica_accounts(), 0u);
  EXPECT_FALSE(node0.table.replication_enabled());
  net.stop();
}

/// Every counter a tokad node's frame triage moves.
struct TriageCounters {
  std::uint64_t served = 0, errored = 0, malformed = 0, shed = 0;
  std::uint64_t redirects = 0, acked = 0, rejected = 0;
  friend bool operator==(const TriageCounters&,
                         const TriageCounters&) = default;
};

TriageCounters triage_counters(const ClusterServer& s) {
  return {s.inner().requests_served(), s.inner().requests_errored(),
          s.inner().requests_malformed(), s.inner().requests_shed(),
          s.redirects_sent(), s.handoffs_accepted(), s.handoffs_rejected()};
}

template <typename T>
bool is_a(const proto::Response& r) {
  return std::holds_alternative<T>(r);
}

TEST(ClusterServer, TriageAnswersAndCountsEveryFrameKind) {
  const ClusterMap map{1, kDefaultVnodes, {0, 1}};
  const HashRing ring(map);
  runtime::InProcNetwork net(3);
  service::ServerOptions opts;
  // One admission per table-clock interval: each row below opens a fresh
  // interval unless it is marked to share the previous row's.
  opts.admission = {.enabled = true, .interval_us = 10'000, .min_budget = 1,
                    .max_budget = 1};
  service::AccountTable table0(node_config(2, 8, 1000));
  service::ShardEngine engine0(table0);
  opts.engine = &engine0;
  ClusterServer node0(table0, net.endpoint(0), map, opts);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), map);

  runtime::Transport& raw = net.endpoint(2);
  std::mutex mu;
  std::vector<proto::Response> replies;
  raw.set_handler([&](NodeId, std::vector<std::byte> payload) {
    std::lock_guard lock(mu);
    replies.push_back(proto::decode_response(payload));
  });
  net.start();

  const std::uint64_t mine = key_owned_by(ring, 0);
  const std::uint64_t theirs = key_owned_by(ring, 1);
  constexpr service::NamespaceId kMissingNs = 7;
  std::uint64_t missing_mine = 0;
  while (ring.owner(kMissingNs, missing_mine) != 0) ++missing_mine;

  const auto with_trailing_byte = [](std::vector<std::byte> frame) {
    frame.push_back(std::byte{0});
    return frame;
  };
  const auto without_last_byte = [](std::vector<std::byte> frame) {
    frame.pop_back();
    return frame;
  };
  const auto is_error = [](proto::ErrorCode code) {
    return [code](const proto::Response& r) {
      const auto* e = std::get_if<proto::ErrorResponse>(&r);
      return e != nullptr && e->code == code;
    };
  };
  const auto is_redirect_to_1 = [](const proto::Response& r) {
    const auto* d = std::get_if<proto::RedirectResponse>(&r);
    return d != nullptr && d->epoch == 1 && d->owner == 1;
  };

  service::NamespaceConfig bulk;
  bulk.strategy.kind = core::StrategyKind::kTokenBucket;
  bulk.strategy.c_param = 4;

  struct Row {
    const char* name;
    std::vector<std::byte> frame;
    /// Checks the one reply; empty = the frame must go unanswered.
    std::function<bool(const proto::Response&)> reply;
    TriageCounters delta;
    bool same_interval = false;  ///< no clock advance before this row
  };
  const std::vector<Row> rows{
      {"garbage", {std::byte{0xFF}, std::byte{0x00}}, {}, {.malformed = 1}},
      {"owned acquire, bad body",
       with_trailing_byte(proto::encode(proto::AcquireRequest{1, mine, 1})),
       is_error(proto::ErrorCode::kMalformedBody), {.errored = 1}},
      {"owned key, unknown namespace",
       proto::encode(proto::AcquireRequest{2, missing_mine, 1, kMissingNs}),
       is_error(proto::ErrorCode::kUnknownNamespace), {.errored = 1}},
      {"foreign acquire", proto::encode(proto::AcquireRequest{3, theirs, 1}),
       is_redirect_to_1, {.redirects = 1}},
      {"batch with a foreign second key",
       proto::encode(proto::BatchAcquireRequest{4, {{mine, 1}, {theirs, 1}}}),
       is_redirect_to_1, {.redirects = 1}},
      {"configure namespace",
       proto::encode(proto::ConfigureNamespaceRequest{5, 3, bulk}),
       &is_a<proto::ConfigureNamespaceResponse>, {.served = 1}},
      {"namespace info", proto::encode(proto::NamespaceInfoRequest{6, 3}),
       &is_a<proto::NamespaceInfoResponse>, {.served = 1}},
      {"stats", proto::encode(proto::StatsRequest{7}),
       &is_a<proto::StatsResponse>, {.served = 1}},
      {"stray apply-map response",
       proto::encode(proto::ApplyMapResponse{8, true, 2, 0}), {}, {}},
      {"undecodable handoff ack",
       without_last_byte(proto::encode(proto::HandoffResponse{9, true})), {},
       {.rejected = 1}},
      {"owned acquire spends the interval's budget",
       proto::encode(proto::AcquireRequest{10, mine, 0}),
       &is_a<proto::AcquireResponse>, {.served = 1}},
      {"owned acquire over the budget",
       proto::encode(proto::AcquireRequest{11, mine, 0}),
       is_error(proto::ErrorCode::kOverloaded), {.shed = 1}, true},
      {"foreign acquire over the budget",
       proto::encode(proto::AcquireRequest{12, theirs, 0}), is_redirect_to_1,
       {.redirects = 1}, true},
  };

  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    if (!row.same_interval) table0.clock().advance(10'000);
    const TriageCounters before = triage_counters(node0);
    raw.send(0, row.frame);
    if (row.reply) {
      ASSERT_TRUE(eventually([&] {
        std::lock_guard lock(mu);
        return !replies.empty();
      }));
    } else {
      net.drain();
      engine0.drain();
      net.drain();
    }
    {
      std::lock_guard lock(mu);
      ASSERT_EQ(replies.size(), row.reply ? 1u : 0u);
      if (row.reply) {
        EXPECT_TRUE(row.reply(replies.front()));
      }
      replies.clear();
    }
    const TriageCounters after = triage_counters(node0);
    const TriageCounters delta{
        after.served - before.served,       after.errored - before.errored,
        after.malformed - before.malformed, after.shed - before.shed,
        after.redirects - before.redirects, after.acked - before.acked,
        after.rejected - before.rejected};
    EXPECT_EQ(delta, row.delta)
        << "served " << delta.served << " errored " << delta.errored
        << " malformed " << delta.malformed << " shed " << delta.shed
        << " redirects " << delta.redirects << " acked " << delta.acked
        << " rejected " << delta.rejected;
  }
  net.stop();
}

TEST(ClusterServer, RemotePromoteHonoursItsEpochGuard) {
  const ClusterMap map{1, kDefaultVnodes, {0, 1, 2}, 1};
  runtime::InProcNetwork net(4);
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeId n = 0; n < 3; ++n) {
    nodes.push_back(
        std::make_unique<Node>(node_config(2, 8, 1000), net.endpoint(n), map));
  }
  runtime::Transport& raw = net.endpoint(3);
  std::mutex mu;
  std::vector<proto::PromoteResponse> replies;
  raw.set_handler([&](NodeId, std::vector<std::byte> payload) {
    std::lock_guard lock(mu);
    replies.push_back(
        std::get<proto::PromoteResponse>(proto::decode_response(payload)));
  });
  net.start();
  nodes[2].reset();  // node 2 dies; frames to it are dropped from here on
  const auto promote_on_0 = [&](std::uint64_t id, std::uint64_t epoch) {
    raw.send(0, proto::encode(proto::PromoteRequest{id, 2, epoch}));
    EXPECT_TRUE(eventually([&] {
      std::lock_guard lock(mu);
      return !replies.empty();
    }));
    std::lock_guard lock(mu);
    const proto::PromoteResponse out =
        replies.empty() ? proto::PromoteResponse{} : replies.back();
    replies.clear();
    return out;
  };

  // An unrelated newer map reaches node 0 first: a promotion planned
  // against epoch 1 is stale and must not remove node 2.
  ASSERT_TRUE(nodes[0]->server.apply_map({2, kDefaultVnodes, {0, 1, 2}, 1})
                  .accepted);
  const proto::PromoteResponse stale = promote_on_0(1, 1);
  EXPECT_FALSE(stale.accepted);
  EXPECT_EQ(stale.epoch, 2u);
  EXPECT_TRUE(nodes[0]->server.map().contains(2));
  EXPECT_EQ(nodes[0]->server.promotions(), 0u);

  // At the current epoch it promotes: the epoch bumps past it and the
  // survivors both adopt the map without node 2.
  const proto::PromoteResponse current = promote_on_0(2, 2);
  EXPECT_TRUE(current.accepted);
  EXPECT_EQ(current.epoch, 3u);
  EXPECT_EQ(nodes[0]->server.promotions(), 1u);
  for (const NodeId survivor : {0u, 1u}) {
    EXPECT_TRUE(eventually([&] {
      const ClusterMap adopted = nodes[survivor]->server.map();
      return adopted.epoch == 3 && !adopted.contains(2);
    })) << "node " << survivor;
  }
  net.stop();
}

// ------------------------------------------------------------ ClusterClient

TEST(ClusterClient, RoutesAcrossNodesAndFansBatchesOut) {
  const ClusterMap map{1, kDefaultVnodes, {0, 1, 2}};
  runtime::InProcNetwork net(3 + 3);  // 3 servers + 3 client endpoints
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeId n = 0; n < 3; ++n)
    nodes.push_back(
        std::make_unique<Node>(node_config(2, 8, 1000), net.endpoint(n), map));
  net.start();

  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return net.endpoint(3 + server);
      },
      map);

  // Create every account, bank some ticks, then acquire for real.
  for (std::uint64_t key = 0; key < 48; ++key)
    client.acquire(service::kDefaultNamespace, key, 0);
  for (auto& node : nodes) node->table.clock().advance(50'000);

  // Singles land on their owners.
  std::int64_t granted = 0;
  for (std::uint64_t key = 0; key < 48; ++key)
    granted += client.acquire(service::kDefaultNamespace, key, 1).granted;
  EXPECT_GT(granted, 0);
  for (auto& node : nodes)
    EXPECT_GT(node->server.inner().requests_served(), 0u);
  EXPECT_EQ(client.redirects_followed(), 0u);

  // Batch fan-out: results are positional and complete.
  std::vector<service::AcquireOp> ops;
  for (std::uint64_t key = 0; key < 48; ++key) ops.push_back({key, 0});
  const auto results = client.acquire_batch(service::kDefaultNamespace, ops);
  ASSERT_EQ(results.size(), ops.size());
  const HashRing ring(map);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const NodeId owner = ring.owner(service::kDefaultNamespace, ops[i].key);
    Node& node = *nodes[owner];
    const Tokens held = node.engine.quiesced(
        [&] { return node.table.query(ops[i].key).balance; });
    EXPECT_EQ(results[i].balance, held) << "op " << i;
  }
  net.stop();
}

TEST(ClusterClient, FollowsRedirectsAfterMembershipChange) {
  const ClusterMap old_map{1, kDefaultVnodes, {0}};
  const ClusterMap new_map{2, kDefaultVnodes, {0, 1}};
  runtime::InProcNetwork net(2 + 2);
  Node node0(node_config(2, 8, 1000), net.endpoint(0), new_map);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), new_map);
  net.start();

  // The client still believes node 0 owns everything.
  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return net.endpoint(2 + server);
      },
      old_map);

  const HashRing new_ring(new_map);
  const std::uint64_t moved = key_owned_by(new_ring, 1);
  // The create lands after a redirect; the tokens after some banked ticks.
  client.acquire(service::kDefaultNamespace, moved, 0);
  EXPECT_GE(client.redirects_followed(), 1u);
  node1.table.clock().advance(20'000);
  const auto result = client.acquire(service::kDefaultNamespace, moved, 1);
  EXPECT_GT(result.granted, 0);
  EXPECT_EQ(client.map().epoch, 2u);  // refreshed from the redirecting node

  // Subsequent calls route directly — no further redirects.
  const std::uint64_t redirects = client.redirects_followed();
  client.acquire(service::kDefaultNamespace, moved, 1);
  EXPECT_EQ(client.redirects_followed(), redirects);
  net.stop();
}

TEST(ClusterClient, ConfiguresNamespacesClusterWide) {
  const ClusterMap map{1, kDefaultVnodes, {0, 1}};
  runtime::InProcNetwork net(2 + 2);
  Node node0(node_config(2, 8, 1000), net.endpoint(0), map);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), map);
  net.start();

  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return net.endpoint(2 + server);
      },
      map);

  service::NamespaceConfig bulk;
  bulk.strategy.kind = core::StrategyKind::kTokenBucket;
  bulk.strategy.c_param = 4;
  bulk.delta_us = 2000;
  EXPECT_EQ(client.configure_namespace_all(3, bulk), 2u);
  EXPECT_TRUE(node0.table.has_namespace(3));
  EXPECT_TRUE(node1.table.has_namespace(3));

  for (std::uint64_t key = 0; key < 16; ++key) client.acquire(3, key, 0);
  node0.table.clock().advance(20'000);
  node1.table.clock().advance(20'000);
  std::int64_t granted = 0;
  for (std::uint64_t key = 0; key < 16; ++key)
    granted += client.acquire(3, key, 1).granted;
  EXPECT_GT(granted, 0);
  net.stop();
}

TEST(ClusterClient, QueryAndRefundRouteToTheOwner) {
  const ClusterMap map{1, kDefaultVnodes, {0, 1, 2}};
  runtime::InProcNetwork net(3 + 3);
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeId n = 0; n < 3; ++n)
    nodes.push_back(
        std::make_unique<Node>(node_config(2, 8, 1000), net.endpoint(n), map));
  net.start();

  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return net.endpoint(3 + server);
      },
      map);

  const HashRing ring(map);
  EXPECT_FALSE(client.query(service::kDefaultNamespace, 5).exists);
  for (std::uint64_t key = 0; key < 24; ++key)
    client.acquire(service::kDefaultNamespace, key, 0);
  for (auto& node : nodes) node->table.clock().advance(50'000);
  for (std::uint64_t key = 0; key < 24; ++key) {
    ASSERT_EQ(client.acquire(service::kDefaultNamespace, key, 2).granted, 2);
    const service::RefundResult refunded =
        client.refund(service::kDefaultNamespace, key, 1);
    EXPECT_EQ(refunded.accepted, 1) << "key " << key;
    const service::QueryResult seen =
        client.query(service::kDefaultNamespace, key);
    EXPECT_TRUE(seen.exists) << "key " << key;
    EXPECT_EQ(seen.balance, refunded.balance) << "key " << key;
    Node& owner = *nodes[ring.owner(service::kDefaultNamespace, key)];
    EXPECT_EQ(seen.balance, owner.engine.quiesced([&] {
      return owner.table.query(key).balance;
    })) << "key " << key;
  }
  EXPECT_EQ(client.redirects_followed(), 0u);
  EXPECT_EQ(client.io_retries(), 0u);
  net.stop();
}

// The give-up branches: a dead owner, an empty map and a typed refusal.

TEST(ClusterClient, GivesUpAfterMaxAttemptsOnADeadOwner) {
  // Node 0 has no server on its endpoint: every call and every map fetch
  // times out. Three rounds: two timeouts retried, the third given up.
  const ClusterMap map{1, kDefaultVnodes, {0}};
  runtime::InProcNetwork net(1 + 1);
  net.start();
  const ClusterClientConfig config{.call_timeout_us = 20'000,
                                   .max_attempts = 3};
  const auto endpoint = [&](NodeId) -> runtime::Transport& {
    return net.endpoint(1);
  };
  {
    ClusterClient client(endpoint, map, config);
    EXPECT_THROW(client.acquire(service::kDefaultNamespace, 7, 1),
                 util::IoError);
    EXPECT_EQ(client.io_retries(), 2u);
    EXPECT_EQ(client.map_refreshes(), 2u);
    EXPECT_EQ(client.redirects_followed(), 0u);
  }
  {
    ClusterClient client(endpoint, map, config);
    const std::vector<service::AcquireOp> ops{{1, 1}, {2, 1}, {3, 1}};
    EXPECT_THROW(client.acquire_batch(service::kDefaultNamespace, ops),
                 util::IoError);
    EXPECT_EQ(client.io_retries(), 2u);
    EXPECT_EQ(client.map_refreshes(), 2u);
  }
  net.stop();
}

TEST(ClusterClient, EmptyMapWithoutSeedsFailsWithNoOwner) {
  runtime::InProcNetwork net(1);
  net.start();
  ClusterClient client(
      [&](NodeId) -> runtime::Transport& { return net.endpoint(0); },
      ClusterMap{1, kDefaultVnodes, {}}, {.max_attempts = 3});
  const auto expect_no_owner = [](const std::function<void()>& op) {
    try {
      op();
      ADD_FAILURE() << "expected the no-owner IoError";
    } catch (const util::IoError& e) {
      EXPECT_NE(std::string(e.what()).find("no owner"), std::string::npos)
          << e.what();
    }
  };
  expect_no_owner([&] { client.acquire(service::kDefaultNamespace, 7, 1); });
  const std::vector<service::AcquireOp> ops{{1, 1}, {2, 1}};
  expect_no_owner(
      [&] { client.acquire_batch(service::kDefaultNamespace, ops); });
  // Nothing to ask: no refresh ever reached the wire.
  EXPECT_EQ(client.map_refreshes(), 0u);
  EXPECT_FALSE(client.refresh_map());
  EXPECT_EQ(client.map_refreshes(), 0u);
  net.stop();
}

TEST(ClusterClient, TypedErrorsAreNotRetried) {
  const ClusterMap map{1, kDefaultVnodes, {0, 1}};
  runtime::InProcNetwork net(2 + 2);
  Node node0(node_config(2, 8, 1000), net.endpoint(0), map);
  Node node1(node_config(2, 8, 1000), net.endpoint(1), map);
  net.start();

  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return net.endpoint(2 + server);
      },
      map);
  constexpr service::NamespaceId kMissing = 9;  // no node has it
  const auto expect_unknown = [](const std::function<void()>& op) {
    try {
      op();
      ADD_FAILURE() << "expected RpcError kUnknownNamespace";
    } catch (const proto::RpcError& e) {
      EXPECT_EQ(e.code(), proto::ErrorCode::kUnknownNamespace) << e.what();
    }
  };
  expect_unknown([&] { client.acquire(kMissing, 3, 1); });
  // The batch spans both nodes: both groups are refused.
  std::vector<service::AcquireOp> ops;
  for (std::uint64_t key = 0; key < 16; ++key) ops.push_back({key, 1});
  expect_unknown([&] { client.acquire_batch(kMissing, ops); });
  EXPECT_EQ(client.redirects_followed(), 0u);
  EXPECT_EQ(client.io_retries(), 0u);
  net.stop();
}

}  // namespace
}  // namespace toka::cluster
