// End-to-end tokad cluster churn: Zipf traffic against 3 nodes while one
// node is killed and a fresh one joins mid-run. The acceptance bar:
//
//   - every worker completes the run with ZERO client-visible errors —
//     every kNotOwner redirect and every dead-node timeout is absorbed by
//     ClusterClient's refresh-and-retry;
//   - every completed acquire is audited, and the *cluster-wide* §3.4
//     burst bound holds per key across the kill, the handoffs and the
//     join (handoff forfeits on loss, never duplicates);
//   - each node's own table-side §3.4 audit stays clean, the killed
//     node's included.
//
// Socket variants run the same machinery over the epoll mesh with a node
// killed mid-flight, exercising the fail-fast disconnect path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "core/rate_limit.hpp"
#include "runtime/epoll.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/shard_engine.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace toka::cluster {
namespace {

using Clock = std::chrono::steady_clock;

constexpr TimeUs kDelta = 25'000;  // 25 ms token period
constexpr Tokens kA = 2, kC = 8;

service::ServiceConfig churn_config() {
  service::ServiceConfig cfg;
  cfg.shards = 16;
  cfg.delta_us = kDelta;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = kA;
  cfg.strategy.c_param = kC;
  cfg.initial_tokens = 0;  // every granted token was banked inside the run
  cfg.audit = true;        // per-node §3.4 check of every account
  return cfg;
}

/// One cluster node: table + wall clock + shard engine + (killable)
/// server.
struct ChurnNode {
  service::AccountTable table;
  service::ClockDriver driver;
  service::ShardEngine engine;
  std::unique_ptr<ClusterServer> server;

  ChurnNode(runtime::Transport& transport, const ClusterMap& map,
            service::ServerOptions options = {})
      : table(churn_config()), driver(table, 1000), engine(table) {
    driver.start();
    options.engine = &engine;
    server = std::make_unique<ClusterServer>(table, transport, map, options);
  }
  void kill() { server.reset(); }  // table survives for the post-mortem

  /// The node's own table-side §3.4 audit, read with the workers parked.
  std::optional<std::string> audit_violation() {
    return engine.quiesced([&] { return table.audit_violation(); });
  }
};

/// Every granted acquire the clients completed, merged: the input of the
/// cluster-wide per-key §3.4 replay.
std::vector<core::KeyedGrant> merged(
    const std::vector<std::vector<core::KeyedGrant>>& traces) {
  std::vector<core::KeyedGrant> all;
  for (const auto& trace : traces)
    all.insert(all.end(), trace.begin(), trace.end());
  return all;
}

TEST(ClusterChurn, KillAndJoinUnderZipfLoadHoldsTheBurstBound) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kKeys = 512;
  constexpr std::size_t kMaxNodes = 4;  // ids 0..2 initial, 3 joins
  const ClusterMap map1{1, kDefaultVnodes, {0, 1, 2}};

  // Endpoints: servers 0..3, then a stride of kMaxNodes per worker, then
  // the coordinator's stride.
  runtime::InProcNetwork net(kMaxNodes + (kWorkers + 1) * kMaxNodes);
  auto worker_factory = [&](std::size_t worker) {
    return [&net, worker](NodeId server) -> runtime::Transport& {
      return net.endpoint(
          static_cast<NodeId>(kMaxNodes + worker * kMaxNodes + server));
    };
  };

  std::vector<std::unique_ptr<ChurnNode>> nodes;
  for (NodeId n = 0; n < 3; ++n)
    nodes.push_back(std::make_unique<ChurnNode>(net.endpoint(n), map1));
  net.start();

  ClusterClientConfig client_config;
  client_config.call_timeout_us = 150 * 1'000;
  client_config.max_attempts = 12;

  const auto start = Clock::now();
  const auto run_for = std::chrono::milliseconds(2200);
  auto now_us = [&] {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start)
        .count();
  };

  std::vector<std::vector<core::KeyedGrant>> traces(kWorkers);
  std::vector<std::uint64_t> errors(kWorkers, 0);
  std::atomic<std::uint64_t> redirects{0}, io_retries{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ClusterClient client(worker_factory(w), map1, client_config);
      util::Rng rng(100 + w);
      const util::ZipfSampler zipf(kKeys, 0.9);
      while (Clock::now() - start < run_for) {
        const std::uint64_t key = zipf.next(rng);
        try {
          const service::AcquireResult res =
              client.acquire(service::kDefaultNamespace, key, 1);
          if (res.granted > 0)
            traces[w].push_back(core::KeyedGrant{key, now_us(), res.granted});
        } catch (const std::exception&) {
          ++errors[w];
        }
      }
      redirects += client.redirects_followed();
      io_retries += client.io_retries();
    });
  }

  // The coordinator: kill node 2 at ~0.7s, join node 3 at ~1.3s.
  ClusterClient admin(worker_factory(kWorkers), map1, client_config);
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  nodes[2]->kill();
  const ClusterMap map2 = map1.without_node(2);
  admin.push_map(map2);

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const ClusterMap map3 = map2.with_node(3);
  nodes.push_back(std::make_unique<ChurnNode>(net.endpoint(3), map3));
  admin.push_map(map3);

  for (auto& worker : workers) worker.join();
  const TimeUs run_us = now_us();
  for (auto& node : nodes) node->driver.stop();
  net.stop();

  // 1. Zero client-visible errors: redirects and dead-node timeouts were
  //    all retried away internally.
  for (std::size_t w = 0; w < kWorkers; ++w)
    EXPECT_EQ(errors[w], 0u) << "worker " << w;

  // 2. The churn actually happened and was absorbed: the kill surfaced as
  //    internal retries, the join as kNotOwner redirects (followed) and
  //    handoffs out of the survivors.
  EXPECT_GT(io_retries.load(), 0u);
  EXPECT_GT(redirects.load(), 0u);
  EXPECT_GT(nodes[0]->server->handoffs_sent() +
                nodes[1]->server->handoffs_sent(),
            0u);
  EXPECT_GT(nodes[3]->server->handoffs_installed(), 0u);
  EXPECT_EQ(admin.map().epoch, 3u);

  // 3. Per-node §3.4 audits — the killed node's table included.
  for (std::size_t n = 0; n < nodes.size(); ++n)
    EXPECT_EQ(nodes[n]->audit_violation(), std::nullopt) << "node " << n;

  // 4. The cluster-wide per-key burst bound and whole-run conservation
  //    (initial_tokens = 0: every granted token was earned by a tick inside
  //    the run, wherever the account lived), over the client-side trace of
  //    every completed acquire. Capacity gets +1 slack: completion
  //    timestamps can compress a window by a scheduling delay, which is
  //    worth at most one tick — while a duplicated handoff would inject up
  //    to C=8 extra grants into a hot key's trace and still be caught.
  const std::vector<core::KeyedGrant> all = merged(traces);
  ASSERT_FALSE(all.empty());
  const std::vector<std::string> violations =
      core::keyed_burst_violations(all, kDelta, kC + 1, run_us);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ClusterChurn, ReplicatedPrimaryKillForfeitsAtMostTheLag) {
  // The replicated variant of the kill scenario: 3 nodes, replication
  // factor 1, a small explicit headroom. The primary (node 2) dies
  // mid-run and its id-order successor promotes. The bar tightens from
  // "forfeit everything the dead node held" to:
  //
  //   (a) duplicate NEVER — the cluster-wide per-key §3.4 burst bound
  //       holds across the kill and the promotion (the ack-gated spend
  //       gate is what makes the floor install safe);
  //   (b) forfeit at most the replication lag — per installed account the
  //       loss is bounded by the headroom, plus at most one in-flight
  //       update per worker that the stream had not yet delivered.
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kKeys = 512;
  constexpr Tokens kHeadroom = 2;
  constexpr std::size_t kNodes = 3;
  const ClusterMap map1{1, kDefaultVnodes, {0, 1, 2}, /*replicas=*/1};

  runtime::InProcNetwork net(kNodes + (kWorkers + 1) * kNodes);
  auto worker_factory = [&](std::size_t worker) {
    return [&net, worker](NodeId server) -> runtime::Transport& {
      return net.endpoint(
          static_cast<NodeId>(kNodes + worker * kNodes + server));
    };
  };

  service::ServerOptions options;
  options.replication_headroom = kHeadroom;
  std::vector<std::unique_ptr<ChurnNode>> nodes;
  for (NodeId n = 0; n < 3; ++n)
    nodes.push_back(
        std::make_unique<ChurnNode>(net.endpoint(n), map1, options));
  net.start();

  ClusterClientConfig client_config;
  client_config.call_timeout_us = 150 * 1'000;
  client_config.max_attempts = 12;

  const auto start = Clock::now();
  const auto run_for = std::chrono::milliseconds(2200);
  auto now_us = [&] {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start)
        .count();
  };

  std::vector<std::vector<core::KeyedGrant>> traces(kWorkers);
  std::vector<std::uint64_t> errors(kWorkers, 0);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ClusterClient client(worker_factory(w), map1, client_config);
      util::Rng rng(100 + w);
      const util::ZipfSampler zipf(kKeys, 0.9);
      while (Clock::now() - start < run_for) {
        const std::uint64_t key = zipf.next(rng);
        try {
          const service::AcquireResult res =
              client.acquire(service::kDefaultNamespace, key, 1);
          if (res.granted > 0)
            traces[w].push_back(core::KeyedGrant{key, now_us(), res.granted});
        } catch (const std::exception&) {
          ++errors[w];
        }
      }
    });
  }

  // Let the stream warm up, then kill the primary. The in-process fabric
  // has no disconnect signal, so the dead node's id-order successor
  // (node 0 here, by the wrap rule) runs the promotion explicitly — the
  // same call the epoll mesh's peer-down path makes automatically.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  nodes[2]->kill();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const PromoteOutcome promoted = nodes[0]->server->promote(2);
  EXPECT_TRUE(promoted.accepted);

  for (auto& worker : workers) worker.join();
  const TimeUs run_us = now_us();
  for (auto& node : nodes) node->driver.stop();
  net.stop();

  // Zero client-visible errors, and the failover actually converged.
  for (std::size_t w = 0; w < kWorkers; ++w)
    EXPECT_EQ(errors[w], 0u) << "worker " << w;
  EXPECT_EQ(nodes[0]->server->map_epoch(), 2u);
  EXPECT_EQ(nodes[1]->server->map_epoch(), 2u);
  EXPECT_EQ(nodes[0]->server->promotions(), 1u);

  // The stream ran: deltas flowed before the kill, and the survivors
  // installed the dead primary's accounts from their replica stores.
  const std::uint64_t installs =
      nodes[0]->server->replication().replica_installs() +
      nodes[1]->server->replication().replica_installs();
  EXPECT_GT(installs, 0u);
  EXPECT_GT(nodes[0]->server->replication().deltas_sent() +
                nodes[1]->server->replication().deltas_sent(),
            0u);

  // Per-node §3.4 audits — the killed node's table included.
  for (std::size_t n = 0; n < nodes.size(); ++n)
    EXPECT_EQ(nodes[n]->audit_violation(), std::nullopt) << "node " << n;

  // (a) Duplicate never: the cluster-wide per-key burst bound and
  // conservation over the client-side grant trace, through the kill and
  // the floor installs.
  const std::vector<core::KeyedGrant> all = merged(traces);
  ASSERT_FALSE(all.empty());
  const std::vector<std::string> violations =
      core::keyed_burst_violations(all, kDelta, kC + 1, run_us);
  EXPECT_TRUE(violations.empty()) << violations.front();

  // (b) Forfeit <= lag: every install was acked up to the headroom, so the
  // total loss is bounded by headroom per installed account, plus at most
  // one not-yet-streamed update per worker in flight at the kill.
  const Tokens forfeited = nodes[0]->server->tokens_forfeited() +
                           nodes[1]->server->tokens_forfeited();
  const Tokens bound = static_cast<Tokens>(installs) * kHeadroom +
                       static_cast<Tokens>(kWorkers) * (kC + 1);
  EXPECT_LE(forfeited, bound);
  // And the only losses were the conservative installs themselves — no
  // handoff was refused, nothing fell off the ring.
  EXPECT_EQ(forfeited,
            nodes[0]->server->replication().replica_install_forfeited() +
                nodes[1]->server->replication().replica_install_forfeited());
}

// The same churn machinery over real sockets: the cluster layer must not
// care which transport carries its frames. Three epoll nodes, one killed
// mid-run, every key re-served by the survivors.
TEST(ClusterChurn, EpollNodeKillIsAbsorbedByRerouting) {
  const ClusterMap all3{1, kDefaultVnodes, {0, 1, 2}};
  // Endpoints: 3 servers + 3 for the worker + 3 for the coordinator.
  runtime::EpollMesh mesh(3 + 3 + 3);
  std::vector<std::unique_ptr<ChurnNode>> nodes;
  for (NodeId n = 0; n < 3; ++n)
    nodes.push_back(std::make_unique<ChurnNode>(mesh.endpoint(n), all3));

  ClusterClientConfig client_config;
  client_config.call_timeout_us = 200 * 1'000;
  client_config.max_attempts = 12;
  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return mesh.endpoint(3 + server);
      },
      all3, client_config);
  ClusterClient admin(
      [&](NodeId server) -> runtime::Transport& {
        return mesh.endpoint(6 + server);
      },
      all3, client_config);

  // Warm every node over the event loops.
  for (std::uint64_t key = 0; key < 96; ++key)
    client.acquire(service::kDefaultNamespace, key, 0);

  // Kill node 2's endpoint mid-run (its loops close every socket under
  // the client), push the shrunk map, and keep going.
  nodes[2]->kill();
  mesh.shutdown_endpoint(2);
  admin.push_map(all3.without_node(2));

  std::uint64_t errors = 0;
  for (std::uint64_t key = 0; key < 96; ++key) {
    try {
      client.acquire(service::kDefaultNamespace, key, 0);
    } catch (const std::exception&) {
      ++errors;
    }
  }
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(client.map().epoch, 2u);
  for (NodeId n = 0; n < 2; ++n)
    EXPECT_EQ(nodes[n]->audit_violation(), std::nullopt) << "node " << n;
  for (auto& node : nodes) node->driver.stop();
}

TEST(ClusterChurn, PeerDownAutoPromotesTheReplica) {
  // Replication over real sockets: a 2-node cluster with k=1 streams
  // deltas both ways, then node 1's endpoint dies. The closing sockets
  // fire the transport's peer-down signal on node 0, which — as the dead
  // node's id-order successor — promotes WITHOUT any admin push: the map
  // epoch bumps to 2 and the dead node's accounts reappear at their
  // replica floor. No operator in the loop.
  const ClusterMap both{1, kDefaultVnodes, {0, 1}, /*replicas=*/1};
  runtime::EpollMesh mesh(2 + 2 + 2);
  service::ServerOptions options;
  options.replication_headroom = 2;
  std::vector<std::unique_ptr<ChurnNode>> nodes;
  for (NodeId n = 0; n < 2; ++n)
    nodes.push_back(
        std::make_unique<ChurnNode>(mesh.endpoint(n), both, options));

  ClusterClientConfig client_config;
  client_config.call_timeout_us = 200 * 1'000;
  client_config.max_attempts = 12;
  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return mesh.endpoint(2 + server);
      },
      both, client_config);

  // Bank and spend over both nodes so each primary streams to the other.
  for (std::uint64_t key = 0; key < 64; ++key)
    client.acquire(service::kDefaultNamespace, key, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // bank ticks
  for (std::uint64_t key = 0; key < 64; ++key)
    client.acquire(service::kDefaultNamespace, key, 1);
  ASSERT_GT(nodes[0]->server->replication().deltas_sent(), 0u);
  ASSERT_GT(nodes[1]->server->replication().deltas_sent(), 0u);

  // Kill node 1. Node 0 learns from its sockets, not from an admin.
  nodes[1]->kill();
  mesh.shutdown_endpoint(1);

  std::uint64_t errors = 0;
  for (std::uint64_t key = 0; key < 64; ++key) {
    try {
      client.acquire(service::kDefaultNamespace, key, 0);
    } catch (const std::exception&) {
      ++errors;
    }
  }
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(nodes[0]->server->map_epoch(), 2u);
  EXPECT_EQ(nodes[0]->server->promotions(), 1u);
  EXPECT_GT(nodes[0]->server->replication().replica_installs(), 0u);
  EXPECT_EQ(client.map().epoch, 2u);
  EXPECT_EQ(nodes[0]->audit_violation(), std::nullopt);
  // The forfeit stayed inside the lag bound: headroom per install, plus
  // at most one in-flight update (single-threaded client here).
  EXPECT_LE(nodes[0]->server->tokens_forfeited(),
            static_cast<Tokens>(
                nodes[0]->server->replication().replica_installs()) *
                    2 +
                (kC + 1));
  for (auto& node : nodes) node->driver.stop();
}

TEST(ClusterChurn, NodeKillRefreshStampedeIsCoalesced) {
  // Regression: a node kill with N ops in flight used to put N concurrent
  // map fetches on the wire — every failing op started its own refresh,
  // and the stampede hammered the surviving nodes exactly when they were
  // absorbing the dead node's load. Concurrent refreshes now coalesce
  // behind a single in-flight fetch, so the kill costs O(1) fetches.
  const ClusterMap both{1, kDefaultVnodes, {0, 1}};
  runtime::EpollMesh mesh(2 + 2 + 2);
  std::vector<std::unique_ptr<ChurnNode>> nodes;
  for (NodeId n = 0; n < 2; ++n)
    nodes.push_back(std::make_unique<ChurnNode>(mesh.endpoint(n), both));

  ClusterClientConfig client_config;
  client_config.call_timeout_us = 200 * 1'000;
  client_config.max_attempts = 12;
  ClusterClient client(
      [&](NodeId server) -> runtime::Transport& {
        return mesh.endpoint(2 + server);
      },
      both, client_config);
  ClusterClient admin(
      [&](NodeId server) -> runtime::Transport& {
        return mesh.endpoint(4 + server);
      },
      both, client_config);

  // Keys the 2-node ring places on the node about to die — the ops that
  // will all fail over at once.
  std::vector<std::uint64_t> doomed;
  {
    const HashRing ring(both);
    for (std::uint64_t key = 0; doomed.size() < 64 && key < 4096; ++key)
      if (ring.owner(service::kDefaultNamespace, key) == 1) doomed.push_back(key);
  }
  ASSERT_EQ(doomed.size(), 64u);

  // Warm the connections, then kill node 1 and tell only the survivor;
  // the client still routes by the stale 2-node map.
  for (std::uint64_t key = 0; key < 32; ++key)
    client.acquire(service::kDefaultNamespace, key, 0);
  const std::uint64_t warm_refreshes = client.map_refreshes();
  nodes[1]->kill();
  mesh.shutdown_endpoint(1);
  admin.push_map(both.without_node(1));

  // The stampede: a burst of async acquires for dead-node keys. Each
  // fails fast (closed socket) and wants a map refresh immediately.
  std::atomic<std::uint64_t> errors{0};
  std::counting_semaphore<> done(0);
  for (const std::uint64_t key : doomed) {
    client.acquire_async(service::kDefaultNamespace, key, 1,
                         [&](service::AcquireResult, std::exception_ptr err) {
                           if (err) errors.fetch_add(1);
                           done.release();
                         });
  }
  for (std::size_t i = 0; i < doomed.size(); ++i) done.acquire();

  // Every op recovered onto the survivor...
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(client.map().epoch, 2u);
  // ...through many per-op retries...
  EXPECT_GT(client.io_retries(), 0u);
  // ...that shared a handful of coalesced fetches. Uncoalesced, every
  // retry fetched: map_refreshes tracked io_retries one-for-one (>= 64
  // here); coalesced, a whole burst rides one fetch.
  const std::uint64_t refreshes = client.map_refreshes() - warm_refreshes;
  EXPECT_LE(refreshes, 20u);
  EXPECT_LT(refreshes, std::max<std::uint64_t>(client.io_retries(), 21));
  for (auto& node : nodes) node->driver.stop();
}

}  // namespace
}  // namespace toka::cluster
