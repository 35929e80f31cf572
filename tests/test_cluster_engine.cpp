// The engine plane under failover: three replicated tokad nodes, each a
// ClusterServer over a ShardEngine whose workers own the table's shards,
// on one EpollMesh. One node's endpoint is shut down mid-load, so the
// survivors see the peer go down — on their event loops, and on their
// shard workers, whose delta sends to the dead follower fail — and promote
// its replicas while the workers keep running: serving, streaming deltas
// and sweeping idle accounts. Promotion installs and handoff extraction
// must run with the workers parked (quiesced), never beside them: under
// TSan (the ^test_cluster regex in CI) a table access racing an owner
// worker is a reported race. A second test writes a malformed replica
// frame to a live node over a raw socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_client.hpp"
#include "cluster/cluster_map.hpp"
#include "cluster/cluster_server.hpp"
#include "cluster/hash_ring.hpp"
#include "obs/telemetry.hpp"
#include "runtime/epoll.hpp"
#include "runtime/framing.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/rng.hpp"

namespace toka::cluster {
namespace {

constexpr NodeId kNodes = 3;
constexpr NodeId kVictim = 2;
constexpr std::uint64_t kKeys = 6000;

/// Polls `pred` until it holds or 20 s pass (generous for TSan builds).
bool eventually(const std::function<bool()>& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// One node's stack: table, clock, a two-worker engine owning the shards,
/// and the cluster server in front.
struct EngineNode {
  EngineNode(const service::ServiceConfig& cfg, runtime::Transport& transport,
             const ClusterMap& map, obs::Registry* registry = nullptr)
      : table(cfg), driver(table, 500) {
    driver.start();
    service::ShardEngineOptions engine_opts;
    engine_opts.workers = 2;
    engine = std::make_unique<service::ShardEngine>(table, engine_opts);
    service::ServerOptions server_opts;
    server_opts.engine = engine.get();
    server_opts.registry = registry;
    server = std::make_unique<ClusterServer>(table, transport, map, server_opts);
  }
  ~EngineNode() {
    server.reset();
    engine.reset();
    driver.stop();
  }

  service::AccountTable table;
  service::ClockDriver driver;
  std::unique_ptr<service::ShardEngine> engine;
  std::unique_ptr<ClusterServer> server;
};

TEST(ClusterEngine, KillAndPromoteRunBesideLiveShardWorkers) {
  service::ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 8;
  cfg.initial_tokens = 4;   // grants flow from the first request on
  cfg.watchdog_sample = 1;  // audit every key
  // Idle workers sweep their shards every TTL/4: worker-side table work
  // that does not wait for requests, so it overlaps a promotion install.
  cfg.idle_ttl_us = 20'000;
  const ClusterMap map{1, kDefaultVnodes, {0, 1, 2}, /*replicas=*/1};
  const HashRing ring(map);

  // Endpoints 0-2 are the nodes, 3-5 and 6-8 two clients' per-node links.
  runtime::EpollMesh mesh(3 * kNodes, /*io_threads=*/1);
  std::vector<std::unique_ptr<EngineNode>> nodes;
  for (NodeId n = 0; n < kNodes; ++n)
    nodes.push_back(std::make_unique<EngineNode>(cfg, mesh.endpoint(n), map));
  ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 250'000;
  client_cfg.max_attempts = 64;
  const auto links = [&mesh](NodeId client) {
    return [&mesh, client](NodeId server) -> runtime::Transport& {
      return mesh.endpoint(kNodes * (client + 1) + server);
    };
  };

  // Every key once, so each follower holds a replica of a third of them
  // and the promotion installs thousands of accounts, not a handful.
  {
    ClusterClient loader(links(0), map, client_cfg);
    std::vector<service::AcquireOp> ops;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      ops.push_back(service::AcquireOp{key, 0});
      if (ops.size() == 500 || key + 1 == kKeys) {
        loader.acquire_batch(service::kDefaultNamespace, ops);
        ops.clear();
      }
    }
  }
  ASSERT_TRUE(eventually([&] {
    std::uint64_t replicas = 0;
    for (const auto& node : nodes)
      replicas += node->server->replication().replica_accounts();
    return replicas == kKeys;
  }));

  std::atomic<bool> stop{false};
  std::atomic<bool> killed{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> victim_keys_served_after{0};
  std::vector<std::thread> load;
  for (NodeId c = 0; c < 2; ++c) {
    load.emplace_back([&, c] {
      ClusterClient client(links(c), map, client_cfg);
      util::Rng rng(100 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = rng.below(kKeys);
        const bool after_kill = killed.load();
        try {
          client.acquire(service::kDefaultNamespace, key, 1);
        } catch (const std::exception&) {
          continue;  // a request caught in the kill may give up
        }
        served.fetch_add(1);
        if (after_kill && ring.owner(service::kDefaultNamespace, key) == kVictim)
          victim_keys_served_after.fetch_add(1);
      }
    });
  }

  ASSERT_TRUE(eventually([&] { return served.load() > 500; }));
  mesh.shutdown_endpoint(kVictim);
  killed.store(true);
  // Node 0 (the victim's id-order successor, wrapping) coordinates; both
  // survivors adopt the epoch-2 map and keep serving the victim's keys.
  EXPECT_TRUE(eventually([&] {
    return nodes[0]->server->map_epoch() >= 2 &&
           nodes[1]->server->map_epoch() >= 2;
  }));
  EXPECT_TRUE(eventually([&] { return victim_keys_served_after.load() > 100; }));
  stop.store(true);
  for (std::thread& t : load) t.join();

  EXPECT_EQ(nodes[0]->server->promotions(), 1u);
  EXPECT_GT(nodes[0]->server->replication().replica_installs() +
                nodes[1]->server->replication().replica_installs(),
            kKeys / 6);
  // Never duplicated: each survivor holds only keys the new ring places on
  // it. Checked with the workers parked, like any whole-table read.
  const HashRing after(nodes[0]->server->map());
  for (NodeId n = 0; n < 2; ++n) {
    EngineNode& node = *nodes[n];
    node.engine->quiesced([&] {
      for (std::uint64_t key = 0; key < kKeys; ++key) {
        if (node.table.query(service::kDefaultNamespace, key).exists) {
          EXPECT_EQ(after.owner(service::kDefaultNamespace, key), n)
              << "key " << key << " lives on node " << n;
        }
      }
      const service::TableStats stats = node.table.stats();
      EXPECT_GT(stats.watchdog_checks, 0u);
      EXPECT_EQ(stats.watchdog_violations, 0u);
      EXPECT_LE(stats.tokens_granted, stats.tokens_requested);
    });
  }
  nodes.clear();  // servers first: the mesh outlives every transport user
}

TEST(ClusterEngine, ReplicaFrameWithoutASenderIsDroppedNotFatal) {
  // The sender id of a frame is whatever the connection writes into its
  // header, so a client can send a kReplicate naming kNoNode. The node
  // must drop it (its source would wrap to the store's empty entry) and
  // keep serving, and its telemetry counts the drop.
  service::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.delta_us = 1000;
  const ClusterMap map{1, kDefaultVnodes, {0}};
  // Endpoint 0 is the node, 1 a client's link to it, 2 the address the
  // raw connection claims for its acks.
  runtime::EpollMesh mesh(3, /*io_threads=*/1);
  obs::Registry registry;
  EngineNode node(cfg, mesh.endpoint(0), map, &registry);
  std::atomic<std::uint64_t> acks{0};
  mesh.endpoint(2).set_handler(
      [&acks](NodeId, std::vector<std::byte>) { acks.fetch_add(1); });

  const auto replicate = [](std::uint64_t seq, std::uint64_t key) {
    service::protocol::ReplicateRequest r;
    r.id = seq;
    r.epoch = 1;
    r.seq = seq;
    r.deltas.push_back({service::kDefaultNamespace, key, 5, 2});
    return service::protocol::encode(r);
  };
  std::vector<std::uint8_t> wire;
  runtime::append_frame(wire, 2, replicate(1, 10));        // stored, acked
  runtime::append_frame(wire, kNoNode, replicate(2, 11));  // dropped

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(mesh.port_of(0));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  const ReplicationEngine& repl = node.server->replication();
  ASSERT_TRUE(eventually(
      [&] { return acks.load() == 1 && repl.replica_frames_dropped() == 1; }));
  EXPECT_EQ(repl.replica_accounts(), 1u);
  EXPECT_NE(registry.render_prometheus().find(
                "tokad_replica_frames_dropped 1\n"),
            std::string::npos);

  ClusterClientConfig client_cfg;
  client_cfg.call_timeout_us = 250'000;
  ClusterClient client(
      [&mesh](NodeId) -> runtime::Transport& { return mesh.endpoint(1); }, map,
      client_cfg);
  EXPECT_NO_THROW(client.acquire(service::kDefaultNamespace, 7, 0));
  EXPECT_EQ(repl.replica_accounts(), 1u);
  ::close(fd);
}

}  // namespace
}  // namespace toka::cluster
