// End-to-end runtime test: token account nodes gossiping over real TCP
// sockets on the epoll mesh (the live_cluster example, in miniature and
// asserted).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/epoll.hpp"
#include "runtime/node.hpp"
#include "util/serde.hpp"

namespace toka::runtime {
namespace {

using namespace std::chrono_literals;

/// State is atomic: the test seeds values from the main thread while the
/// node's timer thread and the mesh's event loops run the callbacks.
class FreshestValueApp final : public NodeApp {
 public:
  std::vector<std::byte> create_message() override {
    util::BinaryWriter w;
    w.i64(value.load());
    return w.take();
  }
  bool update_state(NodeId, std::span<const std::byte> payload) override {
    util::BinaryReader r(payload);
    const std::int64_t incoming = r.i64();
    if (incoming <= value.load()) return false;
    value.store(incoming);
    return true;
  }
  std::atomic<std::int64_t> value{0};
};

TEST(RuntimeEpollNode, ClusterConvergesAndObeysBurstBound) {
  constexpr std::size_t kNodes = 5;
  EpollMesh mesh(kNodes);
  std::vector<FreshestValueApp> apps(kNodes);
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeId v = 0; v < kNodes; ++v) {
    NodeConfig cfg;
    cfg.delta_us = 15'000;  // 15 ms periods
    cfg.strategy.kind = core::StrategyKind::kRandomized;
    cfg.strategy.a_param = 2;
    cfg.strategy.c_param = 6;
    cfg.seed = v + 1;
    for (NodeId w = 0; w < kNodes; ++w)
      if (w != v) cfg.neighbors.push_back(w);
    nodes.push_back(
        std::make_unique<Node>(mesh.endpoint(v), apps[v], std::move(cfg)));
  }
  for (auto& n : nodes) n->start();
  apps[0].value = 42;  // seed fresh information at node 0

  // Wait until everyone converged (or a generous deadline passes).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  bool converged = false;
  while (!converged && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
    converged = true;
    for (const auto& app : apps)
      if (app.value != 42) converged = false;
  }
  for (auto& n : nodes) n->stop();

  EXPECT_TRUE(converged) << "value did not propagate over TCP";
  for (NodeId v = 0; v < kNodes; ++v) {
    EXPECT_TRUE(nodes[v]->audit_violation().empty())
        << "node " << v << ": " << nodes[v]->audit_violation();
    EXPECT_GT(nodes[v]->counters().ticks, 0u);
  }
}

TEST(RuntimeEpollNode, MixedStrategiesInteroperate) {
  // A proactive node and a token-account node speak the same protocol.
  EpollMesh mesh(2);
  FreshestValueApp app0, app1;
  NodeConfig cfg0;
  cfg0.delta_us = 10'000;
  cfg0.strategy.kind = core::StrategyKind::kProactive;
  cfg0.neighbors = {1};
  NodeConfig cfg1;
  cfg1.delta_us = 10'000;
  cfg1.strategy.kind = core::StrategyKind::kGeneralized;
  cfg1.strategy.a_param = 1;
  cfg1.strategy.c_param = 4;
  cfg1.neighbors = {0};
  Node node0(mesh.endpoint(0), app0, cfg0);
  Node node1(mesh.endpoint(1), app1, cfg1);
  node0.start();
  node1.start();
  app0.value = 7;
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (app1.value != 7 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  node0.stop();
  node1.stop();
  EXPECT_EQ(app1.value, 7);
}

}  // namespace
}  // namespace toka::runtime
