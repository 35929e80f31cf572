#include "runtime/node.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "runtime/inproc.hpp"
#include "util/serde.hpp"

namespace toka::runtime {
namespace {

using namespace std::chrono_literals;

/// Push-gossip-style app: stores the freshest integer seen. State is
/// atomic because tests inject values from the main thread while the
/// node's timer/receive threads run the callbacks.
class CounterApp final : public NodeApp {
 public:
  std::vector<std::byte> create_message() override {
    util::BinaryWriter w;
    w.i64(value.load());
    return w.take();
  }

  bool update_state(NodeId, std::span<const std::byte> payload) override {
    util::BinaryReader r(payload);
    const std::int64_t incoming = r.i64();
    ++updates;
    if (incoming > value.load()) {
      value.store(incoming);
      return true;
    }
    return false;
  }

  std::atomic<std::int64_t> value{0};
  std::atomic<int> updates{0};
};

NodeConfig demo_config(std::vector<NodeId> neighbors, TimeUs delta_us) {
  NodeConfig cfg;
  cfg.delta_us = delta_us;
  cfg.strategy.kind = core::StrategyKind::kRandomized;
  cfg.strategy.a_param = 1;
  cfg.strategy.c_param = 5;
  cfg.neighbors = std::move(neighbors);
  return cfg;
}

/// A simple token account (§3.3.1) with C = 2 that sends to node 1: its
/// first two ticks bank, every later tick sends.
NodeConfig simple_config(TimeUs delta_us) {
  NodeConfig cfg;
  cfg.delta_us = delta_us;
  cfg.strategy.kind = core::StrategyKind::kSimple;
  cfg.strategy.c_param = 2;
  cfg.neighbors = {1};
  return cfg;
}

/// Sleeps `stall` in its first create_message. That call runs on the
/// ticker thread while the node holds its lock, so the node's timer stalls.
class StallOnceApp final : public NodeApp {
 public:
  explicit StallOnceApp(std::chrono::microseconds stall) : stall_(stall) {}

  std::vector<std::byte> create_message() override {
    if (!stalled_) {
      stalled_ = true;
      std::this_thread::sleep_for(stall_);
    }
    return {};
  }

  bool update_state(NodeId, std::span<const std::byte>) override {
    return false;
  }

 private:
  std::chrono::microseconds stall_;
  bool stalled_ = false;
};

TEST(RuntimeNode, AStalledTimerDoesNotBunchItsTicks) {
  // The first send (third tick) stalls the ticker for 8Δ. Running the
  // missed periods back to back would put eight sends at one instant,
  // over the 1 + C = 3 that a window of length 0 allows.
  constexpr TimeUs kDelta = 10'000;
  InProcNetwork net(2);
  StallOnceApp app(std::chrono::microseconds(8 * kDelta));
  Node node(net.endpoint(0), app, simple_config(kDelta));
  net.start();
  node.start();
  std::this_thread::sleep_for(200ms);
  node.stop();
  net.stop();
  EXPECT_GE(node.messages_sent(), 2u);  // the ticks went on after the stall
  EXPECT_EQ(node.audit_violation(), "");
}

TEST(RuntimeNode, TicksAtOneInstantAreFlagged) {
  // Ticks driven by hand, no thread, all at 0.25 s: two bank C = 2
  // tokens, then each sends, and the fourth send breaks the bound.
  InProcNetwork net(2);
  CounterApp app;
  Node node(net.endpoint(0), app, simple_config(10'000));
  constexpr TimeUs kAt = 250'000;
  for (int i = 0; i < 5; ++i) node.tick(kAt);
  EXPECT_EQ(node.messages_sent(), 3u);
  EXPECT_EQ(node.audit_violation(), "");
  node.tick(kAt);
  EXPECT_EQ(node.messages_sent(), 4u);
  EXPECT_EQ(node.audit_violation(),
            "rate limit violated: the send at 0.25s ended a window over the "
            "§3.4 bound");
}

TEST(RuntimeNode, ProactiveNodeSendsPeriodically) {
  InProcNetwork net(2);
  CounterApp app0, app1;
  NodeConfig cfg = demo_config({1}, 10'000);  // 10 ms period
  cfg.strategy = core::StrategyConfig{};      // proactive baseline
  Node node0(net.endpoint(0), app0, cfg);
  net.start();
  node0.start();
  std::this_thread::sleep_for(120ms);
  node0.stop();
  net.stop();
  const auto counters = node0.counters();
  // ~12 periods elapsed; allow generous scheduling slack.
  EXPECT_GE(counters.proactive_sends, 6u);
  EXPECT_LE(counters.proactive_sends, 20u);
  EXPECT_EQ(counters.reactive_sends, 0u);
}

TEST(RuntimeNode, ReactiveResponseToUsefulMessages) {
  InProcNetwork net(2);
  CounterApp app0, app1;
  NodeConfig cfg = demo_config({1}, 1'000'000);  // period too long to tick
  cfg.initial_tokens = 5;
  Node node0(net.endpoint(0), app0, cfg);
  std::atomic<int> received_at_1{0};
  net.endpoint(1).set_handler(
      [&](NodeId, std::vector<std::byte>) { ++received_at_1; });
  net.start();
  node0.start();
  // Inject one useful message (value 7 > 0): randomized A=1 spends the
  // whole balance.
  util::BinaryWriter w;
  w.i64(7);
  net.endpoint(1).send(0, w.take());
  std::this_thread::sleep_for(100ms);
  node0.stop();
  net.stop();
  EXPECT_EQ(app0.value, 7);
  EXPECT_EQ(node0.counters().reactive_sends, 5u);
  EXPECT_EQ(received_at_1.load(), 5);
  EXPECT_EQ(node0.balance(), 0);
}

TEST(RuntimeNode, UselessMessagesSpendNothing) {
  InProcNetwork net(2);
  CounterApp app0;
  NodeConfig cfg = demo_config({1}, 1'000'000);
  cfg.initial_tokens = 5;
  Node node0(net.endpoint(0), app0, cfg);
  net.start();
  node0.start();
  util::BinaryWriter w;
  w.i64(-3);  // not fresher than 0: useless
  net.endpoint(1).send(0, w.take());
  std::this_thread::sleep_for(50ms);
  node0.stop();
  net.stop();
  EXPECT_EQ(node0.balance(), 5);
  EXPECT_EQ(node0.counters().reactive_sends, 0u);
}

TEST(RuntimeNode, BurstBoundHoldsUnderFlood) {
  InProcNetwork net(2);
  CounterApp app0;
  NodeConfig cfg = demo_config({1}, 5'000);
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 1;
  cfg.strategy.c_param = 8;
  Node node0(net.endpoint(0), app0, cfg);
  net.start();
  const auto start = std::chrono::steady_clock::now();
  node0.start();
  // Flood with ever-fresher values for ~100 ms.
  for (int i = 1; i <= 300; ++i) {
    util::BinaryWriter w;
    w.i64(i);
    net.endpoint(1).send(0, w.take());
    std::this_thread::sleep_for(300us);
  }
  net.drain();
  node0.stop();
  net.stop();
  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_TRUE(node0.audit_violation().empty()) << node0.audit_violation();
  // The flood was ~300 useful messages but sends stayed within the §3.4
  // budget for the wall-clock window that actually elapsed (the run takes
  // longer than 90 ms on loaded machines, so compute the bound from it).
  const auto bound = static_cast<std::uint64_t>(
      elapsed_us / cfg.delta_us + 1 + cfg.strategy.c_param + 3);
  EXPECT_LE(node0.messages_sent(), bound);
}

TEST(RuntimeNode, GossipPropagatesThroughSmallCluster) {
  constexpr std::size_t kN = 4;
  InProcNetwork net(kN);
  std::vector<CounterApp> apps(kN);
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeId v = 0; v < kN; ++v) {
    std::vector<NodeId> neighbors;
    for (NodeId w = 0; w < kN; ++w)
      if (w != v) neighbors.push_back(w);
    auto cfg = demo_config(std::move(neighbors), 5'000);
    cfg.seed = v + 1;
    nodes.push_back(
        std::make_unique<Node>(net.endpoint(v), apps[v], std::move(cfg)));
  }
  net.start();
  for (auto& n : nodes) n->start();
  // Seed a fresh value at node 0.
  apps[0].value = 100;
  std::this_thread::sleep_for(300ms);
  for (auto& n : nodes) n->stop();
  net.stop();
  for (NodeId v = 0; v < kN; ++v)
    EXPECT_EQ(apps[v].value, 100) << "node " << v;
}

TEST(RuntimeNode, StopIsIdempotent) {
  InProcNetwork net(1);
  CounterApp app;
  Node node(net.endpoint(0), app, demo_config({}, 10'000));
  net.start();
  node.start();
  node.stop();
  node.stop();
  net.stop();
  SUCCEED();
}

TEST(RuntimeNode, DoubleStartThrows) {
  InProcNetwork net(1);
  CounterApp app;
  Node node(net.endpoint(0), app, demo_config({}, 10'000));
  net.start();
  node.start();
  EXPECT_THROW(node.start(), util::InvariantError);
  node.stop();
  net.stop();
}

TEST(RuntimeNode, NoNeighborsMeansNoSends) {
  InProcNetwork net(1);
  CounterApp app;
  auto cfg = demo_config({}, 5'000);
  cfg.strategy = core::StrategyConfig{};  // proactive every period
  Node node(net.endpoint(0), app, cfg);
  net.start();
  node.start();
  std::this_thread::sleep_for(50ms);
  node.stop();
  net.stop();
  EXPECT_EQ(node.messages_sent(), 0u);
}

TEST(RuntimeNode, DestructorStopsCleanly) {
  InProcNetwork net(1);
  CounterApp app;
  {
    Node node(net.endpoint(0), app, demo_config({}, 5'000));
    net.start();
    node.start();
    std::this_thread::sleep_for(20ms);
    // Node goes out of scope while running.
  }
  net.stop();
  SUCCEED();
}

}  // namespace
}  // namespace toka::runtime
