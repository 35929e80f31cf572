// A live token-account cluster over real TCP sockets (the epoll mesh).
//
// Spins up a handful of nodes on 127.0.0.1, each running Algorithm 4 over
// wall-clock time with a push-gossip-style application, injects fresh
// values, and verifies at the end that every node obeyed the §3.4 burst
// bound (at most ceil(t/Δ)+C messages in any window of length t).
//
//   $ ./live_cluster [--nodes=8] [--ms=2000] [--delta-ms=50]
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/epoll.hpp"
#include "runtime/node.hpp"
#include "util/cli.hpp"
#include "util/serde.hpp"

namespace {

using namespace toka;

/// Stores the freshest value seen; fresher values are useful.
class FreshestValueApp final : public runtime::NodeApp {
 public:
  std::vector<std::byte> create_message() override {
    util::BinaryWriter w;
    w.i64(value);
    return w.take();
  }
  bool update_state(NodeId, std::span<const std::byte> payload) override {
    util::BinaryReader r(payload);
    const std::int64_t incoming = r.i64();
    if (incoming <= value) return false;
    value = incoming;
    return true;
  }
  std::int64_t value = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace std::chrono_literals;
  const util::Args args(argc, argv);
  const auto node_count = static_cast<std::size_t>(args.get_int("nodes", 8));
  const auto run_ms = args.get_int("ms", 2000);
  const auto delta_ms = args.get_int("delta-ms", 50);

  runtime::EpollMesh mesh(node_count);
  std::vector<FreshestValueApp> apps(node_count);
  std::vector<std::unique_ptr<runtime::Node>> nodes;
  for (NodeId v = 0; v < node_count; ++v) {
    runtime::NodeConfig cfg;
    cfg.delta_us = delta_ms * 1000;
    cfg.strategy.kind = core::StrategyKind::kRandomized;
    cfg.strategy.a_param = 2;
    cfg.strategy.c_param = 6;
    cfg.seed = v + 1;
    for (NodeId w = 0; w < node_count; ++w)
      if (w != v) cfg.neighbors.push_back(w);
    nodes.push_back(std::make_unique<runtime::Node>(mesh.endpoint(v), apps[v],
                                                    std::move(cfg)));
  }
  std::printf("starting %zu nodes on 127.0.0.1 (ports %u..), Δ = %lld ms\n",
              node_count, mesh.port_of(0),
              static_cast<long long>(delta_ms));
  for (auto& n : nodes) n->start();

  // Inject a fresh value at node 0 every ~10 periods.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(run_ms);
  std::int64_t next_value = 1;
  while (std::chrono::steady_clock::now() < deadline) {
    apps[0].value = next_value++;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(delta_ms * 10));
  }
  for (auto& n : nodes) n->stop();

  std::printf("\n%-6s %10s %10s %10s %10s  %s\n", "node", "value", "sent",
              "proactive", "reactive", "burst-audit");
  bool all_clean = true;
  for (NodeId v = 0; v < node_count; ++v) {
    const auto counters = nodes[v]->counters();
    const std::string violation = nodes[v]->audit_violation();
    if (!violation.empty()) all_clean = false;
    std::printf("%-6u %10lld %10llu %10llu %10llu  %s\n", v,
                static_cast<long long>(apps[v].value),
                static_cast<unsigned long long>(nodes[v]->messages_sent()),
                static_cast<unsigned long long>(counters.proactive_sends),
                static_cast<unsigned long long>(counters.reactive_sends),
                violation.empty() ? "OK" : violation.c_str());
  }
  std::printf("\nburst bound (<= ceil(t/Δ)+C in every window): %s\n",
              all_clean ? "HELD ON ALL NODES" : "VIOLATED");
  return all_clean ? 0 : 1;
}
