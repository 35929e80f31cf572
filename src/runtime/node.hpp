// A live token-account node: Algorithm 4 over wall-clock time and a real
// transport. The traffic-shaping loop is identical to the simulated one —
// period ticks grant/spend tokens, incoming messages trigger reactive
// sends — demonstrating that toka::core is directly deployable. A
// util::Ticker calls tick() every Δ, each tick at least Δ after the one
// before it, so a stalled node forfeits the periods it missed instead of
// bunching them past the §3.4 bound.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/account.hpp"
#include "core/rate_limit.hpp"
#include "core/strategy.hpp"
#include "runtime/transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace toka::runtime {

/// Application callbacks. Both run under the node's internal lock; keep
/// them short.
class NodeApp {
 public:
  virtual ~NodeApp() = default;

  /// CREATEMESSAGE(): serialize the current state.
  virtual std::vector<std::byte> create_message() = 0;

  /// UPDATESTATE(m): apply a received payload; return its usefulness.
  virtual bool update_state(NodeId from, std::span<const std::byte> payload) = 0;
};

struct NodeConfig {
  /// Token period Δ in wall-clock microseconds (demos use milliseconds-
  /// scale periods; the algorithm is timescale-free).
  TimeUs delta_us = 100'000;
  core::StrategyConfig strategy{};
  Tokens initial_tokens = 0;
  /// Out-neighbors used by SELECTPEER().
  std::vector<NodeId> neighbors;
  std::uint64_t seed = 1;
  /// Check every send against the §3.4 burst bound (a core::BurstCheck).
  bool audit = true;
};

class Node {
 public:
  /// The transport and app must outlive the node.
  Node(Transport& transport, NodeApp& app, NodeConfig config);

  /// Stops the node if still running.
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Starts the period ticker and begins processing messages.
  void start();

  /// Stops the ticker and detaches the receive handler. Idempotent.
  void stop();

  /// One Algorithm-4 period: the tick decision and, if it spends, the
  /// proactive send, stamped `now` on the node's clock. The ticker calls
  /// it every Δ; it needs no running node.
  void tick(TimeUs now);

  NodeId id() const;
  Tokens balance() const;
  core::AccountCounters counters() const;
  std::uint64_t messages_sent() const;

  /// The first send that broke the §3.4 burst bound, described, or empty
  /// (only meaningful when config.audit is true and the strategy has
  /// bounded capacity).
  std::string audit_violation() const;

 private:
  void on_receive(NodeId from, std::vector<std::byte> payload);
  void send_one(TimeUs now_us);

  Transport* transport_;
  NodeApp* app_;
  NodeConfig config_;
  std::unique_ptr<core::Strategy> strategy_;

  mutable std::mutex mutex_;
  core::TokenAccount account_;
  util::Rng rng_;
  bool audited_ = false;  ///< config.audit with a bounded capacity
  core::BurstCheck burst_;
  std::optional<TimeUs> violation_at_;  ///< the first send over the bound
  std::uint64_t sent_ = 0;

  std::atomic<bool> running_{false};
  util::Clock clock_;
  util::Ticker ticker_;
};

}  // namespace toka::runtime
