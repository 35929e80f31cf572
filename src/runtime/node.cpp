#include "runtime/node.hpp"

#include <sstream>

#include "util/error.hpp"

namespace toka::runtime {

Node::Node(Transport& transport, NodeApp& app, NodeConfig config)
    : transport_(&transport),
      app_(&app),
      config_(std::move(config)),
      strategy_(core::make_strategy(config_.strategy)),
      account_(*strategy_, config_.initial_tokens,
               config_.strategy.kind == core::StrategyKind::kPureReactive),
      rng_(config_.seed),
      // Stamped on the node's clock, not the ticker's (which restarts
      // with every start()), so ticks and receives share one epoch.
      ticker_(config_.delta_us, [this](TimeUs) { tick(clock_.now_us()); }) {
  audited_ =
      config_.audit && strategy_->capacity() != core::kUnboundedCapacity;
}

Node::~Node() { stop(); }

NodeId Node::id() const { return transport_->self(); }

void Node::start() {
  bool expected = false;
  TOKA_CHECK_MSG(running_.compare_exchange_strong(expected, true),
                 "node already started");
  transport_->set_handler([this](NodeId from, std::vector<std::byte> payload) {
    on_receive(from, std::move(payload));
  });
  ticker_.start();
}

void Node::stop() {
  if (!running_.exchange(false)) return;
  ticker_.stop();
  transport_->set_handler({});
}

void Node::send_one(TimeUs now) {
  // Caller holds mutex_. SELECTPEER() over the configured neighbors.
  if (config_.neighbors.empty()) return;
  const NodeId peer =
      config_.neighbors[rng_.index(config_.neighbors.size())];
  std::vector<std::byte> payload = app_->create_message();
  ++sent_;
  if (audited_ &&
      burst_.record(config_.delta_us, strategy_->capacity(), now, 1) &&
      !violation_at_)
    violation_at_ = now;
  transport_->send(peer, std::move(payload));
}

void Node::tick(TimeUs now) {
  std::lock_guard lock(mutex_);
  if (account_.on_tick(rng_)) send_one(now);
}

void Node::on_receive(NodeId from, std::vector<std::byte> payload) {
  if (!running_.load()) return;
  std::lock_guard lock(mutex_);
  const bool useful = app_->update_state(from, payload);
  const Tokens x = account_.on_message(useful, rng_);
  const TimeUs now = clock_.now_us();
  for (Tokens i = 0; i < x; ++i) send_one(now);
}

Tokens Node::balance() const {
  std::lock_guard lock(mutex_);
  return account_.balance();
}

core::AccountCounters Node::counters() const {
  std::lock_guard lock(mutex_);
  return account_.counters();
}

std::uint64_t Node::messages_sent() const {
  std::lock_guard lock(mutex_);
  return sent_;
}

std::string Node::audit_violation() const {
  std::lock_guard lock(mutex_);
  if (!violation_at_) return {};
  std::ostringstream os;
  os << "rate limit violated: the send at " << to_seconds(*violation_at_)
     << "s ended a window over the §3.4 bound";
  return os.str();
}

}  // namespace toka::runtime
