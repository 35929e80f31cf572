#include "runtime/inproc.hpp"

#include <algorithm>
#include <chrono>
#include <shared_mutex>

#include "util/error.hpp"

namespace toka::runtime {

class InProcNetwork::Endpoint final : public Transport {
 public:
  Endpoint(InProcNetwork& net, NodeId id) : net_(&net), id_(id) {}

  NodeId self() const override { return id_; }

  void send(NodeId to, std::vector<std::byte> payload) override {
    net_->enqueue(id_, to, std::move(payload));
  }

  void set_handler(Handler handler) override {
    // Exclusive lock: blocks until an in-flight delivery (shared lock in
    // deliver) has finished, so after a detach returns the old handler is
    // guaranteed to never run again.
    std::unique_lock lock(handler_mutex_);
    handler_ = std::move(handler);
  }

  void deliver(NodeId from, std::vector<std::byte> payload) {
    std::shared_lock lock(handler_mutex_);
    if (handler_) handler_(from, std::move(payload));
  }

 private:
  InProcNetwork* net_;
  NodeId id_;
  std::shared_mutex handler_mutex_;
  Handler handler_;
};

InProcNetwork::InProcNetwork(std::size_t node_count, TimeUs latency_us,
                             std::size_t dispatchers)
    : latency_us_(latency_us) {
  TOKA_CHECK(latency_us >= 0);
  endpoints_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i)
    endpoints_.push_back(
        std::make_unique<Endpoint>(*this, static_cast<NodeId>(i)));
  const std::size_t lanes =
      std::clamp<std::size_t>(dispatchers, 1, std::max<std::size_t>(node_count, 1));
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    lanes_.push_back(std::make_unique<Lane>());
}

InProcNetwork::~InProcNetwork() { stop(); }

Transport& InProcNetwork::endpoint(NodeId id) {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  return *endpoints_[id];
}

void InProcNetwork::start() {
  std::lock_guard lock(state_mutex_);
  TOKA_CHECK_MSG(!running_, "network already started");
  running_ = true;
  stopping_.store(false);
  for (auto& lane : lanes_)
    lane->dispatcher = std::thread([this, &lane = *lane] { dispatch_loop(lane); });
}

void InProcNetwork::stop() {
  {
    std::lock_guard lock(state_mutex_);
    if (!running_) return;
    stopping_.store(true);
  }
  for (auto& lane : lanes_) {
    // The stop flag is re-published under each lane's own mutex before the
    // notify: a dispatcher that evaluated its wait predicate just before
    // the store cannot block between our lock and the notification, so
    // the wake-up can never be lost.
    { std::lock_guard lock(lane->mutex); }
    lane->cv.notify_all();
    lane->dispatcher.join();
  }
  std::lock_guard lock(state_mutex_);
  running_ = false;
}

void InProcNetwork::drain() {
  // A handler on one lane may enqueue onto a lane already found empty (a
  // server replying to a client, say), so keep sweeping until every lane
  // is empty in one pass.
  for (;;) {
    for (auto& lane : lanes_) {
      std::unique_lock lock(lane->mutex);
      lane->cv.wait(lock,
                    [&] { return lane->queue.empty() || stopping_.load(); });
    }
    if (stopping_.load()) return;
    bool all_empty = true;
    for (auto& lane : lanes_) {
      std::lock_guard lock(lane->mutex);
      if (!lane->queue.empty()) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) return;
  }
}

void InProcNetwork::enqueue(NodeId from, NodeId to,
                            std::vector<std::byte> payload) {
  if (to >= endpoints_.size()) return;  // best-effort fabric: drop
  // Destinations are striped over lanes, so one destination's deliveries
  // stay ordered (single lane, per-lane sequence numbers) while different
  // destinations ride different threads.
  Lane& lane = *lanes_[to % lanes_.size()];
  {
    std::lock_guard lock(lane.mutex);
    lane.queue.push(Parcel{clock_.now_us() + latency_us_, lane.next_seq++,
                           from, to, std::move(payload)});
  }
  lane.cv.notify_all();
}

void InProcNetwork::dispatch_loop(Lane& lane) {
  std::unique_lock lock(lane.mutex);
  for (;;) {
    if (stopping_.load()) return;
    if (lane.queue.empty()) {
      lane.cv.notify_all();  // wake drain()
      lane.cv.wait(lock,
                   [&] { return stopping_.load() || !lane.queue.empty(); });
      continue;
    }
    const TimeUs wait_us = lane.queue.top().deliver_at - clock_.now_us();
    if (wait_us > 0) {
      lane.cv.wait_for(lock, std::chrono::microseconds(wait_us));
      continue;
    }
    Parcel parcel = lane.queue.top();
    lane.queue.pop();
    Endpoint* target = endpoints_[parcel.to].get();
    lock.unlock();
    target->deliver(parcel.from, std::move(parcel.payload));
    lock.lock();
  }
}

}  // namespace toka::runtime
