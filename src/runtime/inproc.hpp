// In-process transport: a message fabric connecting endpoints within one
// process through dispatcher threads, with optional simulated latency.
// Used by tests and by examples that don't want sockets.
//
// By default one dispatcher delivers everything, giving a single global
// delivery order (what the deterministic tests rely on). Multi-node
// service benchmarks can ask for several dispatcher lanes: destinations
// are striped over the lanes (lane = destination % lanes), so each node's
// deliveries stay in send order while different nodes' handlers run
// genuinely in parallel — one lane per node models "one machine per node".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "runtime/transport.hpp"
#include "util/clock.hpp"
#include "util/types.hpp"

namespace toka::runtime {

class InProcNetwork {
 public:
  /// Creates `node_count` endpoints. Messages are delivered `latency_us`
  /// after send; for equal delivery times, in send order per destination
  /// (and globally, when `dispatchers` is 1 — the default). `dispatchers`
  /// is clamped to [1, node_count].
  explicit InProcNetwork(std::size_t node_count, TimeUs latency_us = 0,
                         std::size_t dispatchers = 1);

  /// Stops the dispatchers and drops undelivered messages.
  ~InProcNetwork();

  InProcNetwork(const InProcNetwork&) = delete;
  InProcNetwork& operator=(const InProcNetwork&) = delete;

  std::size_t node_count() const { return endpoints_.size(); }
  std::size_t dispatcher_count() const { return lanes_.size(); }
  Transport& endpoint(NodeId id);

  /// Starts the dispatcher threads. Handlers should be installed first.
  void start();

  /// Stops and joins the dispatchers. Idempotent.
  void stop();

  /// Blocks until every lane's in-flight queue is empty (for tests).
  void drain();

 private:
  class Endpoint;
  struct Parcel {
    TimeUs deliver_at;  ///< on the network's clock
    std::uint64_t seq;
    NodeId from;
    NodeId to;
    std::vector<std::byte> payload;
    friend bool operator>(const Parcel& a, const Parcel& b) {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  /// One dispatcher lane: its own queue, clock ordering and thread.
  struct Lane {
    std::mutex mutex;
    std::condition_variable cv;
    std::priority_queue<Parcel, std::vector<Parcel>, std::greater<>> queue;
    std::uint64_t next_seq = 0;
    std::thread dispatcher;
  };

  void enqueue(NodeId from, NodeId to, std::vector<std::byte> payload);
  void dispatch_loop(Lane& lane);

  TimeUs latency_us_;
  util::Clock clock_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  std::mutex state_mutex_;
  bool running_ = false;
  std::atomic<bool> stopping_{false};
};

}  // namespace toka::runtime
