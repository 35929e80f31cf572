// Bounded multi-producer / single-consumer op queue: the hand-off primitive
// of the data plane (see DESIGN.md, "The data plane"). IO threads decode
// requests and push ops; exactly one shard worker pops them — in FIFO order
// per producer — and executes them against the shards it owns, so account
// state needs no lock at all.
//
// The ring is the classic bounded MPMC design (per-cell sequence numbers,
// a CAS on the tail per push) restricted to one consumer, which lets the
// pop side run without any atomic RMW: the consumer owns `head_` and only
// publishes cell releases. push/pop of one cell is two cache-line
// transfers; pop_batch() amortizes the consumer's head publication over a
// whole drain.
//
// Blocking is strictly opt-in and kept out of the fast path:
//   - try_push() never blocks (returns false when full — the server turns
//     that into a typed kOverloaded shed);
//   - push() spins/yields until space frees (bench/bootstrap use only:
//     callers must guarantee the consumer is draining, or deadlock);
//   - wait_nonempty() parks the consumer on an internal condvar after a
//     spin phase; producers wake it with one relaxed load + rare notify.
//     A bounded wait backstop makes lost wakeups impossible to hang on.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace toka::util {

template <typename T>
class MpscQueue {
 public:
  /// Capacity is rounded up to a power of two (at least 2).
  explicit MpscQueue(std::size_t capacity)
      : cells_(std::bit_ceil(std::max<std::size_t>(capacity, 2))),
        mask_(cells_.size() - 1) {
    for (std::size_t i = 0; i < cells_.size(); ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  std::size_t capacity() const { return cells_.size(); }

  /// Enqueues from any thread; returns false when the ring is full.
  bool try_push(T value) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // the cell is still owned by a lap-behind value: full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(value);
    cell->seq.store(pos + 1, std::memory_order_release);
    wake_consumer();
    return true;
  }

  /// Blocking push: spins, then yields, until the consumer frees a cell.
  /// Only for callers that KNOW the consumer is draining (bootstrap, closed
  /// benchmark loops sized within capacity); a worker completion must never
  /// call this on another worker's queue or two full queues can deadlock.
  void push(T value) {
    std::size_t spins = 0;
    while (!try_push(std::move(value))) {
      if (++spins < 64) {
        // tight retry; the consumer drains in batches
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Single-consumer pop of up to `max` values appended to `out` in queue
  /// order. Returns the number popped (0 when empty or when a producer is
  /// mid-publish on the head cell).
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    while (popped < max) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      if (static_cast<std::intptr_t>(seq) !=
          static_cast<std::intptr_t>(pos + 1))
        break;  // empty, or the producer that claimed this cell is mid-write
      out.push_back(std::move(cell.value));
      cell.seq.store(pos + mask_ + 1, std::memory_order_release);
      ++pos;
      ++popped;
    }
    if (popped > 0) head_.store(pos, std::memory_order_release);
    return popped;
  }

  /// Approximate number of queued values (racy by design: a telemetry and
  /// back-pressure signal, not a synchronization primitive).
  std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

  bool empty() const { return size() == 0; }

  /// Consumer-side park: returns once the queue looks nonempty or
  /// `stop()` returns true. Spins briefly first so a loaded queue never
  /// pays the condvar; the bounded wait (1ms) bounds the damage of any
  /// lost wakeup to one poll interval.
  template <typename Stop>
  void wait_nonempty(Stop&& stop) {
    for (int i = 0; i < 1024; ++i) {
      if (!empty() || stop()) return;
      if ((i & 63) == 63) std::this_thread::yield();
    }
    std::unique_lock lock(park_mu_);
    parked_.store(true, std::memory_order_seq_cst);
    // Recheck under the parked flag: a producer that published before the
    // flag became visible is caught here; one that published after will
    // see the flag and notify.
    while (empty() && !stop()) {
      park_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    parked_.store(false, std::memory_order_relaxed);
  }

  /// Wakes a consumer parked in wait_nonempty() so it can re-evaluate its
  /// stop condition (used for shutdown and quiesce).
  void notify() {
    std::lock_guard lock(park_mu_);
    park_cv_.notify_all();
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  void wake_consumer() {
    if (parked_.load(std::memory_order_seq_cst)) notify();
  }

  std::vector<Cell> cells_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> tail_{0};   // producers
  alignas(64) std::atomic<std::size_t> head_{0};   // the consumer
  alignas(64) std::atomic<bool> parked_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
};

}  // namespace toka::util
