// One time source and one periodic driver for the threads in src that
// run on wall-clock time.
//
// Clock is an epoch on the host's monotonic clock; nothing else in src
// reads std::chrono::steady_clock. Ticker is one thread that calls a step
// once per period. Each step starts at least one period after the one
// before it started, so a step that overruns, or a thread that stalls,
// delays the next step instead of running the missed periods back to back
// (DESIGN.md, "One clock, one ticker").
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "util/types.hpp"

namespace toka::util {

/// Time elapsed since an epoch, on the host's monotonic clock.
class Clock {
 public:
  /// A clock whose epoch is its construction.
  Clock() : epoch_(std::chrono::steady_clock::now()) {}

  /// The clock whose epoch is the steady clock's zero, so readings taken
  /// by different processes on one host compare directly.
  static Clock host() { return Clock(std::chrono::steady_clock::time_point{}); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  TimeUs now_us() const { return now_ns() / 1'000; }

 private:
  explicit Clock(std::chrono::steady_clock::time_point epoch) : epoch_(epoch) {}

  std::chrono::steady_clock::time_point epoch_;
};

/// One thread that calls `step(now_us)` once per period, `now_us` being
/// the time since start(). The first step starts one period after start().
/// start() and stop() are not called concurrently with each other.
class Ticker {
 public:
  using Step = std::function<void(TimeUs now_us)>;

  /// Throws util::InvariantError unless `period_us` > 0.
  Ticker(TimeUs period_us, Step step);

  /// Stops the thread if still running.
  ~Ticker();

  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Starts the thread. Throws util::InvariantError if it is running.
  void start();

  /// Wakes the thread, waits out a step in progress and joins it.
  /// Idempotent; start() may follow.
  void stop();

 private:
  void run();

  TimeUs period_us_;
  Step step_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace toka::util
