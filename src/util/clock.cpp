#include "util/clock.hpp"

#include <utility>

#include "util/error.hpp"

namespace toka::util {

Ticker::Ticker(TimeUs period_us, Step step)
    : period_us_(period_us), step_(std::move(step)) {
  TOKA_CHECK_MSG(period_us > 0,
                 "ticker period must be positive, got " << period_us);
}

Ticker::~Ticker() { stop(); }

void Ticker::start() {
  std::lock_guard lock(mu_);
  TOKA_CHECK_MSG(!thread_.joinable(), "ticker already started");
  stop_requested_ = false;
  thread_ = std::thread([this] { run(); });
}

void Ticker::stop() {
  std::thread thread;
  {
    std::lock_guard lock(mu_);
    stop_requested_ = true;
    thread = std::move(thread_);
  }
  cv_.notify_all();
  if (thread.joinable()) thread.join();
}

void Ticker::run() {
  const Clock clock;
  std::unique_lock lock(mu_);
  for (TimeUs next = period_us_;;) {
    if (cv_.wait_for(lock, std::chrono::microseconds(next - clock.now_us()),
                     [this] { return stop_requested_; }))
      return;
    const TimeUs now = clock.now_us();
    // Start to start: however late this step starts, the next waits a
    // full period, so the periods a stall missed are forfeited.
    next = now + period_us_;
    lock.unlock();
    step_(now);
    lock.lock();
  }
}

}  // namespace toka::util
