#include "util/clock.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace toka::util {
namespace {

using namespace std::chrono_literals;

/// Polls until `done()` holds; false after 5 s.
template <typename Pred>
bool eventually(Pred done) {
  const Clock clock;
  while (!done()) {
    if (clock.now_us() > 5 * duration::kSecond) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(Ticker, StepsStartAtLeastOnePeriodApartAfterASlowStep) {
  // The first step takes five periods; the steps after it are instant.
  // Replaying the missed periods would start them back to back.
  constexpr TimeUs kPeriod = 2'000;
  std::vector<TimeUs> starts;
  std::atomic<std::size_t> steps{0};
  Ticker ticker(kPeriod, [&](TimeUs now) {
    if (starts.empty()) std::this_thread::sleep_for(10ms);
    starts.push_back(now);
    steps.fetch_add(1);
  });
  ticker.start();
  ASSERT_TRUE(eventually([&] { return steps.load() >= 6; }));
  ticker.stop();  // joins: `starts` is this thread's now
  EXPECT_GE(starts.front(), kPeriod);
  for (std::size_t i = 1; i < starts.size(); ++i)
    EXPECT_GE(starts[i] - starts[i - 1], kPeriod) << "step " << i;
}

TEST(Ticker, StopWakesALongWait) {
  std::atomic<int> steps{0};
  Ticker ticker(duration::kHour, [&](TimeUs) { steps.fetch_add(1); });
  ticker.start();
  const Clock clock;
  ticker.stop();
  EXPECT_LT(clock.now_us(), 100'000);
  EXPECT_EQ(steps.load(), 0);
}

TEST(Ticker, SecondStartThrows) {
  Ticker ticker(duration::kHour, [](TimeUs) {});
  ticker.start();
  EXPECT_THROW(ticker.start(), InvariantError);
  ticker.stop();
}

TEST(Ticker, RestartsAfterStopAndStopIsIdempotent) {
  std::atomic<int> steps{0};
  Ticker ticker(1'000, [&](TimeUs) { steps.fetch_add(1); });
  ticker.stop();  // never started: nothing to stop
  ticker.start();
  ASSERT_TRUE(eventually([&] { return steps.load() >= 1; }));
  ticker.stop();
  ticker.stop();
  const int before = steps.load();
  ticker.start();
  ASSERT_TRUE(eventually([&] { return steps.load() > before; }));
  ticker.stop();
}

TEST(Ticker, NonPositivePeriodThrows) {
  EXPECT_THROW(Ticker(0, [](TimeUs) {}), InvariantError);
  EXPECT_THROW(Ticker(-1, [](TimeUs) {}), InvariantError);
}

TEST(Clock, HostClockIsTheTracersTimebase) {
  const std::int64_t before = obs::Tracer::now_us();
  const TimeUs host = Clock::host().now_us();
  const std::int64_t after = obs::Tracer::now_us();
  EXPECT_LE(before, host);
  EXPECT_LE(host, after);
}

TEST(Clock, CountsFromConstruction) {
  const Clock clock;
  const std::int64_t ns = clock.now_ns();
  const TimeUs us = clock.now_us();
  EXPECT_GE(ns, 0);
  EXPECT_LT(ns, 1'000'000'000);  // under a second
  EXPECT_GE(us, ns / 1'000);
}

}  // namespace
}  // namespace toka::util
