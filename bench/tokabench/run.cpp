#include "run.hpp"

#include <cstdio>
#include <cstdlib>

#include "ledger.hpp"

namespace tokabench {

Plan make_plan(const RunOptions& options) {
  const double s = options.seconds;
  Plan plan;
  if (options.quick) {
    plan.warmup = 0.2;
    plan.drain = 0.3;
  }
  plan.nominal = s;
  plan.closed = s / 4;
  plan.traced_closed = s / 8;
  plan.traced_open = s / 8;
  plan.slo_step = s / 8;
  plan.direct = s / 8;
  plan.replay = s / 16;
  return plan;
}

void finish_setup_only(double setup_s) {
  Report report;
  report.add("setup_s", setup_s, "s");
  report.print_lines(stdout);
  std::fflush(stdout);
  std::_Exit(0);
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

double slo_rate(const WorkloadSpec& spec, const std::vector<OpenResult>& ladder) {
  double best = 0;
  for (const OpenResult& step : ladder) {
    const bool fast = step.step_p90_us <= spec.slo_p90_us;
    const bool kept_up = static_cast<double>(step.in_time) >=
                         0.99 * static_cast<double>(step.offered);
    if (fast && kept_up)
      best = std::max(best, step.rate * static_cast<double>(spec.ops_per_request));
  }
  return best;
}

void check_tally(const Tally& tally, Report& report) {
  report.attempted = tally.attempted.load();
  report.failed = tally.failed();
  std::fprintf(stderr,
               "tokabench: %llu ops attempted: %llu ok, %llu shed, %llu timed out, "
               "%llu errors\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(tally.ok.load()),
               static_cast<unsigned long long>(tally.shed.load()),
               static_cast<unsigned long long>(tally.timeouts.load()),
               static_cast<unsigned long long>(tally.errors.load()));
  const std::string first = " (first: " + tally.first_error() + ")";
  report.check(tally.errors.load() == 0,
               std::to_string(tally.errors.load()) + " ops failed with an untyped error" +
                   first);
  report.check(tally.timeouts.load() == 0,
               std::to_string(tally.timeouts.load()) + " ops timed out" + first);
  report.check(tally.invalid.load() == 0,
               std::to_string(tally.invalid.load()) +
                   " replies outside their request (granted > requested)");
}

void check_table(const toka::service::TableStats& stats, const std::string& where,
                 Report& report) {
  report.check(stats.watchdog_checks > 0,
               where + ": the §3.4 watchdog audited no grant");
  report.check(stats.watchdog_violations == 0,
               where + ": " + std::to_string(stats.watchdog_violations) +
                   " §3.4 watchdog violations");
  report.check(stats.tokens_granted <= stats.tokens_requested,
               where + ": granted " + std::to_string(stats.tokens_granted) +
                   " tokens of " + std::to_string(stats.tokens_requested) +
                   " requested");
}

}  // namespace tokabench
