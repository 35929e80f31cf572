// One workload process: its options, its phase timings, and the two
// runners (the single-node wire workloads and the cluster workload).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "load.hpp"
#include "report.hpp"
#include "service/account_table.hpp"
#include "workload.hpp"

namespace tokabench {

struct RunOptions {
  WorkloadSpec spec;
  std::uint64_t seed = 1;
  double seconds = 15;   ///< measured time of the run
  bool traced = false;   ///< per-layer run instead of the end-to-end run
  bool quick = false;    ///< smoke form: short warm-up and drains
  bool setup_only = false;  ///< set up, report setup_s, exit
  std::string spans_dir;    ///< where the traced run writes its span JSON
  std::int64_t start_ns = 0;  ///< steady-clock time the process started
};

/// Phase lengths in seconds, derived from RunOptions::seconds.
struct Plan {
  double warmup = 2;
  double drain = 1;
  /// End-to-end run: the open loop at the nominal rate (on the cluster,
  /// the failover phase).
  double nominal = 0;
  // Traced run.
  double closed = 0;         ///< untraced closed loop
  double traced_closed = 0;
  /// Traced closed loop with the span ledger on: short enough that the
  /// tracer's rings still hold its spans when it ends.
  double ledger = 0.05;
  double traced_open = 0;    ///< on the cluster, half the failover phase
  double slo_step = 0;       ///< each step of the untraced ladder
  double direct = 0;
  double replay = 0;         ///< each of the table and codec replays
};
Plan make_plan(const RunOptions& options);

/// Phase identifiers: each phase draws its op streams from its own seed.
enum Phase : std::uint64_t {
  kPhaseWarmup = 1,
  kPhaseClosed = 2,
  kPhaseTracedClosed = 3,
  kPhaseOpen = 4,
  kPhaseDirect = 5,
  kPhaseReplay = 6,
  kPhaseTracedOpen = 7,
  kPhaseLedger = 8,
  kPhaseLadder = 10,  ///< + step index
};

Report run_wire(const RunOptions& options);
Report run_cluster(const RunOptions& options);

/// Prints the set-up report of a --setup-only process and exits at once:
/// that process's job ended at its first timed op, so it skips teardown.
[[noreturn]] void finish_setup_only(double setup_s);

/// Seconds since the steady-clock time `t0_ns`.
double seconds_since(std::int64_t t0_ns);

/// The SLO rate of a ladder: the highest offered rate (in logical ops/s)
/// whose p90 met the workload's limit with >= 99% of requests done within
/// the step and its drain; 0 when none did.
double slo_rate(const WorkloadSpec& spec, const std::vector<OpenResult>& ladder);

/// Adds the request tallies to `report` and checks the client-side
/// correctness rules every workload shares: no untyped errors or
/// timeouts, and every reply within its request (granted <= requested).
void check_tally(const Tally& tally, Report& report);

/// Checks the table-side rules: the §3.4 watchdog audited grants and
/// found no violation, and the table never granted more than requested.
void check_table(const toka::service::TableStats& stats, const std::string& where,
                 Report& report);

}  // namespace tokabench
