// The instrumentation of a --traced run and the per-layer metrics derived
// from it: wrapped endpoints, the issue timer, the program's tracer (every
// request sampled) with its stage histograms, and the thread, queue and
// span readings taken around a traced phase.
#pragma once

#include <sys/types.h>

#include <functional>
#include <memory>
#include <vector>

#include "ledger.hpp"
#include "load.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "run.hpp"
#include "sysstat.hpp"

namespace tokabench {

/// Counter totals across every wrapped endpoint at one instant.
struct LayerSnapshot {
  double issue_ns = 0, issues = 0;
  double client_deliver_ns = 0, client_delivers = 0;
  double server_deliver_ns = 0, server_delivers = 0;
  double reply_send_ns = 0;
  double client_frames = 0;
  double bytes = 0;
  std::vector<HistogramReading> stages;  ///< queue wait, execute, cork
};

class Instruments {
 public:
  Instruments();
  Instruments(const Instruments&) = delete;
  Instruments& operator=(const Instruments&) = delete;

  /// Wraps an endpoint (kept for the Instruments' lifetime).
  TimedTransport& wrap(toka::runtime::Transport& endpoint, bool server_side);
  /// Turns the wrappers and the issue timer on or off.
  void set_enabled(bool on);

  toka::obs::Tracer* tracer() const { return tracer_.get(); }
  IssueTrace* issue() { return &issue_; }
  const Ledger& ledger() const { return ledger_; }

  /// Runs a short traced phase with the span ledger recording, then keeps
  /// the tracer's spans while its rings still hold that phase's.
  void record_ledger(const std::function<void()>& phase);
  const std::vector<toka::obs::SpanRecord>& ledger_tracer_spans() const {
    return ledger_tracer_spans_;
  }

  LayerSnapshot snapshot() const;
  /// The event-loop threads the server-side (or client-side) handlers
  /// last ran on.
  std::vector<pid_t> loop_tids(bool server_side) const;

 private:
  Ledger ledger_;
  IssueTrace issue_;
  toka::obs::Registry registry_;
  std::unique_ptr<toka::obs::Tracer> tracer_;
  std::vector<std::unique_ptr<TimedTransport>> wrappers_;
  std::vector<toka::obs::SpanRecord> ledger_tracer_spans_;
};

/// Adds the per-op layer times of a traced closed loop, and the ledger's
/// unaccounted remainder, from snapshots taken around it.
void add_closed_layers(Report& report, const LayerSnapshot& before,
                       const LayerSnapshot& after, const ClosedResult& traced,
                       double ops_per_request);

/// Adds the readings of an untraced open loop at the nominal rate: its
/// latency (p50_us, p90_us, tail.p99_us), the process CPU per logical op,
/// and how late its generator ran.
void add_nominal_layers(Report& report, const OpenResult& nominal,
                        double ops_per_request);

/// Adds the table's decision and watchdog readings and the run's failure
/// ratio.
void add_table_layers(Report& report, const toka::service::TableStats& stats,
                      const Tally& tally);

/// Adds table.op_ns and the codec costs from isolated replays. The table
/// must no longer be owned by an engine.
void add_replay_layers(Report& report, toka::service::AccountTable& table,
                       const WorkloadSpec& spec, const toka::util::ZipfSampler& keys,
                       std::uint64_t seed, double seconds);

/// Writes the span JSON of a traced run into options.spans_dir.
void write_spans(const Instruments& instruments, const RunOptions& options);

/// Usage of a set of threads between two instants.
struct ThreadWindow {
  ThreadUsage before;
  ThreadUsage after;
  double cpu_ns() const { return after.cpu_ns - before.cpu_ns; }
  double switches() const { return after.ctx_switches - before.ctx_switches; }
};

/// Thread, queue and stage readings around a traced open-loop phase.
class OpenWindow {
 public:
  /// Starts the window: reads thread usage and histograms and starts the
  /// queue-depth samplers.
  OpenWindow(Instruments& instruments,
             const std::vector<const toka::service::ShardEngine*>& engines,
             const std::vector<pid_t>& worker_tids);
  /// Ends the window over `open` and adds its layer metrics.
  void finish(Report& report, const OpenResult& open, double ops_per_request);

 private:
  Instruments* instruments_;
  std::vector<pid_t> worker_tids_;
  std::vector<pid_t> server_loops_, client_loops_;
  ThreadWindow workers_, server_, client_;
  LayerSnapshot start_;
  std::int64_t start_us_ = 0;
  std::vector<std::unique_ptr<DepthSampler>> depth_;
};

}  // namespace tokabench
