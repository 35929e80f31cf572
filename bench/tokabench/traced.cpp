#include "traced.hpp"

#include <cstdio>
#include <string>

namespace tokabench {

namespace obs = toka::obs;

namespace {

constexpr std::size_t kSpanCapacity = 1 << 15;
constexpr const char* kStageHistograms[] = {
    "tokend_trace_queue_wait_us", "tokend_trace_execute_us", "tokend_trace_cork_us"};

double per(double total, double count) { return count > 0 ? total / count : 0; }

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return per(sum, static_cast<double>(v.size()));
}

}  // namespace

Instruments::Instruments() : ledger_(kSpanCapacity) {
  issue_.ledger = &ledger_;
  obs::TracerOptions opts;
  opts.sample_every = 1;
  // Big enough to keep a few hundred milliseconds of every stage.
  opts.ring_capacity = 1 << 16;
  opts.registry = &registry_;
  tracer_ = std::make_unique<obs::Tracer>(opts);
}

TimedTransport& Instruments::wrap(toka::runtime::Transport& endpoint,
                                  bool server_side) {
  wrappers_.push_back(std::make_unique<TimedTransport>(endpoint, server_side, ledger_));
  return *wrappers_.back();
}

void Instruments::record_ledger(const std::function<void()>& phase) {
  ledger_.set_recording(true);
  phase();
  ledger_.set_recording(false);
  ledger_tracer_spans_ = tracer_->snapshot();
}

void Instruments::set_enabled(bool on) {
  for (auto& w : wrappers_) w->set_enabled(on);
  issue_.on.store(on);
}

LayerSnapshot Instruments::snapshot() const {
  LayerSnapshot s;
  s.issue_ns = static_cast<double>(issue_.issue.ns.load());
  s.issues = static_cast<double>(issue_.issue.calls.load());
  for (const auto& w : wrappers_) {
    const double deliver_ns = static_cast<double>(w->deliver.ns.load());
    const double delivers = static_cast<double>(w->deliver.calls.load());
    if (w->server_side()) {
      s.server_deliver_ns += deliver_ns;
      s.server_delivers += delivers;
      s.reply_send_ns += static_cast<double>(w->send_time.ns.load());
    } else {
      s.client_deliver_ns += deliver_ns;
      s.client_delivers += delivers;
      s.client_frames += static_cast<double>(w->frames_sent.load());
    }
    s.bytes += static_cast<double>(w->bytes_sent.load());
  }
  for (const char* name : kStageHistograms)
    s.stages.push_back(read_histogram(registry_, name));
  return s;
}

std::vector<pid_t> Instruments::loop_tids(bool server_side) const {
  std::vector<pid_t> tids;
  for (const auto& w : wrappers_) {
    const pid_t tid = w->handler_tid.load();
    if (w->server_side() == server_side && tid != 0) tids.push_back(tid);
  }
  return tids;
}

void add_closed_layers(Report& report, const LayerSnapshot& before,
                       const LayerSnapshot& after, const ClosedResult& traced,
                       double opr) {
  const double replies = after.client_delivers - before.client_delivers;
  const double issue = per(after.issue_ns - before.issue_ns, after.issues - before.issues);
  const double client_deliver =
      per(after.client_deliver_ns - before.client_deliver_ns, replies);
  const double server_deliver = per(after.server_deliver_ns - before.server_deliver_ns,
                                    after.server_delivers - before.server_delivers);
  const double reply_send = per(after.reply_send_ns - before.reply_send_ns, replies);
  double stages_us = 0;  // queue wait + execute + cork (the cork holds the send)
  for (std::size_t i = 0; i < after.stages.size(); ++i)
    stages_us += per(after.stages[i].sum - before.stages[i].sum,
                     after.stages[i].count - before.stages[i].count);
  const double spans_us = (issue + client_deliver + server_deliver) / 1e3 + stages_us;
  report.add("client.issue_ns", issue / opr, "ns");
  report.add("client.deliver_ns", client_deliver / opr, "ns");
  report.add("client.retries_per_op",
             per(after.client_frames - before.client_frames,
                 (after.issues - before.issues) * opr),
             "frames/op");
  report.add("codec.bytes_per_op", per(after.bytes - before.bytes, replies * opr), "B");
  report.add("server.deliver_ns", server_deliver / opr, "ns");
  report.add("epoll.reply_send_ns", reply_send / opr, "ns");
  report.add("ledger.unaccounted_us", traced.mean_latency_us - spans_us, "us");
}

void add_nominal_layers(Report& report, const OpenResult& nominal, double opr) {
  report.add("p50_us", nominal.p50_us, "us");
  report.add("p90_us", nominal.p90_us, "us");
  report.add("tail.p99_us", nominal.p99_us, "us");
  report.add("cpu_us_per_op",
             per(nominal.cpu_us, static_cast<double>(nominal.completed) * opr), "us");
  report.add("gen.lag_p99_us", nominal.lag_p99_us, "us");
  report.add("gen.lag_max_us", nominal.lag_max_us, "us");
}

void add_table_layers(Report& report, const toka::service::TableStats& stats,
                      const Tally& tally) {
  report.add("table.grant_ratio",
             per(static_cast<double>(stats.tokens_granted),
                 static_cast<double>(stats.tokens_requested)),
             "ratio");
  report.add("table.watchdog_checks", static_cast<double>(stats.watchdog_checks),
             "count");
  report.add("table.watchdog_violations",
             static_cast<double>(stats.watchdog_violations), "count");
  report.add("fail_ratio",
             per(static_cast<double>(tally.failed()),
                 static_cast<double>(tally.attempted.load())),
             "ratio");
}

void add_replay_layers(Report& report, toka::service::AccountTable& table,
                       const WorkloadSpec& spec, const toka::util::ZipfSampler& keys,
                       std::uint64_t seed, double seconds) {
  report.add("table.op_ns",
             table_op_ns(table, spec, keys, stream_seed(seed, kPhaseReplay, 0), seconds),
             "ns");
  const CodecCost codec =
      codec_cost(spec, keys, stream_seed(seed, kPhaseReplay, 1), seconds);
  report.check(codec.decode_ns >= 0, "codec replay decoded a frame wrongly");
  report.add("codec.encode_ns", codec.encode_ns, "ns");
  report.add("codec.decode_ns", codec.decode_ns, "ns");
}

void write_spans(const Instruments& instruments, const RunOptions& options) {
  if (options.spans_dir.empty()) return;
  const std::string path = options.spans_dir + "/" + options.spec.name + "-seed" +
                           std::to_string(options.seed) + ".json";
  if (instruments.ledger().write_json(path, options.spec.name, options.seed,
                                      instruments.ledger_tracer_spans())) {
    std::fprintf(stderr, "tokabench: %zu spans written to %s\n",
                 instruments.ledger().stored(), path.c_str());
  } else {
    std::fprintf(stderr, "tokabench: cannot write %s\n", path.c_str());
  }
}

OpenWindow::OpenWindow(Instruments& instruments,
                       const std::vector<const toka::service::ShardEngine*>& engines,
                       const std::vector<pid_t>& worker_tids)
    : instruments_(&instruments),
      worker_tids_(worker_tids),
      server_loops_(instruments.loop_tids(true)),
      client_loops_(instruments.loop_tids(false)) {
  workers_.before = thread_usage(worker_tids_);
  server_.before = thread_usage(server_loops_);
  client_.before = thread_usage(client_loops_);
  start_ = instruments.snapshot();
  start_us_ = obs::Tracer::now_us();
  for (const toka::service::ShardEngine* engine : engines)
    depth_.push_back(std::make_unique<DepthSampler>(*engine));
}

void OpenWindow::finish(Report& report, const OpenResult& open, double opr) {
  std::vector<double> depths;
  for (auto& sampler : depth_) {
    const std::vector<double> d = sampler->stop();
    depths.insert(depths.end(), d.begin(), d.end());
  }
  workers_.after = thread_usage(worker_tids_);
  server_.after = thread_usage(server_loops_);
  client_.after = thread_usage(client_loops_);
  const LayerSnapshot end = instruments_->snapshot();
  std::vector<double> decode_us;
  for (const obs::SpanRecord& span : instruments_->tracer()->snapshot())
    if (span.stage == obs::Stage::kDecode && span.start_us >= start_us_)
      decode_us.push_back(static_cast<double>(span.dur_us));

  const double ops = static_cast<double>(open.completed) * opr;
  const double wall_ns = open.wall_s * 1e9;
  const auto util = [&](const ThreadWindow& w, std::size_t threads) {
    return threads > 0 ? w.cpu_ns() / (wall_ns * static_cast<double>(threads)) : 0;
  };
  const auto stage = [&](std::size_t i, double q) {
    return quantile_between(start_.stages[i], end.stages[i], q);
  };
  report.add("epoll.server_loop_util", util(server_, server_loops_.size()), "ratio");
  report.add("epoll.client_loop_util", util(client_, client_loops_.size()), "ratio");
  report.add("epoll.ctx_switches_per_op", per(server_.switches() + client_.switches(), ops),
             "1/op");
  // Tracer spans have whole-microsecond ends, so a decode's median reads 0;
  // the mean of many rounded spans keeps the sub-microsecond part.
  report.add("server.decode_us_mean", mean(decode_us), "us");
  report.add("server.decode_us_p99", quantile(decode_us, 0.99), "us");
  report.add("server.cork_us_p50", stage(2, 0.50), "us");
  report.add("server.cork_us_p99", stage(2, 0.99), "us");
  report.add("engine.queue_wait_us_p50", stage(0, 0.50), "us");
  report.add("engine.queue_wait_us_p99", stage(0, 0.99), "us");
  report.add("engine.execute_us_p50", stage(1, 0.50), "us");
  report.add("engine.execute_us_p99", stage(1, 0.99), "us");
  report.add("engine.queue_depth_mean", mean(depths), "count");
  report.add("engine.queue_depth_p99", quantile(depths, 0.99), "count");
  report.add("engine.worker_util", util(workers_, worker_tids_.size()), "ratio");
  report.add("engine.ctx_switches_per_op", per(workers_.switches(), ops), "1/op");
}

}  // namespace tokabench
