#include "load.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <semaphore>
#include <span>
#include <thread>

#include "service/protocol.hpp"
#include "sysstat.hpp"
#include "util/error.hpp"

namespace tokabench {

namespace proto = toka::service::protocol;
namespace service = toka::service;

Outcome failed(std::exception_ptr error, std::uint64_t key) {
  Outcome o;
  o.key = key;
  try {
    std::rethrow_exception(std::move(error));
  } catch (const proto::OverloadedError& e) {
    o.status = Outcome::Status::kShed;
    o.error = e.what();
  } catch (const proto::RpcError& e) {
    o.status = Outcome::Status::kError;
    o.error = e.what();
  } catch (const toka::util::IoError& e) {
    o.error = e.what();
    o.status = o.error.find("timed out") != std::string::npos ? Outcome::Status::kTimeout
                                                              : Outcome::Status::kError;
  } catch (const std::exception& e) {
    o.status = Outcome::Status::kError;
    o.error = e.what();
  } catch (...) {
    o.status = Outcome::Status::kError;
    o.error = "unknown exception";
  }
  return o;
}

namespace {

/// Hands a completion to the sink; in a traced run also records the
/// callback span (subtracted from the enclosing deliver) and the
/// request's issue → callback span.
void finish(Sink* sink, std::uint64_t tag, const Outcome& outcome,
            IssueTrace* trace, std::int64_t issued_ns) {
  if (issued_ns == 0) {
    sink->on_done(tag, outcome);
    return;
  }
  const std::uint32_t conn = tls_deliver_conn;
  const std::uint64_t id = tls_deliver_id;
  const std::int64_t t0 = now_ns();
  sink->on_done(tag, outcome);
  const std::int64_t t1 = now_ns();
  tls_callback_ns += t1 - t0;
  trace->ledger->record(SpanName::kCallback, conn, id, t0, t1);
  trace->ledger->record(SpanName::kRequest, conn, id, issued_ns, t0);
}

/// Times an issue call when the run is traced; returns the issue start
/// (0 when untraced).
std::int64_t issue_start(IssueTrace* trace) {
  return trace != nullptr && trace->on.load(std::memory_order_relaxed) ? now_ns()
                                                                       : 0;
}

void issue_end(IssueTrace* trace, std::int64_t t0) {
  if (t0 == 0) return;
  const std::int64_t t1 = now_ns();
  trace->issue.add(t1 - t0);
  trace->ledger->record(SpanName::kClientIssue, tls_last_sent_conn,
                        tls_last_sent_id, t0, t1);
}

}  // namespace

void ClientTarget::issue(const Op& op, const std::vector<AcquireOp>& batch,
                         Sink& sink, std::uint64_t tag) {
  IssueTrace* trace = trace_;
  const std::int64_t t0 = issue_start(trace);
  Sink* s = &sink;
  const std::uint64_t key = op.key;
  const Tokens want = op.tokens;
  switch (op.kind) {
    case OpKind::kAcquire:
      client_->acquire_async(
          op.ns, key, want,
          [=](service::AcquireResult r, std::exception_ptr e) {
            if (e) return finish(s, tag, failed(e, key), trace, t0);
            Outcome o;
            o.valid = r.granted >= 0 && r.granted <= want && r.balance >= 0;
            o.granted = r.granted;
            o.key = key;
            finish(s, tag, o, trace, t0);
          });
      break;
    case OpKind::kQuery:
      client_->query_async(
          op.ns, key, [=](service::QueryResult r, std::exception_ptr e) {
            if (e) return finish(s, tag, failed(e, key), trace, t0);
            Outcome o;
            o.valid = r.balance >= 0 && (r.exists || r.balance == 0);
            o.key = key;
            finish(s, tag, o, trace, t0);
          });
      break;
    case OpKind::kRefund:
      client_->refund_async(
          op.ns, key, want,
          [=](service::RefundResult r, std::exception_ptr e) {
            if (e) return finish(s, tag, failed(e, key), trace, t0);
            Outcome o;
            o.valid = r.accepted >= 0 && r.accepted <= want && r.balance >= 0;
            o.key = key;
            finish(s, tag, o, trace, t0);
          });
      break;
    case OpKind::kBatch: {
      const std::size_t n = batch.size();
      client_->acquire_batch_async(
          op.ns, std::span<const AcquireOp>(batch),
          [=](std::vector<service::AcquireResult> results, std::exception_ptr e) {
            if (e) return finish(s, tag, failed(e, key), trace, t0);
            Outcome o;
            o.valid = results.size() == n;
            for (const service::AcquireResult& r : results) {
              o.valid = o.valid && r.granted >= 0 && r.granted <= 1;
              o.granted += r.granted;
            }
            o.key = key;
            finish(s, tag, o, trace, t0);
          });
      break;
    }
  }
  issue_end(trace, t0);
}

void ClusterTarget::issue(const Op& op, const std::vector<AcquireOp>& /*batch*/,
                          Sink& sink, std::uint64_t tag) {
  IssueTrace* trace = trace_;
  const std::int64_t t0 = issue_start(trace);
  Sink* s = &sink;
  const std::uint64_t key = op.key;
  const Tokens want = op.tokens;
  client_->acquire_async(
      op.ns, key, want, [=](service::AcquireResult r, std::exception_ptr e) {
        if (e) return finish(s, tag, failed(e, key), trace, t0);
        Outcome o;
        o.valid = r.granted >= 0 && r.granted <= want && r.balance >= 0;
        o.granted = r.granted;
        o.key = key;
        finish(s, tag, o, trace, t0);
      });
  issue_end(trace, t0);
}

void Tally::count(const Outcome& outcome, std::uint64_t ops) {
  switch (outcome.status) {
    case Outcome::Status::kOk: ok.fetch_add(ops, std::memory_order_relaxed); break;
    case Outcome::Status::kShed: shed.fetch_add(ops, std::memory_order_relaxed); break;
    case Outcome::Status::kTimeout:
      timeouts.fetch_add(ops, std::memory_order_relaxed);
      break;
    case Outcome::Status::kError: errors.fetch_add(ops, std::memory_order_relaxed); break;
  }
  if (outcome.status == Outcome::Status::kOk && !outcome.valid)
    invalid.fetch_add(ops, std::memory_order_relaxed);
  if (outcome.status == Outcome::Status::kError ||
      outcome.status == Outcome::Status::kTimeout) {
    std::lock_guard lock(mu_);
    if (first_error_.empty()) first_error_ = outcome.error;
  }
}

std::string Tally::first_error() const {
  std::lock_guard lock(mu_);
  return first_error_;
}

// ------------------------------------------------------------ closed loop

namespace {

/// Window length for the medians that make the reported rates and
/// latencies robust to transient interference.
constexpr std::int64_t kWindowNs = 250'000'000;

class ClosedLoop final : public Sink {
 public:
  ClosedLoop(const LoadContext& ctx, std::uint64_t phase, std::int64_t start_ns,
             std::int64_t deadline_ns)
      : ctx_(ctx),
        start_ns_(start_ns),
        deadline_ns_(deadline_ns),
        windows_(static_cast<std::size_t>((deadline_ns - start_ns) / kWindowNs)) {
    chains_.reserve(ctx.spec->window);
    for (std::size_t c = 0; c < ctx.spec->window; ++c)
      chains_.push_back(std::make_unique<Chain>(
          *ctx.spec, *ctx.keys, stream_seed(ctx.seed, phase, c)));
  }

  void run() {
    for (std::size_t c = 0; c < chains_.size(); ++c) issue(c);
    for (std::size_t c = 0; c < chains_.size(); ++c) finished_.acquire();
    if (ctx_.grants != nullptr) {
      for (const auto& chain : chains_)
        ctx_.grants->insert(ctx_.grants->end(), chain->grants.begin(),
                            chain->grants.end());
    }
  }

  void on_done(std::uint64_t tag, const Outcome& outcome) override {
    const std::int64_t now = now_ns();
    Chain& chain = *chains_[tag];
    ctx_.tally->count(outcome, ctx_.spec->ops_per_request);
    if (outcome.status == Outcome::Status::kOk && now <= deadline_ns_) {
      ++chain.done;
      const auto w = static_cast<std::size_t>((now - start_ns_) / kWindowNs);
      if (w < windows_.size()) windows_[w].fetch_add(1, std::memory_order_relaxed);
      chain.latency_sum_us += static_cast<double>(now - chain.issued_ns) / 1e3;
    }
    if (ctx_.grants != nullptr && outcome.granted > 0)
      chain.grants.push_back(GrantEvent{outcome.key, now / 1000, outcome.granted});
    if (now < deadline_ns_) {
      issue(tag);
    } else {
      finished_.release();
    }
  }

  std::uint64_t requests() const {
    std::uint64_t n = 0;
    for (const auto& chain : chains_) n += chain->done;
    return n;
  }
  double latency_sum_us() const {
    double sum = 0;
    for (const auto& chain : chains_) sum += chain->latency_sum_us;
    return sum;
  }
  /// Requests completed in each whole window of the phase.
  std::vector<double> window_counts() const {
    std::vector<double> counts;
    for (const auto& w : windows_) counts.push_back(static_cast<double>(w.load()));
    return counts;
  }

 private:
  struct Chain {
    Chain(const WorkloadSpec& spec, const toka::util::ZipfSampler& keys,
          std::uint64_t seed)
        : stream(spec, keys, seed) {}
    OpStream stream;
    Op op;
    std::vector<AcquireOp> batch;
    std::int64_t issued_ns = 0;
    std::uint64_t done = 0;
    double latency_sum_us = 0;
    std::vector<GrantEvent> grants;
  };

  void issue(std::size_t c) {
    Chain& chain = *chains_[c];
    chain.stream.next(chain.op, chain.batch);
    chain.issued_ns = now_ns();
    ctx_.tally->attempted.fetch_add(ctx_.spec->ops_per_request,
                                    std::memory_order_relaxed);
    ctx_.target->issue(chain.op, chain.batch, *this, c);
  }

  LoadContext ctx_;
  std::int64_t start_ns_;
  std::int64_t deadline_ns_;
  std::vector<std::atomic<std::uint64_t>> windows_;
  std::vector<std::unique_ptr<Chain>> chains_;
  std::counting_semaphore<> finished_{0};
};

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

void sleep_until_ns(std::int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

}  // namespace

ClosedResult run_closed(const LoadContext& ctx, std::uint64_t phase,
                        double seconds) {
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  ClosedLoop loop(ctx, phase, start, deadline);
  loop.run();
  ClosedResult out;
  const double opr = static_cast<double>(ctx.spec->ops_per_request);
  const double requests = static_cast<double>(loop.requests());
  // The median window resists the bursts and stalls a shared host adds.
  std::vector<double> windows;
  for (const double count : loop.window_counts())
    windows.push_back(count * opr * 1e9 / static_cast<double>(kWindowNs));
  out.ops_per_s = windows.empty() ? requests * opr / seconds : quantile(windows, 0.5);
  out.mean_latency_us = requests > 0 ? loop.latency_sum_us() / requests : 0;
  return out;
}

// -------------------------------------------------------------- open loop

OpenLoop::OpenLoop(const LoadContext& ctx, double rate, std::uint64_t n,
                   std::int64_t start_ns)
    : records(n),
      ctx_(ctx),
      interval_ns_(1e9 / rate),
      start_ns_(start_ns) {
  if (ctx.grants != nullptr) keys.resize(n);
}

void OpenLoop::on_done(std::uint64_t tag, const Outcome& outcome) {
  const std::int64_t now = now_ns();
  OpenRecord& rec = records[tag];
  rec.status = outcome.status;
  rec.latency_us.store(
      static_cast<float>(static_cast<double>(now - scheduled_ns(tag)) / 1e3),
      std::memory_order_release);
  ctx_.tally->count(outcome, ctx_.spec->ops_per_request);
  if (ctx_.grants != nullptr && outcome.granted > 0) {
    std::lock_guard lock(*ctx_.grants_mu);
    ctx_.grants->push_back(GrantEvent{outcome.key, now / 1000, outcome.granted});
  }
  done_.fetch_add(1, std::memory_order_acq_rel);
}

void OpenLoops::reap() {
  std::erase_if(steps, [](const std::unique_ptr<OpenLoop>& s) { return s->all_done(); });
}

bool OpenLoops::wait_all(double timeout_s) {
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (const auto& step : steps) {
    while (!step->all_done()) {
      if (now_ns() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return true;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

OpenResult run_open(const LoadContext& ctx, std::uint64_t phase, double rate,
                    double seconds, double drain_s, Clock::time_point start,
                    OpenLoops& loops) {
  loops.reap();
  const std::uint64_t n =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(rate * seconds)));
  const std::int64_t start_ns = to_ns(start);
  loops.steps.push_back(std::make_unique<OpenLoop>(ctx, rate, n, start_ns));
  OpenLoop& loop = *loops.steps.back();

  OpStream stream(*ctx.spec, *ctx.keys, stream_seed(ctx.seed, phase, 0));
  Op op;
  std::vector<AcquireOp> batch;
  // Default timer slack (50 µs) would make every wake-up late by tens of
  // microseconds, and latency runs from the scheduled time.
  set_timer_slack_ns(1000);
  const double cpu0 = process_cpu_us();
  std::uint64_t seq = 0;
  while (seq < n) {
    std::int64_t now = now_ns();
    while (seq < n && loop.scheduled_ns(seq) <= now) {
      stream.next(op, batch);
      if (!loop.keys.empty()) loop.keys[seq] = op.key;
      loop.records[seq].lag_us =
          static_cast<float>(static_cast<double>(now - loop.scheduled_ns(seq)) / 1e3);
      ctx.tally->attempted.fetch_add(ctx.spec->ops_per_request,
                                     std::memory_order_relaxed);
      ctx.target->issue(op, batch, loop, seq);
      ++seq;
      now = now_ns();
    }
    if (seq < n) sleep_until_ns(loop.scheduled_ns(seq));
  }
  const std::int64_t step_end = start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t drain_end = step_end + static_cast<std::int64_t>(drain_s * 1e9);
  while (!loop.all_done() && now_ns() < drain_end)
    std::this_thread::sleep_for(std::chrono::microseconds(200));

  OpenResult out;
  out.rate = rate;
  out.offered = n;
  out.cpu_us = process_cpu_us() - cpu0;
  out.wall_s = static_cast<double>(now_ns() - start_ns) / 1e9;
  std::vector<double> latency(n), lag(n);
  // Latency quantiles per window (by scheduled time), then the median over
  // windows: one stall then moves one window, not the step's p90.
  const std::uint64_t per_window = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(rate * static_cast<double>(kWindowNs) / 1e9));
  std::vector<double> window, p50s, p90s;
  for (std::uint64_t i = 0; i < n; ++i) {
    const OpenRecord& rec = loop.records[i];
    lag[i] = rec.lag_us;
    const float lat = rec.latency_us.load(std::memory_order_acquire);
    const bool ok = lat >= 0 && rec.status == Outcome::Status::kOk;
    // A request still in flight, or failed, misses every latency limit.
    latency[i] = ok ? lat : std::numeric_limits<double>::infinity();
    if (ok) {
      ++out.completed;
      if (loop.scheduled_ns(i) + static_cast<std::int64_t>(lat * 1e3) <= drain_end)
        ++out.in_time;
    }
    window.push_back(latency[i]);
    if (window.size() == per_window) {
      p50s.push_back(quantile(window, 0.50));
      p90s.push_back(quantile(window, 0.90));
      window.clear();
    }
  }
  out.step_p90_us = quantile(latency, 0.90);
  out.p99_us = quantile(latency, 0.99);
  out.p50_us = p50s.empty() ? quantile(latency, 0.50) : quantile(p50s, 0.5);
  out.p90_us = p90s.empty() ? out.step_p90_us : quantile(p90s, 0.5);
  out.lag_max_us = *std::max_element(lag.begin(), lag.end());
  out.lag_p99_us = quantile(lag, 0.99);
  std::fprintf(stderr,
               "tokabench: open %.0f req/s: %llu offered, %llu done, %llu in time, "
               "p50 %.1f p90 %.1f p99 %.1f us, lag p99 %.1f us\n",
               rate, static_cast<unsigned long long>(out.offered),
               static_cast<unsigned long long>(out.completed),
               static_cast<unsigned long long>(out.in_time), out.p50_us, out.p90_us,
               out.p99_us, out.lag_p99_us);
  return out;
}

}  // namespace tokabench
