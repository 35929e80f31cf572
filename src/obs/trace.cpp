#include "obs/trace.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace toka::obs {

namespace {
/// Tracer instances constructed so far, process-wide. Seeds each tracer's
/// trace-id counter into its own slice of the id space.
std::atomic<std::uint64_t> tracer_instances{0};
}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kClient: return "client";
    case Stage::kDecode: return "decode";
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kExecute: return "execute";
    case Stage::kCork: return "cork";
    case Stage::kRedirect: return "redirect";
    case Stage::kShed: return "shed";
    case Stage::kHandoff: return "handoff";
    case Stage::kPromote: return "promote";
    case Stage::kReplicate: return "replicate";
  }
  return "unknown";
}

const char* to_string(Decision decision) {
  switch (decision) {
    case Decision::kNone: return "none";
    case Decision::kBank: return "bank";
    case Decision::kFresh: return "fresh";
    case Decision::kRefund: return "refund";
    case Decision::kShed: return "shed";
    case Decision::kDenied: return "denied";
    case Decision::kError: return "error";
  }
  return "unknown";
}

Tracer::Tracer(TracerOptions opts) : opts_(opts) {
  TOKA_CHECK_MSG(opts_.rings > 0, "tracer needs at least one ring");
  TOKA_CHECK_MSG(opts_.ring_capacity > 0,
                 "tracer needs a non-empty ring capacity");
  rings_ = std::vector<Ring>(opts_.rings);
  for (Ring& ring : rings_) ring.spans.resize(opts_.ring_capacity);
  // Partition the trace-id space per tracer. Every node in a cluster runs
  // its own tracer, and counters minted independently from 1 would hand
  // two unrelated requests on different nodes the SAME id — a kTraces
  // sweep would then stitch them into one bogus cross-node trace. The
  // first tracer keeps the friendly 1,2,3... sequence; each later one
  // starts 2^44 higher (room for 2^44 ids per tracer, 2^19 tracers).
  ids_.store((tracer_instances.fetch_add(1, std::memory_order_relaxed) << 44) |
                 1,
             std::memory_order_relaxed);
  if (opts_.registry != nullptr) register_metrics();
}

Tracer::~Tracer() {
  if (opts_.registry == nullptr) return;
  opts_.registry->remove("tokend_trace_spans");
  opts_.registry->remove("tokend_trace_spans_forced");
  opts_.registry->remove("tokend_trace_queue_wait_us");
  opts_.registry->remove("tokend_trace_execute_us");
  opts_.registry->remove("tokend_trace_cork_us");
}

void Tracer::register_metrics() {
  Registry& reg = *opts_.registry;
  reg.counter_fn("tokend_trace_spans", [this] {
    return static_cast<double>(recorded_.load(std::memory_order_relaxed));
  });
  forced_total_ = &reg.counter("tokend_trace_spans_forced");
  // The stage histograms the scenario suite and bench report on; the other
  // stages are visible span-by-span via /traces and kTraces instead.
  stage_hist_[static_cast<std::size_t>(Stage::kQueueWait)] =
      &reg.histogram("tokend_trace_queue_wait_us");
  stage_hist_[static_cast<std::size_t>(Stage::kExecute)] =
      &reg.histogram("tokend_trace_execute_us");
  stage_hist_[static_cast<std::size_t>(Stage::kCork)] =
      &reg.histogram("tokend_trace_cork_us");
}

std::int64_t Tracer::now_us() { return util::Clock::host().now_us(); }

bool Tracer::sample_next() {
  if (opts_.sample_every == 0) return false;
  if (opts_.sample_every == 1) return true;
  // Per-thread countdown: no shared state on the issue path. The counter
  // is shared across Tracer instances on the same thread, which only
  // interleaves their sample sets — each still sees ~1-in-N.
  thread_local std::uint64_t issued = 0;
  return issued++ % opts_.sample_every == 0;
}

Tracer::Ring& Tracer::ring_for_thread() {
  thread_local const Tracer* bound_tracer = nullptr;
  thread_local std::size_t bound_slot = 0;
  if (bound_tracer != this) {
    bound_tracer = this;
    bound_slot = ring_rr_.fetch_add(1, std::memory_order_relaxed);
  }
  return rings_[bound_slot % rings_.size()];
}

bool Tracer::record(Stage stage, Decision decision, std::uint64_t trace_id,
                    std::uint64_t key, std::uint32_t ns, std::int64_t start_us,
                    std::int64_t dur_us, bool sampled) {
  const bool forced = decision == Decision::kShed ||
                      decision == Decision::kDenied ||
                      decision == Decision::kError ||
                      dur_us >= opts_.slow_threshold_us;
  if (!sampled && !forced) return false;

  SpanRecord span;
  span.trace_id = trace_id;
  span.key = key;
  span.start_us = start_us;
  span.dur_us = dur_us;
  span.ns = ns;
  span.stage = stage;
  span.decision = decision;
  span.flags = static_cast<std::uint8_t>((sampled ? kSpanSampled : 0) |
                                         (forced ? kSpanForced : 0));

  Ring& ring = ring_for_thread();
  {
    std::lock_guard<std::mutex> lock(ring.mu);
    ring.spans[ring.next % ring.spans.size()] = span;
    ++ring.next;
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
  if (forced && forced_total_ != nullptr) forced_total_->increment();
  Histogram* hist = stage_hist_[static_cast<std::size_t>(stage)];
  if (hist != nullptr) hist->observe(static_cast<double>(dur_us));
  return true;
}

std::vector<SpanRecord> Tracer::snapshot(std::size_t max_spans) const {
  std::vector<SpanRecord> out;
  for (const Ring& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring.mu);
    const std::size_t held =
        std::min<std::uint64_t>(ring.next, ring.spans.size());
    const std::uint64_t oldest = ring.next - held;
    for (std::uint64_t i = 0; i < held; ++i)
      out.push_back(ring.spans[(oldest + i) % ring.spans.size()]);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_us < b.start_us;
            });
  if (max_spans > 0 && out.size() > max_spans)
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(max_spans));
  return out;
}

std::string Tracer::render_json(std::size_t max_spans) const {
  const std::vector<SpanRecord> spans = snapshot(max_spans);
  std::string out = "{\"spans\":[";
  bool first = true;
  for (const SpanRecord& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"trace_id\":" + std::to_string(s.trace_id);
    out += ",\"key\":" + std::to_string(s.key);
    out += ",\"ns\":" + std::to_string(s.ns);
    out += ",\"stage\":\"";
    out += to_string(s.stage);
    out += "\",\"decision\":\"";
    out += to_string(s.decision);
    out += "\",\"start_us\":" + std::to_string(s.start_us);
    out += ",\"dur_us\":" + std::to_string(s.dur_us);
    out += ",\"sampled\":";
    out += (s.flags & kSpanSampled) != 0 ? "true" : "false";
    out += ",\"forced\":";
    out += (s.flags & kSpanForced) != 0 ? "true" : "false";
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace toka::obs
