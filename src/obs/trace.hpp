// Flight-recorder request tracing: allocation-free per-request spans in a
// small set of ring buffers, cheap enough to leave on in production.
//
// A span is one stage of one request's life (client issue, frame decode,
// shard-queue wait, shard execute, reply cork, redirect, shed) stamped
// with the request's trace id, the key/namespace it touched and — for the
// execute stage — the §3.4 decision taken (granted from the bank, granted
// from a fresh token, refund, shed, denied, error).
//
// Recording policy (the flight-recorder part):
//   - requests in the sampled 1-in-N set record every stage;
//   - sheds, denials and errors always record, sampled or not;
//   - any span at/above the slow threshold always records.
// Everything else costs one branch and records nothing.
//
// Rings are fixed-size and overwrite oldest-first; each recording thread
// is pinned round-robin to one ring, and each ring is guarded by its own
// mutex — uncontended in steady state (one writer per ring, snapshots are
// rare), which keeps the recorder TSan-clean without a lock-free reclaim
// scheme. A snapshot locks rings one at a time, so it never stops the
// world.
//
// When built with a Registry, the tracer also feeds per-stage latency
// histograms (queue-wait / execute / cork) from every recorded span, so
// aggregate stage p99s ride the existing scrape/kStats pipeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace toka::obs {

class Registry;
class Counter;
class Histogram;

/// Which stage of the request pipeline a span covers.
enum class Stage : std::uint8_t {
  kClient = 0,     ///< client: issue → response decoded
  kDecode = 1,     ///< server: frame arrival → request decoded/submitted
  kQueueWait = 2,  ///< shard engine: submit → worker pop
  kExecute = 3,    ///< shard engine: worker pop → table op applied
  kCork = 4,       ///< server: completion → reply handed to the transport
  kRedirect = 5,   ///< cluster: frame answered with a redirect
  kShed = 6,       ///< server: request refused by admission/queue limits
  kHandoff = 7,    ///< cluster: account state moved node-to-node
  kPromote = 8,    ///< cluster: failover map adoption (epoch bump)
  kReplicate = 9,  ///< cluster: delta-stream frame primary → follower
};
inline constexpr std::uint8_t kStageCount = 10;

/// The §3.4 outcome a span carries (execute/shed stages; kNone elsewhere).
enum class Decision : std::uint8_t {
  kNone = 0,
  kBank = 1,    ///< granted entirely from banked tokens
  kFresh = 2,   ///< grant needed tokens minted by this settle
  kRefund = 3,  ///< refund applied
  kShed = 4,    ///< refused: admission budget or shard queue full
  kDenied = 5,  ///< acquire served but zero tokens granted
  kError = 6,   ///< typed error (bad body, unknown namespace, ...)
};
inline constexpr std::uint8_t kDecisionCount = 7;

const char* to_string(Stage stage);
const char* to_string(Decision decision);

/// Span flag bits (mirrored onto the kTraces wire and /traces JSON).
inline constexpr std::uint8_t kSpanSampled = 0x01;  ///< in the 1-in-N set
inline constexpr std::uint8_t kSpanForced = 0x02;   ///< shed/error/slow

/// One recorded span. POD; rings store these by value. `ns` is the
/// service-layer NamespaceId's underlying type (obs sits below the
/// service layer and cannot name it).
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t key = 0;
  std::int64_t start_us = 0;  ///< steady-clock microseconds
  std::int64_t dur_us = 0;
  std::uint32_t ns = 0;
  Stage stage = Stage::kClient;
  Decision decision = Decision::kNone;
  std::uint8_t flags = 0;
};

struct TracerOptions {
  /// Ring count; recording threads are assigned round-robin. More rings
  /// than concurrent recorders wastes memory, fewer adds (rare) contention.
  std::size_t rings = 8;
  /// Spans kept per ring before oldest-first overwrite.
  std::size_t ring_capacity = 2048;
  /// Sample 1 request in N end to end (0 disables sampling entirely;
  /// forced records still happen).
  std::uint64_t sample_every = 128;
  /// Spans at/above this duration record even when unsampled.
  std::int64_t slow_threshold_us = 10'000;
  /// Optional: per-stage histograms + recorder counters land here.
  Registry* registry = nullptr;
};

class Tracer {
 public:
  explicit Tracer(TracerOptions opts = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Monotonic, never-zero trace id source. Ids are unique across every
  /// tracer in the process (each tracer mints from its own slice of the
  /// id space), so a cluster of per-node tracers can never hand two
  /// unrelated requests the same id.
  std::uint64_t next_trace_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }

  /// True when the next request this thread issues should join the
  /// sampled set (thread-local 1-in-N countdown; first call samples, so
  /// short tests see traces).
  bool sample_next();

  /// util::Clock::host() microseconds — the timebase every span uses.
  static std::int64_t now_us();

  /// Records one span if the policy says so (sampled, or a shed/denied/
  /// error decision, or dur >= slow threshold). Returns whether the span
  /// was kept. Safe from any thread; never allocates.
  bool record(Stage stage, Decision decision, std::uint64_t trace_id,
              std::uint64_t key, std::uint32_t ns, std::int64_t start_us,
              std::int64_t dur_us, bool sampled);

  /// Copies out the newest spans (all rings merged, oldest first),
  /// capped at `max_spans` (0 = everything currently held).
  std::vector<SpanRecord> snapshot(std::size_t max_spans = 0) const;

  /// The /traces JSON document: {"spans":[{...}, ...]}.
  std::string render_json(std::size_t max_spans = 0) const;

  /// Total spans kept since construction (overwritten ones included).
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  const TracerOptions& options() const { return opts_; }

 private:
  struct alignas(64) Ring {
    mutable std::mutex mu;
    std::vector<SpanRecord> spans;  ///< sized ring_capacity, fixed
    std::uint64_t next = 0;         ///< total writes; next % cap = slot
  };

  Ring& ring_for_thread();
  void register_metrics();

  TracerOptions opts_;
  std::vector<Ring> rings_;
  std::atomic<std::uint64_t> ids_{1};
  std::atomic<std::size_t> ring_rr_{0};
  std::atomic<std::uint64_t> recorded_{0};
  Counter* forced_total_ = nullptr;   ///< registry-owned, optional
  Histogram* stage_hist_[kStageCount] = {};
};

}  // namespace toka::obs
