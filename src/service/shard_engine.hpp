// The data plane: worker threads that own AccountTable shards outright, fed
// decoded ops through bounded MPSC queues. Every Server and ClusterServer
// executes its data ops here.
//
// Shard s belongs to worker (s mod workers) and nobody else touches it —
// the table's one-accessor-per-shard rule (see account_table.hpp), so no
// shard needs a lock. IO threads decode a request into a ShardOp, post it
// to the owner's queue and move on; the worker drains its queue in batches,
// coalesces consecutive acquires into one vectorized acquire_batch call
// (the coarse clock is read once per shard visit and the whole run settles
// against that read), executes, and fires each op's completion callback —
// which, on the server, encodes and sends the reply from the worker thread,
// and the event loop writes the replies queued before its wake as one batch.
//
// A worker runs the same table calls a single-threaded caller makes, so
// grant decisions, RNG draws, stats and §3.4 audit traces equal those of
// the same op order replayed directly on a table.
//
// Admin operations (stats sweeps, namespace reconfiguration, handoff
// extraction...) need the whole table at once. They run under quiesced():
// a stop-the-world protocol that parks every worker at a drain boundary,
// runs the sweep with the table exclusively owned, and resumes the workers.
// Parks are bounded by one drain batch, so a quiesce costs microseconds —
// admin traffic is rare by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "service/account_table.hpp"
#include "util/error.hpp"
#include "util/mpsc_queue.hpp"
#include "util/types.hpp"

namespace toka::service {

/// One decoded data operation in flight to its shard's owner worker.
/// Completions are raw function pointers plus a context — no allocation or
/// type erasure on the per-op path.
struct ShardOp {
  enum class Kind : std::uint8_t {
    kAcquire = 0,
    kRefund = 1,
    kQuery = 2,
    kBatchGroup = 3,  ///< internal: one worker's slice of an EngineBatch
    kInstall = 4,     ///< a handed-off account, `tokens` = its balance
  };

  Kind kind = Kind::kAcquire;
  NamespaceId ns = kDefaultNamespace;
  std::uint64_t key = 0;  ///< account key; group index for kBatchGroup
  Tokens tokens = 0;

  // Outputs, written by the worker before the completion runs:
  //   kAcquire: out_a = granted,  out_b = balance
  //   kRefund:  out_a = accepted, out_b = balance
  //   kQuery:   out_a = balance,  out_b = exists (0/1)
  //   kInstall: out_a = installed (0/1)
  Tokens out_a = 0;
  Tokens out_b = 0;
  /// false: the op was rejected before touching an account (unknown
  /// namespace or invalid arguments — util::InvariantError).
  bool ok = true;
  /// kAcquire output: the grant spent fresh (just-settled) tokens.
  bool out_fresh = false;

  // Trace fields, set by the submitter when the request carries a trace
  // context. An untraced op costs the worker exactly one branch: no clock
  // reads, no recording.
  bool traced = false;
  bool trace_sampled = false;     ///< the context's sampled flag
  std::uint64_t trace_id = 0;
  std::int64_t t_submit_us = 0;   ///< obs::Tracer::now_us() at submit

  using Completion = void (*)(ShardOp&, void*);
  Completion done = nullptr;  ///< runs on the worker thread; may be null
  void* ctx = nullptr;
};

/// A batch of acquires fanned out across owner workers. `results` is
/// positionally aligned with the submitted op order; the completion fires
/// on whichever worker finishes last.
struct EngineBatch {
  NamespaceId ns = kDefaultNamespace;
  std::vector<AcquireOp> ops;             ///< regrouped, contiguous per worker
  std::vector<std::uint32_t> original;    ///< ops[i]'s position in the submit
  std::vector<AcquireResult> results;     ///< by original position

  using Completion = void (*)(EngineBatch&, void*);
  Completion done = nullptr;
  void* ctx = nullptr;

  struct Group {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  std::vector<Group> groups;
  std::atomic<std::uint32_t> remaining{0};
};

struct ShardEngineOptions {
  /// Worker thread count; 0 = one per hardware thread, capped at the
  /// table's shard count.
  std::size_t workers = 0;
  /// Per-worker op queue capacity (rounded up to a power of two). A full
  /// queue fails try_submit — the server's typed-overload signal. Sized so
  /// a closed-loop client fleet fits: completions must never block pushing
  /// into a sibling worker's full queue.
  std::size_t queue_capacity = 16 * 1024;
  /// When set, per-worker queue-depth gauges are exported (the signal an
  /// adaptive admission valve would want).
  obs::Registry* registry = nullptr;
  /// When set, traced ops get queue-wait and execute spans recorded on the
  /// worker (with the §3.4 decision: bank / fresh / denied / refund).
  obs::Tracer* tracer = nullptr;
};

class ShardEngine {
 public:
  /// The table must not be touched directly while the engine runs (use
  /// quiesced() for admin sweeps). Starts the workers immediately.
  explicit ShardEngine(AccountTable& table, ShardEngineOptions options = {});

  /// Drains queued ops, then stops and joins the workers. Producers must
  /// have stopped submitting. After destruction the table is single-owner
  /// again and may be accessed directly.
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  AccountTable& table() { return *table_; }
  std::size_t worker_count() const { return workers_.size(); }

  /// The worker owning (ns, key)'s shard — stable for the engine's life.
  std::size_t worker_of(NamespaceId ns, std::uint64_t key) const {
    return table_->shard_of(ns, key) % workers_.size();
  }

  /// Posts `op` to its owner worker. Returns false when the owner's queue
  /// is full (the caller sheds — nothing was enqueued). Never blocks.
  bool try_submit(ShardOp op) {
    return workers_[worker_of(op.ns, op.key)]->queue.try_push(std::move(op));
  }

  /// Blocking submit: spins/yields until the owner's queue has room. For
  /// ops that must not be shed (bootstrap, handoff installs, closed-loop
  /// benchmarks) — never call from a worker completion (two full queues
  /// pushing at each other deadlock).
  void submit(ShardOp op) {
    workers_[worker_of(op.ns, op.key)]->queue.push(std::move(op));
  }

  /// Fans `ops` out to their owner workers as one EngineBatch; `done`
  /// fires once every group has executed, with results positionally
  /// aligned to `ops`. Returns false — shedding the whole batch, nothing
  /// enqueued — when a target queue lacks headroom for its group. With a
  /// non-zero `trace_id` (and a tracer on the engine), every per-worker
  /// group records one queue-wait + one execute span under that id — the
  /// batch costs one clock read at submit, not one per op.
  bool submit_batch(NamespaceId ns, std::vector<AcquireOp> ops,
                    EngineBatch::Completion done, void* ctx,
                    std::uint64_t trace_id = 0, bool trace_sampled = false);

  /// Runs `fn` with every worker parked at a drain boundary: the table is
  /// exclusively owned for the duration, so whole-table admin sweeps
  /// (stats, configure_namespace, extract_if, audits...) are safe.
  /// Serialized across callers; returns fn's result. Must not be called
  /// from a worker completion (checked).
  template <typename F>
  decltype(auto) quiesced(F&& fn) {
    QuiesceScope scope(*this);
    return std::forward<F>(fn)();
  }

  /// Waits until every queue is empty and every in-flight op has
  /// completed. Producers must have stopped submitting first.
  void drain();

  /// Installs (or clears) the drain-boundary hook: it runs on worker `w`
  /// after each non-empty drain batch has executed (and its completions
  /// have fired), on the worker thread, and may touch exactly that
  /// worker's shards. The cluster replication layer hangs its delta
  /// capture here — one flush per batch, not one per op. Installed after
  /// construction, since the cluster layer is built around a running
  /// engine. Safe while the workers run: the swap happens under
  /// quiesced(), so no worker can be mid-drain when the callback changes.
  void set_drain_hook(std::function<void(std::size_t w)> hook) {
    quiesced([&] { on_drain_ = std::move(hook); });
  }

  /// Approximate depth of worker `w`'s op queue.
  std::size_t queue_depth(std::size_t w) const {
    return workers_[w]->queue.size();
  }

  /// Largest per-worker queue depth right now (approximate).
  std::size_t queue_depth_max() const;

 private:
  struct alignas(64) Worker {
    explicit Worker(std::size_t capacity) : queue(capacity) {}
    util::MpscQueue<ShardOp> queue;
    TimeUs next_evict_us = 0;
    std::thread thread;
  };

  class QuiesceScope {
   public:
    explicit QuiesceScope(ShardEngine& engine) : engine_(&engine) {
      engine_->begin_quiesce();
    }
    ~QuiesceScope() { engine_->end_quiesce(); }
    QuiesceScope(const QuiesceScope&) = delete;
    QuiesceScope& operator=(const QuiesceScope&) = delete;

   private:
    ShardEngine* engine_;
  };

  void worker_loop(std::size_t w);
  void execute(std::vector<ShardOp>& ops, std::vector<AcquireOp>& run,
               std::int64_t t_pop_us);
  void run_batch_group(ShardOp& op, std::int64_t t_pop_us);
  void record_op_spans(ShardOp& op, std::int64_t t_pop_us);
  void complete(ShardOp& op, std::int64_t t_pop_us) {
    if (tracer_ != nullptr && op.traced) record_op_spans(op, t_pop_us);
    if (op.done != nullptr) op.done(op, op.ctx);
  }
  void maybe_evict(Worker& me, std::size_t w);
  void park();
  /// True on this engine's worker threads, where quiesced() would park
  /// its own caller (begin_quiesce checks it).
  bool on_worker_thread() const;
  void begin_quiesce();
  void end_quiesce();
  void register_metrics(obs::Registry& registry);

  AccountTable* table_;
  std::vector<std::unique_ptr<Worker>> workers_;
  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::function<void(std::size_t)> on_drain_;
  std::vector<std::string> metric_names_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> park_requested_{false};
  std::mutex admin_mu_;  ///< serializes quiesced() callers
  std::mutex park_mu_;
  std::condition_variable park_cv_;    ///< workers -> quiescer: all parked
  std::condition_variable resume_cv_;  ///< quiescer -> workers: go
  std::size_t parked_ = 0;
};

}  // namespace toka::service
