// The data plane: AccountTable shards owned outright by one driver each,
// fed decoded ops. Every Server and ClusterServer executes its data ops
// here.
//
// Shard s belongs to owner (s mod owners) and only that owner's driver
// touches it — the table's one-accessor-per-shard rule (see
// account_table.hpp), so no shard needs a lock. One step does an owner's
// work: run_once(w) executes the ops waiting for owner w, coalescing
// consecutive acquires into one vectorized acquire_batch call (the coarse
// clock is read once per shard visit and the whole run settles against
// that read), fires each op's completion, then runs the drain hook and the
// owner's TTL sweep. Two drivers call it:
//
//   - The event loops of the transport a Server answers on, when it has
//     them (runtime::LoopHost: EpollMesh). Owner w runs on loop w mod L,
//     at the end of every pass, before the pass's flush. An op decoded or
//     submitted on that loop joins the pass's batch directly, so its reply
//     leaves with the pass's one write: no queue, no wake. An op from any
//     other thread (an admin caller, a foreign loop, an engine-only caller)
//     goes through the owner's bounded MPSC queue and wakes the loop if it
//     is idle. A loop-driven engine runs no worker thread, and a queue's
//     ring is allocated only when the first such op reaches it.
//   - A worker thread per owner, where no loop can drive: InProcNetwork, a
//     transport wrapper that does not forward its loops, and engine-only
//     callers (tests, micro_bench, service_load's sharded modes). It spins,
//     then parks, on its owner's queue. The engine starts on this driver.
//     Once the loops hand it back or stop, the workers start again with
//     the next op posted to an owner that has no driver. A loop that stops
//     runs what its owners hold and gives them up; what reaches an owner
//     before a worker takes it is run by drain(), so a node whose loop
//     died still quiesces, drains and stops.
//
// Either way a step runs the same table calls a single-threaded caller
// makes, so grant decisions, RNG draws, stats and §3.4 audit traces equal
// those of the same op order replayed directly on a table.
//
// Admin operations (stats sweeps, namespace reconfiguration, handoff
// extraction...) need the whole table at once. They run under quiesced():
// a stop-the-world protocol that parks every driven owner at a step
// boundary, runs the sweep with the table exclusively owned, and resumes
// them. A loop that calls it (an admin frame, a promotion on peer-down) is
// between steps, so its own owners count as parked. Parks are bounded by
// one step, so a quiesce costs microseconds — admin traffic is rare by
// construction.
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
#include "runtime/transport.hpp"
#include "service/account_table.hpp"
#include "util/error.hpp"
#include "util/mpsc_queue.hpp"
#include "util/types.hpp"

namespace toka::service {

/// One decoded data operation in flight to its shard's owner.
/// Completions are raw function pointers plus a context — no allocation or
/// type erasure on the per-op path.
struct ShardOp {
  enum class Kind : std::uint8_t {
    kAcquire = 0,
    kRefund = 1,
    kQuery = 2,
    kBatchGroup = 3,  ///< internal: one owner's slice of an EngineBatch
    kInstall = 4,     ///< a handed-off account, `tokens` = its balance
  };

  Kind kind = Kind::kAcquire;
  NamespaceId ns = kDefaultNamespace;
  std::uint64_t key = 0;  ///< account key; group index for kBatchGroup
  Tokens tokens = 0;

  // Outputs, written by the step before the completion runs:
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
  // context. An untraced op costs the step exactly one branch: no clock
  // reads, no recording.
  bool traced = false;
  bool trace_sampled = false;     ///< the context's sampled flag
  std::uint64_t trace_id = 0;
  std::int64_t t_submit_us = 0;   ///< obs::Tracer::now_us() at submit

  using Completion = void (*)(ShardOp&, void*);
  Completion done = nullptr;  ///< runs in the owner's step; may be null
  void* ctx = nullptr;
};

/// A batch of acquires fanned out across owners. `results` is positionally
/// aligned with the submitted op order; the completion fires in whichever
/// owner's step finishes last.
struct EngineBatch {
  NamespaceId ns = kDefaultNamespace;
  std::vector<AcquireOp> ops;             ///< regrouped, contiguous per owner
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
  /// Owner count (a worker thread each under the thread driver); 0 = one
  /// per hardware thread, capped at the table's shard count.
  std::size_t workers = 0;
  /// Per-owner op queue capacity (rounded up to a power of two), which
  /// also caps the ops one loop pass collects for an owner. A full queue
  /// fails try_submit — the server's typed-overload signal. Sized so a
  /// closed-loop client fleet fits: completions must never block pushing
  /// into a sibling owner's full queue.
  std::size_t queue_capacity = 16 * 1024;
  /// When set, per-owner queue-depth gauges are exported (the signal an
  /// adaptive admission valve would want).
  obs::Registry* registry = nullptr;
  /// When set, traced ops get queue-wait and execute spans recorded in the
  /// step (with the §3.4 decision: bank / fresh / denied / refund).
  obs::Tracer* tracer = nullptr;
};

class ShardEngine final : private runtime::LoopWork {
 public:
  /// The table must not be touched directly while the engine runs (use
  /// quiesced() for admin sweeps). Starts the thread driver: tools that
  /// watch or pin the engine's threads find them once this returns.
  explicit ShardEngine(AccountTable& table, ShardEngineOptions options = {});

  /// Leaves any loops it was moved onto, drains queued ops, then stops and
  /// joins the workers. Producers must have stopped submitting. After
  /// destruction the table is single-owner again and may be accessed
  /// directly.
  ~ShardEngine() override;

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  AccountTable& table() { return *table_; }
  /// Owner count — stable for the engine's life, whichever driver runs.
  std::size_t worker_count() const { return owners_.size(); }

  /// The owner of (ns, key)'s shard — stable for the engine's life.
  std::size_t worker_of(NamespaceId ns, std::uint64_t key) const {
    return table_->shard_of(ns, key) % owners_.size();
  }

  /// Posts `op` to its owner. Returns false when the owner's queue (or,
  /// on the owner's own loop, the pass's batch) is full: the caller sheds,
  /// nothing was enqueued. Never blocks.
  bool try_submit(ShardOp op);

  /// Blocking submit: spins/yields until the owner's queue has room. For
  /// ops that must not be shed (bootstrap, handoff installs, closed-loop
  /// benchmarks) — never call from a completion (two full queues pushing
  /// at each other deadlock).
  void submit(ShardOp op);

  /// Fans `ops` out to their owners as one EngineBatch; `done` fires once
  /// every group has executed, with results positionally aligned to `ops`.
  /// Returns false — shedding the whole batch, nothing enqueued — when a
  /// target queue lacks headroom for its group. With a non-zero `trace_id`
  /// (and a tracer on the engine), every per-owner group records one
  /// queue-wait + one execute span under that id — the batch costs one
  /// clock read at submit, not one per op.
  bool submit_batch(NamespaceId ns, std::vector<AcquireOp> ops,
                    EngineBatch::Completion done, void* ctx,
                    std::uint64_t trace_id = 0, bool trace_sampled = false);

  /// One step of owner `w`: executes the ops submitted on its loop since
  /// the last step and up to a drain batch from its queue, then (if any
  /// ran) the drain hook, then its TTL sweep. Returns the ops executed.
  /// Only the thread that drives owner w may call it: its worker thread,
  /// its loop, or a test thread that stands in for that loop.
  std::size_t run_once(std::size_t w);

  /// Moves the owners onto `host`'s loops (owner w on loop w mod L) and
  /// stops the worker threads. Returns false, leaving the thread driver,
  /// when another host already drives the engine or `host` refuses (its
  /// loops stopped). Ops submitted meanwhile from other threads are kept
  /// and run by whichever driver follows. The Server calls it from its
  /// constructor; not callable from a loop of `host` or from a step.
  bool drive_from(runtime::LoopHost& host);

  /// Takes the owners back from `host`'s loops (a no-op unless drive_from
  /// moved them there) and runs what they left queued. No op may be
  /// submitted on those loops afterwards: detach the handlers first. A
  /// later op from any other thread starts the worker threads.
  void stop_driving_from(runtime::LoopHost& host);

  /// Worker threads running right now (0 while loops drive every owner).
  std::size_t worker_threads() const {
    return worker_threads_.load(std::memory_order_relaxed);
  }

  /// Owners whose queue ring has been allocated (by a first op from a
  /// thread other than the owner's loop).
  std::size_t queues_allocated() const;

  /// Runs `fn` with every driven owner parked at a step boundary: the
  /// table is exclusively owned for the duration, so whole-table admin
  /// sweeps (stats, configure_namespace, extract_if, audits...) are safe.
  /// Serialized across callers; returns fn's result. Callable from an
  /// owner's loop between steps; not from a completion or the drain hook
  /// (checked).
  template <typename F>
  decltype(auto) quiesced(F&& fn) {
    QuiesceScope scope(*this);
    return std::forward<F>(fn)();
  }

  /// Waits until every queue is empty and every in-flight op has
  /// completed; runs on the calling thread what owners without a driver
  /// (their loop stopped) left queued. Producers must have stopped
  /// submitting first. Not callable from a loop that drives the engine
  /// (checked): it would wait on its own queue.
  void drain();

  /// Installs (or clears) the drain-boundary hook: it runs for owner `w`
  /// after each step that executed ops (and fired their completions), on
  /// that owner's driver, and may touch exactly that owner's shards. The
  /// cluster replication layer hangs its delta capture here — one flush
  /// per step, not one per op. Installed after construction, since the
  /// cluster layer is built around a running engine. Safe while the
  /// drivers run: the swap happens under quiesced(), so no step can be
  /// running when the callback changes.
  void set_drain_hook(std::function<void(std::size_t w)> hook) {
    quiesced([&] { on_drain_ = std::move(hook); });
  }

  /// Approximate depth of owner `w`'s op queue.
  std::size_t queue_depth(std::size_t w) const {
    return owners_[w]->queue.size();
  }

  /// Largest per-owner queue depth right now (approximate).
  std::size_t queue_depth_max() const;

 private:
  /// Who runs an owner's steps. An owner without a driver has no thread
  /// and no loop: before its first op, or after its loop stopped.
  enum class Driver : std::uint8_t { kNone, kThread, kLoop };

  struct alignas(64) Owner {
    explicit Owner(std::size_t capacity) : queue(capacity) {}
    /// Ops from threads other than the owner's loop.
    util::MpscQueue<ShardOp> queue;
    /// Loop driver only: the ops submitted on the owner's loop this pass
    /// (that loop's thread only).
    std::vector<ShardOp> local;
    std::vector<ShardOp> batch;  ///< run_once's scratch: the step's ops
    std::vector<AcquireOp> run;  ///< run_once's scratch: one acquire run
    /// Changed under driver_mu_; read lock-free by producers.
    std::atomic<Driver> driver{Driver::kNone};
    /// Loop driver: the loop may block, so a producer must wake it.
    std::atomic<bool> idle{true};
    /// A driver has entered and not left (park_mu_).
    bool driven = false;
    TimeUs next_evict_us = 0;
    std::thread thread;  ///< the thread driver's worker (driver_mu_)
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

  // runtime::LoopWork: the loop driver.
  int on_pass(std::size_t loop) override;
  void on_loop_exit(std::size_t loop) override;

  void thread_main(std::size_t w);
  /// Starts a worker for every owner without a driver (driver_mu_ held).
  void start_threads();
  /// Stops and joins every worker (driver_mu_ held).
  void stop_threads();
  /// The loop of the calling thread, kNoLoop off the driving loops.
  std::size_t current_loop() const;
  /// True on the loop that drives owner w.
  bool on_owner_loop(std::size_t w) const;
  /// Queues `op` for owner w from a thread other than its loop and makes
  /// sure a driver will run it: wakes the loop if it is idle, or starts
  /// the worker threads if the owner has no driver. False when the queue
  /// is full.
  bool post(std::size_t w, const ShardOp& op);
  /// Never sheds: joins the pass's batch on the owner's loop, else spins
  /// on post().
  void submit_to(std::size_t w, const ShardOp& op);
  /// Under a quiesce: runs what owners without an entered driver left
  /// queued, on the calling thread.
  void run_undriven();
  void execute(std::vector<ShardOp>& ops, std::vector<AcquireOp>& run,
               std::int64_t t_pop_us);
  void run_batch_group(ShardOp& op, std::int64_t t_pop_us);
  void record_op_spans(ShardOp& op, std::int64_t t_pop_us);
  void complete(ShardOp& op, std::int64_t t_pop_us) {
    if (tracer_ != nullptr && op.traced) record_op_spans(op, t_pop_us);
    if (op.done != nullptr) op.done(op, op.ctx);
  }
  void maybe_evict(Owner& me, std::size_t w);

  // The park protocol, all under park_mu_. parked_ counts the owners that
  // cannot touch the table right now: parked at a step boundary, or with
  // no driver entered.
  // A driver enters or leaves all its owners at once: owners first,
  // first + stride, ... A loop never holds some of its owners while it
  // waits for a quiesce on the others.
  /// Waits out any quiesce (and, for a worker, the loop that still holds
  /// its owner), then takes the owners; false for a worker stopped
  /// meanwhile.
  bool enter(std::size_t first, std::size_t stride, bool worker);
  void leave(std::size_t first, std::size_t stride);
  /// Owners on `loop` with a driver in, or 0 off the loops (park_mu_ held).
  std::size_t driven_by_loop(std::size_t loop) const;
  /// Parks the calling loop's driven owners until the quiesce ends.
  void park_loop(std::size_t loop);
  void begin_quiesce();
  void end_quiesce();
  void register_metrics(obs::Registry& registry);

  AccountTable* table_;
  std::vector<std::unique_ptr<Owner>> owners_;
  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::function<void(std::size_t)> on_drain_;
  std::vector<std::string> metric_names_;

  /// Serializes driver changes: drive_from, stop_driving_from, starting
  /// and stopping the workers.
  std::mutex driver_mu_;
  /// The loops drive_from moved the owners onto; non-null until
  /// stop_driving_from, also after those loops stopped.
  std::atomic<runtime::LoopHost*> host_{nullptr};
  /// host_'s loop count. Atomic: a producer that saw the previous host
  /// may still read it while drive_from installs the next.
  std::atomic<std::size_t> loops_{1};
  std::atomic<std::size_t> worker_threads_{0};

  std::atomic<bool> stop_threads_{false};
  std::atomic<bool> park_requested_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;    ///< owners -> quiescer: one parked
  std::condition_variable resume_cv_;  ///< quiescer -> owners: go
  std::size_t parked_ = 0;
  bool quiescing_ = false;  ///< a quiescer holds the table
};

}  // namespace toka::service
