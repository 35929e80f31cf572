#include "service/shard_engine.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>

namespace toka::service {

namespace {
/// Ops popped from an owner's queue per step. Bounds how long a driver can
/// go between park checks, so a quiesce never waits on more than one step
/// per owner.
constexpr std::size_t kDrainMax = 256;

/// Longest an idle loop waits before its owners' next TTL check.
constexpr int kMaxLoopWaitMs = 1000;

/// The engine whose step runs on this thread right now (nullptr outside
/// run_once): quiesced() uses it to refuse self-deadlocking calls from
/// completions and the drain hook.
thread_local const ShardEngine* tls_stepping = nullptr;
}  // namespace

ShardEngine::ShardEngine(AccountTable& table, ShardEngineOptions options)
    : table_(&table),
      registry_(options.registry),
      tracer_(options.tracer) {
  std::size_t workers = options.workers;
  if (workers == 0) {
    workers = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  workers = std::clamp<std::size_t>(workers, 1, table.shard_count());
  owners_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    owners_.push_back(std::make_unique<Owner>(options.queue_capacity));
  parked_ = workers;  // no driver has entered yet
  if (registry_ != nullptr) register_metrics(*registry_);
  std::lock_guard lock(driver_mu_);
  start_threads();
}

ShardEngine::~ShardEngine() {
  if (runtime::LoopHost* host = host_.load()) stop_driving_from(*host);
  drain();
  if (registry_ != nullptr) {
    for (const std::string& name : metric_names_) registry_->remove(name);
  }
  std::lock_guard lock(driver_mu_);
  stop_threads();
}

void ShardEngine::register_metrics(obs::Registry& registry) {
  const auto add = [&](std::string name) {
    metric_names_.push_back(name);
    return name;
  };
  for (std::size_t w = 0; w < owners_.size(); ++w) {
    registry.gauge(add("tokend_shard_queue_depth_w" + std::to_string(w)),
                   [this, w] {
                     return static_cast<double>(queue_depth(w));
                   });
  }
  registry.gauge(add("tokend_shard_queue_depth_max"),
                 [this] { return static_cast<double>(queue_depth_max()); });
  registry.gauge(add("tokend_shard_workers"), [this] {
    return static_cast<double>(worker_count());
  });
}

std::size_t ShardEngine::queue_depth_max() const {
  std::size_t depth = 0;
  for (const auto& owner : owners_)
    depth = std::max(depth, owner->queue.size());
  return depth;
}

std::size_t ShardEngine::queues_allocated() const {
  return static_cast<std::size_t>(
      std::count_if(owners_.begin(), owners_.end(),
                    [](const auto& owner) { return owner->queue.allocated(); }));
}

// ------------------------------------------------------------- submitting

std::size_t ShardEngine::current_loop() const {
  const runtime::LoopHost* host = host_.load(std::memory_order_acquire);
  return host != nullptr ? host->current_loop() : runtime::LoopHost::kNoLoop;
}

bool ShardEngine::on_owner_loop(std::size_t w) const {
  return owners_[w]->driver.load(std::memory_order_acquire) == Driver::kLoop &&
         current_loop() == w % loops_;
}

bool ShardEngine::post(std::size_t w, const ShardOp& op) {
  Owner& owner = *owners_[w];
  if (!owner.queue.try_push(op)) return false;
  // `idle` is the handshake with whoever changes the owner's state: the
  // loop that goes idle (on_pass) and every driver change swap it after
  // their own write and before they look at the queue. Both sides swap the
  // same atomic, so either they see this op, or this swap sees their write
  // (the loop idle, the driver changed) and acts on it.
  const bool was_idle = owner.idle.exchange(false, std::memory_order_acq_rel);
  switch (owner.driver.load(std::memory_order_acquire)) {
    case Driver::kThread:
      break;  // the push woke the worker if it was parked
    case Driver::kLoop:
      if (was_idle) {
        if (runtime::LoopHost* host = host_.load(std::memory_order_acquire))
          host->wake(w % loops_);
      }
      break;
    case Driver::kNone: {
      std::lock_guard lock(driver_mu_);
      start_threads();  // a no-op if a driver was installed meanwhile
      break;
    }
  }
  return true;
}

bool ShardEngine::try_submit(ShardOp op) {
  const std::size_t w = worker_of(op.ns, op.key);
  if (on_owner_loop(w)) {
    Owner& owner = *owners_[w];
    if (owner.local.size() >= owner.queue.capacity()) return false;
    owner.local.push_back(op);
    return true;
  }
  return post(w, op);
}

void ShardEngine::submit(ShardOp op) { submit_to(worker_of(op.ns, op.key), op); }

void ShardEngine::submit_to(std::size_t w, const ShardOp& op) {
  if (on_owner_loop(w)) {
    owners_[w]->local.push_back(op);
    return;
  }
  for (std::size_t spins = 0; !post(w, op); ++spins) {
    // A loop spinning on a foreign owner's full queue still parks for a
    // quiesce, or the quiescer would wait on it forever.
    if (park_requested_.load(std::memory_order_acquire)) {
      const std::size_t loop = current_loop();
      if (loop != runtime::LoopHost::kNoLoop) park_loop(loop);
    }
    if (spins >= 64) std::this_thread::yield();
  }
}

bool ShardEngine::submit_batch(NamespaceId ns, std::vector<AcquireOp> ops,
                               EngineBatch::Completion done, void* ctx,
                               std::uint64_t trace_id, bool trace_sampled) {
  const std::size_t total = ops.size();
  auto batch = std::make_unique<EngineBatch>();
  batch->ns = ns;
  batch->done = done;
  batch->ctx = ctx;
  batch->results.resize(total);
  if (total == 0) {
    // Degenerate batch: complete inline on the submitter.
    if (done != nullptr) done(*batch, ctx);
    return true;
  }
  // Counting sort by owner: one pass to count, one to scatter the ops into
  // per-owner contiguous groups (original positions remembered so the step
  // can write results positionally).
  const std::size_t W = owners_.size();
  std::vector<std::uint32_t> owner(total);
  std::vector<std::uint32_t> count(W, 0);
  for (std::size_t i = 0; i < total; ++i) {
    owner[i] = static_cast<std::uint32_t>(worker_of(ns, ops[i].key));
    ++count[owner[i]];
  }
  std::vector<std::uint32_t> offset(W, 0);
  std::uint32_t running = 0;
  for (std::size_t w = 0; w < W; ++w) {
    offset[w] = running;
    running += count[w];
  }
  batch->ops.resize(total);
  batch->original.resize(total);
  std::vector<std::uint32_t> cursor = offset;
  for (std::size_t i = 0; i < total; ++i) {
    const std::uint32_t pos = cursor[owner[i]]++;
    batch->ops[pos] = ops[i];
    batch->original[pos] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::size_t> targets;
  for (std::size_t w = 0; w < W; ++w) {
    if (count[w] == 0) continue;
    batch->groups.push_back(
        EngineBatch::Group{offset[w], offset[w] + count[w]});
    targets.push_back(w);
  }
  batch->remaining.store(static_cast<std::uint32_t>(batch->groups.size()),
                         std::memory_order_relaxed);
  // All-or-nothing admission: a group op occupies one queue cell (or one
  // slot of the pass's batch), so a headroom probe per target (racy, but
  // the blocking submit below is the backstop) is enough to keep batch
  // sheds clean — either every group is posted or none is.
  for (const std::size_t w : targets) {
    const Owner& target = *owners_[w];
    const std::size_t depth =
        on_owner_loop(w) ? target.local.size() : target.queue.size();
    if (depth + 1 >= target.queue.capacity())
      return false;  // batch (unique_ptr) frees; nothing was enqueued
  }
  // From the first post on, other owners race us to finish groups and the
  // last finisher deletes the batch — so the loop may not touch `raw`
  // after a post. The group count lives in `targets`, everything else in
  // the op.
  const bool trace = trace_id != 0 && tracer_ != nullptr;
  const std::int64_t t_submit_us = trace ? obs::Tracer::now_us() : 0;
  EngineBatch* raw = batch.release();
  for (std::size_t g = 0; g < targets.size(); ++g) {
    ShardOp op;
    op.kind = ShardOp::Kind::kBatchGroup;
    op.ns = ns;
    op.key = g;
    op.ctx = raw;
    if (trace) {
      op.traced = true;
      op.trace_sampled = trace_sampled;
      op.trace_id = trace_id;
      op.t_submit_us = t_submit_us;
    }
    submit_to(targets[g], op);
  }
  return true;
}

// ------------------------------------------------------------------ the step

std::size_t ShardEngine::run_once(std::size_t w) {
  Owner& me = *owners_[w];
  std::vector<ShardOp>& ops = me.batch;
  ops.clear();
  ops.swap(me.local);  // this pass's own ops; `local` keeps a spare buffer
  me.queue.pop_batch(ops, kDrainMax);
  if (!ops.empty()) {
    // One pop timestamp serves the whole step (queue-wait ends and execute
    // begins here for every op in it); taken only when some op in it is
    // actually traced, so an untraced step reads no clock.
    std::int64_t t_pop_us = 0;
    if (tracer_ != nullptr) {
      for (const ShardOp& op : ops) {
        if (op.traced) {
          t_pop_us = obs::Tracer::now_us();
          break;
        }
      }
    }
    tls_stepping = this;
    execute(ops, me.run, t_pop_us);
    // Drain boundary: completions for the whole step have fired, this
    // owner's shards are between steps — the granularity at which the
    // replication layer captures per-account deltas (one flush per step).
    if (on_drain_) on_drain_(w);
    tls_stepping = nullptr;
  }
  maybe_evict(me, w);
  return ops.size();
}

// -------------------------------------------------------- the thread driver

void ShardEngine::start_threads() {
  std::size_t started = 0;
  stop_threads_.store(false, std::memory_order_release);
  for (std::size_t w = 0; w < owners_.size(); ++w) {
    Owner& owner = *owners_[w];
    if (owner.driver.load(std::memory_order_relaxed) != Driver::kNone)
      continue;
    owner.driver.store(Driver::kThread, std::memory_order_release);
    owner.thread = std::thread([this, w] { thread_main(w); });
    ++started;
  }
  worker_threads_.fetch_add(started, std::memory_order_relaxed);
}

void ShardEngine::stop_threads() {
  stop_threads_.store(true, std::memory_order_release);
  for (auto& owner : owners_) owner->queue.notify();
  {
    // Pair the flag flip with the park mutex so a worker between its
    // predicate check and its wait cannot miss the notification.
    std::lock_guard lock(park_mu_);
  }
  resume_cv_.notify_all();
  for (auto& owner : owners_) {
    if (!owner->thread.joinable()) continue;
    owner->thread.join();
    owner->driver.store(Driver::kNone, std::memory_order_release);
  }
  worker_threads_.store(0, std::memory_order_relaxed);
}

void ShardEngine::thread_main(std::size_t w) {
  Owner& me = *owners_[w];
  if (!enter(w, owners_.size(), /*worker=*/true)) return;  // stopped early
  for (;;) {
    if (stop_threads_.load(std::memory_order_acquire)) break;
    if (park_requested_.load(std::memory_order_acquire)) {
      std::unique_lock lock(park_mu_);
      ++parked_;
      park_cv_.notify_all();
      resume_cv_.wait(lock, [this] {
        return !quiescing_ || stop_threads_.load(std::memory_order_relaxed);
      });
      --parked_;
      continue;
    }
    if (run_once(w) > 0) continue;
    // The wait also breaks on the eviction deadline so an idle worker
    // still sweeps its shards' TTLs (the clock read is one atomic load).
    me.queue.wait_nonempty([this, &me] {
      return stop_threads_.load(std::memory_order_relaxed) ||
             park_requested_.load(std::memory_order_relaxed) ||
             table_->clock().now_us() >= me.next_evict_us;
    });
  }
  leave(w, owners_.size());
}

// ---------------------------------------------------------- the loop driver

bool ShardEngine::drive_from(runtime::LoopHost& host) {
  TOKA_CHECK_MSG(tls_stepping != this && host.current_loop() ==
                                             runtime::LoopHost::kNoLoop,
                 "ShardEngine::drive_from called on a loop or in a step");
  std::lock_guard lock(driver_mu_);
  if (host_.load() != nullptr) return false;
  {
    QuiesceScope scope(*this);
    stop_threads();  // parked workers leave; queued ops wait for the loops
    loops_ = host.loop_count();
    host_.store(&host, std::memory_order_release);
    for (auto& owner : owners_) {
      owner->driver.store(Driver::kLoop, std::memory_order_release);
      owner->idle.exchange(true, std::memory_order_acq_rel);  // see post()
    }
    if (!host.attach(*this)) {
      for (auto& owner : owners_) owner->driver.store(Driver::kNone);
      host_.store(nullptr, std::memory_order_release);
      start_threads();  // the workers enter once this quiesce ends
      return false;
    }
  }
  // One pass per loop: each enters its owners, runs what was queued before
  // the move and sets its TTL wait.
  for (std::size_t l = 0; l < loops_; ++l) host.wake(l);
  return true;
}

void ShardEngine::stop_driving_from(runtime::LoopHost& host) {
  if (host_.load() != &host) return;
  host.detach(*this);  // no on_pass or on_loop_exit runs after this
  {
    std::lock_guard lock(driver_mu_);
    // From here a producer finds no driver and starts the workers; they
    // enter once the quiesce below has run what the loops left queued.
    // An owner whose loop stopped may have a worker by now; that one
    // keeps it.
    for (std::size_t w = 0; w < owners_.size(); ++w) {
      Driver expected = Driver::kLoop;
      if (!owners_[w]->driver.compare_exchange_strong(expected,
                                                      Driver::kNone))
        continue;
      owners_[w]->idle.exchange(true, std::memory_order_acq_rel);  // post()
      leave(w, owners_.size());
    }
    host_.store(nullptr, std::memory_order_release);
  }
  quiesced([this] { run_undriven(); });
}

int ShardEngine::on_pass(std::size_t loop) {
  if (loop >= owners_.size()) return -1;  // more loops than owners
  if (!owners_[loop]->driven) enter(loop, loops_, /*worker=*/false);
  for (std::size_t w = loop; w < owners_.size(); w += loops_) {
    owners_[w]->idle.store(false, std::memory_order_relaxed);
    run_once(w);
  }
  if (park_requested_.load(std::memory_order_acquire)) park_loop(loop);
  int wait_ms = kMaxLoopWaitMs;
  const TimeUs now = table_->clock().now_us();
  for (std::size_t w = loop; w < owners_.size(); w += loops_) {
    Owner& me = *owners_[w];
    me.idle.exchange(true, std::memory_order_acq_rel);  // see post()
    if (!me.local.empty() || !me.queue.empty()) return 0;
    const TimeUs until_ms = (me.next_evict_us - now + 999) / 1000;
    if (until_ms < wait_ms) wait_ms = static_cast<int>(std::max<TimeUs>(until_ms, 1));
  }
  return wait_ms;
}

void ShardEngine::on_loop_exit(std::size_t loop) {
  if (loop >= owners_.size()) return;
  // The loop stops for good, its owners still entered. It runs what they
  // hold, gives them up (a producer that finds no driver starts a worker,
  // which waits for this loop to leave) and runs what reached them before
  // that: every op posted while the owner still looked loop-driven.
  const auto run_all = [&] {
    for (std::size_t w = loop; w < owners_.size(); w += loops_) {
      while (run_once(w) > 0) {
      }
    }
  };
  if (owners_[loop]->driven) run_all();
  for (std::size_t w = loop; w < owners_.size(); w += loops_) {
    owners_[w]->driver.store(Driver::kNone, std::memory_order_release);
    owners_[w]->idle.exchange(true, std::memory_order_acq_rel);  // see post()
  }
  if (owners_[loop]->driven) run_all();
  leave(loop, loops_);
}

void ShardEngine::run_undriven() {
  for (std::size_t w = 0; w < owners_.size(); ++w) {
    bool driven;
    {
      std::lock_guard lock(park_mu_);
      driven = owners_[w]->driven;
    }
    if (driven) continue;
    while (run_once(w) > 0) {
    }
  }
}

// ---------------------------------------------------------- park protocol

bool ShardEngine::enter(std::size_t first, std::size_t stride, bool worker) {
  std::unique_lock lock(park_mu_);
  // A worker stopped while it waits (drive_from stops the workers inside
  // its own quiesce) never enters.
  const auto stopped = [&] {
    return worker && stop_threads_.load(std::memory_order_relaxed);
  };
  resume_cv_.wait(lock, [&] {
    return stopped() || (!quiescing_ && !(worker && owners_[first]->driven));
  });
  if (stopped()) return false;
  for (std::size_t w = first; w < owners_.size(); w += stride) {
    --parked_;
    owners_[w]->driven = true;
  }
  return true;
}

void ShardEngine::leave(std::size_t first, std::size_t stride) {
  {
    std::lock_guard lock(park_mu_);
    for (std::size_t w = first; w < owners_.size(); w += stride) {
      if (!owners_[w]->driven) continue;
      owners_[w]->driven = false;
      ++parked_;
    }
  }
  park_cv_.notify_all();
  resume_cv_.notify_all();  // a worker waiting for this owner's loop
}

std::size_t ShardEngine::driven_by_loop(std::size_t loop) const {
  if (loop == runtime::LoopHost::kNoLoop) return 0;
  std::size_t n = 0;
  for (std::size_t w = loop; w < owners_.size(); w += loops_)
    n += owners_[w]->driven ? 1 : 0;
  return n;
}

void ShardEngine::park_loop(std::size_t loop) {
  std::unique_lock lock(park_mu_);
  if (!quiescing_) return;
  const std::size_t mine = driven_by_loop(loop);
  parked_ += mine;
  park_cv_.notify_all();
  resume_cv_.wait(lock, [this] { return !quiescing_; });
  parked_ -= mine;
}

void ShardEngine::begin_quiesce() {
  TOKA_CHECK_MSG(tls_stepping != this,
                 "quiesced() called from a shard completion or drain hook — "
                 "that would park the caller and deadlock; run admin ops "
                 "outside the engine's step");
  const std::size_t loop = current_loop();
  std::unique_lock lock(park_mu_);
  // Called on a loop, its own owners are between steps: they count as
  // parked, while this caller waits its turn and while it holds the table.
  const std::size_t mine = driven_by_loop(loop);
  while (quiescing_) {
    parked_ += mine;
    park_cv_.notify_all();
    resume_cv_.wait(lock, [this] { return !quiescing_; });
    parked_ -= mine;
  }
  quiescing_ = true;
  park_requested_.store(true, std::memory_order_release);
  lock.unlock();
  for (auto& owner : owners_) owner->queue.notify();
  if (runtime::LoopHost* driver = host_.load(std::memory_order_acquire)) {
    for (std::size_t l = 0; l < loops_; ++l) driver->wake(l);
  }
  lock.lock();
  park_cv_.wait(lock, [&] { return parked_ + mine >= owners_.size(); });
}

void ShardEngine::end_quiesce() {
  {
    std::lock_guard lock(park_mu_);
    quiescing_ = false;
    park_requested_.store(false, std::memory_order_release);
  }
  resume_cv_.notify_all();
}

void ShardEngine::drain() {
  TOKA_CHECK_MSG(current_loop() == runtime::LoopHost::kNoLoop,
                 "ShardEngine::drain called on a loop that drives the "
                 "engine — it would wait on its own queue");
  for (;;) {
    // Driven queues empty on their own; what an owner without a driver
    // holds is run below.
    for (auto& owner : owners_) {
      while (owner->driver.load(std::memory_order_acquire) != Driver::kNone &&
             !owner->queue.empty())
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // One quiesce barrier waits out whatever each driver had already taken
    // (a loop parks only after its pass's step).
    const bool empty = quiesced([this] {
      run_undriven();
      for (const auto& owner : owners_) {
        if (!owner->queue.empty() || !owner->local.empty()) return false;
      }
      return true;
    });
    if (empty) return;
  }
}

// --------------------------------------------------------------- execution

void ShardEngine::execute(std::vector<ShardOp>& ops,
                          std::vector<AcquireOp>& run, std::int64_t t_pop_us) {
  std::size_t i = 0;
  while (i < ops.size()) {
    ShardOp& op = ops[i];
    switch (op.kind) {
      case ShardOp::Kind::kAcquire: {
        // Coalesce the maximal run of same-namespace acquires into one
        // vectorized acquire_batch call: the namespace resolves once and
        // the coarse clock is read once per shard visit, settling the
        // whole run against that read — the settle-then-decide loop.
        std::size_t j = i + 1;
        while (j < ops.size() && ops[j].kind == ShardOp::Kind::kAcquire &&
               ops[j].ns == op.ns)
          ++j;
        if (j - i == 1) {
          try {
            const AcquireResult res = table_->acquire(op.ns, op.key, op.tokens);
            op.out_a = res.granted;
            op.out_b = res.balance;
            op.out_fresh = res.fresh;
          } catch (const util::InvariantError&) {
            op.ok = false;
          }
          complete(op, t_pop_us);
        } else {
          run.clear();
          for (std::size_t k = i; k < j; ++k)
            run.push_back(AcquireOp{ops[k].key, ops[k].tokens});
          try {
            const std::vector<AcquireResult> res =
                table_->acquire_batch(op.ns, run);
            for (std::size_t k = i; k < j; ++k) {
              ops[k].out_a = res[k - i].granted;
              ops[k].out_b = res[k - i].balance;
              ops[k].out_fresh = res[k - i].fresh;
            }
          } catch (const util::InvariantError&) {
            // One bad op (negative tokens, vanished namespace) fails the
            // whole vectorized call before it applies any op: redo the run
            // one op at a time so only the offender fails.
            for (std::size_t k = i; k < j; ++k) {
              try {
                const AcquireResult res =
                    table_->acquire(ops[k].ns, ops[k].key, ops[k].tokens);
                ops[k].out_a = res.granted;
                ops[k].out_b = res.balance;
                ops[k].out_fresh = res.fresh;
              } catch (const util::InvariantError&) {
                ops[k].ok = false;
              }
            }
          }
          for (std::size_t k = i; k < j; ++k) complete(ops[k], t_pop_us);
        }
        i = j;
        break;
      }
      case ShardOp::Kind::kRefund: {
        try {
          const RefundResult res = table_->refund(op.ns, op.key, op.tokens);
          op.out_a = res.accepted;
          op.out_b = res.balance;
        } catch (const util::InvariantError&) {
          op.ok = false;
        }
        complete(op, t_pop_us);
        ++i;
        break;
      }
      case ShardOp::Kind::kQuery: {
        try {
          const QueryResult res = table_->query(op.ns, op.key);
          op.out_a = res.balance;
          op.out_b = res.exists ? 1 : 0;
        } catch (const util::InvariantError&) {
          op.ok = false;
        }
        complete(op, t_pop_us);
        ++i;
        break;
      }
      case ShardOp::Kind::kInstall: {
        try {
          op.out_a = table_->install_account(op.ns, op.key, op.tokens) ? 1 : 0;
        } catch (const util::InvariantError&) {
          op.ok = false;
        }
        complete(op, t_pop_us);
        ++i;
        break;
      }
      case ShardOp::Kind::kBatchGroup: {
        run_batch_group(op, t_pop_us);
        ++i;
        break;
      }
    }
  }
}

void ShardEngine::record_op_spans(ShardOp& op, std::int64_t t_pop_us) {
  // The §3.4 decision the span carries: how the tokens (if any) were paid.
  obs::Decision decision = obs::Decision::kNone;
  if (!op.ok) {
    decision = obs::Decision::kError;
  } else if (op.kind == ShardOp::Kind::kAcquire) {
    if (op.out_a == 0 && op.tokens > 0) {
      decision = obs::Decision::kDenied;
    } else {
      decision = op.out_fresh ? obs::Decision::kFresh : obs::Decision::kBank;
    }
  } else if (op.kind == ShardOp::Kind::kRefund) {
    decision = obs::Decision::kRefund;
  }
  const std::int64_t t_done_us = obs::Tracer::now_us();
  tracer_->record(obs::Stage::kQueueWait, obs::Decision::kNone, op.trace_id,
                  op.key, op.ns, op.t_submit_us, t_pop_us - op.t_submit_us,
                  op.trace_sampled);
  tracer_->record(obs::Stage::kExecute, decision, op.trace_id, op.key, op.ns,
                  t_pop_us, t_done_us - t_pop_us, op.trace_sampled);
}

void ShardEngine::run_batch_group(ShardOp& op, std::int64_t t_pop_us) {
  auto* batch = static_cast<EngineBatch*>(op.ctx);
  const EngineBatch::Group& group =
      batch->groups[static_cast<std::size_t>(op.key)];
  const std::span<const AcquireOp> slice(batch->ops.data() + group.begin,
                                         group.end - group.begin);
  obs::Decision decision = obs::Decision::kBank;
  try {
    const std::vector<AcquireResult> res =
        table_->acquire_batch(batch->ns, slice);
    for (std::size_t k = 0; k < slice.size(); ++k) {
      batch->results[batch->original[group.begin + k]] = res[k];
      if (res[k].fresh) decision = obs::Decision::kFresh;
    }
  } catch (const util::InvariantError&) {
    for (std::size_t k = 0; k < slice.size(); ++k)
      batch->results[batch->original[group.begin + k]] = AcquireResult{};
    decision = obs::Decision::kError;
  }
  if (tracer_ != nullptr && op.traced) {
    // One queue-wait + one execute span per owner group, stamped with the
    // group's first key. Read everything off the batch *before* the
    // release below: the last finisher deletes it.
    const std::uint64_t key = slice.empty() ? 0 : slice.front().key;
    const NamespaceId ns = batch->ns;
    const std::int64_t t_done_us = obs::Tracer::now_us();
    tracer_->record(obs::Stage::kQueueWait, obs::Decision::kNone, op.trace_id,
                    key, ns, op.t_submit_us, t_pop_us - op.t_submit_us,
                    op.trace_sampled);
    tracer_->record(obs::Stage::kExecute, decision, op.trace_id, key, ns,
                    t_pop_us, t_done_us - t_pop_us, op.trace_sampled);
  }
  if (batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (batch->done != nullptr) batch->done(*batch, batch->ctx);
    delete batch;
  }
}

void ShardEngine::maybe_evict(Owner& me, std::size_t w) {
  const TimeUs now = table_->clock().now_us();
  if (now < me.next_evict_us) return;
  const TimeUs ttl = table_->min_idle_ttl_us();
  if (ttl > 0) {
    // Sweep only the shards this owner owns — eviction stays within the
    // ownership discipline, no quiesce needed.
    for (std::size_t s = w; s < table_->shard_count(); s += owners_.size())
      table_->evict_idle_shard(s);
    me.next_evict_us = now + std::max<TimeUs>(ttl / 4, 1'000);
  } else {
    // No namespace evicts right now; re-check in a (table-clock) second so
    // TTL namespaces configured at runtime start getting sweeps.
    me.next_evict_us = now + 1'000'000;
  }
}

}  // namespace toka::service
