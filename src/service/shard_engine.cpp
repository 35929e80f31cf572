#include "service/shard_engine.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>

namespace toka::service {

namespace {
/// Ops popped per queue drain. Bounds how long a worker can go between
/// park checks, so a quiesce never waits on more than one batch per worker.
constexpr std::size_t kDrainMax = 256;

/// The engine whose worker thread this is (nullptr on every other thread):
/// quiesced() uses it to refuse self-deadlocking calls from completions.
thread_local ShardEngine* tls_worker_engine = nullptr;
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
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    workers_.push_back(std::make_unique<Worker>(options.queue_capacity));
  if (registry_ != nullptr) register_metrics(*registry_);
  for (std::size_t w = 0; w < workers; ++w)
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
}

ShardEngine::~ShardEngine() {
  drain();
  if (registry_ != nullptr) {
    for (const std::string& name : metric_names_) registry_->remove(name);
  }
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) worker->queue.notify();
  {
    // Pair the flag flip with the park mutex so a worker between its
    // predicate check and its wait cannot miss the resume notification.
    std::lock_guard lock(park_mu_);
  }
  resume_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void ShardEngine::register_metrics(obs::Registry& registry) {
  const auto add = [&](std::string name) {
    metric_names_.push_back(name);
    return name;
  };
  for (std::size_t w = 0; w < workers_.size(); ++w) {
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
  for (const auto& worker : workers_)
    depth = std::max(depth, worker->queue.size());
  return depth;
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
  // Counting sort by owner worker: one pass to count, one to scatter the
  // ops into per-worker contiguous groups (original positions remembered
  // so the worker can write results positionally).
  const std::size_t W = workers_.size();
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
  // All-or-nothing admission: a group op occupies one queue cell, so a
  // headroom probe per target (racy, but the blocking push below is the
  // backstop) is enough to keep batch sheds clean — either every group is
  // posted or none is.
  for (const std::size_t w : targets) {
    if (workers_[w]->queue.size() + 1 >= workers_[w]->queue.capacity())
      return false;  // batch (unique_ptr) frees; nothing was enqueued
  }
  // From the first push on, workers race us to finish groups and the last
  // finisher deletes the batch — so the loop may not touch `raw` after a
  // push. The group count lives in `targets`, everything else in the op.
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
    workers_[targets[g]]->queue.push(std::move(op));
  }
  return true;
}

void ShardEngine::drain() {
  for (auto& worker : workers_) {
    while (worker->queue.size() > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // The queues are empty; one quiesce barrier waits out whatever each
  // worker had already popped.
  quiesced([] {});
}

bool ShardEngine::on_worker_thread() const {
  return tls_worker_engine == this;
}

void ShardEngine::begin_quiesce() {
  TOKA_CHECK_MSG(!on_worker_thread(),
                 "quiesced() called from a shard worker completion — that "
                 "would park the caller and deadlock; run admin ops from a "
                 "non-worker thread");
  admin_mu_.lock();
  park_requested_.store(true, std::memory_order_release);
  for (auto& worker : workers_) worker->queue.notify();
  std::unique_lock lock(park_mu_);
  park_cv_.wait(lock, [this] { return parked_ == workers_.size(); });
}

void ShardEngine::end_quiesce() {
  {
    std::lock_guard lock(park_mu_);
    park_requested_.store(false, std::memory_order_release);
  }
  resume_cv_.notify_all();
  admin_mu_.unlock();
}

void ShardEngine::park() {
  std::unique_lock lock(park_mu_);
  ++parked_;
  if (parked_ == workers_.size()) park_cv_.notify_all();
  resume_cv_.wait(lock, [this] {
    return !park_requested_.load(std::memory_order_relaxed) ||
           stop_.load(std::memory_order_relaxed);
  });
  --parked_;
}

void ShardEngine::worker_loop(std::size_t w) {
  tls_worker_engine = this;
  Worker& me = *workers_[w];
  std::vector<ShardOp> ops;
  ops.reserve(kDrainMax);
  std::vector<AcquireOp> run;
  for (;;) {
    if (park_requested_.load(std::memory_order_acquire)) park();
    if (stop_.load(std::memory_order_acquire)) break;
    ops.clear();
    const std::size_t n = me.queue.pop_batch(ops, kDrainMax);
    if (n == 0) {
      maybe_evict(me, w);
      // The wait also breaks on the eviction deadline so an idle worker
      // still sweeps its shards' TTLs (the clock read is one atomic load).
      me.queue.wait_nonempty([this, &me] {
        return stop_.load(std::memory_order_relaxed) ||
               park_requested_.load(std::memory_order_relaxed) ||
               table_->clock().now_us() >= me.next_evict_us;
      });
      continue;
    }
    // One pop timestamp serves the whole drained batch (queue-wait ends and
    // execute begins here for every op in it); taken only when some op in
    // the batch is actually traced, so an untraced drain reads no clock.
    std::int64_t t_pop_us = 0;
    if (tracer_ != nullptr) {
      for (const ShardOp& op : ops) {
        if (op.traced) {
          t_pop_us = obs::Tracer::now_us();
          break;
        }
      }
    }
    execute(ops, run, t_pop_us);
    // Drain boundary: completions for the whole batch have fired, this
    // worker's shards are between batches — the granularity at which the
    // replication layer captures per-account deltas (one flush per drain).
    if (on_drain_) on_drain_(w);
    maybe_evict(me, w);
  }
  tls_worker_engine = nullptr;
}

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
    // One queue-wait + one execute span per worker group, stamped with the
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

void ShardEngine::maybe_evict(Worker& me, std::size_t w) {
  const TimeUs now = table_->clock().now_us();
  if (now < me.next_evict_us) return;
  const TimeUs ttl = table_->min_idle_ttl_us();
  if (ttl > 0) {
    // Sweep only the shards this worker owns — eviction stays within the
    // ownership discipline, no quiesce needed.
    for (std::size_t s = w; s < table_->shard_count(); s += workers_.size())
      table_->evict_idle_shard(s);
    me.next_evict_us = now + std::max<TimeUs>(ttl / 4, 1'000);
  } else {
    // No namespace evicts right now; re-check in a (table-clock) second so
    // TTL namespaces configured at runtime start getting sweeps.
    me.next_evict_us = now + 1'000'000;
  }
}

}  // namespace toka::service
