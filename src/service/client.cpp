#include "service/client.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/promise.hpp"

namespace toka::service {

namespace {

/// Wraps a typed user callback into the type-erased Completion: unpacks
/// the expected response alternative, turns ErrorResponse frames into
/// protocol::RpcError, and maps the wire message to the caller's result.
///
/// Every error in this file is built in a statement of its own, before the
/// completion runs: the temporary exception shares its message buffer with
/// the copy in the exception_ptr, so it must be gone before the completion
/// hands that copy to another thread (which may read what() at once).
template <typename RespT, typename ResultT, typename Map>
std::function<void(protocol::Response, std::exception_ptr)> make_completion(
    Client::Callback<ResultT> done, const char* what, Map map) {
  return [done = std::move(done), what, map = std::move(map)](
             protocol::Response response, std::exception_ptr error) {
    ResultT result{};
    if (error != nullptr) {
      // Failed before any reply: timeout, peer down or shutdown.
    } else if (const auto* err =
                   std::get_if<protocol::ErrorResponse>(&response)) {
      if (err->code == protocol::ErrorCode::kOverloaded) {
        error = std::make_exception_ptr(protocol::OverloadedError(
            err->retry_after_us,
            std::string("tokend: server shed ") + what +
                " under overload (retry after " +
                std::to_string(err->retry_after_us) + "us)"));
      } else {
        error = std::make_exception_ptr(protocol::RpcError(
            err->code, std::string("tokend: server rejected ") + what + ": " +
                           protocol::to_string(err->code)));
      }
    } else if (const auto* redirect =
                   std::get_if<protocol::RedirectResponse>(&response)) {
      error = std::make_exception_ptr(protocol::RedirectError(
          redirect->epoch, redirect->owner,
          std::string("tokend: node does not own the key for ") + what +
              " (map epoch " + std::to_string(redirect->epoch) + ", owner " +
              std::to_string(redirect->owner) + ")"));
    } else if (RespT* msg = std::get_if<RespT>(&response)) {
      try {
        result = map(std::move(*msg));
      } catch (...) {
        error = std::current_exception();
      }
    } else {
      error = std::make_exception_ptr(util::IoError(
          std::string("tokend: server answered with the wrong message type "
                      "for ") +
          what));
    }
    done(std::move(result), std::move(error));
  };
}

/// A future-backed callback: fulfils the shared promise either way.
template <typename T>
std::pair<std::future<T>, Client::Callback<T>> make_promise_pair() {
  return util::promise_pair<T>();
}

}  // namespace

Client::Client(runtime::Transport& transport, NodeId server, TimeUs timeout_us)
    : transport_(&transport),
      server_(server),
      timeout_us_(timeout_us),
      // The wheel ticks ~8x per default deadline: expiry is detected
      // within 1/8th of the timeout, and a sweep touches only one slot's
      // entries.
      wheel_tick_us_(std::clamp<TimeUs>(timeout_us / 8, 1'000, 50'000)),
      sweeper_(wheel_tick_us_, [this](TimeUs) { expire_overdue(); }) {
  TOKA_CHECK_MSG(timeout_us > 0,
                 "client timeout must be positive, got " << timeout_us);
  wheel_.resize(kWheelSlots);
  sweeper_.start();
  transport_->set_handler([this](NodeId from, std::vector<std::byte> payload) {
    on_frame(from, std::move(payload));
  });
  transport_->set_peer_down_handler(
      [this](NodeId peer) { on_peer_down(peer); });
}

Client::~Client() {
  // Order matters: quiesce the receive paths first (after the detaches
  // return, no on_frame/on_peer_down is running or will run), then the
  // sweeper, then reject whatever is still registered — nothing can
  // complete it anymore.
  transport_->set_peer_down_handler({});
  transport_->set_handler({});
  {
    std::lock_guard lock(mu_);
    closed_ = true;
  }
  sweeper_.stop();

  std::vector<Completion> orphans;
  {
    std::lock_guard lock(mu_);
    orphans.reserve(pending_.size());
    for (auto& [id, pending] : pending_) orphans.push_back(std::move(pending.done));
    pending_.clear();
    for (auto& slot : wheel_) slot.clear();
  }
  for (Completion& done : orphans) {
    std::exception_ptr error = std::make_exception_ptr(
        util::IoError("tokend client destroyed with the call outstanding"));
    done({}, std::move(error));
  }
}

std::size_t Client::inflight() const {
  std::lock_guard lock(mu_);
  return pending_.size();
}

std::size_t Client::armed() const {
  std::lock_guard lock(mu_);
  std::size_t timers = 0;
  for (const auto& slot : wheel_) timers += slot.size();
  return timers;
}

void Client::unarm(Pending& pending) {
  std::vector<Timer>& slot = wheel_[pending.slot];
  Timer last = slot.back();
  last->second.pos = pending.pos;
  slot[pending.pos] = last;
  slot.pop_back();
}

void Client::start_call(std::uint64_t id, std::vector<std::byte> frame,
                        Completion done, TimeUs timeout_us, bool data_op) {
  if (data_op) {
    const TimeUs until = suppress_until_us_.load(std::memory_order_relaxed);
    const TimeUs now = clock_.now_us();
    if (now < until) {
      // Backoff window is open: fail locally, never touching the wire —
      // the server already said no for this period.
      backoff_rejections_.fetch_add(1, std::memory_order_relaxed);
      std::exception_ptr error =
          std::make_exception_ptr(protocol::OverloadedError(
              until - now,
              "tokend: client backing off after server overload "
              "(retry after " +
                  std::to_string(until - now) + "us)"));
      done({}, std::move(error));
      return;
    }
  }
  const TimeUs timeout = timeout_us > 0 ? timeout_us : timeout_us_;
  const TimeUs deadline = clock_.now_us() + timeout;
  {
    std::unique_lock lock(mu_);
    if (closed_) {
      lock.unlock();
      std::exception_ptr error =
          std::make_exception_ptr(util::IoError("tokend client is shut down"));
      done({}, std::move(error));
      return;
    }
    const auto slot = static_cast<std::uint32_t>(
        static_cast<std::size_t>(deadline / wheel_tick_us_) % kWheelSlots);
    std::vector<Timer>& timers = wheel_[slot];
    const auto pos = static_cast<std::uint32_t>(timers.size());
    auto it = pending_
                  .emplace(id, Pending{std::move(done), deadline, timeout,
                                       slot, pos})
                  .first;
    timers.push_back(&*it);
  }
  // Send strictly after registering: a reply can arrive before send()
  // returns on a fast in-process fabric.
  transport_->send(server_, std::move(frame));
}

Client::Completion Client::traced_call(std::vector<std::byte>& frame,
                                       Completion done,
                                       const protocol::TraceContext* trace,
                                       NamespaceId ns, std::uint64_t key) {
  protocol::TraceContext ctx;
  if (trace != nullptr) {
    ctx = *trace;
  } else if (tracer_ != nullptr) {
    ctx = protocol::TraceContext{tracer_->next_trace_id(),
                                 tracer_->sample_next()};
  } else {
    return done;
  }
  protocol::attach_trace_context(frame, ctx);
  if (tracer_ == nullptr) return done;  // stamped for the server only
  obs::Tracer* tracer = tracer_;
  const std::int64_t t0 = obs::Tracer::now_us();
  return [done = std::move(done), tracer, ctx, ns, key,
          t0](protocol::Response response, std::exception_ptr error) {
    obs::Decision decision = obs::Decision::kNone;
    if (error != nullptr) {
      decision = obs::Decision::kError;
      try {
        std::rethrow_exception(error);
      } catch (const protocol::OverloadedError&) {
        decision = obs::Decision::kShed;
      } catch (...) {
      }
    }
    tracer->record(obs::Stage::kClient, decision, ctx.trace_id, key, ns, t0,
                   obs::Tracer::now_us() - t0, ctx.sampled);
    done(std::move(response), std::move(error));
  };
}

void Client::on_frame(NodeId from, std::vector<std::byte> payload) {
  if (from != server_) return;  // stray frame from elsewhere on the fabric
  protocol::Response response;
  try {
    response = protocol::decode_response(payload);
  } catch (const util::IoError&) {
    return;  // malformed reply: let the call's deadline handle it
  }
  const std::uint64_t id = protocol::request_id(response);
  if (const auto* err = std::get_if<protocol::ErrorResponse>(&response);
      err != nullptr && err->code == protocol::ErrorCode::kOverloaded) {
    // Open (or extend) the backoff window before completing the call, so a
    // completion-driven pipeline's next op is already suppressed.
    overloads_.fetch_add(1, std::memory_order_relaxed);
    const TimeUs until =
        clock_.now_us() + std::max<TimeUs>(err->retry_after_us, 0);
    TimeUs cur = suppress_until_us_.load(std::memory_order_relaxed);
    while (until > cur && !suppress_until_us_.compare_exchange_weak(
                              cur, until, std::memory_order_relaxed)) {
    }
  }
  Completion done;
  {
    std::lock_guard lock(mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // timed out or duplicate: drop
    done = std::move(it->second.done);
    unarm(it->second);
    pending_.erase(it);
  }
  // Completed outside the lock: the continuation may issue the pipeline's
  // next call (which takes mu_) or unblock a sync caller.
  done(std::move(response), nullptr);
}

void Client::on_peer_down(NodeId peer) {
  if (peer != server_) return;  // some other conversation on the fabric
  // The connection died: every in-flight call's reply is gone for good, so
  // reject them all now instead of letting each ripen into its own
  // timeout. New calls stay allowed — the transport reconnects lazily, and
  // a still-dead server fails them fast the same way.
  std::vector<Completion> dropped;
  {
    std::lock_guard lock(mu_);
    if (pending_.empty()) return;
    dropped.reserve(pending_.size());
    for (auto& [id, pending] : pending_)
      dropped.push_back(std::move(pending.done));
    // Every call goes, so every timer does: empty the slots whole.
    for (auto& slot : wheel_) slot.clear();
    pending_.clear();
  }
  disconnects_.fetch_add(1, std::memory_order_relaxed);
  for (Completion& done : dropped) {
    std::exception_ptr error = std::make_exception_ptr(
        util::IoError("tokend: connection closed by server " +
                      std::to_string(peer) + " with the call in flight"));
    done({}, std::move(error));
  }
}

std::size_t Client::expire_overdue() {
  std::unique_lock lock(mu_);
  const TimeUs now = clock_.now_us();
  const std::int64_t tick = now / wheel_tick_us_;
  // Sweep from the last swept tick *inclusive* (one cheap re-scan): a call
  // armed into the current tick after that slot's pass — any deadline
  // shorter than one wheel tick does this — must be caught on the next
  // pass, not a full rotation later. Bounded to one lap after a stall;
  // clamped at 0 so the first pass (swept_tick_ == -1) starts at slot 0.
  const std::int64_t first = std::max<std::int64_t>(
      std::max(swept_tick_, tick - static_cast<std::int64_t>(kWheelSlots) + 1),
      0);
  // Every timer in a slot is a call in flight. Compact each slot in place:
  // a call due in a later round of the wheel keeps its timer at the next
  // free index; only the expiring ones are looked up, to be erased.
  std::vector<std::pair<Completion, TimeUs>> expired;
  for (std::int64_t t = first; t <= tick; ++t) {
    std::vector<Timer>& slot =
        wheel_[static_cast<std::size_t>(t) % kWheelSlots];
    std::uint32_t kept = 0;
    for (const Timer timer : slot) {
      Pending& pending = timer->second;
      if (pending.deadline_us > now) {
        pending.pos = kept;
        slot[kept++] = timer;
        continue;
      }
      expired.emplace_back(std::move(pending.done), pending.timeout_us);
      const std::uint64_t id = timer->first;
      pending_.erase(id);
    }
    slot.resize(kept);
  }
  swept_tick_ = tick;
  if (expired.empty()) return 0;
  lock.unlock();
  for (auto& [done, timeout] : expired) {
    timeouts_.fetch_add(1, std::memory_order_relaxed);
    std::exception_ptr error = std::make_exception_ptr(util::IoError(
        "tokend call timed out after " + std::to_string(timeout) + "us"));
    done({}, std::move(error));
  }
  return expired.size();
}

// ----------------------------------------------------------------- data ops

void Client::acquire_async(NamespaceId ns, std::uint64_t key, Tokens n,
                           Callback<AcquireResult> done, TimeUs timeout_us,
                           const protocol::TraceContext* trace) {
  const std::uint64_t id = next_id();
  std::vector<std::byte> frame =
      protocol::encode(protocol::AcquireRequest{id, key, n, ns});
  Completion completion =
      traced_call(frame,
                  make_completion<protocol::AcquireResponse, AcquireResult>(
                      std::move(done), "acquire",
                      [](protocol::AcquireResponse resp) {
                        return AcquireResult{resp.granted, resp.balance};
                      }),
                  trace, ns, key);
  start_call(id, std::move(frame), std::move(completion), timeout_us,
             /*data_op=*/true);
}

std::future<AcquireResult> Client::acquire_async(NamespaceId ns,
                                                 std::uint64_t key, Tokens n,
                                                 TimeUs timeout_us) {
  auto [future, done] = make_promise_pair<AcquireResult>();
  acquire_async(ns, key, n, std::move(done), timeout_us);
  return std::move(future);
}

void Client::refund_async(NamespaceId ns, std::uint64_t key, Tokens n,
                          Callback<RefundResult> done, TimeUs timeout_us,
                          const protocol::TraceContext* trace) {
  const std::uint64_t id = next_id();
  std::vector<std::byte> frame =
      protocol::encode(protocol::RefundRequest{id, key, n, ns});
  Completion completion =
      traced_call(frame,
                  make_completion<protocol::RefundResponse, RefundResult>(
                      std::move(done), "refund",
                      [](protocol::RefundResponse resp) {
                        return RefundResult{resp.accepted, resp.balance};
                      }),
                  trace, ns, key);
  start_call(id, std::move(frame), std::move(completion), timeout_us,
             /*data_op=*/true);
}

std::future<RefundResult> Client::refund_async(NamespaceId ns,
                                               std::uint64_t key, Tokens n,
                                               TimeUs timeout_us) {
  auto [future, done] = make_promise_pair<RefundResult>();
  refund_async(ns, key, n, std::move(done), timeout_us);
  return std::move(future);
}

void Client::query_async(NamespaceId ns, std::uint64_t key,
                         Callback<QueryResult> done, TimeUs timeout_us,
                         const protocol::TraceContext* trace) {
  const std::uint64_t id = next_id();
  std::vector<std::byte> frame =
      protocol::encode(protocol::QueryRequest{id, key, ns});
  Completion completion =
      traced_call(frame,
                  make_completion<protocol::QueryResponse, QueryResult>(
                      std::move(done), "query",
                      [](protocol::QueryResponse resp) {
                        return QueryResult{resp.balance, resp.exists};
                      }),
                  trace, ns, key);
  start_call(id, std::move(frame), std::move(completion), timeout_us,
             /*data_op=*/true);
}

std::future<QueryResult> Client::query_async(NamespaceId ns,
                                             std::uint64_t key,
                                             TimeUs timeout_us) {
  auto [future, done] = make_promise_pair<QueryResult>();
  query_async(ns, key, std::move(done), timeout_us);
  return std::move(future);
}

void Client::acquire_batch_async(NamespaceId ns,
                                 std::span<const AcquireOp> ops,
                                 Callback<std::vector<AcquireResult>> done,
                                 TimeUs timeout_us,
                                 const protocol::TraceContext* trace) {
  const std::uint64_t id = next_id();
  protocol::BatchAcquireRequest request;
  request.id = id;
  request.ns = ns;
  request.ops.assign(ops.begin(), ops.end());
  const std::size_t expected = request.ops.size();
  // The batch's client span carries the first op's key — a batch is one
  // frame, one trace, and in the skewed workloads that trigger batching
  // the ops share the hot key anyway.
  const std::uint64_t span_key = ops.empty() ? 0 : ops.front().key;
  std::vector<std::byte> frame = protocol::encode(request);
  Completion completion = traced_call(
      frame,
      make_completion<protocol::BatchAcquireResponse,
                      std::vector<AcquireResult>>(
          std::move(done), "acquire_batch",
          [expected](protocol::BatchAcquireResponse resp) {
            if (resp.results.size() != expected)
              throw util::IoError("tokend: batch response has " +
                                  std::to_string(resp.results.size()) +
                                  " results for " + std::to_string(expected) +
                                  " ops");
            return std::move(resp.results);
          }),
      trace, ns, span_key);
  start_call(id, std::move(frame), std::move(completion), timeout_us,
             /*data_op=*/true);
}

std::future<std::vector<AcquireResult>> Client::acquire_batch_async(
    NamespaceId ns, std::span<const AcquireOp> ops, TimeUs timeout_us) {
  auto [future, done] = make_promise_pair<std::vector<AcquireResult>>();
  acquire_batch_async(ns, ops, std::move(done), timeout_us);
  return std::move(future);
}

// -------------------------------------------------------------------- admin

bool Client::configure_namespace(NamespaceId ns,
                                 const NamespaceConfig& config) {
  auto [future, done] = make_promise_pair<bool>();
  const std::uint64_t id = next_id();
  start_call(id,
             protocol::encode(protocol::ConfigureNamespaceRequest{id, ns,
                                                                  config}),
             make_completion<protocol::ConfigureNamespaceResponse, bool>(
                 std::move(done), "configure_namespace",
                 [](protocol::ConfigureNamespaceResponse resp) {
                   return resp.created;
                 }),
             /*timeout_us=*/0);
  return future.get();
}

void Client::fetch_cluster_map_async(Callback<cluster::ClusterMap> done,
                                     TimeUs timeout_us) {
  const std::uint64_t id = next_id();
  start_call(id, protocol::encode(protocol::ClusterMapRequest{id}),
             make_completion<protocol::ClusterMapResponse, cluster::ClusterMap>(
                 std::move(done), "cluster_map",
                 [](protocol::ClusterMapResponse resp) {
                   return std::move(resp.map);
                 }),
             timeout_us);
}

cluster::ClusterMap Client::fetch_cluster_map() {
  auto [future, done] = make_promise_pair<cluster::ClusterMap>();
  fetch_cluster_map_async(std::move(done));
  return future.get();
}

ApplyMapResult Client::apply_cluster_map(const cluster::ClusterMap& map) {
  auto [future, done] = make_promise_pair<ApplyMapResult>();
  const std::uint64_t id = next_id();
  start_call(id, protocol::encode(protocol::ApplyMapRequest{id, map}),
             make_completion<protocol::ApplyMapResponse, ApplyMapResult>(
                 std::move(done), "apply_cluster_map",
                 [](protocol::ApplyMapResponse resp) {
                   return ApplyMapResult{resp.accepted, resp.epoch,
                                         resp.handoffs};
                 }),
             /*timeout_us=*/0);
  return future.get();
}

void Client::stats_async(Callback<std::vector<protocol::StatsEntry>> done,
                         TimeUs timeout_us) {
  const std::uint64_t id = next_id();
  start_call(id, protocol::encode(protocol::StatsRequest{id}),
             make_completion<protocol::StatsResponse,
                             std::vector<protocol::StatsEntry>>(
                 std::move(done), "stats",
                 [](protocol::StatsResponse resp) {
                   return std::move(resp.entries);
                 }),
             timeout_us);
}

std::vector<protocol::StatsEntry> Client::stats() {
  auto [future, done] = make_promise_pair<std::vector<protocol::StatsEntry>>();
  stats_async(std::move(done));
  return future.get();
}

void Client::fetch_traces_async(std::uint32_t max_spans,
                                Callback<std::vector<protocol::TraceSpan>> done,
                                TimeUs timeout_us) {
  const std::uint64_t id = next_id();
  start_call(id, protocol::encode(protocol::TracesRequest{id, max_spans}),
             make_completion<protocol::TracesResponse,
                             std::vector<protocol::TraceSpan>>(
                 std::move(done), "traces",
                 [](protocol::TracesResponse resp) {
                   return std::move(resp.spans);
                 }),
             timeout_us);
}

std::vector<protocol::TraceSpan> Client::fetch_traces(std::uint32_t max_spans) {
  auto [future, done] = make_promise_pair<std::vector<protocol::TraceSpan>>();
  fetch_traces_async(max_spans, std::move(done));
  return future.get();
}

std::optional<NamespaceInfo> Client::namespace_info(NamespaceId ns) {
  auto [future, done] = make_promise_pair<std::optional<NamespaceInfo>>();
  const std::uint64_t id = next_id();
  start_call(
      id, protocol::encode(protocol::NamespaceInfoRequest{id, ns}),
      make_completion<protocol::NamespaceInfoResponse,
                      std::optional<NamespaceInfo>>(
          std::move(done), "namespace_info",
          [](protocol::NamespaceInfoResponse resp)
              -> std::optional<NamespaceInfo> {
            if (!resp.exists) return std::nullopt;
            return NamespaceInfo{resp.config, resp.capacity, resp.accounts};
          }),
      /*timeout_us=*/0);
  return future.get();
}

}  // namespace toka::service
