#include "service/server.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "service/protocol.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"

namespace toka::service {

namespace {
template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

/// Microseconds since `t0_ns` on the host clock, with sub-µs resolution
/// (for the latency histogram and the admission EWMA).
double elapsed_us(std::int64_t t0_ns) {
  return static_cast<double>(util::Clock::host().now_ns() - t0_ns) / 1e3;
}

/// `t_ns` on obs::Tracer's timebase (both are the host clock, so this is
/// just the unit change — spans and elapsed_us stay directly comparable).
std::int64_t tracer_us(std::int64_t t_ns) { return t_ns / 1'000; }

/// Retry hint for ops bounced off a full shard-owner queue when the
/// admission valve is disabled: a full queue drains in well under this.
constexpr TimeUs kQueueFullRetryUs = 100;
}  // namespace

/// Heap context carried through a ShardEngine completion: everything the
/// worker needs to encode and send the reply from its own thread.
struct Server::Pending {
  Server* server = nullptr;
  NodeId from = 0;
  std::int64_t t0_ns = 0;  ///< frame arrival on the host clock
  protocol::FrameHeader head{};  ///< the request's id and trace context
  NamespaceId ns = kDefaultNamespace;  ///< for the cork span's identity
  std::uint64_t key = 0;
};

Server::Server(AccountTable& table, runtime::Transport& transport,
               ServerOptions options)
    : Server(table, transport, std::move(options), true) {}

Server::Server(AccountTable& table, runtime::Transport& transport,
               ServerOptions options, bool attach)
    : table_(&table),
      transport_(&transport),
      engine_(options.engine),
      tracer_(options.tracer),
      node_(attach || options.node != kNoNode ? options.node
                                              : transport.self()),
      registry_(options.registry),
      admission_(options.admission),
      attached_(attach) {
  TOKA_CHECK_MSG(options.engine != nullptr,
                 "ServerOptions::engine is required: the server executes "
                 "data ops on a ShardEngine");
  TOKA_CHECK_MSG(&engine_->table() == table_,
                 "ServerOptions::engine must run on the server's table");
  if (registry_) register_metrics();
  if (attached_) {
    transport_->set_handler(
        [this](NodeId from, std::vector<std::byte> payload) {
          on_frame(from, protocol::try_parse_header(payload), payload);
        });
  }
}

Server::~Server() {
  // Quiesce first: once the handler is detached (by the ClusterServer, if
  // this server installed none) no request thread can still be recording
  // into the histogram the unregistration frees. Then
  // wait out queued ops — their completions send through transport_ and
  // record into latency_.
  if (attached_) transport_->set_handler({});
  engine_->drain();
  if (registry_) {
    for (const std::string& name : metric_names_) registry_->remove(name);
  }
}

void Server::register_metrics() {
  const auto add = [&](const std::string& name) {
    metric_names_.push_back(name);
    return name;
  };
  latency_ = &registry_->histogram(add("tokend_request_latency_us"));
  for (const auto& [name, count] :
       {std::pair{"tokend_requests_served", &served_},
        std::pair{"tokend_requests_errored", &errored_},
        std::pair{"tokend_requests_malformed", &malformed_},
        std::pair{"tokend_requests_shed", &shed_}}) {
    registry_->counter_fn(add(name), [count] {
      return static_cast<double>(count->load(std::memory_order_relaxed));
    });
  }
  registry_->gauge(add("tokend_namespaces"), [t = table_] {
    return static_cast<double>(t->namespace_count());
  });
  registry_->gauge(add("tokend_accounts"), [this] {
    return static_cast<double>(swept_account_count());
  });
  // The admission bucket doubles as the queue-depth proxy: `used` is how
  // much of the current interval's budget the arrival stream has consumed.
  registry_->gauge(add("tokend_admission_budget"), [this] {
    return static_cast<double>(admission_.budget());
  });
  registry_->gauge(add("tokend_admission_used"), [this] {
    return static_cast<double>(admission_.used());
  });
  registry_->gauge(add("tokend_service_time_ewma_us"),
                   [this] { return admission_.ewma_service_us(); });
  // Table counters come from one quiesced stats() sweep per metric read;
  // scrapes are rare enough that the simplicity wins.
  registry_->counter_fn(add("tokend_acquires"), [this] {
    return static_cast<double>(swept_stats().acquires);
  });
  registry_->counter_fn(add("tokend_tokens_granted"), [this] {
    return static_cast<double>(swept_stats().tokens_granted);
  });
  registry_->counter_fn(add("tokend_refunds_dropped"), [this] {
    return static_cast<double>(swept_stats().refunds_dropped);
  });
  registry_->counter_fn(add("tokend_accounts_evicted"), [this] {
    return static_cast<double>(swept_stats().accounts_evicted);
  });
  // The online §3.4 check (ServiceConfig::watchdog_sample and audit
  // namespaces): checks is how many grants of the checked keys it
  // verified; any nonzero violations means a *real* burst-bound breach
  // reached a client.
  registry_->counter_fn(add("tokend_invariant_checks"), [this] {
    return static_cast<double>(swept_stats().watchdog_checks);
  });
  registry_->counter_fn(add("tokend_invariant_violations"), [this] {
    return static_cast<double>(swept_stats().watchdog_violations);
  });
  registry_->gauge(add("tokend_hot_key_share"), [this] {
    const auto top = swept_hot_keys(1);
    const std::uint64_t acquires = swept_stats().acquires;
    if (top.empty() || acquires == 0) return 0.0;
    return static_cast<double>(top.front().count) /
           static_cast<double>(acquires);
  });
  registry_->gauge(add("tokend_batch_hint"), [this] {
    return static_cast<double>(batch_hint());
  });
}

TableStats Server::swept_stats() const {
  return engine_->quiesced([this] { return table_->stats(); });
}

std::size_t Server::swept_account_count() const {
  return engine_->quiesced([this] { return table_->account_count(); });
}

std::vector<AccountTable::HotKey> Server::swept_hot_keys(
    std::size_t n) const {
  return engine_->quiesced([this, n] { return table_->hot_keys(n); });
}

std::int64_t Server::batch_hint() const {
  const auto top = swept_hot_keys(1);
  const std::uint64_t acquires = swept_stats().acquires;
  if (top.empty() || acquires < 64) return 1;
  const double share = static_cast<double>(top.front().count) /
                       static_cast<double>(acquires);
  if (share < 0.125) return 1;  // traffic spread out: batching buys little
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(share * 64.0), 1,
                                  64);
}

void Server::on_frame(NodeId from,
                      const std::optional<protocol::FrameHeader>& head,
                      std::span<const std::byte> payload) {
  namespace proto = protocol;
  const std::int64_t t0_ns = util::Clock::host().now_ns();

  // The header (10 fixed bytes) classifies garbage without paying a
  // decode, and gives the admission valve an id to answer with before any
  // per-request work happens.
  if (!head.has_value() || head->is_response) {
    malformed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const bool data_op = proto::is_data_op(head->type);
  if (data_op && admission_.enabled()) {
    const TimeUs now = table_->clock().now_us();
    if (!admission_.try_admit(now)) {
      // Shed: typed kOverloaded with a retry-after hint, charged to no
      // budget and touching no table state. Admin/cluster/stats frames are
      // never shed — an overloaded server must stay operable.
      if (tracer_ != nullptr) {
        // The body was never decoded, so the span has no key — the shed
        // decision itself (forced into the recorder) is the signal.
        tracer_->record(obs::Stage::kShed, obs::Decision::kShed,
                        head->trace_id, 0, kDefaultNamespace, tracer_us(t0_ns),
                        0, head->sampled);
      }
      reply(from, proto::ErrorResponse{head->id, proto::ErrorCode::kOverloaded,
                                       admission_.retry_after_us(now)});
      return;
    }
  }

  proto::Request request;
  try {
    request = proto::decode_request(*head, payload);
  } catch (const util::IoError&) {
    // The header decoded but the body did not: the sender gets a typed
    // error it can correlate.
    if (tracer_ != nullptr) {
      tracer_->record(obs::Stage::kDecode, obs::Decision::kError,
                      head->trace_id, 0, kDefaultNamespace, tracer_us(t0_ns),
                      obs::Tracer::now_us() - tracer_us(t0_ns), head->sampled);
    }
    reply(from,
          proto::ErrorResponse{head->id, proto::ErrorCode::kMalformedBody});
    return;
  }

  // Data ops on a namespace that does not exist get a typed error before
  // touching the table (namespaces are never deleted, so the check cannot
  // race a removal); the rest go to their shard's owner worker, which
  // sends the reply from its completion. Admin and stats requests stay on
  // this thread (they quiesce the engine where they touch the table).
  if (data_op) {
    const NamespaceId ns = proto::namespace_of(request);
    if (table_->has_namespace(ns)) {
      dispatch_engine(from, std::move(request), t0_ns, *head);
      return;
    }
    if (tracer_ != nullptr && head->traced) {
      tracer_->record(obs::Stage::kDecode, obs::Decision::kError,
                      head->trace_id, 0, ns, tracer_us(t0_ns),
                      obs::Tracer::now_us() - tracer_us(t0_ns), head->sampled);
    }
    reply(from,
          proto::ErrorResponse{head->id, proto::ErrorCode::kUnknownNamespace});
    return;
  }
  reply(from, answer(request));
}

protocol::Response Server::answer(const protocol::Request& request) {
  namespace proto = protocol;
  return std::visit(
      Overloaded{
          [&](const proto::ConfigureNamespaceRequest& r) -> proto::Response {
            try {
              // Reconfiguring can purge the namespace's accounts — a
              // whole-table sweep, so it runs with the workers parked.
              const bool created = engine_->quiesced([&] {
                return table_->configure_namespace(r.ns, r.config);
              });
              return proto::ConfigureNamespaceResponse{
                  r.id, created, table_->capacity_bound(r.ns)};
            } catch (const util::InvariantError&) {
              return proto::ErrorResponse{r.id,
                                          proto::ErrorCode::kInvalidConfig};
            }
          },
          [&](const proto::NamespaceInfoRequest& r) -> proto::Response {
            proto::NamespaceInfoResponse resp;
            resp.id = r.id;
            const auto info = engine_->quiesced(
                [&] { return table_->namespace_info(r.ns); });
            if (info) {
              resp.exists = true;
              resp.config = info->config;
              resp.capacity = info->capacity;
              resp.accounts = info->accounts;
            }
            return resp;
          },
          // Cluster vocabulary on a standalone server: answered with a
          // typed error so a misconfigured cluster client fails fast
          // instead of timing out (a ClusterServer's triage answers these
          // itself). Data ops never get here: they went to the engine
          // above.
          [&](const auto& r) -> proto::Response {
            return proto::ErrorResponse{r.id, proto::ErrorCode::kUnsupported};
          },
          [&](const proto::StatsRequest& r) -> proto::Response {
            proto::StatsResponse resp;
            resp.id = r.id;
            if (registry_) {
              const std::vector<obs::Metric> metrics = registry_->collect();
              resp.entries.reserve(
                  std::min(metrics.size(), proto::kMaxStatsEntries));
              for (const obs::Metric& m : metrics) {
                if (resp.entries.size() >= proto::kMaxStatsEntries) break;
                proto::StatsEntry e;
                e.name = m.name.substr(0, proto::kMaxStatsNameLen);
                e.kind = static_cast<std::uint8_t>(m.kind);
                e.value = m.value;
                e.p50 = m.p50;
                e.p90 = m.p90;
                e.p99 = m.p99;
                e.max = m.max;
                e.sum = m.sum;
                // Raw log-linear buckets ride along for histograms so a
                // cluster reader can merge nodes without losing the 1/16
                // quantile bound (occupied buckets only; <= kMaxStatsBuckets
                // by construction — the histogram has 960 bucket slots).
                e.buckets.reserve(m.buckets.size());
                for (const obs::HistogramBucket& b : m.buckets)
                  e.buckets.push_back(proto::StatsBucket{b.index, b.count});
                resp.entries.push_back(std::move(e));
              }
            }
            return resp;
          },
          [&](const proto::TracesRequest& r) -> proto::Response {
            proto::TracesResponse resp;
            resp.id = r.id;
            if (tracer_ != nullptr) {
              std::size_t cap = proto::kMaxTraceSpans;
              if (r.max_spans > 0)
                cap = std::min<std::size_t>(cap, r.max_spans);
              const std::vector<obs::SpanRecord> spans =
                  tracer_->snapshot(cap);
              resp.spans.reserve(spans.size());
              for (const obs::SpanRecord& s : spans) {
                proto::TraceSpan out;
                out.trace_id = s.trace_id;
                out.key = s.key;
                out.start_us = s.start_us;
                out.dur_us = s.dur_us;
                out.ns = s.ns;
                out.node = node_;
                out.stage = static_cast<std::uint8_t>(s.stage);
                out.decision = static_cast<std::uint8_t>(s.decision);
                out.flags = s.flags;
                resp.spans.push_back(out);
              }
            }
            return resp;
          },
      },
      request);
}

void Server::reply(NodeId to, const protocol::Response& response) {
  namespace proto = protocol;
  const auto* error = std::get_if<proto::ErrorResponse>(&response);
  std::atomic<std::uint64_t>& counter =
      error == nullptr                              ? served_
      : error->code == proto::ErrorCode::kOverloaded ? shed_
                                                     : errored_;
  counter.fetch_add(1, std::memory_order_relaxed);
  transport_->send(to, proto::encode(response));
}

void Server::dispatch_engine(NodeId from, protocol::Request&& request,
                             std::int64_t t0_ns,
                             const protocol::FrameHeader& head) {
  namespace proto = protocol;
  auto pending = std::make_unique<Pending>(
      Pending{this, from, t0_ns, head, proto::namespace_of(request), 0});
  bool queued;
  if (auto* batch = std::get_if<proto::BatchAcquireRequest>(&request)) {
    queued = engine_->submit_batch(batch->ns, std::move(batch->ops),
                                   &Server::complete_engine_batch,
                                   pending.get(),
                                   head.traced ? head.trace_id : 0,
                                   head.sampled);
  } else {
    ShardOp op;
    std::visit(Overloaded{
                   [&](const proto::AcquireRequest& r) {
                     op.kind = ShardOp::Kind::kAcquire;
                     op.ns = r.ns;
                     op.key = r.key;
                     op.tokens = r.tokens;
                   },
                   [&](const proto::RefundRequest& r) {
                     op.kind = ShardOp::Kind::kRefund;
                     op.ns = r.ns;
                     op.key = r.key;
                     op.tokens = r.tokens;
                   },
                   [&](const proto::QueryRequest& r) {
                     op.kind = ShardOp::Kind::kQuery;
                     op.ns = r.ns;
                     op.key = r.key;
                   },
                   [](const auto&) {},  // unreachable: is_data_op gated
               },
               request);
    pending->key = op.key;
    if (tracer_ != nullptr && head.traced) {
      // The decode span closes here: frame arrival -> op submitted. The
      // submit timestamp seeds the worker's queue-wait span.
      op.traced = true;
      op.trace_sampled = head.sampled;
      op.trace_id = head.trace_id;
      op.t_submit_us = obs::Tracer::now_us();
      tracer_->record(obs::Stage::kDecode, obs::Decision::kNone,
                      head.trace_id, op.key, op.ns, tracer_us(t0_ns),
                      op.t_submit_us - tracer_us(t0_ns), head.sampled);
    }
    op.done = &Server::complete_engine_op;
    op.ctx = pending.get();
    queued = engine_->try_submit(std::move(op));
  }
  if (queued) {
    pending.release();  // owned by the completion now
    return;
  }
  // The owner's queue is full: shed (pending frees; nothing was enqueued).
  if (tracer_ != nullptr) {
    tracer_->record(obs::Stage::kShed, obs::Decision::kShed, head.trace_id,
                    pending->key, pending->ns, obs::Tracer::now_us(), 0,
                    head.sampled);
  }
  const TimeUs now = table_->clock().now_us();
  reply(from, proto::ErrorResponse{head.id, proto::ErrorCode::kOverloaded,
                                   admission_.enabled()
                                       ? admission_.retry_after_us(now)
                                       : kQueueFullRetryUs});
}

void Server::complete_engine_op(ShardOp& op, void* ctx) {
  namespace proto = protocol;
  std::unique_ptr<Pending> p(static_cast<Pending*>(ctx));
  proto::Response response;
  if (!op.ok) {
    // Rejected before touching an account (invalid arguments; the
    // namespace precheck already ran on the IO thread and namespaces are
    // never deleted).
    response =
        proto::ErrorResponse{p->head.id, proto::ErrorCode::kMalformedBody};
  } else {
    switch (op.kind) {
      case ShardOp::Kind::kAcquire:
        response = proto::AcquireResponse{p->head.id, op.out_a, op.out_b};
        break;
      case ShardOp::Kind::kRefund:
        response = proto::RefundResponse{p->head.id, op.out_a, op.out_b};
        break;
      case ShardOp::Kind::kQuery:
        response = proto::QueryResponse{p->head.id, op.out_a, op.out_b != 0};
        break;
      case ShardOp::Kind::kBatchGroup:
      case ShardOp::Kind::kInstall:
        return;  // unreachable: batches complete via complete_engine_batch,
                 // installs are the cluster layer's
    }
  }
  p->server->finish_engine_reply(response, *p);
}

void Server::complete_engine_batch(EngineBatch& batch, void* ctx) {
  namespace proto = protocol;
  std::unique_ptr<Pending> p(static_cast<Pending*>(ctx));
  proto::BatchAcquireResponse resp;
  resp.id = p->head.id;
  resp.results = std::move(batch.results);
  p->server->finish_engine_reply(resp, *p);
}

void Server::finish_engine_reply(const protocol::Response& response,
                                 const Pending& p) {
  const bool traced = tracer_ != nullptr && p.head.traced;
  const std::int64_t t_cork = traced ? obs::Tracer::now_us() : 0;
  reply(p.from, response);
  if (traced) {
    // Cork span: completion -> reply handed to the transport (on the epoll
    // mesh this is the append into the connection's send buffer; the
    // owning loop's next flush writes it).
    tracer_->record(
        obs::Stage::kCork,
        std::holds_alternative<protocol::ErrorResponse>(response)
            ? obs::Decision::kError
            : obs::Decision::kNone,
        p.head.trace_id, p.key, p.ns, t_cork, obs::Tracer::now_us() - t_cork,
        p.head.sampled);
  }
  if (latency_ != nullptr || admission_.enabled()) {
    // Queue wait counts as service time on purpose: it is exactly the
    // signal the adaptive admission valve needs to see overload early.
    const double us = elapsed_us(p.t0_ns);
    if (latency_) latency_->observe(us);
    if (admission_.enabled()) admission_.record_service_time_us(us);
  }
}

}  // namespace toka::service
