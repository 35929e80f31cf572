#include "cluster/cluster_client.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"
#include "util/promise.hpp"

namespace toka::cluster {

namespace {

std::exception_ptr closed_error() {
  return std::make_exception_ptr(
      util::IoError("tokad cluster client is shut down"));
}

/// Sends one owner group's ops as one RPC: a BatchAcquire frame for
/// acquire_batch, a single-key frame for the one-op calls.
template <typename Result>
void issue(service::Client& client, service::NamespaceId ns,
           std::span<const service::AcquireOp> ops, bool batch,
           const service::protocol::TraceContext* trace,
           ClusterClient::Callback<std::vector<Result>> done) {
  constexpr bool kAcquire = std::is_same_v<Result, service::AcquireResult>;
  if constexpr (kAcquire) {
    if (batch) {
      client.acquire_batch_async(ns, ops, std::move(done), /*timeout_us=*/0,
                                 trace);
      return;
    }
  }
  auto one = [done = std::move(done)](Result result, std::exception_ptr error) {
    done(error ? std::vector<Result>{} : std::vector<Result>{result},
         std::move(error));
  };
  const service::AcquireOp& op = ops.front();
  if constexpr (kAcquire) {
    client.acquire_async(ns, op.key, op.tokens, std::move(one), 0, trace);
  } else if constexpr (std::is_same_v<Result, service::RefundResult>) {
    client.refund_async(ns, op.key, op.tokens, std::move(one), 0, trace);
  } else {
    client.query_async(ns, op.key, std::move(one), 0, trace);
  }
}

}  // namespace

/// One logical data op: its (key, tokens) ops — one for a single-key
/// call, n for a batch — and their results by position. Each owner group
/// in flight holds one `outstanding` slot and writes only its own indices;
/// the last group to settle publishes the results or the first error.
template <typename Result>
struct ClusterClient::Call {
  service::NamespaceId ns = 0;
  std::vector<service::AcquireOp> ops;
  bool batch = false;  ///< acquire_batch: one BatchAcquire frame per group
  /// One trace context for the whole logical op: every group frame (and
  /// every reissue after a redirect/refresh) carries the same id.
  std::optional<service::protocol::TraceContext> trace;
  Callback<std::vector<Result>> done;
  std::vector<Result> results;
  std::mutex mu;
  std::size_t outstanding = 1;  ///< guarded by mu
  std::exception_ptr first_error;  ///< guarded by mu

  /// Ends one group, failed when `error` is set.
  void settle(std::exception_ptr error) {
    {
      std::lock_guard lock(mu);
      if (error && !first_error) first_error = std::move(error);
      if (--outstanding != 0) return;
    }
    // The last group out: every other settle happened before this point.
    if (first_error) {
      done({}, first_error);
    } else {
      done(std::move(results), nullptr);
    }
  }
};

ClusterClient::ClusterClient(EndpointFactory factory, ClusterMap initial_map,
                             ClusterClientConfig config)
    : factory_(std::move(factory)),
      config_(config),
      seeds_(initial_map.nodes) {
  TOKA_CHECK_MSG(config_.call_timeout_us > 0,
                 "cluster client timeout must be positive");
  TOKA_CHECK_MSG(config_.max_attempts >= 1,
                 "cluster client needs at least one attempt");
  auto route = std::make_shared<Routing>();
  route->ring = HashRing(initial_map);
  route->map = std::move(initial_map);
  routing_ = std::move(route);
}

ClusterClient::~ClusterClient() {
  closed_.store(true, std::memory_order_release);
  // Destroying a per-node client rejects its in-flight calls; those
  // completions run here, see closed_, and surface their errors instead of
  // reissuing. A racing op may still insert a fresh slot behind the swap,
  // so loop until the registry stays empty. Each slot's own mutex waits
  // out any construction still in progress.
  for (;;) {
    std::unordered_map<NodeId, std::shared_ptr<NodeSlot>> slots;
    {
      std::lock_guard lock(mu_);
      slots.swap(clients_);
    }
    if (slots.empty()) break;
    for (auto& [node, slot] : slots) {
      std::unique_ptr<service::Client> client;
      {
        std::lock_guard slot_lock(slot->mu);
        slot->ready.store(nullptr, std::memory_order_release);
        client = std::move(slot->client);
      }
      // Destroyed with no slot lock held: the client's teardown waits out
      // in-flight deliveries, and one of those may be inside client_for.
      client.reset();
    }
  }
}

std::shared_ptr<const ClusterClient::Routing> ClusterClient::routing() const {
  std::lock_guard lock(mu_);
  return routing_;
}

ClusterMap ClusterClient::map() const { return routing()->map; }

void ClusterClient::adopt(ClusterMap map) {
  std::lock_guard lock(mu_);
  if (map.epoch <= routing_->map.epoch) return;
  auto route = std::make_shared<Routing>();
  route->ring = HashRing(map);
  route->map = std::move(map);
  routing_ = std::move(route);
  maps_adopted_.fetch_add(1, std::memory_order_relaxed);
}

service::Client* ClusterClient::client_for(NodeId node) {
  std::shared_ptr<NodeSlot> slot;
  {
    std::lock_guard lock(mu_);
    std::shared_ptr<NodeSlot>& entry = clients_[node];
    if (!entry) entry = std::make_shared<NodeSlot>();
    slot = entry;
  }
  if (service::Client* existing =
          slot->ready.load(std::memory_order_acquire)) {
    return existing;
  }
  // First contact: construct under the slot's own mutex only (see
  // NodeSlot for the lock-ordering story). The closed_ re-check under the
  // lock closes the teardown race: after the destructor has processed a
  // slot (or swapped the registry), closed_ is visible here, so no client
  // can materialize behind the sweep's back.
  std::lock_guard slot_lock(slot->mu);
  if (closed_.load(std::memory_order_acquire)) return nullptr;
  if (!slot->client) {
    slot->client = std::make_unique<service::Client>(factory_(node), node,
                                                     config_.call_timeout_us);
    // The per-node client records the Stage::kClient round-trip spans; the
    // contexts it stamps are the ones this layer mints per logical op.
    if (tracer_ != nullptr) slot->client->set_tracer(tracer_);
    slot->ready.store(slot->client.get(), std::memory_order_release);
  }
  return slot->client.get();
}

NodeId ClusterClient::refresh_target() {
  const std::shared_ptr<const Routing> route = routing();
  const std::vector<NodeId>& candidates =
      route->map.nodes.empty() ? seeds_ : route->map.nodes;
  if (candidates.empty()) return kNoNode;
  const std::size_t i =
      refresh_cursor_.fetch_add(1, std::memory_order_relaxed);
  return candidates[i % candidates.size()];
}

void ClusterClient::refresh_map_async(NodeId preferred,
                                      std::function<void(bool)> resume) {
  if (closed_.load(std::memory_order_acquire)) {
    resume(false);
    return;
  }
  // Coalesce: when a node dies with N ops in flight, every one of them
  // fails over to a refresh within the same timeout tick. Only the first
  // puts a fetch on the wire; the rest park their resumes behind it and
  // all continue off that single fetch's result. (A parked redirect loses
  // its `preferred` hint; its reissue redirects again if the coalesced
  // fetch came back stale — correctness is unaffected, only one extra
  // round trip in a rare race.)
  {
    std::lock_guard lock(mu_);
    if (refresh_inflight_) {
      refresh_waiters_.push_back(std::move(resume));
      return;
    }
    refresh_inflight_ = true;
  }
  const NodeId target = preferred != kNoNode ? preferred : refresh_target();
  service::Client* client = target != kNoNode ? client_for(target) : nullptr;
  if (client == nullptr) {
    // No target, or mid-teardown: the next attempt surfaces it.
    resume(false);
    finish_refresh(false);
    return;
  }
  map_refreshes_.fetch_add(1, std::memory_order_relaxed);
  client->fetch_cluster_map_async(
      [this, resume = std::move(resume)](ClusterMap m,
                                         std::exception_ptr error) {
        if (!error) adopt(std::move(m));
        // A failed fetch still resumes: the op's next attempt rotates to
        // another member.
        resume(!error);
        finish_refresh(!error);
      },
      config_.call_timeout_us);
}

void ClusterClient::finish_refresh(bool fetched) {
  std::vector<std::function<void(bool)>> waiters;
  {
    std::lock_guard lock(mu_);
    refresh_inflight_ = false;
    waiters.swap(refresh_waiters_);
  }
  // Outside mu_: a waiter's reissue takes mu_ for routing, and may start
  // its own refresh (the flag is already clear, so it won't deadlock on
  // this drain).
  for (std::function<void(bool)>& waiter : waiters) waiter(fetched);
}

// --------------------------------------------------------------- data ops

template <typename Result>
void ClusterClient::route(std::shared_ptr<Call<Result>> call,
                          std::vector<std::size_t> indices, int attempt) {
  if (closed_.load(std::memory_order_acquire)) {
    call->settle(closed_error());
    return;
  }
  // Split by owner under the cached map (on a reissue after a refresh,
  // ownership may have fragmented into several nodes).
  const std::shared_ptr<const Routing> current = routing();
  std::unordered_map<NodeId, std::vector<std::size_t>> groups;
  for (const std::size_t i : indices)
    groups[current->ring.owner(call->ns, call->ops[i].key)].push_back(i);
  // This call holds one outstanding slot; each extra group takes its own.
  if (groups.size() > 1) {
    std::lock_guard lock(call->mu);
    call->outstanding += groups.size() - 1;
  }
  // The next round of one group: after a map refresh from `from` (kNoNode:
  // a rotating member), re-split and reissue it.
  const auto retry = [this](std::shared_ptr<Call<Result>> call,
                            std::vector<std::size_t> group, int attempt,
                            NodeId from) {
    refresh_map_async(from, [this, call = std::move(call),
                             group = std::move(group), attempt](bool) mutable {
      route(std::move(call), std::move(group), attempt + 1);
    });
  };
  for (auto& [owner, group] : groups) {
    if (owner == kNoNode) {
      // No members in the cached map: refresh and retry, or give up.
      if (attempt >= config_.max_attempts) {
        call->settle(std::make_exception_ptr(util::IoError(
            "tokad: no owner for the key (empty cluster map)")));
      } else {
        retry(call, std::move(group), attempt, kNoNode);
      }
      continue;
    }
    service::Client* client = client_for(owner);
    if (client == nullptr) {
      call->settle(closed_error());
      continue;
    }
    std::vector<service::AcquireOp> ops;
    ops.reserve(group.size());
    for (const std::size_t i : group) ops.push_back(call->ops[i]);
    auto completion = [this, call, group = std::move(group), attempt, owner,
                       retry](std::vector<Result> results,
                              std::exception_ptr error) mutable {
      if (!error) {
        for (std::size_t i = 0; i < group.size(); ++i)
          call->results[group[i]] = std::move(results[i]);
        call->settle(nullptr);
        return;
      }
      if (closed_.load(std::memory_order_acquire) ||
          attempt >= config_.max_attempts) {
        call->settle(std::move(error));
        return;
      }
      try {
        std::rethrow_exception(error);
      } catch (const service::protocol::RedirectError&) {
        // Our map may be behind: refresh from the redirecting node.
        redirects_.fetch_add(1, std::memory_order_relaxed);
        retry(std::move(call), std::move(group), attempt, owner);
      } catch (const service::protocol::RpcError&) {
        // The cluster answered; the answer is no. Not retryable.
        call->settle(std::move(error));
      } catch (const util::IoError&) {
        // Timeout or connection closed: the owner may be gone — learn the
        // new membership from whoever is left, then reroute.
        io_retries_.fetch_add(1, std::memory_order_relaxed);
        retry(std::move(call), std::move(group), attempt, kNoNode);
      } catch (...) {
        call->settle(std::move(error));
      }
    };
    issue<Result>(*client, call->ns, ops, call->batch,
                  call->trace ? &*call->trace : nullptr,
                  std::move(completion));
  }
}

template <typename Result>
void ClusterClient::start(service::NamespaceId ns,
                          std::vector<service::AcquireOp> ops, bool batch,
                          Callback<std::vector<Result>> done) {
  auto call = std::make_shared<Call<Result>>();
  call->ns = ns;
  call->ops = std::move(ops);
  call->batch = batch;
  if (tracer_ != nullptr)
    call->trace = {tracer_->next_trace_id(), tracer_->sample_next()};
  call->done = std::move(done);
  call->results.resize(call->ops.size());
  std::vector<std::size_t> indices(call->ops.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  route(std::move(call), std::move(indices), 1);
}

template <typename Result>
std::vector<Result> ClusterClient::run(service::NamespaceId ns,
                                       std::vector<service::AcquireOp> ops,
                                       bool batch) {
  auto [future, done] = util::promise_pair<std::vector<Result>>();
  start<Result>(ns, std::move(ops), batch, std::move(done));
  return future.get();
}

void ClusterClient::acquire_async(service::NamespaceId ns, std::uint64_t key,
                                  Tokens n,
                                  Callback<service::AcquireResult> done) {
  start<service::AcquireResult>(
      ns, {{key, n}}, /*batch=*/false,
      [done = std::move(done)](std::vector<service::AcquireResult> results,
                               std::exception_ptr error) {
        done(error ? service::AcquireResult{} : results.front(),
             std::move(error));
      });
}

service::AcquireResult ClusterClient::acquire(service::NamespaceId ns,
                                              std::uint64_t key, Tokens n) {
  return run<service::AcquireResult>(ns, {{key, n}}, /*batch=*/false).front();
}

service::RefundResult ClusterClient::refund(service::NamespaceId ns,
                                            std::uint64_t key, Tokens n) {
  return run<service::RefundResult>(ns, {{key, n}}, /*batch=*/false).front();
}

service::QueryResult ClusterClient::query(service::NamespaceId ns,
                                          std::uint64_t key) {
  return run<service::QueryResult>(ns, {{key, 0}}, /*batch=*/false).front();
}

std::vector<service::AcquireResult> ClusterClient::acquire_batch(
    service::NamespaceId ns, std::span<const service::AcquireOp> ops) {
  if (ops.empty()) return {};
  return run<service::AcquireResult>(ns, {ops.begin(), ops.end()},
                                     /*batch=*/true);
}

// ------------------------------------------------------------------- admin

std::size_t ClusterClient::sweep(
    const std::vector<NodeId>& nodes, bool typed_errors_throw,
    const std::function<bool(NodeId, service::Client&)>& visit) {
  std::size_t answered = 0;
  for (const NodeId node : nodes) {
    service::Client* client = client_for(node);
    if (client == nullptr) break;  // mid-teardown
    try {
      const bool stop = visit(node, *client);
      ++answered;
      if (stop) break;
    } catch (const service::protocol::RpcError&) {
      if (typed_errors_throw) throw;
    } catch (const util::IoError&) {
      // dead or unreachable: the sweep reports the survivors
    }
  }
  return answered;
}

bool ClusterClient::refresh_map() {
  std::vector<NodeId> candidates = routing()->map.nodes;
  for (const NodeId seed : seeds_) {
    if (std::find(candidates.begin(), candidates.end(), seed) ==
        candidates.end())
      candidates.push_back(seed);
  }
  bool fetched = false;
  sweep(candidates, /*typed_errors_throw=*/false,
        [&](NodeId node, service::Client&) {
          auto [future, done] = util::promise_pair<bool>();
          refresh_map_async(node, [done = std::move(done)](bool ok) {
            done(ok, nullptr);
          });
          fetched = future.get();
          return fetched;
        });
  return fetched;
}

std::size_t ClusterClient::configure_namespace_all(
    service::NamespaceId ns, const service::NamespaceConfig& config) {
  // An invalid config is a caller bug, the same on every node: it throws.
  // A dead node is reconfigured when it rejoins.
  return sweep(routing()->map.nodes, /*typed_errors_throw=*/true,
               [&](NodeId, service::Client& client) {
                 client.configure_namespace(ns, config);
                 return false;
               });
}

namespace {

/// protocol::StatsEntry mirrors obs::Metric field for field; this is the
/// wire → in-memory half (kStats replies feeding merge_snapshots).
obs::Metric to_metric(const service::protocol::StatsEntry& e) {
  obs::Metric m;
  m.name = e.name;
  m.kind = static_cast<obs::Metric::Kind>(e.kind);
  m.value = e.value;
  m.p50 = e.p50;
  m.p90 = e.p90;
  m.p99 = e.p99;
  m.max = e.max;
  m.sum = e.sum;
  m.buckets.reserve(e.buckets.size());
  for (const service::protocol::StatsBucket& b : e.buckets)
    m.buckets.push_back(obs::HistogramBucket{b.index, b.count});
  return m;
}

}  // namespace

ClusterClient::ClusterStats ClusterClient::cluster_stats() {
  ClusterStats out;
  std::vector<std::vector<obs::Metric>> snapshots;
  sweep(routing()->map.nodes, /*typed_errors_throw=*/false,
        [&](NodeId node, service::Client& client) {
          std::vector<obs::Metric> metrics;
          for (const service::protocol::StatsEntry& e : client.stats())
            metrics.push_back(to_metric(e));
          snapshots.push_back(metrics);
          out.per_node.emplace_back(node, std::move(metrics));
          return false;
        });
  if (out.per_node.empty()) {
    throw util::IoError("cluster stats sweep: no node answered");
  }
  out.merged = obs::merge_snapshots(snapshots);
  return out;
}

std::vector<service::protocol::TraceSpan> ClusterClient::fetch_cluster_traces(
    std::uint64_t trace_id, std::uint32_t max_spans_per_node) {
  std::vector<service::protocol::TraceSpan> out;
  const std::size_t answered = sweep(
      routing()->map.nodes, /*typed_errors_throw=*/false,
      [&](NodeId, service::Client& client) {
        for (service::protocol::TraceSpan& s :
             client.fetch_traces(max_spans_per_node)) {
          if (trace_id == 0 || s.trace_id == trace_id) out.push_back(s);
        }
        return false;
      });
  if (answered == 0) {
    throw util::IoError("cluster trace sweep: no node answered");
  }
  // One timeline: every node's spans interleaved by start time. Nodes'
  // steady clocks are not synchronized across real machines — within one
  // process (tests, demos) they are the same clock; across hosts the
  // per-node ordering is exact and the interleave is approximate.
  std::stable_sort(out.begin(), out.end(),
                   [](const service::protocol::TraceSpan& a,
                      const service::protocol::TraceSpan& b) {
                     return a.start_us < b.start_us;
                   });
  return out;
}

std::size_t ClusterClient::push_map(const ClusterMap& map) {
  const ClusterMap current = routing()->map;
  // Newcomers first (they must hold the map before handoffs land), then
  // the remaining members, then leavers (so they drain last, towards nodes
  // that already route correctly).
  std::vector<NodeId> targets;
  for (const NodeId node : map.nodes)
    if (!current.contains(node)) targets.push_back(node);
  for (const NodeId node : map.nodes)
    if (current.contains(node)) targets.push_back(node);
  for (const NodeId node : current.nodes)
    if (!map.contains(node)) targets.push_back(node);

  // A dead node is skipped: the survivors' maps still converge.
  const std::size_t acks =
      sweep(targets, /*typed_errors_throw=*/false,
            [&](NodeId, service::Client& client) {
              client.apply_cluster_map(map);
              return false;
            });
  adopt(map);
  return acks;
}

}  // namespace toka::cluster
