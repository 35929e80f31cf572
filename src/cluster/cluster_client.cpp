#include "cluster/cluster_client.hpp"

#include <algorithm>
#include <future>
#include <string>
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

}  // namespace

/// Shared completion state of one fanned-out batch acquire. `results` is
/// scattered into by index — every index is written by exactly one group's
/// completion, so no lock is needed for the data itself; `outstanding`
/// counts live groups and the last one to finish publishes.
struct BatchState {
  std::vector<service::AcquireResult> results;
  std::atomic<std::size_t> outstanding{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  ClusterClient::Callback<std::vector<service::AcquireResult>> done;
  /// One trace context for the whole logical batch: every subgroup frame
  /// (and every reissue after a redirect/refresh) carries the same id.
  std::optional<service::protocol::TraceContext> trace;

  void fail(std::exception_ptr error) {
    {
      std::lock_guard lock(error_mu);
      if (!first_error) first_error = std::move(error);
    }
    finish_one();
  }

  void finish_one() {
    if (outstanding.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    std::exception_ptr error;
    {
      std::lock_guard lock(error_mu);
      error = first_error;
    }
    if (error) {
      done({}, std::move(error));
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
  // Unregister before any member teardown: a scrape between here and the
  // end of destruction must not call back into a dying client.
  if (registry_) {
    for (const std::string& name : metric_names_) registry_->remove(name);
  }
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

std::optional<service::protocol::TraceContext> ClusterClient::mint_trace() {
  if (tracer_ == nullptr) return std::nullopt;
  return service::protocol::TraceContext{tracer_->next_trace_id(),
                                         tracer_->sample_next()};
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
                                      std::function<void()> resume) {
  if (closed_.load(std::memory_order_acquire)) {
    resume();
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
    resume();
    finish_refresh();
    return;
  }
  map_refreshes_.fetch_add(1, std::memory_order_relaxed);
  client->fetch_cluster_map_async(
      [this, resume = std::move(resume)](ClusterMap m,
                                         std::exception_ptr error) {
        if (!error) adopt(std::move(m));
        // A failed fetch still resumes: the op's next attempt rotates to
        // another member.
        resume();
        finish_refresh();
      },
      config_.call_timeout_us);
}

void ClusterClient::finish_refresh() {
  std::vector<std::function<void()>> waiters;
  {
    std::lock_guard lock(mu_);
    refresh_inflight_ = false;
    waiters.swap(refresh_waiters_);
  }
  // Outside mu_: a waiter's reissue takes mu_ for routing, and may start
  // its own refresh (the flag is already clear, so it won't deadlock on
  // this drain).
  for (std::function<void()>& waiter : waiters) waiter();
}

bool ClusterClient::refresh_map() {
  std::vector<NodeId> candidates = routing()->map.nodes;
  for (const NodeId seed : seeds_) {
    if (std::find(candidates.begin(), candidates.end(), seed) ==
        candidates.end())
      candidates.push_back(seed);
  }
  for (const NodeId node : candidates) {
    service::Client* client = client_for(node);
    if (client == nullptr) return false;  // mid-teardown
    try {
      map_refreshes_.fetch_add(1, std::memory_order_relaxed);
      adopt(client->fetch_cluster_map());
      return true;
    } catch (const util::IoError&) {
      // dead or non-cluster node: try the next one
    }
  }
  return false;
}

void ClusterClient::register_metrics(obs::Registry& registry) {
  registry_ = &registry;
  const auto add = [&](const std::string& name) {
    metric_names_.push_back(name);
    return name;
  };
  registry.counter_fn(add("tokad_client_redirects_followed"), [this] {
    return static_cast<double>(redirects_.load(std::memory_order_relaxed));
  });
  registry.counter_fn(add("tokad_client_io_retries"), [this] {
    return static_cast<double>(io_retries_.load(std::memory_order_relaxed));
  });
  registry.counter_fn(add("tokad_client_maps_adopted"), [this] {
    return static_cast<double>(maps_adopted_.load(std::memory_order_relaxed));
  });
  registry.counter_fn(add("tokad_client_map_refreshes"), [this] {
    return static_cast<double>(
        map_refreshes_.load(std::memory_order_relaxed));
  });
}

// --------------------------------------------------------------- data ops

template <typename Result>
void ClusterClient::run_op(
    service::NamespaceId ns, std::uint64_t key,
    std::function<void(service::Client&, Callback<Result>)> issue,
    Callback<Result> done, int attempt) {
  if (closed_.load(std::memory_order_acquire)) {
    done(Result{}, closed_error());
    return;
  }
  const std::shared_ptr<const Routing> route = routing();
  const NodeId owner = route->ring.owner(ns, key);
  if (owner == kNoNode) {
    // No members in the cached map: refresh and retry, or give up.
    if (attempt >= config_.max_attempts) {
      done(Result{}, std::make_exception_ptr(util::IoError(
                         "tokad: no owner for the key (empty cluster map)")));
      return;
    }
    refresh_map_async(kNoNode, [this, ns, key, issue = std::move(issue),
                                done = std::move(done), attempt]() mutable {
      run_op<Result>(ns, key, std::move(issue), std::move(done), attempt + 1);
    });
    return;
  }
  service::Client* client = client_for(owner);
  if (client == nullptr) {
    done(Result{}, closed_error());
    return;
  }
  auto completion = [this, ns, key, issue, done, attempt, owner](
                        Result result, std::exception_ptr error) mutable {
    if (!error) {
      done(std::move(result), nullptr);
      return;
    }
    if (closed_.load(std::memory_order_acquire) ||
        attempt >= config_.max_attempts) {
      done(Result{}, std::move(error));
      return;
    }
    // Built only on the retry paths: it consumes `issue` and `done`, which
    // the non-retry paths still need intact.
    auto make_resume = [&]() {
      return [this, ns, key, issue = std::move(issue),
              done = std::move(done), attempt]() mutable {
        run_op<Result>(ns, key, std::move(issue), std::move(done),
                       attempt + 1);
      };
    };
    try {
      std::rethrow_exception(error);
    } catch (const service::protocol::RedirectError&) {
      // Our map is behind; the redirecting node has the newer one.
      redirects_.fetch_add(1, std::memory_order_relaxed);
      refresh_map_async(owner, make_resume());
    } catch (const service::protocol::RpcError&) {
      // The cluster answered; the answer is no. Not retryable.
      done(Result{}, std::move(error));
    } catch (const util::IoError&) {
      // Timeout or connection closed: the owner may be gone — learn the
      // new membership from whoever is left, then reroute.
      io_retries_.fetch_add(1, std::memory_order_relaxed);
      refresh_map_async(kNoNode, make_resume());
    } catch (...) {
      done(Result{}, std::move(error));
    }
  };
  issue(*client, std::move(completion));
}

template <typename Result>
Result ClusterClient::run_sync(
    service::NamespaceId ns, std::uint64_t key,
    std::function<void(service::Client&, Callback<Result>)> issue) {
  auto [future, done] = util::promise_pair<Result>();
  run_op<Result>(ns, key, std::move(issue), std::move(done), 1);
  return future.get();
}

// Each wrapper mints the logical op's trace context ONCE, outside the
// issue closure — the closure (and its context copy) is what run_op
// replays on every redirect/refresh retry, so all attempts share one id.

void ClusterClient::acquire_async(service::NamespaceId ns, std::uint64_t key,
                                  Tokens n,
                                  Callback<service::AcquireResult> done) {
  run_op<service::AcquireResult>(
      ns, key,
      [ns, key, n, trace = mint_trace()](
          service::Client& client,
          Callback<service::AcquireResult> completion) {
        client.acquire_async(ns, key, n, std::move(completion),
                             /*timeout_us=*/0, trace ? &*trace : nullptr);
      },
      std::move(done), 1);
}

service::AcquireResult ClusterClient::acquire(service::NamespaceId ns,
                                              std::uint64_t key, Tokens n) {
  return run_sync<service::AcquireResult>(
      ns, key,
      [ns, key, n, trace = mint_trace()](
          service::Client& client,
          Callback<service::AcquireResult> completion) {
        client.acquire_async(ns, key, n, std::move(completion),
                             /*timeout_us=*/0, trace ? &*trace : nullptr);
      });
}

service::RefundResult ClusterClient::refund(service::NamespaceId ns,
                                            std::uint64_t key, Tokens n) {
  return run_sync<service::RefundResult>(
      ns, key,
      [ns, key, n, trace = mint_trace()](
          service::Client& client,
          Callback<service::RefundResult> completion) {
        client.refund_async(ns, key, n, std::move(completion),
                            /*timeout_us=*/0, trace ? &*trace : nullptr);
      });
}

service::QueryResult ClusterClient::query(service::NamespaceId ns,
                                          std::uint64_t key) {
  return run_sync<service::QueryResult>(
      ns, key,
      [ns, key, trace = mint_trace()](
          service::Client& client,
          Callback<service::QueryResult> completion) {
        client.query_async(ns, key, std::move(completion),
                           /*timeout_us=*/0, trace ? &*trace : nullptr);
      });
}

// ------------------------------------------------------------ batch fan-out

void ClusterClient::batch_group_async(service::NamespaceId ns,
                                      std::vector<service::AcquireOp> ops,
                                      std::vector<std::size_t> indices,
                                      std::shared_ptr<BatchState> state,
                                      int attempt) {
  if (closed_.load(std::memory_order_acquire)) {
    state->fail(closed_error());
    return;
  }
  if (attempt > config_.max_attempts) {
    state->fail(std::make_exception_ptr(
        util::IoError("tokad: batch acquire ran out of attempts")));
    return;
  }
  const std::shared_ptr<const Routing> route = routing();
  // Split this group by owner under the current map (on a reissue after a
  // refresh, ownership may have fragmented into several nodes).
  struct Group {
    std::vector<service::AcquireOp> ops;
    std::vector<std::size_t> indices;
  };
  std::unordered_map<NodeId, Group> groups;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Group& group = groups[route->ring.owner(ns, ops[i].key)];
    group.ops.push_back(ops[i]);
    group.indices.push_back(indices[i]);
  }
  // This call holds one outstanding slot; each extra subgroup takes its own.
  if (groups.size() > 1)
    state->outstanding.fetch_add(groups.size() - 1,
                                 std::memory_order_acq_rel);
  for (auto& [owner, group] : groups) {
    if (owner == kNoNode) {
      // No route for these keys: refresh the map and re-run the subgroup.
      refresh_map_async(
          kNoNode, [this, ns, group_ops = std::move(group.ops),
                    group_indices = std::move(group.indices), state,
                    attempt]() mutable {
            batch_group_async(ns, std::move(group_ops),
                              std::move(group_indices), state, attempt + 1);
          });
      continue;
    }
    service::Client* client = client_for(owner);
    if (client == nullptr) {
      state->fail(closed_error());
      continue;
    }
    auto completion = [this, ns, owner, group_ops = group.ops,
                       group_indices = group.indices, state, attempt](
                          std::vector<service::AcquireResult> results,
                          std::exception_ptr error) mutable {
      if (!error) {
        for (std::size_t i = 0; i < group_indices.size(); ++i)
          state->results[group_indices[i]] = results[i];
        state->finish_one();
        return;
      }
      if (closed_.load(std::memory_order_acquire) ||
          attempt >= config_.max_attempts) {
        state->fail(std::move(error));
        return;
      }
      auto make_resume = [&]() {
        return [this, ns, group_ops = std::move(group_ops),
                group_indices = std::move(group_indices), state,
                attempt]() mutable {
          batch_group_async(ns, std::move(group_ops),
                            std::move(group_indices), state, attempt + 1);
        };
      };
      try {
        std::rethrow_exception(error);
      } catch (const service::protocol::RedirectError&) {
        redirects_.fetch_add(1, std::memory_order_relaxed);
        refresh_map_async(owner, make_resume());
      } catch (const service::protocol::RpcError&) {
        state->fail(std::move(error));
      } catch (const util::IoError&) {
        io_retries_.fetch_add(1, std::memory_order_relaxed);
        refresh_map_async(kNoNode, make_resume());
      } catch (...) {
        state->fail(std::move(error));
      }
    };
    client->acquire_batch_async(ns, group.ops, std::move(completion),
                                /*timeout_us=*/0,
                                state->trace ? &*state->trace : nullptr);
  }
}

std::vector<service::AcquireResult> ClusterClient::acquire_batch(
    service::NamespaceId ns, std::span<const service::AcquireOp> ops) {
  if (ops.empty()) return {};
  auto [future, done] =
      util::promise_pair<std::vector<service::AcquireResult>>();
  auto state = std::make_shared<BatchState>();
  state->results.resize(ops.size());
  state->outstanding.store(1, std::memory_order_relaxed);
  state->done = std::move(done);
  state->trace = mint_trace();
  std::vector<service::AcquireOp> all(ops.begin(), ops.end());
  std::vector<std::size_t> indices(ops.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  batch_group_async(ns, std::move(all), std::move(indices), std::move(state),
                    1);
  return future.get();
}

// ------------------------------------------------------------------- admin

std::size_t ClusterClient::configure_namespace_all(
    service::NamespaceId ns, const service::NamespaceConfig& config) {
  const std::vector<NodeId> nodes = routing()->map.nodes;
  std::size_t acks = 0;
  for (const NodeId node : nodes) {
    service::Client* client = client_for(node);
    if (client == nullptr) break;  // mid-teardown
    try {
      client->configure_namespace(ns, config);
      ++acks;
    } catch (const service::protocol::RpcError&) {
      throw;  // invalid config: a caller bug, same on every node
    } catch (const util::IoError&) {
      // dead node: it will be reconfigured when it rejoins
    }
  }
  return acks;
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
  const std::vector<NodeId> nodes = routing()->map.nodes;
  ClusterStats out;
  std::vector<std::vector<obs::Metric>> snapshots;
  for (const NodeId node : nodes) {
    service::Client* client = client_for(node);
    if (client == nullptr) break;  // mid-teardown
    try {
      const std::vector<service::protocol::StatsEntry> entries =
          client->stats();
      std::vector<obs::Metric> metrics;
      metrics.reserve(entries.size());
      for (const service::protocol::StatsEntry& e : entries)
        metrics.push_back(to_metric(e));
      snapshots.push_back(metrics);
      out.per_node.emplace_back(node, std::move(metrics));
    } catch (const service::protocol::RpcError&) {
      // typed refusal: nothing to merge from this node
    } catch (const util::IoError&) {
      // dead node: the sweep reports the survivors
    }
  }
  if (out.per_node.empty()) {
    throw util::IoError("cluster stats sweep: no node answered");
  }
  out.merged = obs::merge_snapshots(snapshots);
  return out;
}

std::vector<service::protocol::TraceSpan> ClusterClient::fetch_cluster_traces(
    std::uint64_t trace_id, std::uint32_t max_spans_per_node) {
  const std::vector<NodeId> nodes = routing()->map.nodes;
  std::vector<service::protocol::TraceSpan> out;
  std::size_t answered = 0;
  for (const NodeId node : nodes) {
    service::Client* client = client_for(node);
    if (client == nullptr) break;  // mid-teardown
    try {
      std::vector<service::protocol::TraceSpan> spans =
          client->fetch_traces(max_spans_per_node);
      ++answered;
      for (service::protocol::TraceSpan& s : spans) {
        if (trace_id != 0 && s.trace_id != trace_id) continue;
        out.push_back(s);
      }
    } catch (const service::protocol::RpcError&) {
      // typed refusal: this node contributes no spans
    } catch (const util::IoError&) {
      // dead node: its ring died with it; the survivors' spans remain
    }
  }
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

  std::size_t acks = 0;
  for (const NodeId node : targets) {
    service::Client* client = client_for(node);
    if (client == nullptr) break;  // mid-teardown
    try {
      client->apply_cluster_map(map);
      ++acks;
    } catch (const util::IoError&) {
      // dead or unreachable: the survivors' maps still converge
    }
  }
  adopt(map);
  return acks;
}

}  // namespace toka::cluster
