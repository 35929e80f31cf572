// Routing client for a tokad cluster: one logical tokend endpoint over
// many nodes.
//
// The client caches a ClusterMap and the HashRing it implies, routes every
// (namespace, key) op to its owner through a per-node service::Client (the
// existing pipelined async core — any number of ops in flight per node),
// and recovers from staleness by itself. Every data op takes one path: a
// list of (key, tokens) ops — one for acquire, acquire_async, refund and
// query, n for acquire_batch — is split by owner under the cached ring,
// one RPC goes to each owner group, and a failed group is triaged:
//
//   - a RedirectResponse (protocol::RedirectError): our map may be behind.
//     Refresh it from the redirecting node, then re-split and reissue;
//   - a timeout or connection-closed IoError: the node may be dead.
//     Refresh from the other members (rotating), then re-split and reissue;
//   - typed server rejections (protocol::RpcError — unknown namespace,
//     invalid config) are NOT retried: the cluster answered, the answer is
//     no;
//   - no owner (an empty cached map): refresh and re-split.
//
// Each group gets `max_attempts` rounds (one issue or one empty-map
// refresh each). The caller gets the results, aligned with the ops, or the
// first error a group gave up on — so through a kill/join churn a
// well-configured caller sees only internal retries, not failures.
//
// Transport model: one endpoint per (this client, server node), provided
// by the EndpointFactory — service::Client owns its endpoint's receive
// handler, so endpoints cannot be shared between per-node clients. Works
// identically over the in-process fabric and the epoll socket mesh.
//
// Per-node clients are cached for the ClusterClient's lifetime and never
// pruned (safe retirement of a possibly-in-use client would need
// per-call reference counting). A very long-lived process in a cluster
// whose joins always mint fresh node ids accumulates one idle per-node
// client per departed member; recreate the ClusterClient at a convenient
// quiet point if that ever matters.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "cluster/hash_ring.hpp"
#include "obs/telemetry.hpp"
#include "runtime/transport.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "util/types.hpp"

namespace toka::obs {
class Tracer;
}

namespace toka::cluster {

struct ClusterClientConfig {
  /// Per-RPC deadline. Deliberately short next to service::Client's 5s
  /// default: a dead node should cost one short timeout, not a stall —
  /// the retry budget absorbs the recovery.
  TimeUs call_timeout_us = 250 * 1'000;
  /// Total tries per logical op (the first issue included).
  int max_attempts = 10;
};

class ClusterClient {
 public:
  /// Yields this client's own transport endpoint for talking to `server`.
  /// Called at most once per server node (clients are cached); must stay
  /// valid for any node id that can ever appear in a membership map.
  using EndpointFactory = std::function<runtime::Transport&(NodeId server)>;

  template <typename T>
  using Callback = service::Client::Callback<T>;

  /// Starts from `initial_map` (also the seed list for map refreshes when
  /// the cached map goes empty or all-dead).
  ClusterClient(EndpointFactory factory, ClusterMap initial_map,
                ClusterClientConfig config = {});

  /// Rejects every in-flight internal retry, then tears down the per-node
  /// clients. Contract (same as service::Client): the caller must not
  /// have its own detached async ops outstanding at destruction — sync
  /// wrappers satisfy this by construction, callback-style acquire_async
  /// callers must wait their completions out first. Internal retries of
  /// already-completed logical ops are absorbed: once teardown begins no
  /// new per-node client can be built and every reissue surfaces "shut
  /// down" instead.
  ~ClusterClient();

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Attaches a flight recorder: every logical data op mints ONE trace
  /// context (sampled per the tracer's 1-in-N policy) that rides through
  /// all of the op's internal redirect/refresh retries — the spans a
  /// redirecting node, the owning node and this client record all carry
  /// the same trace id, which is what makes a cross-node redirect legible
  /// in a kTraces snapshot. Per-node clients record Stage::kClient spans
  /// into the same tracer. Attach before the first data op, from the
  /// constructing thread; the tracer must outlive the client.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // ---------------------------------------------------------- data ops
  // Sync wrappers are async + .get(); they throw the last error after the
  // retry budget is spent (util::IoError / protocol::RpcError).

  service::AcquireResult acquire(service::NamespaceId ns, std::uint64_t key,
                                 Tokens n);
  service::RefundResult refund(service::NamespaceId ns, std::uint64_t key,
                               Tokens n);
  service::QueryResult query(service::NamespaceId ns, std::uint64_t key);

  /// Fans the batch out per owner node (one BatchAcquire frame per node in
  /// flight concurrently); results align with `ops`.
  std::vector<service::AcquireResult> acquire_batch(
      service::NamespaceId ns, std::span<const service::AcquireOp> ops);

  /// Async acquire with the same internal retry policy; `done` runs on a
  /// transport receive thread (or inline, if the op fails to issue).
  void acquire_async(service::NamespaceId ns, std::uint64_t key, Tokens n,
                     Callback<service::AcquireResult> done);

  // ------------------------------------------------------------- admin

  /// Configures `ns` on every node of the current map (every node must
  /// hold every namespace — accounts move between them). Returns how many
  /// nodes acknowledged; dead nodes are skipped.
  std::size_t configure_namespace_all(service::NamespaceId ns,
                                      const service::NamespaceConfig& config);

  /// Pushes `map` to its members and to every current member no longer in
  /// it (so leavers hand their accounts off), newest members first, then
  /// adopts it locally. Returns how many nodes acknowledged.
  std::size_t push_map(const ClusterMap& map);

  /// Fetches the map from the cluster (rotating over members, then seeds)
  /// and adopts it if newer. Returns true if a fetch succeeded.
  bool refresh_map();

  // ----------------------------------------------------- observability

  /// One cluster-wide telemetry sweep: every live member's kStats
  /// snapshot, plus the obs::merge_snapshots combination (counters and
  /// cluster-total gauges summed, histograms merged bucket-wise with the
  /// single-node ≤1/16 quantile-error bound intact).
  struct ClusterStats {
    /// Merged view across every node that answered.
    std::vector<obs::Metric> merged;
    /// Raw per-node snapshots (per-node-identity gauges — epochs, lag —
    /// are meaningful here, not in the sum).
    std::vector<std::pair<NodeId, std::vector<obs::Metric>>> per_node;
  };

  /// Fans kStats over every member of the current map; dead nodes and
  /// nodes answering with a typed error are skipped (a cluster sweep must
  /// not fail because one node is mid-crash). Throws util::IoError only if
  /// NO node answered.
  ClusterStats cluster_stats();

  /// Fans kTraces over every member and stitches the spans into one
  /// timeline ordered by start time. `trace_id` filters to a single
  /// trace (0 keeps everything); `max_spans_per_node` caps each node's
  /// reply (0 = server default). Each span's `node` field identifies the
  /// recorder, so a redirect, handoff or promotion hop shows up as one
  /// trace id spanning several nodes. Dead nodes are skipped; throws
  /// util::IoError only if NO node answered.
  std::vector<service::protocol::TraceSpan> fetch_cluster_traces(
      std::uint64_t trace_id = 0, std::uint32_t max_spans_per_node = 0);

  /// The currently cached membership map.
  ClusterMap map() const;

  // ---------------------------------------------------------- counters

  /// Redirects followed (map refreshed + op reissued).
  std::uint64_t redirects_followed() const { return redirects_.load(); }
  /// IoError (timeout / connection closed) retries.
  std::uint64_t io_retries() const { return io_retries_.load(); }
  /// Map refreshes that adopted a newer epoch.
  std::uint64_t maps_adopted() const { return maps_adopted_.load(); }
  /// Map fetches actually put on the wire. Concurrent refresh wants
  /// coalesce behind one in-flight fetch, so a node kill with N ops in
  /// flight costs O(1) fetches, not O(N) — this counter is what the churn
  /// regression test asserts on.
  std::uint64_t map_refreshes() const { return map_refreshes_.load(); }

 private:
  struct Routing {
    ClusterMap map;
    HashRing ring;
  };

  /// One per-node client and the mutex guarding its construction. The
  /// registry lock (mu_) is never held while a service::Client is built —
  /// construction installs transport handlers, and holding mu_ across
  /// that would order mu_ against the endpoint's handler lock, the
  /// inverse of what every delivery callback (handler lock held, then
  /// mu_ for routing) does. Once built, `ready` makes lookups lock-free,
  /// so a completion callback (which runs under its endpoint's handler
  /// lock) never touches slot mutexes of live clients either.
  struct NodeSlot {
    std::mutex mu;
    std::atomic<service::Client*> ready{nullptr};
    std::unique_ptr<service::Client> client;
  };

  /// One logical data op in flight (defined in the .cpp).
  template <typename Result>
  struct Call;

  std::shared_ptr<const Routing> routing() const;
  /// Adopts `map` if strictly newer than the cached one.
  void adopt(ClusterMap map);
  /// The per-node client, built on first contact. nullptr once teardown
  /// has begun (construction is refused under the slot lock, so the
  /// destructor sweep can never leave a freshly-built client behind).
  service::Client* client_for(NodeId node);
  /// The next node to ask for a map (members first, seeds as fallback).
  NodeId refresh_target();
  /// Async map refresh; `resume` runs whether or not the fetch succeeded,
  /// and is told which. Concurrent calls coalesce: while one fetch is in
  /// flight, later resumes queue behind it and all run off that one fetch's
  /// completion (a node kill with many ops in flight triggers one fetch,
  /// not one per op — the refresh stampede bugfix).
  void refresh_map_async(NodeId preferred, std::function<void(bool)> resume);
  /// Clears the in-flight flag and runs every queued waiter (outside mu_).
  void finish_refresh(bool fetched);

  /// Starts one logical data op over `ops`, minting its trace context;
  /// `batch` sends each owner group as one BatchAcquire frame.
  template <typename Result>
  void start(service::NamespaceId ns, std::vector<service::AcquireOp> ops,
             bool batch, Callback<std::vector<Result>> done);
  /// start(), awaited: the sync data ops.
  template <typename Result>
  std::vector<Result> run(service::NamespaceId ns,
                          std::vector<service::AcquireOp> ops, bool batch);
  /// The one routing-and-retry path (see the top of this file) for the
  /// ops of `call` at `indices`; `attempt` counts rounds from 1.
  template <typename Result>
  void route(std::shared_ptr<Call<Result>> call,
             std::vector<std::size_t> indices, int attempt);

  /// The member sweep: `visit`s each of `nodes` in order until a visit
  /// returns true or teardown begins. A visit that throws util::IoError
  /// (a dead node, or a typed refusal unless `typed_errors_throw`) skips
  /// its node. Returns how many visits returned.
  std::size_t sweep(
      const std::vector<NodeId>& nodes, bool typed_errors_throw,
      const std::function<bool(NodeId, service::Client&)>& visit);

  EndpointFactory factory_;
  ClusterClientConfig config_;
  std::vector<NodeId> seeds_;
  obs::Tracer* tracer_ = nullptr;

  mutable std::mutex mu_;
  std::shared_ptr<const Routing> routing_;
  std::unordered_map<NodeId, std::shared_ptr<NodeSlot>> clients_;
  std::atomic<bool> closed_{false};
  std::atomic<std::size_t> refresh_cursor_{0};
  bool refresh_inflight_ = false;  ///< guarded by mu_, as are the waiters
  std::vector<std::function<void(bool)>> refresh_waiters_;

  std::atomic<std::uint64_t> redirects_{0};
  std::atomic<std::uint64_t> io_retries_{0};
  std::atomic<std::uint64_t> maps_adopted_{0};
  std::atomic<std::uint64_t> map_refreshes_{0};
};

}  // namespace toka::cluster
