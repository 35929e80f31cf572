// One tokad cluster node: a service::Server that only answers for the keys
// it owns.
//
// The node installs itself as the transport's receive handler and is the
// one triage every frame passes: it reads the header once and
//
//   - settles the sent-handoff counters from handoff acks, and drops every
//     other response;
//   - walks a data op's (acquire/refund/query/batch) keys against its
//     HashRing before admission and before any decode: a frame with any key
//     owned elsewhere gets a RedirectResponse carrying the node's map epoch
//     and that key's owner — redirect-and-retry instead of server-side
//     proxying, so a stale client pays one extra round trip once and no
//     node holds a request hostage to another node's latency;
//   - answers the cluster vocabulary itself: ClusterMap, ApplyMap (install
//     a strictly newer map and hand off every account the new ring moves
//     elsewhere), Handoff (install a moved account on its shard's engine
//     worker, only if this node owns the key and has no live account for
//     it), and the replication frames below;
//   - hands everything else to its own service::Server together with that
//     header: owned data ops run on the node's ShardEngine exactly as on a
//     standalone tokend, and admin, stats and traces requests are answered
//     (decoded once, here). That server installs no handler of its own.
//
// Handoff is forfeit-on-loss, never-duplicate: the sender extracts the
// account (it stops existing there) before the frame leaves, and the
// receiver installs at most once. A lost frame, an unknown namespace or a
// racing fresh account can only destroy banked tokens — which keeps every
// node's §3.4 audit, and hence the cluster-wide per-key burst bound,
// intact through membership churn (see DESIGN.md, "tokad cluster").
//
// With ClusterMap::replicas > 0 the node additionally runs a
// ReplicationEngine (see replication.hpp): owned accounts stream deltas to
// their ring successors at the engine workers' drain boundaries (each
// worker flushes its own shards), kReplicate/kReplicaAck/kPromote frames
// are routed to it, replica installs ride every map adoption, and a
// peer-down notification auto-promotes through the dead node's id-order
// successor. Every balance the cluster drops — refused
// handoffs, unroutable extractions, conservative promotion installs — is
// counted in tokens_forfeited (exported as tokad_tokens_forfeited), so the
// crash-loss bound is observable, not just asserted in tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "cluster/hash_ring.hpp"
#include "cluster/replication.hpp"
#include "obs/telemetry.hpp"
#include "runtime/transport.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/types.hpp"

namespace toka::cluster {

/// Outcome of ApplyMap (the first three fields mirror the wire response
/// body; the replica fields are local accounting).
struct ApplyOutcome {
  bool accepted = false;       ///< false: we already have this epoch or newer
  std::uint64_t epoch = 0;     ///< our epoch after the call
  std::uint64_t handoffs = 0;  ///< accounts extracted and sent away
  std::uint64_t replica_installed = 0;  ///< replicas promoted into the table
  Tokens replica_forfeited = 0;  ///< tokens the conservative install dropped
};

/// Outcome of promote() (mirrors the PromoteResponse body).
struct PromoteOutcome {
  bool accepted = false;        ///< false: stale epoch or unknown dead node
  std::uint64_t epoch = 0;      ///< our epoch after the call
  std::uint64_t installed = 0;  ///< replica accounts installed here
  Tokens forfeited = 0;         ///< tokens dropped by the conservative install
};

class ClusterServer {
 public:
  /// Wraps `table` behind `transport` with `map` as the initial
  /// membership. The table, the transport and options.engine (required,
  /// running on `table`) must outlive the server. The node's identity is
  /// transport.self(); it need not appear in `map` (a drained node
  /// redirects everything). `options` is handed to the wrapped
  /// service::Server (engine, telemetry registry, admission valve); with
  /// a registry set, the cluster layer additionally exports the ring
  /// epoch, redirect and handoff counters as "tokad_*" metrics, and
  /// kStats frames answer with the full snapshot (like any admin frame
  /// they are never redirected, never shed).
  ClusterServer(service::AccountTable& table, runtime::Transport& transport,
                ClusterMap map, service::ServerOptions options = {});

  /// Detaches from the transport and waits out in-flight requests.
  ~ClusterServer();

  ClusterServer(const ClusterServer&) = delete;
  ClusterServer& operator=(const ClusterServer&) = delete;

  NodeId self() const { return transport_->self(); }
  ClusterMap map() const;
  std::uint64_t map_epoch() const;

  /// Installs `map` if strictly newer than the current one and hands off
  /// every account the new ring no longer places here. Also reachable over
  /// the wire via ApplyMap; exposed for in-process coordinators and tests.
  /// With replication running, every adoption also installs the replicas
  /// of departed sources that the new ring places here.
  ApplyOutcome apply_map(const ClusterMap& map);

  /// Removes `failed` from membership (strictly-newer epoch), installs
  /// this node's replicas of it, and broadcasts the new map to the other
  /// survivors so they do the same — the failover path. `expected_epoch`
  /// guards a stale coordinator (0 = promote against whatever the current
  /// map is). Idempotent: not accepted if `failed` already left. Also
  /// reachable over the wire via kPromote, and triggered automatically by
  /// the transport's peer-down signal (through the dead node's id-order
  /// successor, so concurrent observers don't race epoch bumps).
  PromoteOutcome promote(NodeId failed, std::uint64_t expected_epoch = 0);

  /// The wrapped per-node server (served/errored/malformed counters).
  const service::Server& inner() const { return server_; }

  // ------------------------------------------------------------ counters

  /// Data requests answered with a RedirectResponse.
  std::uint64_t redirects_sent() const { return redirects_sent_.load(); }
  /// Membership maps adopted (construction's initial map not counted).
  std::uint64_t maps_applied() const { return maps_applied_.load(); }
  /// Accounts extracted here and sent to a new owner.
  std::uint64_t handoffs_sent() const { return handoffs_sent_.load(); }
  /// Handoff acks: the receiver installed the account.
  std::uint64_t handoffs_accepted() const { return handoffs_accepted_.load(); }
  /// Handoff acks: the receiver dropped the state (tokens forfeited).
  std::uint64_t handoffs_rejected() const { return handoffs_rejected_.load(); }
  /// Handoff requests that arrived here.
  std::uint64_t handoffs_received() const { return handoffs_received_.load(); }
  /// Handoff requests that arrived here and were installed.
  std::uint64_t handoffs_installed() const {
    return handoffs_installed_.load();
  }
  /// Tokens this node destroyed: refused handoff installs, extractions
  /// with no routable target, and the balance-above-floor gap (or whole
  /// balance, on refusal) of every replica promotion install.
  Tokens tokens_forfeited() const {
    return tokens_forfeited_.load(std::memory_order_relaxed);
  }
  /// Promotions this node coordinated (accepted promote() calls).
  std::uint64_t promotions() const {
    return promotions_.load(std::memory_order_relaxed);
  }
  /// The node's replication engine (always present; idle when the map's
  /// replication factor is 0). Exposed for tests and benchmarks.
  const ReplicationEngine& replication() const { return *repl_; }

 private:
  /// The node's one frame triage: reads the header once, answers handoff
  /// acks, redirects foreign data ops and runs cluster requests, and hands
  /// everything else to server_ with that header.
  void on_frame(NodeId from, std::vector<std::byte> payload);
  /// A decoded request that is not a data op: the cluster vocabulary is
  /// answered here, the rest by server_.
  void on_request(NodeId from, const service::protocol::FrameHeader& head,
                  const service::protocol::Request& request);
  /// A handoff install in flight on its shard's worker.
  struct PendingHandoff {
    ClusterServer* server = nullptr;
    NodeId from = kNoNode;
    std::uint64_t id = 0;
    std::optional<service::protocol::TraceContext> trace;
    std::int64_t t0_us = 0;  ///< receipt, when traced
  };
  /// Engine completion: counts the install or forfeit and replies.
  static void complete_handoff(service::ShardOp& op, void* ctx);
  /// Trace-threaded internals behind the public apply_map/promote: the
  /// same context is stamped onto every frame a membership change fans out
  /// (handoffs, the ApplyMap broadcast), so one trace id survives the
  /// whole failover across nodes. Membership changes are rare, so minted
  /// contexts are always sampled.
  ApplyOutcome apply_map(
      const ClusterMap& map,
      const std::optional<service::protocol::TraceContext>& trace);
  PromoteOutcome promote(
      NodeId failed, std::uint64_t expected_epoch,
      const std::optional<service::protocol::TraceContext>& trace);
  std::optional<service::protocol::TraceContext> mint_cluster_trace();
  /// Peer-down reaction: the dead node's id-order successor promotes,
  /// right on the transport thread that reports it (never a shard
  /// worker, so the promotion may quiesce the engine).
  void on_peer_down(NodeId peer);
  /// Drain hook: streams worker `w`'s shards' dirty deltas.
  void flush_worker_shards(std::size_t w);
  void register_metrics();

  service::AccountTable* table_;
  runtime::Transport* transport_;
  /// Installs no handler of its own: it sees only what on_frame hands it.
  service::Server server_;
  obs::Tracer* tracer_ = nullptr;  ///< the inner server's flight recorder
  obs::Registry* registry_;
  /// Runs the node's data ops and handoff installs; handoff extraction
  /// and replica installs touch the table with its workers parked
  /// (quiesced()).
  service::ShardEngine* engine_;
  Tokens repl_headroom_ = 0;
  std::unique_ptr<ReplicationEngine> repl_;
  /// Shard indices per engine worker (w owns shard s iff s % workers == w).
  std::vector<std::vector<std::size_t>> worker_shards_;
  std::vector<std::string> metric_names_;

  mutable std::shared_mutex map_mu_;
  ClusterMap map_;
  HashRing ring_;

  std::atomic<std::uint64_t> next_handoff_id_{1};
  std::atomic<std::uint64_t> redirects_sent_{0};
  std::atomic<std::uint64_t> maps_applied_{0};
  std::atomic<std::uint64_t> handoffs_sent_{0};
  std::atomic<std::uint64_t> handoffs_accepted_{0};
  std::atomic<std::uint64_t> handoffs_rejected_{0};
  std::atomic<std::uint64_t> handoffs_received_{0};
  std::atomic<std::uint64_t> handoffs_installed_{0};
  std::atomic<Tokens> tokens_forfeited_{0};
  std::atomic<std::uint64_t> promotions_{0};
};

}  // namespace toka::cluster
