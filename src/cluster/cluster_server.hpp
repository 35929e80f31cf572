// One tokad cluster node: a service::Server that only answers for the keys
// it owns.
//
// The wrapper installs itself as the transport's receive handler and
// triages every frame:
//
//   - data ops (acquire/refund/query/batch) whose keys its HashRing places
//     here are forwarded — still as raw frames — to the wrapped
//     service::Server, which executes them on the node's ShardEngine
//     exactly as a standalone tokend would;
//   - data ops for keys it does NOT own get a RedirectResponse carrying
//     the node's map epoch and the key's current owner: redirect-and-retry
//     instead of server-side proxying, so a stale client pays one extra
//     round trip once and then routes correctly, and no node ever holds a
//     request hostage to another node's latency;
//   - ClusterMap answers the node's current membership map; ApplyMap
//     installs a strictly newer one and starts the handoff of every
//     account the new ring moves elsewhere;
//   - Handoff installs a moved account on its shard's engine worker
//     (only if this node owns the key and has no live account for it —
//     otherwise the state is dropped);
//     handoff *responses* arriving back just settle the sent/lost
//     counters.
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
#include <thread>
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
  /// kStats frames answer with the full snapshot (they pass through the
  /// tap like any admin frame — never redirected, never shed).
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
  /// The inner service::Server believes this is its transport: sends pass
  /// through to the real one; deliveries happen only when the cluster
  /// layer decides a frame is an owned data op (or an admin frame).
  class Tap final : public runtime::Transport {
   public:
    explicit Tap(runtime::Transport& inner) : inner_(&inner) {}
    NodeId self() const override { return inner_->self(); }
    void send(NodeId to, std::vector<std::byte> payload) override {
      inner_->send(to, std::move(payload));
    }
    void set_handler(Handler handler) override {
      std::unique_lock lock(mu_);
      handler_ = std::move(handler);
    }
    void deliver(NodeId from, std::vector<std::byte> payload) {
      std::shared_lock lock(mu_);
      if (handler_) handler_(from, std::move(payload));
    }

   private:
    runtime::Transport* inner_;
    std::shared_mutex mu_;
    Handler handler_;
  };

  void on_frame(NodeId from, std::vector<std::byte> payload);
  /// Ring placement under the current map; kNoNode on an empty ring.
  NodeId owner_of(service::NamespaceId ns, std::uint64_t key) const;
  void handle_handoff(NodeId from, const service::protocol::HandoffRequest& r,
                      const std::optional<service::protocol::TraceContext>&
                          trace);
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
  /// Peer-down reaction: the dead node's id-order successor promotes.
  void on_peer_down(NodeId peer);
  /// Drain hook: streams worker `w`'s shards' dirty deltas.
  void flush_worker_shards(std::size_t w);
  void register_metrics();

  /// Fills in ServerOptions::node with transport.self() when unset, so
  /// both layers stamp exported spans with this node's identity.
  static service::ServerOptions with_node(service::ServerOptions options,
                                          runtime::Transport& transport) {
    if (options.node == kNoNode) options.node = transport.self();
    return options;
  }

  service::AccountTable* table_;
  runtime::Transport* transport_;
  Tap tap_;
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

  /// A shard worker that sees a peer go down (its delta send failed)
  /// cannot quiesce its own engine, so it hands the promotion to a
  /// helper thread — at most one in flight per dead peer. Joined on
  /// destruction; declared last, after everything a promotion touches.
  std::mutex deferred_mu_;
  std::vector<NodeId> deferring_;  ///< peers with a helper still running
  std::vector<std::thread> deferred_;
};

}  // namespace toka::cluster
