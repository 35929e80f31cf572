// Replicated ownership: per-key replication groups on the HashRing, so a
// crashed primary forfeits at most the replication lag instead of every
// banked balance it held.
//
// Roles are per key, not per node. For every (namespace, key) the ring
// owner is the *primary* — the only node that grants — and the key's next
// `replicas` distinct ring successors are its *followers*. The primary
// streams absolute per-account deltas (latest balance + a conservative
// install floor) to its followers in kReplicate frames, batched at drain
// boundaries: one frame per follower per table flush, never one per op.
// Followers apply the deltas to a passive replica store and ack the
// highest emission round received (kReplicaAck); the primary tracks the
// ack watermark per follower lane.
//
// Failover weakens the cluster's forfeit-everything crash rule to
// "duplicate never, forfeit at most the lag":
//
//   - never duplicate: a follower that is promoted installs the *floor* of
//     its latest replica, not the balance — and the primary's spend gate
//     (AccountTable's repl_gate) guarantees the primary never granted
//     below any floor still unacked. Whatever floor a promoted follower
//     installs, the dead primary's balance was at least that high, so the
//     install can only under-grant. The §3.4 audit stays clean through a
//     kill (the churn test asserts it).
//   - forfeit <= lag: what dies with the primary is the gap between its
//     true balance and the floor its followers hold — bounded by the
//     configured headroom plus whatever the stream had not yet delivered.
//
// Promotion is just membership change: the coordinator (the dead node's
// id-order successor, or any kPromote sender) builds the current map
// without the dead node — a strictly newer epoch — applies it locally and
// broadcasts ApplyMap. Replica installs ride the map application: any node
// adopting a map learns which sources fell out of membership and installs
// the replicas it now owns (ClusterServer calls on_map_applied inside
// apply_map), so explicit promotion, gossiped maps and operator-driven
// membership edits all converge on the same code path and are idempotent.
//
// Liveness trade-off, by design: grants above the gated headroom wait for
// follower acks, so a stuck follower back-pressures its primaries' bursts
// (steady-state traffic under the headroom is unaffected) until membership
// removes it. That is the conservative end of the paper's proactive /
// reactive spectrum — availability is spent where the budget bound would
// otherwise be at risk (see DESIGN.md, "Replicated ownership").
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "cluster/hash_ring.hpp"
#include "runtime/transport.hpp"
#include "service/account_store.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace toka::obs {
class Tracer;
}  // namespace toka::obs

namespace toka::cluster {

/// Outcome of installing replicas after a membership change.
struct ReplicaInstallResult {
  std::uint64_t installed = 0;  ///< replica accounts installed here
  Tokens forfeited = 0;         ///< tokens dropped conservatively doing so
};

/// One node's half of the delta-stream protocol: primary-side emission and
/// lag tracking, follower-side replica store and promotion install. Owned
/// by a ClusterServer; thread-safe (flushes are serialized, the store and
/// lane maps have their own locks).
class ReplicationEngine {
 public:
  /// `table` and `transport` must outlive the engine. `headroom` is how
  /// far above the advertised floor a primary may spend without waiting
  /// for an ack (0 = auto: half the namespace capacity); it is forwarded
  /// to AccountTable::enable_replication by the owning server.
  ReplicationEngine(service::AccountTable& table,
                    runtime::Transport& transport, ClusterMap map);

  ReplicationEngine(const ReplicationEngine&) = delete;
  ReplicationEngine& operator=(const ReplicationEngine&) = delete;

  /// Optional flight recorder: sampled flush rounds stamp one trace
  /// context onto every follower frame of the round and record a sender
  /// kReplicate span, so primary → follower delta legs stitch under one
  /// id (the owning ClusterServer wires its tracer here).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // ------------------------------------------------------- primary side

  /// Drains the dirty accounts of `shards` and streams one kReplicate
  /// frame per follower that got deltas, stamped with the next emission
  /// round. Deltas whose key this node no longer owns are skipped (a map
  /// transition already moved them). Serialized across callers; each
  /// caller must own the shards it drains (an engine worker flushes its
  /// own shards from the drain hook).
  void flush_shards(const std::vector<std::size_t>& shards);

  /// A follower acked its stream: advances the lane watermark that lets
  /// account spend gates collapse (and the lag gauge fall).
  void on_ack(NodeId from, const service::protocol::ReplicaAckRequest& ack);

  // ------------------------------------------------------ follower side

  /// Applies a primary's delta frame to the replica store (absolute
  /// deltas: last write per account wins) and acks the highest round
  /// received from that source. A frame whose header names kNoNode as
  /// its sender is dropped unacked and counted in replica_frames_dropped().
  void on_replicate(NodeId from,
                    const service::protocol::ReplicateRequest& r);

  /// Ran by ClusterServer inside every successful map adoption: installs
  /// (conservatively, at the floor) every replica whose source fell out of
  /// membership and whose key the new ring places here; drops replicas
  /// this node no longer follows; prunes lanes of departed followers; and
  /// adopts the new topology for subsequent flushes. Returns the install
  /// accounting (the caller owns the forfeit counter).
  ReplicaInstallResult on_map_applied(const ClusterMap& map,
                                      const HashRing& ring);

  // ----------------------------------------------------------- counters

  /// kReplicate frames sent (per follower, not per delta).
  std::uint64_t deltas_sent() const {
    return deltas_sent_.load(std::memory_order_relaxed);
  }
  /// Account deltas carried by those frames.
  std::uint64_t delta_accounts_sent() const {
    return delta_accounts_sent_.load(std::memory_order_relaxed);
  }
  /// kReplicaAck frames received back.
  std::uint64_t acks_received() const {
    return acks_received_.load(std::memory_order_relaxed);
  }
  /// kReplicate frames dropped because their sender id was kNoNode.
  std::uint64_t replica_frames_dropped() const {
    return replica_frames_dropped_.load(std::memory_order_relaxed);
  }
  /// Replica accounts currently held for other primaries.
  std::size_t replica_accounts() const;
  /// Cumulative replica accounts promoted into the table (all map
  /// adoptions combined).
  std::uint64_t replica_installs() const {
    return installs_.load(std::memory_order_relaxed);
  }
  /// Cumulative tokens the conservative installs dropped — the measured
  /// failover forfeit (bounded by headroom + stream lag per account).
  Tokens replica_install_forfeited() const {
    return install_forfeited_.load(std::memory_order_relaxed);
  }
  /// Worst-case stream lag right now: max over follower lanes of
  /// (last emitted round - acked round). 0 with no lanes or all caught up.
  std::uint64_t lag_rounds() const;

 private:
  /// Latest replicated state of one foreign account. The source is the
  /// primary that streamed it: only replicas of a *departed* source are
  /// ever installed, so a live primary's stream can never be double-
  /// counted against it. Balance and floor keep the wire's 64 bits.
  struct Replica {
    std::uint64_t key = 0;
    Tokens balance = 0;
    Tokens floor = 0;
    service::NamespaceId ns = service::kDefaultNamespace;
    /// The source's id plus one, so that the all-zero entry is empty.
    /// on_replicate drops frames whose sender id is kNoNode, which would
    /// wrap to 0.
    std::uint32_t source_plus_one = 0;

    NodeId source() const { return source_plus_one - 1; }
  };
  static_assert(sizeof(Replica) == 32);

  struct ReplicaTraits {
    static bool live(const Replica& r) { return r.source_plus_one != 0; }
    /// Salted away from the account hash: that hash is also the key's
    /// ring position, and a follower's replicas cover only the ring arcs
    /// it follows, which would crowd them into a few stretches of the
    /// store's home index.
    static std::uint64_t hash(service::NamespaceId ns, std::uint64_t key) {
      std::uint64_t state =
          service::AccountTable::fold_key(ns, key) ^ 0x5851F42D4C957F2DULL;
      return util::splitmix64(state);
    }
    static std::uint64_t hash(const Replica& r) { return hash(r.ns, r.key); }
  };
  /// Primary-side per-follower stream state. Lanes die only with
  /// membership (pruned in on_map_applied) — an unresponsive follower
  /// back-pressures bursts rather than being silently written off, which
  /// is what keeps the promoted-floor invariant airtight.
  struct Lane {
    std::uint64_t last_sent = 0;  ///< highest round emitted to this lane
    std::uint64_t acked = 0;      ///< highest round the follower acked
  };

  /// Min over lanes of the acked round (the watermark gates collapse on);
  /// with no lanes, the current round — nothing is in flight. Caller
  /// holds mu_.
  std::uint64_t min_acked_locked() const;

  service::AccountTable* table_;
  runtime::Transport* transport_;
  obs::Tracer* tracer_ = nullptr;

  /// Serializes flushes end-to-end, so emission rounds increase in frame
  /// send order on every lane (the property the ack watermark relies on).
  std::mutex flush_mu_;
  std::vector<service::ReplicaDeltaExport> scratch_;

  mutable std::mutex mu_;  ///< lanes, round counter, topology
  std::uint64_t round_ = 0;
  std::uint64_t next_frame_id_ = 1;
  std::map<NodeId, Lane> lanes_;
  ClusterMap map_;
  HashRing ring_;

  mutable std::mutex store_mu_;
  service::SlotStore<Replica, ReplicaTraits> store_;
  /// Highest round received per source (the value acked back).
  std::unordered_map<NodeId, std::uint64_t> source_rounds_;

  std::atomic<std::uint64_t> deltas_sent_{0};
  std::atomic<std::uint64_t> delta_accounts_sent_{0};
  std::atomic<std::uint64_t> acks_received_{0};
  std::atomic<std::uint64_t> replica_frames_dropped_{0};
  std::atomic<std::uint64_t> installs_{0};
  std::atomic<Tokens> install_forfeited_{0};
};

}  // namespace toka::cluster
