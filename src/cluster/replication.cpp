#include "cluster/replication.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace toka::cluster {

namespace proto = service::protocol;

ReplicationEngine::ReplicationEngine(service::AccountTable& table,
                                     runtime::Transport& transport,
                                     ClusterMap map)
    : table_(&table),
      transport_(&transport),
      map_(std::move(map)),
      ring_(map_) {}

std::uint64_t ReplicationEngine::min_acked_locked() const {
  if (lanes_.empty()) return round_;  // nothing in flight
  std::uint64_t acked = UINT64_MAX;
  for (const auto& [node, lane] : lanes_) acked = std::min(acked, lane.acked);
  return acked;
}

void ReplicationEngine::flush_shards(const std::vector<std::size_t>& shards) {
  std::lock_guard flush_lock(flush_mu_);

  std::uint64_t seq;
  std::uint64_t acked;
  std::uint32_t k;
  NodeId self;
  HashRing ring;
  std::uint64_t epoch;
  {
    std::lock_guard lock(mu_);
    k = map_.replicas;
    if (k == 0 || ring_.node_count() <= 1) return;
    seq = round_ + 1;
    acked = min_acked_locked();
    ring = ring_;  // routing snapshot; cheap relative to a frame send
    epoch = map_.epoch;
    self = transport_->self();
  }

  scratch_.clear();
  for (const std::size_t s : shards)
    table_->drain_replica_dirty(s, seq, acked, scratch_);
  if (scratch_.empty()) return;

  // Split the batch per follower: every delta goes to each of its key's
  // successors. Deltas whose key this node no longer owns were captured
  // across a map transition — the new primary streams them, skip.
  std::map<NodeId, std::vector<proto::ReplicaDelta>> per_target;
  for (const service::ReplicaDeltaExport& d : scratch_) {
    const std::vector<NodeId> group = ring.successors(d.ns, d.key, k);
    if (group.empty() || group.front() != self) continue;
    for (std::size_t i = 1; i < group.size(); ++i) {
      per_target[group[i]].push_back(
          proto::ReplicaDelta{d.ns, d.key, d.balance, d.floor});
    }
  }
  if (per_target.empty()) return;

  {
    std::lock_guard lock(mu_);
    round_ = std::max(round_, seq);
    for (const auto& [node, deltas] : per_target) {
      Lane& lane = lanes_[node];
      lane.last_sent = std::max(lane.last_sent, seq);
    }
  }
  // Replicate frames are the cluster's background hum — far too many to
  // trace each — so flush rounds join the tracer's 1-in-N sampled set.
  // A sampled round mints one context shared by every follower frame it
  // fans out; the followers' receive spans stitch to the sender span
  // below under that id.
  std::optional<proto::TraceContext> trace;
  if (tracer_ != nullptr && tracer_->sample_next())
    trace = proto::TraceContext{tracer_->next_trace_id(), true};
  const std::int64_t t_send = trace ? obs::Tracer::now_us() : 0;
  std::uint64_t traced_accounts = 0;
  for (auto& [node, deltas] : per_target) {
    delta_accounts_sent_.fetch_add(deltas.size(), std::memory_order_relaxed);
    if (trace) traced_accounts += deltas.size();
    // Chunk under the frame limit (a drain batch larger than 64k accounts
    // for one follower is theoretical, but the codec enforces the cap).
    std::size_t off = 0;
    while (off < deltas.size()) {
      const std::size_t n =
          std::min(deltas.size() - off, proto::kMaxReplicaDeltas);
      proto::ReplicateRequest frame;
      frame.id = next_frame_id_++;
      frame.epoch = epoch;
      frame.seq = seq;
      frame.deltas.assign(deltas.begin() + static_cast<std::ptrdiff_t>(off),
                          deltas.begin() + static_cast<std::ptrdiff_t>(off + n));
      std::vector<std::byte> wire = proto::encode(frame);
      if (trace) proto::attach_trace_context(wire, *trace);
      transport_->send(node, std::move(wire));
      deltas_sent_.fetch_add(1, std::memory_order_relaxed);
      off += n;
    }
  }
  if (trace) {
    // Sender span for the sampled round (`key` = account deltas emitted).
    tracer_->record(obs::Stage::kReplicate, obs::Decision::kNone,
                    trace->trace_id, traced_accounts,
                    service::kDefaultNamespace, t_send,
                    obs::Tracer::now_us() - t_send, /*sampled=*/true);
  }
}

void ReplicationEngine::on_ack(NodeId from,
                               const proto::ReplicaAckRequest& ack) {
  acks_received_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(mu_);
  auto it = lanes_.find(from);
  if (it == lanes_.end()) return;  // departed (or never a) follower
  it->second.acked = std::max(it->second.acked, ack.seq);
}

void ReplicationEngine::on_replicate(NodeId from,
                                     const proto::ReplicateRequest& r) {
  // The sender id is the frame header's, written by whoever holds the
  // connection. kNoNode would wrap the stored source_plus_one to 0 and
  // leave an empty entry in the store, so such a frame is malformed input:
  // drop it unacked, like any other frame no node could have sent.
  if (from == kNoNode) {
    replica_frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint64_t ack_seq;
  {
    std::lock_guard lock(store_mu_);
    for (const proto::ReplicaDelta& d : r.deltas) {
      // Absolute deltas, ordered per-pair transport: last write wins.
      const Replica latest{d.key, d.balance, d.floor, d.ns, from + 1};
      const std::uint64_t hash = ReplicaTraits::hash(d.ns, d.key);
      Replica* held = store_.find(hash, [&](const Replica& e) {
        return e.key == d.key && e.ns == d.ns;
      });
      if (held != nullptr) {
        *held = latest;
      } else {
        store_.insert(hash, latest);
      }
    }
    std::uint64_t& high = source_rounds_[from];
    high = std::max(high, r.seq);
    ack_seq = high;
  }
  transport_->send(from,
                   proto::encode(proto::ReplicaAckRequest{r.id, ack_seq}));
}

ReplicaInstallResult ReplicationEngine::on_map_applied(const ClusterMap& map,
                                                       const HashRing& ring) {
  ReplicaInstallResult result;
  const NodeId self = transport_->self();
  {
    std::lock_guard lock(store_mu_);
    store_.erase_if([&](const Replica& r) {
      if (!map.contains(r.source())) {
        // The primary fell out of membership. If the new ring puts the key
        // here, this node is its promoted owner: install at the floor —
        // the dead primary never granted below it, so this can only
        // under-grant. The balance-floor gap (or the whole balance, if a
        // live account or missing namespace refuses the install) is the
        // failover's forfeit.
        if (!ring.empty() && ring.owner(r.ns, r.key) == self) {
          if (table_->install_account(r.ns, r.key, r.floor)) {
            ++result.installed;
            result.forfeited += r.balance - r.floor;
          } else {
            result.forfeited += r.balance;
          }
        }
        // Not the new owner: drop silently — the owning successor counts
        // the forfeit (or installs), counting it here too would double it.
        return true;
      }
      // Source still alive: keep only what this node still follows under
      // the new topology (dropping a redundant copy forfeits nothing —
      // the primary holds the live balance).
      if (map.replicas == 0) return true;
      const std::vector<NodeId> group =
          ring.successors(r.ns, r.key, map.replicas);
      const bool follows =
          !group.empty() && group.front() == r.source() &&
          std::find(group.begin() + 1, group.end(), self) != group.end();
      return !follows;
    });
    // Sources that left can never stream again; forget their rounds.
    for (auto it = source_rounds_.begin(); it != source_rounds_.end();) {
      if (map.contains(it->first)) {
        ++it;
      } else {
        it = source_rounds_.erase(it);
      }
    }
  }
  {
    std::lock_guard lock(mu_);
    map_ = map;
    ring_ = ring;
    // Departed followers release their lanes — and with them any unacked
    // rounds holding the gate watermark down.
    for (auto it = lanes_.begin(); it != lanes_.end();) {
      if (map.contains(it->first) && it->first != self) {
        ++it;
      } else {
        it = lanes_.erase(it);
      }
    }
  }
  installs_.fetch_add(result.installed, std::memory_order_relaxed);
  install_forfeited_.fetch_add(result.forfeited, std::memory_order_relaxed);
  return result;
}

std::size_t ReplicationEngine::replica_accounts() const {
  std::lock_guard lock(store_mu_);
  return store_.size();
}

std::uint64_t ReplicationEngine::lag_rounds() const {
  std::lock_guard lock(mu_);
  std::uint64_t lag = 0;
  for (const auto& [node, lane] : lanes_) {
    if (lane.last_sent > lane.acked) {
      lag = std::max(lag, lane.last_sent - lane.acked);
    }
  }
  return lag;
}

}  // namespace toka::cluster
