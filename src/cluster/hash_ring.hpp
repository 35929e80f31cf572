// Consistent-hash ring mapping (namespace, key) pairs to cluster nodes.
//
// Each member contributes `vnodes` points on a 64-bit ring; a key is owned
// by the node of the first point at or after the key's hash (wrapping).
// Virtual nodes smooth the load split and make membership change minimal:
// removing a node only remaps the keys it owned, and adding one only pulls
// keys onto the newcomer — every other (namespace, key) keeps its owner,
// which is what keeps handoff traffic proportional to the churn instead of
// the keyspace.
//
// Key hashing reuses AccountTable's partitioning mix (fold_key followed by
// the splitmix64 finalizer), so the ring and the table agree on what a key
// is: two keys that collide into one table shard still spread over the
// ring, and — more importantly — the ring is deterministic across nodes
// and clients. Ownership follows the hash's top bits; the table's stores
// take their homes from other bits (AccountTable::store_hash), so a node's
// keys spread over its arrays. The ring is a pure function of a
// ClusterMap: equal maps route identically everywhere, with no further
// coordination.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "service/account_table.hpp"
#include "util/types.hpp"

namespace toka::cluster {

class HashRing {
 public:
  /// An empty ring owns nothing (owner() returns kNoNode).
  HashRing() = default;

  /// Builds the ring for `nodes` with `vnodes` points per node. Duplicate
  /// node ids are collapsed. Throws util::InvariantError if vnodes == 0
  /// with a non-empty node set.
  HashRing(std::span<const NodeId> nodes, std::uint32_t vnodes);

  /// The ring a membership map describes.
  explicit HashRing(const ClusterMap& map)
      : HashRing(std::span<const NodeId>(map.nodes), map.vnodes) {}

  bool empty() const { return points_.empty(); }
  std::size_t node_count() const { return node_count_; }
  std::size_t point_count() const { return points_.size(); }

  /// The node owning (ns, key), or kNoNode on an empty ring.
  NodeId owner(service::NamespaceId ns, std::uint64_t key) const {
    return owner_of_point(key_point(ns, key));
  }

  /// Ring-point lookup for a pre-computed hash (micro-benchmarks, tests).
  NodeId owner_of_point(std::uint64_t point) const;

  /// The key's replication group: the owner followed by up to `k` distinct
  /// successor nodes, walking the ring forward from the owner's point.
  /// Virtual-node points belonging to already-collected nodes are skipped,
  /// so the group never repeats a node and is capped at node_count().
  /// Empty ring -> empty vector. successors(ns, key, 0) == {owner}.
  std::vector<NodeId> successors(service::NamespaceId ns, std::uint64_t key,
                                 std::size_t k) const {
    return successors_of_point(key_point(ns, key), k);
  }

  /// Successor-group lookup for a pre-computed ring point (benchmarks).
  std::vector<NodeId> successors_of_point(std::uint64_t point,
                                          std::size_t k) const;

  /// Where (ns, key) lands on the ring: AccountTable's key mix, so the
  /// ring is splitmix64-compatible with the table's shard partitioning.
  static std::uint64_t key_point(service::NamespaceId ns, std::uint64_t key);

 private:
  /// (ring point, node), sorted by point then node — ties break the same
  /// way on every host.
  std::vector<std::pair<std::uint64_t, NodeId>> points_;
  std::size_t node_count_ = 0;
};

}  // namespace toka::cluster
