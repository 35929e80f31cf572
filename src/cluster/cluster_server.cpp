#include "cluster/cluster_server.hpp"

#include <optional>
#include <utility>
#include <variant>

#include "util/error.hpp"

namespace toka::cluster {

namespace proto = service::protocol;

ClusterServer::ClusterServer(service::AccountTable& table,
                             runtime::Transport& transport, ClusterMap map,
                             service::ServerOptions options)
    : table_(&table),
      transport_(&transport),
      server_(table, transport, options, false),
      tracer_(options.tracer),
      registry_(options.registry),
      engine_(options.engine),
      repl_headroom_(options.replication_headroom),
      map_(std::move(map)),
      ring_(map_) {
  repl_ = std::make_unique<ReplicationEngine>(table, transport, map_);
  repl_->set_tracer(tracer_);
  if (map_.replicas > 0) table_->enable_replication(repl_headroom_);
  // Deltas are captured at the workers' drain boundaries, each worker
  // flushing its own shards. Precompute each worker's shard set once.
  worker_shards_.resize(engine_->worker_count());
  for (std::size_t s = 0; s < table_->shard_count(); ++s)
    worker_shards_[s % engine_->worker_count()].push_back(s);
  engine_->set_drain_hook([this](std::size_t w) { flush_worker_shards(w); });
  if (registry_) register_metrics();
  transport_->set_peer_down_handler(
      [this](NodeId peer) { on_peer_down(peer); });
  transport_->set_handler([this](NodeId from, std::vector<std::byte> payload) {
    on_frame(from, std::move(payload));
  });
}

ClusterServer::~ClusterServer() {
  // Quiesce the transport first: once the handler is detached nothing
  // reaches the inner server either. Only then is it safe to pull the
  // cluster gauges out of the registry. The engine's
  // drain hook goes first of all — workers keep draining until the engine
  // itself stops, and the hook calls back into this object.
  engine_->set_drain_hook({});
  transport_->set_peer_down_handler({});
  transport_->set_handler({});
  // Then the handoff installs still queued: their completions reply
  // through this object.
  engine_->drain();
  if (registry_) {
    for (const std::string& name : metric_names_) registry_->remove(name);
  }
}

void ClusterServer::flush_worker_shards(std::size_t w) {
  repl_->flush_shards(worker_shards_[w]);
}

void ClusterServer::register_metrics() {
  const auto add = [&](const std::string& name) {
    metric_names_.push_back(name);
    return name;
  };
  registry_->gauge(add("tokad_ring_epoch"),
                   [this] { return static_cast<double>(map_epoch()); });
  registry_->counter_fn(add("tokad_redirects_sent"), [this] {
    return static_cast<double>(
        redirects_sent_.load(std::memory_order_relaxed));
  });
  registry_->counter_fn(add("tokad_maps_applied"), [this] {
    return static_cast<double>(maps_applied_.load(std::memory_order_relaxed));
  });
  registry_->counter_fn(add("tokad_handoffs_sent"), [this] {
    return static_cast<double>(handoffs_sent_.load(std::memory_order_relaxed));
  });
  registry_->counter_fn(add("tokad_handoffs_installed"), [this] {
    return static_cast<double>(
        handoffs_installed_.load(std::memory_order_relaxed));
  });
  registry_->counter_fn(add("tokad_tokens_forfeited"), [this] {
    return static_cast<double>(
        tokens_forfeited_.load(std::memory_order_relaxed));
  });
  registry_->counter_fn(add("tokad_replica_deltas"),
                        [this] { return static_cast<double>(
                                     repl_->deltas_sent()); });
  registry_->counter_fn(add("tokad_replica_acks"),
                        [this] { return static_cast<double>(
                                     repl_->acks_received()); });
  registry_->counter_fn(add("tokad_replica_frames_dropped"), [this] {
    return static_cast<double>(repl_->replica_frames_dropped());
  });
  registry_->counter_fn(add("tokad_replica_promotions"), [this] {
    return static_cast<double>(promotions_.load(std::memory_order_relaxed));
  });
  registry_->gauge(add("tokad_replication_lag"), [this] {
    return static_cast<double>(repl_->lag_rounds());
  });
}

ClusterMap ClusterServer::map() const {
  std::shared_lock lock(map_mu_);
  return map_;
}

std::uint64_t ClusterServer::map_epoch() const {
  std::shared_lock lock(map_mu_);
  return map_.epoch;
}

std::optional<proto::TraceContext> ClusterServer::mint_cluster_trace() {
  if (tracer_ == nullptr) return std::nullopt;
  // Cluster control events are rare and always worth a timeline: every
  // minted context is sampled.
  return proto::TraceContext{tracer_->next_trace_id(), true};
}

ApplyOutcome ClusterServer::apply_map(const ClusterMap& map) {
  return apply_map(map, mint_cluster_trace());
}

ApplyOutcome ClusterServer::apply_map(
    const ClusterMap& map, const std::optional<proto::TraceContext>& trace) {
  HashRing ring;
  {
    std::unique_lock lock(map_mu_);
    // Strictly newer only: a re-delivered or reordered map can never roll
    // membership back, so concurrent applies settle on the max epoch.
    if (map.epoch <= map_.epoch) return {false, map_.epoch, 0};
    map_ = map;
    ring_ = HashRing(map_);
    ring = ring_;
  }
  maps_applied_.fetch_add(1, std::memory_order_relaxed);

  // The new ring is already answering (requests for moved keys redirect
  // from here on), so extraction can only see post-install grants: a moved
  // account's balance leaves exactly once. If any of these frames is lost
  // the tokens are forfeited — never resurrected here.
  const NodeId self_id = self();
  const std::vector<service::AccountExport> moved = engine_->quiesced([&] {
    return table_->extract_if([&](service::NamespaceId ns, std::uint64_t key) {
      return ring.owner(ns, key) != self_id;
    });
  });
  std::uint64_t sent = 0;
  const std::int64_t t_handoff =
      tracer_ != nullptr && trace ? obs::Tracer::now_us() : 0;
  for (const service::AccountExport& account : moved) {
    const NodeId target = ring.owner(account.ns, account.key);
    if (target == kNoNode || target == self_id) {
      // Unroutable (empty ring): the extracted balance just died with
      // nowhere to go. Count it — this is a forfeit site.
      tokens_forfeited_.fetch_add(account.balance, std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t id =
        next_handoff_id_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::byte> frame = proto::encode(proto::HandoffRequest{
        id, map.epoch, account.ns, account.key, account.balance});
    // Every handoff of this adoption carries the adoption's trace context:
    // the receivers' install spans stitch to this node's sweep span under
    // one id, across however many nodes the ring scattered the keys to.
    if (trace) proto::attach_trace_context(frame, *trace);
    transport_->send(target, std::move(frame));
    ++sent;
  }
  handoffs_sent_.fetch_add(sent, std::memory_order_relaxed);
  if (tracer_ != nullptr && trace && sent > 0) {
    // One sender-side span for the whole extraction sweep (key = how many
    // accounts left; per-account legs are the receivers' spans).
    tracer_->record(obs::Stage::kHandoff, obs::Decision::kNone,
                    trace->trace_id, sent, service::kDefaultNamespace,
                    t_handoff, obs::Tracer::now_us() - t_handoff,
                    /*sampled=*/true);
  }

  ApplyOutcome outcome{true, map.epoch, sent};
  // Replica installs ride every map adoption: sources that fell out of
  // membership get their surviving state promoted (conservatively, at the
  // floor) wherever the new ring says it now lives. Running after the
  // extraction sweep keeps the two key sets disjoint — installs target
  // keys this node owns under the *new* ring, extraction removed the rest.
  if (map.replicas > 0 && !table_->replication_enabled())
    table_->enable_replication(repl_headroom_);
  const ReplicaInstallResult installs =
      engine_->quiesced([&] { return repl_->on_map_applied(map, ring); });
  outcome.replica_installed = installs.installed;
  outcome.replica_forfeited = installs.forfeited;
  if (installs.forfeited > 0)
    tokens_forfeited_.fetch_add(installs.forfeited, std::memory_order_relaxed);
  return outcome;
}

PromoteOutcome ClusterServer::promote(NodeId failed,
                                      std::uint64_t expected_epoch) {
  return promote(failed, expected_epoch, mint_cluster_trace());
}

PromoteOutcome ClusterServer::promote(
    NodeId failed, std::uint64_t expected_epoch,
    const std::optional<proto::TraceContext>& trace) {
  PromoteOutcome out;
  const std::int64_t t0 =
      tracer_ != nullptr && trace ? obs::Tracer::now_us() : 0;
  const ClusterMap cur = map();
  out.epoch = cur.epoch;
  if (failed == self() || !cur.contains(failed)) return out;
  if (expected_epoch != 0 && expected_epoch != cur.epoch) return out;
  const ClusterMap next = cur.without_node(failed);
  const ApplyOutcome applied = apply_map(next, trace);
  out.epoch = applied.epoch;
  if (!applied.accepted) return out;  // lost to a newer map — fine, done
  out.accepted = true;
  out.installed = applied.replica_installed;
  out.forfeited = applied.replica_forfeited;
  promotions_.fetch_add(1, std::memory_order_relaxed);
  // Broadcast the verdict: each survivor adopts the same strictly-newer
  // map and installs its own replicas of the dead node. Re-deliveries are
  // harmless (strictly-newer rule) and stale clients learn by redirect.
  // The broadcast carries the promotion's trace context, so the survivors'
  // adoption spans land under the coordinator's trace id.
  for (const NodeId node : next.nodes) {
    if (node == self()) continue;
    const std::uint64_t id =
        next_handoff_id_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::byte> frame =
        proto::encode(proto::ApplyMapRequest{id, next});
    if (trace) proto::attach_trace_context(frame, *trace);
    transport_->send(node, std::move(frame));
  }
  if (tracer_ != nullptr && trace) {
    // Coordinator-side promotion span; `key` holds the dead node's id.
    tracer_->record(obs::Stage::kPromote, obs::Decision::kNone,
                    trace->trace_id, failed, service::kDefaultNamespace, t0,
                    obs::Tracer::now_us() - t0, /*sampled=*/true);
  }
  return out;
}

void ClusterServer::on_peer_down(NodeId peer) {
  const ClusterMap cur = map();
  if (cur.replicas == 0 || peer == self() || !cur.contains(peer)) return;
  // Exactly one survivor coordinates the epoch bump: the dead node's
  // id-order successor (wrapping past the top), so simultaneous peer-down
  // observations on every survivor don't race competing promotions. The
  // member list is sorted.
  NodeId coordinator = kNoNode;
  for (const NodeId node : cur.nodes) {
    if (node > peer) {
      coordinator = node;
      break;
    }
  }
  if (coordinator == kNoNode) {
    for (const NodeId node : cur.nodes) {
      if (node != peer) {
        coordinator = node;
        break;
      }
    }
  }
  if (coordinator == self()) promote(peer, cur.epoch);
}

void ClusterServer::complete_handoff(service::ShardOp& op, void* ctx) {
  const std::unique_ptr<PendingHandoff> p(static_cast<PendingHandoff*>(ctx));
  ClusterServer& server = *p->server;
  const bool accepted = op.ok && op.out_a != 0;
  if (accepted) {
    server.handoffs_installed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Refused install: the sender already extracted, so this balance just
    // ceased to exist anywhere. The receiver counts it — it is the one
    // node that knows the refusal happened.
    server.tokens_forfeited_.fetch_add(op.tokens, std::memory_order_relaxed);
  }
  if (server.tracer_ != nullptr && p->trace) {
    // Receiver leg of the handoff, under the sender's trace id: kError
    // marks a refused install (a forfeit the timeline should show).
    server.tracer_->record(
        obs::Stage::kHandoff,
        accepted ? obs::Decision::kNone : obs::Decision::kError,
        p->trace->trace_id, op.key, op.ns, p->t0_us,
        obs::Tracer::now_us() - p->t0_us, /*sampled=*/true);
  }
  server.transport_->send(
      p->from, proto::encode(proto::HandoffResponse{p->id, accepted}));
}

void ClusterServer::on_frame(NodeId from, std::vector<std::byte> payload) {
  const std::optional<proto::FrameHeader> head =
      proto::try_parse_header(payload);
  if (head.has_value() && head->is_response) {
    // Handoff acks flow back to this handler too (the node is the client of
    // its own handoffs); settle the counters and drop other stray
    // responses (ApplyMap acks from a promotion broadcast, say).
    if (head->type != proto::MsgType::kHandoff) return;
    bool accepted = false;
    try {
      const proto::Response response = proto::decode_response(payload);
      const auto* ack = std::get_if<proto::HandoffResponse>(&response);
      accepted = ack != nullptr && ack->accepted;
    } catch (const util::IoError&) {
    }
    (accepted ? handoffs_accepted_ : handoffs_rejected_)
        .fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (head.has_value() && proto::is_data_op(head->type)) {
    // Data ops — the hot path — are ownership-checked by streaming the
    // frame's routing keys against one map snapshot, before admission and
    // with no decode and no allocation; a batch with any foreign key
    // redirects whole (the client re-splits under the map it refreshes
    // anyway).
    const NodeId self_id = self();
    NodeId foreign_owner = self_id;  // the owner of the last key walked
    service::NamespaceId foreign_ns = service::kDefaultNamespace;
    std::uint64_t foreign_key = 0;
    std::uint64_t epoch = 0;
    bool walked;
    {
      std::shared_lock lock(map_mu_);
      epoch = map_.epoch;
      walked = proto::for_each_data_op_key(
          *head, payload, [&](service::NamespaceId ns, std::uint64_t key) {
            foreign_owner = ring_.owner(ns, key);
            foreign_ns = ns;
            foreign_key = key;
            return foreign_owner == self_id;
          });
    }
    if (walked && foreign_owner != self_id) {
      redirects_sent_.fetch_add(1, std::memory_order_relaxed);
      if (tracer_ != nullptr && head->traced) {
        // The redirect leg of a traced request: the span ties this node's
        // refusal to the same trace id the owning node's spans carry after
        // the client retries. Redirects are rare, so record every one.
        tracer_->record(obs::Stage::kRedirect, obs::Decision::kNone,
                        head->trace_id, foreign_key, foreign_ns,
                        obs::Tracer::now_us(), 0, /*sampled=*/true);
      }
      transport_->send(from, proto::encode(proto::RedirectResponse{
                                 head->id, epoch, foreign_owner}));
      return;
    }
  } else if (head.has_value()) {
    // Every other request is decoded once, here.
    proto::Request request;
    try {
      request = proto::decode_request(*head, payload);
    } catch (const util::IoError&) {
      // Undecodable: the table server answers it kMalformedBody.
      server_.on_frame(from, head, payload);
      return;
    }
    on_request(from, *head, request);
    return;
  }

  // Owned data ops (or ones too malformed to route) and garbage: the table
  // server classifies, admits, answers and counts them, reading the header
  // parsed above.
  server_.on_frame(from, head, payload);
}

void ClusterServer::on_request(NodeId from, const proto::FrameHeader& head,
                               const proto::Request& request) {
  const std::optional<proto::TraceContext> trace = head.trace();
  const std::int64_t t0 =
      tracer_ != nullptr && trace ? obs::Tracer::now_us() : 0;
  if (const auto* r = std::get_if<proto::HandoffRequest>(&request)) {
    handoffs_received_.fetch_add(1, std::memory_order_relaxed);
    // Install only what the current ring places here; anything else is
    // dropped (the sender already forfeited it). The install runs on the
    // key's shard worker like a data op, so a join's stream of handoffs
    // never parks the engine; install_account refuses duplicates and
    // unknown namespaces on its own.
    service::ShardOp op;
    op.kind = service::ShardOp::Kind::kInstall;
    op.ns = r->ns;
    op.key = r->key;
    op.tokens = r->balance;
    op.done = &ClusterServer::complete_handoff;
    op.ctx = new PendingHandoff{this, from, r->id, trace, t0};
    std::shared_lock lock(map_mu_);
    const bool owned = ring_.owner(r->ns, r->key) == self();
    lock.unlock();
    if (owned) {
      engine_->submit(op);  // waits for queue room: a handoff is never shed
    } else {
      complete_handoff(op, op.ctx);  // out_a = 0: refused
    }
  } else if (const auto* r = std::get_if<proto::ClusterMapRequest>(&request)) {
    transport_->send(from,
                     proto::encode(proto::ClusterMapResponse{r->id, map()}));
  } else if (const auto* r = std::get_if<proto::ApplyMapRequest>(&request)) {
    // A traced broadcast (the promotion path) keeps the coordinator's
    // trace id end to end; an untraced one gets its own adoption trace so
    // its handoffs still stitch.
    const ApplyOutcome outcome =
        apply_map(r->map, trace ? trace : mint_cluster_trace());
    if (tracer_ != nullptr && trace) {
      // Survivor leg of a promotion: this node's adoption under the
      // coordinator's id (duplicate deliveries record as kError refusals).
      tracer_->record(obs::Stage::kPromote,
                      outcome.accepted ? obs::Decision::kNone
                                       : obs::Decision::kError,
                      trace->trace_id, 0, service::kDefaultNamespace, t0,
                      obs::Tracer::now_us() - t0, /*sampled=*/true);
    }
    transport_->send(from, proto::encode(proto::ApplyMapResponse{
                               r->id, outcome.accepted, outcome.epoch,
                               outcome.handoffs}));
  } else if (const auto* r = std::get_if<proto::ReplicateRequest>(&request)) {
    repl_->on_replicate(from, *r);
    if (tracer_ != nullptr && trace) {
      // Follower leg of a sampled delta flush (`key` = deltas applied).
      tracer_->record(obs::Stage::kReplicate, obs::Decision::kNone,
                      trace->trace_id, r->deltas.size(),
                      service::kDefaultNamespace, t0,
                      obs::Tracer::now_us() - t0, /*sampled=*/true);
    }
  } else if (const auto* r = std::get_if<proto::ReplicaAckRequest>(&request)) {
    repl_->on_ack(from, *r);
  } else if (const auto* r = std::get_if<proto::PromoteRequest>(&request)) {
    const PromoteOutcome out =
        promote(r->failed, r->epoch, trace ? trace : mint_cluster_trace());
    transport_->send(from, proto::encode(proto::PromoteResponse{
                               r->id, out.accepted, out.epoch, out.installed,
                               out.forfeited}));
  } else {
    // Admin ops (configure/info), stats and traces address this node, not
    // a key.
    server_.reply(from, server_.answer(request));
  }
}

}  // namespace toka::cluster
