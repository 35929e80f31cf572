#include "service/protocol.hpp"

#include <string>

#include "util/error.hpp"
#include "util/serde.hpp"

namespace toka::service::protocol {

namespace {

/// Is `type` a defined message type? (Response-ness is checked
/// separately: kError exists only with the response bit.)
bool known_type(MsgType type, bool is_response) {
  switch (type) {
    case MsgType::kAcquire:
    case MsgType::kRefund:
    case MsgType::kQuery:
    case MsgType::kBatchAcquire:
    case MsgType::kConfigureNamespace:
    case MsgType::kNamespaceInfo:
    case MsgType::kClusterMap:
    case MsgType::kApplyMap:
    case MsgType::kHandoff:
    case MsgType::kStats:
    case MsgType::kTraces:
    case MsgType::kPromote:
      return true;
    case MsgType::kReplicate:
    case MsgType::kReplicaAck:
      // One-way stream frames: acked by kReplicaAck requests, so a frame
      // with the response bit set is malformed.
      return !is_response;
    case MsgType::kRedirect:
    case MsgType::kError:
      return is_response;
  }
  return false;
}

util::BinaryWriter header(MsgType type, bool response, std::uint64_t id) {
  util::BinaryWriter w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type) | (response ? kResponseBit : 0));
  w.u64(id);
  return w;
}

Tokens read_tokens(util::BinaryReader& r) {
  const Tokens n = r.i64();
  if (n < 0) throw util::IoError("tokend frame: negative token count");
  return n;
}

std::uint32_t read_batch_count(util::BinaryReader& r) {
  const std::uint32_t count = r.u32();
  if (count > kMaxBatchOps)
    throw util::IoError("tokend frame: batch of " + std::to_string(count) +
                        " ops exceeds the limit");
  return count;
}

bool read_bool(util::BinaryReader& r) {
  const std::uint8_t b = r.u8();
  if (b > 1) throw util::IoError("tokend frame: boolean byte out of range");
  return b != 0;
}

/// Consumes the common header and returns the raw type byte.
std::uint8_t read_header(util::BinaryReader& r) {
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion)
    throw util::IoError("tokend frame: unsupported protocol version " +
                        std::to_string(version));
  return r.u8();
}

void expect_done(const util::BinaryReader& r) {
  if (!r.done())
    throw util::IoError("tokend frame: " + std::to_string(r.remaining()) +
                        " trailing bytes");
}

void write_namespace_config(util::BinaryWriter& w, const NamespaceConfig& c) {
  w.u8(static_cast<std::uint8_t>(c.strategy.kind));
  w.i64(c.strategy.a_param);
  w.i64(c.strategy.c_param);
  w.i64(c.strategy.reactive_k);
  w.u8(c.strategy.reactive_useful_only ? 1 : 0);
  w.i64(c.delta_us);
  w.i64(c.initial_tokens);
  w.i64(c.idle_ttl_us);
  w.i64(c.max_catchup_ticks);
  w.u8(c.audit ? 1 : 0);
}

void write_cluster_map(util::BinaryWriter& w, const cluster::ClusterMap& m) {
  TOKA_CHECK_MSG(m.nodes.size() <= cluster::kMaxClusterNodes,
                 "cluster map with " << m.nodes.size()
                                     << " nodes exceeds the limit of "
                                     << cluster::kMaxClusterNodes);
  w.u64(m.epoch);
  w.u32(m.vnodes);
  w.u32(static_cast<std::uint32_t>(m.nodes.size()));
  for (const NodeId node : m.nodes) w.u32(node);
  w.u32(m.replicas);
}

cluster::ClusterMap read_cluster_map(util::BinaryReader& r) {
  cluster::ClusterMap m;
  m.epoch = r.u64();
  m.vnodes = r.u32();
  const std::uint32_t count = r.u32();
  if (count > cluster::kMaxClusterNodes)
    throw util::IoError("tokend frame: cluster map of " +
                        std::to_string(count) + " nodes exceeds the limit");
  if (count > 0 && m.vnodes == 0)
    throw util::IoError("tokend frame: cluster map with zero vnodes");
  m.nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const NodeId node = r.u32();
    // Canonical form is strictly increasing: a sorted, duplicate-free
    // member list means equal maps are byte-identical on the wire.
    if (!m.nodes.empty() && node <= m.nodes.back())
      throw util::IoError("tokend frame: cluster map nodes out of order");
    m.nodes.push_back(node);
  }
  m.replicas = r.u32();
  if (m.replicas > cluster::kMaxClusterNodes)
    throw util::IoError("tokend frame: replication factor " +
                        std::to_string(m.replicas) + " exceeds the limit");
  return m;
}

NamespaceConfig read_namespace_config(util::BinaryReader& r) {
  NamespaceConfig c;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(core::StrategyKind::kTokenBucket))
    throw util::IoError("tokend frame: unknown strategy kind " +
                        std::to_string(kind));
  c.strategy.kind = static_cast<core::StrategyKind>(kind);
  c.strategy.a_param = r.i64();
  c.strategy.c_param = r.i64();
  c.strategy.reactive_k = r.i64();
  c.strategy.reactive_useful_only = read_bool(r);
  c.delta_us = r.i64();
  c.initial_tokens = r.i64();
  c.idle_ttl_us = r.i64();
  c.max_catchup_ticks = r.i64();
  c.audit = read_bool(r);
  return c;
}

}  // namespace

// ---------------------------------------------------------------- encode

std::vector<std::byte> encode(const AcquireRequest& m) {
  util::BinaryWriter w = header(MsgType::kAcquire, false, m.id);
  w.u32(m.ns);
  w.u64(m.key);
  w.i64(m.tokens);
  return w.take();
}

std::vector<std::byte> encode(const AcquireResponse& m) {
  util::BinaryWriter w = header(MsgType::kAcquire, true, m.id);
  w.i64(m.granted);
  w.i64(m.balance);
  return w.take();
}

std::vector<std::byte> encode(const RefundRequest& m) {
  util::BinaryWriter w = header(MsgType::kRefund, false, m.id);
  w.u32(m.ns);
  w.u64(m.key);
  w.i64(m.tokens);
  return w.take();
}

std::vector<std::byte> encode(const RefundResponse& m) {
  util::BinaryWriter w = header(MsgType::kRefund, true, m.id);
  w.i64(m.accepted);
  w.i64(m.balance);
  return w.take();
}

std::vector<std::byte> encode(const QueryRequest& m) {
  util::BinaryWriter w = header(MsgType::kQuery, false, m.id);
  w.u32(m.ns);
  w.u64(m.key);
  return w.take();
}

std::vector<std::byte> encode(const QueryResponse& m) {
  util::BinaryWriter w = header(MsgType::kQuery, true, m.id);
  w.i64(m.balance);
  w.u8(m.exists ? 1 : 0);
  return w.take();
}

std::vector<std::byte> encode(const BatchAcquireRequest& m) {
  // Fail fast on the sender: a frame above the batch limit would only be
  // dropped as malformed by the receiver, surfacing as a timeout.
  TOKA_CHECK_MSG(m.ops.size() <= kMaxBatchOps,
                 "batch of " << m.ops.size() << " ops exceeds the limit of "
                             << kMaxBatchOps);
  util::BinaryWriter w = header(MsgType::kBatchAcquire, false, m.id);
  w.u32(m.ns);
  w.u32(static_cast<std::uint32_t>(m.ops.size()));
  for (const AcquireOp& op : m.ops) {
    w.u64(op.key);
    w.i64(op.tokens);
  }
  return w.take();
}

std::vector<std::byte> encode(const BatchAcquireResponse& m) {
  TOKA_CHECK_MSG(m.results.size() <= kMaxBatchOps,
                 "batch of " << m.results.size()
                             << " results exceeds the limit of "
                             << kMaxBatchOps);
  util::BinaryWriter w = header(MsgType::kBatchAcquire, true, m.id);
  w.u32(static_cast<std::uint32_t>(m.results.size()));
  for (const AcquireResult& res : m.results) {
    w.i64(res.granted);
    w.i64(res.balance);
  }
  return w.take();
}

std::vector<std::byte> encode(const ConfigureNamespaceRequest& m) {
  util::BinaryWriter w =
      header(MsgType::kConfigureNamespace, false, m.id);
  w.u32(m.ns);
  write_namespace_config(w, m.config);
  return w.take();
}

std::vector<std::byte> encode(const ConfigureNamespaceResponse& m) {
  util::BinaryWriter w =
      header(MsgType::kConfigureNamespace, true, m.id);
  w.u8(m.created ? 1 : 0);
  w.i64(m.capacity);
  return w.take();
}

std::vector<std::byte> encode(const NamespaceInfoRequest& m) {
  util::BinaryWriter w = header(MsgType::kNamespaceInfo, false, m.id);
  w.u32(m.ns);
  return w.take();
}

std::vector<std::byte> encode(const NamespaceInfoResponse& m) {
  util::BinaryWriter w = header(MsgType::kNamespaceInfo, true, m.id);
  w.u8(m.exists ? 1 : 0);
  if (m.exists) {
    write_namespace_config(w, m.config);
    w.i64(m.capacity);
    w.u64(m.accounts);
  }
  return w.take();
}

std::vector<std::byte> encode(const ErrorResponse& m) {
  util::BinaryWriter w = header(MsgType::kError, true, m.id);
  w.u8(static_cast<std::uint8_t>(m.code));
  // Only overload errors carry the retry hint; the other codes keep their
  // pre-existing byte-identical layout.
  if (m.code == ErrorCode::kOverloaded) w.i64(m.retry_after_us);
  return w.take();
}

std::vector<std::byte> encode(const ClusterMapRequest& m) {
  return header(MsgType::kClusterMap, false, m.id).take();
}

std::vector<std::byte> encode(const ClusterMapResponse& m) {
  util::BinaryWriter w = header(MsgType::kClusterMap, true, m.id);
  write_cluster_map(w, m.map);
  return w.take();
}

std::vector<std::byte> encode(const ApplyMapRequest& m) {
  util::BinaryWriter w = header(MsgType::kApplyMap, false, m.id);
  write_cluster_map(w, m.map);
  return w.take();
}

std::vector<std::byte> encode(const ApplyMapResponse& m) {
  util::BinaryWriter w = header(MsgType::kApplyMap, true, m.id);
  w.u8(m.accepted ? 1 : 0);
  w.u64(m.epoch);
  w.u64(m.handoffs);
  return w.take();
}

std::vector<std::byte> encode(const HandoffRequest& m) {
  util::BinaryWriter w = header(MsgType::kHandoff, false, m.id);
  w.u64(m.epoch);
  w.u32(m.ns);
  w.u64(m.key);
  w.i64(m.balance);
  return w.take();
}

std::vector<std::byte> encode(const HandoffResponse& m) {
  util::BinaryWriter w = header(MsgType::kHandoff, true, m.id);
  w.u8(m.accepted ? 1 : 0);
  return w.take();
}

std::vector<std::byte> encode(const StatsRequest& m) {
  return header(MsgType::kStats, false, m.id).take();
}

std::vector<std::byte> encode(const StatsResponse& m) {
  TOKA_CHECK_MSG(m.entries.size() <= kMaxStatsEntries,
                 "stats snapshot of " << m.entries.size()
                                      << " entries exceeds the limit of "
                                      << kMaxStatsEntries);
  util::BinaryWriter w = header(MsgType::kStats, true, m.id);
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const StatsEntry& e : m.entries) {
    TOKA_CHECK_MSG(e.name.size() <= kMaxStatsNameLen,
                   "stats entry name of " << e.name.size()
                                          << " bytes exceeds the limit");
    w.str(e.name);
    w.u8(e.kind);
    w.f64(e.value);
    if (e.kind == 2) {
      w.f64(e.p50);
      w.f64(e.p90);
      w.f64(e.p99);
      w.f64(e.max);
      w.f64(e.sum);
      TOKA_CHECK_MSG(e.buckets.size() <= kMaxStatsBuckets,
                     "stats entry with " << e.buckets.size()
                                         << " buckets exceeds the limit");
      w.u32(static_cast<std::uint32_t>(e.buckets.size()));
      for (const StatsBucket& b : e.buckets) {
        w.u32(b.index);
        w.u64(b.count);
      }
    }
  }
  return w.take();
}

std::vector<std::byte> encode(const TracesRequest& m) {
  util::BinaryWriter w = header(MsgType::kTraces, false, m.id);
  w.u32(m.max_spans);
  return w.take();
}

std::vector<std::byte> encode(const TracesResponse& m) {
  TOKA_CHECK_MSG(m.spans.size() <= kMaxTraceSpans,
                 "trace snapshot of " << m.spans.size()
                                      << " spans exceeds the limit of "
                                      << kMaxTraceSpans);
  util::BinaryWriter w = header(MsgType::kTraces, true, m.id);
  w.u32(static_cast<std::uint32_t>(m.spans.size()));
  for (const TraceSpan& s : m.spans) {
    w.u64(s.trace_id);
    w.u64(s.key);
    w.i64(s.start_us);
    w.i64(s.dur_us);
    w.u32(s.ns);
    w.u32(s.node);
    w.u8(s.stage);
    w.u8(s.decision);
    w.u8(s.flags);
  }
  return w.take();
}

std::vector<std::byte> encode(const ReplicateRequest& m) {
  TOKA_CHECK_MSG(m.deltas.size() <= kMaxReplicaDeltas,
                 "replica frame of " << m.deltas.size()
                                     << " deltas exceeds the limit of "
                                     << kMaxReplicaDeltas);
  util::BinaryWriter w = header(MsgType::kReplicate, false, m.id);
  w.u64(m.epoch);
  w.u64(m.seq);
  w.u32(static_cast<std::uint32_t>(m.deltas.size()));
  for (const ReplicaDelta& d : m.deltas) {
    w.u32(d.ns);
    w.u64(d.key);
    w.i64(d.balance);
    w.i64(d.floor);
  }
  return w.take();
}

std::vector<std::byte> encode(const ReplicaAckRequest& m) {
  util::BinaryWriter w = header(MsgType::kReplicaAck, false, m.id);
  w.u64(m.seq);
  return w.take();
}

std::vector<std::byte> encode(const PromoteRequest& m) {
  util::BinaryWriter w = header(MsgType::kPromote, false, m.id);
  w.u32(m.failed);
  w.u64(m.epoch);
  return w.take();
}

std::vector<std::byte> encode(const PromoteResponse& m) {
  util::BinaryWriter w = header(MsgType::kPromote, true, m.id);
  w.u8(m.accepted ? 1 : 0);
  w.u64(m.epoch);
  w.u64(m.installed);
  w.i64(m.forfeited);
  return w.take();
}

std::vector<std::byte> encode(const RedirectResponse& m) {
  util::BinaryWriter w = header(MsgType::kRedirect, true, m.id);
  w.u64(m.epoch);
  w.u32(m.owner);
  return w.take();
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedBody: return "malformed-body";
    case ErrorCode::kUnknownNamespace: return "unknown-namespace";
    case ErrorCode::kInvalidConfig: return "invalid-config";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kOverloaded: return "overloaded";
  }
  return "unknown-error";
}

std::vector<std::byte> encode(const Request& m) {
  return std::visit([](const auto& msg) { return encode(msg); }, m);
}

std::vector<std::byte> encode(const Response& m) {
  return std::visit([](const auto& msg) { return encode(msg); }, m);
}

Request decode_request(std::span<const std::byte> payload) {
  std::optional<TraceContext> trace;
  return decode_request(payload, trace);
}

Request decode_request(std::span<const std::byte> payload,
                       std::optional<TraceContext>& trace_out) {
  trace_out.reset();
  util::BinaryReader r(payload);
  const std::uint8_t type = read_header(r);
  const std::uint64_t id = r.u64();
  const bool traced = (type & kTraceBit) != 0 && (type & kResponseBit) == 0;
  const MsgType msg_type =
      static_cast<MsgType>(traced ? (type & ~kTraceBit) : type);
  if (!known_type(msg_type, /*is_response=*/false) ||
      (type & kResponseBit) != 0)
    throw util::IoError("tokend frame: unknown request type " +
                        std::to_string(type));
  if (traced) {
    TraceContext ctx;
    ctx.trace_id = r.u64();
    const std::uint8_t flags = r.u8();
    if ((flags & ~kTraceFlagSampled) != 0)
      throw util::IoError("tokend frame: unknown trace flags " +
                          std::to_string(flags));
    ctx.sampled = (flags & kTraceFlagSampled) != 0;
    trace_out = ctx;
  }
  Request out;
  switch (msg_type) {
    case MsgType::kAcquire: {
      const NamespaceId ns = r.u32();
      out = AcquireRequest{id, r.u64(), read_tokens(r), ns};
      break;
    }
    case MsgType::kRefund: {
      const NamespaceId ns = r.u32();
      out = RefundRequest{id, r.u64(), read_tokens(r), ns};
      break;
    }
    case MsgType::kQuery: {
      const NamespaceId ns = r.u32();
      out = QueryRequest{id, r.u64(), ns};
      break;
    }
    case MsgType::kBatchAcquire: {
      BatchAcquireRequest m;
      m.id = id;
      m.ns = r.u32();
      const std::uint32_t count = read_batch_count(r);
      m.ops.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t key = r.u64();
        m.ops.push_back(AcquireOp{key, read_tokens(r)});
      }
      out = std::move(m);
      break;
    }
    case MsgType::kConfigureNamespace: {
      ConfigureNamespaceRequest m;
      m.id = id;
      m.ns = r.u32();
      m.config = read_namespace_config(r);
      out = std::move(m);
      break;
    }
    case MsgType::kNamespaceInfo: {
      out = NamespaceInfoRequest{id, r.u32()};
      break;
    }
    case MsgType::kClusterMap: {
      out = ClusterMapRequest{id};
      break;
    }
    case MsgType::kApplyMap: {
      ApplyMapRequest m;
      m.id = id;
      m.map = read_cluster_map(r);
      out = std::move(m);
      break;
    }
    case MsgType::kHandoff: {
      HandoffRequest m;
      m.id = id;
      m.epoch = r.u64();
      m.ns = r.u32();
      m.key = r.u64();
      m.balance = read_tokens(r);
      out = std::move(m);
      break;
    }
    case MsgType::kStats: {
      out = StatsRequest{id};
      break;
    }
    case MsgType::kTraces: {
      out = TracesRequest{id, r.u32()};
      break;
    }
    case MsgType::kReplicate: {
      ReplicateRequest m;
      m.id = id;
      m.epoch = r.u64();
      m.seq = r.u64();
      const std::uint32_t count = r.u32();
      if (count > kMaxReplicaDeltas)
        throw util::IoError("tokend frame: replica frame of " +
                            std::to_string(count) +
                            " deltas exceeds the limit");
      m.deltas.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        ReplicaDelta d;
        d.ns = r.u32();
        d.key = r.u64();
        d.balance = read_tokens(r);
        d.floor = read_tokens(r);
        if (d.floor > d.balance)
          throw util::IoError("tokend frame: replica floor above balance");
        m.deltas.push_back(d);
      }
      out = std::move(m);
      break;
    }
    case MsgType::kReplicaAck: {
      out = ReplicaAckRequest{id, r.u64()};
      break;
    }
    case MsgType::kPromote: {
      PromoteRequest m;
      m.id = id;
      m.failed = r.u32();
      m.epoch = r.u64();
      if (m.failed == kNoNode)
        throw util::IoError("tokend frame: promote names no failed node");
      out = std::move(m);
      break;
    }
    default:
      throw util::IoError("tokend frame: unknown request type " +
                          std::to_string(type));
  }
  expect_done(r);
  return out;
}

Response decode_response(std::span<const std::byte> payload) {
  util::BinaryReader r(payload);
  const std::uint8_t type = read_header(r);
  if ((type & kResponseBit) == 0)
    throw util::IoError("tokend frame: request type " + std::to_string(type) +
                        " where a response was expected");
  const MsgType msg_type = static_cast<MsgType>(type & ~kResponseBit);
  if (!known_type(msg_type, /*is_response=*/true))
    throw util::IoError("tokend frame: unknown response type " +
                        std::to_string(type));
  const std::uint64_t id = r.u64();
  Response out;
  switch (msg_type) {
    case MsgType::kAcquire: {
      out = AcquireResponse{id, r.i64(), r.i64()};
      break;
    }
    case MsgType::kRefund: {
      out = RefundResponse{id, r.i64(), r.i64()};
      break;
    }
    case MsgType::kQuery: {
      const Tokens balance = r.i64();
      out = QueryResponse{id, balance, read_bool(r)};
      break;
    }
    case MsgType::kBatchAcquire: {
      BatchAcquireResponse m;
      m.id = id;
      const std::uint32_t count = read_batch_count(r);
      m.results.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const Tokens granted = r.i64();
        m.results.push_back(AcquireResult{granted, r.i64()});
      }
      out = std::move(m);
      break;
    }
    case MsgType::kConfigureNamespace: {
      const bool created = read_bool(r);
      out = ConfigureNamespaceResponse{id, created, r.i64()};
      break;
    }
    case MsgType::kNamespaceInfo: {
      NamespaceInfoResponse m;
      m.id = id;
      m.exists = read_bool(r);
      if (m.exists) {
        m.config = read_namespace_config(r);
        m.capacity = r.i64();
        m.accounts = r.u64();
      }
      out = std::move(m);
      break;
    }
    case MsgType::kClusterMap: {
      ClusterMapResponse m;
      m.id = id;
      m.map = read_cluster_map(r);
      out = std::move(m);
      break;
    }
    case MsgType::kApplyMap: {
      ApplyMapResponse m;
      m.id = id;
      m.accepted = read_bool(r);
      m.epoch = r.u64();
      m.handoffs = r.u64();
      out = std::move(m);
      break;
    }
    case MsgType::kHandoff: {
      const bool accepted = read_bool(r);
      out = HandoffResponse{id, accepted};
      break;
    }
    case MsgType::kStats: {
      StatsResponse m;
      m.id = id;
      const std::uint32_t count = r.u32();
      if (count > kMaxStatsEntries)
        throw util::IoError("tokend frame: stats snapshot of " +
                            std::to_string(count) +
                            " entries exceeds the limit");
      m.entries.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        StatsEntry e;
        e.name = r.str();
        if (e.name.size() > kMaxStatsNameLen)
          throw util::IoError("tokend frame: stats entry name of " +
                              std::to_string(e.name.size()) +
                              " bytes exceeds the limit");
        e.kind = r.u8();
        if (e.kind > 2)
          throw util::IoError("tokend frame: unknown stats entry kind " +
                              std::to_string(e.kind));
        e.value = r.f64();
        if (e.kind == 2) {
          e.p50 = r.f64();
          e.p90 = r.f64();
          e.p99 = r.f64();
          e.max = r.f64();
          e.sum = r.f64();
          const std::uint32_t nbuckets = r.u32();
          if (nbuckets > kMaxStatsBuckets)
            throw util::IoError("tokend frame: stats entry with " +
                                std::to_string(nbuckets) +
                                " buckets exceeds the limit");
          e.buckets.reserve(nbuckets);
          for (std::uint32_t b = 0; b < nbuckets; ++b) {
            StatsBucket bucket;
            bucket.index = r.u32();
            bucket.count = r.u64();
            if (bucket.index >= kMaxStatsBuckets)
              throw util::IoError(
                  "tokend frame: stats bucket index out of range");
            if (!e.buckets.empty() && bucket.index <= e.buckets.back().index)
              throw util::IoError(
                  "tokend frame: stats buckets out of order");
            e.buckets.push_back(bucket);
          }
        }
        m.entries.push_back(std::move(e));
      }
      out = std::move(m);
      break;
    }
    case MsgType::kTraces: {
      TracesResponse m;
      m.id = id;
      const std::uint32_t count = r.u32();
      if (count > kMaxTraceSpans)
        throw util::IoError("tokend frame: trace snapshot of " +
                            std::to_string(count) +
                            " spans exceeds the limit");
      m.spans.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        TraceSpan s;
        s.trace_id = r.u64();
        s.key = r.u64();
        s.start_us = r.i64();
        s.dur_us = r.i64();
        s.ns = r.u32();
        s.node = r.u32();
        s.stage = r.u8();
        s.decision = r.u8();
        s.flags = r.u8();
        m.spans.push_back(s);
      }
      out = std::move(m);
      break;
    }
    case MsgType::kPromote: {
      PromoteResponse m;
      m.id = id;
      m.accepted = read_bool(r);
      m.epoch = r.u64();
      m.installed = r.u64();
      m.forfeited = read_tokens(r);
      out = std::move(m);
      break;
    }
    case MsgType::kRedirect: {
      RedirectResponse m;
      m.id = id;
      m.epoch = r.u64();
      m.owner = r.u32();
      out = std::move(m);
      break;
    }
    case MsgType::kError: {
      const std::uint8_t code = r.u8();
      if (code < static_cast<std::uint8_t>(ErrorCode::kMalformedBody) ||
          code > static_cast<std::uint8_t>(ErrorCode::kOverloaded))
        throw util::IoError("tokend frame: unknown error code " +
                            std::to_string(code));
      ErrorResponse m{id, static_cast<ErrorCode>(code)};
      if (m.code == ErrorCode::kOverloaded) {
        m.retry_after_us = r.i64();
        if (m.retry_after_us < 0)
          throw util::IoError("tokend frame: negative retry-after hint");
      }
      out = m;
      break;
    }
    default:
      throw util::IoError("tokend frame: unknown response type " +
                          std::to_string(type));
  }
  expect_done(r);
  return out;
}

std::optional<FrameHeader> try_parse_header(
    std::span<const std::byte> payload) {
  constexpr std::size_t kHeaderBytes = 1 + 1 + 8;
  constexpr std::size_t kTraceContextBytes = 8 + 1;
  if (payload.size() < kHeaderBytes) return std::nullopt;
  util::BinaryReader r(payload);
  if (r.u8() != kProtocolVersion) return std::nullopt;
  const std::uint8_t type_byte = r.u8();
  const bool is_response = (type_byte & kResponseBit) != 0;
  // Responses keep kTraceBit as part of their type value (kRedirect and
  // kError live above 0x40); only a request's bit announces context.
  const bool traced = !is_response && (type_byte & kTraceBit) != 0;
  std::uint8_t masked = type_byte & ~kResponseBit;
  if (traced) masked &= ~kTraceBit;
  const MsgType type = static_cast<MsgType>(masked);
  if (!known_type(type, is_response)) return std::nullopt;
  FrameHeader out;
  out.type = type;
  out.is_response = is_response;
  out.id = r.u64();
  if (traced) {
    if (payload.size() < kHeaderBytes + kTraceContextBytes)
      return std::nullopt;
    const std::uint64_t trace_id = r.u64();
    const std::uint8_t flags = r.u8();
    if ((flags & ~kTraceFlagSampled) != 0) return std::nullopt;
    out.traced = true;
    out.trace_id = trace_id;
    out.sampled = (flags & kTraceFlagSampled) != 0;
  }
  return out;
}

void attach_trace_context(std::vector<std::byte>& frame,
                          const TraceContext& ctx) {
  constexpr std::size_t kHeaderBytes = 1 + 1 + 8;
  TOKA_CHECK_MSG(frame.size() >= kHeaderBytes,
                 "cannot attach a trace context to a " << frame.size()
                                                       << "-byte frame");
  TOKA_CHECK_MSG(std::to_integer<std::uint8_t>(frame[0]) == kProtocolVersion,
                 "cannot attach a trace context to a frame of another "
                 "protocol version");
  const std::uint8_t type_byte = std::to_integer<std::uint8_t>(frame[1]);
  TOKA_CHECK_MSG((type_byte & (kResponseBit | kTraceBit)) == 0,
                 "trace contexts attach to untraced request frames only");
  frame[1] = static_cast<std::byte>(type_byte | kTraceBit);
  std::byte ctx_bytes[9];
  for (int i = 0; i < 8; ++i)
    ctx_bytes[i] = static_cast<std::byte>((ctx.trace_id >> (8 * i)) & 0xFF);
  ctx_bytes[8] =
      static_cast<std::byte>(ctx.sampled ? kTraceFlagSampled : 0);
  frame.insert(frame.begin() + kHeaderBytes, std::begin(ctx_bytes),
               std::end(ctx_bytes));
}

std::uint64_t request_id(const Request& m) {
  return std::visit([](const auto& msg) { return msg.id; }, m);
}

std::uint64_t request_id(const Response& m) {
  return std::visit([](const auto& msg) { return msg.id; }, m);
}

NamespaceId namespace_of(const Request& m) {
  return std::visit(
      [](const auto& msg) -> NamespaceId {
        if constexpr (requires { msg.ns; }) {
          return msg.ns;
        } else {
          return kDefaultNamespace;  // the map messages carry no namespace
        }
      },
      m);
}

}  // namespace toka::service::protocol
