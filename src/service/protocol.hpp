// tokend's compact binary wire protocol (version 2).
//
// One request or response per transport payload, serialized with
// util::BinaryWriter/BinaryReader (fixed little-endian layout):
//
//   u8  version (always kProtocolVersion; any other byte is rejected)
//   u8  message type (requests 1..14; responses are request | 0x80;
//       0x7E redirect and 0x7F error are response-only)
//   u64 request id (echoed verbatim in the response for correlation)
//   ... type-specific body
//
// Data ops (acquire/refund/query/batch-acquire) carry a u32 namespace id
// right after the request id. Beside them the protocol has:
//   - admin messages: ConfigureNamespace creates or resets a namespace
//     with its own core::StrategyConfig, Δ, initial balance and TTL at
//     runtime; NamespaceInfo describes one;
//   - a typed ErrorResponse (code + echoed id), so the server can answer
//     decodable-header/bad-body frames, unknown namespaces and invalid
//     configs instead of silently dropping them;
//   - telemetry snapshots: Stats (the metrics registry) and Traces (the
//     flight recorder).
//
// It also carries the tokad *cluster* vocabulary:
//   - ClusterMap fetches a node's current cluster::ClusterMap, and ApplyMap
//     installs a newer one (membership change: the receiving node re-routes
//     and hands moved accounts off to their new owners);
//   - Handoff transfers one account's banked state (balance; the receiver
//     settles it at its own clock) node-to-node on ring change — forfeited
//     on any loss, never duplicated;
//   - Replicate/ReplicaAck stream account deltas to followers, and Promote
//     installs them when a primary dies;
//   - a Redirect response (the kNotOwner outcome): the node does not own
//     the requested key under its current map; it carries the node's map
//     epoch and the owner it routes the key to, so a stale client can
//     refresh and retry instead of timing out.
//
// Decoding is strict: unknown version, unknown type, negative token
// counts, oversized batches, out-of-range enum/bool bytes, truncated
// bodies and trailing bytes all throw util::IoError — a malformed frame
// can never partially apply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "service/account_table.hpp"
#include "util/error.hpp"
#include "util/serde.hpp"
#include "util/types.hpp"

namespace toka::service::protocol {

/// The version byte every frame starts with: encoders emit it, decoders
/// reject any other.
inline constexpr std::uint8_t kProtocolVersion = 2;

/// Upper bound on ops per batch frame; a decoded count above this is
/// rejected before any allocation happens.
inline constexpr std::size_t kMaxBatchOps = 1 << 16;

enum class MsgType : std::uint8_t {
  kAcquire = 1,
  kRefund = 2,
  kQuery = 3,
  kBatchAcquire = 4,
  kConfigureNamespace = 5,  ///< admin
  kNamespaceInfo = 6,       ///< admin
  kClusterMap = 7,          ///< cluster: fetch the membership map
  kApplyMap = 8,            ///< cluster: install a newer map
  kHandoff = 9,             ///< cluster: node-to-node account move
  kStats = 10,              ///< telemetry snapshot
  kTraces = 11,             ///< flight-recorder span snapshot
  kReplicate = 12,          ///< cluster: one-way account delta frame
  kReplicaAck = 13,         ///< cluster: one-way delta-stream ack
  kPromote = 14,            ///< cluster: install replicas, bump epoch
  kRedirect = 0x7E,         ///< exists only as a response
  kError = 0x7F,            ///< exists only as a response
};

/// Bit set on a request's type byte to form its response's type byte.
inline constexpr std::uint8_t kResponseBit = 0x80;

// ------------------------------------------------------- trace context
//
// A *request* frame may carry a 9-byte trace context — u64 trace id +
// u8 flags — inserted right after the request id, announced by kTraceBit
// on the type byte. Every defined request type is <= kPromote (14), so the
// bit never collides with a request's type value (kRedirect/kError have
// bit 6 set but exist only as responses, and responses never carry
// context: the client correlates a reply to its trace by request id).
// A frame without the bit is byte-identical to its pre-trace encoding.

/// Bit set on a request's type byte when a trace context follows the id.
inline constexpr std::uint8_t kTraceBit = 0x40;
/// The only defined trace flag: this request is in the sampled 1-in-N set.
inline constexpr std::uint8_t kTraceFlagSampled = 0x01;

/// Per-request trace identity, propagated end to end on request frames.
struct TraceContext {
  std::uint64_t trace_id = 0;
  bool sampled = false;
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Stamps `ctx` onto an already-encoded request frame: sets kTraceBit and
/// splices the 9 context bytes in after the request id. The frame must be
/// a request that does not already carry a context (checked).
void attach_trace_context(std::vector<std::byte>& frame,
                          const TraceContext& ctx);

/// Typed failure causes carried by ErrorResponse frames.
enum class ErrorCode : std::uint8_t {
  kMalformedBody = 1,     ///< header decoded, body did not
  kUnknownNamespace = 2,  ///< data op on a namespace that does not exist
  kInvalidConfig = 3,     ///< ConfigureNamespace with a rejected policy
  kUnsupported = 4,       ///< cluster-only request on a non-cluster server
  kOverloaded = 5,        ///< admission budget exhausted; retry later
};

/// Short stable identifier, e.g. "unknown-namespace" (for logs and errors).
const char* to_string(ErrorCode code);

struct AcquireRequest {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  Tokens tokens = 0;
  NamespaceId ns = kDefaultNamespace;  ///< last: {id, key, tokens} means ns 0
  friend bool operator==(const AcquireRequest&, const AcquireRequest&) = default;
};

struct AcquireResponse {
  std::uint64_t id = 0;
  Tokens granted = 0;
  Tokens balance = 0;
  friend bool operator==(const AcquireResponse&, const AcquireResponse&) = default;
};

struct RefundRequest {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  Tokens tokens = 0;
  NamespaceId ns = kDefaultNamespace;
  friend bool operator==(const RefundRequest&, const RefundRequest&) = default;
};

struct RefundResponse {
  std::uint64_t id = 0;
  Tokens accepted = 0;
  Tokens balance = 0;
  friend bool operator==(const RefundResponse&, const RefundResponse&) = default;
};

struct QueryRequest {
  std::uint64_t id = 0;
  std::uint64_t key = 0;
  NamespaceId ns = kDefaultNamespace;
  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

struct QueryResponse {
  std::uint64_t id = 0;
  Tokens balance = 0;
  bool exists = false;
  friend bool operator==(const QueryResponse&, const QueryResponse&) = default;
};

struct BatchAcquireRequest {
  std::uint64_t id = 0;
  std::vector<AcquireOp> ops;
  NamespaceId ns = kDefaultNamespace;
  friend bool operator==(const BatchAcquireRequest&,
                         const BatchAcquireRequest&) = default;
};

struct BatchAcquireResponse {
  std::uint64_t id = 0;
  std::vector<AcquireResult> results;
  friend bool operator==(const BatchAcquireResponse&,
                         const BatchAcquireResponse&) = default;
};

struct ConfigureNamespaceRequest {
  std::uint64_t id = 0;
  NamespaceId ns = kDefaultNamespace;
  NamespaceConfig config;
  friend bool operator==(const ConfigureNamespaceRequest&,
                         const ConfigureNamespaceRequest&) = default;
};

struct ConfigureNamespaceResponse {
  std::uint64_t id = 0;
  bool created = false;  ///< false: existed before and was reset
  Tokens capacity = 0;   ///< resolved effective balance cap
  friend bool operator==(const ConfigureNamespaceResponse&,
                         const ConfigureNamespaceResponse&) = default;
};

struct NamespaceInfoRequest {
  std::uint64_t id = 0;
  NamespaceId ns = kDefaultNamespace;
  friend bool operator==(const NamespaceInfoRequest&,
                         const NamespaceInfoRequest&) = default;
};

struct NamespaceInfoResponse {
  std::uint64_t id = 0;
  bool exists = false;
  NamespaceConfig config;       ///< meaningful only when exists
  Tokens capacity = 0;          ///< meaningful only when exists
  std::uint64_t accounts = 0;   ///< meaningful only when exists
  friend bool operator==(const NamespaceInfoResponse&,
                         const NamespaceInfoResponse&) = default;
};

struct ErrorResponse {
  std::uint64_t id = 0;
  ErrorCode code = ErrorCode::kMalformedBody;
  /// kOverloaded only: hint for when to retry (time to the server's next
  /// admission interval). Encoded on the wire only for that code, so every
  /// pre-existing error frame stays byte-identical.
  TimeUs retry_after_us = 0;
  friend bool operator==(const ErrorResponse&, const ErrorResponse&) = default;
};

// ---------------------------------------------------- telemetry messages

/// Upper bound on entries per kStats response frame.
inline constexpr std::size_t kMaxStatsEntries = 4096;
/// Upper bound on one stats entry's metric name.
inline constexpr std::size_t kMaxStatsNameLen = 256;
/// Upper bound on a histogram entry's occupied-bucket list — the dense
/// bucket count of obs::Histogram, so every valid snapshot fits.
inline constexpr std::size_t kMaxStatsBuckets = 960;

/// One occupied log-linear bucket of a histogram entry (sparse form:
/// ascending bucket index, nonzero count). Mirrors obs::HistogramBucket.
struct StatsBucket {
  std::uint32_t index = 0;
  std::uint64_t count = 0;
  friend bool operator==(const StatsBucket&, const StatsBucket&) = default;
};

/// One metric in a kStats snapshot; mirrors obs::Metric (kind 0 counter,
/// 1 gauge, 2 histogram — histograms carry their quantiles inline, plus
/// the raw log-linear buckets that make N nodes' snapshots mergeable with
/// the same 1/16 quantile-error bound a single histogram gives).
struct StatsEntry {
  std::string name;
  std::uint8_t kind = 0;
  double value = 0;  ///< counter/gauge reading; histogram sample count
  double p50 = 0, p90 = 0, p99 = 0, max = 0;  ///< histogram only (kind 2)
  double sum = 0;                             ///< histogram only (kind 2)
  /// Histogram only: occupied buckets, strictly ascending by index.
  std::vector<StatsBucket> buckets;
  friend bool operator==(const StatsEntry&, const StatsEntry&) = default;
};

/// Asks the server for a compact binary snapshot of its telemetry
/// registry. A server with no registry answers with an empty
/// entry list.
struct StatsRequest {
  std::uint64_t id = 0;
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

struct StatsResponse {
  std::uint64_t id = 0;
  std::vector<StatsEntry> entries;
  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
};

/// Upper bound on spans per kTraces response frame.
inline constexpr std::size_t kMaxTraceSpans = 1 << 16;

/// One flight-recorder span in a kTraces snapshot; mirrors
/// obs::SpanRecord. `stage` and `decision` are the obs::Stage /
/// obs::Decision enum values carried as opaque bytes — the wire does not
/// pin the diagnostic vocabulary, only the layout.
struct TraceSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t key = 0;
  std::int64_t start_us = 0;  ///< steady-clock microseconds at span start
  std::int64_t dur_us = 0;
  std::uint32_t ns = 0;
  std::uint32_t node = 0;  ///< recording node (kNoNode when standalone)
  std::uint8_t stage = 0;
  std::uint8_t decision = 0;
  std::uint8_t flags = 0;  ///< kTraceFlagSampled and/or forced-record bits
  friend bool operator==(const TraceSpan&, const TraceSpan&) = default;
};

/// Asks the server for a snapshot of its flight-recorder rings.
/// `max_spans` caps the reply; 0 means the server-side limit.
struct TracesRequest {
  std::uint64_t id = 0;
  std::uint32_t max_spans = 0;
  friend bool operator==(const TracesRequest&, const TracesRequest&) = default;
};

struct TracesResponse {
  std::uint64_t id = 0;
  std::vector<TraceSpan> spans;
  friend bool operator==(const TracesResponse&, const TracesResponse&) = default;
};

// ------------------------------------------------------ cluster messages

struct ClusterMapRequest {
  std::uint64_t id = 0;
  friend bool operator==(const ClusterMapRequest&,
                         const ClusterMapRequest&) = default;
};

struct ClusterMapResponse {
  std::uint64_t id = 0;
  cluster::ClusterMap map;
  friend bool operator==(const ClusterMapResponse&,
                         const ClusterMapResponse&) = default;
};

struct ApplyMapRequest {
  std::uint64_t id = 0;
  cluster::ClusterMap map;
  friend bool operator==(const ApplyMapRequest&,
                         const ApplyMapRequest&) = default;
};

struct ApplyMapResponse {
  std::uint64_t id = 0;
  bool accepted = false;      ///< false: the node already has this epoch+
  std::uint64_t epoch = 0;    ///< the node's map epoch after the apply
  std::uint64_t handoffs = 0; ///< accounts the apply started moving away
  friend bool operator==(const ApplyMapResponse&,
                         const ApplyMapResponse&) = default;
};

struct HandoffRequest {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;  ///< the sender's map epoch (diagnostics)
  NamespaceId ns = kDefaultNamespace;
  std::uint64_t key = 0;
  Tokens balance = 0;  ///< banked tokens travelling with the account
  friend bool operator==(const HandoffRequest&,
                         const HandoffRequest&) = default;
};

struct HandoffResponse {
  std::uint64_t id = 0;
  /// false: the receiver dropped the state (it does not own the key, the
  /// namespace is unknown there, or the key already has a live account).
  /// The sender forfeits either way — the state was uninstalled on send.
  bool accepted = false;
  friend bool operator==(const HandoffResponse&,
                         const HandoffResponse&) = default;
};

/// Upper bound on account deltas per kReplicate frame.
inline constexpr std::size_t kMaxReplicaDeltas = 1 << 16;

/// One account's replicated state inside a kReplicate frame. Deltas are
/// *absolute* — the latest banked balance, not an increment — so applying
/// any in-order subset of a stream converges and a dropped frame needs no
/// rewind protocol. `floor` is the conservative crash-install value: the
/// balance a promoted follower may create the account with (the primary
/// never spends below the floors it has in flight, so installing a floor
/// can only under-grant — see cluster::ReplicationEngine).
struct ReplicaDelta {
  NamespaceId ns = kDefaultNamespace;
  std::uint64_t key = 0;
  Tokens balance = 0;
  Tokens floor = 0;  ///< in [0, balance]
  friend bool operator==(const ReplicaDelta&, const ReplicaDelta&) = default;
};

/// One primary->follower delta frame (one-way: acked by a kReplicaAck
/// frame, never by a kReplicate response). `seq` is the primary's
/// emission round — monotonic per follower lane, so the ack watermark
/// measures replication lag in rounds.
struct ReplicateRequest {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;  ///< the sender's map epoch (diagnostics)
  std::uint64_t seq = 0;
  std::vector<ReplicaDelta> deltas;
  friend bool operator==(const ReplicateRequest&,
                         const ReplicateRequest&) = default;
};

/// One follower->primary stream ack (one-way). `seq` echoes the highest
/// delta round applied; the primary's gate-release and lag gauge both key
/// off this watermark.
struct ReplicaAckRequest {
  std::uint64_t id = 0;
  std::uint64_t seq = 0;
  friend bool operator==(const ReplicaAckRequest&,
                         const ReplicaAckRequest&) = default;
};

/// Asks a node to promote itself after `failed` died: adopt a strictly
/// newer map with `failed` removed and conservatively install the replica
/// state it holds for keys it now owns. `epoch` guards against stale
/// promoters (0 = promote against whatever map the node currently holds;
/// nonzero = only if the node's epoch still equals it). Idempotent: a
/// node whose map no longer contains `failed` answers accepted=false.
struct PromoteRequest {
  std::uint64_t id = 0;
  NodeId failed = kNoNode;
  std::uint64_t epoch = 0;
  friend bool operator==(const PromoteRequest&,
                         const PromoteRequest&) = default;
};

struct PromoteResponse {
  std::uint64_t id = 0;
  bool accepted = false;
  std::uint64_t epoch = 0;      ///< the node's map epoch after the call
  std::uint64_t installed = 0;  ///< replica accounts installed here
  Tokens forfeited = 0;         ///< tokens dropped by the conservative install
  friend bool operator==(const PromoteResponse&,
                         const PromoteResponse&) = default;
};

/// The kNotOwner outcome: the serving node does not own the requested key
/// under its current map. Carries enough for a stale client to recover —
/// the node's map epoch (fetch a newer map if ours is older) and where the
/// node's ring puts the key right now.
struct RedirectResponse {
  std::uint64_t id = 0;
  std::uint64_t epoch = 0;
  NodeId owner = kNoNode;
  friend bool operator==(const RedirectResponse&,
                         const RedirectResponse&) = default;
};

using Request =
    std::variant<AcquireRequest, RefundRequest, QueryRequest,
                 BatchAcquireRequest, ConfigureNamespaceRequest,
                 NamespaceInfoRequest, ClusterMapRequest, ApplyMapRequest,
                 HandoffRequest, StatsRequest, TracesRequest,
                 ReplicateRequest, ReplicaAckRequest, PromoteRequest>;
using Response =
    std::variant<AcquireResponse, RefundResponse, QueryResponse,
                 BatchAcquireResponse, ConfigureNamespaceResponse,
                 NamespaceInfoResponse, ClusterMapResponse, ApplyMapResponse,
                 HandoffResponse, StatsResponse, TracesResponse,
                 PromoteResponse, RedirectResponse, ErrorResponse>;

// Encoders; every frame carries kProtocolVersion.
std::vector<std::byte> encode(const AcquireRequest& m);
std::vector<std::byte> encode(const AcquireResponse& m);
std::vector<std::byte> encode(const RefundRequest& m);
std::vector<std::byte> encode(const RefundResponse& m);
std::vector<std::byte> encode(const QueryRequest& m);
std::vector<std::byte> encode(const QueryResponse& m);
std::vector<std::byte> encode(const BatchAcquireRequest& m);
std::vector<std::byte> encode(const BatchAcquireResponse& m);
std::vector<std::byte> encode(const ConfigureNamespaceRequest& m);
std::vector<std::byte> encode(const ConfigureNamespaceResponse& m);
std::vector<std::byte> encode(const NamespaceInfoRequest& m);
std::vector<std::byte> encode(const NamespaceInfoResponse& m);
std::vector<std::byte> encode(const ClusterMapRequest& m);
std::vector<std::byte> encode(const ClusterMapResponse& m);
std::vector<std::byte> encode(const ApplyMapRequest& m);
std::vector<std::byte> encode(const ApplyMapResponse& m);
std::vector<std::byte> encode(const HandoffRequest& m);
std::vector<std::byte> encode(const HandoffResponse& m);
std::vector<std::byte> encode(const StatsRequest& m);
std::vector<std::byte> encode(const StatsResponse& m);
std::vector<std::byte> encode(const TracesRequest& m);
std::vector<std::byte> encode(const TracesResponse& m);
std::vector<std::byte> encode(const ReplicateRequest& m);
std::vector<std::byte> encode(const ReplicaAckRequest& m);
std::vector<std::byte> encode(const PromoteRequest& m);
std::vector<std::byte> encode(const PromoteResponse& m);
std::vector<std::byte> encode(const RedirectResponse& m);
std::vector<std::byte> encode(const ErrorResponse& m);

std::vector<std::byte> encode(const Request& m);
std::vector<std::byte> encode(const Response& m);

/// Parses a request frame; throws util::IoError on any malformation. The
/// overload with `trace_out` also surfaces the frame's trace context
/// (nullopt when the frame carries none).
Request decode_request(std::span<const std::byte> payload);
Request decode_request(std::span<const std::byte> payload,
                       std::optional<TraceContext>& trace_out);

/// Parses a response frame; throws util::IoError on any malformation.
Response decode_response(std::span<const std::byte> payload);

/// The leading (type, id) pair of a frame, plus the trace context when
/// the request carries one.
struct FrameHeader {
  MsgType type = MsgType::kAcquire;
  bool is_response = false;
  std::uint64_t id = 0;
  bool traced = false;  ///< kTraceBit was set (requests only)
  std::uint64_t trace_id = 0;
  bool sampled = false;
};

/// Parses just the header: nullopt unless the frame is long enough, the
/// version byte is kProtocolVersion and the type byte is defined.
/// The server uses this to split undecodable frames into "valid header,
/// bad body" (answered with ErrorResponse{kMalformedBody}) and garbage
/// (dropped and counted as malformed).
std::optional<FrameHeader> try_parse_header(
    std::span<const std::byte> payload);

/// The request id of either frame kind (for correlation/logging).
std::uint64_t request_id(const Request& m);
std::uint64_t request_id(const Response& m);

/// Streaming routing view of a data-op request frame (acquire / refund /
/// query / batch-acquire): invokes `fn(ns, key)` for every key
/// the frame addresses, walking a batch's ops in place — no request is
/// materialized and nothing allocates. This is the cluster layer's
/// ownership check, which would otherwise pay a full decode on every
/// request just to route it (the owned frame is decoded once more by the
/// table server anyway).
///
/// Returns true if the frame was a data-op request walked to the caller's
/// satisfaction (`fn` may return false to stop early); false for any
/// other frame — responses, admin/cluster types, a wrong version, or a
/// body too short to carry its keys — in which case the caller falls back
/// to the full strict decoder for classification. Only routing fields are
/// validated here; full strictness (token signs, trailing bytes) stays
/// with decode_request, whose layout this walk mirrors — the protocol
/// fuzz pins the two together.
template <typename KeyFn>
bool for_each_data_op_key(std::span<const std::byte> payload, KeyFn&& fn) {
  util::BinaryReader r(payload);
  try {
    if (r.u8() != kProtocolVersion) return false;
    const std::uint8_t type_byte = r.u8();
    if ((type_byte & kResponseBit) != 0) return false;
    // A traced frame carries 9 context bytes after the id.
    const bool traced = (type_byte & kTraceBit) != 0;
    const MsgType type =
        static_cast<MsgType>(traced ? (type_byte & ~kTraceBit) : type_byte);
    r.u64();  // request id
    if (traced) {
      r.u64();  // trace id
      r.u8();   // trace flags (validated by the strict decoder, not here)
    }
    switch (type) {
      case MsgType::kAcquire:
      case MsgType::kRefund:
      case MsgType::kQuery: {
        const NamespaceId ns = r.u32();
        fn(ns, r.u64());
        return true;
      }
      case MsgType::kBatchAcquire: {
        const NamespaceId ns = r.u32();
        const std::uint32_t count = r.u32();
        if (count > kMaxBatchOps) return false;
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::uint64_t key = r.u64();
          r.i64();  // the op's token count plays no part in routing
          if (!fn(ns, key)) return true;
        }
        return true;
      }
      default:
        return false;
    }
  } catch (const util::IoError&) {
    return false;  // truncated: let the strict decoder classify the frame
  }
}

/// The namespace a request targets (admin requests included; requests with
/// no namespace — the cluster map messages — report kDefaultNamespace).
NamespaceId namespace_of(const Request& m);

/// Thrown by the client when the server answers with a typed
/// ErrorResponse. Derives from util::IoError, so a caller that catches
/// IoError sees every failed call; `code()` carries the taxonomy.
class RpcError : public util::IoError {
 public:
  RpcError(ErrorCode code, const std::string& what)
      : util::IoError(what), code_(code) {}
  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Thrown by the client when the server sheds a request with
/// ErrorCode::kOverloaded. IS-A RpcError, so the cluster client's triage
/// surfaces it to the caller un-retried (blind retries against an
/// overloaded server only deepen the overload); `retry_after_us()` is the
/// server's hint for when capacity returns.
class OverloadedError : public RpcError {
 public:
  OverloadedError(TimeUs retry_after_us, const std::string& what)
      : RpcError(ErrorCode::kOverloaded, what),
        retry_after_us_(retry_after_us) {}
  TimeUs retry_after_us() const { return retry_after_us_; }

 private:
  TimeUs retry_after_us_;
};

/// Thrown by the client when the server answers with a RedirectResponse:
/// the node does not own the key. Derives from util::IoError (a pre-
/// cluster caller that catches IoError sees a failed call); the cluster
/// client catches it specifically, refreshes its map and retries.
class RedirectError : public util::IoError {
 public:
  RedirectError(std::uint64_t epoch, NodeId owner, const std::string& what)
      : util::IoError(what), epoch_(epoch), owner_(owner) {}
  /// The redirecting node's map epoch.
  std::uint64_t map_epoch() const { return epoch_; }
  /// Where that node's ring places the key (kNoNode on an empty ring).
  NodeId owner() const { return owner_; }

 private:
  std::uint64_t epoch_;
  NodeId owner_;
};

}  // namespace toka::service::protocol

namespace toka::service {
/// Positional result equality, used by protocol round-trip tests.
inline bool operator==(const AcquireOp& a, const AcquireOp& b) {
  return a.key == b.key && a.tokens == b.tokens;
}
inline bool operator==(const AcquireResult& a, const AcquireResult& b) {
  return a.granted == b.granted && a.balance == b.balance;
}
}  // namespace toka::service
