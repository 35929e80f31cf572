// tokend's compact binary wire protocol (version 2).
//
// One request or response per transport payload, in util::BinaryWriter's
// fixed little-endian layout. Every frame starts with the same header:
//
//   u8  version (always kProtocolVersion; any other byte is rejected)
//   u8  message type (requests 1..14; responses are request | 0x80;
//       0x7E redirect and 0x7F error are response-only)
//   u64 request id (echoed verbatim in the response for correlation)
//   ... a traced request's 9-byte context (see kTraceBit), then the body
//
// Each body is described once, by its message's field list in
// wire::kSchema below: the fields in wire order, each a member, a wire
// kind and, where one exists, a bound. encode, decode_request,
// decode_response and the routing walk for_each_data_op_key all walk
// those lists; wire::read_header is the one header reader.
//
// Beside the data ops (acquire/refund/query/batch-acquire) the protocol has:
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
#include <type_traits>
#include <utility>
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

/// The data ops (acquire/refund/query/batch-acquire): the requests a
/// cluster node routes by key and a server admits and runs on its engine.
constexpr bool is_data_op(MsgType type) {
  return type == MsgType::kAcquire || type == MsgType::kRefund ||
         type == MsgType::kQuery || type == MsgType::kBatchAcquire;
}

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

/// The leading (type, id) pair of a frame, plus the trace context when
/// the request carries one.
struct FrameHeader {
  MsgType type = MsgType::kAcquire;
  bool is_response = false;
  std::uint64_t id = 0;
  bool traced = false;  ///< kTraceBit was set (requests only)
  std::uint64_t trace_id = 0;
  bool sampled = false;
  /// The context a traced request carries; nullopt otherwise.
  std::optional<TraceContext> trace() const {
    if (!traced) return std::nullopt;
    return TraceContext{trace_id, sampled};
  }
};

// ---------------------------------------------------------- frame schema
//
// Each wire struct's layout is one constexpr field list, kSchema<T>: its
// fields in wire order (which need not be the struct's order), after the
// header for a message. The generic writer and reader below walk these
// lists; nothing else knows a body's layout.

namespace wire {

/// How one field's bytes are written and read back.
enum class Kind : std::uint8_t {
  kU8,
  kU32,     ///< rejected above its bound, when it has one
  kU64,
  kI64,     ///< any value
  kTokens,  ///< an i64 that must not be negative
  kBool,    ///< a u8 that must be 0 or 1
  kEnum,    ///< a u8 no greater than its bound, the highest enumerator
  kF64,
  kStr,     ///< u32 length, at most the bound, then the bytes
  kVec,     ///< u32 count, at most the bound, then the elements
  kNested,  ///< a struct with a field list of its own
};

/// One entry of a field list: the member, its wire kind, its bound.
template <auto Member, Kind K, std::uint64_t Bound = ~std::uint64_t{0}>
struct Field {};

/// Fields that are on the wire only when `Member` equals `Value`.
template <auto Member, auto Value, typename... Fs>
struct When {};

/// A field list, and for a message the type byte it travels under.
template <typename... Fs>
struct Schema {
  MsgType type{};
};

template <MsgType Type, typename... Fs>
constexpr Schema<Fs...> message(Fs...) { return {Type}; }
template <typename... Fs>
constexpr Schema<Fs...> fields(Fs...) { return {}; }
template <auto Member, auto Value, typename... Fs>
constexpr When<Member, Value, Fs...> when(Fs...) { return {}; }

template <auto M> inline constexpr Field<M, Kind::kU8> u8{};
template <auto M, std::uint64_t Max = ~std::uint64_t{0}>
inline constexpr Field<M, Kind::kU32, Max> u32{};
template <auto M> inline constexpr Field<M, Kind::kU64> u64{};
template <auto M> inline constexpr Field<M, Kind::kI64> i64{};
template <auto M> inline constexpr Field<M, Kind::kTokens> tokens{};
template <auto M> inline constexpr Field<M, Kind::kBool> boolean{};
template <auto M, auto Max>
inline constexpr Field<M, Kind::kEnum, static_cast<std::uint64_t>(Max)>
    enumeration{};
template <auto M> inline constexpr Field<M, Kind::kF64> f64{};
template <auto M, std::uint64_t Max>
inline constexpr Field<M, Kind::kStr, Max> str{};
template <auto M, std::uint64_t Max>
inline constexpr Field<M, Kind::kVec, Max> vec{};
template <auto M> inline constexpr Field<M, Kind::kNested> nested{};

/// The field list of every wire struct; nullptr for any other type.
template <typename T>
inline constexpr auto kSchema = nullptr;

// Nested lists.
template <>
inline constexpr auto kSchema<AcquireOp> =
    fields(u64<&AcquireOp::key>, tokens<&AcquireOp::tokens>);
template <>
inline constexpr auto kSchema<AcquireResult> =
    fields(i64<&AcquireResult::granted>, i64<&AcquireResult::balance>);
template <>
inline constexpr auto kSchema<core::StrategyConfig> = fields(
    enumeration<&core::StrategyConfig::kind, core::StrategyKind::kTokenBucket>,
    i64<&core::StrategyConfig::a_param>, i64<&core::StrategyConfig::c_param>,
    i64<&core::StrategyConfig::reactive_k>,
    boolean<&core::StrategyConfig::reactive_useful_only>);
template <>
inline constexpr auto kSchema<NamespaceConfig> = fields(
    nested<&NamespaceConfig::strategy>, i64<&NamespaceConfig::delta_us>,
    i64<&NamespaceConfig::initial_tokens>, i64<&NamespaceConfig::idle_ttl_us>,
    i64<&NamespaceConfig::max_catchup_ticks>,
    boolean<&NamespaceConfig::audit>);
template <>
inline constexpr auto kSchema<cluster::ClusterMap> = fields(
    u64<&cluster::ClusterMap::epoch>, u32<&cluster::ClusterMap::vnodes>,
    vec<&cluster::ClusterMap::nodes, cluster::kMaxClusterNodes>,
    u32<&cluster::ClusterMap::replicas, cluster::kMaxClusterNodes>);
template <>
inline constexpr auto kSchema<StatsBucket> = fields(
    u32<&StatsBucket::index, kMaxStatsBuckets - 1>, u64<&StatsBucket::count>);
template <>
inline constexpr auto kSchema<StatsEntry> = fields(
    str<&StatsEntry::name, kMaxStatsNameLen>, enumeration<&StatsEntry::kind, 2>,
    f64<&StatsEntry::value>,
    when<&StatsEntry::kind, 2>(
        f64<&StatsEntry::p50>, f64<&StatsEntry::p90>, f64<&StatsEntry::p99>,
        f64<&StatsEntry::max>, f64<&StatsEntry::sum>,
        vec<&StatsEntry::buckets, kMaxStatsBuckets>));
template <>
inline constexpr auto kSchema<TraceSpan> = fields(
    u64<&TraceSpan::trace_id>, u64<&TraceSpan::key>, i64<&TraceSpan::start_us>,
    i64<&TraceSpan::dur_us>, u32<&TraceSpan::ns>, u32<&TraceSpan::node>,
    u8<&TraceSpan::stage>, u8<&TraceSpan::decision>, u8<&TraceSpan::flags>);
template <>
inline constexpr auto kSchema<ReplicaDelta> = fields(
    u32<&ReplicaDelta::ns>, u64<&ReplicaDelta::key>,
    tokens<&ReplicaDelta::balance>, tokens<&ReplicaDelta::floor>);

// Data ops.
template <>
inline constexpr auto kSchema<AcquireRequest> = message<MsgType::kAcquire>(
    u32<&AcquireRequest::ns>, u64<&AcquireRequest::key>,
    tokens<&AcquireRequest::tokens>);
template <>
inline constexpr auto kSchema<AcquireResponse> = message<MsgType::kAcquire>(
    i64<&AcquireResponse::granted>, i64<&AcquireResponse::balance>);
template <>
inline constexpr auto kSchema<RefundRequest> = message<MsgType::kRefund>(
    u32<&RefundRequest::ns>, u64<&RefundRequest::key>,
    tokens<&RefundRequest::tokens>);
template <>
inline constexpr auto kSchema<RefundResponse> = message<MsgType::kRefund>(
    i64<&RefundResponse::accepted>, i64<&RefundResponse::balance>);
template <>
inline constexpr auto kSchema<QueryRequest> = message<MsgType::kQuery>(
    u32<&QueryRequest::ns>, u64<&QueryRequest::key>);
template <>
inline constexpr auto kSchema<QueryResponse> = message<MsgType::kQuery>(
    i64<&QueryResponse::balance>, boolean<&QueryResponse::exists>);
template <>
inline constexpr auto kSchema<BatchAcquireRequest> =
    message<MsgType::kBatchAcquire>(
        u32<&BatchAcquireRequest::ns>,
        vec<&BatchAcquireRequest::ops, kMaxBatchOps>);
template <>
inline constexpr auto kSchema<BatchAcquireResponse> =
    message<MsgType::kBatchAcquire>(
        vec<&BatchAcquireResponse::results, kMaxBatchOps>);

// Admin, error and telemetry messages.
template <>
inline constexpr auto kSchema<ConfigureNamespaceRequest> =
    message<MsgType::kConfigureNamespace>(
        u32<&ConfigureNamespaceRequest::ns>,
        nested<&ConfigureNamespaceRequest::config>);
template <>
inline constexpr auto kSchema<ConfigureNamespaceResponse> =
    message<MsgType::kConfigureNamespace>(
        boolean<&ConfigureNamespaceResponse::created>,
        i64<&ConfigureNamespaceResponse::capacity>);
template <>
inline constexpr auto kSchema<NamespaceInfoRequest> =
    message<MsgType::kNamespaceInfo>(u32<&NamespaceInfoRequest::ns>);
template <>
inline constexpr auto kSchema<NamespaceInfoResponse> =
    message<MsgType::kNamespaceInfo>(
        boolean<&NamespaceInfoResponse::exists>,
        when<&NamespaceInfoResponse::exists, true>(
            nested<&NamespaceInfoResponse::config>,
            i64<&NamespaceInfoResponse::capacity>,
            u64<&NamespaceInfoResponse::accounts>));
template <>
inline constexpr auto kSchema<ErrorResponse> = message<MsgType::kError>(
    enumeration<&ErrorResponse::code, ErrorCode::kOverloaded>,
    when<&ErrorResponse::code, ErrorCode::kOverloaded>(
        tokens<&ErrorResponse::retry_after_us>));
template <>
inline constexpr auto kSchema<StatsRequest> = message<MsgType::kStats>();
template <>
inline constexpr auto kSchema<StatsResponse> = message<MsgType::kStats>(
    vec<&StatsResponse::entries, kMaxStatsEntries>);
template <>
inline constexpr auto kSchema<TracesRequest> =
    message<MsgType::kTraces>(u32<&TracesRequest::max_spans>);
template <>
inline constexpr auto kSchema<TracesResponse> =
    message<MsgType::kTraces>(vec<&TracesResponse::spans, kMaxTraceSpans>);

// Cluster messages.
template <>
inline constexpr auto kSchema<ClusterMapRequest> =
    message<MsgType::kClusterMap>();
template <>
inline constexpr auto kSchema<ClusterMapResponse> =
    message<MsgType::kClusterMap>(nested<&ClusterMapResponse::map>);
template <>
inline constexpr auto kSchema<ApplyMapRequest> =
    message<MsgType::kApplyMap>(nested<&ApplyMapRequest::map>);
template <>
inline constexpr auto kSchema<ApplyMapResponse> = message<MsgType::kApplyMap>(
    boolean<&ApplyMapResponse::accepted>, u64<&ApplyMapResponse::epoch>,
    u64<&ApplyMapResponse::handoffs>);
template <>
inline constexpr auto kSchema<HandoffRequest> = message<MsgType::kHandoff>(
    u64<&HandoffRequest::epoch>, u32<&HandoffRequest::ns>,
    u64<&HandoffRequest::key>, tokens<&HandoffRequest::balance>);
template <>
inline constexpr auto kSchema<HandoffResponse> =
    message<MsgType::kHandoff>(boolean<&HandoffResponse::accepted>);
template <>
inline constexpr auto kSchema<ReplicateRequest> = message<MsgType::kReplicate>(
    u64<&ReplicateRequest::epoch>, u64<&ReplicateRequest::seq>,
    vec<&ReplicateRequest::deltas, kMaxReplicaDeltas>);
template <>
inline constexpr auto kSchema<ReplicaAckRequest> =
    message<MsgType::kReplicaAck>(u64<&ReplicaAckRequest::seq>);
template <>
inline constexpr auto kSchema<PromoteRequest> = message<MsgType::kPromote>(
    u32<&PromoteRequest::failed>, u64<&PromoteRequest::epoch>);
template <>
inline constexpr auto kSchema<PromoteResponse> = message<MsgType::kPromote>(
    boolean<&PromoteResponse::accepted>, u64<&PromoteResponse::epoch>,
    u64<&PromoteResponse::installed>, tokens<&PromoteResponse::forfeited>);
template <>
inline constexpr auto kSchema<RedirectResponse> = message<MsgType::kRedirect>(
    u64<&RedirectResponse::epoch>, u32<&RedirectResponse::owner>);

/// The Request and Response variants decide which types exist as
/// requests and which as responses.
template <typename T>
inline constexpr bool kIsRequest =
    std::is_constructible_v<Request, std::in_place_type_t<T>>;
template <typename T>
inline constexpr bool kIsResponse =
    std::is_constructible_v<Response, std::in_place_type_t<T>>;

[[noreturn]] void reject(const char* what);
[[noreturn]] void reject_bound(const char* what, std::uint64_t value,
                               std::uint64_t bound);

/// Cross-field rules, checked once all of a struct's fields are read.
void validate(const ReplicaDelta& d);         // floor <= balance
void validate(const StatsEntry& e);           // ascending buckets
void validate(const cluster::ClusterMap& m);  // canonical members
void validate(const PromoteRequest& m);       // names a node
void validate(const ErrorResponse& m);        // a defined code

// ---------------------------------------------------------------- writer

template <typename T>
void write(util::BinaryWriter& w, const T& m);

template <typename T, auto M, Kind K, std::uint64_t B>
void put(util::BinaryWriter& w, const T& m, Field<M, K, B>) {
  const auto& v = m.*M;
  if constexpr (K == Kind::kU8 || K == Kind::kBool || K == Kind::kEnum) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (K == Kind::kU32) {
    w.u32(v);
  } else if constexpr (K == Kind::kU64) {
    w.u64(v);
  } else if constexpr (K == Kind::kI64 || K == Kind::kTokens) {
    w.i64(v);
  } else if constexpr (K == Kind::kF64) {
    w.f64(v);
  } else if constexpr (K == Kind::kNested) {
    write(w, v);
  } else {
    // Fail fast on the sender: the receiver would drop an oversized frame
    // as malformed, which surfaces as an opaque client timeout.
    TOKA_CHECK_MSG(v.size() <= B, "wire field of " << v.size()
                                      << " elements exceeds its bound of "
                                      << B);
    if constexpr (K == Kind::kStr) {
      w.str(v);
    } else {
      w.u32(static_cast<std::uint32_t>(v.size()));
      for (const auto& e : v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(e)>, NodeId>) {
          w.u32(e);
        } else {
          write(w, e);
        }
      }
    }
  }
}

template <typename T, auto M, auto V, typename... Fs>
void put(util::BinaryWriter& w, const T& m, When<M, V, Fs...>) {
  if (m.*M == V) (put(w, m, Fs{}), ...);
}

template <typename T>
void write(util::BinaryWriter& w, const T& m) {
  [&]<typename... Fs>(Schema<Fs...>) { (put(w, m, Fs{}), ...); }(kSchema<T>);
}

inline void write_header(util::BinaryWriter& w, const FrameHeader& h) {
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(h.type) | (h.is_response ? kResponseBit : 0) |
       (h.traced ? kTraceBit : 0));
  w.u64(h.id);
  if (h.traced) {
    w.u64(h.trace_id);
    w.u8(h.sampled ? kTraceFlagSampled : 0);
  }
}

/// How many bytes write_header writes for `h`: version, type and id, then
/// a traced request's 9-byte context. A body starts there.
inline std::size_t header_bytes(const FrameHeader& h) {
  return h.traced ? 19 : 10;
}

// ---------------------------------------------------------------- reader

/// The default sink of read(): vector elements are stored in the vector.
struct Store {};

/// Reads `m`'s fields in wire order, then its cross-field rules. Every
/// bound is checked before anything is allocated. A `sink` callable with
/// a vector's element receives the elements instead (the routing walk
/// streams a batch's ops this way, storing nothing) and stops the read by
/// returning false; read() then returns false too.
template <typename T, typename Sink = Store>
bool read(util::BinaryReader& r, T& m, Sink&& sink = {});

template <std::uint64_t Bound, typename V>
V bounded(V v, const char* what) {
  if (static_cast<std::uint64_t>(v) > Bound) reject_bound(what, v, Bound);
  return v;
}

template <typename E>
void read_element(util::BinaryReader& r, E& e) {
  if constexpr (std::is_same_v<E, NodeId>) {
    e = r.u32();
  } else {
    read(r, e);
  }
}

template <typename T, auto M, Kind K, std::uint64_t B, typename Sink>
bool get(util::BinaryReader& r, T& m, Field<M, K, B>, Sink& sink) {
  auto& v = m.*M;
  using V = std::remove_reference_t<decltype(v)>;
  if constexpr (K == Kind::kU8) {
    v = r.u8();
  } else if constexpr (K == Kind::kBool) {
    v = bounded<1>(r.u8(), "boolean byte") != 0;
  } else if constexpr (K == Kind::kEnum) {
    v = static_cast<V>(bounded<B>(r.u8(), "enum byte"));
  } else if constexpr (K == Kind::kU32) {
    v = bounded<B>(r.u32(), "field value");
  } else if constexpr (K == Kind::kU64) {
    v = r.u64();
  } else if constexpr (K == Kind::kI64) {
    v = r.i64();
  } else if constexpr (K == Kind::kTokens) {
    v = r.i64();
    if (v < 0) reject("negative token count");
  } else if constexpr (K == Kind::kF64) {
    v = r.f64();
  } else if constexpr (K == Kind::kNested) {
    read(r, v);
  } else if constexpr (K == Kind::kStr) {
    v.resize(bounded<B>(r.u32(), "string length"));
    for (char& c : v) c = static_cast<char>(r.u8());
  } else {
    using E = typename V::value_type;
    const std::uint32_t n = bounded<B>(r.u32(), "element count");
    if constexpr (std::is_invocable_r_v<bool, Sink&, const E&>) {
      for (std::uint32_t i = 0; i < n; ++i) {
        E e;
        read_element(r, e);
        if (!sink(std::as_const(e))) return false;
      }
    } else {
      v.resize(n);
      for (E& e : v) read_element(r, e);
    }
  }
  return true;
}

template <typename T, auto M, auto V, typename... Fs, typename Sink>
bool get(util::BinaryReader& r, T& m, When<M, V, Fs...>, Sink& sink) {
  return !(m.*M == V) || (get(r, m, Fs{}, sink) && ...);
}

template <typename T, typename Sink>
bool read(util::BinaryReader& r, T& m, Sink&& sink) {
  const bool more = [&]<typename... Fs>(Schema<Fs...>) {
    return (get(r, m, Fs{}, sink) && ...);
  }(kSchema<T>);
  if constexpr (requires { wire::validate(m); }) {
    if (more) wire::validate(m);
  }
  return more;
}

/// The one header reader: version, type byte, id and a request's trace
/// context. Throws util::IoError on a wrong version, a type byte that no
/// Request (or, with kResponseBit, no Response) alternative carries,
/// unknown trace flags or a truncated header.
FrameHeader read_header(util::BinaryReader& r);

}  // namespace wire

/// Encodes any request or response; every frame carries kProtocolVersion.
template <typename T>
  requires wire::kIsRequest<T> || wire::kIsResponse<T>
std::vector<std::byte> encode(const T& m) {
  util::BinaryWriter w;
  // One allocation holds every single-key frame; batches and snapshots
  // grow from there.
  w.reserve(64);
  wire::write_header(w, {wire::kSchema<T>.type, wire::kIsResponse<T>, m.id});
  wire::write(w, m);
  return w.take();
}

std::vector<std::byte> encode(const Request& m);
std::vector<std::byte> encode(const Response& m);

/// Parses a request frame; throws util::IoError on any malformation.
Request decode_request(std::span<const std::byte> payload);
/// Parses the body of the request frame `payload` whose header `head`
/// try_parse_header already read (a request header: checked); throws
/// util::IoError on a malformed body. The frame's trace context is
/// head.trace().
Request decode_request(const FrameHeader& head,
                       std::span<const std::byte> payload);

/// Parses a response frame; throws util::IoError on any malformation.
Response decode_response(std::span<const std::byte> payload);

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
/// query / batch-acquire) whose header `head` try_parse_header already
/// read from `payload`: invokes `fn(ns, key)` for every key the frame
/// addresses, walking a batch's ops in place — no request is materialized,
/// nothing allocates and the header is not read again. This is the
/// cluster layer's ownership check, which would otherwise pay a full
/// decode on every request just to route it (the owned frame is decoded
/// once more by the table server anyway).
///
/// Returns true if the frame was a data-op request walked to the caller's
/// satisfaction (`fn` may return false to stop early); false for any
/// other frame — responses, admin/cluster types, or a body the field
/// reader rejects up to the last key — in which case the caller falls back
/// to the full strict decoder for classification. The walk reads the same
/// field lists as decode_request, with the same per-field checks; only
/// trailing bytes, and the ops after an early stop, go unchecked.
template <typename KeyFn>
bool for_each_data_op_key(const FrameHeader& head,
                          std::span<const std::byte> payload, KeyFn&& fn) {
  if (head.is_response) return false;
  util::BinaryReader r(payload.subspan(wire::header_bytes(head)));
  const auto single = [&](auto m) {
    wire::read(r, m);
    fn(m.ns, m.key);
    return true;
  };
  try {
    switch (head.type) {
      case MsgType::kAcquire: return single(AcquireRequest{});
      case MsgType::kRefund: return single(RefundRequest{});
      case MsgType::kQuery: return single(QueryRequest{});
      case MsgType::kBatchAcquire: {
        BatchAcquireRequest m;  // stays empty: the ops stream to `fn`
        wire::read(r, m,
                   [&](const AcquireOp& op) { return fn(m.ns, op.key); });
        return true;
      }
      default:
        return false;
    }
  } catch (const util::IoError&) {
    return false;  // malformed: let the strict decoder classify the frame
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
