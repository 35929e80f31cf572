// tokend's request loop: an AccountTable exposed over a runtime::Transport.
//
// A standalone server installs itself as the transport's receive handler;
// inside a tokad node it installs none, and cluster::ClusterServer's frame
// triage hands it the frames the node answers as a table server. Either
// way each frame is classified on the transport-owned thread that read it
// (an epoll event loop or the in-process dispatcher). Data ops are posted
// to the ShardEngine worker that owns their shard, which executes them and
// sends the reply from its completion. Admin, stats and trace requests are
// answered on the receiving thread, quiescing the engine where they touch
// the table. Every answer leaves through one reply path, which counts it
// before sending it. The same server runs in-process for tests and as the
// real tokend daemon over the epoll socket mesh.
//
// Failure taxonomy:
//   - requests_served: executed and answered with a success response;
//   - requests_errored: answered with a typed ErrorResponse — the header
//     decoded but the body did not (kMalformedBody), the namespace does
//     not exist (kUnknownNamespace), or a ConfigureNamespace carried a
//     rejected policy (kInvalidConfig);
//   - requests_malformed: not even the header decoded; the frame is
//     dropped unanswered (the fabric is best-effort at-most-once; the
//     client's timeout covers this case);
//   - requests_shed: a data op rejected by the admission bucket with
//     ErrorCode::kOverloaded (carrying a retry-after hint) *before* being
//     decoded or touching the table — the overload valve's whole point is
//     that a shed request costs almost nothing.
//
// With ServerOptions::registry set, the server exports its counters, a
// request-latency histogram, the admission bucket's state, the table's
// stats (including refunds_dropped) and the hot-key sketch into that
// obs::Registry, and answers protocol kStats requests with a snapshot of
// it. With ServerOptions::admission.enabled, data ops beyond the
// per-interval budget are shed (admin, cluster and stats requests are
// always admitted — an operator must be able to reconfigure and observe an
// overloaded server).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/admission.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/transport.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"
#include "service/shard_engine.hpp"
#include "util/types.hpp"

namespace toka::cluster {
class ClusterServer;
}

namespace toka::service {

struct ServerOptions {
  /// Telemetry export target; nullptr disables export (and kStats answers
  /// with an empty snapshot). Must outlive the server.
  obs::Registry* registry = nullptr;
  /// Overload valve; disabled by default (never sheds).
  obs::AdmissionConfig admission{};
  /// Required: the engine that executes the server's data ops. It must run
  /// on the server's table and outlive the server. Data ops are posted to
  /// the owning shard worker; the reply is encoded and sent from the
  /// worker's completion, and the event loop writes the replies queued
  /// before its wake lands as one batch. A full owner queue sheds the op
  /// with a typed kOverloaded. Admin requests and table-sweeping gauges
  /// run under the engine's quiesce.
  ShardEngine* engine = nullptr;
  /// Flight recorder: requests carrying a trace context get decode, shed
  /// and reply-cork spans recorded here (the engine records queue-wait and
  /// execute spans into its own ShardEngineOptions::tracer — give both the
  /// same tracer). The server answers protocol kTraces requests from it.
  /// Must outlive the server.
  obs::Tracer* tracer = nullptr;
  /// Stamped into exported trace spans so a cluster-wide trace shows which
  /// node recorded each one (kNoNode = standalone).
  NodeId node = kNoNode;
  /// Cluster replication only (ignored by a standalone Server): how far
  /// above its advertised replica floor an account may spend before grants
  /// wait for follower acks. 0 = auto, half the namespace capacity. Smaller
  /// = tighter crash-forfeit bound, earlier burst throttling.
  Tokens replication_headroom = 0;
};

class Server {
 public:
  /// Installs the request handler on `transport`. The table, the transport
  /// and options.engine (and options.registry, if set) must outlive the
  /// server. Throws util::InvariantError without an engine on `table`.
  explicit Server(AccountTable& table, runtime::Transport& transport,
                  ServerOptions options = {});

  /// Detaches the handler it installed and waits out any in-flight
  /// request, so frames still arriving afterwards are dropped by the
  /// transport instead of reaching a dead server; then drains the engine
  /// and unregisters its metrics.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Frames executed and answered with a success response.
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Frames answered with a typed ErrorResponse (valid header, but a
  /// malformed body, unknown namespace or invalid config). Nothing is ever
  /// partially applied.
  std::uint64_t requests_errored() const {
    return errored_.load(std::memory_order_relaxed);
  }

  /// Frames dropped because not even the header decoded. A malformed frame
  /// is never partially applied and never answered.
  std::uint64_t requests_malformed() const {
    return malformed_.load(std::memory_order_relaxed);
  }

  /// Data ops answered kOverloaded: shed by the admission bucket, or
  /// bounced off a full shard-owner queue.
  std::uint64_t requests_shed() const {
    return shed_.load(std::memory_order_relaxed);
  }

  /// Server-side batching hint derived from the hot-key sketch: when one
  /// account dominates the acquire traffic, clients gain by batching ops
  /// per frame (one decode + one queue hand-off amortized over the batch).
  /// 1 = no skew worth batching for; grows toward 64 with the top
  /// account's traffic share. Exported as the tokend_batch_hint gauge.
  std::int64_t batch_hint() const;

 private:
  friend class cluster::ClusterServer;
  struct Pending;  ///< engine completion context (defined in server.cpp)

  /// With `attach` false the server is a ClusterServer's: it installs no
  /// handler, so frames reach it only through that node's triage, and it
  /// stamps spans with transport.self() unless options.node is set.
  Server(AccountTable& table, runtime::Transport& transport,
         ServerOptions options, bool attach);

  /// Answers one frame. `head` is its header as try_parse_header read it
  /// (nullopt: garbage, counted malformed and dropped).
  void on_frame(NodeId from, const std::optional<protocol::FrameHeader>& head,
                std::span<const std::byte> payload);
  /// The one answer path: counts `response` (kOverloaded as shed, any
  /// other ErrorResponse as errored, the rest as served), then sends it.
  void reply(NodeId to, const protocol::Response& response);
  /// The response to an admin, stats or traces request (kUnsupported for
  /// the cluster vocabulary); never called with a data op.
  protocol::Response answer(const protocol::Request& request);
  void dispatch_engine(NodeId from, protocol::Request&& request,
                       std::int64_t t0_ns, const protocol::FrameHeader& head);
  void finish_engine_reply(const protocol::Response& response,
                           const Pending& p);
  static void complete_engine_op(ShardOp& op, void* ctx);
  static void complete_engine_batch(EngineBatch& batch, void* ctx);
  void register_metrics();

  // Table sweeps (stats, account counts, the hot-key sketch) iterate every
  // shard, so they run under the engine's quiesce and never race a shard
  // owner.
  TableStats swept_stats() const;
  std::size_t swept_account_count() const;
  std::vector<AccountTable::HotKey> swept_hot_keys(std::size_t n) const;

  AccountTable* table_;
  runtime::Transport* transport_;
  ShardEngine* engine_;
  obs::Tracer* tracer_ = nullptr;
  NodeId node_ = kNoNode;
  obs::Registry* registry_;
  obs::AdmissionBucket admission_;
  obs::Histogram* latency_ = nullptr;  ///< owned by the registry
  bool attached_;                      ///< installed the transport handler
  std::vector<std::string> metric_names_;  ///< what to unregister on exit
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> errored_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace toka::service
