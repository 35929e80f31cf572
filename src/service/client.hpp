// Client library for tokend: an asynchronous pipelined core with
// synchronous wrappers, over one runtime::Transport endpoint.
//
// Every call gets a fresh request id and a slot in a completion registry;
// any number of calls can be in flight on the one endpoint at once
// (pipelining), from any number of application threads. Responses arriving
// on the transport's receive thread are correlated by id and complete the
// call — as a std::future, or by invoking the caller's completion callback
// on the receive thread. Per-call deadlines are swept by a hashed timeout
// wheel (a util::Ticker stepping at ~timeout/8): an expired call's
// slot is reclaimed and its future is rejected with util::IoError; a reply
// straggling in afterwards finds no slot and is dropped without touching
// dead state. The wheel holds only calls in flight: answering a call
// unarms its timer in O(1), and rejecting every call on peer-down or
// destroying the client empties the wheel. So the registry's memory
// follows the calls in flight, not the call rate times the timeout, and a
// sweep never visits an answered call.
//
// The synchronous methods are thin wrappers — acquire(...) is exactly
// acquire_async(...).get() — so pre-async call sites compile and behave
// unchanged (a lost frame still surfaces as util::IoError after the
// timeout, not a hang). A server-side failure surfaces as
// protocol::RpcError (which IS-A util::IoError) carrying the typed code,
// and a cluster redirect as protocol::RedirectError.
//
// Peer death is fail-fast: when the transport observes the connection to
// the server close or fail (TCP EOF, refused connect, a send to a dead
// connection), every in-flight call is rejected immediately with
// util::IoError("... connection closed"), instead of each ripening into
// its own timeout — the cluster client's re-routing logic depends on this.
// The report arrives on a transport thread, never inside a send, so a call
// issued from one of those completions to the same dead server is
// reported and rejected the same way. The per-call deadline stays as the
// fallback for fabrics that cannot observe peer death.
//
// Overload is honored client-side: when the server sheds a call with
// ErrorCode::kOverloaded, the call fails with protocol::OverloadedError
// (IS-A RpcError) and the client opens a backoff window of the server's
// retry-after hint. Data ops issued inside the window fail immediately
// with OverloadedError *without touching the wire* — the flash crowd stops
// hammering a server that already said no, which is what lets it drain.
// Admin, cluster and stats calls are never suppressed (an operator must be
// able to inspect and reconfigure an overloaded server).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_map.hpp"
#include "runtime/transport.hpp"
#include "service/account_table.hpp"
#include "service/protocol.hpp"
#include "util/clock.hpp"
#include "util/types.hpp"

namespace toka::obs {
class Tracer;
}

namespace toka::service {

/// Outcome of pushing a membership map to one node.
struct ApplyMapResult {
  bool accepted = false;       ///< false: the node already has this epoch+
  std::uint64_t epoch = 0;     ///< the node's map epoch after the call
  std::uint64_t handoffs = 0;  ///< accounts the node started moving away
};

class Client {
 public:
  /// Completion callbacks run on the transport's receive thread (or, for
  /// timeouts, on the sweeper thread). Exactly one of (result, error) is
  /// meaningful: error == nullptr means success.
  template <typename T>
  using Callback = std::function<void(T result, std::exception_ptr error)>;

  /// Installs the response handler on `transport` (which must be the
  /// client's own endpoint, not the server's) and remembers the server's
  /// node id. `timeout_us` is the default per-call deadline. The transport
  /// must outlive the client.
  Client(runtime::Transport& transport, NodeId server,
         TimeUs timeout_us = 5 * duration::kSecond);

  /// Detaches the response handler and waits out any in-flight delivery
  /// (so a straggler frame can never touch a dead client), stops the
  /// timeout sweeper, and rejects any still-outstanding async calls with
  /// util::IoError.
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Attaches a flight recorder: every data op issued afterwards is
  /// stamped with a trace context (a fresh id, sampled per the tracer's
  /// 1-in-N policy — or the caller's own context when one is passed
  /// explicitly) and records a Stage::kClient span covering the full
  /// round trip when it completes. Not synchronized: attach before
  /// issuing calls, from the constructing thread. The tracer must outlive
  /// the client. nullptr detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // ------------------------------------------------- synchronous wrappers
  // Each is async + .get(); throws util::IoError on timeout and
  // protocol::RpcError on a typed server error. The namespace-less
  // overloads target kDefaultNamespace.

  /// Tries to take `n` tokens for `key`.
  AcquireResult acquire(std::uint64_t key, Tokens n) {
    return acquire(kDefaultNamespace, key, n);
  }
  AcquireResult acquire(NamespaceId ns, std::uint64_t key, Tokens n) {
    return acquire_async(ns, key, n).get();
  }

  /// Gives back up to `n` previously granted tokens.
  RefundResult refund(std::uint64_t key, Tokens n) {
    return refund(kDefaultNamespace, key, n);
  }
  RefundResult refund(NamespaceId ns, std::uint64_t key, Tokens n) {
    return refund_async(ns, key, n).get();
  }

  /// Reads the balance without creating an account.
  QueryResult query(std::uint64_t key) { return query(kDefaultNamespace, key); }
  QueryResult query(NamespaceId ns, std::uint64_t key) {
    return query_async(ns, key).get();
  }

  /// Executes all ops in one round trip; results align with `ops`.
  std::vector<AcquireResult> acquire_batch(std::span<const AcquireOp> ops) {
    return acquire_batch(kDefaultNamespace, ops);
  }
  std::vector<AcquireResult> acquire_batch(NamespaceId ns,
                                           std::span<const AcquireOp> ops) {
    return acquire_batch_async(ns, ops).get();
  }

  // ------------------------------------------------------- async core
  // `timeout_us` == 0 means the client's default deadline. The trailing
  // `trace` pointer (callback flavors) stamps the caller's own context on
  // the frame instead of minting one — the cluster client uses this to
  // keep one trace id across a redirect retry; it is read before the call
  // returns and need not outlive it.

  std::future<AcquireResult> acquire_async(std::uint64_t key, Tokens n) {
    return acquire_async(kDefaultNamespace, key, n);
  }
  std::future<AcquireResult> acquire_async(NamespaceId ns, std::uint64_t key,
                                           Tokens n, TimeUs timeout_us = 0);
  void acquire_async(NamespaceId ns, std::uint64_t key, Tokens n,
                     Callback<AcquireResult> done, TimeUs timeout_us = 0,
                     const protocol::TraceContext* trace = nullptr);

  std::future<RefundResult> refund_async(NamespaceId ns, std::uint64_t key,
                                         Tokens n, TimeUs timeout_us = 0);
  void refund_async(NamespaceId ns, std::uint64_t key, Tokens n,
                    Callback<RefundResult> done, TimeUs timeout_us = 0,
                    const protocol::TraceContext* trace = nullptr);

  std::future<QueryResult> query_async(NamespaceId ns, std::uint64_t key,
                                       TimeUs timeout_us = 0);
  void query_async(NamespaceId ns, std::uint64_t key, Callback<QueryResult> done,
                   TimeUs timeout_us = 0,
                   const protocol::TraceContext* trace = nullptr);

  std::future<std::vector<AcquireResult>> acquire_batch_async(
      NamespaceId ns, std::span<const AcquireOp> ops, TimeUs timeout_us = 0);
  void acquire_batch_async(NamespaceId ns, std::span<const AcquireOp> ops,
                           Callback<std::vector<AcquireResult>> done,
                           TimeUs timeout_us = 0,
                           const protocol::TraceContext* trace = nullptr);

  // ------------------------------------------------------------- admin

  /// Creates namespace `ns` with the given policy, or resets it if it
  /// already exists. Returns true if newly created. Throws
  /// protocol::RpcError{kInvalidConfig} on a rejected policy.
  bool configure_namespace(NamespaceId ns, const NamespaceConfig& config);

  /// Policy/capacity/account-count of `ns`, or nullopt if it doesn't exist.
  std::optional<NamespaceInfo> namespace_info(NamespaceId ns);

  // ------------------------------------------------------------ cluster

  /// The server's current membership map. Throws protocol::RpcError
  /// {kUnsupported} if the server is not a cluster node.
  cluster::ClusterMap fetch_cluster_map();
  void fetch_cluster_map_async(Callback<cluster::ClusterMap> done,
                               TimeUs timeout_us = 0);

  /// Pushes `map` to the server; the node adopts it if strictly newer and
  /// starts handing off the accounts it no longer owns.
  ApplyMapResult apply_cluster_map(const cluster::ClusterMap& map);

  // --------------------------------------------------------- telemetry

  /// The server's kStats snapshot (empty if the server has no registry).
  /// Never suppressed by the backoff window.
  std::vector<protocol::StatsEntry> stats();
  void stats_async(Callback<std::vector<protocol::StatsEntry>> done,
                   TimeUs timeout_us = 0);

  /// The server's flight-recorder snapshot, oldest span first (empty if
  /// the server has no tracer). `max_spans` caps the reply; 0 means the
  /// server-side limit. Never suppressed by the backoff window.
  std::vector<protocol::TraceSpan> fetch_traces(std::uint32_t max_spans = 0);
  void fetch_traces_async(std::uint32_t max_spans,
                          Callback<std::vector<protocol::TraceSpan>> done,
                          TimeUs timeout_us = 0);

  // ------------------------------------------------------------ counters

  /// Calls that timed out so far (each was rejected with util::IoError).
  std::uint64_t timeouts() const {
    return timeouts_.load(std::memory_order_relaxed);
  }

  /// Times the fabric reported the server's connection closed/failed; each
  /// occurrence rejected every in-flight call with util::IoError.
  std::uint64_t disconnects() const {
    return disconnects_.load(std::memory_order_relaxed);
  }

  /// kOverloaded replies received from the server (each opened/extended
  /// the backoff window).
  std::uint64_t overloads() const {
    return overloads_.load(std::memory_order_relaxed);
  }

  /// Data ops rejected locally inside the backoff window (they never
  /// reached the wire).
  std::uint64_t backoff_rejections() const {
    return backoff_rejections_.load(std::memory_order_relaxed);
  }

  /// Calls in flight right now (registered, neither answered nor expired).
  std::size_t inflight() const;

  /// Timers armed on the timeout wheel right now, summed over its slots.
  /// Equals inflight() whenever no call is being started or finished.
  std::size_t armed() const;

  /// Runs one synchronous sweep of the timeout wheel, expiring every call
  /// whose deadline has passed (their futures reject with util::IoError).
  /// The background sweeper does this automatically every tick; external
  /// event loops (or tests that must not depend on sweeper scheduling)
  /// can force a pass. Returns the number of calls expired.
  std::size_t expire_overdue();

 private:
  /// Type-erased completion: receives the decoded response, or an error.
  using Completion =
      std::function<void(protocol::Response response, std::exception_ptr error)>;

  /// Deadlines are bucketed into a fixed ring of slots. Every entry of a
  /// slot is a call in flight, so a sweep costs O(calls in flight whose
  /// deadline hashed to the swept ticks), never O(calls issued).
  static constexpr std::size_t kWheelSlots = 256;

  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Registers the slot, arms the wheel and sends the frame. Calls marked
  /// `data_op` honor the overload backoff window (rejected locally with
  /// OverloadedError while it is open).
  void start_call(std::uint64_t id, std::vector<std::byte> frame,
                  Completion done, TimeUs timeout_us, bool data_op = false);
  /// Stamps a trace context onto `frame` — the caller's own (`trace`) or
  /// a tracer-minted one — and wraps `done` to record the round-trip
  /// kClient span on completion. Identity when the call is untraced.
  Completion traced_call(std::vector<std::byte>& frame, Completion done,
                         const protocol::TraceContext* trace, NamespaceId ns,
                         std::uint64_t key);
  void on_frame(NodeId from, std::vector<std::byte> payload);
  void on_peer_down(NodeId peer);

  runtime::Transport* transport_;
  NodeId server_;
  obs::Tracer* tracer_ = nullptr;
  TimeUs timeout_us_;
  TimeUs wheel_tick_us_;
  util::Clock clock_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> overloads_{0};
  std::atomic<std::uint64_t> backoff_rejections_{0};
  /// End of the overload backoff window, on clock_ (0 = none).
  std::atomic<TimeUs> suppress_until_us_{0};

  struct Pending {
    Completion done;
    TimeUs deadline_us = 0;
    TimeUs timeout_us = 0;  ///< the effective per-call timeout (for errors)
    std::uint32_t slot = 0;  ///< wheel slot holding this call's timer
    std::uint32_t pos = 0;   ///< index of the timer in that slot
  };
  using Registry = std::unordered_map<std::uint64_t, Pending>;
  /// A timer: the registry entry it belongs to. unordered_map nodes never
  /// move, so the pointer stays valid until the entry is erased.
  using Timer = Registry::value_type*;

  /// Takes the call's timer off its slot by swap-remove: the slot's last
  /// timer moves into its place. O(1), no hash lookup. Needs mu_.
  void unarm(Pending& pending);

  mutable std::mutex mu_;
  Registry pending_;
  /// Timers by deadline slot. Invariant: every timer in a slot belongs to
  /// a call in pending_, and pending_[id].pos is its index there.
  std::vector<std::vector<Timer>> wheel_;
  std::int64_t swept_tick_ = -1;  ///< last wheel tick fully processed
  bool closed_ = false;           ///< no new calls; reject immediately
  util::Ticker sweeper_;  ///< expire_overdue() every wheel tick
};

}  // namespace toka::service
