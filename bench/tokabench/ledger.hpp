// Outside-in tracing for the --traced run. Spans are recorded from the
// benchmark's own code around calls into the program's public functions:
// a Transport wrapper times every send() and every invocation of the
// installed receive handler, and the load generator times the client's
// *_async calls and its own completion callbacks. Spans of one request
// share a (connection, request id) key, parsed from the frame header;
// the program's own obs::Tracer spans join them through the trace id the
// server-side wrapper sees next to the request id.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/transport.hpp"

namespace tokabench {

/// Steady-clock nanoseconds.
std::int64_t now_ns();

enum class SpanName : std::uint8_t {
  kRequest,        ///< issue → completion callback, as the caller sees it
  kClientIssue,    ///< inside Client/ClusterClient *_async
  kClientDeliver,  ///< inside the client endpoint's receive handler
  kCallback,       ///< the benchmark's completion callback (child of deliver)
  kServerDeliver,  ///< inside the server endpoint's receive handler
  kReplySend,      ///< Transport::send of a server reply
};
const char* to_string(SpanName name);

/// Time and calls accumulated at one layer boundary.
struct LayerTime {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  void add(std::int64_t dur_ns) {
    ns.fetch_add(dur_ns, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Time spent in benchmark completion callbacks on this thread since the
/// enclosing handler started; the handler wrapper subtracts it.
inline thread_local std::int64_t tls_callback_ns = 0;
/// The connection and request id of the last frame this thread sent
/// through a traced wrapper (ties an issue span to its request id).
inline thread_local std::uint64_t tls_last_sent_id = 0;
inline thread_local std::uint32_t tls_last_sent_conn = 0;
/// The connection and request id of the reply a client-side wrapper is
/// delivering on this thread (ties a completion callback to its request).
inline thread_local std::uint64_t tls_deliver_id = 0;
inline thread_local std::uint32_t tls_deliver_conn = 0;

class Ledger {
 public:
  /// Keeps at most `capacity` spans; later ones are counted, not stored.
  explicit Ledger(std::size_t capacity);

  /// Spans are stored only while recording is on.
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }

  void record(SpanName name, std::uint32_t conn, std::uint64_t id,
              std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t trace_id = 0);

  std::size_t stored() const;

  /// Writes {"spans": [...]} with this ledger's spans plus the program's
  /// tracer spans whose trace id a stored server.deliver span carries
  /// (renamed "engine.queue_wait", "server.cork", ...). Returns false when
  /// the file cannot be written.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed,
                  const std::vector<toka::obs::SpanRecord>& tracer_spans) const;

 private:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t trace_id = 0;
    std::uint32_t conn = 0;
    SpanName name = SpanName::kRequest;
  };
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> recording_{false};
};

/// Wraps one mesh endpoint and times it from the outside. While disabled
/// it only counts the frames and bytes it sends, without touching a clock.
class TimedTransport final : public toka::runtime::Transport {
 public:
  /// `server_side`: replies leave through send() (recorded as reply
  /// sends); otherwise the wrapped endpoint belongs to a client.
  TimedTransport(toka::runtime::Transport& inner, bool server_side,
                 Ledger& ledger);

  toka::NodeId self() const override { return inner_->self(); }
  void send(toka::NodeId to, std::vector<std::byte> payload) override;
  void set_handler(Handler handler) override;
  void set_peer_down_handler(PeerDownHandler handler) override {
    inner_->set_peer_down_handler(std::move(handler));
  }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool server_side() const { return server_side_; }

  LayerTime deliver;         ///< receive-handler time, callbacks excluded
  LayerTime send_time;       ///< Transport::send time
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};  ///< payload + 8-byte framing
  /// The thread the handler last ran on (an event-loop thread).
  std::atomic<pid_t> handler_tid{0};

 private:
  toka::runtime::Transport* inner_;
  bool server_side_;
  Ledger* ledger_;
  std::atomic<bool> enabled_{false};
};

}  // namespace tokabench
