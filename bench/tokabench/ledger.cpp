#include "ledger.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "service/protocol.hpp"
#include "sysstat.hpp"

namespace tokabench {

namespace proto = toka::service::protocol;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return "request";
    case SpanName::kClientIssue: return "client.issue";
    case SpanName::kClientDeliver: return "client.deliver";
    case SpanName::kCallback: return "bench.callback";
    case SpanName::kServerDeliver: return "server.deliver";
    case SpanName::kReplySend: return "epoll.reply_send";
  }
  return "unknown";
}

namespace {

const char* parent_of(SpanName name) {
  switch (name) {
    case SpanName::kRequest: return nullptr;
    case SpanName::kCallback: return "client.deliver";
    default: return "request";
  }
}

/// Request id (and trace id, when the frame carries one) of a frame.
std::optional<proto::FrameHeader> header_of(const std::vector<std::byte>& payload) {
  return proto::try_parse_header(std::span<const std::byte>(payload));
}

}  // namespace

Ledger::Ledger(std::size_t capacity) : spans_(capacity) {}

void Ledger::record(SpanName name, std::uint32_t conn, std::uint64_t id,
                    std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t trace_id) {
  if (!recording_.load(std::memory_order_relaxed)) return;
  const std::size_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= spans_.size()) return;
  spans_[slot] = Span{start_ns, end_ns, id, trace_id, conn, name};
}

std::size_t Ledger::stored() const {
  return std::min(next_.load(std::memory_order_relaxed), spans_.size());
}

bool Ledger::write_json(const std::string& path, const std::string& workload,
                        std::uint64_t seed,
                        const std::vector<toka::obs::SpanRecord>& tracer_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = stored();
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint64_t>> by_trace;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.name == SpanName::kServerDeliver && s.trace_id != 0)
      by_trace.emplace(s.trace_id, std::make_pair(s.conn, s.id));
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  bool first = true;
  const auto emit = [&](const std::string& name, const char* parent,
                        std::uint32_t conn, std::uint64_t id,
                        std::int64_t start, std::int64_t end) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"parent\": %s%s%s, \"conn\": %u, "
                 "\"id\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}",
                 first ? "" : ",\n", name.c_str(), parent ? "\"" : "",
                 parent ? parent : "null", parent ? "\"" : "", conn,
                 static_cast<unsigned long long>(id),
                 static_cast<long long>(start), static_cast<long long>(end));
    first = false;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    emit(to_string(s.name), parent_of(s.name), s.conn, s.id, s.start_ns, s.end_ns);
  }
  for (const toka::obs::SpanRecord& t : tracer_spans) {
    const auto it = by_trace.find(t.trace_id);
    if (it == by_trace.end()) continue;
    const bool decode = t.stage == toka::obs::Stage::kDecode;
    emit(std::string("tracer.") + toka::obs::to_string(t.stage),
         decode ? "server.deliver" : "request", it->second.first,
         it->second.second, t.start_us * 1000, (t.start_us + t.dur_us) * 1000);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

TimedTransport::TimedTransport(toka::runtime::Transport& inner, bool server_side,
                               Ledger& ledger)
    : inner_(&inner), server_side_(server_side), ledger_(&ledger) {}

void TimedTransport::send(toka::NodeId to, std::vector<std::byte> payload) {
  frames_sent.fetch_add(1, std::memory_order_relaxed);
  bytes_sent.fetch_add(payload.size() + 8, std::memory_order_relaxed);
  if (!enabled_.load(std::memory_order_relaxed)) {
    inner_->send(to, std::move(payload));
    return;
  }
  const std::optional<proto::FrameHeader> head = header_of(payload);
  const std::uint64_t id = head ? head->id : 0;
  // The connection is named by the client end: the destination of a
  // reply, the sender of a request.
  const std::uint32_t conn = server_side_ ? to : inner_->self();
  tls_last_sent_id = id;
  tls_last_sent_conn = conn;
  const std::int64_t t0 = now_ns();
  inner_->send(to, std::move(payload));
  const std::int64_t t1 = now_ns();
  send_time.add(t1 - t0);
  if (server_side_) ledger_->record(SpanName::kReplySend, conn, id, t0, t1);
}

void TimedTransport::set_handler(Handler handler) {
  if (!handler) {
    inner_->set_handler({});
    return;
  }
  inner_->set_handler([this, inner_handler = std::move(handler)](
                          toka::NodeId from, std::vector<std::byte> payload) {
    if (!enabled_.load(std::memory_order_relaxed)) {
      inner_handler(from, std::move(payload));
      return;
    }
    const std::optional<proto::FrameHeader> head = header_of(payload);
    const std::uint64_t id = head ? head->id : 0;
    const std::uint64_t trace_id = head && head->traced ? head->trace_id : 0;
    const std::uint32_t conn = server_side_ ? from : inner_->self();
    handler_tid.store(current_tid(), std::memory_order_relaxed);
    tls_callback_ns = 0;
    tls_deliver_id = id;
    tls_deliver_conn = conn;
    const std::int64_t t0 = now_ns();
    inner_handler(from, std::move(payload));
    const std::int64_t t1 = now_ns();
    tls_deliver_id = 0;
    deliver.add(t1 - t0 - tls_callback_ns);
    ledger_->record(server_side_ ? SpanName::kServerDeliver
                                 : SpanName::kClientDeliver,
                    conn, id, t0, t1, trace_id);
  });
}

}  // namespace tokabench
