#include "runtime/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <shared_mutex>
#include <span>

#include "obs/telemetry.hpp"
#include "runtime/framing.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace toka::runtime {

namespace {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

/// Writes header + payload with one writev() syscall in the common case
/// (falling back to write_exact for short writes). Frames are small, so
/// the single syscall — not the copy — is what matters on the wire hot
/// path: it halves the per-frame syscall count.
bool write_frame(int fd, const std::uint8_t (&header)[8],
                 const std::byte* payload, std::size_t len) {
  iovec iov[2];
  iov[0].iov_base = const_cast<std::uint8_t*>(header);
  iov[0].iov_len = sizeof header;
  iov[1].iov_base = const_cast<std::byte*>(payload);
  iov[1].iov_len = len;
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = len > 0 ? 2 : 1;
  const ssize_t put = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
  if (put < 0) return false;
  std::size_t done = static_cast<std::size_t>(put);
  const std::size_t total = sizeof header + len;
  if (done == total) return true;
  // Short write: finish byte-precise with the slow path.
  if (done < sizeof header) {
    if (!write_exact(fd, header + done, sizeof header - done)) return false;
    done = sizeof header;
  }
  return write_exact(fd, payload + (done - sizeof header),
                     len - (done - sizeof header));
}

}  // namespace

/// Send-side burst coalescing ("corking") for handler-issued replies.
///
/// While a read_loop thread is delivering a burst of buffered frames, any
/// send() it performs on its own endpoint (a server answering requests, a
/// pipelined client issuing follow-up calls from completion callbacks) is
/// appended to this per-thread buffer instead of hitting the socket; the
/// read loop flushes each peer's accumulated frames with one write before
/// it blocks on the socket again. Under pipelining this turns N reply
/// syscalls into one per recv burst; a burst of one frame flushes
/// immediately, so request/response latency is unchanged.
struct TcpCork {
  void* owner = nullptr;  ///< the Endpoint whose read thread corks
  std::map<NodeId, std::vector<std::uint8_t>> by_peer;  ///< framed bytes
};

namespace {
thread_local TcpCork* tls_cork = nullptr;
}  // namespace

class TcpMesh::Endpoint final : public Transport {
 public:
  Endpoint(TcpMesh& mesh, NodeId id) : mesh_(&mesh), id_(id) {
    listen_fd_ = Fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!listen_fd_.valid())
      throw util::IoError("socket(): " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(listen_fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw util::IoError("bind(): " + std::string(std::strerror(errno)));
    socklen_t len = sizeof addr;
    if (::getsockname(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
      throw util::IoError("getsockname(): " +
                          std::string(std::strerror(errno)));
    port_ = ntohs(addr.sin_port);
    if (::listen(listen_fd_.get(), 64) != 0)
      throw util::IoError("listen(): " + std::string(std::strerror(errno)));
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~Endpoint() override { shutdown(); }

  NodeId self() const override { return id_; }
  std::uint16_t port() const { return port_; }
  std::uint64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_relaxed);
  }

  void set_handler(Handler handler) override {
    // Exclusive lock: blocks until every in-flight delivery (shared lock
    // in read_loop) has finished, so after a detach returns the old
    // handler is guaranteed to never run again.
    std::unique_lock lock(handler_mutex_);
    handler_ = std::move(handler);
  }

  void set_peer_down_handler(PeerDownHandler handler) override {
    // Same quiesce rule as set_handler: after a detach returns, no
    // in-flight notification of the old handler remains.
    std::unique_lock lock(peer_down_mutex_);
    peer_down_ = std::move(handler);
  }

  void send(NodeId to, std::vector<std::byte> payload) override {
    if (stopping_.load()) return;
    std::uint8_t header[8];
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) header[i] = (len >> (8 * i)) & 0xFF;
    for (int i = 0; i < 4; ++i) header[4 + i] = (id_ >> (8 * i)) & 0xFF;
    if (tls_cork != nullptr && tls_cork->owner == this) {
      // Issued from this endpoint's own read thread mid-burst: coalesce.
      std::vector<std::uint8_t>& buf = tls_cork->by_peer[to];
      buf.insert(buf.end(), header, header + sizeof header);
      const auto* p = reinterpret_cast<const std::uint8_t*>(payload.data());
      buf.insert(buf.end(), p, p + payload.size());
      return;
    }
    bool failed = false;
    {
      // The fd is looked up under send_mutex_, which shutdown() holds to
      // close connections, so it cannot be closed (and reused) mid-write.
      std::lock_guard lock(send_mutex_);
      const int fd = connection_to(to);
      if (fd < 0) {
        // Unknown or dead peer: the frame is dropped (best effort), and the
        // failed connect is a peer-down observation worth surfacing.
        failed = true;
      } else if (!write_frame(fd, header, payload.data(), payload.size())) {
        drop_connection(to);
        failed = true;
      }
    }
    // Notified outside send_mutex_: the handler may legitimately call
    // send() again (e.g. a cluster client re-routing a rejected call).
    if (failed) notify_peer_down(to);
  }

  void shutdown() {
    bool expected = false;
    if (!stopping_.compare_exchange_strong(expected, true)) return;
    // shutdown() wakes the blocked accept(); only close the fd after the
    // acceptor has been joined, so the thread never reads a dead handle.
    ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    listen_fd_.reset();
    {
      // Wakes any writer blocked on a full socket; it fails and lets go of
      // send_mutex_, under which the fds are then closed.
      std::lock_guard lock(conn_mutex_);
      for (auto& [peer, fd] : outgoing_) ::shutdown(fd.get(), SHUT_RDWR);
    }
    {
      std::lock_guard send_lock(send_mutex_);
      std::lock_guard lock(conn_mutex_);
      outgoing_.clear();
    }
    {
      std::lock_guard lock(reader_mutex_);
      for (auto& [fd, thread] : readers_) {
        ::shutdown(fd, SHUT_RDWR);
      }
    }
    // Readers exit on EOF after shutdown; join them.
    for (;;) {
      std::thread t;
      int fd = -1;
      {
        std::lock_guard lock(reader_mutex_);
        if (readers_.empty()) break;
        fd = readers_.begin()->first;
        t = std::move(readers_.begin()->second);
        readers_.erase(readers_.begin());
      }
      if (t.joinable()) t.join();
      ::close(fd);
    }
  }

 private:
  void accept_loop() {
    int backoff_ms = 1;
    for (;;) {
      const int conn = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (conn < 0) {
        if (stopping_.load()) return;  // socket shut down: exiting
        const int err = errno;
        // Transient failures must not kill the acceptor — before this
        // classification existed, one EMFILE burst silently turned the
        // endpoint deaf forever. EINTR/ECONNABORTED just retry; resource
        // exhaustion backs off (bounded, doubling to 100ms) while pending
        // connections wait in the listen backlog.
        if (err == EINTR || err == ECONNABORTED) continue;
        if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
            err == ENOMEM) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
          backoff_ms = std::min(backoff_ms * 2, 100);
          continue;
        }
        return;  // unexpected fatal listener error
      }
      backoff_ms = 1;
      std::lock_guard lock(reader_mutex_);
      readers_.emplace(conn, std::thread([this, conn] { read_loop(conn); }));
    }
  }

  /// Writes each peer's corked frames with one syscall and empties the
  /// buffers. Called by the read thread whenever it is about to block.
  /// Peer-down notifications are deferred past the loop: a handler may
  /// send() again, and with the cork still active that would insert into
  /// the very map being iterated.
  void flush_cork(TcpCork& cork) {
    std::vector<NodeId> failed;
    for (auto& [peer, bytes] : cork.by_peer) {
      if (bytes.empty()) continue;
      bool write_failed = false;
      {
        std::lock_guard lock(send_mutex_);  // see send(): lookup + write
        const int fd = connection_to(peer);
        write_failed = fd < 0;
        if (fd >= 0 && !write_exact(fd, bytes.data(), bytes.size())) {
          drop_connection(peer);
          write_failed = true;
        }
      }
      bytes.clear();
      if (write_failed) failed.push_back(peer);
    }
    for (const NodeId peer : failed) notify_peer_down(peer);
  }

  /// RAII scope installing this thread's cork for `owner`'s read loop.
  struct CorkScope {
    Endpoint* endpoint;
    TcpCork cork;
    explicit CorkScope(Endpoint* ep) : endpoint(ep) {
      cork.owner = ep;
      tls_cork = &cork;
    }
    ~CorkScope() {
      tls_cork = nullptr;
      endpoint->flush_cork(cork);  // backstop: never strand buffered frames
    }
  };

  void read_loop(int fd) {
    // The body tracks which peer speaks on this connection; when the
    // connection dies (EOF, error, corrupt stream) and we are not the one
    // shutting down, that peer is reported down — after the cork scope has
    // unwound, so the notification never runs under internal locks.
    NodeId peer = kNoNode;
    read_frames(fd, peer);
    if (peer != kNoNode && !stopping_.load()) notify_peer_down(peer);
  }

  void read_frames(int fd, NodeId& peer) {
    // Buffered framing through the shared FrameDecoder — the same codec
    // the epoll loops run, so segmentation behaviour is identical on both
    // transports. One recv() pulls whatever the kernel has queued — under
    // pipelining that is dozens of frames — and drain() delivers them all
    // without touching the socket again. Handler sends issued during the
    // burst are corked and leave as one write per peer when the burst
    // ends: the send-side half of the pipelined fast path.
    CorkScope cork_scope(this);
    FrameDecoder decoder;
    for (;;) {
      // The previous burst is parsed; replies leave (one write per peer)
      // before this thread blocks on the socket again.
      flush_cork(cork_scope.cork);
      const std::span<std::uint8_t> buf = decoder.writable(16 * 1024);
      const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
      if (got <= 0) return;  // EOF or error: connection is done
      decoder.commit(static_cast<std::size_t>(got));
      const bool ok =
          decoder.drain([&](NodeId from, std::vector<std::byte> payload) {
            peer = from;
            // Deliver under a shared lock: readers stay concurrent with
            // each other, but set_handler's exclusive lock waits them out.
            std::shared_lock lock(handler_mutex_);
            if (handler_ && !stopping_.load())
              handler_(from, std::move(payload));
          });
      if (!ok) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        return;  // corrupt stream: length past kMaxFrameBytes
      }
    }
  }

  /// Returns a connected fd to `to`, opening one if needed. -1 on failure.
  /// Caller holds send_mutex_ and uses the fd only while holding it.
  int connection_to(NodeId to) {
    std::lock_guard lock(conn_mutex_);
    auto it = outgoing_.find(to);
    if (it != outgoing_.end()) return it->second.get();
    if (to >= mesh_->node_count()) return -1;
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) return -1;
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(mesh_->port_of(to));
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0)
      return -1;
    const int raw = fd.get();
    outgoing_.emplace(to, std::move(fd));
    return raw;
  }

  void drop_connection(NodeId to) {
    // send_mutex_ held by caller; conn changes take conn_mutex_.
    std::lock_guard lock(conn_mutex_);
    outgoing_.erase(to);
  }

  /// One frame of the per-thread notification stack: which endpoints are
  /// currently inside notify_peer_down on this thread. A peer-down handler
  /// may synchronously send() again (a cluster client re-routing), and
  /// that send may fail on the *same* endpoint — without the guard that
  /// would re-acquire peer_down_mutex_ shared recursively, which is UB
  /// and deadlocks against a queued writer (set_peer_down_handler).
  struct NotifyFrame {
    const void* endpoint;
    NotifyFrame* prev;
  };
  static inline thread_local NotifyFrame* tls_notifying = nullptr;

  /// Reports `peer` down. Never called with send_mutex_/conn_mutex_ held —
  /// the handler may send (re-route) or install handlers from the callback.
  /// Re-entrant notifications for the same endpoint on the same thread are
  /// dropped (best-effort semantics; the nested call's own deadline covers
  /// it).
  void notify_peer_down(NodeId peer) {
    if (stopping_.load()) return;
    for (NotifyFrame* f = tls_notifying; f != nullptr; f = f->prev) {
      if (f->endpoint == this) return;
    }
    NotifyFrame frame{this, tls_notifying};
    tls_notifying = &frame;
    {
      std::shared_lock lock(peer_down_mutex_);
      if (peer_down_) peer_down_(peer);
    }
    tls_notifying = frame.prev;
  }

  TcpMesh* mesh_;
  NodeId id_;
  std::uint16_t port_ = 0;
  Fd listen_fd_;
  std::thread acceptor_;
  std::shared_mutex handler_mutex_;
  Handler handler_;
  std::shared_mutex peer_down_mutex_;
  PeerDownHandler peer_down_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> frames_rejected_{0};

  std::mutex conn_mutex_;
  std::map<NodeId, Fd> outgoing_;
  std::mutex send_mutex_;

  std::mutex reader_mutex_;
  std::map<int, std::thread> readers_;
};

TcpMesh::TcpMesh(std::size_t node_count) {
  endpoints_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i)
    endpoints_.push_back(
        std::make_unique<Endpoint>(*this, static_cast<NodeId>(i)));
}

TcpMesh::~TcpMesh() {
  if (registry_ != nullptr) registry_->remove("tokend_tcp_frames_rejected");
  for (auto& ep : endpoints_) ep->shutdown();
}

std::uint64_t TcpMesh::frames_rejected(NodeId id) const {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  return endpoints_[id]->frames_rejected();
}

std::uint64_t TcpMesh::frames_rejected() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints_) total += ep->frames_rejected();
  return total;
}

void TcpMesh::register_metrics(obs::Registry& registry) {
  registry_ = &registry;
  registry.counter_fn("tokend_tcp_frames_rejected", [this] {
    return static_cast<double>(frames_rejected());
  });
}

Transport& TcpMesh::endpoint(NodeId id) {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  return *endpoints_[id];
}

std::uint16_t TcpMesh::port_of(NodeId id) const {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  return endpoints_[id]->port();
}

void TcpMesh::shutdown_endpoint(NodeId id) {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  endpoints_[id]->shutdown();
}

}  // namespace toka::runtime
