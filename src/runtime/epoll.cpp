#include "runtime/epoll.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/telemetry.hpp"
#include "runtime/framing.hpp"
#include "util/error.hpp"

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

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// epoll_event user-data tags for the two non-connection fds.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTag = 1;

/// The event loop currently executing on this thread (nullptr elsewhere):
/// a send made on a connection's owner loop needs no wake, since that
/// loop flushes at the end of its iteration.
thread_local const void* tls_epoll_loop = nullptr;

}  // namespace

class EpollMesh::Endpoint final : public Transport, public LoopHost {
 public:
  Endpoint(EpollMesh& mesh, NodeId id, std::size_t io_threads)
      : mesh_(&mesh), id_(id) {
    listen_fd_ = Fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!listen_fd_.valid())
      throw util::IoError("socket(): " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(listen_fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
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
    if (::listen(listen_fd_.get(), 128) != 0)
      throw util::IoError("listen(): " + std::string(std::strerror(errno)));
    set_nonblocking(listen_fd_.get());

    const std::size_t loops = std::max<std::size_t>(io_threads, 1);
    loops_.reserve(loops);
    for (std::size_t i = 0; i < loops; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->epoll_fd = Fd(::epoll_create1(0));
      if (!loop->epoll_fd.valid())
        throw util::IoError("epoll_create1(): " +
                            std::string(std::strerror(errno)));
      loop->wake_fd = Fd(::eventfd(0, EFD_NONBLOCK));
      if (!loop->wake_fd.valid())
        throw util::IoError("eventfd(): " + std::string(std::strerror(errno)));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kWakeTag;
      ::epoll_ctl(loop->epoll_fd.get(), EPOLL_CTL_ADD, loop->wake_fd.get(),
                  &ev);
      loops_.push_back(std::move(loop));
    }
    // The listener lives on loop 0, level-triggered: after a transient
    // accept failure (EMFILE...) the next epoll_wait simply re-reports it.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    ::epoll_ctl(loops_[0]->epoll_fd.get(), EPOLL_CTL_ADD, listen_fd_.get(),
                &ev);
    for (std::size_t i = 0; i < loops; ++i)
      loops_[i]->thread = std::thread([this, i] { loop_run(i); });
  }

  ~Endpoint() override { shutdown(); }

  NodeId self() const override { return id_; }
  std::uint16_t port() const { return port_; }
  std::uint64_t frames_rejected() const {
    return frames_rejected_.load(std::memory_order_relaxed);
  }

  void set_handler(Handler handler) override {
    // Exclusive lock: waits out in-flight deliveries (shared lock on the
    // loop threads), so a detached handler never runs afterwards.
    std::unique_lock lock(handler_mutex_);
    handler_ = std::move(handler);
  }

  void set_peer_down_handler(PeerDownHandler handler) override {
    std::unique_lock lock(peer_down_mutex_);
    peer_down_ = std::move(handler);
  }

  LoopHost* loop_host() override { return this; }
  std::size_t loop_count() const override { return loops_.size(); }

  std::size_t current_loop() const override {
    for (std::size_t i = 0; i < loops_.size(); ++i) {
      if (tls_epoll_loop == loops_[i].get()) return i;
    }
    return kNoLoop;
  }

  void wake(std::size_t loop) override { wake_loop(*loops_[loop]); }

  bool attach(LoopWork& work) override {
    // Under work_mu_, like shutdown's stopping_ flip: a work installed
    // before the flip is seen by every loop as it exits.
    std::lock_guard lock(work_mu_);
    if (stopping_.load() || work_.load() != nullptr) return false;
    work_.store(&work);
    return true;
  }

  void detach(LoopWork& work) override {
    std::lock_guard lock(work_mu_);
    if (work_.load() != &work) return;
    work_.store(nullptr);
    // A loop that loaded the work before the store is inside a call (maybe
    // parked in it for a quiesce): wait it out.
    for (auto& loop : loops_) {
      while (loop->in_work.load()) std::this_thread::yield();
    }
  }

  void send(NodeId to, std::vector<std::byte> payload) override {
    if (stopping_.load()) return;
    const std::shared_ptr<Conn> conn = connection_to(to);
    bool dead = conn == nullptr;
    if (!dead) {
      std::lock_guard lock(conn->out_mu);
      dead = conn->dead;
      if (!dead) append_frame(conn->out, id_, payload);
    }
    if (dead) {
      // Unknown or dead peer: best-effort drop, surfaced as peer-down.
      notify_peer_down(to);
      return;
    }
    // Queue the flush. A send on the owner loop's thread (a server handler
    // answering mid-burst) leaves with the flush that ends the iteration,
    // one write per connection for the whole burst; any other thread wakes
    // the loop, and sends queued before the wake lands share it.
    Loop& loop = *loops_[conn->loop];
    bool wake = false;
    {
      std::lock_guard lock(loop.mu);
      if (!conn->flush_queued) {
        conn->flush_queued = true;
        loop.pending_flush.push_back(conn);
        wake = tls_epoll_loop != &loop;
      }
    }
    if (wake) wake_loop(loop);
  }

  void shutdown() {
    {
      std::lock_guard lock(work_mu_);
      bool expected = false;
      if (!stopping_.compare_exchange_strong(expected, true)) return;
    }
    for (auto& loop : loops_) wake_loop(*loop);
    for (auto& loop : loops_) {
      if (loop->thread.joinable()) loop->thread.join();
    }
    // Loop threads are gone: tear the sockets down single-threaded. Peers
    // observe the closes as EOF and fire their own peer-down handlers.
    listen_fd_.reset();
    {
      std::lock_guard lock(conn_mu_);
      by_peer_.clear();
    }
    for (auto& loop : loops_) {
      std::vector<std::shared_ptr<Conn>> adds;
      {
        std::lock_guard lock(loop->mu);
        adds.swap(loop->pending_adds);
        loop->pending_flush.clear();
      }
      for (auto& conn : adds) close_fd_of(*conn);
      for (auto& [fd, conn] : loop->conns) close_fd_of(*conn);
      loop->conns.clear();
      loop->graveyard.clear();
    }
  }

 private:
  struct Conn {
    int fd = -1;
    std::size_t loop = 0;       ///< owner loop index
    NodeId peer = kNoNode;      ///< outgoing: target; incoming: learned
    FrameDecoder decoder;
    // The send buffer every send appends to (out_mu); out_off tracks
    // partial writes.
    std::mutex out_mu;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    bool dead = false;          ///< set under out_mu exactly once
    bool want_write = false;    ///< EPOLLOUT armed (loop thread only)
    bool flush_queued = false;  ///< in pending_flush (guarded by loop mu)
  };

  struct Loop {
    Fd epoll_fd;
    Fd wake_fd;
    std::thread thread;
    std::mutex mu;  ///< guards the pending lists and Conn::flush_queued
    std::vector<std::shared_ptr<Conn>> pending_adds;
    std::vector<std::shared_ptr<Conn>> pending_flush;
    std::vector<NodeId> pending_down;  ///< peer-down reports (loop 0 only)
    /// Set while the loop is inside a LoopWork call (detach waits on it).
    std::atomic<bool> in_work{false};
    // Loop-thread-only:
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    /// Connections closed this iteration: kept alive until the iteration
    /// ends so raw pointers in already-returned epoll events stay valid.
    std::vector<std::shared_ptr<Conn>> graveyard;
    int accept_backoff_ms = 1;
  };

  void wake_loop(Loop& loop) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(loop.wake_fd.get(), &one, sizeof one);
  }

  static void close_fd_of(Conn& conn) {
    std::lock_guard lock(conn.out_mu);
    if (conn.dead) return;
    conn.dead = true;
    ::close(conn.fd);
  }

  /// Runs `fn` on the installed work, if any. The flag and the load are
  /// sequentially consistent, so detach() either sees the flag or this
  /// load sees its removal.
  template <typename Fn>
  void with_work(Loop& loop, Fn&& fn) {
    loop.in_work.store(true);
    if (LoopWork* work = work_.load()) fn(*work);
    loop.in_work.store(false);
  }

  void loop_run(std::size_t idx) {
    Loop& loop = *loops_[idx];
    tls_epoll_loop = &loop;
    epoll_event events[128];
    int timeout_ms = -1;  // the work's answer from the previous pass
    while (!stopping_.load()) {
      const int n = ::epoll_wait(loop.epoll_fd.get(), events, 128, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (stopping_.load()) break;
      for (int i = 0; i < n; ++i) {
        const epoll_event& ev = events[i];
        if (ev.data.u64 == kWakeTag) {
          std::uint64_t drained = 0;
          while (::read(loop.wake_fd.get(), &drained, sizeof drained) > 0) {
          }
          continue;
        }
        if (ev.data.u64 == kListenTag) {
          handle_accept(loop);
          continue;
        }
        auto* raw = reinterpret_cast<Conn*>(
            static_cast<std::uintptr_t>(ev.data.u64));
        // A connection closed earlier in this batch stays alive in the
        // graveyard, so the fd lookup (plus pointer equality, against fd
        // reuse) safely filters its stale events.
        auto it = loop.conns.find(raw->fd);
        if (it == loop.conns.end() || it->second.get() != raw) continue;
        const std::shared_ptr<Conn> conn = it->second;
        if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
          close_conn(loop, conn);
          continue;
        }
        if ((ev.events & EPOLLOUT) != 0) try_flush(loop, conn);
        if ((ev.events & EPOLLIN) != 0) handle_read(loop, conn);
      }
      // The queued work, this iteration's own sends among it: one write per
      // connection for the whole batch.
      timeout_ms = handle_pending(loop, idx);
      loop.graveyard.clear();
    }
    with_work(loop, [idx](LoopWork& work) { work.on_loop_exit(idx); });
    tls_epoll_loop = nullptr;
  }

  void handle_accept(Loop& loop) {
    for (;;) {
      const int fd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                               SOCK_NONBLOCK);
      if (fd >= 0) {
        loop.accept_backoff_ms = 1;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->loop = next_loop_.fetch_add(1, std::memory_order_relaxed) %
                     loops_.size();
        add_to_loop(std::move(conn));
        continue;
      }
      const int err = errno;
      if (err == EAGAIN || err == EWOULDBLOCK) return;
      if (err == EINTR || err == ECONNABORTED) continue;
      if (stopping_.load()) return;
      if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
        // Transient resource exhaustion must not kill the acceptor: back
        // off (bounded) and let the level-triggered listener re-report.
        // Pending connections wait in the backlog meanwhile.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(loop.accept_backoff_ms));
        loop.accept_backoff_ms = std::min(loop.accept_backoff_ms * 2, 100);
        return;
      }
      return;  // unexpected listener error; epoll will re-report if live
    }
  }

  /// Hands a new connection to its owner loop; registers directly when
  /// called on that loop's thread.
  void add_to_loop(std::shared_ptr<Conn> conn) {
    Loop& target = *loops_[conn->loop];
    if (tls_epoll_loop == &target) {
      register_conn(target, std::move(conn));
      return;
    }
    {
      std::lock_guard lock(target.mu);
      target.pending_adds.push_back(std::move(conn));
    }
    wake_loop(target);
  }

  void register_conn(Loop& loop, std::shared_ptr<Conn> conn) {
    Conn* raw = conn.get();
    loop.conns[raw->fd] = std::move(conn);
    update_interest(loop, *raw, /*adding=*/true);
    // Edge-triggered ADD reports current readiness as an initial edge, so
    // bytes that raced the registration surface on the next epoll_wait.
  }

  void update_interest(Loop& loop, Conn& conn, bool adding) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET |
                (conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    ev.data.u64 =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&conn));
    const int op = adding ? EPOLL_CTL_ADD : EPOLL_CTL_MOD;
    if (::epoll_ctl(loop.epoll_fd.get(), op, conn.fd, &ev) != 0) {
      // A MOD before the deferred ADD landed (a flush of a connection the
      // loser of a connect race queued first), or vice versa: retry with
      // the other op.
      const int fallback = adding ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
      ::epoll_ctl(loop.epoll_fd.get(), fallback, conn.fd, &ev);
    }
  }

  /// Peer-down reports first, then the installed work's step, so that what
  /// either sends from this thread leaves with this pass's flushes; a
  /// report queued while they run is delivered on the next pass. Returns
  /// the work's wait bound for the next epoll_wait (-1 without work).
  int handle_pending(Loop& loop, std::size_t idx) {
    std::vector<NodeId> downs;
    {
      std::lock_guard lock(loop.mu);
      downs.swap(loop.pending_down);
    }
    if (!downs.empty()) {
      std::shared_lock lock(peer_down_mutex_);
      for (const NodeId peer : downs) {
        if (peer_down_ && !stopping_.load()) peer_down_(peer);
      }
    }
    int timeout_ms = -1;
    with_work(loop, [&](LoopWork& work) { timeout_ms = work.on_pass(idx); });
    std::vector<std::shared_ptr<Conn>> adds;
    std::vector<std::shared_ptr<Conn>> flushes;
    {
      std::lock_guard lock(loop.mu);
      adds.swap(loop.pending_adds);
      flushes.swap(loop.pending_flush);
      for (auto& conn : flushes) conn->flush_queued = false;
    }
    for (auto& conn : adds) register_conn(loop, std::move(conn));
    for (auto& conn : flushes) try_flush(loop, conn);
    return timeout_ms;
  }

  /// Edge-triggered read: drain the socket to EAGAIN through the frame
  /// decoder, delivering every complete frame. One recv commonly surfaces
  /// a whole pipelined burst.
  void handle_read(Loop& loop, const std::shared_ptr<Conn>& conn) {
    for (;;) {
      if (conn->dead) return;
      const std::span<std::uint8_t> buf = conn->decoder.writable(16 * 1024);
      const ssize_t got = ::recv(conn->fd, buf.data(), buf.size(), 0);
      if (got > 0) {
        conn->decoder.commit(static_cast<std::size_t>(got));
        const bool ok = conn->decoder.drain(
            [&](NodeId from, std::vector<std::byte> payload) {
              if (conn->peer == kNoNode) conn->peer = from;
              deliver(from, std::move(payload));
            });
        if (!ok) {
          frames_rejected_.fetch_add(1, std::memory_order_relaxed);
          close_conn(loop, conn);  // corrupt stream
          return;
        }
        continue;
      }
      if (got == 0) {
        close_conn(loop, conn);  // EOF
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_conn(loop, conn);
      return;
    }
  }

  void deliver(NodeId from, std::vector<std::byte> payload) {
    std::shared_lock lock(handler_mutex_);
    if (handler_ && !stopping_.load()) handler_(from, std::move(payload));
  }

  /// Writes the connection's queued bytes with as few syscalls as the
  /// socket allows; a partial write arms EPOLLOUT and resumes on the next
  /// writability edge. Loop-thread only.
  void try_flush(Loop& loop, const std::shared_ptr<Conn>& conn) {
    std::unique_lock lock(conn->out_mu);
    if (conn->dead) return;
    while (conn->out_off < conn->out.size()) {
      const ssize_t put =
          ::send(conn->fd, conn->out.data() + conn->out_off,
                 conn->out.size() - conn->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (put > 0) {
        conn->out_off += static_cast<std::size_t>(put);
        continue;
      }
      if (put < 0 && errno == EINTR) continue;
      if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->want_write) {
          conn->want_write = true;
          update_interest(loop, *conn, /*adding=*/false);
        }
        return;
      }
      lock.unlock();
      close_conn(loop, conn);
      return;
    }
    conn->out.clear();
    conn->out_off = 0;
    if (conn->want_write) {
      conn->want_write = false;
      update_interest(loop, *conn, /*adding=*/false);
    }
  }

  void close_conn(Loop& loop, const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard lock(conn->out_mu);
      if (conn->dead) return;
      conn->dead = true;
    }
    ::epoll_ctl(loop.epoll_fd.get(), EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    {
      std::lock_guard lock(conn_mu_);
      auto it = by_peer_.find(conn->peer);
      if (it != by_peer_.end() && it->second == conn) by_peer_.erase(it);
    }
    auto it = loop.conns.find(conn->fd);
    if (it != loop.conns.end() && it->second == conn) {
      loop.graveyard.push_back(std::move(it->second));
      loop.conns.erase(it);
    }
    if (conn->peer != kNoNode) notify_peer_down(conn->peer);
  }

  /// Returns the (shared) outgoing connection to `to`, opening one on
  /// first use. nullptr when the peer is unknown or unreachable.
  std::shared_ptr<Conn> connection_to(NodeId to) {
    {
      std::lock_guard lock(conn_mu_);
      auto it = by_peer_.find(to);
      if (it != by_peer_.end()) return it->second;
    }
    if (to >= mesh_->node_count()) return nullptr;
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) return nullptr;
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(mesh_->port_of(to));
    // Blocking connect (instant on loopback), then nonblocking for the
    // event loop. A refused/failed connect is the peer-down signal.
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0)
      return nullptr;
    set_nonblocking(fd.get());
    auto conn = std::make_shared<Conn>();
    conn->fd = fd.release();
    conn->peer = to;
    conn->loop = next_loop_.fetch_add(1, std::memory_order_relaxed) %
                 loops_.size();
    {
      std::lock_guard lock(conn_mu_);
      auto [it, inserted] = by_peer_.try_emplace(to, conn);
      if (!inserted) {
        // Lost the connect race: use the winner, close ours.
        ::close(conn->fd);
        return it->second;
      }
    }
    add_to_loop(conn);
    return conn;
  }

  /// Queues a peer-down report for loop 0, which delivers it from
  /// handle_pending: no handler ever runs inside send(). A peer already
  /// queued is reported once.
  void notify_peer_down(NodeId peer) {
    if (stopping_.load()) return;
    Loop& loop = *loops_[0];
    {
      std::lock_guard lock(loop.mu);
      if (std::find(loop.pending_down.begin(), loop.pending_down.end(),
                    peer) != loop.pending_down.end())
        return;
      loop.pending_down.push_back(peer);
    }
    wake_loop(loop);
  }

  EpollMesh* mesh_;
  NodeId id_;
  std::uint16_t port_ = 0;
  Fd listen_fd_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<std::size_t> next_loop_{0};
  std::shared_mutex handler_mutex_;
  Handler handler_;
  std::shared_mutex peer_down_mutex_;
  PeerDownHandler peer_down_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::mutex work_mu_;  ///< serializes attach, detach and the stop flip
  std::atomic<LoopWork*> work_{nullptr};

  std::mutex conn_mu_;
  std::map<NodeId, std::shared_ptr<Conn>> by_peer_;  ///< outgoing conns
};

EpollMesh::EpollMesh(std::size_t node_count, std::size_t io_threads) {
  endpoints_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i)
    endpoints_.push_back(std::make_unique<Endpoint>(
        *this, static_cast<NodeId>(i), io_threads));
}

EpollMesh::~EpollMesh() {
  if (registry_ != nullptr) registry_->remove("tokend_epoll_frames_rejected");
  for (auto& ep : endpoints_) ep->shutdown();
}

std::uint64_t EpollMesh::frames_rejected(NodeId id) const {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  return endpoints_[id]->frames_rejected();
}

std::uint64_t EpollMesh::frames_rejected() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints_) total += ep->frames_rejected();
  return total;
}

void EpollMesh::register_metrics(obs::Registry& registry) {
  registry_ = &registry;
  registry.counter_fn("tokend_epoll_frames_rejected", [this] {
    return static_cast<double>(frames_rejected());
  });
}

Transport& EpollMesh::endpoint(NodeId id) {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  return *endpoints_[id];
}

std::uint16_t EpollMesh::port_of(NodeId id) const {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  return endpoints_[id]->port();
}

void EpollMesh::shutdown_endpoint(NodeId id) {
  TOKA_CHECK_MSG(id < endpoints_.size(), "endpoint " << id << " out of range");
  endpoints_[id]->shutdown();
}

}  // namespace toka::runtime
