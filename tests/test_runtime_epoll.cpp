#include "runtime/epoll.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "runtime/framing.hpp"
#include "util/serde.hpp"

namespace toka::runtime {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool wait_for(Pred pred, std::chrono::milliseconds timeout = 2000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

std::vector<std::byte> payload_of(std::uint64_t v) {
  util::BinaryWriter w;
  w.u64(v);
  return w.take();
}

TEST(EpollMesh, RoundTripBetweenTwoNodes) {
  EpollMesh mesh(2);
  std::atomic<std::uint64_t> got{0};
  std::atomic<NodeId> from{kNoNode};
  mesh.endpoint(1).set_handler([&](NodeId f, std::vector<std::byte> p) {
    util::BinaryReader r(p);
    got = r.u64();
    from = f;
  });
  mesh.endpoint(0).send(1, payload_of(12345));
  ASSERT_TRUE(wait_for([&] { return got.load() == 12345; }));
  EXPECT_EQ(from.load(), 0u);
}

TEST(EpollMesh, PortsAreDistinct) {
  EpollMesh mesh(4);
  std::set<std::uint16_t> ports;
  for (NodeId v = 0; v < 4; ++v) ports.insert(mesh.port_of(v));
  EXPECT_EQ(ports.size(), 4u);
  for (std::uint16_t p : ports) EXPECT_GT(p, 0);
}

TEST(EpollMesh, ManyMessagesInOrder) {
  EpollMesh mesh(2);
  std::mutex mu;
  std::vector<std::uint64_t> received;
  mesh.endpoint(1).set_handler([&](NodeId, std::vector<std::byte> p) {
    util::BinaryReader r(p);
    std::lock_guard lock(mu);
    received.push_back(r.u64());
  });
  constexpr int kCount = 500;
  for (int i = 0; i < kCount; ++i) mesh.endpoint(0).send(1, payload_of(i));
  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lock(mu);
    return received.size() == kCount;
  }));
  std::lock_guard lock(mu);
  for (int i = 0; i < kCount; ++i)
    EXPECT_EQ(received[i], static_cast<std::uint64_t>(i));
}

TEST(EpollMesh, BidirectionalTraffic) {
  EpollMesh mesh(2);
  std::atomic<int> at0{0}, at1{0};
  mesh.endpoint(0).set_handler(
      [&](NodeId, std::vector<std::byte>) { ++at0; });
  mesh.endpoint(1).set_handler(
      [&](NodeId, std::vector<std::byte>) { ++at1; });
  for (int i = 0; i < 20; ++i) {
    mesh.endpoint(0).send(1, payload_of(i));
    mesh.endpoint(1).send(0, payload_of(i));
  }
  EXPECT_TRUE(wait_for([&] { return at0.load() == 20 && at1.load() == 20; }));
}

TEST(EpollMesh, LargePayload) {
  EpollMesh mesh(2);
  std::atomic<std::size_t> got_size{0};
  mesh.endpoint(1).set_handler([&](NodeId, std::vector<std::byte> p) {
    got_size = p.size();
  });
  std::vector<std::byte> big(1 << 20, std::byte{0x5A});
  mesh.endpoint(0).send(1, big);
  EXPECT_TRUE(wait_for([&] { return got_size.load() == big.size(); }));
}

TEST(EpollMesh, SendToUnknownPeerIsDropped) {
  EpollMesh mesh(2);
  mesh.endpoint(0).send(99, payload_of(1));
  SUCCEED();  // no crash, no hang
}

TEST(EpollMesh, FullMeshTraffic) {
  constexpr std::size_t kNodes = 5;
  EpollMesh mesh(kNodes);
  std::atomic<int> total{0};
  for (NodeId v = 0; v < kNodes; ++v)
    mesh.endpoint(v).set_handler(
        [&](NodeId, std::vector<std::byte>) { ++total; });
  for (NodeId a = 0; a < kNodes; ++a)
    for (NodeId b = 0; b < kNodes; ++b)
      if (a != b) mesh.endpoint(a).send(b, payload_of(a * 10 + b));
  EXPECT_TRUE(wait_for(
      [&] { return total.load() == static_cast<int>(kNodes * (kNodes - 1)); }));
}

TEST(EpollMesh, CleanShutdownWithPendingConnections) {
  auto mesh = std::make_unique<EpollMesh>(3);
  mesh->endpoint(0).send(1, payload_of(1));
  mesh->endpoint(1).send(2, payload_of(2));
  mesh.reset();
  SUCCEED();
}

// Replies issued from inside the receive handler leave with the flush that
// ends the loop iteration (one write per connection for the burst) — the
// server's reply pattern, exercised here directly.
TEST(EpollMesh, ReplyFromHandlerIsCorkedAndDelivered) {
  EpollMesh mesh(2);
  std::atomic<int> replies{0};
  mesh.endpoint(1).set_handler([&](NodeId f, std::vector<std::byte> p) {
    util::BinaryReader r(p);
    mesh.endpoint(1).send(f, payload_of(r.u64() + 1));
  });
  std::mutex mu;
  std::vector<std::uint64_t> echoed;
  mesh.endpoint(0).set_handler([&](NodeId, std::vector<std::byte> p) {
    util::BinaryReader r(p);
    std::lock_guard lock(mu);
    echoed.push_back(r.u64());
    ++replies;
  });
  constexpr int kCount = 200;  // a pipelined burst: replies coalesce
  for (int i = 0; i < kCount; ++i) mesh.endpoint(0).send(1, payload_of(i));
  ASSERT_TRUE(wait_for([&] { return replies.load() == kCount; }));
  std::lock_guard lock(mu);
  for (int i = 0; i < kCount; ++i)
    EXPECT_EQ(echoed[i], static_cast<std::uint64_t>(i + 1));
}

TEST(EpollMesh, MultipleIoThreads) {
  constexpr std::size_t kNodes = 4;
  EpollMesh mesh(kNodes, /*io_threads=*/2);
  std::atomic<int> total{0};
  for (NodeId v = 0; v < kNodes; ++v)
    mesh.endpoint(v).set_handler(
        [&](NodeId, std::vector<std::byte>) { ++total; });
  constexpr int kPerPair = 50;
  for (int i = 0; i < kPerPair; ++i)
    for (NodeId a = 0; a < kNodes; ++a)
      for (NodeId b = 0; b < kNodes; ++b)
        if (a != b) mesh.endpoint(a).send(b, payload_of(i));
  const int want = kPerPair * static_cast<int>(kNodes * (kNodes - 1));
  EXPECT_TRUE(wait_for([&] { return total.load() == want; }, 5000ms));
}

TEST(EpollMesh, ShutdownEndpointFiresPeerDown) {
  EpollMesh mesh(2);
  std::atomic<bool> down{false};
  std::atomic<NodeId> who{kNoNode};
  mesh.endpoint(0).set_handler([](NodeId, std::vector<std::byte>) {});
  mesh.endpoint(1).set_handler([](NodeId, std::vector<std::byte>) {});
  mesh.endpoint(0).set_peer_down_handler([&](NodeId peer) {
    who = peer;
    down = true;
  });
  // Establish the 0->1 connection, then kill node 1.
  mesh.endpoint(0).send(1, payload_of(1));
  std::this_thread::sleep_for(50ms);
  mesh.shutdown_endpoint(1);
  // Either the close is observed directly or the next send fails fast.
  mesh.endpoint(0).send(1, payload_of(2));
  ASSERT_TRUE(wait_for([&] { return down.load(); }));
  EXPECT_EQ(who.load(), 1u);
  // Idempotent.
  mesh.shutdown_endpoint(1);
}

// Peer-down is reported from the mesh's own loop thread, never from inside
// the send that failed: a handler may send or take the sender's locks.
TEST(EpollMesh, PeerDownIsReportedFromALoopThread) {
  EpollMesh mesh(2);
  mesh.shutdown_endpoint(1);
  std::atomic<bool> down{false};
  std::atomic<std::thread::id> where{};
  mesh.endpoint(0).set_peer_down_handler([&](NodeId) {
    where = std::this_thread::get_id();
    down = true;
  });
  mesh.endpoint(0).send(1, payload_of(1));  // the connect is refused
  ASSERT_TRUE(wait_for([&] { return down.load(); }));
  EXPECT_NE(where.load(), std::this_thread::get_id());
}

// A report queued while a handler runs is delivered on the loop's next
// pass, not dropped: a handler that sends to the dead peer hears of it
// again.
TEST(EpollMesh, AHandlerThatSendsToTheDeadPeerIsToldAgain) {
  EpollMesh mesh(2);
  mesh.shutdown_endpoint(1);
  std::atomic<int> reports{0};
  mesh.endpoint(0).set_peer_down_handler([&](NodeId peer) {
    if (++reports == 1) mesh.endpoint(0).send(peer, payload_of(2));
  });
  mesh.endpoint(0).send(1, payload_of(1));
  EXPECT_TRUE(wait_for([&] { return reports.load() == 2; }));
}

// ---------------------------------------------------------------------------
// Raw-socket adversarial segmentation: a real client writing a multi-frame
// burst split at every byte boundary must decode identically to whole-burst
// delivery. This drives the event loop's edge-triggered read path end to
// end (kernel buffers included), not just the FrameDecoder unit.

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
      << strerror(errno);
  return fd;
}

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    ASSERT_GT(w, 0) << strerror(errno);
    off += static_cast<std::size_t>(w);
  }
}

TEST(EpollMesh, RawSocketSegmentedBurst) {
  EpollMesh mesh(1);
  std::mutex mu;
  std::vector<std::pair<NodeId, std::vector<std::byte>>> got;
  mesh.endpoint(0).set_handler([&](NodeId f, std::vector<std::byte> p) {
    std::lock_guard lock(mu);
    got.emplace_back(f, std::move(p));
  });

  // Burst of 4 frames from "node 42", includes an empty payload.
  std::vector<std::uint8_t> wire;
  std::vector<std::vector<std::byte>> want;
  for (std::uint64_t v : {7u, 0u, 1234567u}) {
    want.push_back(payload_of(v));
    append_frame(wire, 42, want.back());
  }
  want.push_back({});
  append_frame(wire, 42, want.back());

  for (std::size_t chunk = 1; chunk <= wire.size(); chunk += 3) {
    {
      std::lock_guard lock(mu);
      got.clear();
    }
    const int fd = connect_loopback(mesh.port_of(0));
    ASSERT_GE(fd, 0);
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      write_all(fd, wire.data() + off, n);
      // A microscopic pause defeats kernel coalescing often enough to make
      // the segmentation real, without making the sweep slow.
      if (chunk < 8) std::this_thread::sleep_for(100us);
    }
    ASSERT_TRUE(wait_for([&] {
      std::lock_guard lock(mu);
      return got.size() == want.size();
    })) << "chunk=" << chunk;
    {
      std::lock_guard lock(mu);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].first, 42u) << "chunk=" << chunk;
        EXPECT_EQ(got[i].second, want[i]) << "chunk=" << chunk << " i=" << i;
      }
    }
    ::close(fd);
  }
}

TEST(EpollMesh, RawSocketCorruptLengthClosesConnection) {
  EpollMesh mesh(1);
  std::atomic<int> delivered{0};
  mesh.endpoint(0).set_handler(
      [&](NodeId, std::vector<std::byte>) { ++delivered; });
  const int fd = connect_loopback(mesh.port_of(0));
  ASSERT_GE(fd, 0);
  // Length prefix beyond kMaxFrameBytes: the server must drop the
  // connection without delivering anything.
  std::vector<std::uint8_t> bad;
  const std::uint32_t len = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i)
    bad.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
  for (int i = 0; i < 4; ++i) bad.push_back(0);
  write_all(fd, bad.data(), bad.size());
  // The peer closes: reads eventually return 0 (or ECONNRESET).
  ASSERT_TRUE(wait_for([&] {
    char buf[16];
    const ssize_t r = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
    return r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }));
  EXPECT_EQ(delivered.load(), 0);
  ::close(fd);
}

TEST(EpollMesh, RejectedFramesAreCountedAndExported) {
  obs::Registry registry;  // outlives the mesh: its dtor deregisters
  EpollMesh mesh(2);
  mesh.register_metrics(registry);
  mesh.endpoint(0).set_handler([](NodeId, std::vector<std::byte>) {});
  EXPECT_EQ(mesh.frames_rejected(), 0u);

  const int fd = connect_loopback(mesh.port_of(0));
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> bad;
  const std::uint32_t len = kMaxFrameBytes + 1;
  for (int i = 0; i < 4; ++i)
    bad.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
  for (int i = 0; i < 4; ++i) bad.push_back(0);
  write_all(fd, bad.data(), bad.size());

  ASSERT_TRUE(wait_for([&] { return mesh.frames_rejected(0) == 1; }));
  EXPECT_EQ(mesh.frames_rejected(1), 0u);
  EXPECT_EQ(mesh.frames_rejected(), 1u);

  double exported = -1;
  for (const obs::Metric& m : registry.collect())
    if (m.name == "tokend_epoll_frames_rejected") exported = m.value;
  EXPECT_DOUBLE_EQ(exported, 1.0);
  ::close(fd);
}

#ifdef __linux__
/// RAII fd-exhaustion: clamps RLIMIT_NOFILE and burns every remaining slot
/// on /dev/null, so the next accept() fails with EMFILE. Restores on exit.
class FdExhaustion {
 public:
  FdExhaustion() {
    getrlimit(RLIMIT_NOFILE, &saved_);
    // Clamp just above the highest fd currently open so nothing already
    // running breaks, then fill the couple of free slots that remain.
    int max_fd = 0;
    for (int fd = 0; fd < static_cast<int>(saved_.rlim_cur); ++fd)
      if (fcntl(fd, F_GETFD) != -1) max_fd = fd;
    rlimit clamped = saved_;
    clamped.rlim_cur = static_cast<rlim_t>(max_fd + 3);
    setrlimit(RLIMIT_NOFILE, &clamped);
    for (;;) {
      const int fd = ::open("/dev/null", O_RDONLY);
      if (fd < 0) break;  // EMFILE: the table is full now
      fillers_.push_back(fd);
    }
  }

  ~FdExhaustion() {
    for (int fd : fillers_) ::close(fd);
    setrlimit(RLIMIT_NOFILE, &saved_);
  }

 private:
  rlimit saved_{};
  std::vector<int> fillers_;
};

/// CPU time consumed so far by every thread of this process.
std::chrono::microseconds process_cpu_time() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return std::chrono::seconds(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         std::chrono::microseconds(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Regression: accept() failing with EMFILE must neither kill the acceptor
// (every later connection would hang in the backlog forever) nor spin it
// (the listener is level-triggered, so an acceptor that just returns gets
// the same readiness back at once and burns a core for as long as the fd
// table stays full). The acceptor backs off and retries: a connection made
// while the table is full completes once descriptors free up, and the
// wait costs next to no CPU.
TEST(EpollMesh, AcceptSurvivesFdExhaustion) {
  EpollMesh mesh(1);
  std::atomic<std::uint64_t> got{0};
  mesh.endpoint(0).set_handler([&](NodeId, std::vector<std::byte> p) {
    util::BinaryReader r(p);
    got = r.u64();
  });

  // The client socket is created BEFORE exhausting fds (connect() itself
  // needs no new descriptor); the handshake then completes via the
  // listener's backlog while the server's accept() is failing.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  {
    FdExhaustion exhausted;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(mesh.port_of(0));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0)
        << strerror(errno);
    // The acceptor hits EMFILE now. Backing off, its loop wakes about ten
    // times in this window; spinning, it would burn the whole window.
    const auto cpu0 = process_cpu_time();
    const auto wall0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(300ms);
    const auto cpu = process_cpu_time() - cpu0;
    const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - wall0);
    EXPECT_LT(cpu, wall / 3) << "acceptor spun on EMFILE: " << cpu.count()
                             << "us of CPU in " << wall.count() << "us";
  }  // fds released, rlimit restored: the retry must now succeed

  std::vector<std::uint8_t> wire;
  append_frame(wire, 42, payload_of(777));
  write_all(fd, wire.data(), wire.size());
  EXPECT_TRUE(wait_for([&] { return got.load() == 777; }, 5000ms))
      << "acceptor never recovered from EMFILE";
  ::close(fd);
}
#endif  // __linux__

}  // namespace
}  // namespace toka::runtime
