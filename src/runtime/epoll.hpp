// The TCP mesh transport: every node listens on a loopback port, and
// nonblocking epoll event loops carry the mesh wire format (u32 payload
// length LE, u32 sender id LE, payload; see framing.hpp). Sends go over
// your own outgoing connection to the peer's listener, opened lazily on
// first send and kept for reuse; replies arrive on the peer's outgoing
// connection to yours. The token account node (node.hpp), the tokend
// server and the tokad cluster run unchanged over this transport or the
// in-process one.
//
// Each endpoint runs `io_threads` event loops (default 1). A loop owns a
// set of connections: edge-triggered nonblocking reads drain the socket
// into a FrameDecoder — one recv can surface dozens of pipelined frames,
// all decoded and delivered without another syscall. Every send appends
// to its connection's one send buffer under that buffer's lock and queues
// the connection for its loop's flush. A send made on the owning loop's
// thread (a handler's reply) leaves with the flush that ends the loop
// iteration, so a pipelined burst's replies coalesce into one write per
// connection while a lone request's reply leaves at once (the iteration
// ends). A send from any other thread wakes the loop via eventfd, and the
// sends queued before the wake lands share it. Partial writes arm EPOLLOUT
// and resume when the socket drains. Accept errors (EMFILE et al) back the
// acceptor off instead of killing it — the listener is level-triggered, so
// retry is free.
//
// Peer-down has one path too: EOF, reset or error on a connection, a
// refused connect and a send to a dead connection each queue the peer on
// loop 0, which delivers the queued peers, each once per pass, at the end
// of its iteration. No handler runs inside send(), and nothing is
// reported once the endpoint is shutting down.
//
// An endpoint's loops also drive one runtime::LoopWork (its LoopHost, see
// transport.hpp): at the end of each pass, after the pass's deliveries and
// peer-down reports and before its flushes, loop i runs the work's step
// for itself. A tokend server hands its service::ShardEngine to them, so
// each loop executes the shard ops it decoded and their replies leave
// with the pass's one write; the engine's worker threads then do not run
// (DESIGN.md, "The data plane").
//
// One loop multiplexes every peer instead of a reader thread per
// connection, and the same loop executes its own shards' ops, which is
// what keeps a tokend node from drowning in thread context switches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/transport.hpp"
#include "util/types.hpp"

namespace toka::obs {
class Registry;
}

namespace toka::runtime {

class EpollMesh {
 public:
  /// Binds `node_count` loopback listeners with ephemeral ports and starts
  /// `io_threads` event loops per endpoint. Throws util::IoError on socket
  /// failures.
  explicit EpollMesh(std::size_t node_count, std::size_t io_threads = 1);

  /// Closes sockets and joins all loops.
  ~EpollMesh();

  EpollMesh(const EpollMesh&) = delete;
  EpollMesh& operator=(const EpollMesh&) = delete;

  std::size_t node_count() const { return endpoints_.size(); }
  Transport& endpoint(NodeId id);

  /// Port the given node listens on (for diagnostics and raw-socket tests).
  std::uint16_t port_of(NodeId id) const;

  /// Kills one node: closes its listener and every connection, joins its
  /// loops. Peers observe the close and fire their peer-down handlers;
  /// later sends to it fail fast and fire them too. Idempotent — this is
  /// the fault-injection hook cluster churn tests are built on.
  void shutdown_endpoint(NodeId id);

  /// Connections dropped by `id`'s loops because the frame decoder
  /// rejected the stream (length prefix past kMaxFrameBytes — a corrupt or
  /// hostile peer). A rejection kills the connection, so the count is
  /// per-stream, not per-garbage-byte.
  std::uint64_t frames_rejected(NodeId id) const;
  /// Sum over all endpoints.
  std::uint64_t frames_rejected() const;

  /// Exports the mesh-wide rejection count into `registry` as the
  /// "tokend_epoll_frames_rejected" counter. Call at most once; the
  /// registry must outlive the mesh (the destructor unregisters).
  void register_metrics(obs::Registry& registry);

 private:
  class Endpoint;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  obs::Registry* registry_ = nullptr;
};

}  // namespace toka::runtime
