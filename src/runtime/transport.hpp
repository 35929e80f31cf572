// Message transport abstraction for the real (non-simulated) runtime.
//
// A Transport is one node's endpoint in some messaging fabric. Payloads are
// opaque byte vectors (serialize with util::BinaryWriter). Delivery is
// asynchronous and at-most-once. The receive and peer-down handlers run on
// transport-owned threads and never inside send(), so handlers must be
// thread-safe, and a handler may send, to any peer, without re-entering
// itself.
//
// A fabric that reads on its own event loops (EpollMesh) also offers them
// as a driver: LoopHost runs a LoopWork step on each loop at the end of
// every pass, which is how service::ShardEngine executes a loop's own shard
// ops on the thread that read them (see DESIGN.md, "The data plane").
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/types.hpp"

namespace toka::runtime {

/// Work that a fabric's event loops run between passes.
class LoopWork {
 public:
  virtual ~LoopWork() = default;

  /// Runs on loop `loop`'s thread at the end of each pass: after the pass
  /// delivered what it read and its peer-down reports, before it flushes
  /// what the pass sent, so a send made here leaves with the pass's one
  /// write. Returns how long the loop may then wait for events, in
  /// milliseconds (0: run the next pass at once; -1: no limit).
  virtual int on_pass(std::size_t loop) = 0;

  /// Runs on loop `loop`'s thread as it stops for good (its endpoint shut
  /// down). No on_pass for that loop follows.
  virtual void on_loop_exit(std::size_t loop) = 0;
};

/// A fabric's event loops, offered as a driver for one LoopWork.
class LoopHost {
 public:
  static constexpr std::size_t kNoLoop = static_cast<std::size_t>(-1);

  virtual ~LoopHost() = default;

  virtual std::size_t loop_count() const = 0;
  /// The index of the loop running on the calling thread; kNoLoop on any
  /// other thread.
  virtual std::size_t current_loop() const = 0;
  /// Makes loop `loop` run a pass soon. Callable from any thread.
  virtual void wake(std::size_t loop) = 0;
  /// Installs `work` on every loop. Returns false, installing nothing,
  /// when the loops have stopped or another work is installed.
  virtual bool attach(LoopWork& work) = 0;
  /// Removes `work` if it is installed. Returns once no loop is inside one
  /// of its calls, so none runs afterwards.
  virtual void detach(LoopWork& work) = 0;
};

class Transport {
 public:
  /// (sender, payload). Runs on a transport-internal thread.
  using Handler = std::function<void(NodeId, std::vector<std::byte>)>;

  /// Peer-down notification: the fabric observed the connection to `peer`
  /// close or fail, or a send to `peer` found it dead. Runs on a
  /// transport-internal thread, never inside send(): a send that fails
  /// queues the report, and one queued while a handler runs (the handler
  /// sent to the dead peer, say) is delivered after it returns, not
  /// dropped. Best effort: fabrics with no connection state (the
  /// in-process network) never fire it, so callers must keep their timeout
  /// fallback.
  using PeerDownHandler = std::function<void(NodeId)>;

  virtual ~Transport() = default;

  /// This endpoint's node id.
  virtual NodeId self() const = 0;

  /// Queues `payload` for delivery to `to`. Non-blocking; messages to
  /// unknown or dead peers are dropped (best-effort fabric).
  virtual void send(NodeId to, std::vector<std::byte> payload) = 0;

  /// Installs (or, with an empty Handler, detaches) the receive handler.
  /// Implementations synchronize this against their receive threads and
  /// only return once no in-flight invocation of the previous handler
  /// remains, so after a detach the old handler is guaranteed to never run
  /// again. Frames arriving with no handler installed are dropped; install
  /// before sending if no frame may be lost.
  virtual void set_handler(Handler handler) = 0;

  /// Installs (or detaches) the peer-down notification handler, with the
  /// same quiesce guarantee as set_handler. The default implementation
  /// ignores it — a fabric that cannot observe peer death simply never
  /// notifies, and callers fall back to their per-call deadlines.
  virtual void set_peer_down_handler(PeerDownHandler /*handler*/) {}

  /// The event loops this endpoint delivers on, when they can drive a
  /// LoopWork; nullptr (the default) when they cannot. A wrapper that
  /// forwards another transport must forward this too, or what it wraps
  /// runs behind it as if it had no loops.
  virtual LoopHost* loop_host() { return nullptr; }
};

}  // namespace toka::runtime
