// Message transport abstraction for the real (non-simulated) runtime.
//
// A Transport is one node's endpoint in some messaging fabric. Payloads are
// opaque byte vectors (serialize with util::BinaryWriter). Delivery is
// asynchronous and at-most-once. The receive and peer-down handlers run on
// transport-owned threads and never inside send(), so handlers must be
// thread-safe, and a handler may send, to any peer, without re-entering
// itself.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "util/types.hpp"

namespace toka::runtime {

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
};

}  // namespace toka::runtime
