// Incremental frame codec for the mesh wire format, used by the EpollMesh
// event loops.
//
// Wire format:
//   u32 payload length (LE) | u32 sender node id (LE) | payload bytes
//
// The decoder is a byte-stream reassembler: the transport recv()s into
// writable() space, commit()s however many bytes the kernel produced, and
// drain() parses every complete frame out of the buffer — regardless of how
// the stream was segmented (a frame per packet, dozens of frames per recv,
// or a header split down the middle). Partial data stays buffered across
// calls, and the buffer grows to hold one full frame when a body outsizes
// the initial window, so the transport never needs a blocking byte-precise
// read path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace toka::runtime {

/// Sanity limit on one frame's payload; a longer length prefix means the
/// stream is corrupt and the connection must die.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Bytes of frame header preceding every payload.
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Appends one framed message (header + payload) to `out`. The encode-side
/// twin of FrameDecoder, used by the mesh's send path.
inline void append_frame(std::vector<std::uint8_t>& out, NodeId from,
                         std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::uint8_t header[kFrameHeaderBytes];
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF);
  for (int i = 0; i < 4; ++i)
    header[4 + i] = static_cast<std::uint8_t>(
        (static_cast<std::uint32_t>(from) >> (8 * i)) & 0xFF);
  out.insert(out.end(), header, header + sizeof header);
  const auto* p = reinterpret_cast<const std::uint8_t*>(payload.data());
  out.insert(out.end(), p, p + payload.size());
}

class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t initial_capacity = 64 * 1024)
      : buf_(initial_capacity) {}

  /// Returns contiguous space for the next recv(), at least `min` bytes
  /// (compacting consumed bytes to the front and growing the buffer as
  /// needed). Call commit(n) with the byte count actually received.
  std::span<std::uint8_t> writable(std::size_t min = 1) {
    if (buf_.size() - end_ < min) compact();
    if (buf_.size() - end_ < min)
      buf_.resize(std::max(buf_.size() * 2, end_ + min));
    return {buf_.data() + end_, buf_.size() - end_};
  }

  void commit(std::size_t n) { end_ += n; }

  /// Parses every complete frame buffered so far, invoking
  /// `sink(NodeId from, std::vector<std::byte> payload)` per frame in
  /// stream order. Returns false when the stream is corrupt (length prefix
  /// beyond kMaxFrameBytes) — the connection must be dropped. When a
  /// partial body remains, the buffer is pre-grown to fit the whole frame
  /// so the next writable() can pull the rest in one recv.
  template <typename Sink>
  bool drain(Sink&& sink) {
    while (end_ - begin_ >= kFrameHeaderBytes) {
      const std::uint8_t* header = buf_.data() + begin_;
      std::uint32_t len = 0, from = 0;
      for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
      for (int i = 0; i < 4; ++i)
        from |= static_cast<std::uint32_t>(header[4 + i]) << (8 * i);
      if (len > kMaxFrameBytes) return false;
      if (end_ - begin_ - kFrameHeaderBytes < len) {
        // Partial body: make sure the buffer can hold the full frame, so
        // the stream cannot stall on a frame larger than the recv window.
        writable(kFrameHeaderBytes + len - (end_ - begin_));
        break;
      }
      std::vector<std::byte> payload(len);
      // An empty payload's data() may be null, and memcpy from or to null
      // is undefined even for zero bytes.
      if (len > 0)
        std::memcpy(payload.data(), buf_.data() + begin_ + kFrameHeaderBytes,
                    len);
      begin_ += kFrameHeaderBytes + len;
      sink(static_cast<NodeId>(from), std::move(payload));
    }
    if (begin_ == end_) {
      begin_ = end_ = 0;
    }
    return true;
  }

  /// Bytes currently buffered but not yet parsed into frames.
  std::size_t buffered() const { return end_ - begin_; }

 private:
  void compact() {
    if (begin_ == 0) return;
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t begin_ = 0;  ///< first unparsed byte
  std::size_t end_ = 0;    ///< one past the last committed byte
};

}  // namespace toka::runtime
