#include "service/protocol.hpp"

#include <array>
#include <string>

#include "util/error.hpp"
#include "util/serde.hpp"

namespace toka::service::protocol {

namespace {

/// Per type byte: the index of the alternative of `Variant` that travels
/// under it, or -1. The Request and Response variants decide which types
/// exist only as requests and which only as responses.
template <typename Variant>
constexpr auto kAlternative = []<std::size_t... I>(std::index_sequence<I...>) {
  std::array<int, 128> index{};
  index.fill(-1);
  ((index[static_cast<std::size_t>(
        wire::kSchema<std::variant_alternative_t<I, Variant>>.type)] = I),
   ...);
  return index;
}(std::make_index_sequence<std::variant_size_v<Variant>>{});

/// Reads the body of the frame `h` heads into the alternative of
/// `Variant` that travels under h.type (read_header checked there is one).
template <typename Variant>
Variant read_body(const FrameHeader& h, util::BinaryReader& r) {
  using Read = void (*)(Variant&, std::uint64_t, util::BinaryReader&);
  static constexpr auto kReads =
      []<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<Read, sizeof...(I)>{
        [](Variant& out, std::uint64_t id, util::BinaryReader& r) {
          auto& m = out.template emplace<I>();
          m.id = id;
          wire::read(r, m);
        }...};
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
  Variant out;
  kReads[kAlternative<Variant>[static_cast<std::size_t>(h.type)]](out, h.id, r);
  if (!r.done())
    throw util::IoError("tokend frame: " + std::to_string(r.remaining()) +
                        " trailing bytes");
  return out;
}

}  // namespace

namespace wire {

void reject(const char* what) {
  throw util::IoError(std::string("tokend frame: ") + what);
}

void reject_bound(const char* what, std::uint64_t value, std::uint64_t bound) {
  throw util::IoError("tokend frame: " + std::string(what) + " " +
                      std::to_string(value) + " exceeds the limit " +
                      std::to_string(bound));
}

void validate(const ReplicaDelta& d) {
  if (d.floor > d.balance) reject("replica floor above balance");
}

void validate(const StatsEntry& e) {
  for (std::size_t i = 1; i < e.buckets.size(); ++i)
    if (e.buckets[i].index <= e.buckets[i - 1].index)
      reject("stats buckets out of order");
}

void validate(const cluster::ClusterMap& m) {
  if (!m.nodes.empty() && m.vnodes == 0)
    reject("cluster map with zero vnodes");
  // Canonical form is strictly increasing: a sorted, duplicate-free
  // member list means equal maps are byte-identical on the wire.
  for (std::size_t i = 1; i < m.nodes.size(); ++i)
    if (m.nodes[i] <= m.nodes[i - 1]) reject("cluster map nodes out of order");
}

void validate(const PromoteRequest& m) {
  if (m.failed == kNoNode) reject("promote names no failed node");
}

void validate(const ErrorResponse& m) {
  if (m.code < ErrorCode::kMalformedBody) reject("unknown error code");
}

FrameHeader read_header(util::BinaryReader& r) {
  const std::uint8_t version = r.u8();
  if (version != kProtocolVersion)
    throw util::IoError("tokend frame: unsupported protocol version " +
                        std::to_string(version));
  const std::uint8_t type_byte = r.u8();
  FrameHeader h;
  h.is_response = (type_byte & kResponseBit) != 0;
  // Responses keep kTraceBit as part of their type value (kRedirect and
  // kError live above 0x40); only a request's bit announces context.
  h.traced = !h.is_response && (type_byte & kTraceBit) != 0;
  h.type = static_cast<MsgType>(type_byte & ~kResponseBit &
                                ~(h.traced ? kTraceBit : 0));
  const auto& alternative =
      h.is_response ? kAlternative<Response> : kAlternative<Request>;
  if (alternative[static_cast<std::size_t>(h.type)] < 0)
    throw util::IoError("tokend frame: undefined type byte " +
                        std::to_string(type_byte));
  h.id = r.u64();
  if (h.traced) {
    h.trace_id = r.u64();
    const std::uint8_t flags = r.u8();
    if ((flags & ~kTraceFlagSampled) != 0)
      throw util::IoError("tokend frame: unknown trace flags " +
                          std::to_string(flags));
    h.sampled = flags != 0;
  }
  return h;
}

}  // namespace wire

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedBody: return "malformed-body";
    case ErrorCode::kUnknownNamespace: return "unknown-namespace";
    case ErrorCode::kInvalidConfig: return "invalid-config";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kOverloaded: return "overloaded";
  }
  return "unknown-error";
}

std::vector<std::byte> encode(const Request& m) {
  return std::visit([](const auto& msg) { return encode(msg); }, m);
}

std::vector<std::byte> encode(const Response& m) {
  return std::visit([](const auto& msg) { return encode(msg); }, m);
}

Request decode_request(std::span<const std::byte> payload) {
  util::BinaryReader r(payload);
  const FrameHeader h = wire::read_header(r);
  if (h.is_response)
    throw util::IoError("tokend frame: response where a request was expected");
  return read_body<Request>(h, r);
}

Request decode_request(const FrameHeader& head,
                       std::span<const std::byte> payload) {
  TOKA_CHECK_MSG(!head.is_response, "decode_request takes a request header");
  util::BinaryReader r(payload.subspan(wire::header_bytes(head)));
  return read_body<Request>(head, r);
}

Response decode_response(std::span<const std::byte> payload) {
  util::BinaryReader r(payload);
  const FrameHeader h = wire::read_header(r);
  if (!h.is_response)
    throw util::IoError("tokend frame: request where a response was expected");
  return read_body<Response>(h, r);
}

std::optional<FrameHeader> try_parse_header(
    std::span<const std::byte> payload) {
  util::BinaryReader r(payload);
  try {
    return wire::read_header(r);
  } catch (const util::IoError&) {
    return std::nullopt;
  }
}

void attach_trace_context(std::vector<std::byte>& frame,
                          const TraceContext& ctx) {
  util::BinaryReader r(frame);
  std::optional<FrameHeader> h;
  try {
    h = wire::read_header(r);
  } catch (const util::IoError&) {
  }
  TOKA_CHECK_MSG(h.has_value() && !h->is_response && !h->traced,
                 "trace contexts attach to untraced request frames only");
  const std::size_t body = frame.size() - r.remaining();
  h->traced = true;
  h->trace_id = ctx.trace_id;
  h->sampled = ctx.sampled;
  util::BinaryWriter w;
  wire::write_header(w, *h);
  std::vector<std::byte> traced = w.take();
  traced.insert(traced.end(), frame.begin() + body, frame.end());
  frame = std::move(traced);
}

std::uint64_t request_id(const Request& m) {
  return std::visit([](const auto& msg) { return msg.id; }, m);
}

std::uint64_t request_id(const Response& m) {
  return std::visit([](const auto& msg) { return msg.id; }, m);
}

NamespaceId namespace_of(const Request& m) {
  return std::visit(
      [](const auto& msg) -> NamespaceId {
        if constexpr (requires { msg.ns; }) {
          return msg.ns;
        } else {
          return kDefaultNamespace;  // the map messages carry no namespace
        }
      },
      m);
}

}  // namespace toka::service::protocol
