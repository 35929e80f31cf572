#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace toka::service::protocol {
namespace {

using util::IoError;
using util::Rng;

TEST(Protocol, AcquireRoundTrip) {
  const AcquireRequest req{77, 0xDEADBEEFCAFEULL, 12};
  const Request decoded = decode_request(encode(req));
  ASSERT_TRUE(std::holds_alternative<AcquireRequest>(decoded));
  EXPECT_EQ(std::get<AcquireRequest>(decoded), req);

  const AcquireResponse resp{77, 3, 9};
  const Response decoded_resp = decode_response(encode(resp));
  ASSERT_TRUE(std::holds_alternative<AcquireResponse>(decoded_resp));
  EXPECT_EQ(std::get<AcquireResponse>(decoded_resp), resp);
}

TEST(Protocol, QueryAndRefundRoundTrip) {
  const RefundRequest refund{1, 2, 3};
  EXPECT_EQ(std::get<RefundRequest>(decode_request(encode(refund))), refund);
  const RefundResponse refund_resp{1, 2, 3};
  EXPECT_EQ(std::get<RefundResponse>(decode_response(encode(refund_resp))),
            refund_resp);
  const QueryRequest query{9, 42};
  EXPECT_EQ(std::get<QueryRequest>(decode_request(encode(query))), query);
  for (bool exists : {false, true}) {
    const QueryResponse query_resp{9, 5, exists};
    EXPECT_EQ(std::get<QueryResponse>(decode_response(encode(query_resp))),
              query_resp);
  }
}

TEST(Protocol, BatchRoundTripIncludingEmpty) {
  BatchAcquireRequest req;
  req.id = 5;
  EXPECT_EQ(std::get<BatchAcquireRequest>(decode_request(encode(req))), req);
  req.ops = {{1, 2}, {3, 0}, {~0ULL, 100}};
  EXPECT_EQ(std::get<BatchAcquireRequest>(decode_request(encode(req))), req);

  BatchAcquireResponse resp;
  resp.id = 5;
  resp.results = {{2, 0}, {0, 7}};
  EXPECT_EQ(std::get<BatchAcquireResponse>(decode_response(encode(resp))),
            resp);
}

NamespaceId random_ns(Rng& rng) {
  return static_cast<NamespaceId>(rng.below(1u << 16));
}

NamespaceConfig random_namespace_config(Rng& rng) {
  NamespaceConfig c;
  c.strategy.kind = static_cast<core::StrategyKind>(rng.below(6));
  c.strategy.a_param = static_cast<Tokens>(rng.below(100));
  c.strategy.c_param = static_cast<Tokens>(rng.below(1000));
  c.strategy.reactive_k = static_cast<Tokens>(rng.below(8));
  c.strategy.reactive_useful_only = rng.bernoulli(0.5);
  c.delta_us = static_cast<TimeUs>(rng.below(1 << 20));
  c.initial_tokens = static_cast<Tokens>(rng.below(1000));
  c.idle_ttl_us = static_cast<TimeUs>(rng.below(1 << 20));
  c.max_catchup_ticks = static_cast<Tokens>(rng.below(100));
  c.audit = rng.bernoulli(0.5);
  return c;
}

cluster::ClusterMap random_cluster_map(Rng& rng) {
  cluster::ClusterMap m;
  m.epoch = rng.next_u64();
  m.vnodes = 1 + static_cast<std::uint32_t>(rng.below(256));
  const std::size_t nodes = rng.below(8);
  NodeId next = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    next += 1 + static_cast<NodeId>(rng.below(5));  // strictly increasing
    m.nodes.push_back(next);
  }
  m.replicas = static_cast<std::uint32_t>(rng.below(4));
  return m;
}

Request random_request(Rng& rng) {
  switch (rng.below(14)) {
    case 0:
      return AcquireRequest{rng.next_u64(), rng.next_u64(),
                            static_cast<Tokens>(rng.below(1 << 20)),
                            random_ns(rng)};
    case 1:
      return RefundRequest{rng.next_u64(), rng.next_u64(),
                           static_cast<Tokens>(rng.below(1 << 20)),
                           random_ns(rng)};
    case 2:
      return QueryRequest{rng.next_u64(), rng.next_u64(),
                          random_ns(rng)};
    case 3: {
      BatchAcquireRequest m;
      m.id = rng.next_u64();
      m.ns = random_ns(rng);
      const std::size_t ops = rng.below(20);
      for (std::size_t i = 0; i < ops; ++i)
        m.ops.push_back(
            {rng.next_u64(), static_cast<Tokens>(rng.below(1000))});
      return m;
    }
    case 4:
      return ConfigureNamespaceRequest{rng.next_u64(),
                                       random_ns(rng),
                                       random_namespace_config(rng)};
    case 5:
      return NamespaceInfoRequest{rng.next_u64(),
                                  random_ns(rng)};
    case 6:
      return ClusterMapRequest{rng.next_u64()};
    case 7:
      return ApplyMapRequest{rng.next_u64(), random_cluster_map(rng)};
    case 8:
      return StatsRequest{rng.next_u64()};
    case 9:
      return HandoffRequest{rng.next_u64(), rng.next_u64(),
                            random_ns(rng), rng.next_u64(),
                            static_cast<Tokens>(rng.below(1 << 20))};
    case 10: {
      ReplicateRequest m;
      m.id = rng.next_u64();
      m.epoch = rng.next_u64();
      m.seq = rng.next_u64();
      const std::size_t deltas = rng.below(20);
      for (std::size_t i = 0; i < deltas; ++i) {
        ReplicaDelta d;
        d.ns = random_ns(rng);
        d.key = rng.next_u64();
        d.balance = static_cast<Tokens>(rng.below(1 << 20));
        d.floor = static_cast<Tokens>(
            rng.below(static_cast<std::uint64_t>(d.balance) + 1));
        m.deltas.push_back(d);
      }
      return m;
    }
    case 11:
      return ReplicaAckRequest{rng.next_u64(), rng.next_u64()};
    case 12:
      return TracesRequest{rng.next_u64(),
                           static_cast<std::uint32_t>(rng.next_u64())};
    default:
      return PromoteRequest{rng.next_u64(),
                            1 + static_cast<NodeId>(rng.below(1 << 16)),
                            rng.next_u64()};
  }
}

Response random_response(Rng& rng) {
  switch (rng.below(15)) {
    case 0:
      return AcquireResponse{rng.next_u64(),
                             static_cast<Tokens>(rng.below(1000)),
                             static_cast<Tokens>(rng.below(1000))};
    case 1:
      return RefundResponse{rng.next_u64(),
                            static_cast<Tokens>(rng.below(1000)),
                            static_cast<Tokens>(rng.below(1000))};
    case 2:
      return QueryResponse{rng.next_u64(),
                           static_cast<Tokens>(rng.below(1000)),
                           rng.bernoulli(0.5)};
    case 3: {
      BatchAcquireResponse m;
      m.id = rng.next_u64();
      const std::size_t results = rng.below(20);
      for (std::size_t i = 0; i < results; ++i)
        m.results.push_back({static_cast<Tokens>(rng.below(1000)),
                             static_cast<Tokens>(rng.below(1000))});
      return m;
    }
    case 4:
      return ConfigureNamespaceResponse{rng.next_u64(), rng.bernoulli(0.5),
                                        static_cast<Tokens>(rng.below(1000))};
    case 5: {
      NamespaceInfoResponse m;
      m.id = rng.next_u64();
      m.exists = rng.bernoulli(0.5);
      if (m.exists) {
        m.config = random_namespace_config(rng);
        m.capacity = static_cast<Tokens>(rng.below(1000));
        m.accounts = rng.next_u64();
      }
      return m;
    }
    case 6:
      return ClusterMapResponse{rng.next_u64(), random_cluster_map(rng)};
    case 7:
      return ApplyMapResponse{rng.next_u64(), rng.bernoulli(0.5),
                              rng.next_u64(), rng.below(100)};
    case 8:
      return HandoffResponse{rng.next_u64(), rng.bernoulli(0.5)};
    case 9:
      return RedirectResponse{rng.next_u64(), rng.next_u64(),
                              static_cast<NodeId>(rng.below(1 << 16))};
    case 10: {
      StatsResponse m;
      m.id = rng.next_u64();
      const std::size_t entries = rng.below(6);
      for (std::size_t i = 0; i < entries; ++i) {
        StatsEntry e;
        e.name = "metric_" + std::to_string(rng.below(100));
        e.kind = static_cast<std::uint8_t>(rng.below(3));
        e.value = static_cast<double>(rng.below(1 << 20));
        if (e.kind == 2) {
          e.p50 = static_cast<double>(rng.below(1000));
          e.p90 = static_cast<double>(rng.below(1000));
          e.p99 = static_cast<double>(rng.below(1000));
          e.max = static_cast<double>(rng.below(1000));
          e.sum = static_cast<double>(rng.below(1 << 20));
          // Raw log-linear buckets, strictly ascending by index (the
          // decoder enforces the ordering).
          std::uint32_t index = 0;
          const std::size_t nbuckets = rng.below(7);
          for (std::size_t b = 0; b < nbuckets; ++b) {
            index += 1 + static_cast<std::uint32_t>(rng.below(40));
            e.buckets.push_back(StatsBucket{index, 1 + rng.below(1 << 16)});
          }
        }
        m.entries.push_back(std::move(e));
      }
      return m;
    }
    case 11:
      return ErrorResponse{rng.next_u64(), ErrorCode::kOverloaded,
                           static_cast<TimeUs>(rng.below(1 << 20))};
    case 12:
      return PromoteResponse{rng.next_u64(), rng.bernoulli(0.5),
                             rng.next_u64(), rng.below(100),
                             static_cast<Tokens>(rng.below(1 << 20))};
    case 13: {
      TracesResponse m;
      m.id = rng.next_u64();
      const std::size_t spans = rng.below(6);
      for (std::size_t i = 0; i < spans; ++i) {
        m.spans.push_back(TraceSpan{
            rng.next_u64(), rng.next_u64(),
            static_cast<std::int64_t>(rng.next_u64()),
            static_cast<std::int64_t>(rng.below(1 << 20)),
            static_cast<std::uint32_t>(rng.next_u64()),
            static_cast<std::uint32_t>(rng.next_u64()),
            static_cast<std::uint8_t>(rng.below(256)),
            static_cast<std::uint8_t>(rng.below(256)),
            static_cast<std::uint8_t>(rng.below(256))});
      }
      return m;
    }
    default:
      return ErrorResponse{rng.next_u64(),
                           static_cast<ErrorCode>(1 + rng.below(4))};
  }
}

// ---------------------------------------------------------- golden frames

#include "protocol_golden_frames.inc"

std::string to_hex(std::span<const std::byte> bytes) {
  std::string out;
  char buf[3];
  for (const std::byte b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", std::to_integer<unsigned>(b));
    out += buf;
  }
  return out;
}

std::vector<std::byte> from_hex(const std::string& hex) {
  std::vector<std::byte> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out.push_back(
        static_cast<std::byte>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  return out;
}

TEST(ProtocolGolden, RequestFramesAreByteIdentical) {
  std::vector<bool> covered(std::variant_size_v<Request>, false);
  for (const GoldenRequest& g : golden_requests()) {
    SCOPED_TRACE(g.name);
    std::vector<std::byte> wire = encode(g.msg);
    EXPECT_EQ(to_hex(wire), g.hex);
    EXPECT_EQ(decode_request(from_hex(g.hex)), g.msg);

    attach_trace_context(wire, g.trace);
    EXPECT_EQ(to_hex(wire), g.traced_hex);
    const std::vector<std::byte> traced = from_hex(g.traced_hex);
    const std::optional<FrameHeader> head = try_parse_header(traced);
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(decode_request(*head, traced), g.msg);
    EXPECT_EQ(head->trace(), g.trace);
    covered[g.msg.index()] = true;
  }
  for (std::size_t i = 0; i < std::variant_size_v<Request>; ++i)
    EXPECT_TRUE(covered[i]) << "no golden frame for request alternative " << i;
}

TEST(ProtocolGolden, ResponseFramesAreByteIdentical) {
  std::vector<bool> covered(std::variant_size_v<Response>, false);
  for (const GoldenResponse& g : golden_responses()) {
    SCOPED_TRACE(g.name);
    EXPECT_EQ(to_hex(encode(g.msg)), g.hex);
    EXPECT_EQ(decode_response(from_hex(g.hex)), g.msg);
    covered[g.msg.index()] = true;
  }
  for (std::size_t i = 0; i < std::variant_size_v<Response>; ++i)
    EXPECT_TRUE(covered[i]) << "no golden frame for response alternative " << i;
}

TEST(Protocol, RandomizedRequestReencodeByteIdentity) {
  Rng rng(2024);
  for (int i = 0; i < 500; ++i) {
    const Request msg = random_request(rng);
    const std::vector<std::byte> wire = encode(msg);
    const Request decoded = decode_request(wire);
    EXPECT_EQ(decoded, msg);
    EXPECT_EQ(encode(decoded), wire) << "re-encode diverged, iteration " << i;
  }
}

TEST(Protocol, RandomizedResponseReencodeByteIdentity) {
  Rng rng(4048);
  for (int i = 0; i < 500; ++i) {
    const Response msg = random_response(rng);
    const std::vector<std::byte> wire = encode(msg);
    const Response decoded = decode_response(wire);
    EXPECT_EQ(decoded, msg);
    EXPECT_EQ(encode(decoded), wire) << "re-encode diverged, iteration " << i;
  }
}

TEST(Protocol, RoutingWalkMatchesFullDecode) {
  // for_each_data_op_key mirrors decode_request's data-op layout; this
  // fuzz pins the two together so the wire format cannot drift apart.
  // The walk starts after the header try_parse_header read, as the
  // cluster triage calls it.
  const auto walk = [](std::span<const std::byte> frame, auto&& fn) {
    const std::optional<FrameHeader> head = try_parse_header(frame);
    return head.has_value() && for_each_data_op_key(*head, frame, fn);
  };
  Rng rng(7777);
  using KeyList = std::vector<std::pair<NamespaceId, std::uint64_t>>;
  for (int i = 0; i < 400; ++i) {
    const Request msg = random_request(rng);
    const std::vector<std::byte> wire = encode(msg);
    KeyList walked;
    const bool ok = walk(
        wire, [&](NamespaceId ns, std::uint64_t key) {
          walked.emplace_back(ns, key);
          return true;
        });
    KeyList expected;
    bool is_data_op = true;
    if (const auto* m = std::get_if<AcquireRequest>(&msg)) {
      expected.emplace_back(m->ns, m->key);
    } else if (const auto* m = std::get_if<RefundRequest>(&msg)) {
      expected.emplace_back(m->ns, m->key);
    } else if (const auto* m = std::get_if<QueryRequest>(&msg)) {
      expected.emplace_back(m->ns, m->key);
    } else if (const auto* m = std::get_if<BatchAcquireRequest>(&msg)) {
      for (const auto& op : m->ops) expected.emplace_back(m->ns, op.key);
    } else {
      is_data_op = false;  // admin/cluster frames are not walkable
    }
    EXPECT_EQ(ok, is_data_op) << "iteration " << i;
    if (is_data_op) {
      EXPECT_EQ(walked, expected) << "iteration " << i;
    }
  }
  // Responses are never walkable.
  const std::vector<std::byte> resp = encode(AcquireResponse{1, 2, 3});
  EXPECT_FALSE(walk(
      resp, [](NamespaceId, std::uint64_t) { return true; }));
  // Early stop: the walk reports success without visiting further keys.
  BatchAcquireRequest batch;
  batch.id = 9;
  for (std::uint64_t k = 0; k < 8; ++k) batch.ops.push_back({k, 1});
  std::size_t seen = 0;
  EXPECT_TRUE(walk(encode(batch),
                   [&](NamespaceId, std::uint64_t) {
                     return ++seen < 3;
                   }));
  EXPECT_EQ(seen, 3u);
}

TEST(Protocol, EveryTruncationIsRejected) {
  Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    const std::vector<std::byte> wire = encode(random_request(rng));
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_THROW(
          decode_request(std::span(wire.data(), cut)), IoError)
          << "prefix of " << cut << "/" << wire.size() << " bytes decoded";
    }
    const std::vector<std::byte> resp_wire = encode(random_response(rng));
    for (std::size_t cut = 0; cut < resp_wire.size(); ++cut) {
      EXPECT_THROW(decode_response(std::span(resp_wire.data(), cut)), IoError);
    }
  }
}

TEST(Protocol, TrailingBytesRejected) {
  std::vector<std::byte> wire = encode(AcquireRequest{1, 2, 3});
  wire.push_back(std::byte{0});
  EXPECT_THROW(decode_request(wire), IoError);
}

TEST(Protocol, WrongVersionRejected) {
  // The version byte validates outside input: every entry point refuses
  // any byte but kProtocolVersion — version 1 (the retired namespace-less
  // layout) included.
  const auto walks = [](std::span<const std::byte> frame) {
    const std::optional<FrameHeader> head = try_parse_header(frame);
    return head.has_value() &&
           for_each_data_op_key(*head, frame, [](NamespaceId, std::uint64_t) {
             return true;
           });
  };
  for (const int version : {0, 1, kProtocolVersion + 1, 0xFF}) {
    std::vector<std::byte> request = encode(AcquireRequest{1, 2, 3});
    request[0] = static_cast<std::byte>(version);
    EXPECT_THROW(decode_request(request), IoError) << version;
    EXPECT_FALSE(try_parse_header(request).has_value()) << version;
    EXPECT_FALSE(walks(request)) << version;

    std::vector<std::byte> response = encode(AcquireResponse{1, 2, 3});
    response[0] = static_cast<std::byte>(version);
    EXPECT_THROW(decode_response(response), IoError) << version;
    EXPECT_FALSE(try_parse_header(response).has_value()) << version;
  }

  // A well-formed version-1 acquire as its senders laid it out: no
  // namespace field between the id and the key.
  util::BinaryWriter w;
  w.u8(1);
  w.u8(static_cast<std::uint8_t>(MsgType::kAcquire));
  w.u64(1);   // request id
  w.u64(42);  // key
  w.i64(1);   // tokens
  EXPECT_THROW(decode_request(w.data()), IoError);
  EXPECT_FALSE(try_parse_header(w.data()).has_value());
  EXPECT_FALSE(walks(w.data()));
}

TEST(Protocol, UnknownTypeRejected) {
  std::vector<std::byte> wire = encode(AcquireRequest{1, 2, 3});
  wire[1] = std::byte{0x7F};
  EXPECT_THROW(decode_request(wire), IoError);
}

TEST(Protocol, RequestAndResponseFramesAreNotInterchangeable) {
  EXPECT_THROW(decode_response(encode(AcquireRequest{1, 2, 3})), IoError);
  EXPECT_THROW(decode_request(encode(AcquireResponse{1, 2, 3})), IoError);
}

TEST(Protocol, NegativeTokenCountRejected) {
  // A well-behaved client cannot produce this; craft the frame by hand.
  util::BinaryWriter w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kAcquire));
  w.u64(1);
  w.u32(0);  // namespace id
  w.u64(42);
  w.i64(-5);
  EXPECT_THROW(decode_request(w.data()), IoError);
}

TEST(Protocol, OversizedBatchRejectedAtEncodeTime) {
  // The sender fails fast instead of producing a frame the server would
  // silently drop (which would surface as an opaque client timeout).
  BatchAcquireRequest req;
  req.id = 1;
  req.ops.resize(kMaxBatchOps + 1);
  EXPECT_THROW(encode(req), util::InvariantError);
}

TEST(Protocol, OversizedBatchCountRejectedBeforeAllocation) {
  util::BinaryWriter w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kBatchAcquire));
  w.u64(1);
  w.u32(5);  // namespace id
  w.u32(0xFFFFFFFF);  // promises 4 billion ops
  EXPECT_THROW(decode_request(w.data()), IoError);
}

// ------------------------------- admin, error and telemetry messages

TEST(ProtocolV2, AdminAndErrorRoundTrips) {
  NamespaceConfig config;
  config.strategy.kind = core::StrategyKind::kGeneralized;
  config.strategy.a_param = 2;
  config.strategy.c_param = 12;
  config.delta_us = 50'000;
  config.initial_tokens = 4;
  config.idle_ttl_us = 60'000'000;
  config.audit = true;

  const ConfigureNamespaceRequest cfg_req{11, 3, config};
  EXPECT_EQ(std::get<ConfigureNamespaceRequest>(
                decode_request(encode(cfg_req))),
            cfg_req);
  const ConfigureNamespaceResponse cfg_resp{11, true, 12};
  EXPECT_EQ(std::get<ConfigureNamespaceResponse>(
                decode_response(encode(cfg_resp))),
            cfg_resp);

  const NamespaceInfoRequest info_req{12, 3};
  EXPECT_EQ(std::get<NamespaceInfoRequest>(decode_request(encode(info_req))),
            info_req);
  NamespaceInfoResponse info_resp{12, true, config, 12, 99};
  EXPECT_EQ(std::get<NamespaceInfoResponse>(
                decode_response(encode(info_resp))),
            info_resp);
  const NamespaceInfoResponse missing{12, false, {}, 0, 0};
  EXPECT_EQ(std::get<NamespaceInfoResponse>(
                decode_response(encode(missing))),
            missing);

  for (const ErrorCode code :
       {ErrorCode::kMalformedBody, ErrorCode::kUnknownNamespace,
        ErrorCode::kInvalidConfig}) {
    const ErrorResponse err{13, code};
    EXPECT_EQ(std::get<ErrorResponse>(decode_response(encode(err))), err);
  }
}

TEST(ProtocolV2, UnknownErrorCodeAndBadStrategyKindRejected) {
  std::vector<std::byte> err = encode(ErrorResponse{1, ErrorCode::kMalformedBody});
  err.back() = std::byte{0x7E};  // not a defined code
  EXPECT_THROW(decode_response(err), IoError);

  std::vector<std::byte> cfg =
      encode(ConfigureNamespaceRequest{1, 0, NamespaceConfig{}});
  cfg[14] = std::byte{0x33};  // strategy-kind byte (after header + u32 ns)
  EXPECT_THROW(decode_request(cfg), IoError);
}

TEST(ProtocolV2, ErrorResponseExistsOnlyAsResponse) {
  // Craft a kError frame without the response bit: not a legal request.
  util::BinaryWriter w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kError));
  w.u64(1);
  w.u8(1);
  EXPECT_THROW(decode_request(w.data()), IoError);
}

TEST(ProtocolV2, TryParseHeaderSplitsGarbageFromBadBodies) {
  // Valid header + truncated body: header parses, full decode throws.
  const std::vector<std::byte> good = encode(AcquireRequest{42, 7, 1, 3});
  std::vector<std::byte> bad_body(good.begin(), good.end() - 3);
  EXPECT_THROW(decode_request(bad_body), IoError);
  const auto head = try_parse_header(bad_body);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->type, MsgType::kAcquire);
  EXPECT_FALSE(head->is_response);
  EXPECT_EQ(head->id, 42u);

  // Garbage: no header to speak of.
  EXPECT_FALSE(try_parse_header({}).has_value());
  std::vector<std::byte> junk(12, std::byte{0xAB});
  EXPECT_FALSE(try_parse_header(junk).has_value());
  // Bad version.
  std::vector<std::byte> bad_version = good;
  bad_version[0] = std::byte{9};
  EXPECT_FALSE(try_parse_header(bad_version).has_value());
  // Undefined type byte.
  std::vector<std::byte> bad_type = good;
  bad_type[1] = std::byte{0x3F};
  EXPECT_FALSE(try_parse_header(bad_type).has_value());
}

TEST(ProtocolV2, StatsRoundTripIncludingHistogramEntries) {
  const StatsRequest req{321};
  EXPECT_EQ(std::get<StatsRequest>(decode_request(encode(req))), req);

  StatsResponse resp;
  resp.id = 321;
  // An empty snapshot is legal (a server with no registry answers this).
  EXPECT_EQ(std::get<StatsResponse>(decode_response(encode(resp))), resp);

  resp.entries.push_back({"tokend_requests_served", 0, 12345.0, 0, 0, 0, 0,
                          0.0, {}});
  resp.entries.push_back({"tokend_accounts", 1, 17.0, 0, 0, 0, 0, 0.0, {}});
  // Histogram entries carry the raw occupied buckets (strictly ascending
  // by index) plus the running sum, so a merger can rebuild quantiles.
  resp.entries.push_back({"tokend_request_latency_us",
                          2,
                          1000.0,
                          12.5,
                          80.0,
                          240.0,
                          1999.0,
                          87654.5,
                          {{3, 10}, {17, 500}, {40, 490}}});
  const Response decoded = decode_response(encode(resp));
  ASSERT_TRUE(std::holds_alternative<StatsResponse>(decoded));
  EXPECT_EQ(std::get<StatsResponse>(decoded), resp);
  // Byte identity through a decode/re-encode cycle.
  EXPECT_EQ(encode(std::get<StatsResponse>(decoded)), encode(resp));
}

TEST(ProtocolV2, StatsMalformedFramesRejected) {
  StatsResponse resp;
  resp.id = 1;
  resp.entries.push_back({"m", 0, 1.0, 0, 0, 0, 0, 0.0, {}});
  const std::vector<std::byte> good = encode(resp);

  // A counter entry's tail is kind (1 byte) + value (8 bytes): corrupt the
  // kind byte to an undefined metric kind.
  std::vector<std::byte> bad_kind = good;
  bad_kind[bad_kind.size() - 9] = std::byte{5};
  EXPECT_THROW(decode_response(bad_kind), IoError);

  // Entry count beyond the limit (u32 right after the 10-byte header).
  std::vector<std::byte> bad_count = good;
  for (std::size_t i = 10; i < 14; ++i) bad_count[i] = std::byte{0xFF};
  EXPECT_THROW(decode_response(bad_count), IoError);

  // Trailing garbage after a well-formed frame.
  std::vector<std::byte> trailing = good;
  trailing.push_back(std::byte{0});
  EXPECT_THROW(decode_response(trailing), IoError);

  // Oversized entry names never make it onto the wire.
  StatsResponse long_name;
  long_name.entries.push_back(
      {std::string(kMaxStatsNameLen + 1, 'x'), 0, 1.0, 0, 0, 0, 0, 0.0, {}});
  EXPECT_THROW(encode(long_name), util::InvariantError);
}

TEST(ProtocolV2, StatsBucketedEntriesRejectMalformedBucketLists) {
  StatsResponse resp;
  resp.id = 2;
  resp.entries.push_back({"h", 2, 3.0, 1, 1, 1, 1, 6.0, {{5, 1}, {9, 2}}});
  const std::vector<std::byte> good = encode(resp);
  EXPECT_EQ(std::get<StatsResponse>(decode_response(good)), resp);

  // The histogram tail is ... sum(8) nbuckets(4) then (idx u32, count u64)
  // pairs. Corrupt the *last* bucket's index (bytes -12..-9) to descend
  // below the first bucket's: out-of-order bucket lists must not decode.
  std::vector<std::byte> out_of_order = good;
  out_of_order[out_of_order.size() - 12] = std::byte{0x01};
  EXPECT_THROW(decode_response(out_of_order), IoError);

  // An index past the histogram's bucket universe (kMaxStatsBuckets).
  std::vector<std::byte> bad_index = good;
  bad_index[bad_index.size() - 12] = std::byte{0xFF};
  bad_index[bad_index.size() - 11] = std::byte{0xFF};
  EXPECT_THROW(decode_response(bad_index), IoError);

  // Truncation pins: every prefix of the bucketed frame must throw, never
  // crash or decode (the strict-decode rule the fuzzer relies on).
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(decode_response(
                     std::vector<std::byte>(good.begin(), good.begin() + len)),
                 IoError)
        << "prefix length " << len;
  }

  // A claimed bucket count larger than the payload can hold.
  std::vector<std::byte> bad_count = good;
  // nbuckets sits right before the two 12-byte bucket records.
  const std::size_t nbuckets_at = good.size() - 2 * 12 - 4;
  bad_count[nbuckets_at] = std::byte{0x40};
  EXPECT_THROW(decode_response(bad_count), IoError);
}

TEST(ProtocolV2, OverloadedErrorCarriesRetryAfter) {
  const ErrorResponse err{7, ErrorCode::kOverloaded, 4'321};
  const Response decoded = decode_response(encode(err));
  ASSERT_TRUE(std::holds_alternative<ErrorResponse>(decoded));
  EXPECT_EQ(std::get<ErrorResponse>(decoded), err);

  // Only kOverloaded carries the hint: the other codes keep their
  // pre-existing 11-byte layout (header + code), so frames from before
  // the overload valve decode unchanged.
  EXPECT_EQ(encode(ErrorResponse{13, ErrorCode::kMalformedBody}).size(), 11u);
  EXPECT_EQ(encode(err).size(), 19u);

  // A negative hint is never legal on the wire.
  EXPECT_THROW(decode_response(encode(ErrorResponse{
                   7, ErrorCode::kOverloaded, -5})),
               IoError);
}

TEST(ProtocolV2, RandomizedV2FuzzCoversNewMessages) {
  // Byte-identity fuzz over the full message set (admin, error and
  // cluster frames included), plus every-truncation rejection.
  Rng rng(31337);
  for (int i = 0; i < 300; ++i) {
    const Request msg = random_request(rng);
    const std::vector<std::byte> wire = encode(msg);
    EXPECT_EQ(decode_request(wire), msg);
    EXPECT_EQ(encode(decode_request(wire)), wire);
    const Response resp = random_response(rng);
    const std::vector<std::byte> resp_wire = encode(resp);
    EXPECT_EQ(decode_response(resp_wire), resp);
    EXPECT_EQ(encode(decode_response(resp_wire)), resp_wire);
  }
  for (int i = 0; i < 30; ++i) {
    const std::vector<std::byte> wire = encode(random_request(rng));
    for (std::size_t cut = 0; cut < wire.size(); ++cut)
      EXPECT_THROW(decode_request(std::span(wire.data(), cut)), IoError);
    const std::vector<std::byte> resp_wire = encode(random_response(rng));
    for (std::size_t cut = 0; cut < resp_wire.size(); ++cut)
      EXPECT_THROW(decode_response(std::span(resp_wire.data(), cut)), IoError);
  }
}

TEST(ProtocolV2, TracedFramesFuzzRoundTripAndRejectTruncation) {
  // The cross-node trace plumbing rides every request type — the
  // cluster frames (kHandoff/kReplicate/kPromote) included, since those
  // are how a failover's spans get stitched across nodes. A traced frame
  // must round-trip its context exactly, and no truncation of the spliced
  // 9 context bytes (or anything after them) may decode.
  Rng rng(60303);
  for (int i = 0; i < 120; ++i) {
    const Request msg = random_request(rng);
    const TraceContext ctx{1 + rng.next_u64() % (1ULL << 60),
                           rng.bernoulli(0.5)};
    std::vector<std::byte> wire = encode(msg);
    attach_trace_context(wire, ctx);

    const std::optional<FrameHeader> head = try_parse_header(wire);
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(decode_request(*head, wire), msg);
    const std::optional<TraceContext> seen = head->trace();
    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(*seen, ctx);

    // Re-encoding the decoded message and re-attaching the surfaced
    // context must reproduce the frame byte for byte.
    std::vector<std::byte> again = encode(msg);
    attach_trace_context(again, *seen);
    EXPECT_EQ(again, wire);

    if (i < 20) {
      for (std::size_t cut = 0; cut < wire.size(); ++cut)
        EXPECT_THROW(decode_request(std::span(wire.data(), cut)), IoError);
    }
  }
}

// ---------------------------------------------------------- replication

TEST(ProtocolV2, ReplicationRoundTrips) {
  ReplicateRequest rep;
  rep.id = 7;
  rep.epoch = 3;
  rep.seq = 41;
  rep.deltas.push_back(ReplicaDelta{2, 99, 120, 60});
  rep.deltas.push_back(ReplicaDelta{0, 1, 5, 0});
  EXPECT_EQ(decode_request(encode(rep)), Request{rep});

  const ReplicaAckRequest ack{8, 41};
  EXPECT_EQ(decode_request(encode(ack)), Request{ack});

  const PromoteRequest promote{9, 4, 12};
  EXPECT_EQ(decode_request(encode(promote)), Request{promote});

  const PromoteResponse resp{9, true, 13, 17, 250};
  EXPECT_EQ(decode_response(encode(resp)), Response{resp});
}

TEST(ProtocolV2, ReplicaDeltaFloorAboveBalanceRejected) {
  // A floor above the balance would make a promoted follower install more
  // than the primary ever held — the decoder refuses the frame outright.
  ReplicateRequest rep;
  rep.id = 1;
  rep.epoch = 1;
  rep.seq = 1;
  rep.deltas.push_back(ReplicaDelta{0, 5, 10, 11});
  std::vector<std::byte> wire;
  EXPECT_NO_THROW(wire = encode(rep));  // encode is layout-only
  EXPECT_THROW(decode_request(wire), IoError);
}

TEST(ProtocolV2, PromoteMustNameAFailedNode) {
  EXPECT_THROW(decode_request(encode(PromoteRequest{1, kNoNode, 5})),
               IoError);
}

TEST(ProtocolV2, ReplicationStreamFramesAreOneWay) {
  // kReplicate and kReplicaAck exist only as requests: flipping the
  // response bit must not produce a decodable frame.
  std::vector<std::byte> wire = encode(ReplicaAckRequest{1, 2});
  wire[1] |= std::byte{0x80};
  EXPECT_THROW(decode_response(wire), IoError);
  ReplicateRequest rep;
  rep.id = 1;
  rep.epoch = 1;
  rep.seq = 1;
  wire = encode(rep);
  wire[1] |= std::byte{0x80};
  EXPECT_THROW(decode_response(wire), IoError);
}

TEST(ProtocolV2, OversizedReplicaDeltaCountRejectedBeforeAllocation) {
  util::BinaryWriter w;
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kReplicate));
  w.u64(1);
  w.u64(1);           // epoch
  w.u64(1);           // seq
  w.u32(0xFFFFFFFF);  // promises 4 billion deltas
  EXPECT_THROW(decode_request(w.data()), IoError);
}

TEST(ProtocolV2, ClusterMapCarriesReplicationFactor) {
  cluster::ClusterMap m;
  m.epoch = 5;
  m.nodes = {1, 2, 3};
  m.replicas = 2;
  const Request req{ApplyMapRequest{1, m}};
  const Request decoded = decode_request(encode(req));
  EXPECT_EQ(std::get<ApplyMapRequest>(decoded).map.replicas, 2u);
  EXPECT_EQ(decoded, req);

  // An absurd replication factor (beyond any legal member count) is a
  // malformed frame, not a map to adopt.
  std::vector<std::byte> wire = encode(req);
  // replicas is the trailing u32 of the map body, which ends the frame.
  for (std::size_t i = wire.size() - 4; i < wire.size(); ++i)
    wire[i] = std::byte{0xFF};
  EXPECT_THROW(decode_request(wire), IoError);
}

}  // namespace
}  // namespace toka::service::protocol
