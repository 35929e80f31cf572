// The trace-context wire extension and end-to-end span propagation:
// attach/decode round trips, the context-free byte-identity pin,
// truncation fuzz over context-carrying frames, the kTraces snapshot messages, and the full client → server →
// shard engine pipeline recording decode / queue-wait / execute / cork
// spans that a client can fetch back — including the acceptance check that
// a forced-slow request's span sum explains its observed latency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/error.hpp"

namespace toka::service {
namespace {

namespace proto = protocol;
using util::IoError;
using util::InvariantError;
using namespace std::chrono_literals;

// ------------------------------------------------------------- wire level

TEST(TraceWire, AttachedContextRoundTrips) {
  const proto::AcquireRequest req{77, 1234, 5};
  std::vector<std::byte> wire = proto::encode(req);
  proto::attach_trace_context(wire, {0xABCDEF0123456789ULL, true});

  const auto head = proto::try_parse_header(wire);
  ASSERT_TRUE(head.has_value());
  const proto::Request decoded = proto::decode_request(*head, wire);
  const std::optional<proto::TraceContext> trace = head->trace();
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->trace_id, 0xABCDEF0123456789ULL);
  EXPECT_TRUE(trace->sampled);
  EXPECT_EQ(std::get<proto::AcquireRequest>(decoded), req);

  EXPECT_EQ(head->type, proto::MsgType::kAcquire);
  EXPECT_EQ(head->id, 77u);
  EXPECT_TRUE(head->traced);
  EXPECT_EQ(head->trace_id, 0xABCDEF0123456789ULL);
  EXPECT_TRUE(head->sampled);
}

TEST(TraceWire, UnsampledContextRoundTrips) {
  std::vector<std::byte> wire = proto::encode(proto::QueryRequest{9, 42});
  proto::attach_trace_context(wire, {7, false});
  const auto head = proto::try_parse_header(wire);
  ASSERT_TRUE(head.has_value());
  proto::decode_request(*head, wire);
  const std::optional<proto::TraceContext> trace = head->trace();
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->trace_id, 7u);
  EXPECT_FALSE(trace->sampled);
}

TEST(TraceWire, ContextFreeFramesAreByteIdentical) {
  // The feature costs nothing on frames that don't use it: encoding is
  // unchanged, the trace bit is clear, and the decoder reports no context.
  const std::vector<std::byte> wire = proto::encode(proto::AcquireRequest{1, 2, 3});
  EXPECT_EQ(std::to_integer<std::uint8_t>(wire[1]) & proto::kTraceBit, 0);

  const auto head = proto::try_parse_header(wire);
  ASSERT_TRUE(head.has_value());
  proto::decode_request(*head, wire);
  EXPECT_FALSE(head->trace().has_value());

  // Attaching is a pure 9-byte splice after the (version, type, id) header:
  // everything else is byte-identical.
  std::vector<std::byte> traced = wire;
  proto::attach_trace_context(traced, {5, true});
  ASSERT_EQ(traced.size(), wire.size() + 9);
  EXPECT_EQ(traced[0], wire[0]);
  EXPECT_EQ(std::to_integer<std::uint8_t>(traced[1]),
            std::to_integer<std::uint8_t>(wire[1]) | proto::kTraceBit);
  for (std::size_t i = 2; i < 10; ++i) EXPECT_EQ(traced[i], wire[i]);
  for (std::size_t i = 10; i < wire.size(); ++i)
    EXPECT_EQ(traced[i + 9], wire[i]);
}

TEST(TraceWire, DoubleAttachIsRejected) {
  std::vector<std::byte> wire = proto::encode(proto::AcquireRequest{1, 2, 3});
  proto::attach_trace_context(wire, {5, true});
  EXPECT_THROW(proto::attach_trace_context(wire, {6, true}), InvariantError);
}

TEST(TraceWire, TracedFrameTruncationsAllThrow) {
  const std::vector<proto::Request> requests = {
      proto::AcquireRequest{1, 2, 3},
      proto::RefundRequest{4, 5, 6},
      proto::QueryRequest{7, 8},
      proto::BatchAcquireRequest{9, {{1, 1}, {2, 2}, {3, 3}}},
  };
  for (const proto::Request& req : requests) {
    std::vector<std::byte> wire = proto::encode(req);
    proto::attach_trace_context(wire, {0xFEEDFACE, true});
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      EXPECT_THROW(proto::decode_request(std::span(wire.data(), cut)), IoError)
          << "prefix of " << cut << "/" << wire.size() << " bytes decoded";
    }
    // The untruncated frame still decodes, of course.
    EXPECT_NO_THROW(proto::decode_request(wire));
  }
}

TEST(TraceWire, UnknownTraceFlagBitsAreRejected) {
  // Only kTraceFlagSampled is defined; any other bit is vocabulary the
  // decoder does not speak and the frame is rejected loudly, not silently
  // reinterpreted — adding a flag means bumping what both sides accept.
  for (std::uint8_t bad : {0x02, 0x04, 0x80, 0x80 | 0x04}) {
    std::vector<std::byte> wire = proto::encode(proto::AcquireRequest{1, 2, 3});
    proto::attach_trace_context(wire, {11, false});
    wire[18] = static_cast<std::byte>(bad | proto::kTraceFlagSampled);
    EXPECT_THROW(proto::decode_request(wire), IoError) << int(bad);
  }
  // Both defined flag bytes (sampled set / clear) decode, of course.
  for (bool sampled : {false, true}) {
    std::vector<std::byte> wire = proto::encode(proto::AcquireRequest{1, 2, 3});
    proto::attach_trace_context(wire, {11, sampled});
    const auto head = proto::try_parse_header(wire);
    ASSERT_TRUE(head.has_value());
    EXPECT_NO_THROW(proto::decode_request(*head, wire));
    const std::optional<proto::TraceContext> trace = head->trace();
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->sampled, sampled);
  }
}

TEST(TraceWire, TracesMessagesRoundTrip) {
  const proto::TracesRequest req{31, 256};
  const proto::Request decoded = proto::decode_request(proto::encode(req));
  EXPECT_EQ(std::get<proto::TracesRequest>(decoded), req);

  proto::TracesResponse resp;
  resp.id = 31;
  resp.spans.push_back({0xAA, 7, 1000, 50, 0, 2,
                        static_cast<std::uint8_t>(obs::Stage::kExecute),
                        static_cast<std::uint8_t>(obs::Decision::kFresh),
                        obs::kSpanSampled});
  resp.spans.push_back({0xBB, 0, 2000, 0, 0, 2,
                        static_cast<std::uint8_t>(obs::Stage::kShed),
                        static_cast<std::uint8_t>(obs::Decision::kShed),
                        obs::kSpanForced});
  const proto::Response rt = proto::decode_response(proto::encode(resp));
  EXPECT_EQ(std::get<proto::TracesResponse>(rt), resp);
}

// ------------------------------------------------------------ end to end

ServiceConfig traced_config() {
  ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = 1000;
  cfg.strategy.kind = core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 2;
  cfg.strategy.c_param = 10;
  cfg.seed = 42;
  return cfg;
}

/// Issues one traced acquire with the caller's explicit context and waits
/// for it, returning the observed client latency in microseconds.
std::int64_t traced_acquire(Client& client, std::uint64_t key, Tokens n,
                            const proto::TraceContext& ctx) {
  std::promise<void> done;
  std::exception_ptr failure;
  const std::int64_t t0 = obs::Tracer::now_us();
  client.acquire_async(
      kDefaultNamespace, key, n,
      [&](AcquireResult, std::exception_ptr error) {
        failure = error;
        done.set_value();
      },
      /*timeout_us=*/0, &ctx);
  done.get_future().wait();
  const std::int64_t latency = obs::Tracer::now_us() - t0;
  if (failure) std::rethrow_exception(failure);
  return latency;
}

TEST(TraceEndToEnd, PipelineStagesRecordedAndFetchable) {
  AccountTable table(traced_config());
  ShardEngineOptions eopts;
  eopts.workers = 2;
  obs::Tracer tracer({.sample_every = 1});
  eopts.tracer = &tracer;
  ShardEngine engine(table, eopts);
  runtime::InProcNetwork net(2);
  ServerOptions sopts;
  sopts.engine = &engine;
  sopts.tracer = &tracer;
  Server server(table, net.endpoint(0), sopts);
  Client client(net.endpoint(1), 0);
  net.start();

  client.acquire(5, 0);  // create the account untraced
  table.clock().advance(6000);
  // The explicit context is stamped even though the client itself has no
  // tracer attached — the spans below are all server-side.
  traced_acquire(client, 5, 1, {42, true});
  engine.drain();

  const std::vector<proto::TraceSpan> spans = client.fetch_traces();
  bool decode = false, queue_wait = false, execute = false, cork = false;
  for (const proto::TraceSpan& span : spans) {
    if (span.trace_id != 42) continue;
    switch (static_cast<obs::Stage>(span.stage)) {
      case obs::Stage::kDecode: decode = true; break;
      case obs::Stage::kQueueWait: queue_wait = true; break;
      case obs::Stage::kExecute: {
        execute = true;
        // The granted acquire's §3.4 decision: paid from the bank or from
        // tokens minted by this settle — never denied/error.
        const auto decision = static_cast<obs::Decision>(span.decision);
        EXPECT_TRUE(decision == obs::Decision::kFresh ||
                    decision == obs::Decision::kBank)
            << static_cast<int>(decision);
        EXPECT_EQ(span.key, 5u);
        break;
      }
      case obs::Stage::kCork: cork = true; break;
      default: break;
    }
    EXPECT_EQ(span.flags & obs::kSpanSampled, obs::kSpanSampled);
  }
  EXPECT_TRUE(decode) << "no kDecode span for trace 42";
  EXPECT_TRUE(queue_wait) << "no kQueueWait span for trace 42";
  EXPECT_TRUE(execute) << "no kExecute span for trace 42";
  EXPECT_TRUE(cork) << "no kCork span for trace 42";
  net.stop();
}

// The ISSUE acceptance check: park the shard workers under quiesce so a
// request accrues a long, honest queue-wait, then demand the recorded
// stage spans (decode + queue-wait + execute + cork) explain the latency
// the client observed — within 10%.
TEST(TraceEndToEnd, ForcedSlowSpanSumExplainsObservedLatency) {
  AccountTable table(traced_config());
  obs::Tracer tracer({.sample_every = 1});
  ShardEngineOptions eopts;
  eopts.workers = 2;
  eopts.tracer = &tracer;
  ShardEngine engine(table, eopts);
  runtime::InProcNetwork net(2);
  ServerOptions sopts;
  sopts.engine = &engine;
  sopts.tracer = &tracer;
  Server server(table, net.endpoint(0), sopts);
  Client client(net.endpoint(1), 0);
  net.start();
  table.clock().advance(6000);

  // Park the workers: the acquire below sits in the shard queue for the
  // whole sleep, so queue-wait dominates and transport noise is < 10%. The
  // sleep starts only once the acquire is queued, so however late this
  // thread issues it, the request waits the full 80 ms.
  std::atomic<bool> parked{false};
  std::thread admin([&] {
    engine.quiesced([&] {
      parked.store(true);
      const auto deadline = std::chrono::steady_clock::now() + 5s;
      while (engine.queue_depth_max() == 0 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      std::this_thread::sleep_for(80ms);
    });
  });
  while (!parked.load()) std::this_thread::yield();

  const std::int64_t observed_us = traced_acquire(client, 7, 1, {42, true});
  admin.join();
  engine.drain();

  std::int64_t span_sum_us = 0;
  int stages = 0;
  for (const proto::TraceSpan& span : client.fetch_traces()) {
    if (span.trace_id != 42) continue;
    const auto stage = static_cast<obs::Stage>(span.stage);
    if (stage == obs::Stage::kDecode || stage == obs::Stage::kQueueWait ||
        stage == obs::Stage::kExecute || stage == obs::Stage::kCork) {
      span_sum_us += span.dur_us;
      ++stages;
    }
  }
  ASSERT_EQ(stages, 4) << "expected one span per pipeline stage";
  EXPECT_GE(observed_us, 80'000) << "quiesce did not delay the request";
  // The stages cover the server side of the round trip; the remainder is
  // loopback transport time, which the 80ms park dwarfs.
  EXPECT_LE(span_sum_us, observed_us);
  EXPECT_GE(span_sum_us, observed_us - observed_us / 10)
      << "spans sum to " << span_sum_us << "us but the client observed "
      << observed_us << "us";
  net.stop();
}

TEST(TraceEndToEnd, ShedRequestsCarryTracedShedDecisions) {
  AccountTable table(traced_config());
  obs::Tracer tracer({.sample_every = 0});  // unsampled: sheds force through
  ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  ServerOptions sopts;
  sopts.engine = &engine;
  sopts.tracer = &tracer;
  sopts.admission.enabled = true;
  sopts.admission.interval_us = 1'000'000;
  sopts.admission.min_budget = 1;  // pinned: second data op sheds
  sopts.admission.max_budget = 1;
  Server server(table, net.endpoint(0), sopts);
  Client client(net.endpoint(1), 0);
  net.start();

  traced_acquire(client, 1, 0, {41, false});  // spends the whole budget
  bool shed = false;
  try {
    traced_acquire(client, 2, 0, {43, false});
  } catch (const proto::RpcError& e) {
    shed = e.code() == proto::ErrorCode::kOverloaded;
  }
  ASSERT_TRUE(shed) << "pinned budget of 1 did not shed the second op";

  // The shed span is forced into the recorder despite sampling being off,
  // and the kTraces fetch itself is never shed (telemetry stays operable).
  bool found = false;
  for (const proto::TraceSpan& span : client.fetch_traces()) {
    if (span.trace_id != 43) continue;
    found = true;
    EXPECT_EQ(static_cast<obs::Stage>(span.stage), obs::Stage::kShed);
    EXPECT_EQ(static_cast<obs::Decision>(span.decision), obs::Decision::kShed);
    EXPECT_EQ(span.flags & obs::kSpanForced, obs::kSpanForced);
  }
  EXPECT_TRUE(found) << "no forced kShed span for the shed request";
  net.stop();
}

}  // namespace
}  // namespace toka::service
