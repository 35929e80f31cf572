// The flight recorder: recording policy (sampled / forced / dropped),
// ring overwrite, multi-thread snapshots, the /traces JSON document, the
// registry export (per-stage histograms + span counters), and the scrape
// server serving /traces and surviving silent clients while a live server
// records spans. Runs under TSan in CI (the ^test_obs regex), so the
// scrape-traces-while-serving test exercises concurrent recording and
// snapshotting with the race detector on.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/scrape.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"

namespace toka::obs {
namespace {

using namespace std::chrono_literals;

// ------------------------------------------------------- recording policy

TEST(Tracer, SampledSpansRecordUnsampledDrop) {
  Tracer tracer({.rings = 2, .ring_capacity = 64, .sample_every = 1});
  EXPECT_TRUE(tracer.record(Stage::kExecute, Decision::kBank, 1, 10, 0, 100,
                            5, /*sampled=*/true));
  EXPECT_FALSE(tracer.record(Stage::kExecute, Decision::kBank, 2, 11, 0, 200,
                             5, /*sampled=*/false));
  EXPECT_EQ(tracer.recorded(), 1u);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 1u);
  EXPECT_EQ(spans[0].flags & kSpanSampled, kSpanSampled);
  EXPECT_EQ(spans[0].flags & kSpanForced, 0);
}

TEST(Tracer, ShedDeniedErrorAndSlowForceRecording) {
  TracerOptions opts;
  opts.slow_threshold_us = 1'000;
  Tracer tracer(opts);
  // Unsampled, but the decision (or the duration) forces the record.
  EXPECT_TRUE(tracer.record(Stage::kShed, Decision::kShed, 1, 0, 0, 0, 1,
                            /*sampled=*/false));
  EXPECT_TRUE(tracer.record(Stage::kExecute, Decision::kDenied, 2, 0, 0, 0, 1,
                            /*sampled=*/false));
  EXPECT_TRUE(tracer.record(Stage::kExecute, Decision::kError, 3, 0, 0, 0, 1,
                            /*sampled=*/false));
  EXPECT_TRUE(tracer.record(Stage::kExecute, Decision::kBank, 4, 0, 0, 0,
                            /*dur_us=*/5'000, /*sampled=*/false));
  // A fast, clean, unsampled span stays out.
  EXPECT_FALSE(tracer.record(Stage::kExecute, Decision::kBank, 5, 0, 0, 0, 1,
                             /*sampled=*/false));
  for (const SpanRecord& span : tracer.snapshot())
    EXPECT_EQ(span.flags & kSpanForced, kSpanForced) << span.trace_id;
}

TEST(Tracer, SampleNextIsOneInN) {
  Tracer tracer({.sample_every = 4});
  int sampled = 0;
  for (int i = 0; i < 400; ++i)
    if (tracer.sample_next()) ++sampled;
  EXPECT_EQ(sampled, 100);
}

TEST(Tracer, SampleEveryZeroDisablesSampling) {
  Tracer tracer({.sample_every = 0});
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(tracer.sample_next());
  // Forced records still happen with sampling off.
  EXPECT_TRUE(tracer.record(Stage::kShed, Decision::kShed, 1, 0, 0, 0, 1,
                            /*sampled=*/false));
}

TEST(Tracer, NextTraceIdIsNeverZeroAndMonotonic) {
  Tracer tracer;
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = tracer.next_trace_id();
    EXPECT_GT(id, prev);
    prev = id;
  }
}

// ------------------------------------------------------------------ rings

TEST(Tracer, RingOverwritesOldestFirst) {
  Tracer tracer({.rings = 1, .ring_capacity = 8, .sample_every = 1});
  for (std::uint64_t i = 1; i <= 20; ++i)
    tracer.record(Stage::kExecute, Decision::kBank, i, i, 0,
                  static_cast<std::int64_t>(i), 1, true);
  EXPECT_EQ(tracer.recorded(), 20u);  // recorded counts overwritten spans too
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 8u);  // the ring holds only the newest 8
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].trace_id, 13 + i);  // 13..20, oldest first
}

TEST(Tracer, SnapshotCapsToNewest) {
  Tracer tracer({.rings = 1, .ring_capacity = 32, .sample_every = 1});
  for (std::uint64_t i = 1; i <= 10; ++i)
    tracer.record(Stage::kExecute, Decision::kBank, i, 0, 0,
                  static_cast<std::int64_t>(i), 1, true);
  const std::vector<SpanRecord> spans = tracer.snapshot(/*max_spans=*/3);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].trace_id, 8u);
  EXPECT_EQ(spans[2].trace_id, 10u);
}

TEST(Tracer, ConcurrentRecordersLoseNothingBelowCapacity) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  Tracer tracer({.rings = 4, .ring_capacity = 4096, .sample_every = 1});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i)
        tracer.record(Stage::kExecute, Decision::kBank,
                      static_cast<std::uint64_t>(t * kPerThread + i + 1), 0, 0,
                      0, 1, true);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kPerThread);
  EXPECT_EQ(tracer.snapshot().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// ------------------------------------------------------- registry export

TEST(Tracer, RegistryGetsSpanCountersAndStageHistograms) {
  Registry registry;
  TracerOptions opts;
  opts.sample_every = 1;
  opts.registry = &registry;
  {
    Tracer tracer(opts);
    tracer.record(Stage::kQueueWait, Decision::kNone, 1, 0, 0, 0, 50, true);
    tracer.record(Stage::kExecute, Decision::kBank, 1, 0, 0, 50, 7, true);
    tracer.record(Stage::kCork, Decision::kNone, 1, 0, 0, 57, 3, true);
    tracer.record(Stage::kShed, Decision::kShed, 2, 0, 0, 0, 1, false);
    double spans = -1, forced = -1, exec_count = -1;
    for (const Metric& m : registry.collect()) {
      if (m.name == "tokend_trace_spans") spans = m.value;
      if (m.name == "tokend_trace_spans_forced") forced = m.value;
      if (m.name == "tokend_trace_execute_us") exec_count = m.value;
    }
    EXPECT_DOUBLE_EQ(spans, 4.0);
    EXPECT_DOUBLE_EQ(forced, 1.0);
    EXPECT_DOUBLE_EQ(exec_count, 1.0);  // histograms report sample count
  }
  // Destruction unregisters everything the tracer added.
  for (const Metric& m : registry.collect())
    EXPECT_TRUE(m.name.find("tokend_trace") == std::string::npos) << m.name;
}

// ------------------------------------------------------------------ JSON

TEST(Tracer, RenderJsonCarriesStageDecisionAndFlags) {
  Tracer tracer({.rings = 1, .ring_capacity = 8, .sample_every = 1});
  tracer.record(Stage::kExecute, Decision::kFresh, 7, 42, 3, 100, 9, true);
  const std::string json = tracer.render_json();
  EXPECT_NE(json.find("\"spans\":["), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"key\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ns\":3"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("\"decision\":\"fresh\""), std::string::npos);
  EXPECT_NE(json.find("\"sampled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"forced\":false"), std::string::npos);
}

TEST(Tracer, EmptyRenderJsonIsAnEmptyDocument) {
  Tracer tracer;
  EXPECT_EQ(tracer.render_json(), "{\"spans\":[]}");
}

// ------------------------------------------------- scrape server /traces

int connect_scrape(std::uint16_t port) {
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

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_scrape(port);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got <= 0) break;
    resp.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return resp;
}

TEST(ScrapeServer, ServesTracesAsJsonAndMetricsAsText) {
  Registry registry;
  registry.counter("tokend_requests_served").add(3);
  Tracer tracer({.rings = 1, .ring_capacity = 8, .sample_every = 1});
  tracer.record(Stage::kShed, Decision::kShed, 9, 5, 0, 0, 1, false);
  ScrapeServer server(registry, &tracer, 0);

  const std::string traces = http_get(server.port(), "/traces");
  EXPECT_NE(traces.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(traces.find("\"trace_id\":9"), std::string::npos);
  EXPECT_NE(traces.find("\"decision\":\"shed\""), std::string::npos);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(metrics.find("tokend_requests_served 3"), std::string::npos);
}

TEST(ScrapeServer, WithoutTracerTracesFallsBackToMetrics) {
  Registry registry;
  registry.counter("tokend_requests_served").add(1);
  ScrapeServer server(registry, 0);
  const std::string resp = http_get(server.port(), "/traces");
  EXPECT_NE(resp.find("tokend_requests_served 1"), std::string::npos);
}

// The satellite regression: a connected-but-silent client must not wedge
// the single-threaded serve loop. The deadline closes it and the next
// scrape is answered.
TEST(ScrapeServer, SilentClientCannotWedgeTheServeLoop) {
  Registry registry;
  registry.counter("tokend_requests_served").add(7);
  ScrapeServer server(registry, 0);

  // Connect and send nothing: the serve loop blocks in recv() on this
  // connection until the read deadline fires.
  const int silent = connect_scrape(server.port());
  ASSERT_GE(silent, 0);

  // A scrape queued behind the silent client completes once the deadline
  // (kConnTimeoutMs) expires — bound the whole thing well above it.
  std::atomic<bool> answered{false};
  std::thread scraper([&] {
    const std::string resp = http_get(server.port(), "/metrics");
    if (resp.find("tokend_requests_served 7") != std::string::npos)
      answered.store(true);
  });
  scraper.join();
  EXPECT_TRUE(answered.load());
  ::close(silent);
}

// ------------------------------------- scrape /traces while serving load

// Concurrent recording (server threads), snapshotting (/traces scrapes)
// and metric collection, with TSan watching in CI.
TEST(ScrapeServer, TracesScrapeWhileServing) {
  service::ServiceConfig cfg;
  cfg.shards = 4;
  cfg.delta_us = 1000;
  service::AccountTable table(cfg);
  runtime::InProcNetwork net(2);
  Registry registry;
  TracerOptions topts;
  topts.sample_every = 1;  // record every stage of every request
  topts.registry = &registry;
  Tracer tracer(topts);
  service::ShardEngineOptions eopts;
  eopts.tracer = &tracer;
  service::ShardEngine engine(table, eopts);
  service::ServerOptions sopts;
  sopts.engine = &engine;
  sopts.registry = &registry;
  sopts.tracer = &tracer;
  service::Server server(table, net.endpoint(0), sopts);
  net.start();
  ScrapeServer scrape(registry, &tracer, 0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::thread load([&] {
    service::Client client(net.endpoint(1), 0);
    client.set_tracer(&tracer);
    std::uint64_t key = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      client.acquire(key++ % 64, 1);
      served.fetch_add(1);
    }
  });
  for (int i = 0; i < 20; ++i) {
    const std::string resp = http_get(scrape.port(), "/traces");
    EXPECT_NE(resp.find("\"spans\":["), std::string::npos);
  }
  // On a loaded host the scrapes can finish before the first request.
  while (served.load() == 0) std::this_thread::yield();
  stop.store(true);
  load.join();
  net.stop();
  EXPECT_GT(tracer.recorded(), 0u);
}

}  // namespace
}  // namespace toka::obs
