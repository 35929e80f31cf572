// The telemetry/overload layer: striped counters, the log-linear
// histogram's quantile error bound, the registry's collect/render paths,
// the space-saving sketch, the admission bucket (pinned and adaptive), and
// the end-to-end overload contract over a live server/client pair —
// deterministic shedding at the budget, the typed kOverloaded error with
// its retry-after hint, the client's backoff window, zero shed below
// budget, and kStats/registry/scrape agreement. Also the cluster-merge
// path (bucketed snapshots merged across nodes reproduce the single
// histogram exactly; bucketless peers degrade to max-over-nodes) and the
// scrape server's HTTP/1.1 contract (keep-alive, Content-Length framing,
// pipelined requests answered in order, /healthz). Runs under TSan in CI
// (the ^test_obs regex), so the scrape-while-serving test exercises
// concurrent collection with the race detector on.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/admission.hpp"
#include "obs/scrape.hpp"
#include "obs/telemetry.hpp"
#include "runtime/inproc.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"

namespace toka::obs {
namespace {

// ------------------------------------------------------------- primitives

TEST(ObsCounter, StripesSumAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsHistogram, SmallValuesAreExact) {
  Histogram h;
  h.observe(3);
  h.observe(3);
  h.observe(3);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.p50, 3.0);
  EXPECT_DOUBLE_EQ(snap.p99, 3.0);
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_DOUBLE_EQ(snap.sum, 9.0);
}

TEST(ObsHistogram, QuantilesWithinLogLinearErrorBound) {
  // A uniform 1..1000 distribution has known quantiles; the 16-sub-bucket
  // log-linear layout bounds relative error by 1/16, plus a little for the
  // bucket-midpoint convention — 8% covers both.
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.observe(v);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.sum, 500'500.0);
  EXPECT_DOUBLE_EQ(snap.max, 1000.0);
  EXPECT_NEAR(snap.p50, 500.0, 500.0 * 0.08);
  EXPECT_NEAR(snap.p90, 900.0, 900.0 * 0.08);
  EXPECT_NEAR(snap.p99, 990.0, 990.0 * 0.08);
}

TEST(ObsHistogram, MergedSnapshotsMatchTheSingleHistogram) {
  // Bucket boundaries are global constants, so merging N nodes' bucketed
  // snapshots must reproduce exactly the histogram one node would have
  // built from all samples — same count, sum, max and quantiles, hence
  // the same ≤1/16 relative-error bound against the true distribution.
  constexpr int kNodes = 4;
  std::vector<Registry> registries(kNodes);
  Histogram reference;
  std::uint64_t state = 12345;
  auto next = [&state] {  // splitmix64: deterministic, well-mixed
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 4000; ++i) {
    const double v = static_cast<double>(next() % 200'000);  // 0..200ms
    registries[i % kNodes].histogram("lat_us").observe(v);
    reference.observe(v);
  }
  std::vector<std::vector<Metric>> per_node;
  for (Registry& r : registries) per_node.push_back(r.collect());
  const std::vector<Metric> merged = merge_snapshots(per_node);

  ASSERT_EQ(merged.size(), 1u);
  const Metric& m = merged.front();
  EXPECT_EQ(m.name, "lat_us");
  EXPECT_EQ(m.kind, Metric::Kind::kHistogram);
  const HistogramSnapshot want = reference.snapshot();
  EXPECT_EQ(static_cast<std::uint64_t>(m.value), want.count);
  EXPECT_DOUBLE_EQ(m.sum, want.sum);
  EXPECT_DOUBLE_EQ(m.max, want.max);
  EXPECT_DOUBLE_EQ(m.p50, want.p50);
  EXPECT_DOUBLE_EQ(m.p90, want.p90);
  EXPECT_DOUBLE_EQ(m.p99, want.p99);
  // And the error bound against the true (uniform) quantiles holds for
  // the merged view just as it does for a single histogram.
  EXPECT_NEAR(m.p50, 100'000.0, 100'000.0 * 0.08);
  EXPECT_NEAR(m.p99, 198'000.0, 198'000.0 * 0.08);
}

TEST(ObsHistogram, MergeSumsCountersAndDegradesBucketlessPeers) {
  std::vector<std::vector<Metric>> nodes(2);
  for (int n = 0; n < 2; ++n) {
    Metric c;
    c.name = "reqs";
    c.kind = Metric::Kind::kCounter;
    c.value = 10 + n;
    nodes[n].push_back(c);
  }
  // An old peer's histogram arrives without buckets: quantiles degrade to
  // max-over-nodes (an upper bound), never an invented midpoint.
  Metric h;
  h.name = "lat";
  h.kind = Metric::Kind::kHistogram;
  h.value = 5;
  h.p50 = 10;
  h.p99 = 40;
  h.max = 50;
  h.sum = 100;
  nodes[0].push_back(h);
  h.p50 = 30;
  h.p99 = 20;
  h.max = 35;
  nodes[1].push_back(h);

  const std::vector<Metric> merged = merge_snapshots(nodes);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].value, 21.0);
  EXPECT_DOUBLE_EQ(merged[1].value, 10.0);
  EXPECT_DOUBLE_EQ(merged[1].p50, 30.0);
  EXPECT_DOUBLE_EQ(merged[1].p99, 40.0);
  EXPECT_DOUBLE_EQ(merged[1].max, 50.0);
  EXPECT_DOUBLE_EQ(merged[1].sum, 200.0);
}

TEST(ObsSpaceSaving, HeavyHitterSurvivesNoise) {
  SpaceSaving sketch(4);
  std::uint64_t fed = 0;
  for (int round = 0; round < 500; ++round) {
    sketch.record(42);  // the heavy hitter
    sketch.record(100 + static_cast<std::uint64_t>(round % 16));  // noise
    fed += 2;
  }
  const auto top = sketch.top();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top.front().item, 42u);
  // Space-saving may overestimate (evicted-minimum inheritance) but never
  // undercounts a true heavy hitter.
  EXPECT_GE(top.front().count, 500u);
  EXPECT_EQ(sketch.total(), fed);
}

TEST(ObsRegistry, CollectRemoveAndRender) {
  Registry registry;
  registry.counter("reqs").add(7);
  registry.gauge("depth", [] { return 3.0; });
  registry.counter_fn("external", [] { return 11.0; });
  registry.histogram("lat").observe(100);

  const auto metrics = registry.collect();
  ASSERT_EQ(metrics.size(), 4u);
  EXPECT_EQ(metrics[0].name, "reqs");
  EXPECT_EQ(metrics[0].kind, Metric::Kind::kCounter);
  EXPECT_DOUBLE_EQ(metrics[0].value, 7.0);
  EXPECT_EQ(metrics[1].kind, Metric::Kind::kGauge);
  EXPECT_DOUBLE_EQ(metrics[1].value, 3.0);
  EXPECT_DOUBLE_EQ(metrics[2].value, 11.0);
  EXPECT_EQ(metrics[3].kind, Metric::Kind::kHistogram);
  EXPECT_DOUBLE_EQ(metrics[3].value, 1.0);  // histogram value = count

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# TYPE reqs counter"), std::string::npos);
  EXPECT_NE(text.find("reqs 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);

  // Latest registration wins; remove() unhooks a callback for good.
  registry.gauge("depth", [] { return 9.0; });
  EXPECT_DOUBLE_EQ(registry.collect()[1].value, 9.0);
  registry.remove("depth");
  registry.remove("no-such-metric");  // no-op
  EXPECT_EQ(registry.collect().size(), 3u);
}

TEST(ObsRegistry, SameNameReturnsSameCounter) {
  Registry registry;
  registry.counter("c").add(1);
  registry.counter("c").add(2);
  EXPECT_EQ(registry.counter("c").value(), 3u);
}

// -------------------------------------------------------------- admission

TEST(ObsAdmission, DisabledBucketAlwaysAdmits) {
  AdmissionBucket bucket;  // default config: disabled
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_admit(0));
}

TEST(ObsAdmission, PinnedBudgetShedsDeterministically) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.interval_us = 1'000;
  cfg.min_budget = 4;
  cfg.max_budget = 4;  // min == max pins the budget
  AdmissionBucket bucket(cfg);

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_admit(100));
  EXPECT_FALSE(bucket.try_admit(100));
  EXPECT_FALSE(bucket.try_admit(999));
  // Retry-after points at the next interval boundary.
  EXPECT_EQ(bucket.retry_after_us(100), 900);
  EXPECT_EQ(bucket.retry_after_us(999), 1);
  // The next interval refills the full pinned budget.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_admit(1'000));
  EXPECT_FALSE(bucket.try_admit(1'999));
}

TEST(ObsAdmission, AdaptiveBudgetTracksServiceTimeAndClamps) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.interval_us = 10'000;
  cfg.min_budget = 2;
  cfg.max_budget = 1'000;
  cfg.utilization = 0.5;

  // 100 us per request fits 10'000 * 0.5 / 100 = 50 admissions an interval.
  AdmissionBucket tracked(cfg);
  tracked.record_service_time_us(100);  // first sample seeds the EWMA
  EXPECT_DOUBLE_EQ(tracked.ewma_service_us(), 100.0);
  tracked.try_admit(0);  // first admit rolls the interval: budget recomputed
  EXPECT_EQ(tracked.budget(), 50);

  // EWMA smooths: 100 * 0.95 + 200 * 0.05 = 105.
  tracked.record_service_time_us(200);
  EXPECT_NEAR(tracked.ewma_service_us(), 105.0, 1e-9);

  // Pathological service times clamp to the configured window.
  AdmissionBucket slow(cfg);
  slow.record_service_time_us(1e9);
  slow.try_admit(0);
  EXPECT_EQ(slow.budget(), cfg.min_budget);
  AdmissionBucket fast(cfg);
  fast.record_service_time_us(1e-6);
  fast.try_admit(0);
  EXPECT_EQ(fast.budget(), cfg.max_budget);
}

// -------------------------------------------- end-to-end over the service

service::ServiceConfig simple_config(Tokens c, TimeUs delta = 1000) {
  service::ServiceConfig cfg;
  cfg.shards = 8;
  cfg.delta_us = delta;
  cfg.strategy.kind = core::StrategyKind::kSimple;
  cfg.strategy.c_param = c;
  return cfg;
}

service::ServerOptions observed_options(service::ShardEngine& engine,
                                        Registry& registry,
                                        std::int64_t budget = 0) {
  service::ServerOptions opts;
  opts.engine = &engine;
  opts.registry = &registry;
  if (budget > 0) {
    opts.admission.enabled = true;
    opts.admission.interval_us = 10'000;
    opts.admission.min_budget = budget;  // pinned: deterministic shedding
    opts.admission.max_budget = budget;
  }
  return opts;
}

TEST(ObsOverload, ServerShedsAtBudgetWithTypedErrorAndClientBacksOff) {
  service::AccountTable table(simple_config(100));
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Registry registry;
  // The table clock stands at 0, so the retry-after hint is one whole
  // admission interval, and the client keeps its backoff window open that
  // long in wall time. A 1 s interval outlasts any scheduling delay
  // between the shed and the next call on a loaded host.
  constexpr TimeUs kInterval = duration::kSecond;
  service::ServerOptions options =
      observed_options(engine, registry, /*budget=*/4);
  options.admission.interval_us = kInterval;
  service::Server server(table, net.endpoint(0), options);
  service::Client client(net.endpoint(1), 0);
  net.start();

  // Exactly the budget is served; nothing sheds below it.
  for (int i = 0; i < 4; ++i)
    EXPECT_NO_THROW(client.acquire(service::kDefaultNamespace, i, 0));
  EXPECT_EQ(server.requests_served(), 4u);
  EXPECT_EQ(server.requests_shed(), 0u);
  EXPECT_EQ(client.overloads(), 0u);

  // The over-budget request is shed with the typed error and a hint; it
  // never touched the table.
  const auto accounts_created = [&] {
    return engine.quiesced([&] { return table.stats().accounts_created; });
  };
  const std::uint64_t accounts_before = accounts_created();
  try {
    client.acquire(service::kDefaultNamespace, 99, 0);
    FAIL() << "expected OverloadedError";
  } catch (const service::protocol::OverloadedError& e) {
    EXPECT_EQ(e.code(), service::protocol::ErrorCode::kOverloaded);
    EXPECT_GT(e.retry_after_us(), 0);
    EXPECT_LE(e.retry_after_us(), kInterval);
  }
  EXPECT_EQ(server.requests_shed(), 1u);
  EXPECT_EQ(client.overloads(), 1u);
  EXPECT_EQ(accounts_created(), accounts_before);

  // Inside the backoff window, data ops fail locally — the server's
  // counters don't move because nothing reached the wire.
  EXPECT_THROW(client.acquire(service::kDefaultNamespace, 99, 0),
               service::protocol::OverloadedError);
  EXPECT_GE(client.backoff_rejections(), 1u);
  EXPECT_EQ(server.requests_shed(), 1u);
  EXPECT_EQ(server.requests_served(), 4u);

  // Stats are never suppressed: an operator can observe an overloaded
  // server from inside the backoff window.
  EXPECT_NO_THROW(client.stats());

  // Recovery: the next admission interval refills the budget, and the
  // client's backoff window (the retry-after hint) expires.
  table.clock().advance(kInterval);
  std::this_thread::sleep_for(std::chrono::microseconds(kInterval) +
                              std::chrono::milliseconds(50));
  EXPECT_NO_THROW(client.acquire(service::kDefaultNamespace, 99, 0));
  EXPECT_EQ(server.requests_served(), 6u);  // the stats call counts too
  net.stop();
}

TEST(ObsOverload, ZeroShedBelowBudget) {
  service::AccountTable table(simple_config(100));
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Registry registry;
  service::Server server(table, net.endpoint(0),
                         observed_options(engine, registry, /*budget=*/64));
  service::Client client(net.endpoint(1), 0);
  net.start();

  for (int i = 0; i < 32; ++i) client.acquire(service::kDefaultNamespace, i, 0);
  EXPECT_EQ(server.requests_served(), 32u);
  EXPECT_EQ(server.requests_shed(), 0u);
  EXPECT_EQ(client.overloads(), 0u);
  EXPECT_EQ(client.backoff_rejections(), 0u);
  net.stop();
}

TEST(ObsOverload, StatsRegistryAndRenderAgree) {
  service::AccountTable table(simple_config(100));
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Registry registry;
  service::Server server(table, net.endpoint(0),
                         observed_options(engine, registry));
  service::Client client(net.endpoint(1), 0);
  net.start();

  for (int i = 0; i < 10; ++i) client.acquire(service::kDefaultNamespace, i, 0);
  engine.quiesced([&] {  // dropped: unknown key
    table.refund(service::kDefaultNamespace, 999'999, 1);
  });

  // The kStats wire snapshot, the in-process registry and the Prometheus
  // exposition all report the same served/dropped-refund counts.
  const std::vector<service::protocol::StatsEntry> wire = client.stats();
  ASSERT_FALSE(wire.empty());
  double wire_served = -1, wire_dropped = -1;
  for (const auto& e : wire) {
    if (e.name == "tokend_requests_served") wire_served = e.value;
    if (e.name == "tokend_refunds_dropped") wire_dropped = e.value;
  }
  // The snapshot is taken while the stats request itself is still being
  // answered, so it sees exactly the 10 data ops.
  EXPECT_DOUBLE_EQ(wire_served, 10.0);
  EXPECT_DOUBLE_EQ(wire_dropped, 1.0);

  double reg_dropped = -1;
  bool saw_latency = false;
  for (const Metric& m : registry.collect()) {
    if (m.name == "tokend_refunds_dropped") reg_dropped = m.value;
    if (m.name == "tokend_request_latency_us") {
      saw_latency = true;
      EXPECT_EQ(m.kind, Metric::Kind::kHistogram);
      EXPECT_GE(m.value, 10.0);  // at least the data ops were timed
    }
  }
  EXPECT_DOUBLE_EQ(reg_dropped, 1.0);
  EXPECT_TRUE(saw_latency);

  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("tokend_refunds_dropped 1\n"), std::string::npos);
  EXPECT_NE(text.find("tokend_requests_served"), std::string::npos);
  net.stop();
}

TEST(ObsOverload, BatchHintRisesWhenOneKeyDominates) {
  service::AccountTable table(simple_config(100));
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(2);
  Registry registry;
  service::Server server(table, net.endpoint(0),
                         observed_options(engine, registry));
  service::Client client(net.endpoint(1), 0);
  net.start();

  // Spread traffic: no account dominates, so batching buys nothing.
  for (int i = 0; i < 64; ++i) client.acquire(service::kDefaultNamespace, i, 0);
  EXPECT_EQ(server.batch_hint(), 1);

  // Hammer one key until it dominates the sketch: the hint grows.
  for (int i = 0; i < 512; ++i) client.acquire(service::kDefaultNamespace, 7, 0);
  EXPECT_GT(server.batch_hint(), 1);
  net.stop();
}

// ----------------------------------------------------------------- scrape

std::string http_get_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)!::write(fd, request, sizeof request - 1);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

TEST(ObsScrape, ServesPrometheusExposition) {
  Registry registry;
  registry.counter("scrape_test_requests").add(5);
  ScrapeServer scrape(registry, 0);  // ephemeral port
  ASSERT_GT(scrape.port(), 0);

  const std::string response = http_get_metrics(scrape.port());
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("scrape_test_requests 5"), std::string::npos);

  // A second scrape sees updates (the server answers one connection at a
  // time, read-render-write-close).
  registry.counter("scrape_test_requests").add(1);
  EXPECT_NE(http_get_metrics(scrape.port()).find("scrape_test_requests 6"),
            std::string::npos);
}

// Connects to `port` and returns the fd (-1 on failure).
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads exactly one HTTP response (headers + Content-Length body) off
// `fd`, consuming from and refilling `buf` so pipelined responses peel
// off one at a time. Returns head + body ("" on a short read).
std::string read_one_response(int fd, std::string& buf) {
  char chunk[4096];
  std::size_t head_end;
  while ((head_end = buf.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return {};
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string head = buf.substr(0, head_end + 4);
  const std::size_t at = head.find("Content-Length: ");
  if (at == std::string::npos) return {};
  const std::size_t body_len = std::strtoull(
      head.c_str() + at + std::strlen("Content-Length: "), nullptr, 10);
  while (buf.size() < head.size() + body_len) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) return {};
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string response = buf.substr(0, head.size() + body_len);
  buf.erase(0, head.size() + body_len);
  return response;
}

TEST(ObsScrape, KeepAliveServesPipelinedRequestsInOrder) {
  // Regression for the read-render-close server: one socket, three
  // requests — the first two pipelined in a single write — and every
  // response framed by Content-Length on the same connection.
  Registry registry;
  registry.counter("pipelined_reqs").add(9);
  ScrapeServer scrape(registry, 0);
  scrape.set_health([] { return std::string("{\"ok\":true,\"epoch\":3}"); });

  const int fd = raw_connect(scrape.port());
  ASSERT_GE(fd, 0);
  const char pipelined[] =
      "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::write(fd, pipelined, sizeof pipelined - 1),
            static_cast<ssize_t>(sizeof pipelined - 1));

  std::string buf;
  const std::string first = read_one_response(fd, buf);
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(first.find("pipelined_reqs 9"), std::string::npos);

  const std::string second = read_one_response(fd, buf);
  ASSERT_FALSE(second.empty());
  EXPECT_NE(second.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(second.find("{\"ok\":true,\"epoch\":3}"), std::string::npos);

  // The connection is still alive: a third request — now updated state —
  // answers on the same socket, and "Connection: close" is honoured.
  registry.counter("pipelined_reqs").add(1);
  const char last[] = "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, last, sizeof last - 1),
            static_cast<ssize_t>(sizeof last - 1));
  const std::string third = read_one_response(fd, buf);
  ASSERT_FALSE(third.empty());
  EXPECT_NE(third.find("Connection: close"), std::string::npos);
  EXPECT_NE(third.find("pipelined_reqs 10"), std::string::npos);
  char extra;
  EXPECT_EQ(::read(fd, &extra, 1), 0);  // server closed its side
  ::close(fd);
}

TEST(ObsScrape, HealthzFallsBackWithoutAProbe) {
  Registry registry;
  ScrapeServer scrape(registry, 0);
  const int fd = raw_connect(scrape.port());
  ASSERT_GE(fd, 0);
  const char req[] = "GET /healthz HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::write(fd, req, sizeof req - 1),
            static_cast<ssize_t>(sizeof req - 1));
  std::string buf;
  const std::string response = read_one_response(fd, buf);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("{\"ok\":true}"), std::string::npos);
  // HTTP/1.0 without a keep-alive header defaults to close.
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  ::close(fd);
}

TEST(ObsScrape, ScrapeWhileServingIsRaceFree) {
  // TSan coverage: request threads hammer the table through the server
  // (bumping counters, the latency histogram and the hot-key sketch) while
  // this thread collects and renders the registry concurrently.
  service::AccountTable table(simple_config(100));
  service::ShardEngine engine(table);
  runtime::InProcNetwork net(3);
  Registry registry;
  service::Server server(table, net.endpoint(0),
                         observed_options(engine, registry));
  net.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> loads;
  for (int t = 1; t <= 2; ++t) {
    loads.emplace_back([&, t] {
      service::Client client(net.endpoint(t), 0);
      for (std::uint64_t i = 0; i < 400; ++i)
        client.acquire(service::kDefaultNamespace, i % 32, 0);
    });
  }
  std::uint64_t renders = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    (void)registry.collect();
    ASSERT_FALSE(registry.render_prometheus().empty());
    if (++renders >= 50) {
      // Enough concurrent overlap; wait the loads out.
      for (auto& l : loads) l.join();
      loads.clear();
      stop.store(true, std::memory_order_relaxed);
    }
  }
  EXPECT_EQ(server.requests_served(), 800u);
  EXPECT_GE(renders, 50u);
  net.stop();
}

}  // namespace
}  // namespace toka::obs
