// tokend: a token-account rate-limiting daemon over real TCP sockets (the
// epoll mesh).
//
// Endpoint 0 serves a sharded service::AccountTable through the wire
// protocol, its data ops executed by a service::ShardEngine whose workers
// own the table's shards;
// the remaining endpoints run service::Client threads that hammer it with
// Zipf-skewed acquire/refund/query traffic across *two namespaces* with
// different policies: namespace 0 (the default, "interactive") runs the
// paper's generalized strategy, and namespace 1 ("bulk") is created at
// runtime through the admin API with a tighter classic token bucket and a
// slower period. Both namespaces check every key against §3.4, so
// the run ends by proving that no served key in either namespace ever
// exceeded its own ceil(t/Δ)+C burst bound.
//
// The run also exports telemetry: an obs::Registry collects the server's
// counters, latency histogram and the table's stats, and a Prometheus
// scrape endpoint serves them over HTTP for the duration of the run
// (--scrape-port=0 picks a free port; the chosen one is printed).
//
//   $ ./tokend [--clients=3] [--ms=400] [--delta-ms=20] [--keys=64]
//              [--strategy=generalized] [--a=2] [--c=8] [--zipf=0.9]
//              [--bulk-c=4] [--bulk-delta-ms=40] [--scrape-port=0]
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "obs/scrape.hpp"
#include "obs/telemetry.hpp"
#include "runtime/epoll.hpp"
#include "service/account_table.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/shard_engine.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

int main(int argc, char** argv) {
  using namespace toka;
  const util::Args args(argc, argv);
  const auto clients = static_cast<std::size_t>(args.get_int("clients", 3));
  const auto run_ms = args.get_int("ms", 400);
  const auto keys = static_cast<std::uint64_t>(args.get_int("keys", 64));

  service::ServiceConfig cfg;
  cfg.shards = 16;
  cfg.delta_us = args.get_int("delta-ms", 20) * 1000;
  cfg.strategy.kind =
      core::parse_strategy_kind(args.get_string("strategy", "generalized"));
  cfg.strategy.a_param = args.get_int("a", 2);
  cfg.strategy.c_param = args.get_int("c", 8);
  cfg.initial_tokens = 0;
  cfg.idle_ttl_us = 0;
  cfg.audit = true;  // demo-sized: prove the burst bound end-to-end

  service::AccountTable table(cfg);
  obs::Registry registry;
  service::ShardEngineOptions engine_opts;
  engine_opts.registry = &registry;  // per-worker queue-depth gauges
  service::ShardEngine engine(table, engine_opts);
  runtime::EpollMesh mesh(1 + clients);
  service::ServerOptions server_opts;
  server_opts.engine = &engine;
  server_opts.registry = &registry;
  service::Server server(table, mesh.endpoint(0), server_opts);
  obs::ScrapeServer scrape(
      registry, static_cast<std::uint16_t>(args.get_int("scrape-port", 0)));
  // /healthz: a standalone node is healthy while its table answers; the
  // probe reports the live account count as a cheap freshness signal.
  scrape.set_health([&table, &engine] {
    const std::size_t accounts =
        engine.quiesced([&table] { return table.account_count(); });
    return std::string("{\"ok\":true,\"accounts\":") +
           std::to_string(accounts) + "}";
  });
  std::printf("scrape: curl http://127.0.0.1:%u/metrics (/healthz too)\n",
              scrape.port());
  service::ClockDriver driver(table, /*resolution_us=*/1000);
  driver.start();

  // The "bulk" namespace is created over the wire, exactly as an operator
  // would: its own strategy, period and audit switch, live at runtime.
  constexpr service::NamespaceId kBulk = 1;
  service::NamespaceConfig bulk;
  bulk.strategy.kind = core::StrategyKind::kTokenBucket;
  bulk.strategy.c_param = args.get_int("bulk-c", 4);
  bulk.delta_us = args.get_int("bulk-delta-ms", 40) * 1000;
  bulk.audit = true;
  {
    service::Client admin(mesh.endpoint(1), 0);
    const bool created = admin.configure_namespace(kBulk, bulk);
    const auto info = admin.namespace_info(kBulk);
    std::printf("admin: namespace %u %s (capacity %lld, Δ = %lld ms)\n",
                kBulk, created ? "created" : "reset",
                static_cast<long long>(info ? info->capacity : -1),
                static_cast<long long>(bulk.delta_us / 1000));
  }

  std::printf("tokend: ns0 %s Δ=%lldms | ns1 %s Δ=%lldms | %zu shards on "
              "127.0.0.1:%u, %zu clients, %llu keys\n",
              cfg.strategy.label().c_str(),
              static_cast<long long>(cfg.delta_us / 1000),
              bulk.strategy.label().c_str(),
              static_cast<long long>(bulk.delta_us / 1000),
              table.shard_count(), mesh.port_of(0), clients,
              static_cast<unsigned long long>(keys));

  const util::ZipfSampler zipf(keys, args.get_double("zipf", 0.9));
  struct ClientTally {
    std::uint64_t requests = 0;
    std::int64_t granted = 0;
    std::int64_t refunded = 0;
  };
  std::vector<ClientTally> tallies(clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      service::Client client(mesh.endpoint(static_cast<NodeId>(1 + c)), 0);
      util::Rng rng(100 + c);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(run_ms);
      while (std::chrono::steady_clock::now() < deadline) {
        const std::uint64_t key = zipf.next(rng);
        // A third of the traffic is bulk-class, the rest interactive.
        const service::NamespaceId ns =
            rng.bernoulli(1.0 / 3) ? kBulk : service::kDefaultNamespace;
        const service::AcquireResult res =
            client.acquire(ns, key, 1 + rng.below(3));
        ++tallies[c].requests;
        tallies[c].granted += res.granted;
        // An over-provisioned caller gives a token back now and then.
        if (res.granted > 0 && rng.bernoulli(0.25)) {
          tallies[c].refunded += client.refund(ns, key, 1).accepted;
          ++tallies[c].requests;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  driver.stop();

  std::printf("\n%-8s %10s %10s %10s\n", "client", "requests", "granted",
              "refunded");
  for (std::size_t c = 0; c < clients; ++c) {
    std::printf("%-8zu %10llu %10lld %10lld\n", c,
                static_cast<unsigned long long>(tallies[c].requests),
                static_cast<long long>(tallies[c].granted),
                static_cast<long long>(tallies[c].refunded));
  }
  std::printf("\nserver: %llu frames served, %llu errored, %llu malformed\n",
              static_cast<unsigned long long>(server.requests_served()),
              static_cast<unsigned long long>(server.requests_errored()),
              static_cast<unsigned long long>(server.requests_malformed()));

  // The same numbers over the wire: a kStats snapshot, as a monitoring
  // sidecar without HTTP would fetch it.
  {
    service::Client probe(mesh.endpoint(1), 0);
    std::printf("kStats snapshot (served/latency):\n");
    for (const auto& entry : probe.stats()) {
      if (entry.name == "tokend_requests_served") {
        std::printf("  %s = %.0f\n", entry.name.c_str(), entry.value);
      } else if (entry.name == "tokend_request_latency_us") {
        std::printf("  %s: p50=%.0fus p99=%.0fus max=%.0fus (n=%.0f)\n",
                    entry.name.c_str(), entry.p50, entry.p99, entry.max,
                    entry.value);
      }
    }
  }
  for (const service::NamespaceId ns : {service::kDefaultNamespace, kBulk}) {
    const service::TableStats stats =
        engine.quiesced([&] { return table.stats(ns); });
    std::printf("ns%u: %llu accounts, %llu/%llu tokens granted, "
                "%llu proactive drops\n",
                ns, static_cast<unsigned long long>(stats.accounts),
                static_cast<unsigned long long>(stats.tokens_granted),
                static_cast<unsigned long long>(stats.tokens_requested),
                static_cast<unsigned long long>(stats.proactive_dropped));
  }

  const auto violation =
      engine.quiesced([&] { return table.audit_violation(); });
  std::printf("burst bound (<= ceil(t/Δ)+C per key, per namespace): %s\n",
              violation ? violation->c_str() : "HELD ON ALL KEYS");
  return violation ? 1 : 0;
}
