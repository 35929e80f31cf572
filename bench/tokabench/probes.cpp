#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <semaphore>

#include "ledger.hpp"
#include "load.hpp"
#include "service/protocol.hpp"

namespace tokabench {

namespace service = toka::service;
namespace proto = toka::service::protocol;

std::uint64_t preload(service::AccountTable& table, const WorkloadSpec& spec,
                      const std::vector<std::uint64_t>* only_keys) {
  constexpr std::size_t kChunk = 4096;
  std::vector<AcquireOp> ops;
  ops.reserve(kChunk);
  std::uint64_t created = 0;
  const std::uint64_t n = only_keys != nullptr ? only_keys->size() : spec.keys;
  for (const NamespaceId ns : data_namespaces(spec.shape)) {
    for (std::uint64_t i = 0; i < n; i += kChunk) {
      ops.clear();
      const std::uint64_t end = std::min<std::uint64_t>(i + kChunk, n);
      for (std::uint64_t k = i; k < end; ++k)
        ops.push_back(AcquireOp{only_keys != nullptr ? (*only_keys)[k] : k, 0});
      table.acquire_batch(ns, ops);
      created += ops.size();
    }
  }
  return created;
}

// ----------------------------------------------------------- engine direct

namespace {

struct DirectSlot {
  std::binary_semaphore free{1};
  bool warm = false;
};

void release_op(service::ShardOp& /*op*/, void* ctx) {
  static_cast<DirectSlot*>(ctx)->free.release();
}

void release_batch(service::EngineBatch& /*batch*/, void* ctx) {
  static_cast<DirectSlot*>(ctx)->free.release();
}

service::ShardOp::Kind shard_kind(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery: return service::ShardOp::Kind::kQuery;
    case OpKind::kRefund: return service::ShardOp::Kind::kRefund;
    default: return service::ShardOp::Kind::kAcquire;
  }
}

}  // namespace

double engine_direct_ops(service::ShardEngine& engine, const WorkloadSpec& spec,
                         const toka::util::ZipfSampler& keys, std::uint64_t seed,
                         double seconds) {
  std::vector<std::unique_ptr<DirectSlot>> slots;
  for (std::size_t i = 0; i < spec.window; ++i)
    slots.push_back(std::make_unique<DirectSlot>());
  OpStream stream(spec, keys, seed);
  Op op;
  std::vector<AcquireOp> batch;
  std::uint64_t completed = 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    if ((i & 63) == 0 && now_ns() >= deadline) break;
    DirectSlot& slot = *slots[i % slots.size()];
    slot.free.acquire();  // its previous request completed
    if (slot.warm) completed += spec.ops_per_request;
    slot.warm = true;
    stream.next(op, batch);
    if (op.kind == OpKind::kBatch) {
      while (!engine.submit_batch(op.ns, batch, &release_batch, &slot))
        std::this_thread::yield();
      continue;
    }
    service::ShardOp shard_op;
    shard_op.kind = shard_kind(op.kind);
    shard_op.ns = op.ns;
    shard_op.key = op.key;
    shard_op.tokens = op.tokens;
    shard_op.done = &release_op;
    shard_op.ctx = &slot;
    while (!engine.try_submit(shard_op)) std::this_thread::yield();
  }
  for (auto& slot : slots) {  // retire the requests still in flight
    slot->free.acquire();
    if (slot->warm) completed += spec.ops_per_request;
  }
  const double elapsed_s = static_cast<double>(now_ns() - start) / 1e9;
  return static_cast<double>(completed) / elapsed_s;
}

// ------------------------------------------------------------ table replay

double table_op_ns(service::AccountTable& table, const WorkloadSpec& spec,
                   const toka::util::ZipfSampler& keys, std::uint64_t seed,
                   double seconds) {
  OpStream stream(spec, keys, seed);
  Op op;
  std::vector<AcquireOp> batch;
  std::uint64_t ops = 0;
  Tokens sink = 0;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t now = start;
  for (std::uint64_t i = 0; now < deadline; ++i) {
    stream.next(op, batch);
    switch (op.kind) {
      case OpKind::kAcquire: sink += table.acquire(op.ns, op.key, op.tokens).granted; break;
      case OpKind::kQuery: sink += table.query(op.ns, op.key).balance; break;
      case OpKind::kRefund: sink += table.refund(op.ns, op.key, op.tokens).accepted; break;
      case OpKind::kBatch:
        for (const service::AcquireResult& r : table.acquire_batch(op.ns, batch))
          sink += r.granted;
        break;
    }
    ops += spec.ops_per_request;
    if ((i & 255) == 0) now = now_ns();
  }
  now = now_ns();
  // `sink` keeps the replay's results observable.
  return sink < 0 ? 0 : static_cast<double>(now - start) / static_cast<double>(ops);
}

// ------------------------------------------------------------- codec replay

CodecCost codec_cost(const WorkloadSpec& spec, const toka::util::ZipfSampler& keys,
                     std::uint64_t seed, double seconds) {
  constexpr std::size_t kFrames = 4096;
  OpStream stream(spec, keys, seed);
  Op op;
  std::vector<AcquireOp> batch;
  std::vector<proto::Request> requests;
  std::vector<proto::Response> responses;
  for (std::uint64_t id = 1; id <= kFrames; ++id) {
    stream.next(op, batch);
    switch (op.kind) {
      case OpKind::kAcquire:
        requests.emplace_back(proto::AcquireRequest{id, op.key, op.tokens, op.ns});
        responses.emplace_back(proto::AcquireResponse{id, 1, 7});
        break;
      case OpKind::kQuery:
        requests.emplace_back(proto::QueryRequest{id, op.key, op.ns});
        responses.emplace_back(proto::QueryResponse{id, 7, true});
        break;
      case OpKind::kRefund:
        requests.emplace_back(proto::RefundRequest{id, op.key, op.tokens, op.ns});
        responses.emplace_back(proto::RefundResponse{id, 1, 8});
        break;
      case OpKind::kBatch:
        requests.emplace_back(proto::BatchAcquireRequest{id, batch, op.ns});
        responses.emplace_back(proto::BatchAcquireResponse{
            id, std::vector<service::AcquireResult>(batch.size(), {1, 7, false})});
        break;
    }
  }
  std::vector<std::vector<std::byte>> req_frames(kFrames), resp_frames(kFrames);
  std::int64_t encode_ns = 0, decode_ns = 0;
  std::uint64_t rounds = 0, checksum = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (rounds == 0 || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kFrames; ++i) {
      req_frames[i] = proto::encode(requests[i]);
      resp_frames[i] = proto::encode(responses[i]);
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < kFrames; ++i) {
      checksum += proto::request_id(proto::decode_request(req_frames[i]));
      checksum += proto::request_id(proto::decode_response(resp_frames[i]));
    }
    const std::int64_t t2 = now_ns();
    encode_ns += t1 - t0;
    decode_ns += t2 - t1;
    ++rounds;
  }
  const double ops = static_cast<double>(rounds * kFrames * spec.ops_per_request);
  CodecCost cost;
  cost.encode_ns = static_cast<double>(encode_ns) / ops;
  // Every round decodes ids 1..kFrames twice; a mismatch means a codec bug.
  cost.decode_ns = checksum == rounds * kFrames * (kFrames + 1)
                       ? static_cast<double>(decode_ns) / ops
                       : -1;
  return cost;
}

// --------------------------------------------------------------- histograms

HistogramReading read_histogram(const toka::obs::Registry& registry,
                                const std::string& name) {
  HistogramReading out;
  for (const toka::obs::Metric& m : registry.collect()) {
    if (m.name != name) continue;
    out.count = m.value;
    out.sum = m.sum;
    out.buckets = m.buckets;
  }
  return out;
}

double quantile_between(const HistogramReading& before,
                        const HistogramReading& after, double q) {
  std::vector<toka::obs::HistogramBucket> diff;
  std::uint64_t total = 0;
  std::size_t j = 0;
  for (const toka::obs::HistogramBucket& b : after.buckets) {
    while (j < before.buckets.size() && before.buckets[j].index < b.index) ++j;
    std::uint64_t prior = 0;
    if (j < before.buckets.size() && before.buckets[j].index == b.index)
      prior = before.buckets[j].count;
    if (b.count > prior) {
      diff.push_back({b.index, b.count - prior});
      total += b.count - prior;
    }
  }
  if (total == 0) return 0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (const toka::obs::HistogramBucket& b : diff) {
    seen += b.count;
    if (static_cast<double>(seen) >= rank)
      return toka::obs::Histogram::bucket_mid(b.index);
  }
  return toka::obs::Histogram::bucket_mid(diff.back().index);
}

DepthSampler::DepthSampler(const service::ShardEngine& engine)
    : thread_([this, &engine] {
        while (!done_.load(std::memory_order_relaxed)) {
          samples_.push_back(static_cast<double>(engine.queue_depth_max()));
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

DepthSampler::~DepthSampler() {
  done_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::vector<double> DepthSampler::stop() {
  done_.store(true);
  if (thread_.joinable()) thread_.join();
  return std::move(samples_);
}

}  // namespace tokabench
