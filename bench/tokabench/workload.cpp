#include "workload.hpp"

#include <algorithm>

namespace tokabench {

namespace service = toka::service;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    std::vector<WorkloadSpec> w(4);
    // Per-op wire cost with hot-cache table hits: the item-1 gap.
    w[0].name = "wire_zipf";
    w[0].shape = Shape::kSingle;
    w[0].keys = 1'000'000;
    w[0].zipf = 0.99;
    w[0].window = 64;
    w[0].workers = 1;
    w[0].ladder = {100'000, 150'000, 200'000, 250'000};
    // Wire cost amortised 64x, every op a cache miss fanned over 2 owners:
    // the table and engine dominate.
    w[1].name = "wire_batch";
    w[1].shape = Shape::kBatch;
    w[1].keys = 2'000'000;
    w[1].zipf = 0;
    w[1].window = 8;
    w[1].workers = 2;
    w[1].ladder = {5'000, 10'000, 15'000, 20'000};
    w[1].slo_p90_us = 2'000;
    w[1].ops_per_request = 64;
    // Same plane as wire_zipf, but op kinds and namespaces interleave.
    w[2].name = "wire_mixed";
    w[2].shape = Shape::kMixed;
    w[2].keys = 1'000'000;
    w[2].zipf = 0.6;
    w[2].window = 64;
    w[2].workers = 1;
    w[2].ladder = {100'000, 110'000, 120'000, 130'000};
    // Routing, redirects, the delta stream and promotion.
    w[3].name = "cluster_failover";
    w[3].shape = Shape::kCluster;
    w[3].keys = 256 * 1024;
    w[3].zipf = 0.99;
    w[3].window = 64;
    w[3].workers = 1;
    w[3].ladder = {30'000, 0, 0, 0};
    return w;
  }();
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

WorkloadSpec quick_variant(WorkloadSpec spec) {
  spec.keys = std::max<std::uint64_t>(spec.keys / 32, 4096);
  return spec;
}

service::ServiceConfig service_config(std::uint64_t seed) {
  service::ServiceConfig cfg;
  cfg.delta_us = kDeltaUs;
  cfg.strategy.kind = toka::core::StrategyKind::kGeneralized;
  cfg.strategy.a_param = 4;
  cfg.strategy.c_param = kCapacity;
  cfg.initial_tokens = 0;
  cfg.seed = seed;
  cfg.exclusive_shards = true;  // the engine owns the shards
  return cfg;
}

void configure_namespaces(service::AccountTable& table, Shape shape) {
  if (shape != Shape::kMixed) return;
  const service::NamespaceConfig generalized = table.config().default_namespace();
  service::NamespaceConfig bucket = generalized;
  bucket.strategy.kind = toka::core::StrategyKind::kTokenBucket;
  bucket.strategy.a_param = 1;
  table.configure_namespace(kNsGeneralized, generalized);
  table.configure_namespace(kNsBucket, bucket);
}

std::vector<NamespaceId> data_namespaces(Shape shape) {
  if (shape == Shape::kMixed) return {kNsGeneralized, kNsBucket};
  return {service::kDefaultNamespace};
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t phase,
                          std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + phase * 0xD1B54A32D192ED03ULL +
                        index;
  return toka::util::splitmix64(state);
}

OpStream::OpStream(const WorkloadSpec& spec,
                   const toka::util::ZipfSampler& keys, std::uint64_t seed)
    : spec_(&spec), keys_(&keys), rng_(seed) {}

std::uint64_t OpStream::draw_key() {
  return spec_->zipf > 0 ? keys_->next(rng_) : rng_.below(spec_->keys);
}

void OpStream::next(Op& op, std::vector<AcquireOp>& batch) {
  switch (spec_->shape) {
    case Shape::kSingle:
    case Shape::kCluster:
      op = Op{OpKind::kAcquire, service::kDefaultNamespace, draw_key(), 1};
      return;
    case Shape::kBatch:
      op = Op{OpKind::kBatch, service::kDefaultNamespace, 0, 1};
      batch.resize(spec_->ops_per_request);
      for (AcquireOp& a : batch) a = AcquireOp{draw_key(), 1};
      op.key = batch.front().key;
      return;
    case Shape::kMixed: {
      // 55% acquire on the generalized namespace, 20% acquire on the token
      // bucket, 20% query, 5% refund of one of the last 16 acquires.
      const std::uint64_t roll = rng_.below(100);
      const std::uint64_t key = draw_key();
      if (roll >= 95 && recent_n_ > 0) {
        op = recent_[rng_.below(std::min(recent_n_, recent_.size()))];
        op.kind = OpKind::kRefund;
        return;
      }
      if (roll >= 75 && roll < 95) {
        op = Op{OpKind::kQuery, kNsGeneralized, key, 0};
        return;
      }
      op = Op{OpKind::kAcquire, roll >= 55 && roll < 75 ? kNsBucket : kNsGeneralized,
              key, 1};
      recent_[recent_n_++ % recent_.size()] = op;
      return;
    }
  }
}

}  // namespace tokabench
