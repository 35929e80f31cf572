#include "service/account_table.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <utility>

#include "core/account.hpp"
#include "util/error.hpp"

namespace toka::service {

namespace {

// The watchdog sample set must not correlate with shard placement, which
// hashes splitmix64(fold_key) directly — salting the fold first gives an
// independent bit stream, so sampled keys land on every shard.
constexpr std::uint64_t kWatchdogSalt = 0xA24BAED4963EE407ULL;

// How many ops acquire_batch prefetches ahead of the one it executes: a
// cache-missing op costs a DRAM round trip, so about this many loads must
// be in flight to hide it behind the ops before it.
constexpr std::size_t kPrefetchDistance = 8;

bool watchdog_samples(std::uint64_t sample_every, NamespaceId ns,
                      std::uint64_t key) {
  if (sample_every == 0) return false;
  if (sample_every == 1) return true;
  std::uint64_t state = AccountTable::fold_key(ns, key) ^ kWatchdogSalt;
  return util::splitmix64(state) % sample_every == 0;
}

}  // namespace

void CoarseClock::advance_to(TimeUs t) {
  TOKA_CHECK_MSG(t < kLimitUs, "clock time " << t << " us reaches the limit "
                                             << kLimitUs << " us");
  TimeUs cur = now_.load(std::memory_order_relaxed);
  while (t > cur &&
         !now_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    // cur reloaded by the failed CAS; retry until t is not ahead anymore.
  }
}

void CoarseClock::advance(TimeUs dt) {
  TOKA_CHECK_MSG(dt >= 0, "clock cannot retreat, got dt=" << dt);
  const TimeUs cur = now_.load(std::memory_order_relaxed);
  // Checked before the sum, which could overflow.
  TOKA_CHECK_MSG(dt < kLimitUs - cur, "clock time " << cur << " + " << dt
                                          << " us reaches the limit "
                                          << kLimitUs << " us");
  advance_to(cur + dt);
}

std::shared_ptr<AccountTable::Namespace> AccountTable::make_namespace(
    NamespaceId ns, const NamespaceConfig& config) {
  TOKA_CHECK_MSG(config.delta_us > 0,
                 "namespace " << ns << ": token period must be positive, got "
                              << config.delta_us);
  TOKA_CHECK_MSG(config.idle_ttl_us >= 0,
                 "namespace " << ns << ": idle TTL must be non-negative, got "
                              << config.idle_ttl_us);
  auto out = std::make_shared<Namespace>();
  out->id = ns;
  out->config = config;
  out->strategy = core::make_strategy(config.strategy);
  // The effective balance cap: the framework capacity for the paper's
  // strategies, the bucket size for the classic token bucket (whose
  // framework capacity is unbounded — the bucket_cap enforces the bound
  // instead, as in the simulator).
  if (config.strategy.kind == core::StrategyKind::kTokenBucket) {
    out->capacity = config.strategy.c_param;
    out->bucket_cap = config.strategy.c_param;
  } else {
    out->capacity = out->strategy->capacity();
    out->bucket_cap = 0;
  }
  TOKA_CHECK_MSG(out->capacity != core::kUnboundedCapacity,
                 "namespace " << ns
                              << ": the service requires a bounded-capacity "
                                 "strategy; "
                              << out->strategy->name()
                              << " has unbounded bursts");
  // Every balance the table stores lies in [0, C], and every outstanding
  // count it stores in [0, C]: bounding C is what lets an account slot keep
  // each in 31 bits.
  TOKA_CHECK_MSG(out->capacity <= std::numeric_limits<std::int32_t>::max(),
                 "namespace " << ns << ": capacity " << out->capacity
                              << " exceeds the service limit "
                              << std::numeric_limits<std::int32_t>::max());
  TOKA_CHECK_MSG(
      config.initial_tokens >= 0 && config.initial_tokens <= out->capacity,
      "namespace " << ns << ": initial balance " << config.initial_tokens
                   << " outside [0, C=" << out->capacity << "]");
  out->catchup_limit = config.max_catchup_ticks > 0
                           ? config.max_catchup_ticks
                           : std::max<Tokens>(2 * out->capacity, 16);
  return out;
}

AccountTable::AccountTable(ServiceConfig config) : config_(std::move(config)) {
  // The default namespace takes index 0.
  namespaces_.push_back(
      make_namespace(kDefaultNamespace, config_.default_namespace()));
  index_of_.emplace(kDefaultNamespace, 0);
  const std::size_t shards =
      std::bit_ceil(std::max<std::size_t>(config_.shards, 1));
  shard_mask_ = shards - 1;
  util::Rng seeder(config_.seed);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->rng = seeder.fork(i);
    shards_.push_back(std::move(shard));
  }
}

bool AccountTable::configure_namespace(NamespaceId ns,
                                       const NamespaceConfig& config) {
  auto fresh = make_namespace(ns, config);  // validates before any mutation
  {
    std::unique_lock lock(ns_mu_);
    auto it = index_of_.find(ns);
    if (it == index_of_.end()) {
      TOKA_CHECK_MSG(namespaces_.size() < kMaxNamespaces,
                     "namespace " << ns << ": a table holds at most "
                                  << kMaxNamespaces << " namespaces");
      fresh->index = static_cast<NamespaceIndex>(namespaces_.size());
      index_of_.emplace(ns, fresh->index);
      namespaces_.push_back(std::move(fresh));
      return true;
    }
    fresh->index = it->second;
    namespaces_[fresh->index] = fresh;
  }
  // Reset semantics on replace: drop the namespace's accounts so every key
  // restarts under the new policy from the initial balance (under-grants
  // only). The caller owns the whole table, so no request can create an
  // account under the outgoing policy once the purge has begun, and every
  // account at the index left afterwards is one of the new snapshot's.
  purge_namespace(*fresh);
  return false;
}

template <typename Pred>
std::size_t AccountTable::erase_accounts_if(Shard& shard, Pred&& pred) {
  return shard.accounts.erase_if([&](const Slot& s) {
    if (!pred(s)) return false;
    // A re-created key must start from the empty check.
    if ((s.tokens & kSlotWatched) != 0)
      shard.watchdogs.erase(watch_slot(
          shard, store_hash(s.ns_index(), s.key), s.ns_index(), s.key));
    return true;
  });
}

void AccountTable::purge_namespace(const Namespace& ns) {
  for (auto& shard : shards_) {
    const std::size_t removed = erase_accounts_if(
        *shard, [&](const Slot& s) { return s.ns_index() == ns.index; });
    stats_for(*shard, ns.id).accounts_evicted += removed;
  }
}

bool AccountTable::has_namespace(NamespaceId ns) const {
  std::shared_lock lock(ns_mu_);
  return index_of_.contains(ns);
}

std::size_t AccountTable::namespace_count() const {
  std::shared_lock lock(ns_mu_);
  return namespaces_.size();
}

std::optional<NamespaceInfo> AccountTable::namespace_info(
    NamespaceId ns) const {
  const std::shared_ptr<const Namespace> nsp = find_namespace(ns);
  if (nsp == nullptr) return std::nullopt;
  NamespaceInfo info;
  info.config = nsp->config;
  info.capacity = nsp->capacity;
  for (const auto& shard : shards_) {
    shard->accounts.for_each([&](const Slot& s) {
      if (s.ns_index() == nsp->index) ++info.accounts;
    });
  }
  return info;
}

TimeUs AccountTable::min_idle_ttl_us() const {
  std::shared_lock lock(ns_mu_);
  TimeUs min_ttl = 0;
  for (const auto& nsp : namespaces_) {
    const TimeUs ttl = nsp->config.idle_ttl_us;
    if (ttl > 0 && (min_ttl == 0 || ttl < min_ttl)) min_ttl = ttl;
  }
  return min_ttl;
}

Tokens AccountTable::capacity_bound(NamespaceId ns) const {
  return resolve(ns)->capacity;
}

std::shared_ptr<const AccountTable::Namespace> AccountTable::find_namespace(
    NamespaceId ns) const {
  std::shared_lock lock(ns_mu_);
  auto it = index_of_.find(ns);
  return it == index_of_.end() ? nullptr : namespaces_[it->second];
}

std::shared_ptr<const AccountTable::Namespace> AccountTable::resolve(
    NamespaceId ns) const {
  std::shared_ptr<const Namespace> nsp = find_namespace(ns);
  TOKA_CHECK_MSG(nsp != nullptr,
                 "unknown namespace " << ns
                                      << " (the server answers typed errors; "
                                         "direct callers must create it first)");
  return nsp;
}

std::shared_ptr<const AccountTable::Namespace> AccountTable::resolve_index(
    NamespaceIndex index) const {
  std::shared_lock lock(ns_mu_);
  TOKA_CHECK_MSG(index < namespaces_.size(),
                 "namespace index " << index << " out of range");
  return namespaces_[index];
}

TableStats& AccountTable::stats_for(Shard& shard, NamespaceId ns) {
  // One-slot cache: unordered_map values are node-stable, so the pointer
  // survives later insertions for other namespaces.
  if (shard.cached_stats != nullptr && shard.cached_ns == ns)
    return *shard.cached_stats;
  TableStats& stats = shard.stats[ns];
  shard.cached_ns = ns;
  shard.cached_stats = &stats;
  return stats;
}

std::size_t AccountTable::shard_index(NamespaceId ns, std::uint64_t key) const {
  // splitmix64 finalizer: keys are caller-controlled, so the shard index
  // must not depend on low-entropy low bits. The namespace is folded in so
  // the same key in two namespaces lands on (usually) different shards.
  return static_cast<std::size_t>(account_hash(ns, key)) & shard_mask_;
}

AccountTable::Slot* AccountTable::find_account(Shard& shard,
                                               std::uint64_t home,
                                               NamespaceIndex index,
                                               std::uint64_t key) {
  return shard.accounts.find(home, [&](const Slot& s) {
    return s.key == key && s.ns_index() == index;
  });
}

AccountTable::WatchSlot& AccountTable::watch_slot(Shard& shard,
                                                  std::uint64_t home,
                                                  NamespaceIndex index,
                                                  std::uint64_t key) {
  WatchSlot* w = shard.watchdogs.find(home, [&](const WatchSlot& e) {
    return e.key == key && e.index == index;
  });
  TOKA_CHECK_MSG(w != nullptr, "watched account at namespace index "
                                   << index << " key=" << key
                                   << " has no watchdog");
  return *w;
}

AccountTable::Slot& AccountTable::create_account(Shard& shard,
                                                 const Namespace& ns,
                                                 std::uint64_t home,
                                                 std::uint64_t key,
                                                 Tokens balance,
                                                 TimeUs now) {
  Slot slot;
  slot.key = key;
  slot.stamp = (std::uint64_t{ns.index} + 1) << kStampIndexShift;
  slot.set_last_access_us(now);
  slot.set_counts(balance, 0);  // in [0, C]
  if (ns.config.audit ||
      watchdog_samples(config_.watchdog_sample, ns.id, key)) {
    // Every erase path drops the entry with its account, so the key has
    // none yet.
    shard.watchdogs.insert(home, WatchSlot{key, ns.index, true, false, {}});
    slot.tokens |= kSlotWatched;
  }
  ++stats_for(shard, ns.id).accounts_created;
  return shard.accounts.insert(home, slot);
}

AccountTable::Slot& AccountTable::find_or_create(Shard& shard,
                                                 const Namespace& ns,
                                                 std::uint64_t home,
                                                 std::uint64_t key,
                                                 TimeUs now) {
  if (Slot* slot = find_account(shard, home, ns.index, key)) return *slot;
  return create_account(shard, ns, home, key, ns.config.initial_tokens, now);
}

void AccountTable::settle(Shard& shard, Slot& slot, const Namespace& ns,
                          TimeUs now) {
  // Both tick indices divide by the Δ the account was created under: `ns`
  // is the current snapshot of its namespace, and a reconfigure purges the
  // accounts of the snapshot it replaces. Dividing the last access by
  // another Δ would fabricate (or eat) elapsed ticks. The shard's one
  // accessor reads a monotonic clock, so `now` never precedes the last
  // access.
  const TimeUs delta = ns.config.delta_us;
  const std::int64_t due = now / delta - slot.last_access_us() / delta;
  if (due > 0) {
    const std::int64_t apply = std::min<std::int64_t>(due, ns.catchup_limit);
    TableStats& stats = stats_for(shard, ns.id);
    stats.ticks_forfeited += static_cast<std::uint64_t>(due - apply);
    Tokens balance = slot.balance();
    for (std::int64_t i = 0; i < apply; ++i) {
      // A proactive decision has no message to pay for here: the period's
      // token is dropped (never banked), exactly like the simulator's
      // no-online-peer rule, preserving balance <= C and with it §3.4.
      if (core::tick_balance(*ns.strategy, balance, ns.bucket_cap,
                             shard.rng) == core::TickOutcome::kProactive)
        ++stats.proactive_dropped;
    }
    slot.set_counts(balance, slot.outstanding());
  }
  slot.set_last_access_us(now);
}

AcquireResult AccountTable::acquire_in_shard(Shard& shard, const Namespace& ns,
                                             std::uint64_t home,
                                             std::uint64_t key, Tokens n,
                                             TimeUs now) {
  Slot& slot = find_or_create(shard, ns, home, key, now);
  // Balance before this call's settle: a grant within it was banked; a
  // grant beyond it spent tokens the settle just minted ("fresh").
  const Tokens banked = slot.balance();
  settle(shard, slot, ns, now);
  Tokens balance = slot.balance();
  Tokens want = n;
  if (repl_enabled_.load(std::memory_order_relaxed)) {
    // The spend gate: never grant below the highest floor a promoted
    // follower might still install. Grants above the gated headroom wait
    // for the stream to catch up (the gate collapses on ack in
    // drain_replica_dirty) — the availability price of the never-duplicate
    // guarantee under failover. A shard that has not drained a delta yet
    // has sent no floor, so its gates are all 0.
    const Tokens gate = shard.accounts.cold_enabled()
                            ? shard.accounts.cold(slot).gate
                            : 0;
    want = std::min(want, std::max<Tokens>(balance - gate, 0));
  }
  std::uint64_t outstanding = slot.outstanding();
  const Tokens granted = core::spend_balance(balance, outstanding, want,
                                             /*allow_overdraft=*/false);
  // The stored count saturates at C. A refund reads it only through
  // min(count, C - balance), which the saturated count gives exactly as
  // the true one would (proof in DESIGN.md, "Account store layout").
  slot.set_counts(balance,
                  std::min(outstanding, static_cast<std::uint64_t>(ns.capacity)));
  mark_repl_dirty(shard, slot);
  TableStats& stats = stats_for(shard, ns.id);
  ++stats.acquires;
  stats.tokens_requested += static_cast<std::uint64_t>(n);
  stats.tokens_granted += static_cast<std::uint64_t>(granted);
  shard.hot.record(fold_key(ns.id, key));
  if ((slot.tokens & kSlotWatched) != 0 && granted > 0) {
    // The account lives exactly as long as its namespace snapshot (see
    // Namespace), so `ns` is the policy the check has applied all along.
    WatchSlot& w = watch_slot(shard, home, ns.index, key);
    const bool over =
        w.check.record(ns.config.delta_us, ns.capacity, now, granted);
    w.violated = w.violated || over;
    ++stats.watchdog_checks;
    stats.watchdog_violations += over ? 1 : 0;
  }
  return AcquireResult{granted, balance, granted > banked};
}

AcquireResult AccountTable::acquire(NamespaceId ns, std::uint64_t key,
                                    Tokens n) {
  TOKA_CHECK_MSG(n >= 0, "acquire requires n >= 0, got " << n);
  // Resolve the namespace once: strategy, Δ (the clock divisor) and
  // capacity all come out of this one registry lookup.
  const std::shared_ptr<const Namespace> nsp = resolve(ns);
  const std::uint64_t hash = account_hash(ns, key);
  Shard& shard = shard_for(hash);
  // The shard's one accessor reads a monotonic clock, so times per account
  // never decrease — which settle()'s bookkeeping relies on.
  return acquire_in_shard(shard, *nsp, store_hash(nsp->index, key), key, n,
                          clock_.now_us());
}

RefundResult AccountTable::refund(NamespaceId ns, std::uint64_t key,
                                  Tokens n) {
  TOKA_CHECK_MSG(n >= 0, "refund requires n >= 0, got " << n);
  // Throws on an unknown namespace before the shard is touched.
  const std::shared_ptr<const Namespace> nsp = resolve(ns);
  const std::uint64_t hash = account_hash(ns, key);
  Shard& shard = shard_for(hash);
  const TimeUs now = clock_.now_us();
  TableStats& stats = stats_for(shard, ns);
  ++stats.refunds;
  const std::uint64_t home = store_hash(nsp->index, key);
  Slot* slot = find_account(shard, home, nsp->index, key);
  if (slot == nullptr) {
    // Unknown or already-evicted account: the refund is dropped. Creating
    // an account here would let arbitrary keys mint balance from thin air.
    // The event counter (as opposed to the token count below) is what the
    // telemetry exports: a climbing refunds_dropped means callers are
    // refunding keys the table no longer knows — a TTL tuned too tight or
    // a buggy caller, either way worth seeing.
    ++stats.refunds_dropped;
    stats.tokens_refund_dropped += static_cast<std::uint64_t>(n);
    return RefundResult{0, 0};
  }
  settle(shard, *slot, *nsp, now);
  // Cap at the capacity headroom: ticks banked since the acquire may have
  // refilled the balance, and a late refund must not push it past C (that
  // would mint burst allowance past the §3.4 bound). refund_balance
  // further caps at the spends still outstanding.
  Tokens balance = slot->balance();
  const Tokens headroom = std::max<Tokens>(nsp->capacity - balance, 0);
  std::uint64_t outstanding = slot->outstanding();
  const Tokens accepted =
      core::refund_balance(balance, outstanding, std::min(n, headroom));
  slot->set_counts(balance, outstanding);
  mark_repl_dirty(shard, *slot);
  if ((slot->tokens & kSlotWatched) != 0) {
    // The returned tokens' admissions never happened: strike them so the
    // check sees *net* admissions. accepted <= outstanding spends, which
    // are the newest grants the check recorded.
    watch_slot(shard, home, nsp->index, key)
        .check.retract(nsp->config.delta_us, accepted);
  }
  stats.tokens_refunded += static_cast<std::uint64_t>(accepted);
  stats.tokens_refund_dropped += static_cast<std::uint64_t>(n - accepted);
  return RefundResult{accepted, balance};
}

QueryResult AccountTable::query(NamespaceId ns, std::uint64_t key) {
  // Throws on an unknown namespace before the shard is touched.
  const std::shared_ptr<const Namespace> nsp = resolve(ns);
  const std::uint64_t hash = account_hash(ns, key);
  Shard& shard = shard_for(hash);
  const TimeUs now = clock_.now_us();
  ++stats_for(shard, ns).queries;
  Slot* slot =
      find_account(shard, store_hash(nsp->index, key), nsp->index, key);
  if (slot == nullptr) return QueryResult{0, false};
  settle(shard, *slot, *nsp, now);
  return QueryResult{slot->balance(), true};
}

std::vector<AcquireResult> AccountTable::acquire_batch(
    NamespaceId ns, std::span<const AcquireOp> ops) {
  const std::shared_ptr<const Namespace> nsp = resolve(ns);
  // Group ops by shard with a stable counting sort, so each touched shard
  // is visited exactly once per batch with its ops in their original
  // order. The counting pass checks every op and hashes it once (the hash
  // travels to the store); since it runs before any shard is touched, a
  // bad op fails the whole call with nothing applied. The scatter places
  // the runs in the order their shards first appear, with the prefix sum
  // folded in, so apart from zeroing the counts the cost grows with the
  // batch, not the shard count (the engine's coalesced runs can be two
  // ops long). bound[s] first counts shard s's ops. At the shard's first
  // op the scatter places its run at `begin` and marks the entry
  // kPlaced; from then on it is where the shard's next op goes, and it
  // ends as the end of the run.
  constexpr std::uint32_t kPlaced = std::uint32_t{1} << 31;
  std::vector<std::uint64_t> hashes(ops.size());
  std::vector<std::uint64_t> homes(ops.size());
  std::vector<std::uint32_t> bound(shards_.size(), 0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    TOKA_CHECK_MSG(ops[i].tokens >= 0,
                   "acquire requires n >= 0, got " << ops[i].tokens);
    hashes[i] = account_hash(ns, ops[i].key);
    homes[i] = store_hash(nsp->index, ops[i].key);
    ++bound[hashes[i] & shard_mask_];
  }
  std::vector<std::uint32_t> order(ops.size());
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::uint32_t& next = bound[hashes[i] & shard_mask_];
    if ((next & kPlaced) == 0) begin += std::exchange(next, begin | kPlaced);
    order[next++ & ~kPlaced] = static_cast<std::uint32_t>(i);
  }

  // Home slots are prefetched kPrefetchDistance ops ahead in execution
  // order, across shard runs: a frame spread over many shards makes runs
  // of about one op. That reads no shard this call does not execute — a
  // batch split across engine workers reaches this call once per worker
  // with only the ops of that worker's shards.
  for (std::size_t j = 0; j < std::min(kPrefetchDistance, order.size()); ++j) {
    const std::uint32_t op = order[j];
    shards_[hashes[op] & shard_mask_]->accounts.prefetch(homes[op]);
  }
  std::vector<AcquireResult> results(ops.size());
  for (std::size_t i = 0; i < order.size();) {
    const std::size_t shard_idx = hashes[order[i]] & shard_mask_;
    const std::size_t end = bound[shard_idx] & ~kPlaced;
    Shard& shard = *shards_[shard_idx];
    // One clock read per shard visit: the whole run settles against it.
    const TimeUs now = clock_.now_us();
    for (; i < end; ++i) {
      if (i + kPrefetchDistance < order.size()) {
        const std::uint32_t ahead = order[i + kPrefetchDistance];
        shards_[hashes[ahead] & shard_mask_]->accounts.prefetch(homes[ahead]);
      }
      const std::uint32_t op = order[i];
      results[op] = acquire_in_shard(shard, *nsp, homes[op], ops[op].key,
                                     ops[op].tokens, now);
    }
  }
  return results;
}

std::size_t AccountTable::evict_idle() {
  if (min_idle_ttl_us() == 0) return 0;
  std::size_t evicted = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i)
    evicted += evict_idle_shard(i);
  return evicted;
}

std::size_t AccountTable::evict_idle_shard(std::size_t shard_idx) {
  TOKA_CHECK_MSG(shard_idx < shards_.size(),
                 "shard index " << shard_idx << " out of range");
  Shard& shard = *shards_[shard_idx];
  const TimeUs now = clock_.now_us();
  NamespaceCache namespaces(*this);
  return erase_accounts_if(shard, [&](const Slot& s) {
    const Namespace& ns = namespaces.get(s.ns_index());
    const TimeUs ttl = ns.config.idle_ttl_us;
    const TimeUs idle = now - s.last_access_us();
    // A nonzero banked balance earns a grace window up to 2x the TTL:
    // evicting at the TTL would drop the account — and with it any
    // refund still in flight for its outstanding grants — the moment it
    // goes quiet. The balance read is the unsettled banked value, which
    // only errs on the side of keeping the account.
    const bool expired =
        ttl > 0 && idle >= ttl && (s.balance() == 0 || idle >= 2 * ttl);
    if (expired) ++stats_for(shard, ns.id).accounts_evicted;
    return expired;
  });
}

std::vector<AccountExport> AccountTable::extract_if(
    const std::function<bool(NamespaceId, std::uint64_t)>& should_extract) {
  std::vector<AccountExport> out;
  NamespaceCache namespaces(*this);
  for (auto& shard : shards_) {
    erase_accounts_if(*shard, [&](const Slot& s) {
      const NamespaceId ns = namespaces.get(s.ns_index()).id;
      if (!should_extract(ns, s.key)) return false;
      // Only the banked balance travels; unsettled elapsed ticks are
      // forfeited (the receiver settles at its own clock). The balance
      // can never exceed the account's own capacity, so the export is a
      // legitimate §3.4 bank wherever it lands.
      out.push_back(AccountExport{ns, s.key, s.balance()});
      ++stats_for(*shard, ns).accounts_extracted;
      return true;
    });
  }
  return out;
}

bool AccountTable::install_account(NamespaceId ns, std::uint64_t key,
                                   Tokens balance) {
  const std::shared_ptr<const Namespace> nsp = find_namespace(ns);
  if (nsp == nullptr) return false;  // unknown here: forfeit
  const std::uint64_t hash = account_hash(ns, key);
  Shard& shard = shard_for(hash);
  const std::uint64_t home = store_hash(nsp->index, key);
  if (find_account(shard, home, nsp->index, key) != nullptr) return false;  // never duplicate
  // The check restarts empty: the installed balance is at most C, so
  // spending it all at once still fits a fresh window's 1 + C slack.
  Slot& slot = create_account(shard, *nsp, home, key,
                              std::clamp<Tokens>(balance, 0, nsp->capacity),
                              clock_.now_us());
  mark_repl_dirty(shard, slot);
  ++stats_for(shard, ns).accounts_installed;
  return true;
}

void AccountTable::enable_replication(Tokens headroom) {
  TOKA_CHECK_MSG(headroom >= 0,
                 "replication headroom must be non-negative, got " << headroom);
  repl_headroom_.store(headroom, std::memory_order_relaxed);
  repl_enabled_.store(true, std::memory_order_release);
}

void AccountTable::mark_repl_dirty(Shard& shard, Slot& slot) {
  if (!repl_enabled_.load(std::memory_order_relaxed) ||
      (slot.tokens & kSlotReplDirty) != 0)
    return;
  slot.tokens |= kSlotReplDirty;
  shard.repl_dirty.push_back(AccountKey{slot.ns_index(), slot.key});
}

std::size_t AccountTable::drain_replica_dirty(
    std::size_t shard_idx, std::uint64_t seq, std::uint64_t acked_seq,
    std::vector<ReplicaDeltaExport>& out) {
  TOKA_CHECK_MSG(shard_idx < shards_.size(),
                 "shard index " << shard_idx << " out of range");
  Shard& shard = *shards_[shard_idx];
  const Tokens configured = repl_headroom_.load(std::memory_order_relaxed);
  NamespaceCache namespaces(*this);
  std::size_t appended = 0;
  for (const AccountKey& k : shard.repl_dirty) {
    Slot* slot =
        find_account(shard, store_hash(k.index, k.key), k.index, k.key);
    if (slot == nullptr) continue;  // evicted or extracted since
    slot->tokens &= ~kSlotReplDirty;
    // The shard's first delta maps its cold column; the owner drains, so
    // the column is only ever touched by the shard's one accessor.
    shard.accounts.enable_cold();
    ReplState& repl = shard.accounts.cold(*slot);
    // Gate collapse: once the last sent floor is acked, the follower's
    // installable floor is exactly that value — every older (possibly
    // higher) floor has been superseded on an ordered stream — so the
    // gate drops to it and the headroom above it becomes spendable again.
    if (repl.floor_seq != 0 && repl.floor_seq <= acked_seq)
      repl.gate = repl.sent_floor;
    const Namespace& ns = namespaces.get(k.index);
    const Tokens balance = slot->balance();
    const Tokens h = configured > 0 ? configured : (ns.capacity + 1) / 2;
    // In [0, balance], so it fits 32 bits like the balance.
    const Tokens floor = std::max<Tokens>(balance - h, 0);
    repl.sent_floor = static_cast<std::int32_t>(floor);
    repl.floor_seq = seq;
    repl.gate = std::max(repl.gate, repl.sent_floor);
    out.push_back(ReplicaDeltaExport{ns.id, k.key, balance, floor});
    ++appended;
  }
  shard.repl_dirty.clear();
  return appended;
}

std::size_t AccountTable::account_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->accounts.size();
  return total;
}

std::vector<AccountTable::HotKey> AccountTable::hot_keys(std::size_t n) const {
  // Merge the per-shard sketches by folded id (an id lives in exactly one
  // shard, so this is a concatenation, not a sum).
  std::vector<HotKey> all;
  for (const auto& shard : shards_) {
    for (const obs::SpaceSaving::HeavyHitter& h : shard->hot.top())
      all.push_back(HotKey{h.item, h.count});
  }
  std::sort(all.begin(), all.end(),
            [](const HotKey& a, const HotKey& b) { return a.count > b.count; });
  if (all.size() > n) all.resize(n);
  return all;
}

void TableStats::merge(const TableStats& other) {
  accounts += other.accounts;
  accounts_created += other.accounts_created;
  accounts_evicted += other.accounts_evicted;
  acquires += other.acquires;
  tokens_requested += other.tokens_requested;
  tokens_granted += other.tokens_granted;
  refunds += other.refunds;
  tokens_refunded += other.tokens_refunded;
  tokens_refund_dropped += other.tokens_refund_dropped;
  refunds_dropped += other.refunds_dropped;
  queries += other.queries;
  proactive_dropped += other.proactive_dropped;
  ticks_forfeited += other.ticks_forfeited;
  accounts_extracted += other.accounts_extracted;
  accounts_installed += other.accounts_installed;
  watchdog_checks += other.watchdog_checks;
  watchdog_violations += other.watchdog_violations;
}

TableStats AccountTable::stats() const {
  TableStats out;
  for (const auto& shard : shards_) {
    for (const auto& [ns, stats] : shard->stats) out.merge(stats);
    out.accounts += shard->accounts.size();
  }
  return out;
}

TableStats AccountTable::stats(NamespaceId ns) const {
  TableStats out;
  const std::shared_ptr<const Namespace> nsp = find_namespace(ns);
  for (const auto& shard : shards_) {
    auto it = shard->stats.find(ns);
    if (it != shard->stats.end()) out.merge(it->second);
    if (nsp == nullptr) continue;  // an unknown namespace has no accounts
    shard->accounts.for_each([&](const Slot& s) {
      if (s.ns_index() == nsp->index) ++out.accounts;
    });
  }
  return out;
}

std::optional<std::string> AccountTable::audit_violation() const {
  NamespaceCache namespaces(*this);
  for (const auto& shard : shards_) {
    std::optional<std::string> found;
    shard->watchdogs.for_each([&](const WatchSlot& w) {
      if (!w.violated || found) return;
      std::ostringstream os;
      os << "ns=" << namespaces.get(w.index).id << " key=" << w.key
         << ": rate limit violated: a grant ended a window over the §3.4 "
            "bound";
      found = os.str();
    });
    if (found) return found;
  }
  return std::nullopt;
}

}  // namespace toka::service
