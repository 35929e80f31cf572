// tokend's in-memory store: millions of token accounts in hash-partitioned
// shards, each with exactly one accessor at a time.
//
// The table maps (namespace, key) pairs to token accounts (paper Algorithm
// 4, the balance arithmetic core::TokenAccount runs in the simulator).
// A *namespace* is a runtime-configurable policy domain (a tenant, an API
// class, a flow group): it owns its own core::StrategyConfig, token period
// Δ, initial balance, idle TTL and audit switch, so one tokend instance can
// rate-limit many traffic classes with different disciplines at once.
// Namespace 0 always exists (built from ServiceConfig); others are created
// or reset at runtime through configure_namespace() (the protocol v2 admin
// path). Namespaces are never deleted — reconfiguring one drops its
// accounts, which only under-grants (a re-created account restarts from the
// initial balance), never over-grants.
//
// Keys are hash-partitioned over N shards (N rounded up to a power of two).
// The threading rule: every shard has exactly one accessor at a time —
//   - the driver of its owner in a service::ShardEngine (shard s belongs to
//     owner s mod owners), which is how every Server executes data ops:
//     the epoll loop that owns it on a fused server, or the owner's worker
//     thread — one step at a time, whichever drives;
//   - a ShardEngine::quiesced() callback, which runs with every owner
//     parked and so owns the whole table (stats sweeps, reconfiguration,
//     handoff extraction, replica installs);
//   - or the single thread that owns the table while no engine runs
//     (preload, micro-benchmarks, unit tests).
// No shard carries a lock, so concurrent direct calls are a data race.
// Only the namespace registry (read-mostly, std::shared_mutex) and the
// coarse clock (one atomic) are safe from any thread: an IO thread checks
// has_namespace() while the owners run. A request resolves its namespace
// exactly once — strategy, clock divisor Δ and capacity come out of that
// one lookup — and then works against the resolved snapshot.
//
// A shard keeps its accounts in a flat open-addressing store of 24-byte
// slots (service/account_store.hpp): key, last access time with the
// namespace's dense index, and balance with the outstanding count capped
// at C. The replication state lives in the
// store's cold column, which only a shard of a replicated table maps; the
// §3.4 checks of sampled keys, and of every key of an audit namespace,
// live beside the slots in a second flat store under the same store hash,
// gated by a slot flag, so an unchecked account costs its slot and nothing
// else.
//
// Token granting is *lazy*, driven by a coarse shared clock instead of a
// timer per account: every account remembers when it was last settled,
// and any access first replays the ticks elapsed since then through
// core::tick_balance, the simulator's Algorithm 4 arithmetic (capped — see
// NamespaceConfig::max_catchup_ticks).
// A proactive decision during replay has no message to pay for in an
// admission-control service, so the period's token is dropped, mirroring
// the simulator's "drop the token when no peer is online" rule that keeps
// the §3.4 burst bound intact (see DESIGN.md, "The tokend service layer").
//
// Accounts idle longer than their namespace's idle_ttl_us are evicted by
// evict_idle_shard() sweeps, which each engine worker runs over its own
// shards (evict_idle() sweeps them all, for a single-owner table).
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rate_limit.hpp"
#include "core/strategy.hpp"
#include "obs/admission.hpp"
#include "service/account_store.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace toka::service {

/// Identifier of a policy namespace. Dense ids are not required; the id is
/// an opaque 32-bit handle chosen by the operator.
using NamespaceId = std::uint32_t;

/// A namespace's dense index within one table: 0 for the default
/// namespace, then 1, 2, ... in the order ids are first configured. An
/// account slot records the index, not the id.
using NamespaceIndex = std::uint16_t;

/// The namespace every namespace-less call targets.
inline constexpr NamespaceId kDefaultNamespace = 0;

/// The service time source: microseconds since the table's epoch, advanced
/// monotonically by one writer (the ClockDriver or a test) and read by
/// every shard accessor. Deliberately coarse — accounts settle against the
/// tick index now_us()/Δ, so sub-period precision is never needed.
class CoarseClock {
 public:
  /// Times stay below this (about 8.9 years of table uptime), so an
  /// account slot can pack its last access time into 48 bits.
  static constexpr TimeUs kLimitUs = TimeUs{1} << 48;

  TimeUs now_us() const { return now_.load(std::memory_order_relaxed); }

  /// Moves the clock forward to `t`; calls that would move it backwards
  /// are ignored (the clock never retreats). Throws util::InvariantError,
  /// leaving the clock as it was, if `t` >= kLimitUs.
  void advance_to(TimeUs t);

  /// Moves the clock forward by `dt` >= 0, with advance_to's limit.
  void advance(TimeUs dt);

 private:
  std::atomic<TimeUs> now_{0};
};

/// Per-namespace policy: everything that can differ between traffic
/// classes. Travels over the wire in ConfigureNamespace/NamespaceInfo
/// frames, so keep it plain data.
struct NamespaceConfig {
  /// Strategy backing every account of the namespace. Must have bounded
  /// effective capacity: any paper strategy or the classic token bucket
  /// works, the pure reactive reference (unbounded burst) is rejected.
  core::StrategyConfig strategy{};
  /// Token period Δ: every account earns one token decision per delta_us.
  TimeUs delta_us = 100'000;
  /// Starting balance of a freshly created (or re-created) account.
  /// Must not exceed the effective capacity.
  Tokens initial_tokens = 0;
  /// Accounts untouched for this long are eligible for evict_idle();
  /// 0 disables eviction for the namespace.
  TimeUs idle_ttl_us = 0;
  /// Replay cap for lazy granting: an access settles at most this many
  /// elapsed ticks (0 = auto: 2*capacity, at least 16). Ticks beyond the
  /// cap are forfeited — conservative, an idle account's balance has
  /// converged to the capacity region long before the cap anyway.
  Tokens max_catchup_ticks = 0;
  /// Check every account of the namespace against the §3.4 burst bound,
  /// not only the sampled ones (ServiceConfig::watchdog_sample), so that
  /// audit_violation() verifies the bound end-to-end. Costs each account a
  /// 32-byte watchdog entry.
  bool audit = false;

  friend bool operator==(const NamespaceConfig&,
                         const NamespaceConfig&) = default;
};

/// Configuration for an AccountTable / tokend instance: the table-wide
/// knobs plus the default namespace's policy (kept as flat fields so
/// pre-namespace call sites construct it unchanged).
struct ServiceConfig {
  /// Number of shards; rounded up to a power of two. A shard is the unit
  /// an engine worker owns (shard s runs on worker s mod workers), so the
  /// count should be a small multiple of the worker count: 16 divides
  /// evenly over 1, 2, 4, 8 or 16 workers. Each shard sizes its slot array
  /// on its own, so fewer shards hold more accounts each: an array past
  /// 2 MiB grows in 3/2 and 4/3 steps that track its accounts (see
  /// SlotStore), and it spans whole 2 MiB chunks that can get huge pages.
  /// The price is a longer pause when one shard rehashes.
  std::size_t shards = 16;
  /// Default namespace: token period Δ.
  TimeUs delta_us = 100'000;
  /// Default namespace: strategy backing every account.
  core::StrategyConfig strategy{};
  /// Default namespace: starting balance of a fresh account.
  Tokens initial_tokens = 0;
  /// Default namespace: idle TTL (0 disables eviction).
  TimeUs idle_ttl_us = 0;
  /// Seeds the per-shard RNG streams (tick decisions, randomized rounding).
  std::uint64_t seed = 1;
  /// Default namespace: replay cap for lazy granting (0 = auto).
  Tokens max_catchup_ticks = 0;
  /// Default namespace: §3.4 check of every key (NamespaceConfig::audit).
  bool audit = false;
  /// Ignored: every table follows the one-accessor-per-shard rule (see
  /// the file comment). Kept only so callers that still assign it keep
  /// compiling.
  bool exclusive_shards = false;

  /// Online §3.4 invariant watchdog: check every grant of 1-in-N keys with
  /// an exact core::BurstCheck (0 disables). Sampling is by key identity (a
  /// distinct hash salt from shard placement, so sampled keys spread
  /// across shards), which keeps a key's whole history in its check
  /// instead of sampling individual grants. The watchdog observes and
  /// counts; it never gates a grant.
  std::uint64_t watchdog_sample = 64;

  /// The default namespace's policy as a NamespaceConfig.
  NamespaceConfig default_namespace() const {
    return NamespaceConfig{strategy,          delta_us,
                           initial_tokens,    idle_ttl_us,
                           max_catchup_ticks, audit};
  }
};

/// One acquire request (also the wire/batch unit).
struct AcquireOp {
  std::uint64_t key = 0;
  Tokens tokens = 0;
};

struct AcquireResult {
  Tokens granted = 0;  ///< tokens actually deducted, in [0, requested]
  Tokens balance = 0;  ///< balance after the deduction
  /// True when the grant spent tokens minted by this call's settle — the
  /// §3.4 "fresh token" case, as opposed to a grant served entirely from
  /// the pre-call banked balance. Diagnostic only: never on the wire
  /// (responses stay byte-identical) and ignored by result equality.
  bool fresh = false;
};

struct RefundResult {
  Tokens accepted = 0;  ///< tokens actually restored, in [0, offered]
  Tokens balance = 0;   ///< balance after the restore
};

struct QueryResult {
  Tokens balance = 0;
  bool exists = false;  ///< false: no live account for the key (balance 0)
};

/// Service counters: kept per (shard, namespace) by the shard's accessor
/// and summed into a snapshot by AccountTable::stats().
struct TableStats {
  std::uint64_t accounts = 0;           ///< live accounts right now
  std::uint64_t accounts_created = 0;
  std::uint64_t accounts_evicted = 0;
  std::uint64_t acquires = 0;           ///< acquire calls (incl. batch ops)
  std::uint64_t tokens_requested = 0;
  std::uint64_t tokens_granted = 0;
  std::uint64_t refunds = 0;
  std::uint64_t tokens_refunded = 0;
  std::uint64_t tokens_refund_dropped = 0;  ///< offered but not accepted
  std::uint64_t refunds_dropped = 0;  ///< refund calls to unknown/evicted keys
  std::uint64_t queries = 0;
  std::uint64_t proactive_dropped = 0;  ///< replayed ticks spent proactively
  std::uint64_t ticks_forfeited = 0;    ///< elapsed ticks past the replay cap
  std::uint64_t accounts_extracted = 0; ///< removed by extract_if (handoff)
  std::uint64_t accounts_installed = 0; ///< created by install_account
  std::uint64_t watchdog_checks = 0;     ///< grants checked against §3.4
  std::uint64_t watchdog_violations = 0; ///< checked grants over the bound

  /// Adds every counter of `other` into this snapshot.
  void merge(const TableStats& other);

  friend bool operator==(const TableStats&, const TableStats&) = default;
};

/// Admin-visible description of a live namespace.
struct NamespaceInfo {
  NamespaceConfig config;
  Tokens capacity = 0;          ///< effective balance cap
  std::uint64_t accounts = 0;   ///< live accounts in the namespace
};

/// One account's transferable state, as removed by extract_if(). Only the
/// banked balance travels: the receiver settles the account at its own
/// clock, so unsettled elapsed ticks are forfeited (conservative — the
/// handoff can under-grant, never over-grant).
struct AccountExport {
  NamespaceId ns = kDefaultNamespace;
  std::uint64_t key = 0;
  Tokens balance = 0;
};

/// One account's replicated state, as captured by drain_replica_dirty().
/// `balance` is the latest banked value (diagnostics and lag accounting);
/// `floor` is the conservative crash-install value a promoted follower may
/// create the account with — the primary's spend gate guarantees its own
/// balance never drops below any floor still in flight, so installing a
/// floor can only under-grant (see DESIGN.md, "Replicated ownership").
struct ReplicaDeltaExport {
  NamespaceId ns = kDefaultNamespace;
  std::uint64_t key = 0;
  Tokens balance = 0;
  Tokens floor = 0;
};

class AccountTable {
 public:
  /// The most namespaces one table holds, the default one included: a
  /// slot keeps its namespace's index + 1 in 16 bits.
  static constexpr std::size_t kMaxNamespaces = 65'535;

  /// Validates the config (bounded capacity, initial balance within it),
  /// builds the empty shards and creates the default namespace. Throws
  /// util::InvariantError on misuse.
  explicit AccountTable(ServiceConfig config);

  AccountTable(const AccountTable&) = delete;
  AccountTable& operator=(const AccountTable&) = delete;

  const ServiceConfig& config() const { return config_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// The effective balance cap of the default namespace (resp. `ns`):
  /// strategy capacity, or the bucket size for the classic token bucket.
  Tokens capacity_bound() const { return capacity_bound(kDefaultNamespace); }
  Tokens capacity_bound(NamespaceId ns) const;

  CoarseClock& clock() { return clock_; }
  const CoarseClock& clock() const { return clock_; }

  // ------------------------------------------------------------ namespaces

  /// Creates namespace `ns` with the given policy, or — if it already
  /// exists — replaces its policy and *resets* it (all its accounts are
  /// dropped; they restart from the initial balance on next contact, which
  /// only under-grants). Returns true if the namespace was newly created.
  /// A new id takes the next dense index; a replaced one keeps its index.
  /// Throws util::InvariantError on an invalid config (unbounded strategy,
  /// initial balance above capacity, non-positive Δ, negative TTL) and on
  /// a new id past kMaxNamespaces, changing nothing.
  bool configure_namespace(NamespaceId ns, const NamespaceConfig& config);

  bool has_namespace(NamespaceId ns) const;
  std::size_t namespace_count() const;

  /// Policy, capacity and live-account count of `ns`, or nullopt if the
  /// namespace does not exist. O(accounts) for the count — admin path.
  std::optional<NamespaceInfo> namespace_info(NamespaceId ns) const;

  /// Smallest positive idle TTL over all namespaces (0 if eviction is
  /// disabled everywhere). Engine workers derive their sweep cadence here.
  TimeUs min_idle_ttl_us() const;

  // -------------------------------------------------------------- data ops
  // The namespace-less overloads target kDefaultNamespace, so every
  // pre-namespace call site keeps compiling and behaving unchanged.
  // Ops on an unknown namespace throw util::InvariantError — the server
  // checks has_namespace() first and answers a typed error instead.

  /// Tries to take `n` >= 0 tokens for `key`, creating the account on
  /// first contact. Grants min(n, balance) after settling elapsed ticks.
  AcquireResult acquire(std::uint64_t key, Tokens n) {
    return acquire(kDefaultNamespace, key, n);
  }
  AcquireResult acquire(NamespaceId ns, std::uint64_t key, Tokens n);

  /// Gives back up to `n` >= 0 previously granted tokens. The accepted
  /// amount is capped by what the account still has outstanding *and* by
  /// the capacity headroom, so the balance never exceeds the namespace's
  /// capacity (late refunds cannot mint burst allowance; see DESIGN.md).
  /// Refunds to unknown/evicted keys are dropped.
  RefundResult refund(std::uint64_t key, Tokens n) {
    return refund(kDefaultNamespace, key, n);
  }
  RefundResult refund(NamespaceId ns, std::uint64_t key, Tokens n);

  /// Reads the settled balance without creating an account.
  QueryResult query(std::uint64_t key) { return query(kDefaultNamespace, key); }
  QueryResult query(NamespaceId ns, std::uint64_t key);

  /// Executes `ops` (all against one namespace) grouped by shard, with one
  /// clock read per touched shard instead of one per op; results are
  /// positionally aligned with `ops`. Ops of one shard run in batch order,
  /// so results match the same acquires made one by one. Every op is
  /// checked before any shard is touched: a negative `tokens` throws
  /// util::InvariantError with no op applied.
  std::vector<AcquireResult> acquire_batch(std::span<const AcquireOp> ops) {
    return acquire_batch(kDefaultNamespace, ops);
  }
  std::vector<AcquireResult> acquire_batch(NamespaceId ns,
                                           std::span<const AcquireOp> ops);

  /// Removes accounts idle for at least their namespace's idle_ttl_us
  /// (namespaces with TTL 0 are skipped). An account still holding a
  /// nonzero banked balance gets a grace window: it is only evicted after
  /// 2x its TTL, so a refund for recently granted tokens is not silently
  /// forfeited the instant the TTL elapses. Sweeps every shard, so the
  /// caller must own the whole table. Returns the number evicted.
  std::size_t evict_idle();

  /// Sweeps exactly one shard (same TTL/grace rules as evict_idle). The
  /// engine's workers use this to evict their own shards without touching
  /// anyone else's. Returns the number evicted.
  std::size_t evict_idle_shard(std::size_t shard_idx);

  /// The shard a (namespace, key) pair lives in — the routing function the
  /// engine uses to pick an owner worker. Stable for the
  /// table's lifetime.
  std::size_t shard_of(NamespaceId ns, std::uint64_t key) const {
    return shard_index(ns, key);
  }

  // ------------------------------------------------------ cluster handoff

  /// Atomically removes every account for which `should_extract(ns, key)`
  /// returns true and returns their transferable state (the cluster layer
  /// ships each export to the key's new owner). Once extracted the state
  /// exists only in the returned vector: if the transfer is lost the
  /// tokens are forfeited, never resurrected here — the rule that keeps
  /// the §3.4 bound intact cluster-wide. Sweeps every shard.
  std::vector<AccountExport> extract_if(
      const std::function<bool(NamespaceId, std::uint64_t)>& should_extract);

  /// Installs a handed-off account: creates (ns, key) with the given
  /// balance (clamped to [0, capacity]), settled at the current tick.
  /// Returns false — installing nothing — if the namespace does not exist
  /// here or the key already has a live account (the live account already
  /// grants; accepting a second balance would duplicate tokens).
  bool install_account(NamespaceId ns, std::uint64_t key, Tokens balance);

  // --------------------------------------------------- cluster replication

  /// Turns on replica delta capture: data ops start marking their accounts
  /// dirty and acquire grants start honouring the replication spend gate.
  /// `headroom` is how far above the advertised floor an account may spend
  /// without waiting for a follower ack (0 = auto: half the namespace
  /// capacity, rounded up). Smaller headroom → smaller max forfeit on a
  /// crash, but bursts above the headroom throttle at one headroom per ack
  /// round trip. Enable-once; when off (the default) the data path pays
  /// one relaxed atomic load per op.
  void enable_replication(Tokens headroom);
  bool replication_enabled() const {
    return repl_enabled_.load(std::memory_order_relaxed);
  }

  /// Captures and clears one shard's dirty-account list: for every account
  /// touched since the last drain, appends its current (balance, floor) to
  /// `out`, records `seq` as the emission round the floor travels in, and
  /// raises the account's spend gate to that floor. `acked_seq` is the
  /// follower-acknowledged round watermark: an account whose previously
  /// sent floor is covered by it collapses its gate down to that floor
  /// before the new one is taken, which is what un-throttles bursts once
  /// the stream catches up. The caller must own the shard (an engine
  /// worker drains its own shards). Returns the number of deltas appended.
  std::size_t drain_replica_dirty(std::size_t shard_idx, std::uint64_t seq,
                                  std::uint64_t acked_seq,
                                  std::vector<ReplicaDeltaExport>& out);

  std::size_t account_count() const;

  /// All namespaces merged (resp. one namespace's slice).
  TableStats stats() const;
  TableStats stats(NamespaceId ns) const;

  /// One observed heavy hitter, identified by its folded account id
  /// (fold_key(ns, key) — stable per account, not reversible).
  struct HotKey {
    std::uint64_t id = 0;
    std::uint64_t count = 0;
  };

  /// The top-n hottest accounts by acquire traffic, merged from the
  /// per-shard space-saving sketches, descending by count. Counts are the
  /// sketch's (over-)estimates; use acquire totals from stats() as the
  /// share denominator.
  std::vector<HotKey> hot_keys(std::size_t n) const;

  /// The first live checked account (every account of an audit namespace,
  /// and the sampled keys) that a grant ever took over the §3.4 bound, as
  /// "ns=... key=...: ...", or nullopt. A refund does not clear it.
  /// Sweeps every shard, so the caller must own the whole table.
  std::optional<std::string> audit_violation() const;

  /// Folds the namespace into the key — the one mixing rule behind the
  /// shard index, the per-shard hash *and* the cluster HashRing's key
  /// points, so the three can never diverge.
  static std::uint64_t fold_key(NamespaceId ns, std::uint64_t key) {
    return key + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(ns) + 1);
  }

  /// The hash the shard stores place `key` under, in the namespace whose
  /// dense index is `index` (the default namespace's is 0): its homes read
  /// neither the shard bits nor the HashRing position bits, so the keys a
  /// cluster node owns spread over each shard's array.
  static std::uint64_t store_hash(NamespaceIndex index, std::uint64_t key) {
    return store_hash(account_hash(index, key));
  }

 private:
  /// Immutable runtime form of a namespace: the resolved strategy object
  /// plus the derived caps. An account records only its namespace's index,
  /// and the registry's current snapshot at that index is always the one it
  /// was created under: configure_namespace runs with the whole table
  /// owned and purges a replaced namespace's accounts before it returns,
  /// so no account outlives the policy it was created under.
  struct Namespace {
    NamespaceId id = 0;
    NamespaceIndex index = 0;
    NamespaceConfig config;
    std::unique_ptr<core::Strategy> strategy;
    Tokens capacity = 0;       ///< effective balance cap
    Tokens bucket_cap = 0;     ///< tick_balance bucket cap (token bucket only)
    Tokens catchup_limit = 0;  ///< resolved max_catchup_ticks
  };

  struct AccountKey {
    NamespaceIndex index = 0;
    std::uint64_t key = 0;
  };

  /// The one hash of an account: shard_index() takes its bottom bits and
  /// the cluster HashRing its top bits (HashRing::key_point is this hash).
  /// The shard's slot and watchdog stores take the same mix of the
  /// namespace's index instead of its id, through store_hash(): a slot
  /// keeps only the index, and must rehash from what it keeps.
  static std::uint64_t account_hash(NamespaceId ns, std::uint64_t key) {
    std::uint64_t state = fold_key(ns, key);
    return util::splitmix64(state);
  }

  /// The hash the shard stores get for the account whose account_hash()
  /// is `hash`. A store's home index reads the top bits of what it gets,
  /// and neither the shard bits (all of a shard's keys share them) nor the
  /// ring bits (a node holds only the keys of its ring arcs, which would
  /// crowd the same stretches of every array and spill long probe runs
  /// past them) may be those. Rotating by 32 puts bits 31..0 on top. Ring
  /// ownership follows the top bits, and the index of 2^k shards reads the
  /// bottom k, which the home of an array under 2^(32−k) slots never
  /// reaches.
  static std::uint64_t store_hash(std::uint64_t hash) {
    return std::rotl(hash, 32);
  }

  // Slot::stamp holds the last access time in its low 48 bits (CoarseClock
  // keeps times below 2^48) and the namespace's index + 1 in its top 16, so
  // the stamp of a live slot is never 0.
  static constexpr int kStampIndexShift = 48;
  static constexpr std::uint64_t kStampAccessMask =
      (std::uint64_t{1} << kStampIndexShift) - 1;
  // Slot::tokens holds the balance in bits 0-30, the outstanding count in
  // bits 31-61 and these flags in the top two.
  static constexpr int kOutstandingShift = 31;
  static constexpr std::uint64_t kCountMask = (std::uint64_t{1} << 31) - 1;
  static constexpr std::uint64_t kSlotWatched = 1ULL << 62;    ///< watchdogs
  static constexpr std::uint64_t kSlotReplDirty = 1ULL << 63;  ///< repl_dirty
  static constexpr std::uint64_t kSlotFlags = kSlotWatched | kSlotReplDirty;

  /// One account: everything the data path reads. The tick index it last
  /// settled at is last_access_us() / Δ, since every settle stamps the
  /// access time from the same clock read. Both counts fit 31 bits because
  /// make_namespace bounds every capacity by INT32_MAX: the balance lies in
  /// [0, C], and the outstanding count — tokens granted and not refunded —
  /// is stored as min(outstanding, C), which leaves every refund the same
  /// (see DESIGN.md, "Account store layout"). The all-zero slot is empty.
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t stamp = 0;   ///< last access time, namespace index + 1
    std::uint64_t tokens = 0;  ///< balance, outstanding count, kSlot* flags

    TimeUs last_access_us() const {
      return static_cast<TimeUs>(stamp & kStampAccessMask);
    }
    void set_last_access_us(TimeUs t) {
      stamp = (stamp & ~kStampAccessMask) | static_cast<std::uint64_t>(t);
    }
    NamespaceIndex ns_index() const {
      return static_cast<NamespaceIndex>((stamp >> kStampIndexShift) - 1);
    }
    Tokens balance() const { return static_cast<Tokens>(tokens & kCountMask); }
    std::uint64_t outstanding() const {
      return (tokens >> kOutstandingShift) & kCountMask;
    }
    /// Stores both counts, each in [0, C], keeping the flags.
    void set_counts(Tokens balance, std::uint64_t outstanding) {
      tokens = (tokens & kSlotFlags) | static_cast<std::uint64_t>(balance) |
               outstanding << kOutstandingShift;
    }
  };
  static_assert(sizeof(Slot) == 24, "an account slot is 24 bytes");

  /// An account's replication state, in its shard store's cold column:
  /// zero until the account's first replica delta, and never mapped by a
  /// table without replication. Gate and sent floor stay within [0, C].
  struct ReplState {
    std::uint64_t floor_seq = 0;  ///< round the sent floor travelled in
    /// The replication spend gate: the highest floor that a promoted
    /// follower might still install — acquire never grants below it,
    /// which is what makes a conservative replica install under-grant-only.
    std::int32_t gate = 0;
    std::int32_t sent_floor = 0;  ///< floor of the last emitted delta
  };
  static_assert(sizeof(ReplState) == 16);

  struct SlotTraits {
    static bool live(const Slot& s) { return s.stamp != 0; }
    static std::uint64_t hash(const Slot& s) {
      return store_hash(s.ns_index(), s.key);
    }
  };

  /// The §3.4 check of one checked account, stored under the account's
  /// store hash.
  struct WatchSlot {
    std::uint64_t key = 0;
    NamespaceIndex index = 0;
    bool live = false;
    bool violated = false;  ///< a grant has broken the bound
    core::BurstCheck check;
  };
  static_assert(sizeof(WatchSlot) == 32);

  struct WatchTraits {
    static bool live(const WatchSlot& w) { return w.live; }
    static std::uint64_t hash(const WatchSlot& w) {
      return store_hash(w.index, w.key);
    }
  };

  /// Padded to a cache line so neighbouring shards, owned by different
  /// workers, don't false-share. Stats are broken out per namespace (with a
  /// one-slot cache so the hot path pays one hash lookup only on namespace
  /// switches); `stats.accounts` is unused per shard (the live count is
  /// accounts.size()).
  struct alignas(64) Shard {
    SlotStore<Slot, SlotTraits, ReplState> accounts;
    util::Rng rng{0};
    std::unordered_map<NamespaceId, TableStats> stats;
    NamespaceId cached_ns = 0;
    TableStats* cached_stats = nullptr;
    /// Space-saving top-k over this shard's acquire traffic (folded
    /// account ids) — a k-slot scan per acquire.
    obs::SpaceSaving hot{8};
    /// Accounts touched since the last drain_replica_dirty() (replication
    /// only; each account appears at most once — kSlotReplDirty).
    std::vector<AccountKey> repl_dirty;
    /// Online §3.4 checks of sampled keys (see
    /// ServiceConfig::watchdog_sample) and of every key of an audit
    /// namespace (NamespaceConfig::audit). Only kSlotWatched slots ever
    /// probe it, and every erase path drops the account's entry, so a
    /// re-created key starts from the empty check.
    SlotStore<WatchSlot, WatchTraits> watchdogs;
  };

  /// Builds and validates the runtime namespace object (throws
  /// util::InvariantError on an invalid policy); the caller sets its index.
  static std::shared_ptr<Namespace> make_namespace(
      NamespaceId ns, const NamespaceConfig& config);

  /// The current snapshot of namespace `ns`, or nullptr if it does not
  /// exist.
  std::shared_ptr<const Namespace> find_namespace(NamespaceId ns) const;

  /// One registry lookup per request; throws util::InvariantError on an
  /// unknown namespace.
  std::shared_ptr<const Namespace> resolve(NamespaceId ns) const;

  /// The snapshot at `index`, an index some account or entry recorded.
  std::shared_ptr<const Namespace> resolve_index(NamespaceIndex index) const;

  /// resolve_index() behind a one-entry cache, for the sweeps that meet
  /// accounts of any namespace rather than the one a request names.
  class NamespaceCache {
   public:
    explicit NamespaceCache(const AccountTable& table) : table_(&table) {}
    const Namespace& get(NamespaceIndex index) {
      if (ns_ == nullptr || ns_->index != index)
        ns_ = table_->resolve_index(index);
      return *ns_;
    }

   private:
    const AccountTable* table_;
    std::shared_ptr<const Namespace> ns_;
  };

  static TableStats& stats_for(Shard& shard, NamespaceId ns);
  std::size_t shard_index(NamespaceId ns, std::uint64_t key) const;
  /// The shard of the account whose account_hash() is `hash`.
  Shard& shard_for(std::uint64_t hash) { return *shards_[hash & shard_mask_]; }
  // The account helpers below take the account's `home` — its store hash,
  // computed once per request by the caller.
  /// The live account (index, key) in `shard`, or nullptr.
  static Slot* find_account(Shard& shard, std::uint64_t home,
                            NamespaceIndex index, std::uint64_t key);
  /// Creates the account with the given starting balance, settled at
  /// `now`, with its side state; the caller checked it is absent.
  Slot& create_account(Shard& shard, const Namespace& ns, std::uint64_t home,
                       std::uint64_t key, Tokens balance, TimeUs now);
  Slot& find_or_create(Shard& shard, const Namespace& ns, std::uint64_t home,
                       std::uint64_t key, TimeUs now);
  /// The watchdog entry of (index, key), an account of `shard` flagged
  /// kSlotWatched.
  static WatchSlot& watch_slot(Shard& shard, std::uint64_t home,
                               NamespaceIndex index, std::uint64_t key);
  /// The table's one erase path: removes every account of `shard` for which
  /// `pred(slot)` holds, dropping its side entries with it, and returns
  /// how many went.
  template <typename Pred>
  static std::size_t erase_accounts_if(Shard& shard, Pred&& pred);
  /// Replays the ticks of `ns`, the account's namespace, elapsed since its
  /// last access, up to the cap, and stamps `now` as its last access.
  static void settle(Shard& shard, Slot& slot, const Namespace& ns,
                     TimeUs now);
  /// The acquire itself, on an account of `shard`; the caller has checked
  /// n >= 0.
  AcquireResult acquire_in_shard(Shard& shard, const Namespace& ns,
                                 std::uint64_t home, std::uint64_t key,
                                 Tokens n, TimeUs now);
  /// Queues the account for the next replica drain (no-op when replication
  /// is off or it is already queued).
  void mark_repl_dirty(Shard& shard, Slot& slot);
  /// Drops every account of `ns` (reset on reconfigure).
  void purge_namespace(const Namespace& ns);

  ServiceConfig config_;
  CoarseClock clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;
  std::atomic<bool> repl_enabled_{false};
  std::atomic<Tokens> repl_headroom_{0};  ///< 0 = auto (half capacity)

  mutable std::shared_mutex ns_mu_;
  /// The registry: each namespace's current snapshot at its index, and the
  /// index of each id.
  std::vector<std::shared_ptr<const Namespace>> namespaces_;
  std::unordered_map<NamespaceId, NamespaceIndex> index_of_;
};

/// Wall-clock driver for a live tokend: a util::Ticker that advances the
/// table's CoarseClock to the time since start() every `resolution_us`
/// (so tokens accrue from the first start on, not from construction).
/// It never touches a shard — idle-account eviction is the shard owners'
/// job (each ShardEngine worker sweeps its own shards). Stops on
/// destruction.
class ClockDriver {
 public:
  explicit ClockDriver(AccountTable& table, TimeUs resolution_us = 1'000)
      : ticker_(resolution_us,
                [&table](TimeUs now) { table.clock().advance_to(now); }) {}

  void start() { ticker_.start(); }
  /// Idempotent.
  void stop() { ticker_.stop(); }

 private:
  util::Ticker ticker_;
};

}  // namespace toka::service
