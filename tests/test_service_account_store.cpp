// The account table's flat slot store, checked against a std::unordered_map
// model: inserts, lookups, single erases and the erase-while-sweeping paths
// the table builds its evict, extract and purge sweeps on, across the grow
// and shrink steps of its capacity ladder (doublings, then 3/2 and 4/3
// steps), with the cold column's values following their slots once it is
// enabled; plus which pages of its array a rehash makes resident, and which
// 2 MiB chunks it asks huge pages for.
#include "service/account_store.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.hpp"

namespace toka::service {
namespace {

/// A stand-in account: `group` plays the namespace, `value` the state.
struct TestSlot {
  std::uint64_t key = 0;
  std::uint32_t group = 0;
  std::uint32_t value = 0;
  std::uint8_t live = 0;
};

std::uint64_t mix(std::uint32_t group, std::uint64_t key) {
  std::uint64_t state = key + 0x9E3779B97F4A7C15ULL * (group + 1);
  return util::splitmix64(state);
}

struct MixedTraits {
  static bool live(const TestSlot& s) { return s.live != 0; }
  static std::uint64_t hash(const TestSlot& s) { return mix(s.group, s.key); }
};

/// Every key homes at one of four slots near the end of the array (the
/// home index scales the hash's top bits to the capacity), so the probe
/// runs are long and wrap around the end — the hard case for backward
/// shifts and for sweeps that erase while they walk.
struct WrappingTraits {
  static bool live(const TestSlot& s) { return s.live != 0; }
  static std::uint64_t hash(const TestSlot& s) {
    return ~std::uint64_t{0} - ((mix(s.group, s.key) % 4) << 58);
  }
};

/// The key is the hash, and callers keep its top bit clear, so every home
/// lies in the lower half of the array.
struct KeyIsHashTraits {
  static bool live(const TestSlot& s) { return s.live != 0; }
  static std::uint64_t hash(const TestSlot& s) { return s.key; }
};

/// A TestSlot padded to `Bytes`, so that a store of a few thousand slots
/// already reaches SlotStore::kLadderBytes and steps through 3·2^(k−1)
/// capacities, whose probe runs wrap at an end that is no power of two.
template <std::size_t Bytes>
struct PaddedSlot : TestSlot {
  PaddedSlot() = default;
  // Implicit: the harness builds its slots from TestSlots.
  PaddedSlot(const TestSlot& s) : TestSlot(s) {}
  unsigned char pad[Bytes - sizeof(TestSlot)] = {};
};

/// Whether `capacity` lies on the ladder of a store of `slot_bytes` slots:
/// a power of two, or 3·2^(k−1) at or above 2 MiB.
bool on_ladder(std::size_t capacity, std::size_t slot_bytes) {
  if (std::has_single_bit(capacity)) return true;
  return capacity % 3 == 0 && std::has_single_bit(capacity / 3) &&
         capacity / 3 * 2 * slot_bytes >= (std::size_t{2} << 20);
}

/// A stand-in for the table's replication state.
struct TestCold {
  std::uint64_t value = 0;
};

using KeyIsHashStore = SlotStore<TestSlot, KeyIsHashTraits, TestCold>;

/// Model key: (group, key) packed.
std::uint64_t model_key(std::uint32_t group, std::uint64_t key) {
  return (static_cast<std::uint64_t>(group) << 48) | key;
}

/// What the model holds per key: the slot's value and, once the store's
/// cold column is enabled, its cold value.
struct ModelEntry {
  std::uint32_t value = 0;
  std::uint64_t cold = 0;
};

template <typename Traits, typename Slot = TestSlot>
class Harness {
 public:
  using Store = SlotStore<Slot, Traits, TestCold>;

  void insert(std::uint32_t group, std::uint64_t key, std::uint32_t value) {
    const Slot s = TestSlot{key, group, value, 1};
    if (find(group, key) != nullptr) return;  // the store requires absence
    Slot& placed = store_.insert(Traits::hash(s), s);
    ASSERT_EQ(placed.key, key);
    ModelEntry entry{value, 0};
    if (store_.cold_enabled()) {
      ASSERT_EQ(store_.cold(placed).value, 0u) << "a new slot's cold value";
      entry.cold = next_cold();
      store_.cold(placed).value = entry.cold;
    }
    model_[model_key(group, key)] = entry;
  }

  /// Enables the cold column and gives every live slot a distinct value.
  void enable_cold() {
    store_.enable_cold();
    ASSERT_TRUE(store_.cold_enabled());
    for (auto& [mk, entry] : model_) {
      Slot* s = find(static_cast<std::uint32_t>(mk >> 48),
                     mk & ((std::uint64_t{1} << 48) - 1));
      ASSERT_NE(s, nullptr);
      ASSERT_EQ(store_.cold(*s).value, 0u) << "a fresh column reads zero";
      entry.cold = next_cold();
      store_.cold(*s).value = entry.cold;
    }
  }

  Slot* find(std::uint32_t group, std::uint64_t key) {
    const TestSlot probe{key, group, 0, 1};
    return store_.find(Traits::hash(probe), [&](const TestSlot& s) {
      return s.key == key && s.group == group;
    });
  }

  /// The store and the model agree on (group, key).
  void lookup(std::uint32_t group, std::uint64_t key) {
    const Slot* s = find(group, key);
    auto it = model_.find(model_key(group, key));
    ASSERT_EQ(s != nullptr, it != model_.end()) << "key " << key;
    if (s != nullptr) {
      EXPECT_EQ(s->value, it->second.value);
      if (store_.cold_enabled()) {
        EXPECT_EQ(store_.cold(*s).value, it->second.cold);
        // Rewrite it, so values keep changing between moves.
        it->second.cold = next_cold();
        store_.cold(*s).value = it->second.cold;
      }
    }
  }

  void erase(std::uint32_t group, std::uint64_t key) {
    if (Slot* s = find(group, key)) {
      store_.erase(*s);
      model_.erase(model_key(group, key));
    }
  }

  /// Sweeps with `pred`, checking that every live slot is offered exactly
  /// once; returns the erased slots.
  template <typename Pred>
  std::vector<TestSlot> sweep(Pred&& pred) {
    std::unordered_set<std::uint64_t> seen;
    std::vector<TestSlot> erased;
    const std::size_t before = store_.size();
    const std::size_t n = store_.erase_if([&](Slot& s) {
      EXPECT_TRUE(seen.insert(model_key(s.group, s.key)).second)
          << "slot " << s.key << " offered twice";
      // Slots shifted back by earlier erases of this sweep still carry
      // their own cold values.
      if (store_.cold_enabled()) {
        EXPECT_EQ(store_.cold(s).value,
                  model_.at(model_key(s.group, s.key)).cold);
      }
      if (!pred(s)) return false;
      erased.push_back(s);
      return true;
    });
    EXPECT_EQ(seen.size(), before);
    EXPECT_EQ(n, erased.size());
    for (const TestSlot& s : erased) model_.erase(model_key(s.group, s.key));
    return erased;
  }

  void check() {
    ASSERT_EQ(store_.size(), model_.size());
    std::size_t visited = 0;
    store_.for_each([&](const TestSlot& s) {
      ++visited;
      auto it = model_.find(model_key(s.group, s.key));
      ASSERT_NE(it, model_.end()) << "store holds a key the model lost";
      EXPECT_EQ(s.value, it->second.value);
    });
    EXPECT_EQ(visited, model_.size());
    for (const auto& [mk, entry] : model_) {
      Slot* s = find(static_cast<std::uint32_t>(mk >> 48),
                     mk & ((std::uint64_t{1} << 48) - 1));
      ASSERT_NE(s, nullptr) << "model key " << mk << " unreachable";
      EXPECT_EQ(s->value, entry.value);
      if (store_.cold_enabled()) {
        EXPECT_EQ(store_.cold(*s).value, entry.cold) << "model key " << mk;
      }
    }
    if (store_.capacity() > 0) {
      EXPECT_TRUE(on_ladder(store_.capacity(), sizeof(Slot)))
          << store_.capacity() << " slots";
      EXPECT_LE(store_.size() * 4, store_.capacity() * 3);
    }
  }

  Store& store() { return store_; }
  std::size_t model_size() const { return model_.size(); }

 private:
  std::uint64_t next_cold() { return ++cold_stamp_; }

  Store store_;
  std::unordered_map<std::uint64_t, ModelEntry> model_;
  std::uint64_t cold_stamp_ = 0;
};

template <typename Traits, typename Slot>
void randomized_against_model(std::uint64_t seed, std::uint64_t key_space,
                              int rounds) {
  Harness<Traits, Slot> h;
  util::Rng rng(seed);
  std::uint32_t stamp = 0;
  std::size_t peak_capacity = 0;
  std::size_t capacity_at_enable = 0;
  // Sweeps run on a 3·2^(k−1) capacity, whose end is no power of two.
  int three_step_sweeps = 0;
  for (int round = 0; round < rounds; ++round) {
    // Grow phase: mostly inserts, with lookups and single erases mixed in.
    const std::uint64_t ops = 500 + rng.below(6000);
    for (std::uint64_t i = 0; i < ops; ++i) {
      if (round == 0 && i == ops / 2) {
        // Part-way, on a populated store: from here on every cold value
        // must follow its slot through growth, erases, sweeps and shrinks.
        ASSERT_GT(h.store().size(), 0u);
        ASSERT_FALSE(h.store().cold_enabled());
        capacity_at_enable = h.store().capacity();
        h.enable_cold();
        h.check();
      }
      const auto group = static_cast<std::uint32_t>(rng.below(3));
      const std::uint64_t key = rng.below(key_space);
      switch (rng.below(10)) {
        case 0:
        case 1:
          h.erase(group, key);
          break;
        case 2:
          h.lookup(group, key);
          break;
        default:
          h.insert(group, key, ++stamp);
          break;
      }
    }
    h.check();
    peak_capacity = std::max(peak_capacity, h.store().capacity());
    if (!std::has_single_bit(h.store().capacity())) ++three_step_sweeps;
    // One of the table's three sweeps.
    switch (round % 3) {
      case 0: {  // evict: drop "idle" slots, here the older stamps
        const std::uint32_t cutoff = stamp - stamp / 3;
        h.sweep([&](const TestSlot& s) { return s.value < cutoff; });
        break;
      }
      case 1: {  // extract: move away a hash-chosen subset of keys
        const std::vector<TestSlot> moved =
            h.sweep([](const TestSlot& s) { return s.key % 3 == 1; });
        for (const TestSlot& s : moved) EXPECT_EQ(s.key % 3, 1u);
        break;
      }
      default: {  // purge: drop one whole group
        const auto group = static_cast<std::uint32_t>(rng.below(3));
        h.sweep([&](const TestSlot& s) { return s.group == group; });
        break;
      }
    }
    h.check();
  }
  // Several steps up the ladder happened on the way, some of them with the
  // cold column on, and the probe runs wrapped at a 3·2^(k−1) end.
  EXPECT_GE(peak_capacity, 1024u);
  EXPECT_GT(peak_capacity, capacity_at_enable);
  EXPECT_GT(three_step_sweeps, 0);
  // A final purge of everything releases the array and the column.
  h.sweep([](const TestSlot&) { return true; });
  h.check();
  EXPECT_EQ(h.store().size(), 0u);
  EXPECT_EQ(h.store().capacity(), 0u);
  EXPECT_TRUE(h.store().cold_enabled());
  // Regrown, the column comes back with the array, zero for every new
  // slot, and carries values through the doublings again.
  for (std::uint64_t key = 0; key < 3000; ++key) {
    h.insert(static_cast<std::uint32_t>(key % 3), key, ++stamp);
    if (key % 5 == 0) h.lookup(static_cast<std::uint32_t>(key % 3), key / 2);
    if (key % 7 == 0) h.erase(static_cast<std::uint32_t>((key / 7) % 3), key / 3);
  }
  h.check();
  EXPECT_GE(h.store().capacity(), 1024u);
}

TEST(AccountStore, RandomizedAgainstUnorderedMap) {
  // 256-byte slots reach the 2 MiB ladder threshold at 8192 slots.
  randomized_against_model<MixedTraits, PaddedSlot<256>>(
      /*seed=*/17, /*key_space=*/20'000, /*rounds=*/24);
}

TEST(AccountStore, RandomizedWithWrappingProbeRuns) {
  // Long runs that wrap the array end; small enough that the quadratic
  // probe cost stays cheap. 1 KiB slots reach the 2 MiB ladder threshold
  // at 2048 slots.
  randomized_against_model<WrappingTraits, PaddedSlot<1024>>(
      /*seed=*/5, /*key_space=*/900, /*rounds=*/12);
}

TEST(AccountStore, GrowsUpTheCapacityLadderAndShrinksBack) {
  // 256-byte slots: the array reaches 2 MiB at 8192 slots.
  Harness<MixedTraits, PaddedSlot<256>> h;
  std::vector<std::size_t> seen_capacities;
  std::vector<std::size_t> sizes_at_growth;
  for (std::uint64_t key = 0; key < 35'000; ++key) {
    const std::size_t capacity = h.store().capacity();
    h.insert(0, key, static_cast<std::uint32_t>(key));
    if (h.store().capacity() != capacity) {
      seen_capacities.push_back(h.store().capacity());
      sizes_at_growth.push_back(h.store().size());
    }
  }
  h.check();
  // Doublings up to 2 MiB; from there 3·2^(k−1) rungs between the powers
  // of two, 3/2 and then 4/3 of the rung before.
  const std::vector<std::size_t> expected{
      64,     128,    256,    512,    1024,   2048,  4096,
      8192,   12'288, 16'384, 24'576, 32'768, 49'152};
  EXPECT_EQ(seen_capacities, expected);
  // Each step comes with the insert that takes the last rung past 3/4.
  for (std::size_t i = 1; i < seen_capacities.size(); ++i)
    EXPECT_EQ(sizes_at_growth[i], seen_capacities[i - 1] * 3 / 4 + 1);

  // Keep 1 in 8: the sweep leaves the store under 1/8 load, so it shrinks
  // to the smallest rung at or above twice its size, here a 3·2^(k−1) one.
  h.sweep([](const TestSlot& s) { return s.key % 8 != 0; });
  h.check();
  EXPECT_EQ(h.store().size(), 4375u);
  EXPECT_EQ(h.store().capacity(), 12'288u);
  // Below 2 MiB a shrink lands on a power of two again.
  h.sweep([](const TestSlot& s) { return s.key % 64 != 0; });
  h.check();
  EXPECT_EQ(h.store().size(), 547u);
  EXPECT_EQ(h.store().capacity(), 2048u);
  // Nothing asked for the cold column, so it was never mapped.
  EXPECT_FALSE(h.store().cold_enabled());
}

TEST(AccountStore, ErasedSlotsReadAsZeroAndEmptyStoreFindsNothing) {
  Harness<MixedTraits> h;
  EXPECT_EQ(h.find(0, 1), nullptr);  // no array mapped yet
  h.insert(0, 1, 7);
  h.insert(1, 1, 8);  // same key, other group: a distinct slot
  ASSERT_NE(h.find(0, 1), nullptr);
  EXPECT_EQ(h.find(0, 1)->value, 7u);
  EXPECT_EQ(h.find(1, 1)->value, 8u);
  h.erase(0, 1);
  EXPECT_EQ(h.find(0, 1), nullptr);
  EXPECT_EQ(h.find(1, 1)->value, 8u);
  h.check();
}

TEST(AccountStore, RehashPrefaultsOnlyPagesThatHoldHomes) {
  // Every home lies in the lower half, so the probe runs spill only a
  // little past the middle and the array's top quarter is never touched.
  // A rehash that prefaulted the whole array would make it resident; one
  // that prefaults only the pages holding homes leaves it alone, whether
  // or not the kernel supports the prefault. The array stays under 2 MiB,
  // so no transparent huge page can back it either.
  KeyIsHashStore store;
  const auto find = [&](std::uint64_t hash) {
    return store.find(hash, [&](const TestSlot& t) { return t.key == hash; });
  };
  // Hash 0 homes at slot 0 and stays there: each rehash re-inserts in
  // array order, so it is always the first slot placed.
  store.insert(0, TestSlot{0, 0, 0, 1});
  util::Rng rng(3);
  while (store.size() < 25'000) {
    const std::uint64_t hash = rng.next_u64() >> 1;
    if (find(hash) == nullptr) store.insert(hash, TestSlot{hash, 0, 0, 1});
  }
  ASSERT_EQ(store.capacity(), 65'536u);  // ten doublings from 64 slots

  const auto base = reinterpret_cast<std::uintptr_t>(find(0));
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  ASSERT_EQ(base % page, 0u);  // slot 0 starts the mapping
  const std::uintptr_t end = base + store.capacity() * sizeof(TestSlot);
  const std::uintptr_t top =
      (base + store.capacity() * 3 / 4 * sizeof(TestSlot) + page - 1) /
      page * page;
  std::vector<unsigned char> resident((end - top) / page);
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(top), end - top,
                      resident.data()),
            0);
  EXPECT_EQ(std::count_if(resident.begin(), resident.end(),
                          [](unsigned char r) { return (r & 1) != 0; }),
            0)
      << "of " << resident.size() << " top-quarter pages";
  unsigned char first = 0;
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(base), page, &first), 0);
  EXPECT_EQ(first & 1, 1) << "mincore does not see the store's own pages";
}

constexpr std::uintptr_t kChunkBytes = std::uintptr_t{2} << 20;

/// False where the kernel has no transparent huge pages or they are off.
bool huge_pages_enabled() {
  std::ifstream mode("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  return std::getline(mode, line) && line.find("[never]") == std::string::npos;
}

/// Whether the mapping that holds `addr` carries the `hg` VmFlag in
/// /proc/self/smaps, i.e. was advised MADV_HUGEPAGE.
bool advised_huge(std::uintptr_t addr) {
  std::ifstream smaps("/proc/self/smaps");
  bool in_entry = false;
  for (std::string line; std::getline(smaps, line);) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &lo, &hi) == 2) {
      in_entry = lo <= addr && addr < hi;
    } else if (in_entry && line.rfind("VmFlags:", 0) == 0) {
      std::istringstream flags(line.substr(8));
      for (std::string flag; flags >> flag;) {
        if (flag == "hg") return true;
      }
      return false;
    }
  }
  ADD_FAILURE() << "no smaps entry maps " << std::hex << addr;
  return false;
}

/// The 2 MiB-aligned chunks that lie wholly inside [lo, hi).
std::vector<std::uintptr_t> whole_chunks(std::uintptr_t lo, std::uintptr_t hi) {
  std::vector<std::uintptr_t> chunks;
  for (std::uintptr_t c = (lo + kChunkBytes - 1) / kChunkBytes * kChunkBytes;
       c + kChunkBytes <= hi; c += kChunkBytes)
    chunks.push_back(c);
  return chunks;
}

/// Inserts hash 0 into the empty `store`, then random hashes until it
/// holds `size` slots, and returns the address of its array, where hash 0
/// stays (see the test above).
std::uintptr_t fill_key_is_hash(KeyIsHashStore& store, std::size_t size) {
  const auto find = [&](std::uint64_t hash) {
    return store.find(hash, [&](const TestSlot& t) { return t.key == hash; });
  };
  store.insert(0, TestSlot{0, 0, 0, 1});
  util::Rng rng(11);
  while (store.size() < size) {
    const std::uint64_t hash = rng.next_u64();
    if (find(hash) == nullptr) store.insert(hash, TestSlot{hash, 0, 0, 1});
  }
  return reinterpret_cast<std::uintptr_t>(find(0));
}

TEST(AccountStore, DenseStoreAsksForHugePages) {
  // Homes spread over the whole array, so after the last rehash every page
  // holds one and every whole 2 MiB chunk is advised.
  if (!huge_pages_enabled()) GTEST_SKIP() << "transparent huge pages off";
  KeyIsHashStore store;
  const std::uintptr_t base = fill_key_is_hash(store, 200'000);
  ASSERT_EQ(store.capacity(), 393'216u);  // 9 MiB, a 3·2^(k−1) rung
  const std::uintptr_t end = base + store.capacity() * sizeof(TestSlot);
  const std::vector<std::uintptr_t> chunks = whole_chunks(base, end);
  ASSERT_GE(chunks.size(), 2u);
  for (const std::uintptr_t chunk : chunks)
    EXPECT_TRUE(advised_huge(chunk)) << "chunk at +" << (chunk - base);
}

TEST(AccountStore, ChunksWithoutHomesKeepSmallPages) {
  // A store whose homes all lie in the lower half. It is filled to 24 MiB
  // with homes anywhere; a sweep then drops every key homed in the upper
  // half and two thirds of the others. That leaves it under 1/8 load, so
  // it shrinks, and the shrink's rehash sees lower-half homes only.
  // (Inserting lower-half keys alone would pile them into one probe run
  // half the array long before every doubling, and each insert would walk
  // it.)
  if (!huge_pages_enabled()) GTEST_SKIP() << "transparent huge pages off";
  KeyIsHashStore store;
  fill_key_is_hash(store, 700'000);
  ASSERT_EQ(store.capacity(), 1u << 20);
  store.erase_if([](const TestSlot& t) {
    return (t.key >> 63) != 0 || t.key % 3 != 0;
  });
  ASSERT_EQ(store.capacity(), 262'144u);  // 6 MiB
  const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(
      store.find(0, [](const TestSlot& t) { return t.key == 0; }));

  // The lower half's chunks are advised; no chunk of the upper half is,
  // and its top quarter, which not even the probe runs spilling past the
  // middle reach, stays out of RSS. A huge page there would have made
  // 2 MiB of it resident at once.
  const std::uintptr_t middle = base + store.capacity() / 2 * sizeof(TestSlot);
  const std::uintptr_t end = base + store.capacity() * sizeof(TestSlot);
  const std::vector<std::uintptr_t> lower = whole_chunks(base, middle);
  const std::vector<std::uintptr_t> upper = whole_chunks(middle, end);
  ASSERT_FALSE(lower.empty());
  ASSERT_FALSE(upper.empty());
  for (const std::uintptr_t chunk : lower)
    EXPECT_TRUE(advised_huge(chunk)) << "chunk at +" << (chunk - base);
  for (const std::uintptr_t chunk : upper)
    EXPECT_FALSE(advised_huge(chunk)) << "chunk at +" << (chunk - base);

  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const std::uintptr_t top = base + store.capacity() * 3 / 4 * sizeof(TestSlot);
  ASSERT_EQ(top % page, 0u);
  std::vector<unsigned char> resident((end - top) / page);
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(top), end - top,
                      resident.data()),
            0);
  EXPECT_EQ(std::count_if(resident.begin(), resident.end(),
                          [](unsigned char r) { return (r & 1) != 0; }),
            0)
      << "of " << resident.size() << " top-quarter pages";
}

TEST(MappedArray, ZeroFilledAndMovable) {
  MappedArray a(1 << 16);
  ASSERT_NE(a.data(), nullptr);
  const auto* bytes = static_cast<const unsigned char*>(a.data());
  for (std::size_t i = 0; i < a.bytes(); i += 4096) EXPECT_EQ(bytes[i], 0);
  std::memset(a.data(), 0xAB, a.bytes());
  MappedArray b(std::move(a));
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(static_cast<const unsigned char*>(b.data())[100], 0xAB);
  b = MappedArray();  // unmaps
  EXPECT_EQ(b.data(), nullptr);
}

}  // namespace
}  // namespace toka::service
