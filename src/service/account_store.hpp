// The account table's per-shard store: an open-addressing hash table of
// fixed-size slots (linear probing, backward-shift deletion) kept in an
// anonymous memory mapping.
//
// A slot holds an account's whole hot state inline, so a lookup is one
// probe run over contiguous memory instead of a bucket load plus a node
// chase, and an account costs its slot and no allocation. State that only
// some tables need can live in an optional cold column: a second array,
// index-aligned with the slots, that the store maps only when asked to
// and moves in step with them. The store knows nothing about accounts:
// the slot type, the cold type and a traits class (liveness + hash) come
// from the table.
//
// The slot arrays come from mmap/munmap, not the heap. glibc keeps freed
// interior heap chunks resident and its dynamic mmap threshold sends later
// large allocations back to the heap, so every array a growing shard left
// behind could stay in RSS. A mapping is returned to the kernel the moment
// it is dropped, its zero pages double as empty slots, and a rehash can
// prefault it and ask for huge pages chunk by chunk (see prefault_homes).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace toka::service {

/// An anonymous, private, zero-filled memory mapping; unmapped when
/// destroyed or moved over. Its pages are 4 KiB and fault in on first
/// touch unless populate() or advise_huge() says otherwise.
class MappedArray {
 public:
  MappedArray() = default;
  /// Maps `bytes` > 0 of zero pages; throws std::bad_alloc on failure.
  explicit MappedArray(std::size_t bytes);
  ~MappedArray() { release(); }

  MappedArray(MappedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  MappedArray& operator=(MappedArray&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  void* data() const { return data_; }
  std::size_t bytes() const { return bytes_; }

  /// Prefaults [offset, offset + bytes) writable (MADV_POPULATE_WRITE);
  /// `offset` is page-aligned. Only a hint: where the kernel lacks it, the
  /// pages fault on first touch as before.
  void populate(std::size_t offset, std::size_t bytes);

  /// Asks for transparent huge pages over [offset, offset + bytes)
  /// (MADV_HUGEPAGE), a range of whole 2 MiB-aligned chunks. Only a hint:
  /// a kernel without THP answers EINVAL, and with THP set to `never` the
  /// range keeps 4 KiB pages, as without the call.
  void advise_huge(std::size_t offset, std::size_t bytes);

 private:
  void release();

  void* data_ = nullptr;
  std::size_t bytes_ = 0;
};

/// The cold type of a store that never enables its cold column.
struct NoCold {};

/// Open-addressing table of `Slot`s. `Traits` supplies
///   static bool live(const Slot&)          — false for the all-zero slot;
///   static std::uint64_t hash(const Slot&) — the hash it was inserted under.
/// The home index is `hash * capacity / 2^64`, which reads the hash's top
/// bits, so the caller must keep those free of any bits its keys share
/// (the table's shard index, a cluster node's ring arcs). Probe runs wrap
/// at the end of the array.
///
/// The capacity grows above 3/4 load along a ladder: it doubles while the
/// array is under kLadderBytes, and from there on it alternates 2^k and
/// 3·2^(k−1) (each step 3/2 or 4/3 of the last), so a large store sits at
/// a load of 0.5–0.75 instead of 0.375–0.75. A sweep that leaves it under
/// 1/8 load shrinks it to the smallest rung at or above twice its size (an
/// empty store unmaps its array). Any insert or erase may move slots: a
/// Slot& or Slot* stays valid only until the next one.
///
/// Once enable_cold() has run, every slot also has a `Cold` value at the
/// same index of a second array. It is zero for an empty slot and for a
/// slot just inserted, travels with its slot through every move, and is
/// zeroed when its slot is erased.
template <typename Slot, typename Traits, typename Cold = NoCold>
class SlotStore {
  static_assert(std::is_trivially_copyable_v<Slot> &&
                    std::is_trivially_destructible_v<Slot>,
                "slots are moved with plain copies and dropped by zeroing");
  static_assert(std::is_trivially_copyable_v<Cold> &&
                    std::is_trivially_destructible_v<Cold>,
                "cold values are moved and dropped like their slots");

 public:
  /// Smallest non-empty capacity, in slots.
  static constexpr std::size_t kMinCapacity = 64;
  /// Arrays under this size double; from it up they step by 3/2 and 4/3.
  /// Below it the finer steps save little memory for more rehashes: with
  /// them at every size, a table preload ran 13–20% slower.
  static constexpr std::size_t kLadderBytes = std::size_t{2} << 20;

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Whether enable_cold() has run.
  bool cold_enabled() const { return cold_enabled_; }

  /// Gives every slot a zero cold value, mapping the column now if the
  /// store holds an array. From then on the column stays on: an emptied
  /// store unmaps it with the slots, and the next insert maps both again.
  void enable_cold() {
    if (cold_enabled_) return;
    cold_enabled_ = true;
    if (capacity_ != 0) {
      cold_array_ = MappedArray(capacity_ * sizeof(Cold));
      colds_ = static_cast<Cold*>(cold_array_.data());
    }
  }

  /// The cold value of `slot`, a live slot of this store, which must have
  /// its column enabled. Valid as long as the slot reference is.
  Cold& cold(const Slot& slot) {
    return colds_[static_cast<std::size_t>(&slot - slots_)];
  }

  /// The live slot for which `eq(slot)` holds among those inserted under
  /// `hash`, or nullptr.
  template <typename Eq>
  Slot* find(std::uint64_t hash, Eq&& eq) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(hash);; i = next(i)) {
      Slot& slot = slots_[i];
      if (!Traits::live(slot)) return nullptr;
      if (eq(static_cast<const Slot&>(slot))) return &slot;
    }
  }

  /// Starts loading the home slot of `hash`, the first line a find or
  /// insert under it reads. A hint with no effect on contents; the caller
  /// must hold the same access to the store as for find, since it reads the
  /// array and its size.
  void prefetch(std::uint64_t hash) const {
    if (capacity_ != 0) __builtin_prefetch(&slots_[home(hash)], 1);
  }

  /// Inserts `value` — live, with Traits::hash(value) == `hash`, and not
  /// already present — and returns its slot.
  Slot& insert(std::uint64_t hash, const Slot& value) {
    if ((size_ + 1) * 4 > capacity_ * 3) rehash(next_capacity(capacity_));
    Slot& slot = slots_[free_index(hash)];
    slot = value;
    ++size_;
    return slot;
  }

  /// Removes `slot`, which must be a live slot of this store.
  void erase(Slot& slot) {
    erase_at(static_cast<std::size_t>(&slot - slots_));
  }

  /// Removes every live slot for which `pred(slot)` is true and returns how
  /// many went. `pred` sees each live slot exactly once, intact, and may
  /// act on it (drop its side state) before it is erased.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    if (size_ == 0) return 0;
    // Start the sweep at an empty slot. A backward shift only moves slots
    // within the run that follows the erased one, toward it; that run ends
    // at an empty slot, and the start stays empty, so no run wraps past the
    // start. Every shifted slot therefore comes from ahead of the cursor
    // and lands at or ahead of it: re-examining the cursor after an erase
    // visits it, and nothing already visited is seen again.
    std::size_t start = 0;
    while (Traits::live(slots_[start])) ++start;  // load <= 3/4: one exists
    std::size_t erased = 0;
    for (std::size_t step = 0, i = start; step < capacity_;) {
      if (Traits::live(slots_[i]) && pred(slots_[i])) {
        erase_at(i);
        ++erased;
      } else {
        ++step;
        i = next(i);
      }
    }
    if (capacity_ > kMinCapacity && size_ * 8 < capacity_) shrink();
    return erased;
  }

  /// Calls `fn(slot)` for every live slot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (Traits::live(slots_[i])) fn(static_cast<const Slot&>(slots_[i]));
    }
  }

 private:
  /// The rung after `capacity` on the capacity ladder (kMinCapacity after
  /// 0).
  static constexpr std::size_t next_capacity(std::size_t capacity) {
    if (capacity == 0) return kMinCapacity;
    if (capacity * sizeof(Slot) < kLadderBytes) return capacity * 2;
    // Every rung below kLadderBytes is a power of two, so the first rung
    // at or above it is one too: 2^k -> 3·2^(k−1) -> 2^(k+1) -> ...
    return std::has_single_bit(capacity) ? capacity / 2 * 3
                                         : capacity / 3 * 4;
  }

  /// The hash scaled to [0, capacity): its top bits at a power of two.
  std::size_t home(std::uint64_t hash) const {
    using Wide = unsigned __int128;
    return static_cast<std::size_t>((Wide{hash} * capacity_) >> 64);
  }

  /// The slot after `i`, wrapping at the end of the array.
  std::size_t next(std::size_t i) const {
    return i + 1 == capacity_ ? 0 : i + 1;
  }

  /// How many steps forward, wrapping, slot `to` lies from slot `from`.
  std::size_t distance(std::size_t from, std::size_t to) const {
    return to >= from ? to - from : to + capacity_ - from;
  }

  std::size_t free_index(std::uint64_t hash) const {
    std::size_t i = home(hash);
    while (Traits::live(slots_[i])) i = next(i);
    return i;
  }

  /// Backward-shift deletion: walks the run after the hole and moves back
  /// each slot whose home does not lie between the hole and itself, so
  /// every remaining slot stays reachable from its home without
  /// tombstones.
  void erase_at(std::size_t hole) {
    for (std::size_t j = next(hole);; j = next(j)) {
      const Slot& slot = slots_[j];
      if (!Traits::live(slot)) break;
      if (distance(home(Traits::hash(slot)), j) >= distance(hole, j)) {
        slots_[hole] = slot;
        if (colds_ != nullptr) colds_[hole] = colds_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    if (colds_ != nullptr) colds_[hole] = Cold{};
    --size_;
  }

  void shrink() {
    if (size_ == 0) {
      array_ = MappedArray();
      slots_ = nullptr;
      cold_array_ = MappedArray();
      colds_ = nullptr;
      capacity_ = 0;
      return;
    }
    std::size_t capacity = kMinCapacity;
    while (capacity < size_ * 2) capacity = next_capacity(capacity);
    rehash(capacity);
  }

  void rehash(std::size_t capacity) {
    MappedArray fresh(capacity * sizeof(Slot));
    MappedArray fresh_cold =
        cold_enabled_ ? MappedArray(capacity * sizeof(Cold)) : MappedArray();
    Slot* const old_slots = slots_;
    Cold* const old_colds = colds_;
    const std::size_t old_capacity = capacity_;
    slots_ = static_cast<Slot*>(fresh.data());
    colds_ = static_cast<Cold*>(fresh_cold.data());
    capacity_ = capacity;
    prefault_homes(fresh, old_slots, old_capacity);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (!Traits::live(old_slots[i])) continue;
      const std::size_t to = free_index(Traits::hash(old_slots[i]));
      slots_[to] = old_slots[i];
      if (old_colds != nullptr) colds_[to] = old_colds[i];
    }
    array_ = std::move(fresh);  // unmaps the old arrays
    cold_array_ = std::move(fresh_cold);
  }

  /// Populates, ready for writing, each run of pages of the new array
  /// that holds some live slot's home. A page the re-inserts would fault
  /// in is otherwise faulted twice: free_index's read maps the shared zero
  /// page, then the slot's write takes a copy-on-write fault. Pages that
  /// hold no home stay unpopulated, because homes need not cover the
  /// array: the store takes its hashes as given, and hashes whose top bits
  /// are skewed leave whole stretches of it untouched.
  ///
  /// First, each 2 MiB-aligned chunk of the array whose 512 pages all hold
  /// a home is advised for a huge page, so populating it takes one fault
  /// instead of 512 and its slots need one TLB entry. Such a chunk is
  /// populated in full either way, so a huge page adds nothing to RSS. A
  /// chunk with any page left out keeps 4 KiB pages, and the pages it
  /// leaves out stay out of RSS.
  void prefault_homes(MappedArray& array, const Slot* old_slots,
                      std::size_t old_capacity) const {
    constexpr std::size_t kPageBytes = 4096;
    constexpr std::size_t kChunkPages = (std::size_t{2} << 20) / kPageBytes;
    const std::size_t pages = (array.bytes() + kPageBytes - 1) / kPageBytes;
    std::vector<bool> marked(pages);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (Traits::live(old_slots[i]))
        marked[home(Traits::hash(old_slots[i])) * sizeof(Slot) / kPageBytes] =
            true;
    }
    const auto base_page =
        reinterpret_cast<std::uintptr_t>(array.data()) / kPageBytes;
    for (std::size_t first = (kChunkPages - base_page % kChunkPages) %
                             kChunkPages;
         first + kChunkPages <= pages; first += kChunkPages) {
      const auto chunk = marked.begin() + static_cast<std::ptrdiff_t>(first);
      if (std::find(chunk, chunk + kChunkPages, false) == chunk + kChunkPages)
        array.advise_huge(first * kPageBytes, kChunkPages * kPageBytes);
    }
    for (std::size_t first = 0; first < pages;) {
      if (!marked[first]) {
        ++first;
        continue;
      }
      std::size_t last = first + 1;
      while (last < pages && marked[last]) ++last;
      array.populate(first * kPageBytes,
                     std::min(last * kPageBytes, array.bytes()) -
                         first * kPageBytes);
      first = last;
    }
  }

  MappedArray array_;
  Slot* slots_ = nullptr;
  /// The cold column: unmapped until enable_cold(), and then mapped
  /// exactly when the slot array is.
  MappedArray cold_array_;
  Cold* colds_ = nullptr;
  bool cold_enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace toka::service
