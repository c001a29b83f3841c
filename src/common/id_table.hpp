// Open-addressing hash table keyed by a 64-bit id: the message tables of the
// streaming layers (the windowed CLC's pairing state, the streaming scan's
// half-open endpoints).
//
// The slots sit in one flat power-of-two array, probed linearly from the
// Fibonacci hash of the id, so an entry costs no allocation of its own and a
// lookup usually touches one cache line.  Deletion shifts the rest of the
// probe chain back instead of leaving a tombstone, so a table that churns
// through millions of short-lived ids keeps chains as short as its current
// load, never its history.  The array starts empty and doubles past 3/4 load.
//
// The caller's slot type carries the key and the occupancy flag itself, so a
// compact slot pays no padding for them:
//
//   struct Slot { std::int64_t id; /* payload */ bool live; };
//
// A zero-filled or value-initialized Slot must have live == false; a new
// entry starts as Slot{} with `id` and `live` set, and the table never reads
// the payload of a dead slot.  Pointers returned by find() and insert() stay
// valid until the next insert() (which may grow the array) or erase() (which
// may shift entries into other slots).
//
// Arrays of kMapBytes and more are mapped straight from the kernel and
// unmapped when the table grows or is destroyed.  Through malloc they would
// raise glibc's dynamic mmap threshold on their first free, after which
// every later multi-megabyte table comes from the heap and stays resident
// when freed: a pipeline that runs the windowed CLC and then the streaming
// scan would hold both phases' peaks at once.  Growth also unmaps the old
// array a megabyte at a time as it re-places the entries, so the doubling
// step needs little more than the new array.  Mapped arrays ask for
// transparent huge pages.  (Operator-new allocation
// counters do not see the mapped arrays.)
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#define CHRONOSYNC_ID_TABLE_MMAP 1
#endif

namespace chronosync {

/// Multiplier of the id hash (2^64 / golden ratio).  The home slot of `id` in
/// a table of 2^b slots is the top b bits of id * kIdHashMultiplier.
inline constexpr std::uint64_t kIdHashMultiplier = 0x9e3779b97f4a7c15ULL;

template <class Slot>
class IdTable {
  static_assert(std::is_trivially_copyable_v<Slot>, "slots are moved by plain copies");

 public:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMapBytes = std::size_t{1} << 20;

  IdTable() = default;
  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;
  ~IdTable() { release(slots_, capacity()); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_ != nullptr ? mask_ + 1 : 0; }

  /// The entry of `id`, or nullptr.
  Slot* find(std::int64_t id) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (!s.live) return nullptr;
      if (s.id == id) return &s;
    }
  }

  /// Finds the entry of `id` or inserts a value-initialized one; the flag is
  /// true when the entry is new.
  std::pair<Slot*, bool> insert(std::int64_t id) {
    if (slots_ != nullptr) {
      std::size_t i = home(id);
      for (; slots_[i].live; i = (i + 1) & mask_) {
        if (slots_[i].id == id) return {&slots_[i], false};
      }
      if (size_ < grow_at_) return {&claim(i, id), true};
    }
    grow();
    return {&claim(free_slot(id), id), true};
  }

  /// Removes the entry at `s` (a live slot of this table) by shifting the
  /// rest of its probe chain back over the hole.
  void erase(Slot* s) {
    std::size_t hole = static_cast<std::size_t>(s - slots_);
    for (std::size_t j = (hole + 1) & mask_; slots_[j].live; j = (j + 1) & mask_) {
      // The entry at j may fill the hole unless its home lies cyclically
      // after the hole, in (hole, j].
      if (((j - home(slots_[j].id)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].live = false;
    --size_;
  }

  /// Calls `pred` once on every live entry and erases those it returns true
  /// for.  `pred` may act on the entry (and elsewhere) but not on this table.
  template <class Pred>
  void erase_if(Pred pred) {
    if (size_ == 0) return;
    // Start right after an empty slot: no probe chain crosses it, so every
    // entry a backward shift moves comes from a slot not yet visited and
    // lands at or after the current one.
    std::size_t start = 0;
    while (slots_[start].live) ++start;
    std::size_t i = (start + 1) & mask_;
    for (std::size_t left = mask_; left > 0;) {
      Slot& s = slots_[i];
      if (s.live && pred(s)) {
        erase(&s);  // an entry may have shifted into slot i: look again
        continue;
      }
      i = (i + 1) & mask_;
      --left;
    }
  }

 private:
  std::size_t home(std::int64_t id) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(id) * kIdHashMultiplier) >>
                                    shift_);
  }

  std::size_t free_slot(std::int64_t id) const {
    std::size_t i = home(id);
    while (slots_[i].live) i = (i + 1) & mask_;
    return i;
  }

  Slot& claim(std::size_t i, std::int64_t id) {
    Slot& s = slots_[i];
    s = Slot{};
    s.id = id;
    s.live = true;
    ++size_;
    return s;
  }

  void grow() {
    const std::size_t old_cap = capacity();
    const std::size_t cap = old_cap == 0 ? kMinCapacity : 2 * old_cap;
    Slot* old = std::exchange(slots_, allocate(cap));
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    grow_at_ = cap / 4 * 3;
#ifdef CHRONOSYNC_ID_TABLE_MMAP
    if (old_cap * sizeof(Slot) >= kMapBytes) {
      // Unmap each megabyte of the old array once its entries are re-placed;
      // the mapping is page-aligned and kMapBytes a multiple of the page.
      auto* bytes = reinterpret_cast<unsigned char*>(old);
      std::size_t unmapped = 0;
      for (std::size_t i = 0; i < old_cap; ++i) {
        if (old[i].live) slots_[free_slot(old[i].id)] = old[i];
        const std::size_t done = (i + 1) * sizeof(Slot) / kMapBytes * kMapBytes;
        if (done > unmapped) {
          ::munmap(bytes + unmapped, done - unmapped);
          unmapped = done;
        }
      }
      if (unmapped < old_cap * sizeof(Slot)) {
        ::munmap(bytes + unmapped, old_cap * sizeof(Slot) - unmapped);
      }
      return;
    }
#endif
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old[i].live) slots_[free_slot(old[i].id)] = old[i];
    }
    release(old, old_cap);
  }

  /// An array of `n` dead slots.
  static Slot* allocate(std::size_t n) {
#ifdef CHRONOSYNC_ID_TABLE_MMAP
    if (n * sizeof(Slot) >= kMapBytes) {
      void* p = ::mmap(nullptr, n * sizeof(Slot), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
      // Probes land anywhere in the array: with 4 KiB pages nearly every one
      // also misses the TLB.  A hint; the kernel may ignore it.
      ::madvise(p, n * sizeof(Slot), MADV_HUGEPAGE);
#endif
      return static_cast<Slot*>(p);  // zero-filled: every slot dead
    }
#endif
    return new Slot[n]();
  }

  static void release(Slot* p, std::size_t n) {
    if (p == nullptr) return;
#ifdef CHRONOSYNC_ID_TABLE_MMAP
    if (n * sizeof(Slot) >= kMapBytes) {
      ::munmap(p, n * sizeof(Slot));
      return;
    }
#endif
    delete[] p;
  }

  Slot* slots_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  std::size_t grow_at_ = 0;
  int shift_ = 64;
};

}  // namespace chronosync
