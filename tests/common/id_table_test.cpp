// IdTable against std::unordered_map, and the probe-chain cases that a
// random workload rarely reaches: deletion across the array's wrap-around,
// growth with entries live, erase-while-iterating over wrapped chains, the
// int64 range ends and the directly mapped large-array path.
#include "common/id_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace chronosync {
namespace {

struct Slot {
  std::int64_t id = 0;
  std::int64_t value = -1;  // a new entry must start from Slot{}
  bool live = false;
};

using Table = IdTable<Slot>;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Multiplicative inverse of the hash multiplier mod 2^64 (Newton's
/// iteration; each step doubles the number of correct low bits).
std::uint64_t inverse_multiplier() {
  std::uint64_t inv = kIdHashMultiplier;  // correct to 3 bits: odd * odd == 1 mod 8
  for (int i = 0; i < 5; ++i) inv *= 2 - kIdHashMultiplier * inv;
  return inv;
}

/// An id whose hashed value is `(top << 40) | low`: every id with the same
/// `top` has the same home slot in any table of up to 2^24 slots.
std::int64_t id_hashing_to(std::uint64_t top, std::uint64_t low) {
  return static_cast<std::int64_t>(((top << 40) | low) * inverse_multiplier());
}

/// An id whose home slot is `home` in a table of kMinCapacity slots.
std::int64_t id_with_home(std::uint64_t home, std::uint64_t low) {
  return id_hashing_to(home << 20, low);
}

/// Every entry of `want` is found with its value, and the sizes agree.
void expect_matches(Table& t, const std::unordered_map<std::int64_t, std::int64_t>& want,
                    const char* what) {
  ASSERT_EQ(t.size(), want.size()) << what;
  for (const auto& [id, value] : want) {
    const Slot* s = t.find(id);
    ASSERT_NE(s, nullptr) << what << ": id " << id << " lost";
    EXPECT_EQ(s->id, id) << what;
    EXPECT_EQ(s->value, value) << what << ": id " << id;
  }
}

TEST(IdTable, InverseMultiplierBuildsCollidingIds) {
  EXPECT_EQ(kIdHashMultiplier * inverse_multiplier(), 1u);
  Table t;
  for (std::uint64_t j = 0; j < 8; ++j) t.insert(id_with_home(5, j));
  EXPECT_EQ(t.capacity(), Table::kMinCapacity);
  for (std::uint64_t j = 0; j < 8; ++j) EXPECT_NE(t.find(id_with_home(5, j)), nullptr);
}

TEST(IdTable, StartsEmptyAndAllocatesLazily) {
  Table t;
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.find(0), nullptr);
  t.erase_if([](Slot&) { return true; });
  auto [s, fresh] = t.insert(kMin);
  ASSERT_TRUE(fresh);
  EXPECT_EQ(s->id, kMin);
  EXPECT_EQ(s->value, -1);
  EXPECT_EQ(t.capacity(), Table::kMinCapacity);
}

TEST(IdTable, InsertFindsExistingEntries) {
  Table t;
  for (const std::int64_t id : {kMin, kMin + 1, std::int64_t{-1}, std::int64_t{0},
                                std::int64_t{1}, kMax - 1, kMax}) {
    auto [s, fresh] = t.insert(id);
    ASSERT_TRUE(fresh) << id;
    s->value = id / 2;
  }
  for (const std::int64_t id : {kMin, std::int64_t{0}, kMax}) {
    auto [s, fresh] = t.insert(id);
    EXPECT_FALSE(fresh) << id;
    EXPECT_EQ(s->value, id / 2);
  }
  EXPECT_EQ(t.size(), 7u);
  t.erase(t.find(kMax));
  EXPECT_EQ(t.find(kMax), nullptr);
  auto [s, fresh] = t.insert(kMax);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(s->value, -1) << "a reinserted id must not see its old payload";
}

TEST(IdTable, DeletionAcrossTheWrapAround) {
  // A chain homed in the last slot wraps to the front, and an entry homed in
  // slot 0 queues behind it.  Erasing the chain's head must shift both wrapped
  // entries back, and must not move the slot-0 entry in front of its home.
  const std::int64_t a = id_with_home(15, 1);
  const std::int64_t b = id_with_home(15, 2);  // lands in slot 0
  const std::int64_t c = id_with_home(15, 3);  // slot 1
  const std::int64_t d = id_with_home(0, 4);   // home 0, lands in slot 2
  const std::int64_t e = id_with_home(1, 5);   // home 1, lands in slot 3
  for (const std::int64_t order : {0, 1, 2, 3, 4}) {
    Table t;
    std::unordered_map<std::int64_t, std::int64_t> want;
    for (const std::int64_t id : {a, b, c, d, e}) {
      t.insert(id).first->value = id % 1000;
      want[id] = id % 1000;
    }
    ASSERT_EQ(t.capacity(), 16u);
    const std::int64_t victim = std::vector<std::int64_t>{a, b, c, d, e}[order];
    t.erase(t.find(victim));
    want.erase(victim);
    expect_matches(t, want, "after one erase");
    // Drain the rest in another order; every step must leave the others
    // reachable.
    for (const std::int64_t id : {e, c, a, d, b}) {
      if (id == victim) continue;
      t.erase(t.find(id));
      want.erase(id);
      expect_matches(t, want, "while draining");
    }
    EXPECT_TRUE(t.empty());
  }
}

TEST(IdTable, GrowthWhileEntriesAreLive) {
  Table t;
  std::unordered_map<std::int64_t, std::int64_t> want;
  Rng rng(41);
  std::size_t last_cap = 0;
  int growths = 0;
  for (int i = 0; i < 6000; ++i) {
    // One id in eight shares a single home (in any table of up to 2^24
    // slots), so growth re-places a long chain, not only scattered entries.
    const std::int64_t id = rng.bernoulli(0.125)
                                ? id_hashing_to(77, static_cast<std::uint64_t>(i))
                                : static_cast<std::int64_t>(rng.next());
    t.insert(id).first->value = i;
    want[id] = i;
    if (i % 3 == 0) {  // erase a live entry now and then
      const std::int64_t gone = want.begin()->first;
      t.erase(t.find(gone));
      want.erase(gone);
    }
    if (t.capacity() != last_cap) {
      ++growths;
      last_cap = t.capacity();
      expect_matches(t, want, "right after growth");
    }
  }
  EXPECT_GE(growths, 10);
  expect_matches(t, want, "at the end");
  EXPECT_LE(t.size() * 4, t.capacity() * 3) << "load stays at or below 3/4";
}

TEST(IdTable, EraseIfVisitsEveryEntryOnceAcrossWrappedChains) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Table t;
    std::unordered_map<std::int64_t, std::int64_t> want;
    Rng rng(seed);
    // Chains homed near the end of the array wrap around; a few homes in
    // front of them interleave.
    const int n = static_cast<int>(rng.uniform_int(1, 11));
    for (int i = 0; i < n; ++i) {
      const auto home = static_cast<std::uint64_t>(rng.uniform_int(0, 15) >= 6
                                                       ? rng.uniform_int(13, 15)
                                                       : rng.uniform_int(0, 2));
      const std::int64_t id = id_with_home(home, static_cast<std::uint64_t>(i));
      t.insert(id).first->value = i;
      want[id] = i;
    }
    ASSERT_EQ(t.capacity(), 16u);
    std::map<std::int64_t, int> visits;
    t.erase_if([&](Slot& s) {
      ++visits[s.id];
      return s.value % 2 == static_cast<std::int64_t>(seed % 2);
    });
    ASSERT_EQ(visits.size(), want.size()) << "seed " << seed;
    for (const auto& [id, count] : visits) EXPECT_EQ(count, 1) << "seed " << seed;
    std::erase_if(want, [&](const auto& kv) {
      return kv.second % 2 == static_cast<std::int64_t>(seed % 2);
    });
    expect_matches(t, want, "after erase_if");
  }
}

TEST(IdTable, MatchesUnorderedMapUnderRandomChurn) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Table t;
    std::unordered_map<std::int64_t, std::int64_t> want;
    Rng rng(seed * 7 + 1);
    // A small id pool keeps the table churning through reuse.
    std::vector<std::int64_t> pool;
    for (int i = 0; i < 64; ++i) {
      pool.push_back(i % 4 == 0 ? id_hashing_to(3, static_cast<std::uint64_t>(i))
                                : static_cast<std::int64_t>(rng.next()));
    }
    pool.push_back(kMin);
    pool.push_back(kMax);
    for (int step = 0; step < 5000; ++step) {
      const std::int64_t id =
          pool[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const int op = static_cast<int>(rng.uniform_int(0, 3));
      if (op <= 1) {
        auto [s, fresh] = t.insert(id);
        EXPECT_EQ(fresh, want.count(id) == 0);
        s->value = step;
        want[id] = step;
      } else if (op == 2) {
        Slot* s = t.find(id);
        ASSERT_EQ(s != nullptr, want.count(id) == 1);
        if (s != nullptr) {
          t.erase(s);
          want.erase(id);
        }
      } else {
        const std::int64_t cut = step % 7;
        t.erase_if([&](Slot& s) { return s.value % 7 == cut; });
        std::erase_if(want, [&](const auto& kv) { return kv.second % 7 == cut; });
      }
    }
    expect_matches(t, want, "after churn");
  }
}

TEST(IdTable, LargeTablesRoundTrip) {
  // Past IdTable::kMapBytes the array comes straight from the kernel; it must
  // start dead and survive growth and erasure like a small one.
  Table t;
  std::unordered_map<std::int64_t, std::int64_t> want;
  const std::size_t n = 3 * Table::kMapBytes / sizeof(Slot) / 4 + 1000;
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::int64_t>(i * 2654435761u);
    t.insert(id).first->value = static_cast<std::int64_t>(i);
    want[id] = static_cast<std::int64_t>(i);
  }
  ASSERT_GE(t.capacity() * sizeof(Slot), Table::kMapBytes);
  t.erase_if([](Slot& s) { return s.value % 3 == 0; });
  std::erase_if(want, [](const auto& kv) { return kv.second % 3 == 0; });
  expect_matches(t, want, "large table");
  const std::int64_t gone = want.begin()->first;
  t.erase(t.find(gone));
  EXPECT_EQ(t.insert(gone).first->value, -1);
}

TEST(IdTable, PrefetchIsHarmless) {
  // prefetch() is only a cache hint on the home slot: on an empty table (no
  // array yet), across growth (mapped arrays included) and after erasures
  // it must neither touch memory the table does not own — the sanitizer
  // build checks that — nor change what the table holds.
  Table t;
  for (const std::int64_t id : {kMin, std::int64_t{0}, kMax}) t.prefetch(id);
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_TRUE(t.empty());

  std::unordered_map<std::int64_t, std::int64_t> want;
  const std::size_t n = Table::kMapBytes / sizeof(Slot);  // grows past kMapBytes
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<std::int64_t>(i * 2654435761u) - 12345;
    t.prefetch(id);
    t.prefetch(id + 1);  // an id that is never inserted
    t.insert(id).first->value = static_cast<std::int64_t>(i);
    want[id] = static_cast<std::int64_t>(i);
  }
  ASSERT_GE(t.capacity() * sizeof(Slot), Table::kMapBytes);
  expect_matches(t, want, "after growth with prefetches");

  t.erase_if([](Slot& s) { return s.value % 2 == 0; });
  std::erase_if(want, [](const auto& kv) { return kv.second % 2 == 0; });
  for (std::size_t i = 0; i < n; ++i) {
    t.prefetch(static_cast<std::int64_t>(i * 2654435761u) - 12345);
  }
  for (const std::int64_t id : {kMin, kMax}) t.prefetch(id);
  expect_matches(t, want, "after erasures with prefetches");
}

}  // namespace
}  // namespace chronosync
