// Trace::match_messages against the std::map reference join, field for
// field, on random traces whose message ids are remapped to stress the
// radix sort and the online rule: duplicates, half-open endpoints, ids
// reused after retirement, negative ids and the int64 range ends.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "../testutil/reference_join.hpp"

namespace chronosync {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Rewrites every Send/Recv msg_id of `t` through `remap`.
template <class F>
void remap_ids(Trace& t, F remap) {
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (Event& e : t.events(r)) {
      if (e.type == EventType::Send || e.type == EventType::Recv) e.msg_id = remap(e.msg_id);
    }
  }
}

void expect_same_join(const Trace& t, const std::string& what) {
  const auto want = testutil::reference_match_messages(t);
  const auto got = t.match_messages();
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].send, want[i].send) << what << " record " << i;
    EXPECT_EQ(got[i].recv, want[i].recv) << what << " record " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << what << " record " << i;
    EXPECT_EQ(got[i].tag, want[i].tag) << what << " record " << i;
  }
}

std::size_t endpoints(const Trace& t) {
  std::size_t n = 0;
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (const Event& e : t.events(r)) {
      n += e.type == EventType::Send || e.type == EventType::Recv;
    }
  }
  return n;
}

/// True when some id completes more than one pair.
bool has_reused_id(const Trace& t, const std::vector<MessageRecord>& msgs) {
  for (std::size_t i = 1; i < msgs.size(); ++i) {
    if (t.at(msgs[i].send).msg_id == t.at(msgs[i - 1].send).msg_id) return true;
  }
  return false;
}

TEST(MatchMessages, EmptyTraces) {
  EXPECT_TRUE(Trace().match_messages().empty());
  Trace no_messages = testutil::random_trace(3);
  for (Rank r = 0; r < no_messages.ranks(); ++r) {
    auto& ev = no_messages.events(r);
    std::erase_if(ev, [](const Event& e) {
      return e.type == EventType::Send || e.type == EventType::Recv;
    });
  }
  EXPECT_TRUE(no_messages.match_messages().empty());
}

TEST(MatchMessages, EqualsReferenceJoinOnRemappedRandomTraces) {
  static constexpr std::int64_t kExtremes[] = {
      kMin, kMin + 1, -2049, -2048, -1, 0, 1, 2047, 2048, (1LL << 22) - 1, kMax - 1, kMax,
  };
  constexpr std::size_t kNumExtremes = sizeof(kExtremes) / sizeof(kExtremes[0]);
  bool saw_reuse = false;
  bool saw_half_open = false;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);

    Trace plain = testutil::random_trace(seed);
    expect_same_join(plain, tag + " (generated ids)");
    saw_half_open |= 2 * plain.match_messages().size() < endpoints(plain);

    // A pool of four ids: heavy duplication, overwrites while half-open and
    // reuse after retirement.
    Trace pooled = plain;
    remap_ids(pooled, [&](std::int64_t) { return rng.uniform_int(-2, 1); });
    expect_same_join(pooled, tag + " (four-id pool)");
    saw_reuse |= has_reused_id(pooled, pooled.match_messages());

    // Ids at the int64 ends and at radix digit boundaries: six digit passes.
    Trace extreme = plain;
    remap_ids(extreme, [&](std::int64_t) {
      return kExtremes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kNumExtremes) - 1))];
    });
    expect_same_join(extreme, tag + " (extreme ids)");

    // Dense negative ids: the generated structure, shifted below zero.
    Trace shifted = plain;
    remap_ids(shifted, [](std::int64_t id) { return id - (1LL << 40); });
    expect_same_join(shifted, tag + " (negative ids)");

    // Arbitrary 64-bit patterns, each id reused with probability 1/2.
    Trace wide = plain;
    std::vector<std::int64_t> used;
    remap_ids(wide, [&](std::int64_t) {
      if (!used.empty() && rng.bernoulli(0.5)) {
        return used[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(used.size()) - 1))];
      }
      used.push_back(static_cast<std::int64_t>(rng.next()));
      return used.back();
    });
    expect_same_join(wide, tag + " (full-range ids)");
  }
  EXPECT_TRUE(saw_reuse) << "no trace reused an id after retirement";
  EXPECT_TRUE(saw_half_open) << "no trace left a half-open endpoint";
}

TEST(MatchMessages, OnlyExtremeIds) {
  // One pair at each int64 end: the key range is the full 64 bits.
  Trace t = testutil::random_trace(11);
  ASSERT_GE(t.ranks(), 1);
  Event s;
  s.type = EventType::Send;
  s.bytes = 8;
  s.tag = 3;
  Event r = s;
  r.type = EventType::Recv;
  for (Rank k = 0; k < t.ranks(); ++k) t.events(k).clear();
  for (const std::int64_t id : {kMax, kMin}) {
    s.msg_id = r.msg_id = id;
    t.events(0).push_back(s);
    t.events(t.ranks() - 1).push_back(r);
  }
  const auto msgs = t.match_messages();
  expect_same_join(t, "int64 ends");
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(t.at(msgs[0].send).msg_id, kMin);
  EXPECT_EQ(t.at(msgs[1].send).msg_id, kMax);
}

}  // namespace
}  // namespace chronosync
