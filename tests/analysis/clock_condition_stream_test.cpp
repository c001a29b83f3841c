#include "analysis/clock_condition_stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "analysis/clock_condition.hpp"
#include "common/id_table.hpp"
#include "topology/cluster.hpp"
#include "trace/io_util.hpp"
#include "trace/otf_text.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_io_error.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

void expect_reports_equal(const ClockConditionReport& a, const ClockConditionReport& b) {
  EXPECT_EQ(a.p2p_messages, b.p2p_messages);
  EXPECT_EQ(a.p2p_reversed, b.p2p_reversed);
  EXPECT_EQ(a.p2p_violations, b.p2p_violations);
  EXPECT_DOUBLE_EQ(a.p2p_worst, b.p2p_worst);
  EXPECT_EQ(a.logical_messages, b.logical_messages);
  EXPECT_EQ(a.logical_reversed, b.logical_reversed);
  EXPECT_EQ(a.logical_violations, b.logical_violations);
  EXPECT_DOUBLE_EQ(a.logical_worst, b.logical_worst);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.message_events, b.message_events);
}

TEST(ClockConditionStream, RealWorkloadStreamedEqualsInMemory) {
  // A sweep run produces a trace with real message and collective traffic.
  SweepConfig cfg;
  cfg.rounds = 30;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 5;
  AppRunResult res = run_sweep(cfg, std::move(job));

  std::stringstream buf;
  write_trace_v2(res.trace, buf, /*events_per_chunk=*/64);
  TraceReader reader(buf);
  const auto streamed = scan_clock_condition(reader);
  const auto in_memory =
      check_clock_condition(res.trace, TimestampArray::from_local(res.trace));
  EXPECT_GT(streamed.p2p_messages, 0u);
  expect_reports_equal(streamed, in_memory);
}

TEST(ClockConditionStream, V2FileIsScannedStreamed) {
  const std::string path = testing::TempDir() + "/cs_ccstream_v2.bin";
  const Trace t = testutil::random_trace(9);
  write_trace_v2_file(t, path);
  const auto streamed = scan_clock_condition_file(path);
  const auto in_memory = check_clock_condition(t, TimestampArray::from_local(t));
  expect_reports_equal(streamed, in_memory);
  std::remove(path.c_str());
}

TEST(ClockConditionStream, V1FileFallsBackToInMemoryLoad) {
  const std::string path = testing::TempDir() + "/cs_ccstream_v1.bin";
  const Trace t = testutil::random_trace(10);
  write_trace_file(t, path);  // legacy v1 container
  const auto scanned = scan_clock_condition_file(path);
  const auto in_memory = check_clock_condition(t, TimestampArray::from_local(t));
  expect_reports_equal(scanned, in_memory);
  std::remove(path.c_str());
}

TEST(ClockConditionStream, BacklogHighWaterTracksPairDistanceNotMessageCount) {
  // Chain traffic: rank r sends kMsgs messages to rank r+1.  Each rank's
  // receives (retiring the previous hop) come before its sends (opening the
  // next hop), so while the completed-message total grows with every hop, at
  // most one hop's worth of entries is ever half-open.  Before messages were
  // erased eagerly, the map high-water equaled the total message count.
  constexpr int kRanks = 4;
  constexpr std::size_t kMsgs = 10;
  Trace t(pinning::block(clusters::xeon_rwth(), kRanks), {1e-7, 1e-6, 5e-6}, "chain");
  for (Rank r = 0; r < kRanks; ++r) {
    Time now = 1.0 + r;
    for (std::size_t i = 0; r > 0 && i < kMsgs; ++i) {
      Event e;
      e.type = EventType::Recv;
      e.peer = r - 1;
      e.msg_id = 1000 * (r - 1) + static_cast<std::int64_t>(i);
      e.local_ts = e.true_ts = now += 1e-4;
      t.events(r).push_back(e);
    }
    for (std::size_t i = 0; r + 1 < kRanks && i < kMsgs; ++i) {
      Event e;
      e.type = EventType::Send;
      e.peer = r + 1;
      e.msg_id = 1000 * r + static_cast<std::int64_t>(i);
      e.local_ts = e.true_ts = now += 1e-4;
      t.events(r).push_back(e);
    }
  }

  std::stringstream buf;
  write_trace_v2(t, buf);
  TraceReader reader(buf);
  ScanStats stats;
  const auto rep = scan_clock_condition(reader, &stats);
  EXPECT_EQ(rep.p2p_messages, (kRanks - 1) * kMsgs);
  EXPECT_EQ(stats.peak_outstanding_messages, kMsgs);
}

TEST(ClockConditionStream, PipeFedStreamsScanWithoutSeeking) {
  // A PrefixedStreambuf does not support seeking, like a pipe: dispatch must
  // sniff the header without tellg/seekg on any of the three formats.
  const Trace t = testutil::random_trace(12);

  std::stringstream v2;
  write_trace_v2(t, v2);
  traceio::PrefixedStreambuf v2_pipe("", v2);
  std::istream v2_in(&v2_pipe);
  const auto in_memory = check_clock_condition(t, TimestampArray::from_local(t));
  expect_reports_equal(scan_clock_condition(v2_in), in_memory);

  std::stringstream text;
  write_text_trace(t, text);
  traceio::PrefixedStreambuf text_pipe("", text);
  std::istream text_in(&text_pipe);
  expect_reports_equal(scan_clock_condition(text_in), in_memory);

  std::stringstream v1;
  write_trace(t, v1);
  traceio::PrefixedStreambuf v1_pipe("", v1);
  std::istream v1_in(&v1_pipe);
  expect_reports_equal(scan_clock_condition(v1_in), in_memory);
}

TEST(ClockConditionStream, TinyTextTraceScansFromFile) {
  // An event-free text trace is barely larger than the 8-byte sniff window;
  // the dispatcher used to reject anything it could not re-read from the
  // start.  It must reach the text reader and return an all-zero report.
  const std::string path = testing::TempDir() + "/cs_ccstream_tiny.txt";
  {
    std::ofstream f(path);
    f << "CSTXT 1\nTIMER t\nLATENCY 1e-7 1e-6 5e-6\nRANK 0 0 0 0\n";
  }
  const auto rep = scan_clock_condition_file(path);
  EXPECT_EQ(rep.total_events, 0u);
  EXPECT_EQ(rep.p2p_messages, 0u);
  std::remove(path.c_str());

  // Sub-8-byte files are no longer misreported as truncated v2 containers:
  // the text reader sees them from offset zero and reports its own error.
  const std::string bad = testing::TempDir() + "/cs_ccstream_bad.txt";
  {
    std::ofstream f(bad);
    f << "CSTXT";
  }
  try {
    scan_clock_condition_file(bad);
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_NE(e.kind(), TraceIoErrorKind::Truncated) << e.what();
  }
  std::remove(bad.c_str());
}

TEST(ClockConditionStream, DuplicateRootEventsAgreeWithInMemory) {
  // Malformed instances where the root rank recorded its collective twice:
  // both the streamed scanner and derive_logical_messages must pick the same
  // representative (the first recorded root event), so the reports agree.
  Trace t(pinning::block(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "dup-root");
  auto ev = [](EventType type, CollectiveKind kind, std::int64_t id, Time ts) {
    Event e;
    e.type = type;
    e.coll = kind;
    e.coll_id = id;
    e.root = 0;
    e.local_ts = e.true_ts = ts;
    return e;
  };
  // Bcast (OneToN), root begin duplicated: first-match begin at t=5.0 makes
  // both non-root ends (2.0, 2.5) reversed; last-wins (t=1.0) would make
  // neither.  Counts stay balanced (4 begins, 4 ends) so it is not partial.
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Bcast, 1, 5.0));
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Bcast, 1, 5.5));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Bcast, 1, 5.6));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Bcast, 1, 5.7));
  // Reduce (NToOne), root end duplicated: first-match end at t=6.5 precedes
  // the non-root begins (7.0), so both edges are reversed; last-wins (9.0)
  // would accept them.
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Reduce, 2, 6.0));
  t.events(0).push_back(ev(EventType::CollBegin, CollectiveKind::Reduce, 2, 6.1));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Reduce, 2, 6.5));
  t.events(0).push_back(ev(EventType::CollEnd, CollectiveKind::Reduce, 2, 9.0));
  for (Rank r = 1; r < 3; ++r) {
    t.events(r).push_back(ev(EventType::CollBegin, CollectiveKind::Bcast, 1, 1.0));
    t.events(r).push_back(ev(EventType::CollEnd, CollectiveKind::Bcast, 1, 2.0 + 0.5 * r));
    t.events(r).push_back(ev(EventType::CollBegin, CollectiveKind::Reduce, 2, 7.0));
    t.events(r).push_back(ev(EventType::CollEnd, CollectiveKind::Reduce, 2, 7.5));
  }

  std::stringstream buf;
  write_trace_v2(t, buf);
  TraceReader reader(buf);
  const auto streamed = scan_clock_condition(reader);
  const auto in_memory = check_clock_condition(t, TimestampArray::from_local(t));
  expect_reports_equal(streamed, in_memory);
  // Pins first-match: the late duplicates would yield zero reversed edges.
  EXPECT_EQ(streamed.logical_reversed, 4u);
}

/// Rewrites the msg_id of every Send/Recv of `t` to `to_id(v)`, where v
/// names one of `per_rank` ids owned by a rank: a send takes an id of its own
/// rank, a receive one of another rank (or of no rank, which stays
/// half-open).  Ids repeat freely, but a send never pairs with a receive of
/// its own rank, which has no latency.
template <class F>
void remap_ids(Trace& t, Rng& rng, std::int64_t per_rank, F to_id) {
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (Event& e : t.events(r)) {
      if (e.type != EventType::Send && e.type != EventType::Recv) continue;
      std::int64_t owner = r;
      if (e.type == EventType::Recv) {
        owner = rng.uniform_int(0, t.ranks() - 1);
        if (owner == r) owner = t.ranks();
      }
      e.msg_id = to_id(static_cast<std::uint64_t>(owner * per_rank +
                                                  rng.uniform_int(0, per_rank - 1)));
    }
  }
}

/// The backlog high-water of the online last-wins rule, replayed over the
/// trace's rank-major order with a std::map.
std::size_t reference_peak_backlog(const Trace& t) {
  std::map<std::int64_t, bool> half_open;  // id -> the waiting side is a send
  std::size_t peak = 0;
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (const Event& e : t.events(r)) {
      if (e.type != EventType::Send && e.type != EventType::Recv) continue;
      const bool is_send = e.type == EventType::Send;
      auto it = half_open.find(e.msg_id);
      if (it != half_open.end() && it->second != is_send) {
        half_open.erase(it);
        continue;
      }
      half_open[e.msg_id] = is_send;
      peak = std::max(peak, half_open.size());
    }
  }
  return peak;
}

/// scan_clock_condition against check_clock_condition, bit for bit, plus
/// the scanner's backlog high-water against the std::map replay.
void expect_scan_equals_in_memory(const Trace& t, const std::string& what) {
  std::stringstream buf;
  write_trace_v2(t, buf, /*events_per_chunk=*/7);
  TraceReader reader(buf);
  ScanStats stats;
  const auto got = scan_clock_condition(reader, &stats);
  const auto want = check_clock_condition(t, TimestampArray::from_local(t));
  EXPECT_EQ(got.p2p_messages, want.p2p_messages) << what;
  EXPECT_EQ(got.p2p_reversed, want.p2p_reversed) << what;
  EXPECT_EQ(got.p2p_violations, want.p2p_violations) << what;
  EXPECT_TRUE(testutil::same_bits(got.p2p_worst, want.p2p_worst)) << what;
  EXPECT_EQ(got.logical_messages, want.logical_messages) << what;
  EXPECT_EQ(got.logical_reversed, want.logical_reversed) << what;
  EXPECT_EQ(got.logical_violations, want.logical_violations) << what;
  EXPECT_TRUE(testutil::same_bits(got.logical_worst, want.logical_worst)) << what;
  EXPECT_EQ(got.total_events, want.total_events) << what;
  EXPECT_EQ(got.message_events, want.message_events) << what;
  EXPECT_EQ(stats.peak_outstanding_messages, reference_peak_backlog(t)) << what;
}

/// An id whose hashed value is `(top << 40) | low`, so ids with one `top`
/// share a home slot in any message table of up to 2^24 slots.
std::int64_t id_on_chain(std::uint64_t top, std::uint64_t low) {
  std::uint64_t inv = kIdHashMultiplier;  // Newton: inverse mod 2^64
  for (int i = 0; i < 5; ++i) inv *= 2 - kIdHashMultiplier * inv;
  return static_cast<std::int64_t>(((top << 40) | low) * inv);
}

TEST(ClockConditionStream, EqualsInMemoryOnRemappedRandomTraces) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  bool saw_reuse = false;
  bool saw_half_open = false;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::string tag = "seed " + std::to_string(seed);
    Rng rng(seed ^ 0x5bd1e995ULL);

    const Trace plain = testutil::random_trace(seed);
    expect_scan_equals_in_memory(plain, tag + " (generated ids)");
    const auto plain_rep = check_clock_condition(plain, TimestampArray::from_local(plain));
    std::size_t endpoints = 0;
    for (Rank r = 0; r < plain.ranks(); ++r) {
      for (const Event& e : plain.events(r)) {
        endpoints += e.type == EventType::Send || e.type == EventType::Recv;
      }
    }
    saw_half_open |= 2 * plain_rep.p2p_messages < endpoints;

    // Two ids per rank: duplicates overwrite while half-open, and ids come
    // back after their pair completed.
    Trace pooled = plain;
    remap_ids(pooled, rng, 2, [](std::uint64_t v) { return static_cast<std::int64_t>(v); });
    expect_scan_equals_in_memory(pooled, tag + " (two ids per rank)");
    saw_reuse |= check_clock_condition(pooled, TimestampArray::from_local(pooled)).p2p_messages >
                 2 * static_cast<std::size_t>(pooled.ranks());

    // Ids at both int64 ends and around zero.
    Trace extreme = plain;
    remap_ids(extreme, rng, 3, [&](std::uint64_t v) {
      const auto k = static_cast<std::int64_t>(v / 3);
      return v % 3 == 0 ? kMin + k : v % 3 == 1 ? kMax - k : k - 2;
    });
    expect_scan_equals_in_memory(extreme, tag + " (int64 ends)");

    // Every id on one probe chain: the generated pairing structure, and
    // three ids per rank.
    Trace chained = plain;
    std::map<std::int64_t, std::uint64_t> index;
    for (Rank r = 0; r < chained.ranks(); ++r) {
      for (Event& e : chained.events(r)) {
        if (e.type != EventType::Send && e.type != EventType::Recv) continue;
        e.msg_id = id_on_chain(seed % 8, index.emplace(e.msg_id, index.size()).first->second);
      }
    }
    expect_scan_equals_in_memory(chained, tag + " (generated ids on one probe chain)");
    Trace chained_pool = plain;
    remap_ids(chained_pool, rng, 3, [&](std::uint64_t v) { return id_on_chain(seed % 8, v); });
    expect_scan_equals_in_memory(chained_pool, tag + " (pooled ids on one probe chain)");

    // Arbitrary 64-bit ids, four per rank.
    std::vector<std::int64_t> wide_ids;
    for (int i = 0; i < 4 * 7; ++i) wide_ids.push_back(static_cast<std::int64_t>(rng.next()));
    Trace wide = plain;
    remap_ids(wide, rng, 4, [&](std::uint64_t v) { return wide_ids[v]; });
    expect_scan_equals_in_memory(wide, tag + " (full-range ids)");
  }
  EXPECT_TRUE(saw_reuse) << "no trace reused an id after its pair completed";
  EXPECT_TRUE(saw_half_open) << "no trace left a half-open endpoint";
}

TEST(ClockConditionStream, MissingFileThrowsIoError) {
  try {
    scan_clock_condition_file("/nonexistent/path/stream.bin");
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Io);
  }
}

}  // namespace
}  // namespace chronosync
