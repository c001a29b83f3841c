#include "sync/clc_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "analysis/clock_condition_stream.hpp"
#include "benchkit/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc.hpp"
#include "sync/replay.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io_error.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

/// A trace with real message + collective traffic and genuine clock-condition
/// violations (TSC drift across nodes).
Trace sweep_fixture(std::uint64_t seed, int rounds = 30) {
  SweepConfig cfg;
  cfg.rounds = rounds;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job)).trace;
}

/// Turns every fifth receive into a local event: its send stays half-open
/// for good, which is what the message table spills.
void drop_every_fifth_receive(Trace& t) {
  std::size_t receives = 0;
  for (Rank r = 0; r < t.ranks(); ++r) {
    for (Event& e : t.events(r)) {
      if (e.type != EventType::Recv || receives++ % 5 != 0) continue;
      e.type = EventType::Enter;
      e.msg_id = -1;
      e.peer = -1;
    }
  }
}

ClcResult in_memory_clc(const Trace& t, const ClcOptions& opt) {
  const auto messages = t.match_messages();
  const auto logical = derive_logical_messages(t);
  const ReplaySchedule schedule(t, messages, logical);
  return controlled_logical_clock(t, schedule, TimestampArray::from_local(t), opt);
}

void expect_bit_identical(const Trace& trace, const std::string& out_path,
                          const StreamClcStats& stats, const ClcResult& mem) {
  EXPECT_EQ(stats.ramp_clamped, 0u);
  EXPECT_EQ(stats.horizon_dropped, 0u);
  EXPECT_EQ(stats.forced, 0u);
  EXPECT_EQ(stats.violations_repaired, mem.violations_repaired);
  EXPECT_TRUE(testutil::same_bits(stats.max_jump, mem.max_jump));
  EXPECT_TRUE(testutil::same_bits(stats.total_jump, mem.total_jump));

  const Trace out = read_trace_v2_file(out_path);
  ASSERT_EQ(out.ranks(), trace.ranks());
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto& in_ev = trace.events(r);
    const auto& out_ev = out.events(r);
    ASSERT_EQ(out_ev.size(), in_ev.size()) << "rank " << r;
    const auto& lc = mem.corrected.of_rank(r);
    for (std::size_t i = 0; i < in_ev.size(); ++i) {
      ASSERT_TRUE(testutil::same_bits(out_ev[i].local_ts, lc[i]))
          << "rank " << r << " event " << i << ": " << out_ev[i].local_ts << " vs " << lc[i];
      ASSERT_TRUE(testutil::same_bits(out_ev[i].true_ts, in_ev[i].true_ts))
          << "true_ts must survive untouched";
      ASSERT_EQ(out_ev[i].type, in_ev[i].type);
      ASSERT_EQ(out_ev[i].msg_id, in_ev[i].msg_id);
    }
  }
}

TEST(ClcStream, SweepWorkloadBitIdenticalToInMemory) {
  const Trace trace = sweep_fixture(5);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_out.cstr";
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);

  StreamClcOptions opt;
  opt.emit_batch = 32;       // many interim sweeps, small retention
  opt.backward_window = 1e3;  // larger than any ramp: no clamping, bit-exact
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);

  EXPECT_EQ(stats.events, trace.total_events());
  EXPECT_GT(stats.p2p_edges, 0u);
  EXPECT_GT(stats.violations_repaired, 0u);
  expect_bit_identical(trace, out_path, stats, in_memory_clc(trace, opt.clc));
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, EmitBatchingDoesNotChangeTheOutput) {
  const Trace trace = sweep_fixture(11, /*rounds=*/20);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_batch_in.cstr";
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/48);

  StreamClcOptions tiny;
  tiny.emit_batch = 4;         // sweep after nearly every event
  tiny.backward_window = 1e-3;  // small window: entries become final early
  StreamClcOptions huge;
  huge.emit_batch = std::size_t{1} << 20;  // one final sweep only
  huge.backward_window = 1e-3;
  const std::string out_a = testing::TempDir() + "/cs_clcstream_batch_a.cstr";
  const std::string out_b = testing::TempDir() + "/cs_clcstream_batch_b.cstr";
  const StreamClcStats sa = clc_stream_file(in_path, out_a, tiny);
  const StreamClcStats sb = clc_stream_file(in_path, out_b, huge);

  EXPECT_EQ(sa.violations_repaired, sb.violations_repaired);
  EXPECT_TRUE(testutil::traces_equal(read_trace_v2_file(out_a), read_trace_v2_file(out_b)));
  // The tiny batch must actually have bounded the window.
  EXPECT_LT(sa.peak_resident_events, sb.peak_resident_events);
  std::remove(in_path.c_str());
  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
}

TEST(ClcStream, BackwardAmortizationOffMatchesInMemory) {
  const Trace trace = sweep_fixture(7, /*rounds=*/15);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_ba_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_ba_out.cstr";
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);

  StreamClcOptions opt;
  opt.clc.backward_amortization = false;
  opt.emit_batch = 16;
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);
  expect_bit_identical(trace, out_path, stats, in_memory_clc(trace, opt.clc));
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, ClampedRampStillRepairsEveryViolation) {
  const Trace trace = sweep_fixture(3);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_clamp_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_clamp_out.cstr";
  write_trace_v2_file(trace, in_path);

  StreamClcOptions opt;
  opt.backward_window = 1e-9;  // far smaller than any jump's natural ramp
  opt.emit_batch = 16;
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);
  EXPECT_GT(stats.violations_repaired, 0u);
  EXPECT_GT(stats.ramp_clamped, 0u);  // divergence is declared, not silent

  // Even with the ramps clamped, the corrected trace must satisfy the clock
  // condition: amortization never un-repairs a violation.
  const auto rep = scan_clock_condition_file(out_path);
  EXPECT_EQ(rep.p2p_violations, 0u);
  EXPECT_EQ(rep.logical_violations, 0u);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, SpilledMessagesStayBitIdentical) {
  // Once the read frontier is a horizon past a send whose receive never
  // comes, the message table (capped at four entries) moves it to the spill
  // file and releases its hold.  That must not change a single output bit.
  SweepConfig cfg;
  cfg.rounds = 300;
  cfg.gap_mean = 10e-3;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::mpi_wtime();
  job.seed = 5;  // 232 spilled messages, 488 repairs
  Trace trace = run_sweep(cfg, std::move(job)).trace;
  drop_every_fifth_receive(trace);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_spill_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_spill_out.cstr";
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);

  StreamClcOptions opt;
  opt.horizon = 0.5;
  opt.backward_window = 100.0;
  opt.max_outstanding_msgs = 4;
  const StreamClcStats stats = clc_stream_file(in_path, out_path, opt);
  EXPECT_GT(stats.spilled_msgs, 0u);
  EXPECT_GT(stats.violations_repaired, 0u);
  expect_bit_identical(trace, out_path, stats, in_memory_clc(trace, opt.clc));
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, ReceiveAfterSpilledSendKeepsItsEdge) {
  // Rank 3 only receives, and its clock runs 2 s ahead, so it is read last:
  // by the time its receives are registered, the read frontier is far past
  // every send to it and a four-entry message table has spilled them.  The
  // receive must reload the spilled send and keep the edge; because the
  // spill already released the send's backward hold, the run is counted in
  // horizon_dropped instead of claiming bit-identity.
  SweepConfig cfg;
  cfg.rounds = 300;
  cfg.gap_mean = 10e-3;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::mpi_wtime();
  job.seed = 5;
  Trace trace = run_sweep(cfg, std::move(job)).trace;
  std::vector<std::int64_t> from_rank3;
  for (Event& e : trace.events(3)) {
    e.local_ts += 2.0;
    if (e.type != EventType::Send) continue;
    from_rank3.push_back(e.msg_id);
    e.type = EventType::Enter;
    e.msg_id = -1;
    e.peer = -1;
  }
  std::sort(from_rank3.begin(), from_rank3.end());
  for (Rank r = 0; r < 3; ++r) {
    for (Event& e : trace.events(r)) {
      if (e.type != EventType::Recv ||
          !std::binary_search(from_rank3.begin(), from_rank3.end(), e.msg_id)) {
        continue;
      }
      e.type = EventType::Enter;
      e.msg_id = -1;
      e.peer = -1;
    }
  }
  const std::size_t messages = trace.match_messages().size();
  const std::string in_path = testing::TempDir() + "/cs_clcstream_late_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_late_out.cstr";
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/64);

  StreamClcOptions opt;
  opt.horizon = 0.5;
  opt.backward_window = 100.0;
  const StreamClcStats unspilled = clc_stream_file(in_path, out_path, opt);
  EXPECT_EQ(unspilled.spilled_msgs, 0u);
  EXPECT_EQ(unspilled.p2p_edges, messages);

  opt.max_outstanding_msgs = 4;
  const StreamClcStats spilled = clc_stream_file(in_path, out_path, opt);
  EXPECT_GT(spilled.spilled_msgs, 0u);
  EXPECT_EQ(spilled.p2p_edges, messages) << "every matched message constrains its receive";
  EXPECT_GT(spilled.horizon_dropped, 0u) << "late receives must not pass as bit-identical";
  EXPECT_EQ(spilled.events, trace.total_events());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, AllocatesAtMost32BytesPerEvent) {
  // A 52-minute sweep (the paper's long-run regime) of about 10^5 events.
  // The window is allocated once and reused, so what is left per event is
  // the fixed cost of the window, the index and the output writer spread
  // over the trace.  A copy per read-ahead event and a node per retained
  // event or message cost about 160 bytes per event.
  SweepConfig cfg;
  cfg.rounds = 6250;
  cfg.gap_mean = 0.5;
  cfg.collective_every = 50;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::mpi_wtime();
  job.seed = 1;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;
  const std::string in_path = testing::TempDir() + "/cs_clcstream_alloc_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_alloc_out.cstr";
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/512);

  const std::uint64_t before = benchkit::allocation_totals().bytes;
  const StreamClcStats stats = clc_stream_file(in_path, out_path, {});
  const std::uint64_t bytes = benchkit::allocation_totals().bytes - before;
  ASSERT_GT(stats.events, 90000u);
  EXPECT_LT(stats.peak_resident_events, stats.events / 4) << "the window must be a small part";
  const double per_event = static_cast<double>(bytes) / static_cast<double>(stats.events);
  EXPECT_LE(per_event, 32.0) << bytes << " bytes allocated for " << stats.events << " events";
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, GaugesMirrorTheFinalStats) {
  // Both runs move the divergence and spill counters off zero: a tiny
  // backward window clamps ramps, and a four-entry message table spills.
  Trace trace = sweep_fixture(3, /*rounds=*/40);
  drop_every_fifth_receive(trace);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_gauge_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_gauge_out.cstr";
  write_trace_v2_file(trace, in_path, /*events_per_chunk=*/32);

  StreamClcOptions clamped;
  clamped.backward_window = 1e-9;
  clamped.emit_batch = 16;
  StreamClcOptions spilling;
  spilling.horizon = 1e-3;
  spilling.max_outstanding_msgs = 4;
  const obs::Level saved = obs::level();
  obs::set_level(obs::Level::Metrics);
  for (const StreamClcOptions* opt : {&clamped, &spilling}) {
    const StreamClcStats stats = clc_stream_file(in_path, out_path, *opt);
    EXPECT_GT(opt == &clamped ? stats.ramp_clamped : stats.spilled_msgs, 0u);
    auto gauge = [](const char* name) { return obs::gauge(name).value(); };
    EXPECT_EQ(gauge("clc.stream.resident_events"), 0.0) << "the window drains";
    EXPECT_LE(gauge("clc.stream.outstanding_msgs"),
              static_cast<double>(stats.peak_outstanding_msgs));
    EXPECT_EQ(gauge("clc.stream.peak_resident_events"),
              static_cast<double>(stats.peak_resident_events));
    EXPECT_EQ(gauge("clc.stream.peak_outstanding_msgs"),
              static_cast<double>(stats.peak_outstanding_msgs));
    EXPECT_EQ(gauge("clc.stream.spilled_msgs"), static_cast<double>(stats.spilled_msgs));
    EXPECT_EQ(gauge("clc.stream.ramp_clamped"), static_cast<double>(stats.ramp_clamped));
    EXPECT_EQ(gauge("clc.stream.horizon_dropped"), static_cast<double>(stats.horizon_dropped));
    EXPECT_EQ(gauge("clc.stream.forced"), static_cast<double>(stats.forced));
  }
  obs::set_level(saved);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, EmptyTraceRoundTrips) {
  Trace t(pinning::block(clusters::xeon_rwth(), 3), {1e-7, 1e-6, 5e-6}, "empty");
  const std::string in_path = testing::TempDir() + "/cs_clcstream_empty_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_empty_out.cstr";
  write_trace_v2_file(t, in_path);
  const StreamClcStats stats = clc_stream_file(in_path, out_path, {});
  EXPECT_EQ(stats.events, 0u);
  const Trace out = read_trace_v2_file(out_path);
  EXPECT_EQ(out.ranks(), 3);
  EXPECT_EQ(out.total_events(), 0u);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ClcStream, TruncatedInputThrowsBeforeAnyOutputExists) {
  const Trace trace = testutil::random_trace(21);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_trunc_in.cstr";
  const std::string out_path = testing::TempDir() + "/cs_clcstream_trunc_out.cstr";
  write_trace_v2_file(trace, in_path);

  // Chop the tail off: the footer (and possibly part of the last chunk) is
  // gone.  The index pass must reject the file before any output is created.
  std::ifstream f(in_path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::string bytes(size, '\0');
  f.read(bytes.data(), static_cast<std::streamsize>(size));
  f.close();
  std::ofstream(in_path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(size - 10));

  EXPECT_THROW(clc_stream_file(in_path, out_path, {}), TraceIoError);
  std::ifstream probe(out_path);
  EXPECT_FALSE(probe.good()) << "no output file may exist after a failed run";
  std::remove(in_path.c_str());
}

TEST(ClcStream, FailedMergeLeavesNoTmp) {
  // The output path names a non-empty directory, so the final rename fails
  // after the corrected trace was written to <out>.tmp.
  const Trace trace = sweep_fixture(7, /*rounds=*/10);
  const std::string in_path = testing::TempDir() + "/cs_clcstream_failmerge_in.cstr";
  const std::string out_dir = testing::TempDir() + "/cs_clcstream_failmerge_out";
  write_trace_v2_file(trace, in_path);
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir + "/keep") << "x";

  EXPECT_THROW(clc_stream_file(in_path, out_dir, {}), TraceIoError);
  EXPECT_FALSE(std::filesystem::exists(out_dir + ".tmp")) << "a failed merge left its .tmp";
  EXPECT_FALSE(std::filesystem::exists(out_dir + ".ts-spill"));
  EXPECT_TRUE(std::filesystem::exists(out_dir + "/keep"));
  std::filesystem::remove_all(out_dir);
  std::remove(in_path.c_str());
}

TEST(ClcStream, MissingInputThrowsIoError) {
  try {
    clc_stream_file("/nonexistent/in.cstr", testing::TempDir() + "/unused.cstr", {});
    FAIL() << "expected TraceIoError";
  } catch (const TraceIoError& e) {
    EXPECT_EQ(e.kind(), TraceIoErrorKind::Io);
  }
}

}  // namespace
}  // namespace chronosync
