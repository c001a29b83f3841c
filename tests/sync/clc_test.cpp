#include "sync/clc.hpp"

#include <gtest/gtest.h>

#include "analysis/clock_condition.hpp"
#include "common/rng.hpp"
#include "sync/clc_parallel.hpp"
#include "topology/cluster.hpp"

namespace chronosync {
namespace {

Event make_event(EventType ty, Time t, std::int64_t id = -1, Rank peer = -1) {
  Event e;
  e.type = ty;
  e.local_ts = e.true_ts = t;
  e.msg_id = id;
  e.peer = peer;
  return e;
}

/// Two ranks; message 0->1 whose recv timestamp violates the clock condition.
struct ViolatedFixture {
  Trace trace{pinning::inter_node(clusters::xeon_rwth(), 2),
              {0.47e-6, 0.86e-6, 4.29e-6},
              "test"};
  ViolatedFixture() {
    trace.events(0).push_back(make_event(EventType::Enter, 1.0));
    trace.events(0).push_back(make_event(EventType::Send, 2.0, 0, 1));
    trace.events(0).push_back(make_event(EventType::Exit, 3.0));
    // Recv at 1.9999: *before* the send -- a reversed message.
    trace.events(1).push_back(make_event(EventType::Enter, 1.0));
    trace.events(1).push_back(make_event(EventType::Recv, 1.9999, 0, 0));
    trace.events(1).push_back(make_event(EventType::Exit, 2.5));
    trace.events(1).push_back(make_event(EventType::Enter, 2.6));
  }
};

TEST(Clc, RepairsViolation) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);
  const ClcResult res = controlled_logical_clock(fx.trace, s, input);

  EXPECT_EQ(res.violations_repaired, 1u);
  EXPECT_GT(res.max_jump, 0.0);
  // Clock condition restored.
  EXPECT_GE(res.corrected.at({1, 1}), res.corrected.at({0, 1}) + 4.29e-6 - 1e-15);
  // A clean report afterwards.
  const auto rep = check_clock_condition(fx.trace, res.corrected);
  EXPECT_EQ(rep.violations(), 0u);
}

TEST(Clc, PreservesMonotonicityPerProcess) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const ClcResult res =
      controlled_logical_clock(fx.trace, s, TimestampArray::from_local(fx.trace));
  for (Rank r = 0; r < 2; ++r) {
    const auto& v = res.corrected.of_rank(r);
    for (std::size_t i = 1; i < v.size(); ++i) {
      EXPECT_GE(v[i], v[i - 1]) << "rank " << r << " idx " << i;
    }
  }
}

TEST(Clc, CleanTraceIsUntouched) {
  ViolatedFixture fx;
  fx.trace.events(1)[1].local_ts = 2.1;  // now consistent
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);
  const ClcResult res = controlled_logical_clock(fx.trace, s, input);
  EXPECT_EQ(res.violations_repaired, 0u);
  for (Rank r = 0; r < 2; ++r) {
    for (std::uint32_t i = 0; i < fx.trace.events(r).size(); ++i) {
      EXPECT_DOUBLE_EQ(res.corrected.at({r, i}), input.at({r, i}));
    }
  }
}

TEST(Clc, ForwardAmortizationPreservesIntervals) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  ClcOptions opt;
  opt.forward_decay = 0.0;  // pure interval preservation after the jump
  opt.backward_amortization = false;
  const auto input = TimestampArray::from_local(fx.trace);
  const ClcResult res = controlled_logical_clock(fx.trace, s, input, opt);
  // The interval between recv and its successors must be preserved exactly.
  const Duration want = input.at({1, 2}) - input.at({1, 1});
  const Duration got = res.corrected.at({1, 2}) - res.corrected.at({1, 1});
  EXPECT_NEAR(got, want, 1e-12);
}

TEST(Clc, ForwardDecayReturnsTowardOriginal) {
  ViolatedFixture fx;
  // Move the later events far out so the correction has room to decay.
  fx.trace.events(1)[2].local_ts = 1000.0;
  fx.trace.events(1)[3].local_ts = 2000.0;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  ClcOptions opt;
  opt.forward_decay = 0.01;
  opt.backward_amortization = false;
  const ClcResult res =
      controlled_logical_clock(fx.trace, s, TimestampArray::from_local(fx.trace), opt);
  // By t=1000 the (microsecond-scale) correction has fully decayed.
  EXPECT_DOUBLE_EQ(res.corrected.at({1, 2}), 1000.0);
  EXPECT_DOUBLE_EQ(res.corrected.at({1, 3}), 2000.0);
}

TEST(Clc, BackwardAmortizationSmoothsPreJumpEvents) {
  ViolatedFixture fx;
  // Put a local event just before the violated recv.
  fx.trace.events(1)[0].local_ts = fx.trace.events(1)[0].true_ts = 1.99985;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);

  ClcOptions without;
  without.backward_amortization = false;
  ClcOptions with;
  with.backward_amortization = true;
  const ClcResult r0 = controlled_logical_clock(fx.trace, s, input, without);
  const ClcResult r1 = controlled_logical_clock(fx.trace, s, input, with);

  // Without: the Enter stays; with: it is pulled toward the jump.
  EXPECT_DOUBLE_EQ(r0.corrected.at({1, 0}), 1.99985);
  EXPECT_GT(r1.corrected.at({1, 0}), 1.99985);
  // Still monotone and below the recv.
  EXPECT_LE(r1.corrected.at({1, 0}), r1.corrected.at({1, 1}));
}

TEST(Clc, BackwardAmortizationNeverBreaksSends) {
  // The pre-jump ramp must not push a send beyond recv - l_min.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 3), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  // rank1: Send to rank2 at 1.0, then violated Recv from rank0.
  trace.events(0).push_back(make_event(EventType::Send, 1.00005, 0, 1));
  trace.events(1).push_back(make_event(EventType::Send, 1.0, 1, 2));
  trace.events(1).push_back(make_event(EventType::Recv, 1.00001, 0, 0));  // violated
  trace.events(2).push_back(make_event(EventType::Recv, 1.00002, 1, 1));
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const ClcResult res =
      controlled_logical_clock(trace, s, TimestampArray::from_local(trace));
  const auto rep = check_clock_condition(trace, res.corrected, msgs, {});
  EXPECT_EQ(rep.violations(), 0u);
}

TEST(Clc, HandlesCollectiveLogicalMessages) {
  // Barrier whose end on rank 1 is measured before rank 0 entered.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 2), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  for (Rank r = 0; r < 2; ++r) {
    Event b = make_event(EventType::CollBegin, r == 0 ? 1.0 : 0.9);
    b.coll = CollectiveKind::Barrier;
    b.coll_id = 0;
    Event e = make_event(EventType::CollEnd, r == 0 ? 1.1 : 0.95);  // rank1 too early
    e.coll = CollectiveKind::Barrier;
    e.coll_id = 0;
    trace.events(r).push_back(b);
    trace.events(r).push_back(e);
  }
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule s(trace, {}, logical);
  const ClcResult res =
      controlled_logical_clock(trace, s, TimestampArray::from_local(trace));
  EXPECT_GE(res.violations_repaired, 1u);
  const auto rep = check_clock_condition(trace, res.corrected, {}, logical);
  EXPECT_EQ(rep.logical_violations, 0u);
}

TEST(Clc, ChainOfViolationsAllRepaired) {
  // A relay 0 -> 1 -> 2 -> 3 where every hop's recv is reversed.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 4), {0.47e-6, 0.86e-6, 4.29e-6},
              "test");
  trace.events(0).push_back(make_event(EventType::Send, 1.0, 0, 1));
  trace.events(1).push_back(make_event(EventType::Recv, 0.9, 0, 0));
  trace.events(1).push_back(make_event(EventType::Send, 0.91, 1, 2));
  trace.events(2).push_back(make_event(EventType::Recv, 0.8, 1, 1));
  trace.events(2).push_back(make_event(EventType::Send, 0.81, 2, 3));
  trace.events(3).push_back(make_event(EventType::Recv, 0.7, 2, 2));
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const ClcResult res =
      controlled_logical_clock(trace, s, TimestampArray::from_local(trace));
  EXPECT_EQ(res.violations_repaired, 3u);
  EXPECT_EQ(check_clock_condition(trace, res.corrected, msgs, {}).violations(), 0u);
  // The chain accumulates: each hop is at least l_min later.
  EXPECT_GE(res.corrected.at({3, 0}), 1.0 + 3 * 4.29e-6 - 1e-12);
}

TEST(Clc, StatisticsAccumulate) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const ClcResult res =
      controlled_logical_clock(fx.trace, s, TimestampArray::from_local(fx.trace));
  EXPECT_GT(res.total_jump, 0.0);
  EXPECT_GE(res.total_jump, res.max_jump);
}

TEST(Clc, OptionValidation) {
  ViolatedFixture fx;
  const ReplaySchedule s(fx.trace, fx.trace.match_messages(), {});
  const auto input = TimestampArray::from_local(fx.trace);
  ClcOptions bad;
  bad.forward_decay = 1.5;
  EXPECT_THROW(controlled_logical_clock(fx.trace, s, input, bad), std::invalid_argument);
  ClcOptions bad2;
  bad2.backward_slope = 0.0;
  EXPECT_THROW(controlled_logical_clock(fx.trace, s, input, bad2), std::invalid_argument);
}

// ---------------------------------------------------------------- parallel

/// Last recorded local timestamp of a rank (keeps generated traces monotone).
Time last_ts(const Trace& trace, Rank r) {
  const auto& ev = trace.events(r);
  return ev.empty() ? 0.0 : ev.back().local_ts;
}

/// Random many-rank trace with sprinkled violations for equivalence checks.
Trace random_trace(int ranks, int rounds, std::uint64_t seed) {
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), ranks),
              {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  Rng rng(seed);
  std::int64_t id = 0;
  Time t = 1.0;
  for (int round = 0; round < rounds; ++round) {
    const auto shift = static_cast<Rank>(rng.uniform_int(1, ranks - 1));
    for (Rank r = 0; r < ranks; ++r) {
      const Rank to = (r + shift) % ranks;
      const Time st = t + rng.uniform(0.0, 1e-4);
      trace.events(r).push_back(make_event(EventType::Send, st, id + r, to));
    }
    for (Rank r = 0; r < ranks; ++r) {
      const Rank from = (r - shift + ranks) % ranks;
      // Around 20% of receives get a timestamp *before* the send.
      const Time base = t + rng.uniform(0.0, 1e-4);
      const Time rt = rng.bernoulli(0.2) ? base - rng.uniform(0.0, 5e-5)
                                         : base + 2e-4 + rng.uniform(0.0, 1e-4);
      trace.events(r).push_back(
          make_event(EventType::Recv, std::max(rt, last_ts(trace, r)), id + from, from));
    }
    id += ranks;
    t += 1e-3;
  }
  return trace;
}

// Forces the parallel path to actually run concurrent: the production clamp
// (min_events_per_thread) would collapse these small synthetic traces to a
// solo run, and a solo run trivially matches the sequential pass.
ClcOptions concurrent_options() {
  ClcOptions opt;
  opt.min_events_per_thread = 1;
  return opt;
}

TEST(ParallelClc, MatchesSequentialBitExact) {
  Trace trace = random_trace(8, 40, 99);
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  const ClcResult seq = controlled_logical_clock(trace, s, input);
  for (int threads : {1, 2, 4, 8}) {
    const ClcResult par =
        controlled_logical_clock_parallel(trace, s, input, concurrent_options(), threads);
    EXPECT_EQ(par.violations_repaired, seq.violations_repaired) << threads;
    for (Rank r = 0; r < trace.ranks(); ++r) {
      for (std::uint32_t i = 0; i < trace.events(r).size(); ++i) {
        ASSERT_DOUBLE_EQ(par.corrected.at({r, i}), seq.corrected.at({r, i}))
            << "threads=" << threads << " rank=" << r << " idx=" << i;
      }
    }
  }
}

TEST(ParallelClc, BitExactAcrossPublishBatchSizes) {
  // The batched epoch publication is pure scheduling: whether progress is
  // announced per event (batch 1), in small batches, or only at rank
  // completion (huge batch) must never change the fixed-point the workers
  // converge to.  Batch 1 also exercises the pre-batching protocol shape.
  Trace trace = random_trace(8, 60, 2024);
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  const ClcResult seq = controlled_logical_clock(trace, s, input);
  ASSERT_GT(seq.violations_repaired, 0u);
  for (int batch : {1, 3, 128, 1 << 20}) {
    ClcOptions opt = concurrent_options();
    opt.publish_batch = batch;
    for (int threads : {2, 4, 8}) {
      const ClcResult par = controlled_logical_clock_parallel(trace, s, input, opt, threads);
      EXPECT_EQ(par.violations_repaired, seq.violations_repaired)
          << "batch=" << batch << " threads=" << threads;
      for (Rank r = 0; r < trace.ranks(); ++r) {
        const auto& a = par.corrected.of_rank(r);
        const auto& b = seq.corrected.of_rank(r);
        ASSERT_TRUE(a == b) << "batch=" << batch << " threads=" << threads << " rank=" << r;
      }
    }
  }
}

TEST(ParallelClc, ThreadClampKeepsSmallTracesSoloButStaysExact) {
  // Production default: a trace far below min_events_per_thread per worker
  // must still produce the exact sequential answer (via the clamp) — the
  // clamp is a performance guard, never a semantics switch.
  Trace trace = random_trace(4, 20, 5);
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  const ClcResult seq = controlled_logical_clock(trace, s, input);
  const ClcResult par = controlled_logical_clock_parallel(trace, s, input, {}, 8);
  EXPECT_EQ(par.violations_repaired, seq.violations_repaired);
  for (Rank r = 0; r < trace.ranks(); ++r) {
    ASSERT_TRUE(par.corrected.of_rank(r) == seq.corrected.of_rank(r)) << r;
  }
}

TEST(Clc, ZeroRankTraceReturnsInputUnchanged) {
  // Regression: a trace with no ranks used to trip the thread-count
  // precondition in the parallel path; both paths must be graceful no-ops.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 0),
              {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  const ReplaySchedule s(trace, {}, {});
  const auto input = TimestampArray::from_local(trace);

  const ClcResult seq = controlled_logical_clock(trace, s, input);
  EXPECT_EQ(seq.violations_repaired, 0u);
  EXPECT_EQ(seq.corrected.ranks(), 0);

  for (int threads : {0, 1, 8}) {
    const ClcResult par = controlled_logical_clock_parallel(trace, s, input, {}, threads);
    EXPECT_EQ(par.violations_repaired, 0u) << "threads=" << threads;
    EXPECT_EQ(par.corrected.ranks(), 0) << "threads=" << threads;
  }
}

TEST(Clc, EventlessTraceReturnsInputUnchanged) {
  // Ranks exist but none recorded an event: the schedule is empty and the
  // result must be the input, with zeroed statistics.
  Trace trace(pinning::inter_node(clusters::xeon_rwth(), 4),
              {0.47e-6, 0.86e-6, 4.29e-6}, "test");
  const ReplaySchedule s(trace, trace.match_messages(), {});
  ASSERT_EQ(s.events(), 0u);
  const auto input = TimestampArray::from_local(trace);

  const ClcResult seq = controlled_logical_clock(trace, s, input);
  EXPECT_EQ(seq.violations_repaired, 0u);
  EXPECT_DOUBLE_EQ(seq.total_jump, 0.0);

  for (int threads : {0, 1, 8}) {
    const ClcResult par = controlled_logical_clock_parallel(trace, s, input, {}, threads);
    EXPECT_EQ(par.violations_repaired, 0u) << "threads=" << threads;
    EXPECT_EQ(par.corrected.ranks(), trace.ranks()) << "threads=" << threads;
  }
}

TEST(ParallelClc, StatisticsIndependentOfThreadCount) {
  // Aggregates are derived from the final jump lists in global-event
  // order, so they must be bit-identical to the sequential run for every
  // thread count — not merely close.
  Trace trace = random_trace(8, 50, 7);
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const auto input = TimestampArray::from_local(trace);
  const ClcResult seq = controlled_logical_clock(trace, s, input);
  ASSERT_GT(seq.violations_repaired, 0u);
  for (int threads : {1, 2, 3, 4, 8}) {
    const ClcResult par =
        controlled_logical_clock_parallel(trace, s, input, concurrent_options(), threads);
    EXPECT_EQ(par.violations_repaired, seq.violations_repaired) << threads;
    EXPECT_EQ(par.max_jump, seq.max_jump) << threads;
    EXPECT_EQ(par.total_jump, seq.total_jump) << threads;
  }
}

TEST(ParallelClc, RepairsEverything) {
  Trace trace = random_trace(6, 60, 123);
  const auto msgs = trace.match_messages();
  const ReplaySchedule s(trace, msgs, {});
  const ClcResult res = controlled_logical_clock_parallel(
      trace, s, TimestampArray::from_local(trace), concurrent_options(), 3);
  EXPECT_GT(res.violations_repaired, 0u);
  EXPECT_EQ(check_clock_condition(trace, res.corrected, msgs, {}).violations(), 0u);
}

}  // namespace
}  // namespace chronosync
