// The CLC keeps forward-pass jumps as sparse per-rank lists in local order.
// These tests pin its output, bit for bit, to a dense reference that keeps a
// jump size for every event, on the shapes where a sparse cursor can slip:
// jumps on a rank's first and last event, empty ranks, ranks without jumps,
// and backward amortization switched off.  They also bound what one CLC run
// allocates per event.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "benchkit/metrics.hpp"
#include "common/rng.hpp"
#include "sync/clc.hpp"
#include "sync/clc_parallel.hpp"
#include "sync/correction.hpp"
#include "sync/interpolation.hpp"
#include "sync/replay.hpp"
#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

/// The CLC with a dense per-event jump array: forward pass in replay order,
/// aggregates over the array in global-index order, backward amortization
/// reading the array.  Same arithmetic, same order as the library.
ClcResult dense_reference(const Trace& trace, const ReplaySchedule& schedule,
                          const TimestampArray& input, const ClcOptions& options) {
  ClcResult result;
  result.corrected = input;
  if (trace.ranks() == 0 || schedule.events() == 0) return result;

  std::vector<Time> lc(schedule.events(), 0.0);
  std::vector<Duration> jump(schedule.events(), 0.0);
  struct ProcState {
    bool has_prev = false;
    Time prev_input = 0.0;
    Time prev_lc = 0.0;
  };
  std::vector<ProcState> state(static_cast<std::size_t>(trace.ranks()));
  schedule.replay([&](std::uint32_t g, const EventRef& ref) {
    auto& st = state[static_cast<std::size_t>(ref.proc)];
    const Time t = input.at(ref);
    Time cand = t;
    if (st.has_prev) {
      const Duration dt = std::max(0.0, t - st.prev_input);
      const Duration carried =
          std::max(0.0, (st.prev_lc - st.prev_input) - options.forward_decay * dt);
      cand = std::max(t + carried, st.prev_lc);
    }
    Time bound = -kTimeInfinity;
    for (const auto& edge : schedule.incoming(g)) {
      bound = std::max(bound, lc[edge.source] + edge.l_min);
    }
    Time v = cand;
    if (bound > cand) {
      v = bound;
      jump[g] = bound - cand;
    }
    lc[g] = v;
    st.prev_input = t;
    st.prev_lc = v;
    st.has_prev = true;
  });

  for (const Duration j : jump) {
    if (j > 0.0) {
      ++result.violations_repaired;
      result.max_jump = std::max(result.max_jump, j);
      result.total_jump += j;
    }
  }

  if (options.backward_amortization) {
    std::vector<Time> cap(schedule.events(), kTimeInfinity);
    for (std::uint32_t g = 0; g < schedule.events(); ++g) {
      for (const auto& edge : schedule.incoming(g)) {
        cap[edge.source] = std::min(cap[edge.source], lc[g] - edge.l_min - 1e-12);
      }
    }
    for (Rank r = 0; r < trace.ranks(); ++r) {
      const auto n = static_cast<std::uint32_t>(trace.events(r).size());
      bool have_jump = false;
      Time jump_at = 0.0;
      Duration jump_size = 0.0;
      Duration window = 0.0;
      Time successor = kTimeInfinity;
      for (std::uint32_t i = n; i-- > 0;) {
        const std::uint32_t g = schedule.global_index({r, i});
        const Time v = lc[g];
        if (jump[g] > 0.0) {
          have_jump = true;
          jump_at = v;
          jump_size = jump[g];
          window = jump_size / options.backward_slope;
          successor = std::min(successor, v);
          continue;
        }
        if (have_jump) {
          const Duration dist = jump_at - v;
          if (dist >= 0.0 && dist < window) {
            Time moved = v + jump_size * (1.0 - dist / window);
            moved = std::min(moved, cap[g]);
            moved = std::min(moved, successor);
            lc[g] = std::max(moved, v);
          } else if (dist >= window) {
            have_jump = false;
          }
        }
        successor = std::min(successor, lc[g]);
      }
    }
  }

  for (Rank r = 0; r < trace.ranks(); ++r) {
    auto& v = result.corrected.of_rank(r);
    for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = lc[schedule.global_index({r, i})];
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_result(const ClcResult& got, const ClcResult& want, const char* what) {
  EXPECT_EQ(got.violations_repaired, want.violations_repaired) << what;
  EXPECT_TRUE(same_bits(got.max_jump, want.max_jump)) << what;
  EXPECT_TRUE(same_bits(got.total_jump, want.total_jump)) << what;
  ASSERT_EQ(got.corrected.ranks(), want.corrected.ranks()) << what;
  for (Rank r = 0; r < want.corrected.ranks(); ++r) {
    const auto& a = got.corrected.of_rank(r);
    const auto& b = want.corrected.of_rank(r);
    ASSERT_EQ(a.size(), b.size()) << what << " rank " << r;
    for (std::size_t i = 0; i < b.size(); ++i) {
      ASSERT_TRUE(same_bits(a[i], b[i]))
          << what << " rank " << r << " event " << i << ": " << a[i] << " vs " << b[i];
    }
  }
}

/// Sequential and parallel (1, 2 and 4 threads, forced concurrent) against
/// the dense reference, with backward amortization on and off.
void expect_matches_reference(const Trace& trace) {
  const auto messages = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, messages, logical);
  const auto input = TimestampArray::from_local(trace);
  for (const bool backward : {true, false}) {
    ClcOptions opt;
    opt.backward_amortization = backward;
    opt.min_events_per_thread = 1;
    const ClcResult want = dense_reference(trace, schedule, input, opt);
    expect_same_result(controlled_logical_clock(trace, schedule, input, opt), want,
                       backward ? "sequential" : "sequential, no backward pass");
    for (const int threads : {1, 2, 4}) {
      expect_same_result(
          controlled_logical_clock_parallel(trace, schedule, input, opt, threads), want,
          backward ? "parallel" : "parallel, no backward pass");
    }
  }
}

Event make_event(EventType ty, Time t, std::int64_t id = -1, Rank peer = -1) {
  Event e;
  e.type = ty;
  e.local_ts = e.true_ts = t;
  e.msg_id = id;
  e.peer = peer;
  return e;
}

Trace empty_trace(int ranks) {
  return Trace(pinning::inter_node(clusters::xeon_rwth(), ranks), {0.47e-6, 0.86e-6, 4.29e-6},
               "test");
}

TEST(ClcJumps, JumpsOnFirstAndLastEventsOfARank) {
  // Rank 1 jumps on its first event, rank 2 on its last; rank 0 only sends
  // (no jumps), rank 3 is empty, rank 4 has only local events.
  Trace trace = empty_trace(5);
  auto& r0 = trace.events(0);
  r0.push_back(make_event(EventType::Send, 2.0, 1, 1));
  r0.push_back(make_event(EventType::Enter, 2.1));
  r0.push_back(make_event(EventType::Send, 2.2, 2, 2));
  r0.push_back(make_event(EventType::Exit, 2.3));
  auto& r1 = trace.events(1);
  r1.push_back(make_event(EventType::Recv, 1.0, 1, 0));  // reversed: jumps
  r1.push_back(make_event(EventType::Enter, 1.5));
  r1.push_back(make_event(EventType::Exit, 1.6));
  auto& r2 = trace.events(2);
  r2.push_back(make_event(EventType::Enter, 2.15));
  r2.push_back(make_event(EventType::Exit, 2.18));
  r2.push_back(make_event(EventType::Recv, 2.19, 2, 0));  // reversed: jumps
  for (int i = 0; i < 4; ++i) trace.events(4).push_back(make_event(EventType::Enter, 1.0 + i));

  const auto messages = trace.match_messages();
  const ReplaySchedule schedule(trace, messages, {});
  const ClcResult res =
      controlled_logical_clock(trace, schedule, TimestampArray::from_local(trace));
  ASSERT_EQ(res.violations_repaired, 2u);
  expect_matches_reference(trace);
}

TEST(ClcJumps, EveryEventOfARankJumps) {
  // Rank 1 receives only, every receive reversed: its jump list covers the
  // whole rank, adjacent to rank 0 (no jumps) and rank 2 (empty).
  Trace trace = empty_trace(3);
  for (int i = 0; i < 6; ++i) {
    trace.events(0).push_back(make_event(EventType::Send, 2.0 + 0.1 * i, i, 1));
    trace.events(1).push_back(make_event(EventType::Recv, 1.0 + 0.01 * i, i, 0));
  }
  expect_matches_reference(trace);
}

TEST(ClcJumps, EmptyRanksBetweenRanksWithJumps) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const int ranks = 7;
    Trace trace = empty_trace(ranks);
    // Ranks 1, 3 and 6 stay empty; the others exchange messages with about
    // a third of the receives reversed.
    const std::vector<Rank> active = {0, 2, 4, 5};
    std::int64_t id = 0;
    Time t = 1.0;
    for (int round = 0; round < 30; ++round) {
      for (std::size_t k = 0; k < active.size(); ++k) {
        const Rank from = active[k];
        const Rank to = active[(k + 1 + static_cast<std::size_t>(round) % 3) % active.size()];
        const Time st = t + rng.uniform(0.0, 1e-4);
        const Time rt = rng.bernoulli(0.35) ? st - rng.uniform(0.0, 1e-4) : st + 1e-4;
        auto& dst = trace.events(to);
        const Time floor = dst.empty() ? 0.0 : dst.back().local_ts;
        trace.events(from).push_back(make_event(EventType::Send, st, id, to));
        dst.push_back(make_event(EventType::Recv, std::max(rt, floor), id, from));
        ++id;
      }
      t += 1e-3;
    }
    expect_matches_reference(trace);
  }
}

TEST(ClcJumps, SweepWithCollectivesMatchesReference) {
  SweepConfig cfg;
  cfg.rounds = 60;
  cfg.collective_every = 7;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 6);
  job.timer = timer_specs::intel_tsc();
  job.seed = 3;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;
  expect_matches_reference(trace);
}

// One CLC run allocates the result array, the forward values and the
// backward caps (24 bytes per event), the replay's dependency counters (4
// more) and the sparse per-rank jump lists (about 2 at the 4-5% of events
// that jump after interpolation).  A dense jump array would add another 8.
TEST(Clc, AllocatesAtMost32BytesPerEvent) {
  // A 16-rank sweep of about 10^5 events with barriers, corrected by linear
  // interpolation first, as in the offline pipeline.
  SweepConfig cfg;
  cfg.rounds = 1600;
  cfg.collective_every = 50;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 16);
  job.timer = timer_specs::mpi_wtime();
  job.seed = 1;
  const AppRunResult run = run_sweep(cfg, std::move(job));
  const Trace& trace = run.trace;
  const ReplaySchedule schedule(trace, trace.match_messages(), derive_logical_messages(trace));
  ASSERT_GT(schedule.events(), 90000u);
  const auto input = apply_correction(trace, LinearInterpolation::from_store(run.offsets));

  auto bytes_per_event = [&](auto&& run) {
    const std::uint64_t before = benchkit::allocation_totals().bytes;
    const ClcResult res = run();
    const std::uint64_t bytes = benchkit::allocation_totals().bytes - before;
    EXPECT_GT(res.violations_repaired, 0u);
    return static_cast<double>(bytes) / static_cast<double>(schedule.events());
  };
  EXPECT_LE(bytes_per_event([&] { return controlled_logical_clock(trace, schedule, input); }),
            32.0)
      << "sequential";
  for (const int threads : {1, 4}) {
    EXPECT_LE(bytes_per_event([&] {
                return controlled_logical_clock_parallel(trace, schedule, input, {}, threads);
              }),
              32.0)
        << "parallel, " << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace chronosync
