// Differential cross-checks: a healthy simulated run must come back clean,
// and a seeded divergence in a contracted-identical pair must be caught.
#include "verify/differential.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/mathutil.hpp"
#include "ompsim/omp_bench.hpp"
#include "trace/logical_messages.hpp"
#include "verify/fault_injection.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

AppRunResult small_fixture(std::uint64_t seed = 42) {
  SweepConfig cfg;
  cfg.rounds = 60;
  cfg.gap_mean = 3.0;  // long gaps: drift accumulates, Eq. 1 violations appear
  cfg.collective_every = 20;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = seed;
  return run_sweep(cfg, std::move(job));
}

// Mid-run probe batches matter for the accuracy race: with only the endpoint
// batches the Kalman filter has two knots and degenerates to exactly Eq. 3's
// line.
AppRunResult probe_fixture() {
  SweepConfig cfg;
  cfg.rounds = 60;
  cfg.gap_mean = 3.0;
  cfg.collective_every = 20;
  cfg.probe_every = 15;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 42;
  return run_sweep(cfg, std::move(job));
}

std::vector<verify::MethodOutput> all_methods(const Trace& trace, const OffsetStore& offsets) {
  const auto msgs = trace.match_messages();
  const auto logical = derive_logical_messages(trace);
  const ReplaySchedule schedule(trace, msgs, logical);
  return verify::run_all_methods(trace, offsets, msgs, schedule);
}

// The accuracy race as first written: the master clock is read at each
// event's true time once per method.  ground_truth_accuracy reads it once
// per event and must still agree bit for bit.
std::vector<verify::MethodAccuracy> reference_accuracy(
    const Trace& trace, const std::vector<verify::MethodOutput>& outputs) {
  PiecewiseLinear master;
  if (trace.ranks() > 0) {
    for (const Event& e : trace.events(0)) {
      if (master.size() > 0 && !(e.true_ts > master.knots().back().x)) continue;
      master.append(e.true_ts, e.local_ts);
    }
  }
  if (master.size() < 2) return {};
  std::vector<verify::MethodAccuracy> out;
  for (const auto& m : outputs) {
    verify::MethodAccuracy acc;
    acc.name = m.name;
    double sum_sq = 0.0;
    for (Rank r = 0; r < trace.ranks(); ++r) {
      const auto& events = trace.events(r);
      const auto& ts = m.ts.of_rank(r);
      for (std::uint32_t i = 0; i < events.size(); ++i) {
        const double err = ts[i] - master(events[i].true_ts);
        ++acc.events;
        sum_sq += err * err;
        acc.max_abs_error = std::max(acc.max_abs_error, std::abs(err));
      }
    }
    acc.rms_error = acc.events > 0 ? std::sqrt(sum_sq / static_cast<double>(acc.events)) : 0.0;
    out.push_back(std::move(acc));
  }
  return out;
}

void expect_same_accuracy(const std::vector<verify::MethodAccuracy>& got,
                          const std::vector<verify::MethodAccuracy>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].name, want[k].name);
    EXPECT_EQ(got[k].events, want[k].events) << want[k].name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].rms_error),
              std::bit_cast<std::uint64_t>(want[k].rms_error))
        << want[k].name << ": " << got[k].rms_error << " vs " << want[k].rms_error;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].max_abs_error),
              std::bit_cast<std::uint64_t>(want[k].max_abs_error))
        << want[k].name << ": " << got[k].max_abs_error << " vs " << want[k].max_abs_error;
  }
}

TEST(Differential, RunAllMethodsIncludesClcContractPair) {
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto outputs = verify::run_all_methods(res.trace, res.offsets, msgs, schedule);

  bool serial = false, parallel = false;
  for (const auto& m : outputs) {
    if (m.name == "interpolation+clc-serial") serial = m.restores_clock_condition;
    if (m.name == "interpolation+clc-parallel") parallel = m.restores_clock_condition;
    ASSERT_EQ(m.ts.ranks(), res.trace.ranks()) << m.name;
  }
  EXPECT_TRUE(serial);
  EXPECT_TRUE(parallel);
  EXPECT_GE(outputs.size(), 8u);  // raw + 4 probe-based + 3 estimators + 2 CLC
}

TEST(Differential, MethodVocabularyMatchesEmittedMethods) {
  // The closed vocabulary drives scenario expect.accuracy validation and the
  // chronocheck --method dispatcher; every emitted method must be in it, and
  // every probe-era name in it must actually be emitted on a probe fixture.
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto outputs = verify::run_all_methods(res.trace, res.offsets, msgs, schedule);
  const auto& known = verify::all_method_names();
  for (const auto& m : outputs) {
    EXPECT_NE(std::find(known.begin(), known.end(), m.name), known.end())
        << m.name << " missing from all_method_names()";
  }
  for (const auto& name : known) {
    const auto it = std::find_if(outputs.begin(), outputs.end(),
                                 [&](const auto& m) { return m.name == name; });
    EXPECT_NE(it, outputs.end()) << name << " not emitted by run_all_methods";
  }
  EXPECT_NE(std::find(known.begin(), known.end(), "kalman-drift"), known.end());
}

TEST(Differential, GroundTruthAccuracyRanksMethods) {
  const AppRunResult res = probe_fixture();
  const auto outputs = all_methods(res.trace, res.offsets);
  const auto accuracy = verify::ground_truth_accuracy(res.trace, outputs);
  ASSERT_EQ(accuracy.size(), outputs.size());

  auto find = [&](const char* name) {
    const auto it = std::find_if(accuracy.begin(), accuracy.end(),
                                 [&](const auto& a) { return a.name == name; });
    EXPECT_NE(it, accuracy.end()) << name;
    return *it;
  };
  const auto raw = find("raw");
  const auto linear = find("linear-interpolation");
  const auto kalman = find("kalman-drift");
  for (const auto& a : accuracy) {
    EXPECT_GT(a.events, 0u) << a.name;
    EXPECT_TRUE(std::isfinite(a.rms_error)) << a.name;
    EXPECT_GE(a.max_abs_error, a.rms_error) << a.name;
  }
  // Any drift model beats no correction; on the wandering TSC fixture the
  // model-based filter beats the single mean-drift line too.
  EXPECT_LT(linear.rms_error, raw.rms_error);
  EXPECT_LT(kalman.rms_error, linear.rms_error);
}

TEST(Differential, GroundTruthAccuracyMatchesPerMethodReference) {
  const AppRunResult res = probe_fixture();
  const auto outputs = all_methods(res.trace, res.offsets);
  const auto want = reference_accuracy(res.trace, outputs);
  ASSERT_EQ(want.size(), outputs.size());
  expect_same_accuracy(verify::ground_truth_accuracy(res.trace, outputs), want);
}

TEST(Differential, GroundTruthAccuracyMatchesReferenceWithEmptyRanks) {
  // with_empty_ranks keeps the master rank populated: the race still runs,
  // and the emptied ranks contribute no events.
  const AppRunResult res = small_fixture();
  const Trace holes = verify::with_empty_ranks(res.trace);
  const auto outputs = all_methods(holes, res.offsets);
  const auto want = reference_accuracy(holes, outputs);
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(want.front().events, holes.total_events());
  expect_same_accuracy(verify::ground_truth_accuracy(holes, outputs), want);

  // Without master events there is no ground-truth timeline: no race at all.
  Trace no_master = holes;
  no_master.events(0).clear();
  const std::vector<verify::MethodOutput> raw = {
      {"raw", TimestampArray::from_local(no_master), false}};
  EXPECT_TRUE(reference_accuracy(no_master, raw).empty());
  EXPECT_TRUE(verify::ground_truth_accuracy(no_master, raw).empty());
}

TEST(Differential, OmpClcCrossCheckIsCleanOnBenchFixture) {
  OmpBenchConfig cfg;
  cfg.threads = 6;
  cfg.regions = 120;
  cfg.seed = 42;
  const OmpBenchResult res = run_omp_benchmark(cfg);
  const Placement pl = omp_thread_placement(cfg.node, cfg.threads);
  std::vector<std::string> failures;
  const std::size_t comparisons = verify::cross_check_omp_clc(res.trace, pl, failures);
  EXPECT_GT(comparisons, 0u);
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(Differential, HealthyFixtureIsClean) {
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  const auto report = verify::run_differential_suite(res.trace, res.offsets, msgs, schedule);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(report.pairs.empty());
}

TEST(Differential, ScheduleOfAnotherTraceIsRejected) {
  // A schedule sized for a different trace would index past this one's
  // events; the suite must refuse it up front.
  const AppRunResult res = small_fixture();
  const Trace other = verify::with_empty_ranks(res.trace);
  ASSERT_NE(other.total_events(), res.trace.total_events());
  const auto msgs = other.match_messages();
  const auto logical = derive_logical_messages(other);
  const ReplaySchedule schedule(other, msgs, logical);
  EXPECT_THROW(verify::run_differential_suite(res.trace, res.offsets, msgs, schedule),
               std::invalid_argument);
}

TEST(Differential, SeededDivergenceInContractPairIsCaught) {
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  auto outputs = verify::run_all_methods(res.trace, res.offsets, msgs, schedule);

  for (auto& m : outputs) {
    if (m.name != "interpolation+clc-parallel") continue;
    for (Rank r = 0; r < m.ts.ranks(); ++r) {
      if (!m.ts.of_rank(r).empty()) {
        m.ts.of_rank(r).front() += 1e-3;  // simulate a miscompiled thread
        break;
      }
    }
  }
  const auto report = verify::compare_methods(res.trace, outputs, 1e-9);
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures.front().find("clc"), std::string::npos)
      << report.failures.front();
}

TEST(Differential, ScannersAgreeOnFixture) {
  const AppRunResult res = small_fixture();
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);
  std::vector<std::string> failures;
  const std::size_t comparisons = verify::cross_check_scans(res.trace, schedule, failures);
  EXPECT_EQ(comparisons, 2u);
  EXPECT_TRUE(failures.empty()) << failures.front();
}

TEST(Differential, ToleranceMustBeNonNegative) {
  const AppRunResult res = small_fixture();
  EXPECT_THROW(verify::compare_methods(res.trace, {}, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace chronosync
