#include <gtest/gtest.h>
#include <stdlib.h>

#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "topology/cluster.hpp"
#include "trace/logical_messages.hpp"
#include "verify/differential.hpp"
#include "verify/fault_injection.hpp"
#include "workload/smg2000.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

// The windowed streaming CLC promises bit-identical output to the in-memory
// CLC whenever its divergence counters stay zero.  cross_check_windowed_clc
// asserts exactly that; here it runs over real workload traces (message +
// collective traffic, genuine drift-induced violations) and over several
// option points, so the sanitizer suite sweeps the whole streaming engine.

struct Replay {
  explicit Replay(const Trace& trace)
      : messages(trace.match_messages()),
        logical(derive_logical_messages(trace)),
        schedule(trace, messages, logical) {}
  std::vector<MessageRecord> messages;
  std::vector<LogicalMessage> logical;
  ReplaySchedule schedule;
};

std::vector<std::string> check(const Trace& trace, StreamClcOptions opt) {
  const Replay replay(trace);
  std::vector<std::string> failures;
  StreamClcStats stats;
  const std::size_t n = verify::cross_check_windowed_clc(trace, replay.schedule,
                                                         testing::TempDir(), opt, failures,
                                                         &stats);
  EXPECT_GT(n, 1u);
  EXPECT_EQ(stats.events, trace.total_events());
  return failures;
}

TEST(WindowedClc, SweepWorkloadMatchesInMemory) {
  SweepConfig cfg;
  cfg.rounds = 25;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 17;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;

  StreamClcOptions opt;
  opt.emit_batch = 24;  // small batches: exercise interim sweeps + finality rules
  opt.backward_window = 1e3;  // above every ramp: the run must be divergence-free
  for (const std::string& f : check(trace, opt)) ADD_FAILURE() << f;
}

TEST(WindowedClc, CollectiveHeavyWorkloadMatchesInMemory) {
  SmgConfig cfg;
  cfg.px = 4;
  cfg.py = 2;
  cfg.levels = 3;
  cfg.iterations = 2;
  cfg.setup_exchanges = 1;
  cfg.level_compute = 100 * units::us;
  cfg.pre_sleep = 0.5;
  cfg.post_sleep = 0.5;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 8);
  job.timer = timer_specs::intel_tsc();
  job.seed = 23;
  const Trace trace = run_smg(cfg, std::move(job)).trace;

  StreamClcOptions opt;
  opt.emit_batch = 16;
  opt.backward_window = 1e3;
  for (const std::string& f : check(trace, opt)) ADD_FAILURE() << f;
  StreamClcOptions no_ba;
  no_ba.clc.backward_amortization = false;
  no_ba.emit_batch = 16;
  for (const std::string& f : check(trace, no_ba)) ADD_FAILURE() << f;
}

TEST(WindowedClc, ConcurrentCallsShareOneWorkDir) {
  // Two cross-checks at once in one work_dir, as concurrent test processes
  // do: each must get its own scratch files, and both must clean up.
  std::string dir = testing::TempDir() + "/windowed_clc_race_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);

  SweepConfig cfg;
  cfg.rounds = 40;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 29;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;
  StreamClcOptions opt;
  opt.emit_batch = 8;
  opt.backward_window = 1e3;
  const Replay replay(trace);

  std::vector<std::string> failures[2];
  std::size_t comparisons[2] = {0, 0};
  std::thread workers[2];
  for (int k = 0; k < 2; ++k) {
    workers[k] = std::thread([&, k] {
      try {
        for (int rep = 0; rep < 20; ++rep) {
          comparisons[k] +=
              verify::cross_check_windowed_clc(trace, replay.schedule, dir, opt, failures[k]);
        }
      } catch (const std::exception& e) {
        failures[k].push_back(e.what());
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int k = 0; k < 2; ++k) {
    EXPECT_GT(comparisons[k], 20u);
    for (const std::string& f : failures[k]) ADD_FAILURE() << "thread " << k << ": " << f;
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir)) << "scratch files left in " << dir;
  std::filesystem::remove_all(dir);
}

TEST(WindowedClc, ScheduleOfAnotherTraceIsRejected) {
  SweepConfig cfg;
  cfg.rounds = 20;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 31;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;
  const Trace other = verify::with_empty_ranks(trace);
  ASSERT_NE(other.total_events(), trace.total_events());
  const Replay replay(other);
  std::vector<std::string> failures;
  EXPECT_THROW(verify::cross_check_windowed_clc(trace, replay.schedule, testing::TempDir(), {},
                                                failures),
               std::invalid_argument);
}

}  // namespace
}  // namespace chronosync
