#include "workloads.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "analysis/clock_condition_stream.hpp"
#include "benchkit/metrics.hpp"
#include "clockmodel/timer_spec.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "scenario/runner.hpp"
#include "sync/clc_parallel.hpp"
#include "sync/clc_stream.hpp"
#include "sync/interpolation.hpp"
#include "topology/cluster.hpp"
#include "topology/pinning.hpp"
#include "trace/logical_messages.hpp"
#include "trace/stream_io.hpp"
#include "verify/invariants.hpp"
#include "workload/sweep.hpp"

namespace pipeline_bench {

namespace cs = chronosync;

namespace {

// -- shared helpers ------------------------------------------------------------

/// Bytes requested through operator new since the process started.
std::uint64_t allocated_bytes() { return cs::benchkit::allocation_totals().bytes; }

/// Records the bytes allocated since `since` as the per-pass count `name`.
void count_alloc(SpanLog* log, const char* name, std::uint64_t since) {
  if (log != nullptr) log->count(name, static_cast<double>(allocated_bytes() - since));
}

/// The randomized-shift sweep both trace workloads run, with a barrier every
/// 50 rounds and the MPI_Wtime timer on the Xeon cluster model.  As in the
/// perf_clc sweep, ranks sit one per node while the cluster has enough nodes
/// and fill cores block-wise beyond that.
cs::AppRunResult generate_sweep(int ranks, int rounds, cs::Duration gap_mean,
                                std::uint64_t seed) {
  const cs::RngTree tree(seed);
  cs::SweepConfig cfg;
  cfg.rounds = rounds;
  cfg.gap_mean = gap_mean;
  cfg.collective_every = 50;
  cfg.shift_seed = tree.derive("sweep.shift");
  cs::JobConfig job;
  const cs::ClusterSpec cluster = cs::clusters::xeon_rwth();
  job.placement = ranks <= cluster.nodes ? cs::pinning::inter_node(cluster, ranks)
                                         : cs::pinning::block(cluster, ranks);
  job.timer = cs::timer_specs::mpi_wtime();
  job.seed = tree.derive("sweep.job");
  return cs::run_sweep(cfg, std::move(job));
}

void expect(PassResult& r, bool cond, const std::string& what) {
  if (!cond) r.failures.push_back(what);
}

// -- offline-64r ---------------------------------------------------------------

/// In-memory post-mortem correction of a 64-rank, ~10^6-event trace: v2 read,
/// message matching, replay schedule, interpolation, CLC, zero-slack audit,
/// v2 write of the corrected trace.
class OfflineWorkload final : public Workload {
 public:
  explicit OfflineWorkload(const ScratchDir& dir)
      : in_(dir.file("offline_in.v2")), out_(dir.file("offline_out.v2")) {}

  void setup(std::uint64_t seed) override {
    cs::AppRunResult res = generate_sweep(kRanks, kRounds, kGap, seed);
    cs::write_trace_v2_file(res.trace, in_);
    offsets_.emplace(std::move(res.offsets));
  }

  PassResult pass(SpanLog* log) override {
    PassResult r;
    // Heap-held: the schedule keeps a pointer to the trace, so the state must
    // not move when it is retained for side().
    auto state = std::make_unique<State>();
    State& st = *state;
    {
      Span s(log, "trace.read_v2");
      st.trace = cs::read_trace_v2_file(in_);
    }
    std::vector<cs::MessageRecord> messages;
    {
      Span s(log, "trace.match_messages");
      const std::uint64_t a0 = allocated_bytes();
      messages = st.trace.match_messages();
      count_alloc(log, "trace.match_messages.alloc_bytes", a0);
    }
    std::vector<cs::LogicalMessage> logical;
    {
      Span s(log, "trace.logical_messages");
      logical = cs::derive_logical_messages(st.trace);
    }
    {
      Span s(log, "sync.replay_schedule");
      st.schedule.emplace(st.trace, messages, logical);
    }
    {
      Span s(log, "sync.interpolation");
      st.input = cs::apply_correction(st.trace, cs::LinearInterpolation::from_store(*offsets_));
    }
    {
      Span s(log, "sync.clc");
      const std::uint64_t a0 = allocated_bytes();
      st.clc = cs::controlled_logical_clock(st.trace, *st.schedule, st.input);
      count_alloc(log, "sync.clc.alloc_bytes", a0);
    }
    cs::verify::VerifyReport audit;
    {
      Span s(log, "verify.audit");
      audit = cs::verify::InvariantChecker(st.trace, *st.schedule, {})
                  .check_correction(st.input, st.clc.corrected);
    }
    r.events = st.trace.total_events();
    expect(r, audit.ok(), "zero-slack audit of the CLC output: " + audit.summary());

    // The CLC reads timestamps only from its input array, so the trace can
    // carry the corrected timestamps from here on.
    for (cs::Rank rank = 0; rank < st.trace.ranks(); ++rank) {
      auto& events = st.trace.events(rank);
      const auto& ts = st.clc.corrected.of_rank(rank);
      for (std::size_t i = 0; i < events.size(); ++i) events[i].local_ts = ts[i];
    }
    {
      Span s(log, "trace.write_v2");
      cs::write_trace_v2_file(st.trace, out_);
    }
    r.out_bytes = file_size(out_);
    const std::uint64_t read_back = cs::index_trace_v2_file(out_).total_events;
    expect(r, read_back == r.events,
           "corrected v2 file reads back " + std::to_string(read_back) + " events, expected " +
               std::to_string(r.events));

    r.counts = {{"trace.match_messages.messages", static_cast<double>(messages.size())},
                {"trace.logical_messages.messages", static_cast<double>(logical.size())},
                {"sync.replay_schedule.edges", static_cast<double>(st.schedule->edges())},
                {"sync.clc.violations_repaired", static_cast<double>(st.clc.violations_repaired)},
                {"verify.audit.edges_checked", static_cast<double>(audit.edges_checked)},
                {"trace.write_v2.bytes", static_cast<double>(r.out_bytes)}};
    if (log != nullptr) last_ = std::move(state);
    return r;
  }

  /// Times the threaded CLC at 1 and 4 threads on the last traced
  /// pass's schedule and checks it against the sequential result.
  std::vector<std::string> side(SpanLog& log) override {
    std::vector<std::string> failures;
    if (!last_) return failures;
    const State& st = *last_;
    for (const int threads : {1, 4}) {
      const std::uint64_t t0 = cs::obs::now_ns();
      const cs::ClcResult par =
          cs::controlled_logical_clock_parallel(st.trace, *st.schedule, st.input, {}, threads);
      log.count("sync.clc_parallel.t" + std::to_string(threads) + "_s",
                static_cast<double>(cs::obs::now_ns() - t0) * 1e-9);
      for (cs::Rank rank = 0; rank < st.trace.ranks(); ++rank) {
        if (par.corrected.of_rank(rank) != st.clc.corrected.of_rank(rank)) {
          failures.push_back("parallel CLC at " + std::to_string(threads) +
                             " thread(s) differs from the sequential CLC on rank " +
                             std::to_string(rank));
          break;
        }
      }
    }
    last_.reset();
    return failures;
  }

 private:
  static constexpr int kRanks = 64;               // > 62 nodes: block pinning
  static constexpr int kRounds = 3900;             // ~1.0e6 events
  static constexpr cs::Duration kGap = 50e-6;      // the sweep's default gap

  struct State {
    cs::Trace trace;
    std::optional<cs::ReplaySchedule> schedule;
    cs::TimestampArray input;
    cs::ClcResult clc;
  };

  std::string in_;
  std::string out_;
  std::optional<cs::OffsetStore> offsets_;
  std::unique_ptr<State> last_;
};

// -- stream-8r -----------------------------------------------------------------

/// Out-of-core windowed CLC of an 8-rank, ~2.5*10^6-event trace on its raw local
/// timestamps, followed by the streaming clock-condition scan of the output.
class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(const ScratchDir& dir)
      : in_(dir.file("stream_in.v2")), out_(dir.file("stream_out.v2")) {}

  /// The trace is simulated and written by a child process, so the
  /// multi-million-event Trace never lives in (or raises the peak RSS of) the
  /// measuring process.
  void setup(std::uint64_t seed) override {
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      int code = 0;
      try {
        cs::write_trace_v2_file(generate_sweep(kRanks, kRounds, kGap, seed).trace, in_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "stream-8r generator: %s\n", e.what());
        code = 1;
      }
      ::_exit(code);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("stream-8r input generation failed");
    }
    input_events_ = cs::index_trace_v2_file(in_).total_events;
  }

  PassResult pass(SpanLog* log) override {
    PassResult r;
    cs::StreamClcStats st;
    std::uint64_t alloc = 0;
    {
      Span s(log, "sync.clc_stream");
      const std::uint64_t a0 = allocated_bytes();
      st = cs::clc_stream_file(in_, out_);
      alloc = allocated_bytes() - a0;
    }
    cs::ClockConditionReport scan;
    {
      Span s(log, "analysis.scan_stream");
      scan = cs::scan_clock_condition_file(out_);
    }
    r.events = st.events;
    r.out_bytes = file_size(out_);
    if (log != nullptr && st.events > 0) {
      log->count("sync.clc_stream.alloc_bytes_per_event",
                 static_cast<double>(alloc) / static_cast<double>(st.events));
    }
    expect(r, st.events == input_events_,
           "clc_stream processed " + std::to_string(st.events) + " events, input has " +
               std::to_string(input_events_));
    expect(r, scan.total_events == input_events_, "streaming scan saw a different event count");
    expect(r, scan.violations() == 0,
           "streaming scan found " + std::to_string(scan.violations()) +
               " clock-condition violation(s) in the corrected output");
    expect(r, st.forced == 0 && st.horizon_dropped == 0,
           "clc_stream diverged: forced=" + std::to_string(st.forced) +
               " horizon_dropped=" + std::to_string(st.horizon_dropped));

    r.counts = {{"sync.clc_stream.violations_repaired",
                 static_cast<double>(st.violations_repaired)},
                {"sync.clc_stream.peak_resident_events",
                 static_cast<double>(st.peak_resident_events)},
                {"sync.clc_stream.peak_outstanding_msgs",
                 static_cast<double>(st.peak_outstanding_msgs)},
                {"sync.clc_stream.spilled_msgs", static_cast<double>(st.spilled_msgs)},
                {"sync.clc_stream.ramp_clamped", static_cast<double>(st.ramp_clamped)},
                {"sync.clc_stream.horizon_dropped", static_cast<double>(st.horizon_dropped)},
                {"sync.clc_stream.forced", static_cast<double>(st.forced)},
                {"sync.clc_stream.edges", static_cast<double>(st.p2p_edges + st.logical_edges)},
                {"trace.write_v2.bytes", static_cast<double>(r.out_bytes)}};
    return r;
  }

 private:
  static constexpr int kRanks = 8;           // one rank per node
  static constexpr int kRounds = 77375;      // ~2.5e6 events
  // A 10 ms gap makes the trace span ~13 min of virtual time, towards the
  // paper's long-run regime.  The windowed CLC keeps about its `horizon`
  // (10 s of local time) resident, so at the sweep's default 50 us gap the
  // trace would span only seconds and stay resident as a whole.
  static constexpr cs::Duration kGap = 10e-3;

  std::string in_;
  std::string out_;
  std::uint64_t input_events_ = 0;
};

// -- scenarios -----------------------------------------------------------------

/// The committed scenario battery, pinned so the workload does not change
/// when specs are added: the 15 specs of scenarios/ plus the slow drift storm.
const std::vector<std::string>& scenario_files() {
  static const std::vector<std::string> files = {
      "asymmetric-network.json",   "baseline-tsc.json",
      "churn-join-leave.json",     "churn-storm-combo.json",
      "constant-drift.json",       "drift-storm-dvfs-observable.json",
      "drift-storm-dvfs.json",     "drift-storm-ntp-victim.json",
      "heavy-tail-elephants.json", "leap-second.json",
      "ntp-discipline.json",       "ntp-step.json",
      "perfect-clock.json",        "random-walk-wander.json",
      "varying-congestion.json",   "slow/drift-storm-large.json"};
  return files;
}

const std::vector<std::string>& scenario_phases() {
  static const std::vector<std::string> phases = {
      "scenario.simulate",   "scenario.inject", "scenario.audit_raw",
      "scenario.differential", "scenario.repair", "scenario.audit_repair",
      "scenario.stream_check"};
  return phases;
}

std::string stem(const std::string& file) {
  const std::size_t slash = file.rfind('/');
  const std::string base = slash == std::string::npos ? file : file.substr(slash + 1);
  return base.substr(0, base.rfind('.'));
}

/// Metric names allow letters, digits, '_', '.' and '-'.
std::string metric_name(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' && c != '-') c = '_';
  }
  return name;
}

/// One pass runs scenario::run_scenario on every pinned spec.  The seed of
/// each spec is derived from the benchmark seed.
class ScenarioWorkload final : public Workload {
 public:
  ScenarioWorkload(const ScratchDir& dir, std::string scenarios_dir)
      : dir_(dir.path()), scenarios_dir_(std::move(scenarios_dir)) {}

  void setup(std::uint64_t seed) override {
    specs_.clear();
    const cs::RngTree tree(seed);
    for (const std::string& file : scenario_files()) {
      cs::scenario::ScenarioSpec spec =
          cs::scenario::load_scenario_file(scenarios_dir_ + "/" + file);
      spec.seed = tree.derive(spec.name);
      specs_.push_back({stem(file), std::move(spec)});
    }
  }

  PassResult pass(SpanLog* log) override {
    PassResult r;
    cs::obs::set_level(log != nullptr ? cs::obs::Level::Trace : cs::obs::Level::Off);
    std::vector<std::uint64_t> bench_ns;
    cs::scenario::ScenarioRunOptions opt;
    opt.work_dir = dir_;
    for (const auto& [name, spec] : specs_) {
      const std::string span = "scenario.run." + name;
      const std::uint64_t t0 = cs::obs::now_ns();
      cs::scenario::ScenarioOutcome out;
      {
        Span s(log, span.c_str());
        out = cs::scenario::run_scenario(spec, opt);
      }
      bench_ns.push_back(cs::obs::now_ns() - t0);
      r.events += out.events;
      if (!out.ok()) r.failures.push_back(out.summary());
      r.counts["scenario." + name + ".events"] = static_cast<double>(out.events);
      r.counts["scenario." + name + ".clc_repairs"] = static_cast<double>(out.clc_repairs);
    }
    cs::obs::set_level(cs::obs::Level::Off);
    if (log != nullptr) record_obs_spans(*log, bench_ns, r);
    return r;
  }

 private:
  /// Wall time of every scenario phase and verify method span the program
  /// recorded, and the gap between the benchmark's span around each
  /// run_scenario call and the program's own scenario.run span.
  void record_obs_spans(SpanLog& log, const std::vector<std::uint64_t>& bench_ns,
                        PassResult& r) const {
    std::vector<std::uint64_t> run_ns;
    for (const ObsSpan& s : drain_obs_spans()) {
      const std::uint64_t dur = s.t1_ns - s.t0_ns;
      if (s.name == "scenario.run") {
        run_ns.push_back(dur);
      } else if (s.name.rfind("scenario.", 0) == 0 || s.name.rfind("verify.method.", 0) == 0) {
        log.count(metric_name(s.name) + ".wall_s", static_cast<double>(dur) * 1e-9);
      }
    }
    if (run_ns.size() != bench_ns.size()) {
      r.failures.push_back("obs recorded " + std::to_string(run_ns.size()) +
                           " scenario.run span(s) for " + std::to_string(bench_ns.size()) +
                           " run_scenario call(s)");
      return;
    }
    double gap = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < run_ns.size(); ++i) {
      gap += static_cast<double>(bench_ns[i]) - static_cast<double>(run_ns[i]);
      total += static_cast<double>(bench_ns[i]);
    }
    log.count("bench.obs_gap_s", gap * 1e-9);
    log.count("bench.obs_gap_pct", 100.0 * gap / total);
  }

  std::string dir_;
  std::string scenarios_dir_;
  std::vector<std::pair<std::string, cs::scenario::ScenarioSpec>> specs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"offline-64r", "stream-8r", "scenarios"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "trace.read_v2.self_s",
        "trace.write_v2.self_s",
        "trace.write_v2.bytes",
        "trace.match_messages.self_s",
        "trace.match_messages.alloc_bytes",
        "trace.match_messages.messages",
        "trace.logical_messages.self_s",
        "sync.replay_schedule.self_s",
        "sync.replay_schedule.edges",
        "sync.interpolation.self_s",
        "sync.clc.self_s",
        "sync.clc.alloc_bytes",
        "sync.clc.violations_repaired",
        "sync.clc_parallel.t1_s",
        "sync.clc_parallel.t4_s",
        "sync.clc_stream.self_s",
        "sync.clc_stream.alloc_bytes_per_event",
        "sync.clc_stream.peak_resident_events",
        "sync.clc_stream.peak_outstanding_msgs",
        "sync.clc_stream.spilled_msgs",
        "sync.clc_stream.ramp_clamped",
        "sync.clc_stream.horizon_dropped",
        "sync.clc_stream.forced",
        "sync.clc_stream.violations_repaired",
        "analysis.scan_stream.self_s",
        "verify.audit.self_s",
        "verify.audit.edges_checked",
    };
    for (const std::string& file : scenario_files()) {
      n.push_back("scenario.run." + stem(file) + ".self_s");
    }
    for (const std::string& phase : scenario_phases()) n.push_back(phase + ".wall_s");
    for (const std::string& method : cs::verify::all_method_names()) {
      n.push_back(metric_name("verify.method." + method) + ".wall_s");
    }
    n.push_back("bench.obs_gap_s");
    n.push_back("bench.obs_gap_pct");
    n.push_back("bench.trace_overhead_pct");
    return n;
  }();
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const ScratchDir& dir,
                                        const std::string& scenarios_dir) {
  if (name == "offline-64r") return std::make_unique<OfflineWorkload>(dir);
  if (name == "stream-8r") return std::make_unique<StreamWorkload>(dir);
  if (name == "scenarios") return std::make_unique<ScenarioWorkload>(dir, scenarios_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace pipeline_bench
