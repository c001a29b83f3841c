// End-to-end trace-correction benchmark: command line, pass loop and results.
//
//   pipeline_bench --workload <offline-64r|stream-8r|scenarios> --seed N
//                  --seconds S --trace 0|1
//   pipeline_bench --selftest
//
// A run sets the workload up kSetups times (input generation plus one warm-up
// pass; setup_s is the median), then runs closed-loop passes for S seconds.
// With --trace 0 every pass is untraced and the run reports the end-to-end
// metrics.  With --trace 1 traced and untraced passes alternate: the traced
// ones give the per-layer metrics, and the two kinds together give the
// tracing overhead.  The last stdout line is the JSON result; a report line
// and a detail line with the machine/build stamp come before it.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "benchkit/json.hpp"
#include "common/cli.hpp"
#include "env.hpp"
#include "obs/obs.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pb = pipeline_bench;
using chronosync::benchkit::JsonValue;

namespace {

constexpr int kSetups = 3;
constexpr int kMinPasses = 3;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(chronosync::obs::now_ns() - t0_ns) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of a few standard percentiles that still has at least ten
/// passes beyond it, with its pass time; percentile 0 when there is none.
std::pair<double, double> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      const auto idx = static_cast<std::size_t>(std::ceil(p / 100.0 * n)) - 1;
      return {p, v[std::min(idx, v.size() - 1)]};
    }
  }
  return {0.0, 0.0};
}

std::string unit_of(const std::string& metric) {
  const auto ends = [&](const char* s) {
    const std::string suffix(s);
    return metric.size() >= suffix.size() &&
           metric.compare(metric.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_per_event")) return "B/event";
  if (ends("_s")) return "s";
  if (ends("_pct")) return "%";
  if (ends("bytes")) return "B";
  return "count";
}

JsonValue metric(double value, const std::string& unit) {
  auto m = JsonValue::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

void report_failures(const std::string& what, const std::vector<std::string>& failures) {
  for (const std::string& f : failures) {
    std::cerr << "[pipeline_bench] " << what << ": " << f << "\n";
  }
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_root = ".bench_work";
  std::string scenarios_dir = "scenarios";
};

int run(const Options& opt) {
  const pb::Stamp stamp = pb::Stamp::collect();
  const pb::ScratchDir dir(opt.work_root);

  // Set-up: input generation plus one warm-up pass, kSetups times.  Every
  // set-up uses the same seed, so their warm-up counts must agree exactly.
  std::vector<double> setup_s;
  std::unique_ptr<pb::Workload> wl;
  bool correct = true;
  std::map<std::string, double> first_counts;
  for (int k = 0; k < kSetups; ++k) {
    wl.reset();
    const std::uint64_t t0 = chronosync::obs::now_ns();
    wl = pb::make_workload(opt.workload, dir, opt.scenarios_dir);
    wl->setup(opt.seed);
    const pb::PassResult warm = wl->pass(nullptr);
    setup_s.push_back(seconds_since(t0));
    if (!warm.ok()) {
      correct = false;
      report_failures("warm-up pass", warm.failures);
    }
    if (k == 0) {
      first_counts = warm.counts;
    } else if (warm.counts != first_counts) {
      correct = false;
      report_failures("set-up", {"counts differ between set-ups with the same seed"});
    }
  }
  ::malloc_trim(0);
  const bool rss_reset = pb::reset_peak_rss();

  pb::SpanLog log;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<std::map<std::string, double>> traced_values;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  pb::PassResult last;
  const std::uint64_t start = chronosync::obs::now_ns();
  for (int i = 0; seconds_since(start) < opt.seconds || attempted < kMinPasses; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    log.begin_pass(i);
    const std::uint64_t t0 = chronosync::obs::now_ns();
    std::vector<std::string> failures;
    try {
      last = wl->pass(traced ? &log : nullptr);
      failures = last.failures;
    } catch (const std::exception& e) {
      failures.push_back(std::string("pass threw: ") + e.what());
    }
    (traced ? traced_s : untraced_s).push_back(seconds_since(t0));
    if (traced) {
      const auto side = wl->side(log);
      failures.insert(failures.end(), side.begin(), side.end());
      auto values = log.pass_values(i);
      values.insert(last.counts.begin(), last.counts.end());
      traced_values.push_back(std::move(values));
    }
    ++attempted;
    if (!failures.empty()) {
      ++failed;
      report_failures("pass " + std::to_string(i), failures);
    }
  }
  const double peak_mb = static_cast<double>(pb::peak_rss_bytes()) / (1024.0 * 1024.0);
  if (failed > 0) correct = false;

  const double events = static_cast<double>(last.events);
  const double eps = events / median(untraced_s);
  // The bounded throughput metric uses the fastest pass: on a host whose
  // memory system other tenants share, the median of a 30 s run moves with
  // their load far more than the fastest pass does.
  const double best_eps = events / *std::min_element(untraced_s.begin(), untraced_s.end());
  const auto [tail_p, tail_s] = tail_percentile(untraced_s);

  std::ostringstream report;
  report << opt.workload << ": events_per_s=" << eps << " events/s (median pass "
         << median(untraced_s) << " s over " << untraced_s.size() << " untraced passes, ";
  if (tail_p > 0) {
    report << "p" << tail_p << " " << tail_s << " s";
  } else {
    report << "too few passes for a tail percentile";
  }
  report << ") best_pass_events_per_s=" << best_eps << " events/s peak_rss_mb=" << peak_mb << " MB setup_s=" << median(setup_s)
         << " s error_rate=" << static_cast<double>(failed) / static_cast<double>(attempted)
         << " (" << failed << "/" << attempted << ")";
  if (last.out_bytes > 0) {
    report << " out_bytes_per_event=" << static_cast<double>(last.out_bytes) / events
           << " B/event";
  }
  std::cout << report.str() << "\n";

  auto detail = JsonValue::object();
  detail.set("workload", opt.workload);
  detail.set("seed", static_cast<std::int64_t>(opt.seed));
  detail.set("events", events);
  detail.set("events_per_s", eps);
  detail.set("best_pass_events_per_s", best_eps);
  detail.set("passes_untraced", static_cast<std::int64_t>(untraced_s.size()));
  detail.set("passes_traced", static_cast<std::int64_t>(traced_s.size()));
  auto pass_s = JsonValue::array();
  for (const double t : untraced_s) pass_s.push_back(t);
  detail.set("untraced_pass_s", std::move(pass_s));
  detail.set("tail_percentile", tail_p);
  detail.set("tail_pass_s", tail_s);
  detail.set("error_rate", static_cast<double>(failed) / static_cast<double>(attempted));
  if (last.out_bytes > 0) {
    detail.set("out_bytes_per_event", static_cast<double>(last.out_bytes) / events);
  }
  detail.set("peak_rss_reset", rss_reset);
  detail.set("stamp", stamp.json());
  if (stamp.flagged) {
    std::cerr << "[pipeline_bench] warning: " << stamp.build_type
              << " / sanitizer build; timings are not representative\n";
  }

  auto metrics = JsonValue::object();
  if (!opt.trace) {
    metrics.set("best_pass_events_per_s", metric(best_eps, "events/s"));
    metrics.set("peak_rss_mb", metric(peak_mb, "MB"));
    metrics.set("setup_s", metric(median(setup_s), "s"));
  } else {
    for (const std::string& name : pb::per_layer_names()) {
      std::vector<double> per_pass;
      for (const auto& values : traced_values) {
        const auto it = values.find(name);
        per_pass.push_back(it == values.end() ? 0.0 : it->second);
      }
      metrics.set(name, metric(median(per_pass), unit_of(name)));
    }
    const double traced_eps = events / median(traced_s);
    metrics.set("bench.trace_overhead_pct", metric(100.0 * (eps / traced_eps - 1.0), "%"));
    detail.set("events_per_s_untraced", eps);
    detail.set("events_per_s_traced", traced_eps);
    const std::string spans_path = dir.path() + ".spans.jsonl";
    log.write_jsonl(spans_path);
    detail.set("spans", spans_path);
  }
  std::cout << JsonValue::object().set("detail", std::move(detail)).dump() << "\n";

  auto result = JsonValue::object();
  result.set("correct", correct);
  result.set("attempted", attempted);
  result.set("failed", failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  return 0;
}

/// Determinism self-test: for every workload, two set-ups with one seed give
/// exactly the same counts, and a set-up with another seed changes them.
int selftest(const Options& opt) {
  const pb::ScratchDir dir(opt.work_root);
  std::cout << std::setprecision(15);
  int bad = 0;
  for (const std::string& name : pb::workload_names()) {
    std::vector<std::map<std::string, double>> counts;
    for (const std::uint64_t seed : {opt.seed, opt.seed, opt.seed + 1}) {
      auto wl = pb::make_workload(name, dir, opt.scenarios_dir);
      wl->setup(seed);
      pb::PassResult r = wl->pass(nullptr);
      if (!r.ok()) {
        report_failures(name, r.failures);
        ++bad;
      }
      r.counts["out_bytes"] = static_cast<double>(r.out_bytes);
      r.counts["events"] = static_cast<double>(r.events);
      counts.push_back(std::move(r.counts));
    }
    const bool repeats = counts[0] == counts[1];
    const bool seed_matters = counts[0] != counts[2];
    std::cout << name << ": " << counts[0].size() << " counts; same seed "
              << (repeats ? "repeats exactly" : "DIFFERS") << "; other seed "
              << (seed_matters ? "changes them" : "DOES NOT change them") << "\n";
    for (const auto& [key, value] : counts[0]) {
      const double again = counts[1].count(key) ? counts[1].at(key) : NAN;
      const double other = counts[2].count(key) ? counts[2].at(key) : NAN;
      std::cout << "  " << key << " = " << value << (again == value ? "" : " (repeat: ")
                << (again == value ? "" : std::to_string(again) + ")") << "  other seed: " << other
                << "\n";
    }
    if (!repeats || !seed_matters) ++bad;
  }
  std::cout << (bad == 0 ? "selftest passed" : "selftest FAILED") << std::endl;
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const chronosync::Cli cli(argc, argv);
    Options opt;
    opt.workload = cli.get("workload", "");
    opt.seed = cli.get_seed(1);
    opt.seconds = cli.get_double("seconds", 10.0);
    opt.trace = cli.get_int("trace", 0) != 0;
    opt.work_root = cli.get("work-root", opt.work_root);
    opt.scenarios_dir = cli.get("scenarios-dir", opt.scenarios_dir);
    if (cli.has("selftest")) return selftest(opt);
    const auto& names = pb::workload_names();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
      std::cerr << "usage: pipeline_bench --workload <offline-64r|stream-8r|scenarios> "
                   "--seed N --seconds S --trace 0|1 | --selftest\n";
      return 2;
    }
    if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "pipeline_bench: " << e.what() << "\n";
    return 1;
  }
}
