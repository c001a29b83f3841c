// In-memory span and counter log of the traced benchmark run.
//
// The benchmark wraps each public layer call it makes in a Span.  A record
// holds the name, start, end, parent and pass id; records stay in memory and
// are written out once, at exit.  A span's self time is its duration minus
// the durations of its direct child spans (children run sequentially on the
// calling thread, so they never overlap).  Timestamps come from
// chronosync::obs::now_ns(), the clock the program's own obs spans use, so
// benchmark spans and obs spans are directly comparable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipeline_bench {

struct SpanRecord {
  std::string name;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  long parent = -1;  ///< index of the enclosing span, -1 at top level
  int pass = 0;
};

class SpanLog {
 public:
  void begin_pass(int pass) { pass_ = pass; }

  std::size_t open(std::string name);
  void close(std::size_t id);

  /// Adds `value` to the per-pass counter `name` (counts measured at the same
  /// boundary as the span around the call).
  void count(const std::string& name, double value);

  /// Self time in seconds per span name ("<name>.self_s") plus every counter
  /// of `pass`.
  std::map<std::string, double> pass_values(int pass) const;

  /// One JSON object per line: every span, then every counter.
  void write_jsonl(const std::string& path) const;

 private:
  struct Count {
    std::string name;
    double value = 0.0;
    int pass = 0;
  };
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
  std::vector<Count> counts_;
  int pass_ = 0;
};

/// RAII span; does nothing when `log` is null (the untraced run).
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) id_ = log_->open(name);
  }
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_ = 0;
};

/// A completed span of the program's own obs instrumentation.
struct ObsSpan {
  std::string name;
  int tid = 0;
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
};

/// Drains the spans recorded through chronosync::obs since the last drain
/// (read through the public chrome-trace export), then resets obs.  Throws if
/// obs dropped any span, since the per-phase times would then be short.
std::vector<ObsSpan> drain_obs_spans();

}  // namespace pipeline_bench
