#include "spans.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "benchkit/json.hpp"
#include "obs/obs.hpp"

namespace pipeline_bench {

using chronosync::benchkit::JsonValue;
using chronosync::benchkit::json_escape;

std::size_t SpanLog::open(std::string name) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  rec.pass = pass_;
  rec.t0_ns = chronosync::obs::now_ns();
  spans_.push_back(std::move(rec));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  spans_[id].t1_ns = chronosync::obs::now_ns();
  if (open_.empty() || open_.back() != id) throw std::logic_error("spans closed out of order");
  open_.pop_back();
}

void SpanLog::count(const std::string& name, double value) {
  counts_.push_back({name, value, pass_});
}

std::map<std::string, double> SpanLog::pass_values(int pass) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.pass != pass) continue;
    const double dur = static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9;
    self[i] += dur;
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= dur;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].pass == pass) out[spans_[i].name + ".self_s"] += self[i];
  }
  for (const Count& c : counts_) {
    if (c.pass == pass) out[c.name] += c.value;
  }
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  for (const SpanRecord& s : spans_) {
    f << "{\"span\":" << json_escape(s.name) << ",\"t0_ns\":" << s.t0_ns
      << ",\"t1_ns\":" << s.t1_ns << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass
      << "}\n";
  }
  for (const Count& c : counts_) {
    f << "{\"counter\":" << json_escape(c.name) << ",\"value\":" << JsonValue(c.value).dump()
      << ",\"pass\":" << c.pass << "}\n";
  }
  if (!f.good()) throw std::runtime_error("cannot write span log " + path);
}

std::vector<ObsSpan> drain_obs_spans() {
  const std::uint64_t dropped = chronosync::obs::trace_stats().dropped;
  if (dropped > 0) {
    throw std::runtime_error("obs dropped " + std::to_string(dropped) + " span(s)");
  }
  std::ostringstream os;
  chronosync::obs::write_chrome_trace(os);
  chronosync::obs::reset();
  const JsonValue doc = JsonValue::parse(os.str());

  // Per thread, B/E events arrive properly nested and in time order.
  std::map<int, std::vector<ObsSpan>> open;
  std::vector<ObsSpan> done;
  const auto to_ns = [](double us) { return static_cast<std::uint64_t>(std::llround(us * 1e3)); };
  for (const JsonValue& ev : doc.find("traceEvents")->items()) {
    const std::string& ph = ev.find("ph")->as_string();
    if (ph != "B" && ph != "E") continue;
    const int tid = static_cast<int>(ev.find("tid")->as_number());
    const std::uint64_t ts = to_ns(ev.find("ts")->as_number());
    auto& stack = open[tid];
    if (ph == "B") {
      stack.push_back({ev.find("name")->as_string(), tid, ts, 0});
    } else {
      if (stack.empty()) throw std::runtime_error("obs trace: unmatched span end");
      ObsSpan s = std::move(stack.back());
      stack.pop_back();
      s.t1_ns = ts;
      done.push_back(std::move(s));
    }
  }
  return done;
}

}  // namespace pipeline_bench
