// The benchmark's three workloads.  Each generates its inputs from the seed
// during set-up; a pass then drives the library's public entry points over
// those inputs and checks the output.  The caller waits for every pass, so a
// run is a closed loop with one client.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env.hpp"
#include "spans.hpp"

namespace pipeline_bench {

struct PassResult {
  std::uint64_t events = 0;               ///< trace events the pass processed
  std::uint64_t out_bytes = 0;            ///< corrected v2 output written (0: none)
  std::vector<std::string> failures;      ///< output-check breaches (empty = ok)
  std::map<std::string, double> counts;   ///< counts that repeat exactly per seed

  bool ok() const { return failures.empty(); }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs for `seed` into the run's scratch directory.
  virtual void setup(std::uint64_t seed) = 0;

  /// One pass over the inputs.  `log` is null in untraced passes; otherwise
  /// every public layer call is wrapped in a span and its counts recorded.
  virtual PassResult pass(SpanLog* log) = 0;

  /// Side measurements after a traced pass, outside its wall time.  Returns
  /// output-check breaches like pass().
  virtual std::vector<std::string> side(SpanLog& /*log*/) { return {}; }
};

/// Names accepted by make_workload, in benchmark order.
const std::vector<std::string>& workload_names();

/// Per-layer metric names the traced run reports, in output order.  A layer
/// that a workload bypasses reports 0.
const std::vector<std::string>& per_layer_names();

std::unique_ptr<Workload> make_workload(const std::string& name, const ScratchDir& dir,
                                        const std::string& scenarios_dir);

}  // namespace pipeline_bench
