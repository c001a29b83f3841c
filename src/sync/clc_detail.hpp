// Internal pieces of the CLC shared between the sequential and the parallel
// implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sync/clc.hpp"
#include "sync/replay.hpp"
#include "trace/trace.hpp"

namespace chronosync::clc_detail {

/// A forward-pass jump: the event at global index `g` was raised by `size`
/// (> 0) to satisfy the clock condition.
struct Jump {
  std::uint32_t g = 0;
  Duration size = 0.0;
};

struct ForwardPassResult {
  std::vector<Time> lc;  ///< corrected timestamp per global event index
  /// Per rank, the events that jumped in local order.  Global numbering is
  /// rank-major, so the lists read in rank order are sorted by global index.
  std::vector<std::vector<Jump>> rank_jumps;
  std::size_t violations_repaired = 0;
  Duration max_jump = 0.0;
  Duration total_jump = 0.0;
};

ForwardPassResult forward_pass(const Trace& trace, const ReplaySchedule& schedule,
                               const TimestampArray& input, const ClcOptions& options);

/// Recomputes the jump aggregates (count, max, total) from the jump lists in
/// global-index order — deterministic across replay orders and thread
/// counts.
void finalize_stats(ForwardPassResult& fwd);

/// Applies backward amortization in place on the forward result.
void backward_pass(const Trace& trace, const ReplaySchedule& schedule, ForwardPassResult& fwd,
                   const ClcOptions& options);

}  // namespace chronosync::clc_detail
