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

/// Concatenates per-rank jump lists (each in local order) in rank order,
/// which is global-index order because global numbering is rank-major.
std::vector<Jump> concat_jumps(const std::vector<std::vector<Jump>>& per_rank);

struct ForwardPassResult {
  std::vector<Time> lc;     ///< corrected timestamp per global event index
  std::vector<Jump> jumps;  ///< the events that jumped, sorted by global index
  std::size_t violations_repaired = 0;
  Duration max_jump = 0.0;
  Duration total_jump = 0.0;
};

ForwardPassResult forward_pass(const Trace& trace, const ReplaySchedule& schedule,
                               const TimestampArray& input, const ClcOptions& options);

/// Recomputes the jump aggregates (count, max, total) from the jump list in
/// global-index order — deterministic across replay orders and thread
/// counts.
void finalize_stats(ForwardPassResult& fwd);

/// Applies backward amortization in place on the forward result.
void backward_pass(const Trace& trace, const ReplaySchedule& schedule, ForwardPassResult& fwd,
                   const ClcOptions& options);

}  // namespace chronosync::clc_detail
