#include "sync/clc.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/expect.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sync/clc_detail.hpp"

namespace chronosync {

namespace clc_detail {

ForwardPassResult forward_pass(const Trace& trace, const ReplaySchedule& schedule,
                               const TimestampArray& input, const ClcOptions& options) {
  CS_SPAN("clc.forward_pass");
  CS_REQUIRE(options.forward_decay >= 0.0 && options.forward_decay < 1.0,
             "forward_decay must be in [0, 1)");

  ForwardPassResult res;
  res.lc.assign(schedule.events(), 0.0);

  struct ProcState {
    bool has_prev = false;
    Time prev_input = 0.0;
    Time prev_lc = 0.0;
  };
  std::vector<ProcState> state(static_cast<std::size_t>(trace.ranks()));
  // The replay visits each rank's events in local order, so per-rank lists
  // come out sorted.
  std::vector<std::vector<Jump>> rank_jumps(static_cast<std::size_t>(trace.ranks()));

  schedule.replay([&](std::uint32_t g, const EventRef& ref) {
    auto& st = state[static_cast<std::size_t>(ref.proc)];
    const Time t = input.at(ref);

    // Forward amortization: carry the previous correction forward, decayed
    // by forward_decay per unit of elapsed local time, and never below zero
    // (the CLC only moves events forward).
    Time cand = t;
    if (st.has_prev) {
      const Duration dt = std::max(0.0, t - st.prev_input);
      const Duration carried =
          std::max(0.0, (st.prev_lc - st.prev_input) - options.forward_decay * dt);
      cand = std::max(t + carried, st.prev_lc);  // local order is inviolable
    }

    // Clock condition against every constraining send.
    Time bound = -kTimeInfinity;
    for (const auto& edge : schedule.incoming(g)) {
      bound = std::max(bound, res.lc[edge.source] + edge.l_min);
    }

    Time lc = cand;
    if (bound > cand) {
      lc = bound;
      rank_jumps[static_cast<std::size_t>(ref.proc)].push_back({g, bound - cand});
    }

    res.lc[g] = lc;
    st.prev_input = t;
    st.prev_lc = lc;
    st.has_prev = true;
  });

  res.jumps = concat_jumps(rank_jumps);
  finalize_stats(res);
  return res;
}

std::vector<Jump> concat_jumps(const std::vector<std::vector<Jump>>& per_rank) {
  std::size_t total = 0;
  for (const auto& v : per_rank) total += v.size();
  std::vector<Jump> out;
  out.reserve(total);
  for (const auto& v : per_rank) out.insert(out.end(), v.begin(), v.end());
  return out;
}

void finalize_stats(ForwardPassResult& fwd) {
  // Jump aggregates are derived from the jump list in global-index order,
  // so serial and parallel replays (whose per-event jumps are bit-identical)
  // report bit-identical statistics regardless of visit or thread order.
  fwd.violations_repaired = fwd.jumps.size();
  fwd.max_jump = 0.0;
  fwd.total_jump = 0.0;
  for (const Jump& j : fwd.jumps) {
    fwd.max_jump = std::max(fwd.max_jump, j.size);
    fwd.total_jump += j.size;
  }
}

void backward_pass(const Trace& trace, const ReplaySchedule& schedule,
                   ForwardPassResult& fwd, const ClcOptions& options) {
  CS_SPAN("clc.backward_pass");
  CS_REQUIRE(options.backward_slope > 0.0, "backward_slope must be positive");

  // Upper caps for send events: a send may be raised at most to its
  // receive's (forward-pass) timestamp minus l_min, or it would introduce a
  // fresh violation.  Receives and local events have no cap.
  std::vector<Time> cap(schedule.events(), kTimeInfinity);
  constexpr Duration kFpMargin = 1e-12;  // keeps rounded re-checks strictly safe
  for (std::uint32_t g = 0; g < schedule.events(); ++g) {
    for (const auto& edge : schedule.incoming(g)) {
      cap[edge.source] = std::min(cap[edge.source], fwd.lc[g] - edge.l_min - kFpMargin);
    }
  }

  // Per process, sweep backwards applying the ramp of the nearest following
  // jump; monotonicity is maintained by clamping against the successor.
  // Global numbering is rank-major, so rank r's jumps are the slice
  // [lo, hi) of the sorted list, walked here with a reverse cursor.
  const std::vector<Jump>& jumps = fwd.jumps;
  std::size_t lo = 0;
  for (Rank r = 0; r < trace.ranks(); ++r) {
    const auto n = static_cast<std::uint32_t>(trace.events(r).size());
    const std::uint32_t base = schedule.rank_begin(r);
    std::size_t hi = lo;
    while (hi < jumps.size() && jumps[hi].g < base + n) ++hi;
    std::size_t cursor = hi;
    lo = hi;
    if (n == 0) continue;

    bool have_jump = false;
    Time jump_at = 0.0;      // corrected timestamp of the jump event
    Duration jump_size = 0.0;
    Duration window = 0.0;

    Time successor = kTimeInfinity;
    for (std::uint32_t i = n; i-- > 0;) {
      const std::uint32_t g = base + i;
      const Time lc = fwd.lc[g];

      if (cursor > 0 && jumps[cursor - 1].g == g) {
        // This event is itself a jump: events before it are smoothed toward
        // it.  (The jump event keeps its forward-pass value.)
        --cursor;
        have_jump = true;
        jump_at = lc;
        jump_size = jumps[cursor].size;
        window = jump_size / options.backward_slope;
        successor = std::min(successor, lc);
        continue;
      }

      if (have_jump) {
        const Duration dist = jump_at - lc;
        if (dist >= 0.0 && dist < window) {
          const Duration shift = jump_size * (1.0 - dist / window);
          Time moved = lc + shift;
          moved = std::min(moved, cap[g]);      // never break a send's condition
          moved = std::min(moved, successor);   // keep local order
          fwd.lc[g] = std::max(moved, lc);      // only ever move forward
        } else if (dist >= window) {
          have_jump = false;  // out of the amortization window
        }
      }
      successor = std::min(successor, fwd.lc[g]);
    }
  }
}

}  // namespace clc_detail

ClcResult controlled_logical_clock(const Trace& trace, const ReplaySchedule& schedule,
                                   const TimestampArray& input, const ClcOptions& options) {
  CS_SPAN("clc.sequential");
  if (trace.ranks() == 0 || schedule.events() == 0) {
    // Nothing to replay: hand the input back unchanged (0-rank and 0-event
    // traces used to trip thread-count assertions downstream).
    ClcResult empty;
    empty.corrected = input;
    return empty;
  }
  clc_detail::ForwardPassResult fwd =
      clc_detail::forward_pass(trace, schedule, input, options);
  if (options.backward_amortization) {
    clc_detail::backward_pass(trace, schedule, fwd, options);
  }

  ClcResult result;
  result.corrected = input;  // same shape
  for (Rank r = 0; r < trace.ranks(); ++r) {
    auto& v = result.corrected.of_rank(r);
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      v[i] = fwd.lc[schedule.global_index({r, i})];
    }
  }
  result.violations_repaired = fwd.violations_repaired;
  result.max_jump = fwd.max_jump;
  result.total_jump = fwd.total_jump;

  if (obs::metrics_enabled()) {
    static obs::Counter& events = obs::counter("clc.events_processed");
    static obs::Counter& repaired = obs::counter("clc.violations_repaired");
    events.add(static_cast<std::int64_t>(schedule.events()));
    repaired.add(static_cast<std::int64_t>(result.violations_repaired));
  }
  return result;
}

}  // namespace chronosync
