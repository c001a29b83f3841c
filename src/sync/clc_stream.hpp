// Out-of-core windowed streaming CLC.
//
// The in-memory CLC (clc.hpp) materializes the trace, the message index, the
// CSR replay schedule, and two Time arrays — ~150+ bytes per event.  The
// long-run regime the paper cares about (1800–3600 s, 10^7–10^9 events) does
// not fit that budget, so this variant consumes a v2 trace file chunk by
// chunk and keeps only a sliding window resident:
//
//   * one read-ahead queue per rank (events read but not processed), 24
//     bytes per event: timestamp, type and message or collective id;
//   * the forward-pass scalar state per rank;
//   * the outstanding message pairing backlog in an open-addressing IdTable
//     (40-byte slots, one probe per endpoint; common/id_table.hpp) and the
//     collective instances;
//   * a retention queue per rank of processed-but-unemitted events (48
//     bytes each) over which backward amortization is re-swept before
//     emission.
//
// Both per-rank queues live on fixed-size pages that the ranks share and
// recycle, so the window allocates its high-water once: on an 8-rank
// 2.5*10^6-event sweep a run allocates about 5 bytes per event in total,
// against 144 for node-based queues and maps.  The window's size follows the
// horizon, `emit_batch` (retention per rank between sweeps) and the input's
// chunk size.  Corrected timestamps stream to an on-disk side file as they
// become final and are merged into a sealed v2 output in one last pass, so
// peak RSS is bounded by window size plus edge backlog — never by trace
// length.
//
// The merge does not decode and re-encode events.  It re-reads each input
// chunk (CRC verified again), rewrites only each event's local_ts delta from
// the corrected values and copies the other encoded fields byte for byte
// (splice_local_ts, which runs every check of the decoder), then frames the
// result with TraceWriter::append_chunk.  The output therefore keeps the
// input's chunks — same ranks, counts and sequence — and, for an input
// TraceWriter wrote, is byte for byte what write_trace_v2 of the corrected
// trace at the input's chunk size would give.
//
// -- Equivalence contract -----------------------------------------------------
//
// The forward pass is replayed in a dependency-respecting order, and the
// forward correction of an event depends only on its same-rank predecessor
// and a max over its incoming edges, so forward values are bit-identical to
// controlled_logical_clock() on the materialized trace in every case.  Two
// bounds make the windowed run finite, and each is a documented divergence
// source when exceeded (never silent — counted in StreamClcStats):
//
//   * `horizon` (seconds of local time): an edge whose endpoints record
//     timestamps further apart than the horizon may be dropped
//     (`horizon_dropped`).  Pick horizon >= the largest send->receive
//     timestamp skew and collective instance spread; the defaults cover any
//     realistic drift magnitude.
//   * `backward_window` (seconds): backward-amortization ramps are clamped
//     to min(jump / backward_slope, backward_window).  Jumps whose natural
//     ramp exceeds the window are counted in `ramp_clamped`.
//
// With ramp_clamped == horizon_dropped == forced == 0 the emitted trace is
// bit-identical — timestamps and jump statistics — to the in-memory
//   controlled_logical_clock(trace, schedule, TimestampArray::from_local(t)).
// src/verify/differential.hpp::cross_check_windowed_clc asserts exactly this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "sync/clc.hpp"

namespace chronosync {

struct StreamClcOptions {
  /// Kernel parameters shared with the in-memory CLC (decay, slope, ...).
  ClcOptions clc;
  /// Edge-resolution horizon in seconds of local time: how far apart the two
  /// endpoint timestamps of one message/collective may be before the edge is
  /// abandoned (and counted) to keep the window finite.
  Duration horizon = 10.0;
  /// Backward-amortization ramp clamp in seconds (see file comment).
  Duration backward_window = 1.0;
  /// Retention growth between backward re-sweeps; smaller emits earlier,
  /// larger sweeps less often.  Purely a performance knob — emitted values
  /// are independent of batching.
  std::size_t emit_batch = 4096;
  /// In-memory message-table high-water before processed half-open entries
  /// (sends still awaiting their receive, past the horizon) spill to the
  /// on-disk side file.
  std::size_t max_outstanding_msgs = std::size_t{1} << 20;
};

struct StreamClcStats {
  std::uint64_t events = 0;          ///< events processed (== trace total)
  std::uint64_t p2p_edges = 0;       ///< matched send->receive constraints
  std::uint64_t logical_edges = 0;   ///< collective-derived constraints
  // Mirrors of ClcResult's jump statistics (bit-identical under the contract).
  std::size_t violations_repaired = 0;
  Duration max_jump = 0.0;
  Duration total_jump = 0.0;
  // Divergence counters: all zero <=> output bit-identical to in-memory CLC.
  std::uint64_t ramp_clamped = 0;    ///< jumps whose ramp hit backward_window
  std::uint64_t horizon_dropped = 0; ///< edges abandoned past the horizon
  std::uint64_t forced = 0;          ///< events force-processed (cyclic input)
  // Resource telemetry.
  std::uint64_t spilled_msgs = 0;       ///< message entries moved to disk
  std::size_t peak_resident_events = 0; ///< read-ahead + retention high-water
  std::size_t peak_outstanding_msgs = 0;///< in-memory message-table high-water
};

/// Corrects `in_path` (a sealed v2 trace) into `out_path` (v2, same events
/// with local_ts replaced by the corrected timestamps; true_ts preserved).
/// With observability at metrics level or above, the engine state is
/// published once per chunk read and once at the end as registry gauges:
/// clc.stream.{resident_events, outstanding_msgs} (current) and
/// clc.stream.{peak_resident_events, peak_outstanding_msgs, spilled_msgs,
/// ramp_clamped, horizon_dropped, forced} (the StreamClcStats fields so far).
/// The output is written to a temporary file and atomically renamed on
/// success, so a crash or thrown error never leaves a silently truncated
/// trace at `out_path`.  Throws TraceIoError on any input defect — including
/// a missing footer — before the output file is created.
StreamClcStats clc_stream_file(const std::string& in_path, const std::string& out_path,
                               const StreamClcOptions& options = {});

}  // namespace chronosync
