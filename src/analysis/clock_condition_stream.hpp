// Out-of-core clock-condition analysis over trace files.
//
// The in-memory pipeline (read_trace -> match_messages -> derive_logical_...
// -> check_clock_condition) materializes every event, the message index, and
// a timestamp array — ~150 bytes per event.  The streaming scan consumes a v2
// trace chunk-by-chunk through TraceReader and keeps only the per-message
// pairing state (half-open message endpoints by msg_id, collective instances
// by coll_id), so resident memory is bounded by the message backlog, not the
// event count — on region-dominated traces orders of magnitude smaller, and
// never the full 150 bytes/event of the loader.  A half-open endpoint takes
// one 24-byte slot of an open-addressing IdTable (common/id_table.hpp); in
// rank-major file order the backlog can still reach a large share of all
// messages (353,755 of them on an 8-rank 2.5*10^6-event sweep, 12 MiB of
// table).
//
// The report is identical (same counts, same worst-case slack) to
//   check_clock_condition(trace, TimestampArray::from_local(trace))
// on the materialized trace; a test asserts the equivalence.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "analysis/clock_condition.hpp"
#include "trace/stream_io.hpp"

namespace chronosync {

/// Resource counters of a streaming scan: high-water marks of the pairing
/// state.  `peak_outstanding_messages` tracks the *backlog* of half-matched
/// messages (a send awaiting its receive, or vice versa), not the total
/// message count — completed pairs are checked and erased eagerly, so a long
/// well-paired trace scans in O(backlog) memory.  Collective instances cannot
/// be released before end-of-scan (a rank may still join an instance in a
/// later chunk), so their high-water equals the instance count.
struct ScanStats {
  std::size_t peak_outstanding_messages = 0;
  std::size_t peak_outstanding_collectives = 0;
};

/// Scans the remaining events of `reader` (local timestamps, Eq. 1 over p2p
/// and logical messages) without materializing a Trace.
ClockConditionReport scan_clock_condition(TraceReader& reader, ScanStats* stats = nullptr);

/// Scans a trace of any supported format from `in`, sniffing at most the
/// first 8 bytes and never seeking, so pipe-fed streams work.  v2 streams
/// with bounded memory; binary v1 and text traces replay the sniffed prefix
/// into their own readers (which also report their own, better errors).
ClockConditionReport scan_clock_condition(std::istream& in, ScanStats* stats = nullptr);

/// Opens `path` and scans it.  v2 files stream with bounded memory; v1 and
/// text files fall back to the in-memory loader transparently.
ClockConditionReport scan_clock_condition_file(const std::string& path,
                                               ScanStats* stats = nullptr);

}  // namespace chronosync
