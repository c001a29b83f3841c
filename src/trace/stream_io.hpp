// Streaming, checksummed trace container — format v2.
//
// Motivation: the v1 "CSTR" container loads a whole trace into RAM and trusts
// on-disk counts blindly.  Long runs (1800–3600 s, the regime where drift
// effects appear) produce multi-million-event traces; v2 makes them durable,
// verifiable, and consumable with bounded memory.
//
// On-disk layout (all integers little-endian; `uv` = unsigned LEB128 varint,
// `sv` = zigzag LEB128 varint; doubles are IEEE-754 bit patterns):
//
//   file   := magic(u32 "CSTR") version(u32 = 2) meta event* footer
//   chunk  := kind(u8) payload_len(u32) payload crc32c(u32)
//
// Every chunk carries a CRC32C over kind + payload_len + payload.  Kinds:
//
//   'M' meta    exactly one, first:
//                 uv timer_len, timer bytes
//                 uv nranks; per rank: sv node, sv chip, sv core
//                 f64 lat[SameChip] f64 lat[SameNode] f64 lat[CrossNode]
//                 uv nregions; per region: uv len, bytes
//   'E' events  one rank's events (rank-major, non-decreasing rank order):
//                 uv seq (0-based event-chunk index, catches duplicated or
//                         reordered chunks)
//                 uv rank, uv count (1 .. events_per_chunk)
//                 per event (delta state resets per chunk):
//                   u8 type
//                   sv delta(bits(local_ts)) sv delta(bits(true_ts))
//                   sv region  sv peer  sv tag  uv bytes
//                   sv delta(msg_id)  u8 coll  sv delta(coll_id)
//                   sv root  sv omp_instance  sv thread
//   'Z' footer  last: uv event_chunk_count, uv total_events,
//               u32 crc32c of every file byte before this chunk
//
// Timestamps delta-encode their u64 bit patterns: within a rank timestamps
// are (near-)monotone, so consecutive bit patterns are close and the zigzag
// delta is short.  Round trips are bit-exact for every finite double.
//
// The reader validates every length/count against the bytes actually
// available before allocating, verifies each chunk's CRC before parsing it,
// and throws TraceIoError on any malformed input — never crashes or UB.  v1
// files remain readable through the same read_trace()/read_trace_file() entry
// points, which dispatch on the version field.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/varint.hpp"
#include "topology/pinning.hpp"
#include "trace/io_util.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {

/// Trace-level metadata, available before (and without) reading any event.
struct TraceMeta {
  Placement placement;
  std::array<Duration, 3> domain_min_latency{};
  std::string timer_name;
  std::vector<std::string> regions;

  int ranks() const { return placement.ranks(); }
  /// Minimum message latency between two ranks (mirrors Trace::min_latency).
  Duration min_latency(Rank a, Rank b) const;

  static TraceMeta of(const Trace& trace);
};

inline constexpr std::size_t kDefaultEventsPerChunk = 16384;

/// Incremental v2 writer.  Events must be appended rank-major (all of rank 0,
/// then rank 1, ...); chunks are cut every `events_per_chunk` events or on a
/// rank change.  finish() seals the file with the footer; a writer destroyed
/// without finish() leaves a truncated file, which the reader rejects.
class TraceWriter {
 public:
  TraceWriter(std::ostream& out, TraceMeta meta,
              std::size_t events_per_chunk = kDefaultEventsPerChunk);
  ~TraceWriter() = default;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(Rank rank, const Event& e);
  /// Writes `count` already-encoded events of `rank` as one chunk of their
  /// own, after flushing any events append() left pending.  `body` must be
  /// what append() would encode for those events in a fresh chunk (the
  /// per-event layout above, deltas restarting from zero) — as
  /// splice_local_ts produces it; the writer only frames it, adding the
  /// chunk head, the chunk CRC and the whole-file CRC.  The chunk head plus
  /// `body` must stay within the 64 MiB payload limit.
  void append_chunk(Rank rank, std::uint64_t count, std::span<const std::uint8_t> body);
  void finish();

  bool finished() const { return finished_; }
  std::uint64_t events_written() const { return total_events_; }
  std::uint64_t bytes_written() const { return bytes_written_; }

 private:
  // Previous event's delta-coded fields as raw bits, so deltas wrap
  // instead of overflowing.
  struct DeltaState {
    std::uint64_t local_bits = 0;
    std::uint64_t true_bits = 0;
    std::uint64_t msg_id = 0;
    std::uint64_t coll_id = 0;
  };

  void flush_chunk();
  void emit_events(std::uint64_t count, std::span<const std::uint8_t> body);
  void emit_chunk(std::uint8_t kind, std::span<const std::uint8_t> head,
                  std::span<const std::uint8_t> body);

  std::ostream& out_;
  int ranks_;
  std::size_t events_per_chunk_;
  // Encoded events of the pending chunk: the first body_len_ bytes of body_.
  // append() writes through a raw pointer, so body_ keeps room for one more
  // maximal event past body_len_ and grows geometrically; it is reused
  // across chunks.
  std::vector<std::uint8_t> body_;
  std::size_t body_len_ = 0;
  std::size_t body_events_ = 0;
  Rank pending_rank_ = 0;
  DeltaState prev_{};
  std::uint64_t chunk_seq_ = 0;
  std::uint64_t total_events_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint32_t file_crc_ = 0;
  bool finished_ = false;
};

/// One decoded event chunk: `events` holds rank `rank`'s next events in trace
/// order.  The vector's capacity is reused across next() calls, so a reader's
/// resident set stays bounded by the largest chunk, not the trace.
struct EventBlock {
  Rank rank = -1;
  std::vector<Event> events;
};

/// Longest run of bytes the event decoder reads for one event, valid or not:
/// the type and coll bytes plus eleven varints of at most 10 bytes each (a
/// 32-bit field is range-checked only after its bytes are read).
inline constexpr std::size_t kDecodeSlack = 2 + 11 * kMaxVarintBytes;  // 112

/// A chunk payload buffer for the event decoder.
///
/// Slack-padding invariant: after resize(len), the `len` payload bytes are
/// followed by at least kDecodeSlack readable zero bytes.  The decoder
/// therefore skips per-byte end checks inside an event and compares its
/// cursor with end() once per event.  That is enough: every event starts at
/// or before end() (the previous event's check guarantees it), and one event
/// reads at most kDecodeSlack bytes, so no read leaves the buffer.  An event
/// that crosses end() (a chunk cut mid-event, or a count larger than the
/// events present) leaves the cursor past end() and is rejected there at the
/// latest; the zero slack decodes as short one-byte fields.
class PayloadBuffer {
 public:
  /// Makes room for a `len`-byte payload, zeroes the slack behind it, and
  /// returns where the payload goes.
  std::uint8_t* resize(std::size_t len);

  const std::uint8_t* data() const { return buf_.data(); }
  const std::uint8_t* end() const { return buf_.data() + len_; }
  std::size_t size() const { return len_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t len_ = 0;
};

/// The splice: rewrites only the local_ts of an encoded event chunk.
///
/// The events start `head_len` bytes into `payload` (after the chunk head)
/// and run to its end; `local_ts` holds one new timestamp per event, so its
/// size is the chunk's event count.  The result, written to the front of
/// `out` (grown as needed, never shrunk) and returned as a view into it, is
/// the chunk's events with each local_ts delta recomputed from the new
/// values — restarting from zero at the chunk start, as the writer does —
/// and every byte from true_ts through thread copied unchanged.  For a chunk
/// TraceWriter wrote, that is exactly what append() would encode for the
/// decoded events with their local_ts replaced, and append_chunk() writes it
/// as is.
///
/// The input is validated by the same event walker as the decoders: the
/// same checks in the same order, each failing with the same TraceIoError
/// kind and message as TraceReader and ChunkReader::read on those bytes.  A
/// longer delta can grow the chunk; if the head plus the spliced events
/// would exceed the 64 MiB payload limit, it throws a Malformed
/// TraceIoError before anything is written.
std::span<const std::uint8_t> splice_local_ts(const PayloadBuffer& payload, std::size_t head_len,
                                              std::span<const double> local_ts,
                                              std::vector<std::uint8_t>& out);

/// Streaming v2 reader: validates the header and meta chunk on construction,
/// then yields event blocks rank-by-rank via next().  next() returns false
/// only after the footer verified the chunk sequence, the event total, and
/// the whole-file CRC.
class TraceReader {
 public:
  /// `header_consumed` is for dispatchers that already read and verified the
  /// 8-byte magic/version header (read_trace does).
  explicit TraceReader(std::istream& in, bool header_consumed = false);

  const TraceMeta& meta() const { return meta_; }
  int ranks() const { return meta_.ranks(); }

  /// Decodes the next event chunk into `block`, replacing its events.
  bool next(EventBlock& block);

  /// Decodes the next event chunk straight onto the end of
  /// `trace.events(rank)`, with no intermediate block.  `trace` must have
  /// this reader's rank count.  Returns false, like next(), after the footer.
  bool next_into(Trace& trace);

  std::uint64_t events_read() const { return events_read_; }

 private:
  std::uint8_t read_chunk();
  /// Reads and validates the next event chunk's head; returns its first
  /// event byte, or nullptr once the footer has been verified.
  const std::uint8_t* next_chunk(Rank& rank, std::uint64_t& count);
  void parse_meta();
  void parse_footer();

  traceio::ByteSource src_;
  TraceMeta meta_;
  PayloadBuffer payload_;  // reused chunk buffer
  std::uint32_t file_crc_ = 0;
  std::uint64_t event_chunks_seen_ = 0;
  std::uint64_t events_read_ = 0;
  Rank last_rank_ = 0;
  bool done_ = false;
};

// -- random access over an indexed v2 file ------------------------------------

/// Location and shape of one event chunk inside a v2 file, recorded by the
/// index pass so the chunk can be re-read (and re-verified) out of order.
struct ChunkRef {
  std::uint64_t offset = 0;       ///< file offset of the chunk's kind byte
  std::uint32_t payload_len = 0;
  std::uint64_t seq = 0;          ///< event-chunk sequence number
  Rank rank = -1;
  std::uint32_t count = 0;        ///< events encoded in the chunk
};

/// Whole-file chunk index, built by one sequential validation pass.  Knowing
/// every rank's chunk extents and event count up front is what lets the
/// out-of-core consumers (the windowed CLC) preallocate per-rank spill
/// extents and interleave ranks without ever holding the trace in memory.
struct TraceIndex {
  TraceMeta meta;
  std::vector<ChunkRef> chunks;            ///< every event chunk, file order
  std::vector<std::uint64_t> rank_events;  ///< event count per rank
  std::uint64_t total_events = 0;
};

/// Sequentially validates a v2 stream — per-chunk CRCs, chunk sequencing,
/// rank-major order, footer totals, and the whole-file CRC — without decoding
/// any event, and returns the chunk index.  A file whose final event chunk is
/// complete but whose footer is missing (a writer died before finish()) is
/// rejected with a typed TraceIoError, exactly like TraceReader.
TraceIndex index_trace_v2(std::istream& in);
TraceIndex index_trace_v2_file(const std::string& path);

/// Re-reads single event chunks of an indexed v2 file in any order, verifying
/// each chunk's CRC and shape against its ChunkRef before decoding.  The
/// stream must be seekable (the index pass already proved it readable).
class ChunkReader {
 public:
  ChunkReader(std::istream& in, const TraceIndex& index);

  /// Decodes the chunk at `ref` into `out` (events + owning rank).  The
  /// payload buffer is reused across calls, so resident memory stays at one
  /// chunk regardless of how many are visited.
  void read(const ChunkRef& ref, EventBlock& out);

  /// Re-reads and verifies the chunk at `ref` like read(), then splices
  /// `local_ts` (one value per event) into it with splice_local_ts instead
  /// of decoding it.  The chunk keeps its head, so the result is ready for
  /// TraceWriter::append_chunk(ref.rank, ref.count, ...).
  std::span<const std::uint8_t> splice(const ChunkRef& ref, std::span<const double> local_ts,
                                       std::vector<std::uint8_t>& out);

 private:
  /// Reads the chunk at `ref` into payload_, verifies its CRC and head
  /// against `ref`, and returns the head's length.
  std::size_t load(const ChunkRef& ref);

  std::istream& in_;
  int ranks_;
  PayloadBuffer payload_;
};

// -- whole-trace conveniences -------------------------------------------------

void write_trace_v2(const Trace& trace, std::ostream& out,
                    std::size_t events_per_chunk = kDefaultEventsPerChunk);
void write_trace_v2_file(const Trace& trace, const std::string& path,
                         std::size_t events_per_chunk = kDefaultEventsPerChunk);

/// Materializes the rest of `reader` into a Trace.
Trace read_trace_v2(TraceReader& reader);
Trace read_trace_v2(std::istream& in);
Trace read_trace_v2_file(const std::string& path);

}  // namespace chronosync
