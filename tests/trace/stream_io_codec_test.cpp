// Byte-level tests of the v2 event codec.
//
// StreamIoGolden pins the exact bytes the writer emits, so any rewrite of the
// encoder must stay byte-identical.  StreamIoDecoder hand-encodes event
// chunks and recomputes every CRC (chunk and whole-file), so each mutation
// gets past the checksums and reaches the event decoder's own rejection
// branches, which the CRC-guarded fuzz corpus never does.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "common/crc32c.hpp"
#include "common/varint.hpp"
#include "trace/stream_io.hpp"

namespace chronosync {
namespace {

using Bytes = std::vector<std::uint8_t>;

// -- golden bytes --------------------------------------------------------------

struct Golden {
  bool extreme_doubles;
  std::size_t events_per_chunk;
  std::size_t size;
  std::uint32_t crc;
};

// Recorded with the std::vector push_back encoder, before the writer moved to
// raw-pointer encoding, so they pin byte identity across that rewrite.
// random_trace(22) has 5 ranks with 59, 39, 53, 56 and 45 events;
// random_trace(2, true) has 6 ranks with 10 to 44 events whose extreme-double
// deltas take up to 10 varint bytes.
constexpr std::uint64_t kGoldenSeed = 22;
constexpr std::uint64_t kGoldenExtremeSeed = 2;
constexpr Golden kGolden[] = {
    {false, 1, 10890, 0x8c4155bau},
    {false, 5, 7605, 0x032626e1u},
    {false, 16, 7091, 0x5ca96b4fu},
    {false, kDefaultEventsPerChunk, 6889, 0x4421c107u},
    {true, 1, 7298, 0xbb00297cu},
    {true, 5, 5809, 0xd48d99c3u},
    {true, 16, 5547, 0x6a78d2ddu},
    {true, kDefaultEventsPerChunk, 5469, 0x48addef2u},
};

TEST(StreamIoGolden, WrittenBytesArePinned) {
  const Trace plain = testutil::random_trace(kGoldenSeed);
  const Trace extreme = testutil::random_trace(kGoldenExtremeSeed, /*extreme_doubles=*/true);
  for (const Golden& g : kGolden) {
    const Trace& t = g.extreme_doubles ? extreme : plain;
    std::size_t longest_rank = 0;
    for (Rank r = 0; r < t.ranks(); ++r) {
      longest_rank = std::max(longest_rank, t.events(r).size());
    }
    if (g.events_per_chunk < kDefaultEventsPerChunk) {
      ASSERT_LT(g.events_per_chunk, longest_rank) << "fixture no longer splits a rank";
    }
    std::stringstream buf;
    write_trace_v2(t, buf, g.events_per_chunk);
    const std::string blob = buf.str();
    const std::uint32_t crc = crc32c(0, blob.data(), blob.size());
    EXPECT_EQ(blob.size(), g.size) << "extreme=" << g.extreme_doubles
                                   << " events_per_chunk=" << g.events_per_chunk;
    EXPECT_EQ(crc, g.crc) << std::hex << "0x" << crc << std::dec
                          << " extreme=" << g.extreme_doubles
                          << " events_per_chunk=" << g.events_per_chunk;
    std::stringstream in(blob);
    EXPECT_TRUE(testutil::traces_equal(read_trace_v2(in), t));
  }
}

// -- hand-encoded chunks -------------------------------------------------------

void put_u32le(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Appends kind + payload_len + payload + crc32c to `file`.
void append_chunk(Bytes& file, std::uint8_t kind, const Bytes& payload) {
  Bytes chunk{kind};
  put_u32le(chunk, static_cast<std::uint32_t>(payload.size()));
  chunk.insert(chunk.end(), payload.begin(), payload.end());
  put_u32le(chunk, crc32c(0, chunk.data(), chunk.size()));
  file.insert(file.end(), chunk.begin(), chunk.end());
}

/// A complete one-rank v2 file whose single event chunk declares `count`
/// events and carries `events` as its encoded body.  The footer claims one
/// chunk and `count` events, and every CRC is valid.
std::string file_with_event_chunk(std::uint64_t count, const Bytes& events) {
  Bytes file;
  put_u32le(file, 0x43535452u);  // "CSTR"
  put_u32le(file, 2);

  Bytes meta;
  put_uvarint(meta, 1);
  meta.push_back('t');
  put_uvarint(meta, 1);  // one rank at node 0, chip 0, core 0
  for (int i = 0; i < 3; ++i) put_svarint(meta, 0);
  for (int i = 0; i < 3 * 8; ++i) meta.push_back(0);  // three 0.0 latencies
  put_uvarint(meta, 0);                                // no regions
  append_chunk(file, 'M', meta);

  Bytes chunk;
  put_uvarint(chunk, 0);  // seq
  put_uvarint(chunk, 0);  // rank
  put_uvarint(chunk, count);
  chunk.insert(chunk.end(), events.begin(), events.end());
  append_chunk(file, 'E', chunk);

  Bytes footer;
  put_uvarint(footer, 1);
  put_uvarint(footer, count);
  put_u32le(footer, crc32c(0, file.data(), file.size()));
  append_chunk(file, 'Z', footer);
  return {file.begin(), file.end()};
}

// Field order of one encoded event.
enum Field : std::size_t {
  kType, kLocal, kTrue, kRegion, kPeer, kTag, kBytes, kMsg, kColl, kCollId, kRoot, kOmp,
  kThread, kFieldCount,
};

/// One event as its thirteen encoded fields, so a test can replace any one
/// field's bytes.
struct RawEvent {
  std::array<Bytes, kFieldCount> field;

  Bytes bytes() const {
    Bytes out;
    for (const Bytes& f : field) out.insert(out.end(), f.begin(), f.end());
    return out;
  }
};

Bytes uv(std::uint64_t v) {
  Bytes b;
  put_uvarint(b, v);
  return b;
}

Bytes sv(std::int64_t v) {
  Bytes b;
  put_svarint(b, v);
  return b;
}

/// A valid Send event.  `wide` gives the timestamp and id deltas long
/// varints, so the event is far longer than the 13-byte minimum.
RawEvent valid_event(bool wide = false) {
  RawEvent e;
  e.field[kType] = {static_cast<std::uint8_t>(EventType::Send)};
  e.field[kLocal] = sv(wide ? std::numeric_limits<std::int64_t>::min() : 4);
  e.field[kTrue] = sv(wide ? std::numeric_limits<std::int64_t>::max() : -4);
  e.field[kRegion] = sv(-1);
  e.field[kPeer] = sv(0);
  e.field[kTag] = sv(5);
  e.field[kBytes] = uv(wide ? std::numeric_limits<std::uint32_t>::max() : 64);
  e.field[kMsg] = sv(wide ? 1LL << 60 : 1);
  e.field[kColl] = {0};
  e.field[kCollId] = sv(wide ? -(1LL << 60) : -1);
  e.field[kRoot] = sv(-1);
  e.field[kOmp] = sv(-1);
  e.field[kThread] = sv(0);
  return e;
}

Bytes concat(const std::vector<RawEvent>& events) {
  Bytes out;
  for (const RawEvent& e : events) {
    const Bytes b = e.bytes();
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

/// Checks a Malformed TraceIoError whose message names `reason` (any
/// message when `reason` is empty), so each case pins the branch that
/// rejected it, not only the error kind.
void check_error(const TraceIoError& e, const std::string& what, const std::string& reason) {
  EXPECT_EQ(e.kind(), TraceIoErrorKind::Malformed) << what << ": " << e.what();
  EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
      << what << ": expected \"" << reason << "\" in: " << e.what();
}

void expect_malformed_via_reader(const std::string& file, const std::string& what,
                                 const std::string& reason) {
  {
    std::istringstream in(file);
    try {
      TraceReader reader(in);
      EventBlock block;
      while (reader.next(block)) {
      }
      ADD_FAILURE() << what << ": TraceReader accepted the file";
    } catch (const TraceIoError& e) {
      check_error(e, what, reason);
    }
  }
  std::istringstream in(file);
  try {
    read_trace_v2(in);
    ADD_FAILURE() << what << ": read_trace_v2 accepted the file";
  } catch (const TraceIoError& e) {
    check_error(e, what, reason);
  }
}

void expect_malformed_via_index(const std::string& file, const std::string& what,
                                const std::string& reason) {
  std::istringstream in(file);
  try {
    const TraceIndex idx = index_trace_v2(in);
    ChunkReader chunks(in, idx);
    EventBlock block;
    for (const ChunkRef& ref : idx.chunks) chunks.read(ref, block);
    ADD_FAILURE() << what << ": index_trace_v2 + ChunkReader accepted the file";
  } catch (const TraceIoError& e) {
    check_error(e, what, reason);
  }
}

void expect_malformed(std::uint64_t count, const Bytes& events, const std::string& what,
                      const std::string& reason) {
  const std::string file = file_with_event_chunk(count, events);
  expect_malformed_via_reader(file, what, reason);
  expect_malformed_via_index(file, what, reason);
}

/// Replaces field `f` of the second of two events and expects rejection.
void expect_field_rejected(Field f, const Bytes& bad, const std::string& what,
                           const std::string& reason) {
  RawEvent second = valid_event(/*wide=*/true);
  second.field[f] = bad;
  expect_malformed(2, concat({valid_event(), second}), what, reason);
}

constexpr Field kVarintFields[] = {kLocal, kTrue, kRegion, kPeer, kTag, kBytes,
                                   kMsg,   kCollId, kRoot, kOmp,  kThread};
constexpr Field kSv32Fields[] = {kRegion, kPeer, kTag, kRoot, kOmp, kThread};

TEST(StreamIoDecoder, HandEncodedFileIsAccepted) {
  // Guards the helper: without a mutation every path decodes both events.
  const std::string file =
      file_with_event_chunk(2, concat({valid_event(), valid_event(/*wide=*/true)}));
  std::istringstream in(file);
  const Trace t = read_trace_v2(in);
  ASSERT_EQ(t.events(0).size(), 2u);
  EXPECT_EQ(t.events(0)[1].bytes, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(t.events(0)[1].msg_id, 1 + (1LL << 60));

  std::istringstream again(file);
  const TraceIndex idx = index_trace_v2(again);
  ChunkReader chunks(again, idx);
  EventBlock block;
  chunks.read(idx.chunks.at(0), block);
  EXPECT_EQ(block.events.size(), 2u);
}

TEST(StreamIoDecoder, RejectsEventTypeAboveBarrierExit) {
  const auto first_bad = static_cast<std::uint8_t>(EventType::BarrierExit) + 1;
  expect_field_rejected(kType, {static_cast<std::uint8_t>(first_bad)}, "type max+1",
                        "invalid event type");
  expect_field_rejected(kType, {0xFF}, "type 0xFF", "invalid event type");
}

TEST(StreamIoDecoder, RejectsCollectiveKindAboveAlltoall) {
  const auto first_bad = static_cast<std::uint8_t>(CollectiveKind::Alltoall) + 1;
  expect_field_rejected(kColl, {static_cast<std::uint8_t>(first_bad)}, "coll max+1",
                        "invalid collective kind");
  expect_field_rejected(kColl, {0xFF}, "coll 0xFF", "invalid collective kind");
}

TEST(StreamIoDecoder, RejectsSv32FieldsOutsideInt32) {
  const std::int64_t above = std::int64_t{std::numeric_limits<std::int32_t>::max()} + 1;
  const std::int64_t below = std::int64_t{std::numeric_limits<std::int32_t>::min()} - 1;
  for (Field f : kSv32Fields) {
    const std::string name = "field " + std::to_string(f);
    const std::string reason = "out of 32-bit range";
    expect_field_rejected(f, sv(above), name + " int32 max+1", reason);
    expect_field_rejected(f, sv(below), name + " int32 min-1", reason);
    expect_field_rejected(f, sv(std::numeric_limits<std::int64_t>::min()), name + " int64 min",
                          reason);
  }
}

TEST(StreamIoDecoder, RejectsBytesAboveU32) {
  expect_field_rejected(kBytes, uv(std::uint64_t{1} << 32), "bytes 2^32", "bytes out of range");
  expect_field_rejected(kBytes, uv(std::numeric_limits<std::uint64_t>::max()), "bytes u64 max",
                        "bytes out of range");
}

TEST(StreamIoDecoder, RejectsElevenByteVarints) {
  Bytes eleven(10, 0x80);
  eleven.push_back(0x00);
  for (Field f : kVarintFields) {
    expect_field_rejected(f, eleven, "field " + std::to_string(f), "bad varint");
  }
}

TEST(StreamIoDecoder, RejectsTenthByteOverflowingU64) {
  Bytes overflow(9, 0xFF);
  overflow.push_back(0x02);  // bit 64: one past what a u64 holds
  for (Field f : kVarintFields) {
    expect_field_rejected(f, overflow, "field " + std::to_string(f), "bad varint");
  }
}

TEST(StreamIoDecoder, RejectsPayloadCutInsideLastEvent) {
  for (bool wide : {false, true}) {
    const Bytes first = valid_event().bytes();
    const Bytes last = valid_event(wide).bytes();
    for (std::size_t keep = 0; keep < last.size(); ++keep) {
      Bytes events = first;
      events.insert(events.end(), last.begin(), last.begin() + static_cast<std::ptrdiff_t>(keep));
      // Which check fires depends on where the cut falls: the count bound,
      // a field check, or the end-of-event check.
      expect_malformed(2, events,
                       "wide=" + std::to_string(wide) + " keep " + std::to_string(keep), "");
    }
  }
}

TEST(StreamIoDecoder, RejectsTrailingBytes) {
  const Bytes events = concat({valid_event(), valid_event(/*wide=*/true)});
  for (const Bytes& tail : {Bytes{0x00}, Bytes{0x80}, Bytes(13, 0x00), valid_event().bytes()}) {
    Bytes padded = events;
    padded.insert(padded.end(), tail.begin(), tail.end());
    expect_malformed(2, padded, "tail of " + std::to_string(tail.size()), "trailing bytes");
  }
}

TEST(StreamIoDecoder, RejectsCountOverrun) {
  // Past the 13-byte-per-event bound: caught before any event is decoded.
  expect_malformed(3, concat({valid_event(), valid_event()}), "count beyond bytes/13",
                   "overruns chunk");
  expect_malformed(std::numeric_limits<std::uint64_t>::max(), valid_event().bytes(),
                   "count u64 max", "overruns chunk");
  // Within the bound (the events are long): caught when the decoder runs out.
  expect_malformed(3, concat({valid_event(/*wide=*/true), valid_event(/*wide=*/true)}),
                   "count one past the encoded events", "ends mid-event");
}

TEST(StreamIoDecoder, RejectsEmptyChunk) {
  expect_malformed(0, {}, "empty chunk", "empty event chunk");
  expect_malformed(0, valid_event().bytes(), "zero count with an event", "empty event chunk");
}

}  // namespace
}  // namespace chronosync
