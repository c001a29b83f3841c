#include "trace/stream_io.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/crc32c.hpp"
#include "common/expect.hpp"
#include "common/varint.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace chronosync {

namespace {

constexpr std::uint32_t kMagic = 0x43535452;  // "CSTR", shared with v1
constexpr std::uint32_t kVersion = 2;

constexpr std::uint8_t kChunkMeta = 'M';
constexpr std::uint8_t kChunkEvents = 'E';
constexpr std::uint8_t kChunkFooter = 'Z';

/// Hard ceiling on a chunk payload; rejects forged lengths before allocation
/// even on non-seekable streams.
constexpr std::uint32_t kMaxChunkPayload = 1u << 26;  // 64 MiB

/// Smallest possible encoded event: type byte + 12 one-byte varints.
constexpr std::uint64_t kMinEncodedEvent = 13;

/// Longest event the writer emits: the type and coll bytes, four 64-bit
/// deltas of up to 10 bytes and seven 32-bit fields of up to 5 bytes.
constexpr std::size_t kMaxEncodedEvent = 2 + 4 * 10 + 7 * 5;  // 77

constexpr std::uint8_t kMaxEventType = static_cast<std::uint8_t>(EventType::BarrierExit);
constexpr std::uint8_t kMaxCollKind = static_cast<std::uint8_t>(CollectiveKind::Alltoall);

void put_raw32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_raw64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_raw64(out, std::bit_cast<std::uint64_t>(v));
}

[[noreturn]] void malformed(const std::string& msg) {
  throw TraceIoError(TraceIoErrorKind::Malformed, msg);
}

// Error reports kept out of line, off the decoders' hot paths.
[[noreturn, gnu::cold, gnu::noinline]] void bad_field(const char* what, const char* problem) {
  malformed(std::string(what) + ": " + problem);
}

[[noreturn, gnu::cold, gnu::noinline]] void bad_enum(const char* what, std::uint8_t value) {
  malformed(std::string("invalid ") + what + " " + std::to_string(value));
}

std::int32_t checked_i32(std::int64_t v, const char* what) {
  if (v < std::numeric_limits<std::int32_t>::min() ||
      v > std::numeric_limits<std::int32_t>::max()) {
    bad_field(what, "value out of 32-bit range");
  }
  return static_cast<std::int32_t>(v);
}

std::uint64_t get_uv(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  std::uint64_t v = 0;
  if (!get_uvarint(p, end, v)) bad_field(what, "bad varint");
  return v;
}

std::int64_t get_sv(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  return zigzag_decode(get_uv(p, end, what));
}

std::int32_t get_sv32(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  return checked_i32(get_sv(p, end, what), what);
}

std::uint64_t get_raw64(const std::uint8_t** p, const std::uint8_t* end, const char* what) {
  if (end - *p < 8) malformed(std::string(what) + ": truncated 8-byte field");
  std::uint64_t v;
  std::memcpy(&v, *p, 8);
  *p += 8;
  return v;
}

// Event-field decoders over a PayloadBuffer: no end bound, see its
// slack-padding invariant.  They run eleven times per event, so they are
// forced inline to keep the cursor in a register; left to itself GCC calls
// them, which makes decoding ~1.6x slower.
[[gnu::always_inline]] inline std::uint64_t get_uv_padded(const std::uint8_t*& p,
                                                          const char* what) {
  std::uint64_t v = 0;
  if (!get_uvarint_padded(&p, v)) bad_field(what, "bad varint");
  return v;
}

[[gnu::always_inline]] inline std::int64_t get_sv_padded(const std::uint8_t*& p,
                                                         const char* what) {
  return zigzag_decode(get_uv_padded(p, what));
}

[[gnu::always_inline]] inline std::int32_t get_sv32_padded(const std::uint8_t*& p,
                                                           const char* what) {
  return checked_i32(get_sv_padded(p, what), what);
}

/// Rejects an event chunk whose `count` cannot fit in [p, end) at
/// kMinEncodedEvent bytes per event, which bounds every buffer sized from it.
void check_event_count(const std::uint8_t* p, const std::uint8_t* end, std::uint64_t count) {
  if (count > static_cast<std::uint64_t>(end - p) / kMinEncodedEvent) {
    malformed("event chunk count " + std::to_string(count) + " overruns chunk");
  }
}

/// One encoded event's fields as the walker reads them: delta-coded fields
/// as their raw deltas.
struct EventFields {
  std::uint8_t type;
  std::uint64_t local_delta;
  const std::uint8_t* tail;  ///< the event's bytes from true_ts on
  std::uint64_t true_delta;
  std::int32_t region;
  std::int32_t peer;
  std::int32_t tag;
  std::uint32_t bytes;
  std::uint64_t msg_delta;
  std::uint8_t coll;
  std::uint64_t coll_delta;
  std::int32_t root;
  std::int32_t omp_instance;
  std::int32_t thread;
};

/// The validating event walker: reads `count` events from [p, end) — the
/// payload after the chunk head, inside a PayloadBuffer — runs every check of
/// the event format on each, and hands it to `sink(fields, event_end)` once
/// all of them passed; then rejects trailing bytes.  decode_events and
/// splice_local_ts are its two sinks, so both accept and reject exactly the
/// same chunks with the same messages.  The caller has run
/// check_event_count.
template <class Sink>
[[gnu::always_inline]] inline void walk_events(const std::uint8_t* p, const std::uint8_t* end,
                                               std::uint64_t count, Sink&& sink) {
  for (std::uint64_t i = 0; i < count; ++i) {
    EventFields f;
    f.type = *p++;
    if (f.type > kMaxEventType) bad_enum("event type", f.type);
    f.local_delta = static_cast<std::uint64_t>(get_sv_padded(p, "event local_ts"));
    f.tail = p;
    f.true_delta = static_cast<std::uint64_t>(get_sv_padded(p, "event true_ts"));
    f.region = get_sv32_padded(p, "event region");
    f.peer = get_sv32_padded(p, "event peer");
    f.tag = get_sv32_padded(p, "event tag");
    const std::uint64_t bytes = get_uv_padded(p, "event bytes");
    if (bytes > std::numeric_limits<std::uint32_t>::max()) malformed("event bytes out of range");
    f.bytes = static_cast<std::uint32_t>(bytes);
    f.msg_delta = static_cast<std::uint64_t>(get_sv_padded(p, "event msg_id"));
    f.coll = *p++;
    if (f.coll > kMaxCollKind) bad_enum("collective kind", f.coll);
    f.coll_delta = static_cast<std::uint64_t>(get_sv_padded(p, "event coll_id"));
    f.root = get_sv32_padded(p, "event root");
    f.omp_instance = get_sv32_padded(p, "event omp_instance");
    f.thread = get_sv32_padded(p, "event thread");
    if (p > end) malformed("event chunk ends mid-event");
    sink(f, p);
  }
  if (p != end) malformed("trailing bytes in event chunk");
}

/// Decodes `count` delta-encoded events from [p, end) — the payload after the
/// chunk head, inside a PayloadBuffer — and appends them to `out`.  Shared by
/// the sequential TraceReader and the random-access ChunkReader so both
/// enforce identical validation.
void decode_events(const std::uint8_t* p, const std::uint8_t* end, std::uint64_t count,
                   std::vector<Event>& out) {
  check_event_count(p, end, count);
  const auto n = static_cast<std::size_t>(count);
  if (out.capacity() - out.size() < n) {
    out.reserve(std::max(out.size() + n, 2 * out.capacity()));
  }
  // Deltas accumulate as raw bits, so a forged delta wraps instead of
  // overflowing.
  std::uint64_t prev_local = 0;
  std::uint64_t prev_true = 0;
  std::uint64_t prev_msg = 0;
  std::uint64_t prev_coll = 0;
  walk_events(p, end, count, [&](const EventFields& f, const std::uint8_t*) {
    Event e;
    e.type = static_cast<EventType>(f.type);
    prev_local += f.local_delta;
    prev_true += f.true_delta;
    e.local_ts = std::bit_cast<double>(prev_local);
    e.true_ts = std::bit_cast<double>(prev_true);
    e.region = f.region;
    e.peer = f.peer;
    e.tag = f.tag;
    e.bytes = f.bytes;
    prev_msg += f.msg_delta;
    e.msg_id = static_cast<std::int64_t>(prev_msg);
    e.coll = static_cast<CollectiveKind>(f.coll);
    prev_coll += f.coll_delta;
    e.coll_id = static_cast<std::int64_t>(prev_coll);
    e.root = f.root;
    e.omp_instance = f.omp_instance;
    e.thread = f.thread;
    out.push_back(e);
  });
}

/// Parses the meta-chunk payload.  Shared by TraceReader and index_trace_v2.
TraceMeta parse_meta_payload(const std::uint8_t* p, const std::uint8_t* end) {
  TraceMeta meta;
  const std::uint64_t timer_len = get_uv(&p, end, "meta timer");
  if (timer_len > static_cast<std::uint64_t>(end - p)) malformed("meta timer name overruns chunk");
  meta.timer_name.assign(reinterpret_cast<const char*>(p), timer_len);
  p += timer_len;

  const std::uint64_t nranks = get_uv(&p, end, "meta rank count");
  // Each rank location needs at least three varint bytes.
  if (nranks > static_cast<std::uint64_t>(end - p) / 3) {
    malformed("meta rank count " + std::to_string(nranks) + " overruns chunk");
  }
  std::vector<CoreLocation> locs(static_cast<std::size_t>(nranks));
  for (auto& loc : locs) {
    loc.node = get_sv32(&p, end, "meta placement");
    loc.chip = get_sv32(&p, end, "meta placement");
    loc.core = get_sv32(&p, end, "meta placement");
  }
  meta.placement = Placement(std::move(locs));

  for (auto& d : meta.domain_min_latency) {
    d = std::bit_cast<double>(get_raw64(&p, end, "meta latency"));
  }

  const std::uint64_t nregions = get_uv(&p, end, "meta region count");
  if (nregions > static_cast<std::uint64_t>(end - p)) {
    malformed("meta region count " + std::to_string(nregions) + " overruns chunk");
  }
  meta.regions.reserve(static_cast<std::size_t>(nregions));
  for (std::uint64_t i = 0; i < nregions; ++i) {
    const std::uint64_t len = get_uv(&p, end, "meta region name");
    if (len > static_cast<std::uint64_t>(end - p)) malformed("meta region name overruns chunk");
    meta.regions.emplace_back(reinterpret_cast<const char*>(p), len);
    p += len;
  }
  if (p != end) malformed("trailing bytes in meta chunk");
  return meta;
}

}  // namespace

// -- TraceMeta ----------------------------------------------------------------

Duration TraceMeta::min_latency(Rank a, Rank b) const {
  const CommDomain d = placement.domain(a, b);
  CS_REQUIRE(d != CommDomain::SameCore, "no latency between co-located ranks");
  return domain_min_latency[static_cast<std::size_t>(d) - 1];
}

TraceMeta TraceMeta::of(const Trace& trace) {
  TraceMeta m;
  m.placement = trace.placement();
  m.domain_min_latency = trace.domain_min_latency();
  m.timer_name = trace.timer_name();
  m.regions = trace.regions();
  return m;
}

// -- PayloadBuffer ------------------------------------------------------------

std::uint8_t* PayloadBuffer::resize(std::size_t len) {
  if (buf_.size() < len + kDecodeSlack) buf_.resize(len + kDecodeSlack);
  std::memset(buf_.data() + len, 0, kDecodeSlack);
  len_ = len;
  return buf_.data();
}

// -- splice -------------------------------------------------------------------

std::span<const std::uint8_t> splice_local_ts(const PayloadBuffer& payload, std::size_t head_len,
                                              std::span<const double> local_ts,
                                              std::vector<std::uint8_t>& out) {
  CS_REQUIRE(head_len <= payload.size(), "chunk head longer than the payload");
  const std::uint8_t* p = payload.data() + head_len;
  const std::uint8_t* end = payload.end();
  const std::uint64_t count = local_ts.size();
  check_event_count(p, end, count);
  // A new local_ts delta takes at most kMaxVarintBytes where the old one took
  // at least one byte, and every other byte is copied.  Growth leaves a
  // quarter of headroom, so chunks of similar size reuse the buffer instead
  // of regrowing it a little each time.
  const std::size_t bound =
      static_cast<std::size_t>(end - p) + static_cast<std::size_t>(count) * (kMaxVarintBytes - 1);
  if (out.size() < bound) out.resize(bound + bound / 4);
  std::uint8_t* q = out.data();
  const double* ts = local_ts.data();
  std::uint64_t prev = 0;  // the writer's per-chunk delta reset
  walk_events(p, end, count, [&](const EventFields& f, const std::uint8_t* event_end) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(*ts++);
    *q++ = f.type;
    q = put_svarint(q, static_cast<std::int64_t>(bits - prev));
    prev = bits;
    const auto tail = static_cast<std::size_t>(event_end - f.tail);
    std::memcpy(q, f.tail, tail);
    q += tail;
  });
  const auto len = static_cast<std::size_t>(q - out.data());
  if (head_len + len > kMaxChunkPayload) {
    malformed("corrected event chunk of " + std::to_string(head_len + len) +
              " bytes exceeds the 64 MiB payload limit");
  }
  return {out.data(), len};
}

// -- TraceWriter --------------------------------------------------------------

TraceWriter::TraceWriter(std::ostream& out, TraceMeta meta, std::size_t events_per_chunk)
    : out_(out), ranks_(meta.ranks()), events_per_chunk_(events_per_chunk) {
  CS_REQUIRE(events_per_chunk_ > 0, "events_per_chunk must be positive");
  CS_REQUIRE(events_per_chunk_ <= kMaxChunkPayload / 128,
             "events_per_chunk too large for the chunk payload limit");

  // File header.
  char header[8];
  std::memcpy(header, &kMagic, 4);
  std::memcpy(header + 4, &kVersion, 4);
  out_.write(header, 8);
  file_crc_ = crc32c(file_crc_, header, 8);
  bytes_written_ += 8;

  // Meta chunk.
  std::vector<std::uint8_t> body;
  put_uvarint(body, meta.timer_name.size());
  body.insert(body.end(), meta.timer_name.begin(), meta.timer_name.end());
  put_uvarint(body, static_cast<std::uint64_t>(ranks_));
  for (Rank r = 0; r < ranks_; ++r) {
    const CoreLocation& loc = meta.placement.location(r);
    put_svarint(body, loc.node);
    put_svarint(body, loc.chip);
    put_svarint(body, loc.core);
  }
  for (Duration d : meta.domain_min_latency) put_f64(body, d);
  put_uvarint(body, meta.regions.size());
  for (const std::string& name : meta.regions) {
    put_uvarint(body, name.size());
    body.insert(body.end(), name.begin(), name.end());
  }
  emit_chunk(kChunkMeta, {}, body);
}

void TraceWriter::append(Rank rank, const Event& e) {
  CS_REQUIRE(!finished_, "append on a finished TraceWriter");
  CS_REQUIRE(rank >= 0 && rank < ranks_, "rank outside the placement");
  if (body_events_ == 0) {
    CS_REQUIRE(rank >= pending_rank_, "events must be appended rank-major");
    pending_rank_ = rank;
  } else if (rank != pending_rank_) {
    CS_REQUIRE(rank > pending_rank_, "events must be appended rank-major");
    flush_chunk();
    pending_rank_ = rank;
  }

  const auto type = static_cast<std::uint8_t>(e.type);
  const auto coll = static_cast<std::uint8_t>(e.coll);
  CS_REQUIRE(type <= kMaxEventType && coll <= kMaxCollKind, "event with invalid enum value");

  if (body_.size() - body_len_ < kMaxEncodedEvent) {
    body_.resize(std::max(2 * body_.size(), body_len_ + kMaxEncodedEvent));
  }
  const DeltaState cur{std::bit_cast<std::uint64_t>(e.local_ts),
                       std::bit_cast<std::uint64_t>(e.true_ts),
                       static_cast<std::uint64_t>(e.msg_id), static_cast<std::uint64_t>(e.coll_id)};
  const auto delta = [](std::uint64_t now, std::uint64_t before) {
    return static_cast<std::int64_t>(now - before);
  };
  std::uint8_t* p = body_.data() + body_len_;
  *p++ = type;
  p = put_svarint(p, delta(cur.local_bits, prev_.local_bits));
  p = put_svarint(p, delta(cur.true_bits, prev_.true_bits));
  p = put_svarint(p, e.region);
  p = put_svarint(p, e.peer);
  p = put_svarint(p, e.tag);
  p = put_uvarint(p, e.bytes);
  p = put_svarint(p, delta(cur.msg_id, prev_.msg_id));
  *p++ = coll;
  p = put_svarint(p, delta(cur.coll_id, prev_.coll_id));
  p = put_svarint(p, e.root);
  p = put_svarint(p, e.omp_instance);
  p = put_svarint(p, e.thread);
  body_len_ = static_cast<std::size_t>(p - body_.data());
  prev_ = cur;

  ++body_events_;
  ++total_events_;
  if (body_events_ >= events_per_chunk_) flush_chunk();
}

void TraceWriter::append_chunk(Rank rank, std::uint64_t count,
                               std::span<const std::uint8_t> body) {
  CS_REQUIRE(!finished_, "append_chunk on a finished TraceWriter");
  CS_REQUIRE(rank >= 0 && rank < ranks_, "rank outside the placement");
  CS_REQUIRE(count > 0 && count <= body.size() / kMinEncodedEvent,
             "append_chunk needs 1 .. body/13 events");
  flush_chunk();
  CS_REQUIRE(rank >= pending_rank_, "events must be appended rank-major");
  pending_rank_ = rank;
  emit_events(count, body);
  total_events_ += count;
}

void TraceWriter::flush_chunk() {
  if (body_events_ == 0) return;
  emit_events(body_events_, {body_.data(), body_len_});
  body_len_ = 0;
  body_events_ = 0;
  prev_ = {};
}

void TraceWriter::emit_events(std::uint64_t count, std::span<const std::uint8_t> body) {
  std::uint8_t head[3 * kMaxVarintBytes];
  std::uint8_t* h = put_uvarint(head, chunk_seq_);
  h = put_uvarint(h, static_cast<std::uint64_t>(pending_rank_));
  h = put_uvarint(h, count);
  emit_chunk(kChunkEvents, {head, h}, body);
  ++chunk_seq_;
}

void TraceWriter::emit_chunk(std::uint8_t kind, std::span<const std::uint8_t> head,
                             std::span<const std::uint8_t> body) {
  CS_SPAN("trace.write_chunk");
  const std::uint64_t len64 = head.size() + body.size();
  CS_ENSURE(len64 <= kMaxChunkPayload, "chunk payload exceeds the format limit");
  const auto len = static_cast<std::uint32_t>(len64);

  char hdr[5];
  hdr[0] = static_cast<char>(kind);
  std::memcpy(hdr + 1, &len, 4);

  std::uint32_t crc;
  {
    CS_SPAN("trace.crc");
    crc = crc32c(0, hdr, 5);
    crc = crc32c(crc, head.data(), head.size());
    crc = crc32c(crc, body.data(), body.size());
  }

  out_.write(hdr, 5);
  out_.write(reinterpret_cast<const char*>(head.data()),
             static_cast<std::streamsize>(head.size()));
  out_.write(reinterpret_cast<const char*>(body.data()),
             static_cast<std::streamsize>(body.size()));
  char crc_bytes[4];
  std::memcpy(crc_bytes, &crc, 4);
  out_.write(crc_bytes, 4);
  if (!out_.good()) throw TraceIoError(TraceIoErrorKind::Io, "trace write failed");

  file_crc_ = crc32c_combine(file_crc_, crc, 5 + len64);
  file_crc_ = crc32c(file_crc_, crc_bytes, 4);
  bytes_written_ += 5 + len64 + 4;

  if (obs::metrics_enabled()) {
    static obs::Counter& chunks = obs::counter("trace.chunks_out");
    static obs::Counter& bytes_out = obs::counter("trace.bytes_out");
    chunks.add(1);
    bytes_out.add(static_cast<std::int64_t>(5 + len64 + 4));
  }
}

void TraceWriter::finish() {
  CS_REQUIRE(!finished_, "finish on a finished TraceWriter");
  flush_chunk();
  std::vector<std::uint8_t> body;
  put_uvarint(body, chunk_seq_);
  put_uvarint(body, total_events_);
  put_raw32(body, file_crc_);
  emit_chunk(kChunkFooter, {}, body);
  out_.flush();
  if (!out_.good()) throw TraceIoError(TraceIoErrorKind::Io, "trace write failed");
  finished_ = true;
}

// -- TraceReader --------------------------------------------------------------

TraceReader::TraceReader(std::istream& in, bool header_consumed) : src_(in) {
  char header[8];
  std::memcpy(header, &kMagic, 4);
  std::memcpy(header + 4, &kVersion, 4);
  if (!header_consumed) {
    const std::uint32_t magic = src_.get_u32("trace header");
    if (magic != kMagic) {
      throw TraceIoError(TraceIoErrorKind::BadMagic, "not a chronosync trace stream");
    }
    const std::uint32_t version = src_.get_u32("trace header");
    if (version != kVersion) {
      throw TraceIoError(TraceIoErrorKind::BadVersion,
                         "expected container version 2, found " + std::to_string(version));
    }
  }
  // The file CRC covers the 8 header bytes; a dispatcher that consumed them
  // already verified their values, so fold the known constants.
  file_crc_ = crc32c(file_crc_, header, 8);

  if (read_chunk() != kChunkMeta) {
    malformed("first chunk must be the meta chunk");
  }
  parse_meta();
}

std::uint8_t TraceReader::read_chunk() {
  CS_SPAN("trace.read_chunk");
  const std::uint8_t kind = src_.get_u8("chunk header");
  const std::uint32_t len = src_.get_u32("chunk header");
  if (len > kMaxChunkPayload) {
    malformed("chunk payload length " + std::to_string(len) + " exceeds the 64 MiB limit");
  }
  src_.need(static_cast<std::uint64_t>(len) + 4, "chunk payload");
  src_.read_exact(payload_.resize(len), len, "chunk payload");
  const std::uint32_t stored = src_.get_u32("chunk checksum");

  if (obs::metrics_enabled()) {
    static obs::Counter& chunks = obs::counter("trace.chunks_in");
    static obs::Counter& bytes_in = obs::counter("trace.bytes_in");
    chunks.add(1);
    bytes_in.add(static_cast<std::int64_t>(5 + static_cast<std::uint64_t>(len) + 4));
  }

  char hdr[5];
  hdr[0] = static_cast<char>(kind);
  std::memcpy(hdr + 1, &len, 4);
  obs::Span crc_span("trace.crc");
  std::uint32_t crc = crc32c(0, hdr, 5);
  crc = crc32c(crc, payload_.data(), payload_.size());
  if (crc != stored) {
    throw TraceIoError(TraceIoErrorKind::BadChecksum,
                       "chunk checksum mismatch (kind '" + std::string(1, static_cast<char>(kind)) +
                           "')");
  }

  if (kind != kChunkFooter) {
    // The footer's CRC field covers every byte before the footer chunk.
    char crc_bytes[4];
    std::memcpy(crc_bytes, &stored, 4);
    file_crc_ = crc32c_combine(file_crc_, crc, 5 + static_cast<std::uint64_t>(len));
    file_crc_ = crc32c(file_crc_, crc_bytes, 4);
  }
  return kind;
}

void TraceReader::parse_meta() {
  meta_ = parse_meta_payload(payload_.data(), payload_.end());
}

bool TraceReader::next(EventBlock& block) {
  Rank rank = 0;
  std::uint64_t count = 0;
  const std::uint8_t* body = next_chunk(rank, count);
  if (body == nullptr) return false;
  block.rank = rank;
  block.events.clear();
  decode_events(body, payload_.end(), count, block.events);
  return true;
}

bool TraceReader::next_into(Trace& trace) {
  CS_REQUIRE(trace.ranks() == ranks(), "trace does not match the reader's placement");
  Rank rank = 0;
  std::uint64_t count = 0;
  const std::uint8_t* body = next_chunk(rank, count);
  if (body == nullptr) return false;
  decode_events(body, payload_.end(), count, trace.events(rank));
  return true;
}

const std::uint8_t* TraceReader::next_chunk(Rank& rank, std::uint64_t& count) {
  if (done_) return nullptr;
  const std::uint8_t kind = read_chunk();
  if (kind == kChunkFooter) {
    parse_footer();
    done_ = true;
    return nullptr;
  }
  if (kind == kChunkMeta) malformed("duplicate meta chunk");
  if (kind != kChunkEvents) {
    malformed("unknown chunk kind '" + std::string(1, static_cast<char>(kind)) + "'");
  }

  const std::uint8_t* p = payload_.data();
  const std::uint8_t* end = payload_.end();

  const std::uint64_t seq = get_uv(&p, end, "event chunk sequence");
  if (seq != event_chunks_seen_) {
    malformed("event chunk out of sequence (duplicated, dropped, or reordered chunk): expected " +
              std::to_string(event_chunks_seen_) + ", found " + std::to_string(seq));
  }
  const std::uint64_t rank64 = get_uv(&p, end, "event chunk rank");
  if (rank64 >= static_cast<std::uint64_t>(ranks())) {
    malformed("event chunk rank " + std::to_string(rank64) + " outside the placement");
  }
  rank = static_cast<Rank>(rank64);
  if (rank < last_rank_) malformed("event chunks out of rank order");

  count = get_uv(&p, end, "event chunk count");
  if (count == 0) malformed("empty event chunk");

  ++event_chunks_seen_;
  events_read_ += count;
  last_rank_ = rank;
  return p;
}

void TraceReader::parse_footer() {
  const std::uint8_t* p = payload_.data();
  const std::uint8_t* end = payload_.end();
  const std::uint64_t nchunks = get_uv(&p, end, "footer chunk count");
  if (nchunks != event_chunks_seen_) {
    malformed("footer event-chunk count " + std::to_string(nchunks) + " != " +
              std::to_string(event_chunks_seen_) + " chunks read");
  }
  const std::uint64_t total = get_uv(&p, end, "footer event total");
  if (total != events_read_) {
    malformed("footer event total " + std::to_string(total) + " != " +
              std::to_string(events_read_) + " events read");
  }
  if (end - p != 4) malformed("footer payload has wrong size");
  std::uint32_t stored;
  std::memcpy(&stored, p, 4);
  if (stored != file_crc_) {
    throw TraceIoError(TraceIoErrorKind::BadChecksum, "whole-file checksum mismatch");
  }
  if (!src_.exhausted()) malformed("trailing data after trace footer");
}

// -- chunk index & random access ----------------------------------------------

namespace {

void read_or_throw(std::istream& in, char* dst, std::streamsize n, const char* what) {
  in.read(dst, n);
  if (in.gcount() != n) {
    throw TraceIoError(TraceIoErrorKind::Truncated,
                       std::string(what) + ": unexpected end of stream");
  }
}

}  // namespace

TraceIndex index_trace_v2(std::istream& in) {
  // Record the stream's starting position so ChunkRef offsets are absolute
  // (seekg-able) even if the caller handed us a stream mid-file.
  std::streamoff base = 0;
  {
    const std::streamoff pos = in.tellg();
    if (pos > 0) {
      base = pos;
    } else {
      in.clear();
    }
  }

  char header[8];
  read_or_throw(in, header, 8, "trace header");
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 4);
  if (magic != kMagic) {
    throw TraceIoError(TraceIoErrorKind::BadMagic, "not a chronosync trace stream");
  }
  if (version != kVersion) {
    throw TraceIoError(TraceIoErrorKind::BadVersion,
                       "expected container version 2, found " + std::to_string(version));
  }
  std::uint32_t file_crc = crc32c(0, header, 8);

  TraceIndex idx;
  std::vector<std::uint8_t> payload;
  std::uint64_t offset = 8;
  bool meta_seen = false;
  Rank last_rank = 0;
  std::uint64_t events_total = 0;

  for (;;) {
    const std::uint64_t chunk_offset = static_cast<std::uint64_t>(base) + offset;
    // A clean EOF here means the writer never sealed the file: the last event
    // chunk may be complete, but without the footer nothing vouches for the
    // chunk sequence or the whole-file CRC — reject as truncated.
    char hdr[5];
    read_or_throw(in, hdr, 5, "chunk header");
    const auto kind = static_cast<std::uint8_t>(hdr[0]);
    std::uint32_t len = 0;
    std::memcpy(&len, hdr + 1, 4);
    if (len > kMaxChunkPayload) {
      malformed("chunk payload length " + std::to_string(len) + " exceeds the 64 MiB limit");
    }
    payload.resize(len);
    read_or_throw(in, reinterpret_cast<char*>(payload.data()), len, "chunk payload");
    char crc_bytes[4];
    read_or_throw(in, crc_bytes, 4, "chunk checksum");
    std::uint32_t stored = 0;
    std::memcpy(&stored, crc_bytes, 4);
    std::uint32_t crc = crc32c(0, hdr, 5);
    crc = crc32c(crc, payload.data(), payload.size());
    if (crc != stored) {
      throw TraceIoError(TraceIoErrorKind::BadChecksum,
                         "chunk checksum mismatch (kind '" +
                             std::string(1, static_cast<char>(kind)) + "')");
    }
    if (kind != kChunkFooter) {
      file_crc = crc32c_combine(file_crc, crc, 5 + static_cast<std::uint64_t>(len));
      file_crc = crc32c(file_crc, crc_bytes, 4);
    }
    offset += 5 + static_cast<std::uint64_t>(len) + 4;

    const std::uint8_t* p = payload.data();
    const std::uint8_t* end = p + payload.size();
    if (!meta_seen) {
      if (kind != kChunkMeta) malformed("first chunk must be the meta chunk");
      idx.meta = parse_meta_payload(p, end);
      idx.rank_events.assign(static_cast<std::size_t>(idx.meta.ranks()), 0);
      meta_seen = true;
      continue;
    }
    if (kind == kChunkMeta) malformed("duplicate meta chunk");
    if (kind == kChunkEvents) {
      const std::uint64_t seq = get_uv(&p, end, "event chunk sequence");
      if (seq != idx.chunks.size()) {
        malformed(
            "event chunk out of sequence (duplicated, dropped, or reordered chunk): expected " +
            std::to_string(idx.chunks.size()) + ", found " + std::to_string(seq));
      }
      const std::uint64_t rank64 = get_uv(&p, end, "event chunk rank");
      if (rank64 >= static_cast<std::uint64_t>(idx.meta.ranks())) {
        malformed("event chunk rank " + std::to_string(rank64) + " outside the placement");
      }
      const auto rank = static_cast<Rank>(rank64);
      if (rank < last_rank) malformed("event chunks out of rank order");
      const std::uint64_t count = get_uv(&p, end, "event chunk count");
      if (count == 0) malformed("empty event chunk");
      check_event_count(p, end, count);
      idx.chunks.push_back(
          {chunk_offset, len, seq, rank, static_cast<std::uint32_t>(count)});
      idx.rank_events[static_cast<std::size_t>(rank)] += count;
      events_total += count;
      last_rank = rank;
      continue;
    }
    if (kind != kChunkFooter) {
      malformed("unknown chunk kind '" + std::string(1, static_cast<char>(kind)) + "'");
    }
    const std::uint64_t nchunks = get_uv(&p, end, "footer chunk count");
    if (nchunks != idx.chunks.size()) {
      malformed("footer event-chunk count " + std::to_string(nchunks) + " != " +
                std::to_string(idx.chunks.size()) + " chunks read");
    }
    const std::uint64_t total = get_uv(&p, end, "footer event total");
    if (total != events_total) {
      malformed("footer event total " + std::to_string(total) + " != " +
                std::to_string(events_total) + " events read");
    }
    if (end - p != 4) malformed("footer payload has wrong size");
    std::memcpy(&stored, p, 4);
    if (stored != file_crc) {
      throw TraceIoError(TraceIoErrorKind::BadChecksum, "whole-file checksum mismatch");
    }
    if (in.peek() != std::char_traits<char>::eof()) {
      malformed("trailing data after trace footer");
    }
    break;
  }
  idx.total_events = events_total;
  return idx;
}

TraceIndex index_trace_v2_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for reading: " + path);
  }
  return index_trace_v2(f);
}

ChunkReader::ChunkReader(std::istream& in, const TraceIndex& index)
    : in_(in), ranks_(index.meta.ranks()) {}

std::size_t ChunkReader::load(const ChunkRef& ref) {
  CS_SPAN("trace.read_chunk");
  CS_REQUIRE(ref.rank >= 0 && ref.rank < ranks_, "chunk ref outside the placement");
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(ref.offset));
  if (!in_.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "seek to event chunk failed");
  }
  char hdr[5];
  read_or_throw(in_, hdr, 5, "chunk header");
  std::uint32_t len = 0;
  std::memcpy(&len, hdr + 1, 4);
  if (static_cast<std::uint8_t>(hdr[0]) != kChunkEvents || len != ref.payload_len) {
    malformed("event chunk does not match its index entry");
  }
  read_or_throw(in_, reinterpret_cast<char*>(payload_.resize(len)), len, "chunk payload");
  char crc_bytes[4];
  read_or_throw(in_, crc_bytes, 4, "chunk checksum");
  std::uint32_t stored = 0;
  std::memcpy(&stored, crc_bytes, 4);
  std::uint32_t crc = crc32c(0, hdr, 5);
  crc = crc32c(crc, payload_.data(), payload_.size());
  if (crc != stored) {
    throw TraceIoError(TraceIoErrorKind::BadChecksum, "chunk checksum mismatch (kind 'E')");
  }

  if (obs::metrics_enabled()) {
    static obs::Counter& chunks = obs::counter("trace.chunks_in");
    static obs::Counter& bytes_in = obs::counter("trace.bytes_in");
    chunks.add(1);
    bytes_in.add(static_cast<std::int64_t>(5 + static_cast<std::uint64_t>(len) + 4));
  }

  const std::uint8_t* p = payload_.data();
  const std::uint8_t* end = payload_.end();
  const std::uint64_t seq = get_uv(&p, end, "event chunk sequence");
  const std::uint64_t rank64 = get_uv(&p, end, "event chunk rank");
  const std::uint64_t count = get_uv(&p, end, "event chunk count");
  if (seq != ref.seq || rank64 != static_cast<std::uint64_t>(ref.rank) || count != ref.count) {
    malformed("event chunk does not match its index entry");
  }
  return static_cast<std::size_t>(p - payload_.data());
}

void ChunkReader::read(const ChunkRef& ref, EventBlock& out) {
  const std::size_t head_len = load(ref);
  out.rank = ref.rank;
  out.events.clear();
  decode_events(payload_.data() + head_len, payload_.end(), ref.count, out.events);
}

std::span<const std::uint8_t> ChunkReader::splice(const ChunkRef& ref,
                                                  std::span<const double> local_ts,
                                                  std::vector<std::uint8_t>& out) {
  CS_REQUIRE(local_ts.size() == ref.count, "splice needs one timestamp per event of the chunk");
  const std::size_t head_len = load(ref);
  return splice_local_ts(payload_, head_len, local_ts, out);
}

// -- conveniences -------------------------------------------------------------

void write_trace_v2(const Trace& trace, std::ostream& out, std::size_t events_per_chunk) {
  TraceWriter w(out, TraceMeta::of(trace), events_per_chunk);
  for (Rank r = 0; r < trace.ranks(); ++r) {
    for (const Event& e : trace.events(r)) w.append(r, e);
  }
  w.finish();
}

void write_trace_v2_file(const Trace& trace, const std::string& path,
                         std::size_t events_per_chunk) {
  std::ofstream f(path, std::ios::binary);
  if (!f.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for writing: " + path);
  }
  write_trace_v2(trace, f, events_per_chunk);
}

Trace read_trace_v2(TraceReader& reader) {
  const TraceMeta& meta = reader.meta();
  Trace trace(meta.placement, meta.domain_min_latency, meta.timer_name);
  for (std::size_t i = 0; i < meta.regions.size(); ++i) {
    const std::int32_t got = trace.intern_region(meta.regions[i]);
    if (static_cast<std::size_t>(got) != i) malformed("duplicate region name in meta chunk");
  }
  while (reader.next_into(trace)) {
  }
  return trace;
}

Trace read_trace_v2(std::istream& in) {
  TraceReader reader(in);
  return read_trace_v2(reader);
}

Trace read_trace_v2_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) {
    throw TraceIoError(TraceIoErrorKind::Io, "cannot open trace file for reading: " + path);
  }
  return read_trace_v2(f);
}

}  // namespace chronosync
