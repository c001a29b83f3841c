// Deterministic mutation corpus for the trace readers.  Seeds a set of valid
// blobs in all three formats, then applies structured mutations — single-bit
// flips, truncations, duplicated/removed/reordered chunks, corrupted CRC
// fields, and plain garbage — and asserts the readers ALWAYS fail with a
// typed TraceIoError (v2: every mutation is detectable thanks to the chunk
// and file checksums) or, for the unchecksummed v1/text formats, either parse
// successfully or throw TraceIoError.  No mutation may crash, abort, or throw
// anything else; the suite is also run under ASan/UBSan in CI.  One
// differential reseals its mutations (recomputes every CRC) so they reach the
// event decoder, and holds the timestamp splice to the decoder's verdicts.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "../testutil/random_trace.hpp"
#include "common/crc32c.hpp"
#include "common/rng.hpp"
#include "trace/otf_text.hpp"
#include "trace/stream_io.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_io_error.hpp"

namespace chronosync {
namespace {

using testutil::random_trace;

enum class Outcome { Parsed, IoError, WrongException };

template <typename ReadFn>
Outcome feed(const std::string& blob, ReadFn&& read) {
  std::stringstream in(blob);
  try {
    read(in);
    return Outcome::Parsed;
  } catch (const TraceIoError&) {
    return Outcome::IoError;
  } catch (...) {
    return Outcome::WrongException;
  }
}

Outcome feed_v2(const std::string& blob) {
  return feed(blob, [](std::istream& in) { read_trace_v2(in); });
}

Outcome feed_v1(const std::string& blob) {
  return feed(blob, [](std::istream& in) { read_trace(in); });
}

Outcome feed_text(const std::string& blob) {
  return feed(blob, [](std::istream& in) { read_text_trace(in); });
}

/// v2 is fully checksummed: every mutation must yield a TraceIoError.
void expect_v2_rejected(const std::string& blob, const std::string& context) {
  const Outcome got = feed_v2(blob);
  if (got == Outcome::Parsed) {
    ADD_FAILURE() << "v2 reader accepted a mutated blob: " << context;
  } else if (got == Outcome::WrongException) {
    ADD_FAILURE() << "v2 reader threw something other than TraceIoError: " << context;
  }
}

/// v1/text carry no checksums, so a mutation may produce a different but
/// well-formed blob; the reader must still never crash or throw a foreign
/// exception type.
template <typename FeedFn>
void expect_no_crash(FeedFn&& feed_fn, const std::string& blob, const std::string& context) {
  if (feed_fn(blob) == Outcome::WrongException) {
    ADD_FAILURE() << "reader threw something other than TraceIoError: " << context;
  }
}

struct ChunkSpan {
  std::size_t off;   // offset of the kind byte
  std::size_t size;  // kind + len field + payload + crc
  char kind;
};

/// Walks the chunk framing of a well-formed v2 blob.
std::vector<ChunkSpan> chunk_spans(const std::string& blob) {
  std::vector<ChunkSpan> spans;
  std::size_t pos = 8;  // skip magic + version
  while (pos + 5 <= blob.size()) {
    std::uint32_t len;
    std::memcpy(&len, blob.data() + pos + 1, 4);
    const std::size_t total = 1 + 4 + static_cast<std::size_t>(len) + 4;
    spans.push_back({pos, total, blob[pos]});
    pos += total;
  }
  EXPECT_EQ(pos, blob.size()) << "seed blob has broken framing";
  return spans;
}

struct Corpus {
  std::string v1;
  std::string v2;
  std::string text;
};

Corpus make_corpus(std::uint64_t seed, bool extreme) {
  const Trace t = random_trace(seed, extreme);
  Corpus c;
  std::stringstream b1;
  std::stringstream b2;
  std::stringstream bt;
  write_trace(t, b1);
  write_trace_v2(t, b2, /*events_per_chunk=*/5);  // many chunk boundaries
  write_text_trace(t, bt);
  c.v1 = b1.str();
  c.v2 = b2.str();
  c.text = bt.str();
  return c;
}

constexpr std::uint64_t kSeeds[] = {3, 17, 42};

TEST(TraceFuzz, SeedBlobsParseCleanly) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, seed % 2 == 0);
    EXPECT_EQ(feed_v1(c.v1), Outcome::Parsed);
    EXPECT_EQ(feed_v2(c.v2), Outcome::Parsed);
    EXPECT_EQ(feed_text(c.text), Outcome::Parsed);
  }
}

TEST(TraceFuzz, BitFlips) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, seed % 2 == 0);
    Rng rng(seed * 7919 + 1);
    for (int i = 0; i < 1200; ++i) {
      const std::size_t byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.v2.size()) - 1));
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      std::string m = c.v2;
      m[byte] = static_cast<char>(m[byte] ^ (1 << bit));
      expect_v2_rejected(m, "v2 flip byte " + std::to_string(byte) + " bit " +
                                std::to_string(bit) + " seed " + std::to_string(seed));
    }
    for (int i = 0; i < 600; ++i) {
      const std::size_t byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.v1.size()) - 1));
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      std::string m = c.v1;
      m[byte] = static_cast<char>(m[byte] ^ (1 << bit));
      expect_no_crash(feed_v1, m, "v1 flip byte " + std::to_string(byte) + " bit " +
                                      std::to_string(bit) + " seed " + std::to_string(seed));
    }
    for (int i = 0; i < 600; ++i) {
      const std::size_t byte = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.text.size()) - 1));
      const int bit = static_cast<int>(rng.uniform_int(0, 7));
      std::string m = c.text;
      m[byte] = static_cast<char>(m[byte] ^ (1 << bit));
      expect_no_crash(feed_text, m, "text flip byte " + std::to_string(byte) + " bit " +
                                        std::to_string(bit) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, Truncations) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    Rng rng(seed * 104729 + 2);
    // v2 and v1: every strict prefix must throw; sample plus hit both ends.
    for (int i = 0; i < 400; ++i) {
      const std::size_t n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.v2.size()) - 1));
      expect_v2_rejected(c.v2.substr(0, n),
                         "v2 prefix " + std::to_string(n) + " seed " + std::to_string(seed));
    }
    for (int i = 0; i < 400; ++i) {
      const std::size_t n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.v1.size()) - 1));
      const Outcome got = feed_v1(c.v1.substr(0, n));
      EXPECT_EQ(got, Outcome::IoError)
          << "v1 prefix " << n << " seed " << seed << " was not rejected";
    }
    // Text may truncate exactly at a line boundary, which legitimately
    // parses; only the no-crash guarantee applies.
    for (int i = 0; i < 300; ++i) {
      const std::size_t n = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.text.size()) - 1));
      expect_no_crash(feed_text, c.text.substr(0, n),
                      "text prefix " + std::to_string(n) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, DuplicatedChunks) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    const auto spans = chunk_spans(c.v2);
    for (const ChunkSpan& s : spans) {
      // A duplicated chunk is CRC-valid, so only the sequence numbers, the
      // footer counters, and the whole-file CRC can catch it.
      std::string m = c.v2;
      m.insert(s.off + s.size, c.v2.substr(s.off, s.size));
      expect_v2_rejected(m, std::string("duplicated '") + s.kind + "' chunk at " +
                                std::to_string(s.off) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, RemovedChunks) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    const auto spans = chunk_spans(c.v2);
    for (const ChunkSpan& s : spans) {
      std::string m = c.v2;
      m.erase(s.off, s.size);
      expect_v2_rejected(m, std::string("removed '") + s.kind + "' chunk at " +
                                std::to_string(s.off) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, ReorderedChunks) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    const auto spans = chunk_spans(c.v2);
    for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
      const ChunkSpan& a = spans[i];
      const ChunkSpan& b = spans[i + 1];
      std::string m = c.v2.substr(0, a.off) + c.v2.substr(b.off, b.size) +
                      c.v2.substr(a.off, a.size) + c.v2.substr(b.off + b.size);
      expect_v2_rejected(m, "swapped chunks " + std::to_string(i) + "/" +
                                std::to_string(i + 1) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, CorruptedChunkCrcFields) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    for (const ChunkSpan& s : chunk_spans(c.v2)) {
      std::string m = c.v2;
      // Invert the entire trailing CRC field of the chunk.
      for (std::size_t b = s.off + s.size - 4; b < s.off + s.size; ++b) {
        m[b] = static_cast<char>(~m[b]);
      }
      expect_v2_rejected(m, std::string("corrupted CRC of '") + s.kind + "' chunk at " +
                                std::to_string(s.off) + " seed " + std::to_string(seed));
    }
  }
}

TEST(TraceFuzz, RandomGarbage) {
  Rng rng(20260806);
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4096));
    std::string blob(n, '\0');
    for (auto& ch : blob) ch = static_cast<char>(rng.uniform_int(0, 255));
    const std::string context = "garbage #" + std::to_string(i);
    EXPECT_NE(feed_v2(blob), Outcome::WrongException) << context;
    EXPECT_NE(feed_v1(blob), Outcome::WrongException) << context;
    // Garbage essentially never reproduces a valid header, but the invariant
    // we assert is typed-failure, not which kind.
    expect_no_crash(feed_text, blob, context);
  }
}

TEST(TraceFuzz, GarbageAppendedToValidBlob) {
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, false);
    Rng rng(seed + 31);
    std::string tail(64, '\0');
    for (auto& ch : tail) ch = static_cast<char>(rng.uniform_int(0, 255));
    expect_v2_rejected(c.v2 + tail, "v2 with trailing garbage, seed " + std::to_string(seed));
    expect_no_crash(feed_v1, c.v1 + tail, "v1 with trailing garbage");
    expect_no_crash(feed_text, c.text + tail, "text with trailing garbage");
  }
}

/// Recomputes every chunk CRC and the footer's whole-file CRC of a blob whose
/// chunk framing is intact, so mutated payload bytes get past the checksums
/// and reach the parsers.
std::string reseal(std::string blob) {
  for (const ChunkSpan& s : chunk_spans(blob)) {
    if (s.kind == 'Z' && s.size >= 1 + 4 + 4 + 4) {
      const std::uint32_t file_crc = crc32c(0, blob.data(), s.off);
      std::memcpy(blob.data() + s.off + s.size - 8, &file_crc, 4);
    }
    const std::uint32_t crc = crc32c(0, blob.data() + s.off, s.size - 4);
    std::memcpy(blob.data() + s.off + s.size - 4, &crc, 4);
  }
  return blob;
}

/// Visits every chunk of the indexed `blob` with ChunkReader::read or, with
/// `splice`, ChunkReader::splice; returns the what() of the error that
/// stopped it, or nothing when every chunk was accepted.
std::optional<std::string> visit_chunks(const std::string& blob, const TraceIndex& index,
                                        bool splice) {
  std::istringstream in(blob);
  ChunkReader chunks(in, index);
  EventBlock block;
  std::vector<double> ts;
  std::vector<std::uint8_t> spliced;
  try {
    for (const ChunkRef& ref : index.chunks) {
      if (splice) {
        ts.assign(ref.count, 1e300);
        chunks.splice(ref, ts, spliced);
      } else {
        chunks.read(ref, block);
      }
    }
  } catch (const TraceIoError& e) {
    return std::string(e.what());
  }
  return std::nullopt;
}

TEST(TraceFuzz, SpliceAgreesWithDecoderOnResealedMutations) {
  // Mutations inside event payloads, resealed so that index_trace_v2 accepts
  // the blob: the decoder and the timestamp splice must then both accept it
  // or both throw the same error.
  std::size_t indexed = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed : kSeeds) {
    const Corpus c = make_corpus(seed, seed % 2 == 0);
    Rng rng(seed * 31337 + 5);
    for (const ChunkSpan& s : chunk_spans(c.v2)) {
      if (s.kind != 'E') continue;
      const std::size_t payload = s.off + 5;
      const std::size_t len = s.size - 9;
      for (int i = 0; i < 40; ++i) {
        std::string m = c.v2;
        const std::size_t at =
            payload + static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(len) - 1));
        const auto byte = static_cast<char>(rng.uniform_int(0, 255));
        std::uint32_t new_len = static_cast<std::uint32_t>(len);
        switch (i % 5) {
          case 0: m[at] = static_cast<char>(m[at] ^ (1 << rng.uniform_int(0, 7))); break;
          case 1: m[at] = byte; break;
          case 2: m[at] = static_cast<char>(0x80); break;  // lengthens a varint
          case 3: m.erase(at, 1); --new_len; break;
          default: m.insert(at, 1, byte); ++new_len; break;
        }
        std::memcpy(m.data() + s.off + 1, &new_len, 4);
        m = reseal(std::move(m));
        const std::string context = "seed " + std::to_string(seed) + " chunk at " +
                                    std::to_string(s.off) + " mutation " + std::to_string(i) +
                                    " at " + std::to_string(at);
        TraceIndex index;
        try {
          std::istringstream in(m);
          index = index_trace_v2(in);
        } catch (const TraceIoError&) {
          continue;  // the head or the footer caught it: no chunk to compare
        }
        ++indexed;
        const std::optional<std::string> read = visit_chunks(m, index, /*splice=*/false);
        const std::optional<std::string> splice = visit_chunks(m, index, /*splice=*/true);
        EXPECT_EQ(read, splice) << context;
        if (read) ++rejected;
      }
    }
  }
  EXPECT_GT(indexed, 500u);
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, indexed) << "no mutation left a decodable chunk";
}

}  // namespace
}  // namespace chronosync
