#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32c.hpp"
#include "common/crc32c_portable.hpp"
#include "common/rng.hpp"
#include "common/varint.hpp"

namespace chronosync {
namespace {

// RFC 3720 appendix B.4 test vectors (iSCSI CRC32C).
TEST(Crc32c, KnownVectors) {
  EXPECT_EQ(crc32c(0, "", 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(0, check.data(), check.size()), 0xE3069283u);
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(0, zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(0, ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  for (std::size_t i = 0; i < 32; ++i) ascending[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(0, ascending.data(), ascending.size()), 0x46DD794Eu);
}

TEST(Crc32c, PartialUpdatesCompose) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(0, data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c(0, data.data(), split);
    crc = crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, CombineMatchesDirect) {
  Rng rng(20261020);
  std::vector<std::uint8_t> buf(70000);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  auto check = [&](std::size_t n, std::size_t split) {
    const std::uint8_t* p = buf.data();
    const std::uint32_t a = crc32c(0, p, split);
    const std::uint32_t b = crc32c(0, p + split, n - split);
    ASSERT_EQ(crc32c_combine(a, b, n - split), crc32c(0, p, n))
        << "length " << n << " split at " << split;
  };
  // Empty and 1-byte parts on either side, including an empty whole.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{9},
                              buf.size()}) {
    check(n, 0);
    check(n, n);
    if (n >= 1) {
      check(n, 1);
      check(n, n - 1);
    }
  }
  for (int trial = 0; trial < 500; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(buf.size())));
    const auto split = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
    check(n, split);
  }
  // Lengths past what a test can checksum directly must still compose:
  // shifting by n1 then n2 bytes equals shifting by n1 + n2.
  const std::uint32_t a = crc32c(0, buf.data(), 100);
  const std::uint32_t b = crc32c(0, buf.data() + 100, 200);
  const std::uint32_t c = crc32c(0, buf.data() + 300, 300);
  for (const std::uint64_t n1 : {std::uint64_t{1} << 29, (std::uint64_t{3} << 30) + 7,
                                 (std::uint64_t{5} << 33) + 1}) {
    for (const std::uint64_t n2 : {std::uint64_t{1}, std::uint64_t{1} << 32,
                                   (std::uint64_t{9} << 40) + 3}) {
      EXPECT_EQ(crc32c_combine(crc32c_combine(a, b, n1), c, n2),
                crc32c_combine(a, crc32c_combine(b, c, n2), n1 + n2))
          << n1 << " + " << n2;
    }
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data = "chronosync trace chunk payload";
  const std::uint32_t clean = crc32c(0, data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
      EXPECT_NE(crc32c(0, data.data(), data.size()), clean)
          << "undetected flip at byte " << byte << " bit " << bit;
      data[byte] = static_cast<char>(data[byte] ^ (1 << bit));
    }
  }
}

// The dispatched crc32c() runs on the SSE4.2 instruction where the CPU has
// it; the portable tables are the reference it must match bit for bit.
TEST(Crc32c, HardwareMatchesPortable) {
  Rng rng(20261017);
  std::vector<std::uint8_t> buf(8 * 1024 * 1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = buf.data() + offset;
    for (std::size_t n = 0; n <= 4096; ++n) {
      const std::uint32_t seed = n % 3 == 0 ? 0u : static_cast<std::uint32_t>(n * 2654435761u);
      ASSERT_EQ(crc32c(seed, p, n), detail::crc32c_portable(seed, p, n))
          << "offset " << offset << " length " << n;
    }
    const std::size_t big = 8 * 1024 * 1024;
    const std::uint32_t whole = detail::crc32c_portable(0, p, big);
    ASSERT_EQ(crc32c(0, p, big), whole) << "8 MiB at offset " << offset;

    // Split and composed updates, each part at its own alignment.
    const std::size_t split = 4096 + 3 * offset + 1;
    EXPECT_EQ(crc32c(crc32c(0, p, split), p + split, big - split), whole);
    EXPECT_EQ(crc32c(detail::crc32c_portable(0, p, split), p + split, big - split), whole);
    EXPECT_EQ(detail::crc32c_portable(crc32c(0, p, split), p + split, big - split), whole);
    std::uint32_t pieces = 0;
    for (std::size_t at = 0, step = 1; at < big; at += step, step = step * 3 % 1021 + 1) {
      pieces = crc32c(pieces, p + at, std::min(step, big - at));
    }
    EXPECT_EQ(pieces, whole) << "piecewise at offset " << offset;
  }
}

// The SSE4.2 path runs 12,288-byte blocks as three 4096-byte lanes and the
// rest as one chain.  Every length up to one block plus a tail, lengths
// around later block multiples and every start alignment must give the
// portable value, whatever register the call starts from.
TEST(Crc32c, LanesMatchPortable) {
  constexpr std::size_t kLane = 4096;
  constexpr std::size_t kBlock = 3 * kLane;
  Rng rng(20261020);
  std::vector<std::uint8_t> buf(8 * kBlock + 64);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));

  for (std::size_t n = 0; n <= kBlock + 17; ++n) {
    const std::uint8_t* p = buf.data() + n % 8;
    const std::uint32_t seed = n % 2 == 0 ? 0u : static_cast<std::uint32_t>(n * 2654435761u);
    ASSERT_EQ(crc32c(seed, p, n), detail::crc32c_portable(seed, p, n)) << "length " << n;
  }
  for (std::size_t blocks = 1; blocks <= 7; ++blocks) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (const std::size_t n :
           {blocks * kBlock - 9, blocks * kBlock - 8, blocks * kBlock - 1, blocks * kBlock,
            blocks * kBlock + 1, blocks * kBlock + 7, blocks * kBlock + 8,
            blocks * kBlock + kLane, blocks * kBlock + 2 * kLane + 5}) {
        const std::uint8_t* p = buf.data() + offset;
        const std::uint32_t seed = static_cast<std::uint32_t>(n * 40503u + offset);
        ASSERT_EQ(crc32c(seed, p, n), detail::crc32c_portable(seed, p, n))
            << "length " << n << " offset " << offset;
      }
    }
  }
}

TEST(Crc32c, CombineAgreesAcrossLaneBoundaries) {
  constexpr std::size_t kLane = 4096;
  constexpr std::size_t kBlock = 3 * kLane;
  Rng rng(20261021);
  std::vector<std::uint8_t> buf(4 * kBlock + 100);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const std::uint8_t* p = buf.data() + 3;  // unaligned
  const std::size_t n = 4 * kBlock + 33;
  const std::uint32_t whole = detail::crc32c_portable(0, p, n);
  ASSERT_EQ(crc32c(0, p, n), whole);
  // Splits on, next to and between lane and block boundaries: each part
  // runs its own lanes from its own start.
  for (const std::size_t at :
       {std::size_t{1}, kLane - 1, kLane, kLane + 1, 2 * kLane, kBlock - 1, kBlock, kBlock + 1,
        kBlock + kLane, 2 * kBlock - 7, 2 * kBlock, 3 * kBlock + 2 * kLane, n - kBlock, n - 1}) {
    const std::uint32_t a = crc32c(0, p, at);
    const std::uint32_t b = crc32c(0, p + at, n - at);
    EXPECT_EQ(crc32c_combine(a, b, n - at), whole) << "split at " << at;
    EXPECT_EQ(crc32c(a, p + at, n - at), whole) << "continued at " << at;
  }
}

TEST(Varint, PointerEncoderMatchesVectorEncoder) {
  const std::uint64_t cases[] = {0, 1, 127, 128, 300, 1ull << 35, (1ull << 63) - 1,
                                 std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : cases) {
    std::vector<std::uint8_t> vec;
    put_uvarint(vec, v);
    std::uint8_t raw[kMaxVarintBytes];
    std::uint8_t* end = put_uvarint(raw, v);
    EXPECT_EQ(std::vector<std::uint8_t>(raw, end), vec) << v;

    const auto s = static_cast<std::int64_t>(v);
    vec.clear();
    put_svarint(vec, s);
    end = put_svarint(raw, s);
    EXPECT_EQ(std::vector<std::uint8_t>(raw, end), vec) << s;
  }
}

TEST(Varint, PaddedDecoderAgreesWithBoundedDecoder) {
  // Every encoding the bounded decoder accepts, the padded one accepts with
  // the same value and length; every overlong one both reject.
  std::vector<std::vector<std::uint8_t>> inputs;
  for (int bits = 0; bits <= 64; ++bits) {
    std::vector<std::uint8_t> buf;
    put_uvarint(buf, bits == 64 ? std::numeric_limits<std::uint64_t>::max()
                                : (std::uint64_t{1} << bits) - (bits > 0 ? 1 : 0));
    inputs.push_back(buf);
  }
  inputs.push_back({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00});
  inputs.push_back({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02});
  inputs.push_back({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01});
  inputs.push_back({0x80, 0x00});  // non-minimal but within ten bytes
  for (const auto& in : inputs) {
    std::vector<std::uint8_t> padded = in;
    padded.resize(in.size() + kMaxVarintBytes, 0);
    const std::uint8_t* a = in.data();
    const std::uint8_t* b = padded.data();
    std::uint64_t va = 0;
    std::uint64_t vb = 0;
    const bool ok_a = get_uvarint(&a, in.data() + in.size(), va);
    const bool ok_b = get_uvarint_padded(&b, vb);
    ASSERT_EQ(ok_a, ok_b) << "input of " << in.size() << " bytes";
    if (ok_a) {
      EXPECT_EQ(va, vb);
      EXPECT_EQ(a - in.data(), b - padded.data());
    }
  }
}

TEST(Varint, UnsignedRoundTripAcrossBoundaries) {
  const std::uint64_t cases[] = {
      0,      1,          127,        128,         16383,
      16384,  2097151,    2097152,    268435455,   268435456,
      1u << 31, (1ull << 32) - 1, 1ull << 32, (1ull << 56) - 1, 1ull << 56,
      std::numeric_limits<std::uint64_t>::max() - 1,
      std::numeric_limits<std::uint64_t>::max(),
  };
  for (std::uint64_t v : cases) {
    std::vector<std::uint8_t> buf;
    put_uvarint(buf, v);
    EXPECT_LE(buf.size(), 10u);
    const std::uint8_t* cur = buf.data();
    std::uint64_t back = 0;
    ASSERT_TRUE(get_uvarint(&cur, buf.data() + buf.size(), back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(cur, buf.data() + buf.size()) << "decoder did not consume everything";
  }
}

TEST(Varint, SignedRoundTripIncludingExtremes) {
  const std::int64_t cases[] = {
      0,  1,  -1, 63, -64, 64,  -65, 8191, -8192,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min(),
  };
  for (std::int64_t v : cases) {
    std::vector<std::uint8_t> buf;
    put_svarint(buf, v);
    const std::uint8_t* cur = buf.data();
    std::int64_t back = 0;
    ASSERT_TRUE(get_svarint(&cur, buf.data() + buf.size(), back)) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(Varint, ZigzagKeepsSmallMagnitudesSmall) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  for (std::int64_t v = -300; v <= 300; ++v) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  std::vector<std::uint8_t> buf;
  put_svarint(buf, -3);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, DecoderRejectsTruncation) {
  std::vector<std::uint8_t> buf;
  put_uvarint(buf, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t n = 0; n < buf.size(); ++n) {
    const std::uint8_t* cur = buf.data();
    std::uint64_t out = 0;
    EXPECT_FALSE(get_uvarint(&cur, buf.data() + n, out)) << "prefix " << n;
  }
}

TEST(Varint, DecoderRejectsOverlongEncodings) {
  // Eleven continuation bytes: more than a u64 can hold.
  std::vector<std::uint8_t> overlong(11, 0x80);
  overlong.push_back(0x00);
  const std::uint8_t* cur = overlong.data();
  std::uint64_t out = 0;
  EXPECT_FALSE(get_uvarint(&cur, overlong.data() + overlong.size(), out));

  // Exactly ten bytes but the last one carries bits beyond bit 63.
  std::vector<std::uint8_t> toobig(9, 0x80);
  toobig.push_back(0x02);
  cur = toobig.data();
  EXPECT_FALSE(get_uvarint(&cur, toobig.data() + toobig.size(), out));

  // Ten bytes whose final byte fits (bit 63 only) decode fine.
  std::vector<std::uint8_t> maxenc;
  put_uvarint(maxenc, std::numeric_limits<std::uint64_t>::max());
  ASSERT_EQ(maxenc.size(), 10u);
  cur = maxenc.data();
  EXPECT_TRUE(get_uvarint(&cur, maxenc.data() + maxenc.size(), out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
}

TEST(Varint, DecoderLeavesTrailingBytes) {
  std::vector<std::uint8_t> buf;
  put_uvarint(buf, 300);
  put_uvarint(buf, 7);
  const std::uint8_t* cur = buf.data();
  const std::uint8_t* end = buf.data() + buf.size();
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(get_uvarint(&cur, end, a));
  ASSERT_TRUE(get_uvarint(&cur, end, b));
  EXPECT_EQ(a, 300u);
  EXPECT_EQ(b, 7u);
  EXPECT_EQ(cur, end);
}

}  // namespace
}  // namespace chronosync
