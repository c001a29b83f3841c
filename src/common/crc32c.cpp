#include "common/crc32c.hpp"

#include <array>
#include <cstring>

#include "common/crc32c_portable.hpp"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace chronosync {

namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  // tab[k][b]: CRC of byte b followed by k zero bytes; slicing-by-8 consumes
  // eight input bytes per iteration with eight independent table lookups.
  std::array<std::array<std::uint32_t, 256>, 8> tab{};

  Tables() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t crc = b;
      for (int k = 0; k < 8; ++k) crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      tab[0][b] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        tab[k][b] = (tab[k - 1][b] >> 8) ^ tab[0][tab[k - 1][b] & 0xFFu];
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

/// a(x) * b(x) mod P(x) in the reflected bit order (bit 31 is x^0), as in
/// zlib's crc32_combine.  `a` must be nonzero.
constexpr std::uint32_t mult_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t prod = 0;
  for (;;) {
    if (a & m) {
      prod ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return prod;
}

/// x^(8 n) mod P(x): the factor that appending n bytes applies to a CRC
/// register.  Square-and-multiply over the bits of n.  (zlib's table of
/// x^(2^k) reused modulo 32 entries does not carry over: for this
/// polynomial x^(2^32) is not x.)
constexpr std::uint32_t x8n_mod_p(std::uint64_t n) {
  std::uint32_t shift = 1u << 31;   // x^0
  std::uint32_t square = 1u << 23;  // x^8: one byte
  for (; n != 0; n >>= 1) {
    if (n & 1u) shift = mult_mod_p(square, shift);
    square = mult_mod_p(square, square);
  }
  return shift;
}

#if defined(__x86_64__)

/// Bytes per lane of the three-lane loop.
constexpr std::size_t kLane = 4096;
constexpr std::uint32_t kLaneShift = x8n_mod_p(kLane);

/// The SSE4.2 `crc32` instruction computes exactly this polynomial, eight
/// bytes per instruction.  Compiled for SSE4.2 regardless of the build's
/// -march; only called after the CPU reported the feature.
///
/// One `crc32` takes three cycles but can start every cycle, so a single
/// dependent chain runs at a third of the unit's rate.  Blocks of 3 * kLane
/// bytes therefore run as three independent chains, one per lane, the last
/// two from a zero register; the register is linear in its start value, so
/// the lanes join as crc = (crc0 * x^(8 kLane) + crc1) * x^(8 kLane) + crc2.
/// What is left after the last whole block runs as one chain.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(std::uint32_t crc,
                                                               const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = ~crc;
  for (; n >= 3 * kLane; n -= 3 * kLane, p += 3 * kLane) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kLane; i += 8) {
      std::uint64_t w0;
      std::uint64_t w1;
      std::uint64_t w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + kLane + i, 8);
      std::memcpy(&w2, p + 2 * kLane + i, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = mult_mod_p(kLaneShift, static_cast<std::uint32_t>(c)) ^ c1;
    c = mult_mod_p(kLaneShift, static_cast<std::uint32_t>(c)) ^ c2;
  }
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n--) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

#endif

using CrcFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t);

CrcFn select_crc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // crc32c() may run during static initialization
  if (__builtin_cpu_supports("sse4.2")) return crc32c_sse42;
#endif
  return detail::crc32c_portable;
}

}  // namespace

std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b) {
  // Appending B to A shifts A's register by 8 * len_b bit positions, i.e.
  // multiplies it by x^(8 len_b) mod P; the init/final inversions cancel out.
  return mult_mod_p(x8n_mod_p(len_b), crc_a) ^ crc_b;
}

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) {
  static const CrcFn impl = select_crc32c();
  return impl(crc, data, n);
}

std::uint32_t detail::crc32c_portable(std::uint32_t crc, const void* data, std::size_t n) {
  const auto& tab = tables().tab;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tab[7][lo & 0xFFu] ^ tab[6][(lo >> 8) & 0xFFu] ^ tab[5][(lo >> 16) & 0xFFu] ^
          tab[4][lo >> 24] ^ tab[3][hi & 0xFFu] ^ tab[2][(hi >> 8) & 0xFFu] ^
          tab[1][(hi >> 16) & 0xFFu] ^ tab[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) crc = (crc >> 8) ^ tab[0][(crc ^ *p++) & 0xFFu];
  return ~crc;
}

}  // namespace chronosync
