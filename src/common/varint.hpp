// LEB128 variable-length integers and zigzag mapping — the wire primitives of
// the v2 trace container.  Small magnitudes (deltas, ids, ranks) encode in one
// or two bytes instead of the fixed four/eight of the v1 format.
//
// Encoders write through a raw pointer (the caller guarantees
// kMaxVarintBytes of room) and return the advanced pointer; the std::vector
// overloads wrap them.  Decoders are total functions over untrusted bytes:
// they reject overlong encodings (> 10 bytes) and report failure through the
// return value so callers can surface a typed error.  get_uvarint never reads
// past `end`; get_uvarint_padded reads at most kMaxVarintBytes and leaves the
// end check to a caller whose buffer carries that much slack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chronosync {

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes the unsigned LEB128 encoding of `v` (1..10 bytes) at `p` and
/// returns the position just past it.
inline std::uint8_t* put_uvarint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80u) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Appends the unsigned LEB128 encoding of `v` to `out`.
inline void put_uvarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[kMaxVarintBytes];
  out.insert(out.end(), buf, put_uvarint(buf, v));
}

/// Maps signed to unsigned so small magnitudes of either sign stay short:
/// 0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ...
inline std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1u);
}

inline std::uint8_t* put_svarint(std::uint8_t* p, std::int64_t v) {
  return put_uvarint(p, zigzag_encode(v));
}

inline void put_svarint(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_uvarint(out, zigzag_encode(v));
}

/// Decodes one unsigned LEB128 value from [*cursor, end).  On success advances
/// *cursor past the encoding and returns true; on truncation or an overlong
/// encoding leaves *cursor unspecified and returns false.
inline bool get_uvarint(const std::uint8_t** cursor, const std::uint8_t* end,
                        std::uint64_t& out) {
  const std::uint8_t* p = *cursor;
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const std::uint8_t byte = *p++;
    if (shift == 63 && (byte & 0xFEu)) return false;  // would overflow 64 bits
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) {
      *cursor = p;
      out = v;
      return true;
    }
  }
  return false;
}

/// Decodes one unsigned LEB128 value at *cursor without an end bound: reads
/// at most kMaxVarintBytes, so the caller must own that many readable bytes
/// past its logical end and check the cursor against that end itself.  On
/// success advances *cursor and returns true; on an overlong or overflowing
/// encoding returns false.  Accepts exactly what get_uvarint accepts.
inline bool get_uvarint_padded(const std::uint8_t** cursor, std::uint64_t& out) {
  const std::uint8_t* p = *cursor;
  std::uint64_t v = 0;
  for (int shift = 0; shift < 63; shift += 7) {
    const std::uint8_t byte = *p++;
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) {
      *cursor = p;
      out = v;
      return true;
    }
  }
  const std::uint8_t last = *p++;  // the 10th byte holds only bit 63
  if (last & 0xFEu) return false;
  *cursor = p;
  out = v | static_cast<std::uint64_t>(last) << 63;
  return true;
}

inline bool get_svarint(const std::uint8_t** cursor, const std::uint8_t* end,
                        std::int64_t& out) {
  std::uint64_t u = 0;
  if (!get_uvarint(cursor, end, u)) return false;
  out = zigzag_decode(u);
  return true;
}

}  // namespace chronosync
