// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding trace container chunks.  Chosen over CRC32 (zlib) for its
// better error-detection properties on short records.  On x86-64 CPUs with
// SSE4.2 it runs on the `crc32` instruction, chosen at run time; elsewhere it
// falls back to portable slicing-by-8 tables.  Both give the same value.
#pragma once

#include <cstddef>
#include <cstdint>

namespace chronosync {

/// Extends a running CRC32C over `n` more bytes.  Start from 0; feed the
/// previous return value to continue.  The init/final inversions are handled
/// internally, so partial results compose:
///   crc32c(crc32c(0, a, na), b, nb) == crc32c(0, ab, na + nb).
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n);

/// The CRC32C of the concatenation AB from crc_a = crc32c(0, A), crc_b =
/// crc32c(0, B) and len_b = |B|, without touching the bytes:
///   crc32c_combine(crc32c(0, a, na), crc32c(0, b, nb), nb) == crc32c(0, ab, na + nb).
/// Costs O(log len_b) carry-less multiplications modulo the polynomial.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b);

}  // namespace chronosync
