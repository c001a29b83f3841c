// Private to the CRC32C implementation and its tests: the portable
// slicing-by-8 CRC32C that crc32c() falls back to on CPUs without SSE4.2, and
// the reference the hardware path is tested against.
#pragma once

#include <cstddef>
#include <cstdint>

namespace chronosync::detail {

/// Same contract as crc32c(), always computed with lookup tables.
std::uint32_t crc32c_portable(std::uint32_t crc, const void* data, std::size_t n);

}  // namespace chronosync::detail
