// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — used to
// validate parameter snapshots and sweep checkpoints against torn writes
// and bit rot, and to audit serving replicas' frozen parameters at every
// completion. Matches zlib's crc32, so external tools can verify files.
//
// On x86-64 CPUs with PCLMULQDQ (checked once via CPUID) inputs of 64
// bytes or more are folded four 128-bit lanes at a time with carry-less
// multiplies; everything else, and the sub-16-byte tail, runs a portable
// slicing-by-16 table loop. Both paths return identical values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qnn {

// Streaming form: feed `seed` the previous return value to continue a
// running checksum (start from 0).
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

namespace detail {

// The slicing-by-16 path alone, with crc32's contract. Exposed so tests
// can compare it with the dispatched crc32 on a CPU that takes the fold.
std::uint32_t crc32_portable(const void* data, std::size_t size,
                             std::uint32_t seed = 0);

}  // namespace detail
}  // namespace qnn
