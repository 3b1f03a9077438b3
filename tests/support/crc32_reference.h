// Bitwise CRC-32 (IEEE 802.3, reflected), one polynomial step per bit: the
// oracle the slice-by-16 and PCLMULQDQ rungs of common/crc32 are checked
// against.  It shares no table or constant with them.
#pragma once

#include <cstdint>
#include <span>

namespace approx::testsupport {

inline std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data,
                                   std::uint32_t seed = 0) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

}  // namespace approx::testsupport
