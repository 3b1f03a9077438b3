// CRC-32 (IEEE 802.3 polynomial, reflected) for bitstream integrity checks.
//
// crc32() runs one of two implementations ("rungs"), picked once per
// process from CPUID: PCLMULQDQ folding (crc32_clmul.cpp) when the CPU has
// PCLMULQDQ and SSE4.1, else table-driven slice-by-16 (crc32.cpp).  Both
// compute the same value; the folding rung hands inputs shorter than 64
// bytes and its sub-16-byte tail to slice-by-16.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace approx {

// CRC of `data`; `seed` is the CRC of the bytes before it, so
// crc32(B, crc32(A)) == crc32(A||B).
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = 0);

// CRC of the concatenation A||B given crc32(A), crc32(B) and len(B),
// without re-reading any bytes: crc(A||B) = crc(A) * x^(8*len_b) mod P
// xor crc(B), computed in the reflected domain.  Lets streaming pipelines
// keep independent running CRCs per region and stitch them afterwards.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

namespace detail {

// GF(2) arithmetic modulo P = x^32 + x^26 + ... + 1 (0x104C11DB7).  Values
// are reflected 32-bit polynomials: bit 31 holds x^0, bit 0 holds x^31.
inline constexpr std::uint32_t kCrc32PolyReflected = 0xedb88320u;

constexpr std::uint32_t gf2_mulmod(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b >> 1) ^ ((b & 1u) ? kCrc32PolyReflected : 0u);  // b *= x
  }
  return product;
}

// x^(n * 2^shift) mod P, reflected, by square-and-multiply.  The shift
// lets callers raise x^8 (one byte) to a 64-bit byte count without
// overflowing the exponent.
constexpr std::uint32_t xpow_mod_p(std::uint64_t n, unsigned shift = 0) {
  std::uint32_t base = 1u << 30;  // x
  for (unsigned i = 0; i < shift; ++i) base = gf2_mulmod(base, base);
  std::uint32_t result = 1u << 31;  // 1
  for (; n != 0; n >>= 1) {
    if (n & 1u) result = gf2_mulmod(result, base);
    base = gf2_mulmod(base, base);
  }
  return result;
}

// The two rungs behind crc32(), for differential tests and benches.  Each
// returns exactly crc32(data, seed).
std::uint32_t crc32_slice16(std::span<const std::uint8_t> data,
                            std::uint32_t seed = 0) noexcept;
// Call only when crc32_clmul_supported().
std::uint32_t crc32_clmul(std::span<const std::uint8_t> data,
                          std::uint32_t seed = 0) noexcept;

// Whether crc32_clmul.cpp was built with -mpclmul -msse4.1.
bool crc32_clmul_compiled() noexcept;
// Compiled in, and the CPU has PCLMULQDQ and SSE4.1.
bool crc32_clmul_supported() noexcept;
// The rung crc32() runs on this host: "clmul" or "slice16".
const char* crc32_rung_name() noexcept;

}  // namespace detail

}  // namespace approx
