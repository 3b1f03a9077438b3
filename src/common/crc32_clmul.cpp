// PCLMULQDQ folding rung of crc32() (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009, in its
// bit-reflected form).  This TU is compiled with -mpclmul -msse4.1 and only
// ever *called* after crc32.cpp has confirmed the CPU supports both.
//
// Four 128-bit lanes each absorb 16 bytes per 64-byte step; the lanes are
// then folded into one, the remaining 16-byte blocks folded into that, and
// the 128-bit remainder reduced to 64 and 32 bits, finishing with a Barrett
// step.  A tail shorter than 16 bytes, and any input shorter than 64, goes
// to slice-by-16.  Not the SSE4.2 crc32 instruction: that one computes
// CRC-32C, a different polynomial from the on-disk and wire formats'.
#include "common/crc32.h"

#if defined(__PCLMUL__) && defined(__SSE4_1__)

#include <immintrin.h>

namespace approx::detail {

namespace {

// Folding constants: x^n mod P, reflected and shifted left by one, so a
// 64x33-bit carry-less product lands aligned with the lane it folds into.
constexpr std::uint64_t fold_constant(unsigned n) {
  return std::uint64_t{xpow_mod_p(n)} << 1;
}

constexpr std::uint64_t kP = 0x104c11db7u;

constexpr std::uint64_t reflect33(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 33; ++i) r |= ((v >> i) & 1u) << (32 - i);
  return r;
}

// floor(x^64 / P): long division, one quotient bit per remainder bit.
constexpr std::uint64_t barrett_quotient() {
  std::uint64_t q = std::uint64_t{1} << 32;
  std::uint64_t r = (kP ^ (std::uint64_t{1} << 32)) << 32;  // x^64 - x^32 P
  for (int i = 31; i >= 0; --i) {
    if ((r >> (32 + i)) & 1u) {
      q |= std::uint64_t{1} << i;
      r ^= kP << i;
    }
  }
  return q;
}

constexpr std::uint64_t kK1 = fold_constant(4 * 128 + 32);  // 4-lane fold
constexpr std::uint64_t kK2 = fold_constant(4 * 128 - 32);
constexpr std::uint64_t kK3 = fold_constant(128 + 32);  // 1-lane fold
constexpr std::uint64_t kK4 = fold_constant(128 - 32);
constexpr std::uint64_t kK5 = fold_constant(64);  // 64 -> 32 bits
constexpr std::uint64_t kMu = reflect33(barrett_quotient());
constexpr std::uint64_t kPoly = reflect33(kP);

// The published constants of the reflected CRC-32 folding kernel.
static_assert(kK1 == 0x154442bd4u);
static_assert(kK2 == 0x1c6e41596u);
static_assert(kK3 == 0x1751997d0u);
static_assert(kK4 == 0x0ccaa009eu);
static_assert(kK5 == 0x163cd6124u);
static_assert(kMu == 0x1f7011641u);
static_assert(kPoly == 0x1db710641u);

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries `lane` forward over the distance k encodes and XORs it onto
// `next`: the low half times k.lo, the high half times k.hi.
inline __m128i fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                                     _mm_clmulepi64_si128(lane, k, 0x11)),
                       next);
}

}  // namespace

bool crc32_clmul_compiled() noexcept { return true; }

std::uint32_t crc32_clmul(std::span<const std::uint8_t> data,
                          std::uint32_t seed) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n < 64) return crc32_slice16(data, seed);

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  // The running register enters as the first four message bytes' XOR.
  __m128i x0 =
      _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(~seed)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load(p));

  // 128 -> 64 bits: the low half times k4 folds onto the high half,
  // appending the 32 zero bits a CRC implies.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, 0, 0);
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                           _mm_set_epi64x(0, kK5), 0x00));
  // Barrett reduction of the remaining 64 bits: times mu estimates the
  // quotient, times P subtracts it, and the register is left in dword 1.
  const __m128i mu_poly = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), mu_poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), mu_poly, 0x00);
  x0 = _mm_xor_si128(x0, t);
  const auto reg = static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
  return crc32_slice16({p, n}, ~reg);
}

}  // namespace approx::detail

#else  // !(__PCLMUL__ && __SSE4_1__)

namespace approx::detail {

bool crc32_clmul_compiled() noexcept { return false; }

// Never selected (crc32_clmul_supported() is false); stays correct anyway.
std::uint32_t crc32_clmul(std::span<const std::uint8_t> data,
                          std::uint32_t seed) noexcept {
  return crc32_slice16(data, seed);
}

}  // namespace approx::detail

#endif
