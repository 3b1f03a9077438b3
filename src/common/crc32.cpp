// Portable CRC-32 rung (slice-by-16) and the once-per-process choice
// between it and the PCLMULQDQ folding rung in crc32_clmul.cpp.
#include "common/crc32.h"

#include <array>

namespace approx {

namespace {

using Table = std::array<std::array<std::uint32_t, 256>, 16>;

// kTables[0] is the byte-at-a-time table; kTables[k][b] is the register
// contribution of byte b followed by k zero bytes, so one step consumes
// 16 bytes with 16 independent lookups.
constexpr Table make_tables() {
  Table t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c >> 1) ^ ((c & 1u) ? detail::kCrc32PolyReflected : 0u);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xffu];
    }
  }
  return t;
}

constexpr Table kTables = make_tables();

static_assert(kTables[0][1] == 0x77073096u);
static_assert(kTables[0][128] == detail::kCrc32PolyReflected);

// Little-endian 32-bit word assembled from bytes, so the loop neither
// depends on host byte order nor performs misaligned loads.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

using Rung = std::uint32_t (*)(std::span<const std::uint8_t>,
                               std::uint32_t) noexcept;

Rung selected_rung() noexcept {
  static const Rung rung = detail::crc32_clmul_supported()
                               ? &detail::crc32_clmul
                               : &detail::crc32_slice16;
  return rung;
}

}  // namespace

namespace detail {

std::uint32_t crc32_slice16(std::span<const std::uint8_t> data,
                            std::uint32_t seed) noexcept {
  const auto& t = kTables;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = ~seed;
  for (; n >= 16; p += 16, n -= 16) {
    c ^= load_le32(p);
    c = t[15][c & 0xffu] ^ t[14][(c >> 8) & 0xffu] ^
        t[13][(c >> 16) & 0xffu] ^ t[12][c >> 24] ^ t[11][p[4]] ^
        t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^ t[6][p[9]] ^
        t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^ t[2][p[13]] ^
        t[1][p[14]] ^ t[0][p[15]];
  }
  for (; n != 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return ~c;
}

bool crc32_clmul_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return crc32_clmul_compiled() && __builtin_cpu_supports("pclmul") &&
         __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

const char* crc32_rung_name() noexcept {
  return selected_rung() == &crc32_clmul ? "clmul" : "slice16";
}

}  // namespace detail

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return selected_rung()(data, seed);
}

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // Appending len_b bytes multiplies A's register by x^(8*len_b); the
  // pre- and post-inversion terms cancel against crc_b's own.
  return detail::gf2_mulmod(detail::xpow_mod_p(len_b, 3), crc_a) ^ crc_b;
}

}  // namespace approx
