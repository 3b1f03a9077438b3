#include "store/format.h"

#include <cstdio>

namespace approx::store {

std::string node_file_name(std::uint32_t version, int node) {
  char name[32];
  std::snprintf(name, sizeof(name),
                version == kVolumeV1 ? "node_%03d.bin" : "node_%03d.acb", node);
  return name;
}

std::uint8_t family_wire_code(codes::Family f) {
  switch (f) {
    case codes::Family::RS:
      return 1;
    case codes::Family::LRC:
      return 2;
    case codes::Family::STAR:
      return 3;
    case codes::Family::TIP:
      return 4;
    case codes::Family::CRS:
      return 5;
  }
  throw Error("unknown code family");
}

codes::Family family_from_wire(std::uint8_t code) {
  switch (code) {
    case 1:
      return codes::Family::RS;
    case 2:
      return codes::Family::LRC;
    case 3:
      return codes::Family::STAR;
    case 4:
      return codes::Family::TIP;
    case 5:
      return codes::Family::CRS;
    default:
      throw Error("corrupt superblock: unknown family code " +
                  std::to_string(code));
  }
}

codes::Family family_from_flag(const std::string& flag) {
  if (flag == "rs") return codes::Family::RS;
  if (flag == "lrc") return codes::Family::LRC;
  if (flag == "star") return codes::Family::STAR;
  if (flag == "tip") return codes::Family::TIP;
  if (flag == "crs") return codes::Family::CRS;
  throw Error("corrupt manifest: unknown family '" + flag + "'");
}

std::array<std::uint8_t, kSuperblockBytes> Superblock::serialize() const {
  std::array<std::uint8_t, kSuperblockBytes> b{};
  std::memcpy(b.data(), kSuperMagic.data(), kSuperMagic.size());
  detail::put_u32(b.data() + 8, kVolumeV2);
  b[12] = family_wire_code(params.family);
  b[13] = params.structure == core::Structure::Even ? 0 : 1;
  detail::put_u16(b.data() + 16, static_cast<std::uint16_t>(params.k));
  detail::put_u16(b.data() + 18, static_cast<std::uint16_t>(params.r));
  detail::put_u16(b.data() + 20, static_cast<std::uint16_t>(params.g));
  detail::put_u16(b.data() + 22, static_cast<std::uint16_t>(params.h));
  detail::put_u64(b.data() + 24, block_size);
  detail::put_u32(b.data() + 32, io_payload);
  detail::put_u32(b.data() + kSuperblockBytes - 4,
                  crc32({b.data(), kSuperblockBytes - 4}));
  return b;
}

Superblock Superblock::deserialize(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kSuperblockBytes) {
    throw Error("corrupt superblock: expected " +
                std::to_string(kSuperblockBytes) + " bytes, got " +
                std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kSuperMagic.data(), kSuperMagic.size()) != 0) {
    throw Error("corrupt superblock: bad magic");
  }
  const std::uint32_t stored_crc =
      detail::get_u32(bytes.data() + kSuperblockBytes - 4);
  if (stored_crc != crc32(bytes.subspan(0, kSuperblockBytes - 4))) {
    throw Error("corrupt superblock: CRC mismatch");
  }
  const std::uint32_t version = detail::get_u32(bytes.data() + 8);
  if (version != kVolumeV2) {
    throw Error("corrupt superblock: unsupported version " +
                std::to_string(version));
  }
  Superblock sb;
  sb.params.family = family_from_wire(bytes[12]);
  sb.params.structure =
      bytes[13] == 0 ? core::Structure::Even : core::Structure::Uneven;
  sb.params.k = detail::get_u16(bytes.data() + 16);
  sb.params.r = detail::get_u16(bytes.data() + 18);
  sb.params.g = detail::get_u16(bytes.data() + 20);
  sb.params.h = detail::get_u16(bytes.data() + 22);
  sb.block_size = detail::get_u64(bytes.data() + 24);
  sb.io_payload = detail::get_u32(bytes.data() + 32);
  if (sb.block_size == 0 || sb.io_payload == 0) {
    throw Error("corrupt superblock: zero block size");
  }
  sb.params.validate(sb.block_size);
  return sb;
}

}  // namespace approx::store
