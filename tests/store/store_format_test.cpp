// On-disk format primitives: superblock serialization, block seals, family
// wire codes, the streaming CRC combiner, and the layout rules a volume's
// manifest must obey (chunk count derived from the sizes, h = 1 volumes).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "store/format.h"
#include "store/scrubber.h"
#include "store/store.h"

namespace fs = std::filesystem;

namespace approx::store {
namespace {

core::ApprParams test_params() {
  return {codes::Family::LRC, 6, 1, 2, 4, core::Structure::Uneven};
}

TEST(Superblock, SerializeDeserializeRoundtrip) {
  Superblock sb;
  sb.params = test_params();
  sb.block_size = 8192;
  sb.io_payload = 32 * 1024;

  const auto bytes = sb.serialize();
  ASSERT_EQ(bytes.size(), kSuperblockBytes);
  const Superblock back = Superblock::deserialize(bytes);

  EXPECT_EQ(back.params.family, sb.params.family);
  EXPECT_EQ(back.params.k, sb.params.k);
  EXPECT_EQ(back.params.r, sb.params.r);
  EXPECT_EQ(back.params.g, sb.params.g);
  EXPECT_EQ(back.params.h, sb.params.h);
  EXPECT_EQ(back.params.structure, sb.params.structure);
  EXPECT_EQ(back.block_size, sb.block_size);
  EXPECT_EQ(back.io_payload, sb.io_payload);
}

TEST(Superblock, RejectsBadMagic) {
  Superblock sb;
  sb.params = test_params();
  auto bytes = sb.serialize();
  bytes[0] ^= 0xff;
  EXPECT_THROW(Superblock::deserialize(bytes), Error);
}

TEST(Superblock, RejectsFlippedBitViaCrc) {
  Superblock sb;
  sb.params = test_params();
  auto bytes = sb.serialize();
  bytes[17] ^= 0x01;  // inside the k field
  EXPECT_THROW(Superblock::deserialize(bytes), Error);
}

TEST(Superblock, RejectsTruncatedBuffer) {
  Superblock sb;
  sb.params = test_params();
  const auto bytes = sb.serialize();
  EXPECT_THROW(Superblock::deserialize(
                   std::span<const std::uint8_t>(bytes.data(), 32)),
               Error);
}

TEST(Format, BlockSealDependsOnIndex) {
  // A stale block copied to a different offset must fail its seal check.
  EXPECT_NE(block_seal(0), block_seal(1));
  EXPECT_NE(block_seal(1), block_seal(2));
  EXPECT_NE(block_seal(0), block_seal(1ull << 20));
  EXPECT_EQ(block_seal(7), block_seal(7));
}

TEST(Format, FamilyWireCodesRoundtrip) {
  for (const auto f : {codes::Family::RS, codes::Family::LRC,
                       codes::Family::STAR, codes::Family::TIP,
                       codes::Family::CRS}) {
    EXPECT_EQ(family_from_wire(family_wire_code(f)), f);
  }
  EXPECT_THROW(family_from_wire(0), Error);
  EXPECT_THROW(family_from_wire(99), Error);
}

TEST(Format, FamilyFlagsParse) {
  EXPECT_EQ(family_from_flag("rs"), codes::Family::RS);
  EXPECT_EQ(family_from_flag("crs"), codes::Family::CRS);
  EXPECT_THROW(family_from_flag("raid6"), Error);
}

TEST(Format, NodeFileNamesPerVersion) {
  EXPECT_EQ(node_file_name(kVolumeV1, 3), "node_003.bin");
  EXPECT_EQ(node_file_name(kVolumeV2, 3), "node_003.acb");
  EXPECT_EQ(node_file_name(kVolumeV2, 120), "node_120.acb");
}

TEST(Crc32Combine, MatchesSequentialCrc) {
  std::mt19937 rng(42);
  for (const std::size_t len_a : {std::size_t{0}, std::size_t{1},
                                  std::size_t{63}, std::size_t{4096}}) {
    for (const std::size_t len_b : {std::size_t{0}, std::size_t{1},
                                    std::size_t{511}, std::size_t{70000}}) {
      std::vector<std::uint8_t> all(len_a + len_b);
      for (auto& b : all) b = static_cast<std::uint8_t>(rng());
      const std::span<const std::uint8_t> a(all.data(), len_a);
      const std::span<const std::uint8_t> b(all.data() + len_a, len_b);
      EXPECT_EQ(crc32_combine(crc32(a), crc32(b), len_b), crc32(all))
          << "len_a=" << len_a << " len_b=" << len_b;
    }
  }
}

TEST(Crc32Combine, ChainsAcrossManyPieces) {
  // The streaming encoder stitches per-region CRCs; emulate three pieces.
  std::vector<std::uint8_t> data(10000);
  std::mt19937 rng(7);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::span<const std::uint8_t> s(data);
  const auto p1 = s.subspan(0, 1234);
  const auto p2 = s.subspan(1234, 4321);
  const auto p3 = s.subspan(1234 + 4321);
  std::uint32_t c = crc32(p1);
  c = crc32_combine(c, crc32(p2), p2.size());
  c = crc32_combine(c, crc32(p3), p3.size());
  EXPECT_EQ(c, crc32(s));
}

// --- chunk count and h = 1 volumes ----------------------------------------

class VolumeLayoutTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("approxfmt_" + std::string(::testing::UnitTest::GetInstance()
                                           ->current_test_info()
                                           ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::mt19937 rng(11);
    data_.resize(200000);
    for (auto& b : data_) b = static_cast<std::uint8_t>(rng());
    input_ = dir_ / "input.bin";
    std::ofstream out(input_, std::ios::binary);
    out.write(reinterpret_cast<const char*>(data_.data()),
              static_cast<std::streamsize>(data_.size()));
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<std::uint8_t> read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  // Rewrite one `key=value` line of a committed manifest.
  void edit_manifest(const fs::path& vol, const std::string& key,
                     const std::string& value) {
    const fs::path path = vol / kManifestFile;
    std::ifstream in(path);
    std::string text, line;
    while (std::getline(in, line)) {
      if (line.rfind(key + "=", 0) == 0) line = key + "=" + value;
      text += line + "\n";
    }
    in.close();
    std::ofstream(path, std::ios::trunc) << text;
  }

  // RS(4,2) local stripes, one global parity, no unimportant tier.
  static core::ApprParams h1_params() {
    return {codes::Family::RS, 4, 2, 1, 1, core::Structure::Even};
  }

  PosixIoBackend io_;
  fs::path dir_;
  fs::path input_;
  std::vector<std::uint8_t> data_;
};

TEST_F(VolumeLayoutTest, HOneVolumeRoundTripsThroughRPlusGLosses) {
  const fs::path vol_dir = dir_ / "vol";
  VolumeStore vol = VolumeStore::encode_file(io_, input_, vol_dir, h1_params(),
                                             4096, std::nullopt);
  EXPECT_EQ(vol.manifest().important_len, data_.size());
  // r + g = 3 nodes lost: data, local parity, global parity.
  for (const int n : {1, 4, 6}) ASSERT_TRUE(fs::remove(vol.node_path(n)));

  const auto degraded = vol.decode_file(dir_ / "degraded.bin");
  EXPECT_TRUE(degraded.crc_ok);
  EXPECT_EQ(degraded.unrecoverable_bytes, 0u);
  EXPECT_EQ(read_file(dir_ / "degraded.bin"), data_);

  ScrubService service(vol);
  const RepairOutcome outcome = service.drain_pending();
  EXPECT_TRUE(outcome.all_important_recovered);
  EXPECT_TRUE(service.scrub().clean());
  EXPECT_TRUE(vol.parity_scrub().clean());
  const auto again = vol.decode_file(dir_ / "again.bin");
  EXPECT_TRUE(again.crc_ok);
  EXPECT_EQ(read_file(dir_ / "again.bin"), data_);
}

TEST_F(VolumeLayoutTest, HOneRejectsUnimportantBytes) {
  // Under h = 1 there is no unimportant capacity: a split below the file
  // size must be refused before anything is written, not truncated.
  EXPECT_THROW(VolumeStore::encode_file(io_, input_, dir_ / "vol", h1_params(),
                                        4096, std::uint64_t{1000}),
               InvalidArgument);
  EXPECT_FALSE(fs::exists(dir_ / "vol" / kManifestFile));
  const core::ApproximateCode code(h1_params(), 4096);
  EXPECT_EQ(code.unimportant_capacity(), 0u);
  EXPECT_EQ(code.chunk_count(0, 0), 1u);
  EXPECT_THROW((void)code.chunk_count(0, 1), InvalidArgument);
}

TEST_F(VolumeLayoutTest, ManifestChunkCountMustMatchSizes) {
  const fs::path vol_dir = dir_ / "vol";
  const std::uint64_t chunks =
      VolumeStore::encode_file(io_, input_, vol_dir,
                               {codes::Family::RS, 4, 1, 2, 4,
                                core::Structure::Even},
                               4096, std::nullopt)
          .manifest()
          .chunks;
  for (const char* bad : {"0", "99"}) {
    SCOPED_TRACE(std::string("chunks=") + bad);
    edit_manifest(vol_dir, "chunks", bad);
    try {
      (void)Manifest::load(io_, vol_dir);
      ADD_FAILURE() << "a manifest with the wrong chunk count loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt manifest"),
                std::string::npos)
          << e.what();
    }
  }
  edit_manifest(vol_dir, "chunks", std::to_string(chunks));
  EXPECT_EQ(Manifest::load(io_, vol_dir).chunks, chunks);
}

}  // namespace
}  // namespace approx::store
