// VolumeStore end-to-end: streaming encode/decode roundtrips, the
// scrub -> repair -> decode corruption lifecycle, v1 read compatibility and
// manifest robustness.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/crc32.h"
#include "store/scrubber.h"
#include "store/store.h"

namespace fs = std::filesystem;

namespace approx::store {
namespace {

core::ApprParams rs_params() {
  return {codes::Family::RS, 4, 1, 2, 4, core::Structure::Even};
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> data(n);
  std::mt19937 rng(seed);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  return data;
}

void write_whole_file(const fs::path& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

std::vector<std::uint8_t> read_whole_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

class VolumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("approxstore_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path input(const std::vector<std::uint8_t>& data) {
    const fs::path p = dir_ / "input.bin";
    write_whole_file(p, data);
    return p;
  }

  PosixIoBackend io_;
  fs::path dir_;
};

TEST_F(VolumeTest, EncodeDecodeRoundtripIsByteIdentical) {
  const auto data = random_bytes(300000, 1);
  StoreOptions opts;
  opts.io_payload = 4096;  // several blocks per chunk file
  VolumeStore vol = VolumeStore::encode_file(io_, input(data), dir_ / "vol",
                                             rs_params(), 1024, std::nullopt,
                                             opts);
  EXPECT_EQ(vol.manifest().file_size, data.size());
  EXPECT_EQ(vol.manifest().file_crc, crc32(data));
  EXPECT_GT(vol.manifest().chunks, 1u);  // actually streamed

  const auto result = vol.decode_file(dir_ / "out.bin");
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.bytes, data.size());
  EXPECT_EQ(read_whole_file(dir_ / "out.bin"), data);
}

TEST_F(VolumeTest, ReopenedVolumeDecodes) {
  const auto data = random_bytes(50000, 2);
  VolumeStore::encode_file(io_, input(data), dir_ / "vol", rs_params(), 512,
                           std::nullopt);
  VolumeStore vol(io_, dir_ / "vol");
  EXPECT_EQ(vol.version(), kVolumeV2);
  const auto result = vol.decode_file(dir_ / "out.bin");
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(read_whole_file(dir_ / "out.bin"), data);
}

TEST_F(VolumeTest, SplitControlsImportantPrefix) {
  const auto data = random_bytes(40000, 3);
  VolumeStore vol = VolumeStore::encode_file(io_, input(data), dir_ / "vol",
                                             rs_params(), 512,
                                             std::uint64_t{10000});
  EXPECT_EQ(vol.manifest().important_len, 10000u);
}

// The e2e corruption lifecycle required by the issue: flip bits inside one
// chunk-file block AND delete a second chunk file entirely; scrub must flag
// both, repair must restore them, and decode must match byte-for-byte.
TEST_F(VolumeTest, ScrubFlagsAndRepairFixesCorruptionAndLoss) {
  const auto data = random_bytes(400000, 4);
  StoreOptions opts;
  opts.io_payload = 4096;
  VolumeStore vol = VolumeStore::encode_file(io_, input(data), dir_ / "vol",
                                             rs_params(), 1024, std::nullopt,
                                             opts);

  // Flip bits in the middle of block 2's payload of node 3.
  const fs::path victim = vol.node_path(3);
  {
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    const std::size_t phys_block = opts.io_payload + kBlockFooterBytes;
    f.seekp(static_cast<std::streamoff>(2 * phys_block + 100));
    char garbage[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
    f.write(garbage, sizeof garbage);
  }
  // And delete node 5 outright.
  ASSERT_TRUE(fs::remove(vol.node_path(5)));

  ScrubService service(vol);
  const ScrubReport report = service.scrub();
  ASSERT_EQ(report.damaged.size(), 2u);
  EXPECT_EQ(report.damaged[0].node, 3);
  EXPECT_FALSE(report.damaged[0].missing);
  ASSERT_EQ(report.damaged[0].bad_blocks.size(), 1u);
  EXPECT_EQ(report.damaged[0].bad_blocks[0], 2u);
  EXPECT_EQ(report.damaged[1].node, 5);
  EXPECT_TRUE(report.damaged[1].missing);
  EXPECT_EQ(report.missing_nodes, 1u);
  EXPECT_EQ(report.corrupt_blocks, 1u);

  const RepairOutcome outcome = service.repair_damage(report);
  EXPECT_TRUE(outcome.attempted);
  EXPECT_TRUE(outcome.fully_recovered);
  EXPECT_TRUE(outcome.all_important_recovered);

  EXPECT_TRUE(service.scrub().clean());
  EXPECT_TRUE(vol.parity_scrub().clean());

  const auto result = vol.decode_file(dir_ / "restored.bin");
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(read_whole_file(dir_ / "restored.bin"), data);
}

TEST_F(VolumeTest, StrictDecodeWithMissingNodeThrowsNotFound) {
  const auto data = random_bytes(20000, 5);
  VolumeStore vol = VolumeStore::encode_file(io_, input(data), dir_ / "vol",
                                             rs_params(), 512, std::nullopt);
  ASSERT_TRUE(fs::remove(vol.node_path(0)));
  try {
    VolumeStore::DecodeOptions strict;
    strict.allow_degraded = false;
    vol.decode_file(dir_ / "out.bin", strict);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_EQ(e.code(), IoCode::kNotFound);
  }
}

TEST_F(VolumeTest, DegradedDecodeWithMissingNodeIsExact) {
  const auto data = random_bytes(20000, 5);
  VolumeStore vol = VolumeStore::encode_file(io_, input(data), dir_ / "vol",
                                             rs_params(), 512, std::nullopt);
  ASSERT_TRUE(fs::remove(vol.node_path(0)));

  // One lost node is within the local tolerance: the default decode
  // reconstructs it on the fly and the output is byte-identical.
  const auto result = vol.decode_file(dir_ / "out.bin");
  EXPECT_TRUE(result.crc_ok);
  EXPECT_TRUE(result.important_ok);
  EXPECT_EQ(result.unrecoverable_bytes, 0u);
  ASSERT_EQ(result.degraded_nodes.size(), 1u);
  EXPECT_EQ(result.degraded_nodes[0], 0);
  EXPECT_EQ(read_whole_file(dir_ / "out.bin"), data);
  // The missing node was queued for background repair.
  EXPECT_EQ(vol.pending_repairs(), 1u);
}

TEST_F(VolumeTest, RepairBeyondToleranceReportsApproximateLoss) {
  const auto data = random_bytes(200000, 6);
  VolumeStore vol = VolumeStore::encode_file(io_, input(data), dir_ / "vol",
                                             rs_params(), 1024, std::nullopt);
  // Two whole nodes from the same local stripe: beyond what the code can
  // restore losslessly, but the important prefix must survive.
  ASSERT_TRUE(fs::remove(vol.node_path(0)));
  ASSERT_TRUE(fs::remove(vol.node_path(1)));

  ScrubService service(vol);
  const RepairOutcome outcome = service.repair();
  EXPECT_TRUE(outcome.attempted);
  EXPECT_TRUE(outcome.all_important_recovered);
  EXPECT_FALSE(outcome.fully_recovered);
  EXPECT_GT(outcome.unimportant_bytes_lost, 0u);
  EXPECT_TRUE(service.scrub().clean());  // normalized parity scrubs clean

  const auto result = vol.decode_file(dir_ / "out.bin");
  EXPECT_FALSE(result.crc_ok);  // unimportant tail was zero-filled
  const auto out = read_whole_file(dir_ / "out.bin");
  ASSERT_EQ(out.size(), data.size());
  const std::size_t imp = vol.manifest().important_len;
  EXPECT_TRUE(std::equal(out.begin(),
                         out.begin() + static_cast<std::ptrdiff_t>(imp),
                         data.begin()));
}

// ---------------------------------------------------------------------------
// v1 compatibility
// ---------------------------------------------------------------------------

// Build a legacy volume by hand: raw node_NNN.bin streams + v1 manifest.
void write_v1_volume(const fs::path& dir, const std::vector<std::uint8_t>& data,
                     const core::ApprParams& params, std::size_t block) {
  core::ApproximateCode code(params, block);
  const std::size_t important_len = data.size() / static_cast<std::size_t>(params.h);
  const std::size_t unimportant_len = data.size() - important_len;
  const std::size_t chunks = code.chunk_count(important_len, unimportant_len);

  fs::create_directories(dir);
  std::vector<std::ofstream> nodes;
  for (int n = 0; n < code.total_nodes(); ++n) {
    nodes.emplace_back(dir / node_file_name(kVolumeV1, n),
                       std::ios::binary | std::ios::trunc);
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<std::uint8_t> imp(code.important_capacity(), 0);
    std::vector<std::uint8_t> unimp(code.unimportant_capacity(), 0);
    const std::size_t ioff = c * imp.size();
    if (ioff < important_len) {
      std::memcpy(imp.data(), data.data() + ioff,
                  std::min(imp.size(), important_len - ioff));
    }
    const std::size_t uoff = c * unimp.size();
    if (uoff < unimportant_len) {
      std::memcpy(unimp.data(), data.data() + important_len + uoff,
                  std::min(unimp.size(), unimportant_len - uoff));
    }
    StripeBuffers buffers(code.total_nodes(), code.node_bytes());
    auto spans = buffers.spans();
    code.scatter(imp, unimp, spans);
    code.encode(spans);
    for (int n = 0; n < code.total_nodes(); ++n) {
      const auto s = buffers.node(n);
      nodes[static_cast<std::size_t>(n)].write(
          reinterpret_cast<const char*>(s.data()),
          static_cast<std::streamsize>(s.size()));
    }
  }
  std::ofstream m(dir / kManifestFile, std::ios::trunc);
  m << "format=approxcode-volume-v1\nfamily=rs\n"
    << "k=" << params.k << "\nr=" << params.r << "\ng=" << params.g
    << "\nh=" << params.h << "\nstructure=even\n"
    << "block=" << block << "\nfile_size=" << data.size() << "\n"
    << "important_len=" << important_len << "\nchunks=" << chunks << "\n"
    << "file_crc32=" << crc32(data) << "\n";
}

TEST_F(VolumeTest, V1VolumeDecodesAndRepairs) {
  const auto data = random_bytes(150000, 7);
  const fs::path vdir = dir_ / "v1vol";
  write_v1_volume(vdir, data, rs_params(), 1024);

  VolumeStore vol(io_, vdir);
  EXPECT_EQ(vol.version(), kVolumeV1);
  const auto result = vol.decode_file(dir_ / "out.bin");
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(read_whole_file(dir_ / "out.bin"), data);

  // Scrub on v1 has no per-block integrity data but still detects loss.
  ScrubService service(vol);
  ScrubReport report = service.scrub();
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.integrity_checked);

  ASSERT_TRUE(fs::remove(vol.node_path(2)));
  report = service.scrub();
  ASSERT_EQ(report.damaged.size(), 1u);
  EXPECT_TRUE(report.damaged[0].missing);
  const RepairOutcome outcome = service.repair_damage(report);
  EXPECT_TRUE(outcome.fully_recovered);
  EXPECT_TRUE(fs::exists(vol.node_path(2)));  // rebuilt as raw v1 stream
  const auto again = vol.decode_file(dir_ / "out2.bin");
  EXPECT_TRUE(again.crc_ok);
  EXPECT_EQ(read_whole_file(dir_ / "out2.bin"), data);
}

// ---------------------------------------------------------------------------
// Manifest robustness
// ---------------------------------------------------------------------------

class ManifestTest : public VolumeTest {
 protected:
  // Write a syntactically valid v2 manifest, then corrupt one line.
  void write_manifest_with(const std::string& key, const std::string& value) {
    const auto data = random_bytes(5000, 8);
    VolumeStore::encode_file(io_, input(data), dir_ / "vol", rs_params(), 512,
                             std::nullopt);
    const fs::path mpath = dir_ / "vol" / kManifestFile;
    std::ifstream in(mpath);
    std::string line, out;
    while (std::getline(in, line)) {
      if (line.rfind(key + "=", 0) == 0) {
        out += key + "=" + value + "\n";
      } else {
        out += line + "\n";
      }
    }
    in.close();
    std::ofstream o(mpath, std::ios::trunc);
    o << out;
  }

  void expect_corrupt(const std::string& key_in_message) {
    try {
      Manifest::load(io_, dir_ / "vol");
      FAIL() << "expected corrupt-manifest error for " << key_in_message;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("corrupt manifest"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(key_in_message), std::string::npos)
          << e.what();
    }
  }
};

TEST_F(ManifestTest, NonNumericFieldNamesKey) {
  write_manifest_with("k", "banana");
  expect_corrupt("k");
}

TEST_F(ManifestTest, TrailingGarbageNamesKey) {
  write_manifest_with("file_size", "123x");
  expect_corrupt("file_size");
}

TEST_F(ManifestTest, OverflowNamesKey) {
  write_manifest_with("chunks", "99999999999999999999999999");
  expect_corrupt("chunks");
}

TEST_F(ManifestTest, NegativeNumberNamesKey) {
  write_manifest_with("h", "-4");
  expect_corrupt("h");
}

TEST_F(ManifestTest, MissingKeyIsCorrupt) {
  const auto data = random_bytes(5000, 9);
  VolumeStore::encode_file(io_, input(data), dir_ / "vol", rs_params(), 512,
                           std::nullopt);
  const fs::path mpath = dir_ / "vol" / kManifestFile;
  std::ifstream in(mpath);
  std::string line, out;
  while (std::getline(in, line)) {
    if (line.rfind("file_crc32=", 0) != 0) out += line + "\n";
  }
  in.close();
  std::ofstream(mpath, std::ios::trunc) << out;
  expect_corrupt("file_crc32");
}

TEST_F(ManifestTest, UnknownKeysSurviveRoundtrip) {
  const auto data = random_bytes(5000, 10);
  VolumeStore::encode_file(io_, input(data), dir_ / "vol", rs_params(), 512,
                           std::nullopt);
  Manifest m = Manifest::load(io_, dir_ / "vol");
  m.extra["video.frame_count"] = "240";
  ASSERT_TRUE(m.save(io_, dir_ / "vol").ok());
  const Manifest back = Manifest::load(io_, dir_ / "vol");
  ASSERT_EQ(back.extra.count("video.frame_count"), 1u);
  EXPECT_EQ(back.extra.at("video.frame_count"), "240");
}

TEST_F(ManifestTest, MissingManifestThrows) {
  fs::create_directories(dir_ / "empty");
  EXPECT_THROW(Manifest::load(io_, dir_ / "empty"), Error);
}

}  // namespace
}  // namespace approx::store
