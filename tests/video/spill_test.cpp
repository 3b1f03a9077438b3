// Cold-tier spill: TieredVideoStore <-> ApproxStore volume roundtrip, and
// servicing a damaged spilled volume with the generic scrub/repair path.
#include <gtest/gtest.h>

#include <filesystem>

#include "store/scrubber.h"
#include "video/codec.h"
#include "video/scene.h"
#include "video/tiered_store.h"

namespace fs = std::filesystem;

namespace approx::video {
namespace {

core::ApprParams small_params() {
  return core::ApprParams{codes::Family::RS, 4, 1, 2, 4, core::Structure::Even};
}

EncodedVideo make_video(int frames = 24) {
  SceneGenerator gen(96, 64, 21);
  std::vector<Frame> raw;
  for (int t = 0; t < frames; ++t) raw.push_back(gen.frame(t));
  return encode_video(raw, GopPattern("IBBPBBPBBPBB"));
}

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("approxspill_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  store::PosixIoBackend io_;
  fs::path dir_;
};

TEST_F(SpillTest, SpillLoadRoundtripPreservesVideo) {
  const EncodedVideo video = make_video();
  TieredVideoStore store(small_params(), 4096);
  store.put(video);
  const auto want = store.get();

  store.spill(io_, dir_ / "cold");
  TieredVideoStore back = TieredVideoStore::load_spill(io_, dir_ / "cold");

  EXPECT_EQ(back.stored_frame_count(), store.stored_frame_count());
  EXPECT_EQ(back.stored_width(), store.stored_width());
  EXPECT_EQ(back.stored_height(), store.stored_height());
  EXPECT_EQ(back.stored_gop().str(), store.stored_gop().str());
  EXPECT_EQ(back.important_stream_bytes(), store.important_stream_bytes());
  EXPECT_EQ(back.unimportant_stream_bytes(), store.unimportant_stream_bytes());

  const auto got = back.get();
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (std::size_t i = 0; i < got.lost.size(); ++i) {
    EXPECT_FALSE(got.lost[i]) << "frame " << i;
  }
}

TEST_F(SpillTest, DamagedSpillIsServicedByGenericScrubRepair) {
  const EncodedVideo video = make_video();
  TieredVideoStore store(small_params(), 4096);
  store.put(video);
  store.spill(io_, dir_ / "cold");

  // Lose a chunk file while the video is cold; the spilled volume is a
  // plain ApproxStore volume, so the storage-layer service repairs it
  // without knowing anything about video.
  store::VolumeStore vol(io_, dir_ / "cold");
  ASSERT_TRUE(fs::remove(vol.node_path(1)));
  // Strict load preserves the old contract: damage throws.
  EXPECT_THROW(
      TieredVideoStore::load_spill(io_, dir_ / "cold", /*allow_degraded=*/false),
      store::StoreError);
  // The default load self-heals: one lost node is within the local
  // tolerance, so the video comes back exact while still degraded on disk.
  {
    TieredVideoStore degraded = TieredVideoStore::load_spill(io_, dir_ / "cold");
    const auto got = degraded.get();
    for (const bool lost : got.lost) EXPECT_FALSE(lost);
  }

  store::ScrubService service(vol);
  const auto outcome = service.repair();
  EXPECT_TRUE(outcome.fully_recovered);

  TieredVideoStore back = TieredVideoStore::load_spill(io_, dir_ / "cold");
  const auto got = back.get();
  for (const bool lost : got.lost) EXPECT_FALSE(lost);
}

// h = 1 leaves no unimportant tier: a stream with P/B frames is refused
// before the store changes, and an all-I stream stores, spills and reloads.
TEST_F(SpillTest, HOneHoldsOnlyImportantFrames) {
  const core::ApprParams h1{codes::Family::RS, 4, 2, 1, 1, core::Structure::Even};
  TieredVideoStore store(h1, 4096);
  EXPECT_THROW(store.put(make_video()), InvalidArgument);
  EXPECT_EQ(store.chunk_count(), 0u);

  SceneGenerator gen(96, 64, 21);
  std::vector<Frame> raw;
  for (int t = 0; t < 6; ++t) raw.push_back(gen.frame(t));
  store.put(encode_video(raw, GopPattern("I")));
  EXPECT_EQ(store.unimportant_stream_bytes(), 0u);
  store.spill(io_, dir_ / "cold");
  TieredVideoStore back = TieredVideoStore::load_spill(io_, dir_ / "cold");
  const auto got = back.get();
  ASSERT_EQ(got.lost.size(), raw.size());
  for (const bool lost : got.lost) EXPECT_FALSE(lost);
}

TEST_F(SpillTest, NonVideoVolumeIsRejected) {
  const EncodedVideo video = make_video();
  TieredVideoStore store(small_params(), 4096);
  store.put(video);
  store.spill(io_, dir_ / "cold");

  store::VolumeStore vol(io_, dir_ / "cold");
  store::Manifest m = vol.manifest();
  m.extra.erase("video.gop");
  ASSERT_TRUE(m.save(io_, dir_ / "cold").ok());
  EXPECT_THROW(TieredVideoStore::load_spill(io_, dir_ / "cold"), Error);
}

}  // namespace
}  // namespace approx::video
