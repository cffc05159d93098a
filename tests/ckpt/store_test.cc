// ckpt::Store: atomic commit, incremental rewrite avoidance, async
// busy-skip, and load fallback (ISSUE 10).

#include "ckpt/store.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

namespace genmig {
namespace ckpt {
namespace {

std::string TempDir() {
  std::string tmpl = ::testing::TempDir() + "ckpt_store_XXXXXX";
  char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return tmpl;
}

Blob Make(const std::string& key, const std::string& bytes,
          const std::string& group = "main") {
  Blob b;
  b.key = key;
  b.bytes = bytes;
  b.group = group;
  return b;
}

TEST(StoreTest, EmptyDirectoryIsNotFound) {
  Store store(TempDir());
  std::map<std::string, std::string> blobs;
  const Status s = store.Load(&blobs);
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();
}

TEST(StoreTest, CommitThenLoadRoundtrips) {
  const std::string dir = TempDir();
  Store store(dir);
  ASSERT_TRUE(store.Commit({Make("a", "alpha"), Make("b", "beta")}).ok());

  std::map<std::string, std::string> blobs;
  uint64_t seq = 0;
  ASSERT_TRUE(store.Load(&blobs, &seq).ok());
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(blobs.size(), 2u);
  EXPECT_EQ(blobs.at("a"), "alpha");
  EXPECT_EQ(blobs.at("b"), "beta");

  // A second Store on the same directory (a restarted process) reads the
  // same checkpoint.
  Store reopened(dir);
  std::map<std::string, std::string> again;
  ASSERT_TRUE(reopened.Load(&again).ok());
  EXPECT_EQ(again, blobs);
}

TEST(StoreTest, UnchangedBlobsAreNotRewritten) {
  Store store(TempDir());
  const std::string big(64 * 1024, 'x');
  ASSERT_TRUE(store.Commit({Make("big", big), Make("small", "v1")}).ok());
  const uint64_t first_written = store.stats().written_bytes;
  EXPECT_GE(first_written, big.size());

  // Only "small" changes: the next commit must carry "big" forward without
  // rewriting its bytes.
  ASSERT_TRUE(store.Commit({Make("big", big), Make("small", "v2")}).ok());
  const Store::StatsSnapshot stats = store.stats();
  EXPECT_EQ(stats.seq, 2u);
  EXPECT_LT(stats.written_bytes, big.size());
  EXPECT_GE(stats.bytes, big.size());  // Live bytes still include "big".

  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(store.Load(&blobs).ok());
  EXPECT_EQ(blobs.at("big"), big);
  EXPECT_EQ(blobs.at("small"), "v2");
}

TEST(StoreTest, DroppedKeysLeaveTheManifest) {
  Store store(TempDir());
  ASSERT_TRUE(store.Commit({Make("keep", "k"), Make("drop", "d")}).ok());
  ASSERT_TRUE(store.Commit({Make("keep", "k")}).ok());
  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(store.Load(&blobs).ok());
  EXPECT_EQ(blobs.count("drop"), 0u);
  EXPECT_EQ(blobs.at("keep"), "k");
}

TEST(StoreTest, GroupsLandInSeparateChunkFiles) {
  const std::string dir = TempDir();
  Store store(dir);
  ASSERT_TRUE(store
                  .Commit({Make("r", "router", "main"), Make("s0/x", "a", "s0"),
                           Make("s1/x", "b", "s1")})
                  .ok());
  EXPECT_TRUE(std::ifstream(dir + "/" + ChunkFileName(1, "main")).good());
  EXPECT_TRUE(std::ifstream(dir + "/" + ChunkFileName(1, "s0")).good());
  EXPECT_TRUE(std::ifstream(dir + "/" + ChunkFileName(1, "s1")).good());
}

TEST(StoreTest, AsyncCommitLandsAfterWaitIdle) {
  Store store(TempDir());
  EXPECT_TRUE(store.CommitAsync({Make("k", "v")}));
  store.WaitIdle();
  EXPECT_EQ(store.stats().seq, 1u);
  EXPECT_EQ(store.stats().commits, 1u);
  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(store.Load(&blobs).ok());
  EXPECT_EQ(blobs.at("k"), "v");
}

TEST(StoreTest, EveryAsyncRoundIsCommittedFailedOrSkipped) {
  Store store(TempDir());
  // Rounds issued back to back find the worker busy some of the time; how
  // often depends on timing, but every round lands in exactly one counter.
  constexpr uint64_t kRounds = 50;
  uint64_t accepted = 0;
  for (uint64_t i = 0; i < kRounds; ++i) {
    if (store.CommitAsync({Make("k", std::to_string(i))})) ++accepted;
  }
  store.WaitIdle();
  const Store::StatsSnapshot s = store.stats();
  EXPECT_EQ(s.commits + s.failures, accepted);
  EXPECT_EQ(s.commits + s.failures + s.skipped, kRounds);
  EXPECT_GE(accepted, 1u);
}

TEST(StoreTest, ObserverSeesBeginAndCommit) {
  Store store(TempDir());
  std::vector<Store::Event::Phase> phases;
  store.SetEventObserver(
      [&phases](const Store::Event& e) { phases.push_back(e.phase); });
  ASSERT_TRUE(store.Commit({Make("k", "v")}).ok());
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0], Store::Event::Phase::kBegin);
  EXPECT_EQ(phases[1], Store::Event::Phase::kCommit);
}

TEST(StoreTest, OldCheckpointsAreGarbageCollected) {
  const std::string dir = TempDir();
  Store store(dir);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        store.Commit({Make("k", "v" + std::to_string(i))}).ok());
  }
  // The last two manifests are kept (crash fallback), older ones are gone.
  EXPECT_FALSE(std::ifstream(dir + "/" + ManifestFileName(1)).good());
  EXPECT_FALSE(std::ifstream(dir + "/" + ManifestFileName(3)).good());
  EXPECT_TRUE(std::ifstream(dir + "/" + ManifestFileName(4)).good());
  EXPECT_TRUE(std::ifstream(dir + "/" + ManifestFileName(5)).good());
  std::map<std::string, std::string> blobs;
  ASSERT_TRUE(store.Load(&blobs).ok());
  EXPECT_EQ(blobs.at("k"), "v4");
}

TEST(StoreTest, LeftoverTempManifestWithoutCurrentIsNotFound) {
  // A commit killed while writing its manifest leaves only the temp file:
  // the manifest is written as MANIFEST.tmp and renamed into place whole.
  const std::string committed = TempDir();
  Store writer(committed);
  ASSERT_TRUE(writer.Commit({Make("k", "value")}).ok());
  std::ifstream in(committed + "/" + ManifestFileName(1), std::ios::binary);
  const std::string manifest((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  ASSERT_GT(manifest.size(), 8u);
  const std::string torn = manifest.substr(0, manifest.size() / 2);

  const std::string dir = TempDir();
  std::ofstream(dir + "/MANIFEST.tmp", std::ios::binary) << torn;
  Store store(dir);
  std::map<std::string, std::string> blobs;
  const Status s = store.Load(&blobs);
  EXPECT_EQ(s.code(), Status::Code::kNotFound) << s.ToString();

  // The same bytes under a final manifest name are a torn checkpoint.
  std::ofstream(dir + "/" + ManifestFileName(1), std::ios::binary) << torn;
  EXPECT_EQ(Store(dir).Load(&blobs).code(), Status::Code::kDataLoss);

  // The next commit overwrites the leftover and loads.
  ASSERT_TRUE(store.Commit({Make("k", "again")}).ok());
  ASSERT_TRUE(Store(dir).Load(&blobs).ok());
  EXPECT_EQ(blobs.at("k"), "again");
}

}  // namespace
}  // namespace ckpt
}  // namespace genmig
