// Unit tests for the collection-of-mmaps cache and the staging-file pool.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/core/mmap_cache.h"
#include "src/core/split_fs.h"
#include "src/core/staging.h"

namespace {

using common::kBlockSize;
using common::kMiB;

class MmapCacheTest : public ::testing::Test {
 protected:
  MmapCacheTest() : dev_(&ctx_, 256 * kMiB), kfs_(&dev_), cache_(&kfs_, 2 * kMiB) {}

  int MakeFile(const std::string& path, uint64_t bytes) {
    int fd = kfs_.Open(path, vfs::kRdWr | vfs::kCreate);
    std::vector<uint8_t> buf(bytes, 0xAB);
    kfs_.Pwrite(fd, buf.data(), bytes, 0);
    return fd;
  }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
  splitfs::MmapCache cache_;
};

TEST_F(MmapCacheTest, TranslateMissThenHit) {
  int fd = MakeFile("/a", 64 * 1024);
  vfs::Ino ino = kfs_.InoOf(fd);
  EXPECT_FALSE(cache_.Translate(ino, 0).has_value());
  ASSERT_TRUE(cache_.EnsureRegion(ino, fd, 0));
  auto hit = cache_.Translate(ino, 4096);
  ASSERT_TRUE(hit.has_value());
  EXPECT_GT(hit->len, 0u);
  // The translation points at the file's real blocks.
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps;
  kfs_.DaxMap(fd, 4096, 64, &maps);
  ASSERT_FALSE(maps.empty());
  EXPECT_EQ(hit->dev_off, maps[0].dev_off);
}

TEST_F(MmapCacheTest, RegionCreationChargesMmapAndHugeFault) {
  int fd = MakeFile("/b", 64 * 1024);
  vfs::Ino ino = kfs_.InoOf(fd);
  uint64_t t0 = ctx_.clock.Now();
  uint64_t faults0 = ctx_.stats.page_faults();
  cache_.EnsureRegion(ino, fd, 0);
  EXPECT_GE(ctx_.clock.Now() - t0,
            ctx_.model.mmap_syscall_ns + ctx_.model.huge_page_fault_ns);
  EXPECT_EQ(ctx_.stats.page_faults() - faults0, 1u);  // One 2 MB huge page.
  // Second call: cached, near-free.
  t0 = ctx_.clock.Now();
  cache_.EnsureRegion(ino, fd, 4096);
  EXPECT_LT(ctx_.clock.Now() - t0, 100u);
}

TEST_F(MmapCacheTest, InsertPiecesIsFreeAndMerges) {
  vfs::Ino ino = 42;
  cache_.InsertPieces(ino, {{0, 1 * kMiB, 4096}});
  cache_.InsertPieces(ino, {{4096, 1 * kMiB + 4096, 4096}});  // Contiguous.
  auto hit = cache_.Translate(ino, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->len, 8192u);  // Merged into one piece: one latency class per run.
}

TEST_F(MmapCacheTest, NonContiguousPiecesStaySeparate) {
  vfs::Ino ino = 43;
  cache_.InsertPieces(ino, {{0, 1 * kMiB, 4096}});
  cache_.InsertPieces(ino, {{4096, 9 * kMiB, 4096}});  // Device-discontiguous.
  auto hit = cache_.Translate(ino, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->len, 4096u);
  auto hit2 = cache_.Translate(ino, 4096);
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(hit2->dev_off, 9 * kMiB);
}

TEST_F(MmapCacheTest, OverlappingInsertKeepsExistingAuthoritative) {
  vfs::Ino ino = 44;
  cache_.InsertPieces(ino, {{0, 1 * kMiB, 8192}});
  cache_.InsertPieces(ino, {{4096, 5 * kMiB, 8192}});  // Overlaps [4096, 8192).
  auto hit = cache_.Translate(ino, 4096);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->dev_off, 1 * kMiB + 4096);  // Original mapping untouched.
  auto tail = cache_.Translate(ino, 8192);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->dev_off, 5 * kMiB + 4096);  // New data beyond the overlap.
}

TEST_F(MmapCacheTest, InvalidateRangeSplitsPieces) {
  vfs::Ino ino = 45;
  cache_.InsertPieces(ino, {{0, 1 * kMiB, 3 * 4096}});
  cache_.InvalidateRange(ino, 4096, 4096);  // Carve the middle block out.
  EXPECT_TRUE(cache_.Translate(ino, 0).has_value());
  EXPECT_FALSE(cache_.Translate(ino, 4096).has_value());
  auto right = cache_.Translate(ino, 8192);
  ASSERT_TRUE(right.has_value());
  EXPECT_EQ(right->dev_off, 1 * kMiB + 8192);
}

TEST_F(MmapCacheTest, InvalidateFileChargesMunmapPerRegion) {
  int fd = MakeFile("/c", 6 * kMiB);
  vfs::Ino ino = kfs_.InoOf(fd);
  cache_.EnsureRegion(ino, fd, 0);
  cache_.EnsureRegion(ino, fd, 2 * kMiB);
  cache_.EnsureRegion(ino, fd, 4 * kMiB);
  uint64_t t0 = ctx_.clock.Now();
  cache_.InvalidateFile(ino);
  EXPECT_GE(ctx_.clock.Now() - t0, 3 * ctx_.model.munmap_ns);
  EXPECT_FALSE(cache_.Translate(ino, 0).has_value());
}

constexpr uint64_t kShards = splitfs::MmapCache::kShards;

TEST_F(MmapCacheTest, ShardCollidingFilesKeepIndependentTranslations) {
  // Three inos in one shard table: every update rebuilds that table, and must carry
  // the other two files over untouched.
  const vfs::Ino a = 7;
  const vfs::Ino b = a + kShards;
  const vfs::Ino c = a + 2 * kShards;
  cache_.InsertPieces(a, {{0, 1 * kMiB, 2 * kBlockSize}});
  cache_.InsertPieces(b, {{0, 3 * kMiB, 2 * kBlockSize}});
  cache_.InsertPieces(c, {{0, 5 * kMiB, 2 * kBlockSize}});
  auto dev_at = [this](vfs::Ino ino, uint64_t off) -> int64_t {
    auto hit = cache_.Translate(ino, off);
    return hit ? static_cast<int64_t>(hit->dev_off) : -1;
  };
  EXPECT_EQ(dev_at(a, 0), int64_t{1 * kMiB});
  EXPECT_EQ(dev_at(b, 0), int64_t{3 * kMiB});
  EXPECT_EQ(dev_at(c, 0), int64_t{5 * kMiB});

  cache_.InvalidateRange(b, 0, kBlockSize);
  EXPECT_EQ(dev_at(b, 0), -1);
  EXPECT_EQ(dev_at(b, kBlockSize), int64_t{3 * kMiB + kBlockSize});
  EXPECT_EQ(dev_at(a, 0), int64_t{1 * kMiB});
  EXPECT_EQ(dev_at(c, 0), int64_t{5 * kMiB});

  cache_.InvalidateFile(a);
  EXPECT_EQ(dev_at(a, 0), -1);
  EXPECT_EQ(dev_at(a, kBlockSize), -1);
  EXPECT_EQ(dev_at(b, kBlockSize), int64_t{3 * kMiB + kBlockSize});
  EXPECT_EQ(dev_at(c, kBlockSize), int64_t{5 * kMiB + kBlockSize});

  cache_.InsertPieces(a, {{0, 7 * kMiB, kBlockSize}});
  EXPECT_EQ(dev_at(a, 0), int64_t{7 * kMiB});
  EXPECT_EQ(dev_at(b, 0), -1);
  EXPECT_EQ(dev_at(c, 0), int64_t{5 * kMiB});
}

TEST_F(MmapCacheTest, ClearEmptiesEveryShard) {
  const uint64_t empty_usage = cache_.MemoryUsageBytes();
  int fd = MakeFile("/d", 64 * 1024);
  vfs::Ino mapped = kfs_.InoOf(fd);
  ASSERT_TRUE(cache_.EnsureRegion(mapped, fd, 0));
  for (vfs::Ino ino = 1000; ino < 1000 + 2 * kShards; ++ino) {
    cache_.InsertPieces(ino, {{0, ino * kBlockSize, kBlockSize}});
  }
  EXPECT_EQ(cache_.RegionCount(), 1u);
  cache_.Clear();
  EXPECT_EQ(cache_.RegionCount(), 0u);
  EXPECT_FALSE(cache_.Translate(mapped, 0).has_value());
  for (vfs::Ino ino = 1000; ino < 1000 + 2 * kShards; ++ino) {
    EXPECT_FALSE(cache_.Translate(ino, 0).has_value()) << "ino " << ino;
  }
  EXPECT_EQ(cache_.MemoryUsageBytes(), empty_usage);
}

TEST_F(MmapCacheTest, MemoryUsageCountsFilesInEveryShard) {
  const uint64_t empty_usage = cache_.MemoryUsageBytes();
  cache_.InsertPieces(kShards, {{0, 1 * kMiB, kBlockSize}});
  const uint64_t one_file = cache_.MemoryUsageBytes() - empty_usage;
  ASSERT_GT(one_file, 0u);
  for (vfs::Ino ino = kShards + 1; ino < 2 * kShards; ++ino) {
    cache_.InsertPieces(ino, {{0, ino * kMiB, kBlockSize}});
  }
  EXPECT_EQ(cache_.MemoryUsageBytes() - empty_usage, kShards * one_file);
}

// One cache on a private machine, so two of them can be compared charge for charge.
struct CacheRig {
  CacheRig() : dev(&ctx, 64 * kMiB), kfs(&dev), cache(&kfs, 2 * kMiB) {}
  sim::Context ctx;
  pmem::Device dev;
  ext4sim::Ext4Dax kfs;
  splitfs::MmapCache cache;
};

TEST(MmapCacheReplaceRange, MatchesInvalidateThenInsert) {
  // Relink-shaped updates (block-aligned ranges, some device-contiguous with the
  // previous one so pieces merge), mixed with staging inserts and truncates, on a
  // few inos that include a shard collision.
  constexpr uint64_t kSpan = 2 * kMiB;
  const std::vector<vfs::Ino> inos = {3, 4, 3 + kShards};
  CacheRig fused;
  CacheRig pair;
  common::Rng rng(20191027);
  uint64_t next_dev = 0;
  for (int step = 0; step < 400; ++step) {
    vfs::Ino ino = inos[rng.Range(0, inos.size() - 1)];
    uint64_t off = rng.Range(0, kSpan / kBlockSize - 1) * kBlockSize;
    uint64_t len = rng.Range(1, 16) * kBlockSize;
    uint64_t dev_off =
        rng.Range(0, 3) == 0 ? next_dev : rng.Range(0, 8192) * kBlockSize;
    next_dev = dev_off + len;
    switch (rng.Range(0, 9)) {
      case 0:
        fused.cache.InvalidateRange(ino, off, len);
        pair.cache.InvalidateRange(ino, off, len);
        break;
      case 1:
        fused.cache.InsertPieces(ino, {{off, dev_off, len}});
        pair.cache.InsertPieces(ino, {{off, dev_off, len}});
        break;
      case 2:
        fused.cache.InvalidateFile(ino);
        pair.cache.InvalidateFile(ino);
        break;
      default:
        fused.cache.ReplaceRange(ino, off, dev_off, len);
        pair.cache.InvalidateRange(ino, off, len);
        pair.cache.InsertPieces(ino, {{off, dev_off, len}});
        break;
    }
    ASSERT_EQ(fused.ctx.clock.Now(), pair.ctx.clock.Now()) << "step " << step;
    for (vfs::Ino probe : inos) {
      for (uint64_t at = 0; at < kSpan + 16 * kBlockSize; at += kBlockSize) {
        auto f = fused.cache.Translate(probe, at);
        auto p = pair.cache.Translate(probe, at);
        ASSERT_EQ(f.has_value(), p.has_value()) << "step " << step << " off " << at;
        if (f) {
          ASSERT_EQ(f->dev_off, p->dev_off) << "step " << step << " off " << at;
          ASSERT_EQ(f->len, p->len) << "step " << step << " off " << at;
        }
      }
    }
  }
  EXPECT_EQ(fused.cache.MemoryUsageBytes(), pair.cache.MemoryUsageBytes());
}

class StagingTest : public ::testing::Test {
 protected:
  StagingTest() : dev_(&ctx_, 256 * kMiB), kfs_(&dev_), cache_(&kfs_, 2 * kMiB) {
    opts_.num_staging_files = 2;
    opts_.staging_file_bytes = 4 * kMiB;
    pool_ = std::make_unique<splitfs::StagingPool>(&kfs_, &cache_, opts_, "t");
  }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
  splitfs::MmapCache cache_;
  splitfs::Options opts_;
  std::unique_ptr<splitfs::StagingPool> pool_;
};

TEST_F(StagingTest, AllocationsHonorBlockAlignmentModulus) {
  std::vector<splitfs::StagingAlloc> a;
  ASSERT_TRUE(pool_->Allocate(100, /*align_mod=*/0, &a));
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].staging_off % kBlockSize, 0u);

  std::vector<splitfs::StagingAlloc> b;
  ASSERT_TRUE(pool_->Allocate(100, /*align_mod=*/700, &b));
  EXPECT_EQ(b[0].staging_off % kBlockSize, 700u);
  // The new allocation never shares a block with the previous one.
  EXPECT_GE(b[0].staging_off, common::AlignUp(a[0].staging_off + a[0].len, kBlockSize));
}

TEST_F(StagingTest, ExtendInPlaceOnlyAtBumpPointer) {
  std::vector<splitfs::StagingAlloc> a;
  ASSERT_TRUE(pool_->Allocate(4096, 0, &a));
  splitfs::StagingAlloc alloc = a[0];
  EXPECT_TRUE(pool_->ExtendInPlace(&alloc, 4096));
  EXPECT_EQ(alloc.len, 8192u);
  // After another allocation intervenes, extension must fail.
  std::vector<splitfs::StagingAlloc> c;
  ASSERT_TRUE(pool_->Allocate(4096, 0, &c));
  EXPECT_FALSE(pool_->ExtendInPlace(&alloc, 4096));
}

TEST_F(StagingTest, ExhaustionTriggersBackgroundReplenishment) {
  std::vector<splitfs::StagingAlloc> a;
  // Consume more than both initial files.
  ASSERT_TRUE(pool_->Allocate(9 * kMiB, 0, &a));
  EXPECT_GT(pool_->FilesCreated(), 2u);
  EXPECT_GT(pool_->BackgroundCreations(), 0u);
  // Every returned piece is within a staging file's pre-allocated range.
  for (const auto& piece : a) {
    EXPECT_LE(piece.staging_off + piece.len, opts_.staging_file_bytes);
    EXPECT_GT(piece.len, 0u);
  }
}

TEST_F(StagingTest, BackgroundCreationDoesNotAdvanceForegroundClock) {
  std::vector<splitfs::StagingAlloc> a;
  ASSERT_TRUE(pool_->Allocate(4 * kMiB - 4096, 0, &a));  // Nearly drain file 1.
  uint64_t t0 = ctx_.clock.Now();
  std::vector<splitfs::StagingAlloc> b;
  ASSERT_TRUE(pool_->Allocate(8192, 0, &b));  // Crosses into file 2 + replenish.
  // The replenishment (create + fallocate + map of a 4 MB file) would cost far more
  // than this if charged to the foreground.
  EXPECT_LT(ctx_.clock.Now() - t0, 50000u);
  EXPECT_GT(pool_->BackgroundCreations(), 0u);
}

TEST_F(StagingTest, ConsumedFilesRetireOnceReleased) {
  // Consume several pool files, returning every allocation as if published. The pool
  // must retire (close + unlink) each consumed file instead of leaking it.
  std::vector<splitfs::StagingAlloc> all;
  for (int i = 0; i < 12; ++i) {
    std::vector<splitfs::StagingAlloc> a;
    ASSERT_TRUE(pool_->Allocate(kMiB, 0, &a));
    for (const auto& piece : a) {
      pool_->Release(piece);
    }
  }
  EXPECT_GT(pool_->FilesCreated(), 3u);
  EXPECT_GT(pool_->FilesRetired(), 0u);
  // The pool never holds more than the configured working set plus the file being
  // replaced: consumed-but-referenced files are gone once their bytes came back.
  EXPECT_LE(pool_->LiveFiles(), uint64_t{opts_.num_staging_files} + 1);
  // The retired files are really unlinked from the runtime directory.
  std::vector<std::string> names;
  ASSERT_EQ(kfs_.ReadDir("/.splitfs/stage-t", &names), 0);
  EXPECT_EQ(names.size(), pool_->LiveFiles());
}

TEST_F(StagingTest, UnreleasedRangesKeepConsumedFileAlive) {
  std::vector<splitfs::StagingAlloc> held;
  ASSERT_TRUE(pool_->Allocate(4 * kMiB, 0, &held));  // Exactly file 1, kept staged.
  std::vector<splitfs::StagingAlloc> churn;
  ASSERT_TRUE(pool_->Allocate(4 * kMiB, 0, &churn));  // Exhausts file 2.
  for (const auto& piece : churn) {
    pool_->Release(piece);  // Published immediately.
  }
  uint64_t retired_before = pool_->FilesRetired();
  // The next allocation pops the exhausted, fully-released file 2 and retires it;
  // file 1 must survive, its ranges are still staged.
  std::vector<splitfs::StagingAlloc> more;
  ASSERT_TRUE(pool_->Allocate(4096, 0, &more));
  EXPECT_GT(pool_->FilesRetired(), retired_before);
  int fd = kfs_.OpenByIno(held.front().staging_ino, vfs::kRdWr);
  EXPECT_GE(fd, 0) << "staging file with un-published ranges was deleted";
  if (fd >= 0) {
    kfs_.Close(fd);
  }
}

// End-to-end leak regression through SplitFs: publish-heavy append traffic across
// many pool files must not accumulate staging files or descriptors (the header
// contract: close/unlink release staged extents).
TEST(SplitFsStagingLeak, PublishHeavyWorkloadRetiresConsumedFiles) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 256 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  splitfs::Options o;
  o.num_staging_files = 2;
  o.staging_file_bytes = kMiB;
  splitfs::SplitFs fs(&kfs, o);

  int fd = fs.Open("/big", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> chunk(128 * 1024, 0xCD);
  uint64_t off = 0;
  for (int i = 0; i < 64; ++i) {  // 8 MB staged total = 8 consumed pool files.
    ASSERT_EQ(fs.Pwrite(fd, chunk.data(), chunk.size(), off),
              static_cast<ssize_t>(chunk.size()));
    off += chunk.size();
    if (i % 4 == 3) {
      ASSERT_EQ(fs.Fsync(fd), 0);
    }
  }
  ASSERT_EQ(fs.Close(fd), 0);
  const splitfs::StagingPool& pool = fs.staging_pool();
  EXPECT_GT(pool.FilesCreated(), 4u);
  EXPECT_GT(pool.FilesRetired(), 0u);
  EXPECT_LE(pool.LiveFiles(), uint64_t{o.num_staging_files} + 1);
}

TEST(SplitFsStagingLeak, UnlinkReturnsStagedBytesToPool) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 256 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  splitfs::Options o;
  o.num_staging_files = 2;
  o.staging_file_bytes = kMiB;
  splitfs::SplitFs fs(&kfs, o);

  // Stage more than one pool file's worth without ever publishing, then unlink.
  int fd = fs.Open("/doomed", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> chunk(256 * 1024, 0xEE);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fs.Pwrite(fd, chunk.data(), chunk.size(), i * chunk.size()),
              static_cast<ssize_t>(chunk.size()));
  }
  ASSERT_EQ(fs.Close(fd), 0);  // Publishes (close publishes staged appends).
  fd = fs.Open("/doomed2", vfs::kRdWr | vfs::kCreate);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fs.Pwrite(fd, chunk.data(), chunk.size(), i * chunk.size()),
              static_cast<ssize_t>(chunk.size()));
  }
  ASSERT_EQ(fs.Unlink("/doomed2"), 0);  // Staged data dies with the file.
  const splitfs::StagingPool& pool = fs.staging_pool();
  EXPECT_LE(pool.LiveFiles(), uint64_t{o.num_staging_files} + 1);
  EXPECT_GT(pool.FilesRetired(), 0u);
}

}  // namespace
