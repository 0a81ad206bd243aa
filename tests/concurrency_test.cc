// Concurrent-semantics tests for the multithreaded U-Split (ctest label:
// `concurrency`; also the ThreadSanitizer target of scripts/check.sh --tsan).
//
// Covers the guarantees the refactor claims:
//   * N-thread atomic appends: no lost and no torn records, POSIX and strict modes;
//   * pread concurrent with relink publication reads consistent committed data;
//   * lock-free Translate during relink/unlink/truncate churn (epoch snapshots);
//   * same-shard churn: table swaps never hide or free a pinned reader's mapping;
//   * async relink ordering: readers see the staged or the published snapshot,
//     never a torn window;
//   * fd-table open/close/dup stress: descriptors never cross-talk, dup shares one
//     cursor, close invalidates exactly one descriptor;
//   * disjoint-offset same-file writers and disjoint-file workers in parallel;
//   * open race on one path (and rename racing a first open of the destination)
//     keeps exactly one cached state;
//   * one background executor: a single-tenant instance's replenisher is an owned
//     1-worker pool (one OS thread, joined at teardown), and async relink adds no
//     thread;
//   * counter integrity (relinks, staging pool) under concurrency.
//
// Every suite runs twice per mode: synchronous publication (`_inline`) and async
// relink (`_async`: Options::async_relink, intents fenced and then published on
// the fsync/close caller), so the TSan pass of scripts/check.sh exercises the
// intent-log/publish/fence protocol under concurrent writers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/split_fs.h"
#include "src/ext4/fsck.h"
#include "src/workloads/parallel.h"
#include "tests/os_threads.h"

namespace {

using common::kBlockSize;
using common::kMiB;
using splitfs::Mode;
using splitfs::Options;
using splitfs::SplitFs;

constexpr int kThreads = 4;

Options ConcurrentOptions(Mode mode, bool async_publish) {
  Options o;
  o.mode = mode;
  o.num_staging_files = 4;
  o.staging_file_bytes = 8 * kMiB;
  o.oplog_bytes = 4 * kMiB;
  o.replenish_thread = true;  // Exercise the real §3.5 replenisher under TSan.
  o.async_relink = async_publish;
  return o;
}

class ConcurrencyTest : public ::testing::TestWithParam<std::tuple<Mode, bool>> {
 protected:
  ConcurrencyTest()
      : dev_(&ctx_, 2 * common::kGiB),
        kfs_(&dev_),
        fs_(std::make_unique<SplitFs>(
            &kfs_, ConcurrentOptions(std::get<0>(GetParam()), std::get<1>(GetParam())))) {}

  Mode mode() const { return std::get<0>(GetParam()); }
  bool async() const { return std::get<1>(GetParam()); }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
  std::unique_ptr<SplitFs> fs_;
};

INSTANTIATE_TEST_SUITE_P(
    Modes, ConcurrencyTest,
    ::testing::Combine(::testing::Values(Mode::kPosix, Mode::kStrict),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(ModeName(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_async" : "_inline");
    });

// --- Atomic appends -------------------------------------------------------------------

TEST_P(ConcurrencyTest, AtomicAppendsNoLostOrTornRecords) {
  // N threads append fixed-size records through O_APPEND descriptors of one file.
  // Every record must land exactly once (no lost appends) and intact (no torn
  // appends) — Table 3's atomic-append guarantee, multithreaded.
  constexpr uint64_t kRecord = 512;
  constexpr uint64_t kPerThread = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t] {
      int fd = fs_->Open("/aappend", vfs::kRdWr | vfs::kCreate | vfs::kAppend);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> rec(kRecord);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Header: thread + sequence; body: one fill byte derived from both, so a
        // torn record is detectable at any byte.
        rec[0] = static_cast<uint8_t>(t);
        std::memcpy(rec.data() + 1, &i, sizeof(i));
        uint8_t fill = static_cast<uint8_t>(0xC0 ^ (t * 31) ^ (i * 7));
        std::memset(rec.data() + 9, fill, kRecord - 9);
        ASSERT_EQ(fs_->Write(fd, rec.data(), kRecord), static_cast<ssize_t>(kRecord));
      }
      ASSERT_EQ(fs_->Close(fd), 0);
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  int fd = fs_->Open("/aappend", vfs::kRdOnly);
  ASSERT_GE(fd, 0);
  vfs::StatBuf st;
  ASSERT_EQ(fs_->Fstat(fd, &st), 0);
  ASSERT_EQ(st.size, kThreads * kPerThread * kRecord);  // No lost appends.

  std::vector<std::vector<bool>> seen(kThreads, std::vector<bool>(kPerThread, false));
  std::vector<uint8_t> rec(kRecord);
  for (uint64_t off = 0; off < st.size; off += kRecord) {
    ASSERT_EQ(fs_->Pread(fd, rec.data(), kRecord, off), static_cast<ssize_t>(kRecord));
    int t = rec[0];
    uint64_t i = 0;
    std::memcpy(&i, rec.data() + 1, sizeof(i));
    ASSERT_LT(t, kThreads);
    ASSERT_LT(i, kPerThread);
    EXPECT_FALSE(seen[t][i]) << "record duplicated";
    seen[t][i] = true;
    uint8_t fill = static_cast<uint8_t>(0xC0 ^ (t * 31) ^ (i * 7));
    for (uint64_t b = 9; b < kRecord; ++b) {
      ASSERT_EQ(rec[b], fill) << "torn record at file offset " << off + b;
    }
  }
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(seen[t][i]) << "lost append t=" << t << " i=" << i;
    }
  }
  fs_->Close(fd);
}

// --- Reads racing relink publication --------------------------------------------------

TEST_P(ConcurrencyTest, PreadDuringRelinkSeesConsistentData) {
  // A writer appends block-patterned data and publishes via fsync (relink); reader
  // threads continuously pread the already-committed prefix. Every read must return
  // the pattern — never a hole, never half-published bytes.
  constexpr uint64_t kRounds = 24;
  constexpr uint64_t kBlocksPerRound = 8;
  std::atomic<uint64_t> committed{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};

  int wfd = fs_->Open("/relinked", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(wfd, 0);

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([this, &committed, &done, &read_errors] {
      int fd = fs_->Open("/relinked", vfs::kRdOnly);
      if (fd < 0) {
        read_errors.fetch_add(1);
        return;
      }
      std::vector<uint8_t> buf(kBlockSize);
      uint64_t spins = 0;
      while (!done.load(std::memory_order_acquire) && spins < 30000) {
        ++spins;
        uint64_t limit = committed.load(std::memory_order_acquire);
        if (limit == 0) {
          continue;
        }
        uint64_t block = (spins * 2654435761u) % (limit / kBlockSize);
        if (fs_->Pread(fd, buf.data(), kBlockSize, block * kBlockSize) !=
            static_cast<ssize_t>(kBlockSize)) {
          read_errors.fetch_add(1);
          continue;
        }
        uint8_t expect = static_cast<uint8_t>(block & 0xFF);
        for (uint64_t b = 0; b < kBlockSize; b += 509) {  // Sampled; TSan-friendly.
          if (buf[b] != expect) {
            read_errors.fetch_add(1);
            break;
          }
        }
      }
      fs_->Close(fd);
    });
  }

  std::vector<uint8_t> block(kBlockSize);
  for (uint64_t round = 0; round < kRounds; ++round) {
    for (uint64_t b = 0; b < kBlocksPerRound; ++b) {
      uint64_t blk = round * kBlocksPerRound + b;
      std::memset(block.data(), static_cast<int>(blk & 0xFF), kBlockSize);
      ASSERT_EQ(fs_->Pwrite(wfd, block.data(), kBlockSize, blk * kBlockSize),
                static_cast<ssize_t>(kBlockSize));
    }
    ASSERT_EQ(fs_->Fsync(wfd), 0);  // Publish (relink) while readers hammer preads.
    committed.store((round + 1) * kBlocksPerRound * kBlockSize,
                    std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_GT(fs_->Relinks(), 0u);
  fs_->Close(wfd);
}

// --- Lock-free Translate under snapshot churn -----------------------------------------

TEST_P(ConcurrencyTest, TranslateDuringRelinkUnlinkTruncateChurn) {
  // Reader threads hammer preads of stable files — every access is a lock-free
  // MmapCache::Translate — while a churn thread drives the snapshot-swapping paths
  // on other files sharing the same cache: relink publication (fsync), shrinking
  // truncate (range invalidation), and unlink/recreate (file invalidation, epoch
  // retirement of whole snapshots). Readers must always see their files' bytes;
  // TSan validates the epoch protocol.
  constexpr int kStable = 2;
  constexpr uint64_t kFileBytes = 256 * 1024;
  auto byte_at = [](int f, uint64_t off) {
    return static_cast<uint8_t>(0x21 ^ (f * 53) ^ (off >> 9));
  };
  for (int f = 0; f < kStable; ++f) {
    int fd = fs_->Open("/stable-" + std::to_string(f), vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf(4096);
    for (uint64_t off = 0; off < kFileBytes; off += buf.size()) {
      for (uint64_t i = 0; i < buf.size(); ++i) {
        buf[i] = byte_at(f, off + i);
      }
      ASSERT_EQ(fs_->Pwrite(fd, buf.data(), buf.size(), off),
                static_cast<ssize_t>(buf.size()));
    }
    ASSERT_EQ(fs_->Fsync(fd), 0);
    ASSERT_EQ(fs_->Close(fd), 0);
  }
  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads - 1; ++r) {
    readers.emplace_back([this, r, &done, &read_errors, &byte_at] {
      int f = r % kStable;
      int fd = fs_->Open("/stable-" + std::to_string(f), vfs::kRdOnly);
      if (fd < 0) {
        read_errors.fetch_add(1);
        return;
      }
      std::vector<uint8_t> buf(4096);
      uint64_t spins = 0;
      while (!done.load(std::memory_order_acquire) && spins < 20000) {
        ++spins;
        uint64_t off = (spins * 2654435761u * (r + 1)) % (kFileBytes / 4096) * 4096;
        if (fs_->Pread(fd, buf.data(), buf.size(), off) !=
            static_cast<ssize_t>(buf.size())) {
          read_errors.fetch_add(1);
          continue;
        }
        if (buf[0] != byte_at(f, off) || buf[4095] != byte_at(f, off + 4095)) {
          read_errors.fetch_add(1);
        }
      }
      fs_->Close(fd);
    });
  }
  // Churn: every iteration swaps translation snapshots under the readers' feet.
  std::vector<uint8_t> block(2 * kBlockSize, 0x7E);
  for (int i = 0; i < 60; ++i) {
    std::string path = "/churn-" + std::to_string(i % 3);
    int fd = fs_->Open(path, vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fs_->Pwrite(fd, block.data(), block.size(), 0),
              static_cast<ssize_t>(block.size()));
    ASSERT_EQ(fs_->Fsync(fd), 0);  // Relink: snapshot insert + range invalidate.
    std::vector<uint8_t> back(kBlockSize);
    ASSERT_EQ(fs_->Pread(fd, back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));  // Map the region (Translate).
    ASSERT_EQ(fs_->Ftruncate(fd, kBlockSize), 0);  // Range invalidation.
    ASSERT_EQ(fs_->Close(fd), 0);
    if (i % 3 == 2) {
      ASSERT_EQ(fs_->Unlink(path), 0);  // Whole-file invalidation + retirement.
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(read_errors.load(), 0u);
}

TEST(MmapCacheShardChurn, SameShardUpdatesNeverHideStableMappings) {
  // Every file here hashes to one shard table. Readers translate the stable files
  // while a churner relinks into, truncates and drops the other files of that shard:
  // each update rebuilds the table the readers are walking, swaps the shard pointer
  // and retires the old table. Readers must always find their stable mappings, and
  // a retired table must stay allocated while a pinned reader holds it (TSan/ASan).
  constexpr uint64_t kShards = splitfs::MmapCache::kShards;
  constexpr int kStable = 3;
  constexpr int kChurned = 4;
  constexpr uint64_t kPieces = 8;
  sim::Context ctx;
  pmem::Device dev(&ctx, 64 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  splitfs::MmapCache cache(&kfs, 2 * kMiB);
  auto ino_of = [](int f) { return vfs::Ino{5 + f * kShards}; };
  // Device-discontiguous pieces, so each stays a separate snapshot entry.
  auto stable_dev = [](int f, uint64_t p) { return (f * 64 + p * 2) * kBlockSize; };
  for (int f = 0; f < kStable; ++f) {
    std::vector<ext4sim::Ext4Dax::DaxMapping> pieces;
    for (uint64_t p = 0; p < kPieces; ++p) {
      pieces.push_back({p * kBlockSize, stable_dev(f, p), kBlockSize});
    }
    cache.InsertPieces(ino_of(f), pieces);
  }
  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads - 1; ++r) {
    readers.emplace_back([&, r] {
      for (uint64_t spins = 0; !done.load(std::memory_order_acquire); ++spins) {
        int f = static_cast<int>((spins + r) % kStable);
        uint64_t p = (spins * 2654435761u) % kPieces;
        auto hit = cache.Translate(ino_of(f), p * kBlockSize + 7);
        if (!hit || hit->dev_off != stable_dev(f, p) + 7) {
          misses.fetch_add(1);
        }
      }
    });
  }
  for (uint64_t i = 0; i < 3000; ++i) {
    vfs::Ino ino = ino_of(kStable + static_cast<int>(i % kChurned));
    cache.ReplaceRange(ino, (i % 16) * kBlockSize, (1024 + i) * kBlockSize, 2 * kBlockSize);
    if (i % 5 == 0) {
      cache.InvalidateRange(ino, 0, 4 * kBlockSize);
    }
    if (i % 7 == 0) {
      cache.InvalidateFile(ino);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(misses.load(), 0u);
  for (int f = 0; f < kStable; ++f) {
    auto hit = cache.Translate(ino_of(f), 0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->dev_off, stable_dev(f, 0));
  }
}

// --- Async publisher ordering ---------------------------------------------------------

TEST_P(ConcurrencyTest, AsyncPublishDrainsAndMatchesWrittenImage) {
  // Writers append records and fsync while the publisher relinks behind them;
  // concurrent readers re-read the acknowledged prefix. After the completion fence
  // the full image must match what was written (publishes lost nothing, staged and
  // published windows stitched seamlessly), with no staged bytes left behind.
  constexpr uint64_t kRecord = kBlockSize;
  constexpr uint64_t kRecords = 96;
  int wfd = fs_->Open("/apub", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(wfd, 0);
  std::atomic<uint64_t> acked{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> read_errors{0};
  std::thread reader([this, &acked, &done, &read_errors] {
    int fd = fs_->Open("/apub", vfs::kRdOnly);
    if (fd < 0) {
      read_errors.fetch_add(1);
      return;
    }
    std::vector<uint8_t> buf(kRecord);
    uint64_t spins = 0;
    while (!done.load(std::memory_order_acquire) && spins < 30000) {
      ++spins;
      uint64_t limit = acked.load(std::memory_order_acquire);
      if (limit == 0) {
        continue;
      }
      uint64_t rec = (spins * 48271) % limit;
      if (fs_->Pread(fd, buf.data(), kRecord, rec * kRecord) !=
          static_cast<ssize_t>(kRecord)) {
        read_errors.fetch_add(1);
        continue;
      }
      uint8_t expect = static_cast<uint8_t>(0xB0 ^ rec);
      // A record is written whole before the acknowledging fsync: whether it is
      // served staged or published, every byte matches — a torn window would mix
      // pre-publish zeroes with post-publish bytes.
      for (uint64_t b = 0; b < kRecord; b += 397) {
        if (buf[b] != expect) {
          read_errors.fetch_add(1);
          break;
        }
      }
    }
    fs_->Close(fd);
  });
  std::vector<uint8_t> rec(kRecord);
  for (uint64_t r = 0; r < kRecords; ++r) {
    std::memset(rec.data(), 0xB0 ^ static_cast<int>(r), kRecord);
    ASSERT_EQ(fs_->Pwrite(wfd, rec.data(), kRecord, r * kRecord),
              static_cast<ssize_t>(kRecord));
    if (r % 8 == 7) {
      ASSERT_EQ(fs_->Fsync(wfd), 0);
      acked.store(r + 1, std::memory_order_release);
    }
  }
  ASSERT_EQ(fs_->Fsync(wfd), 0);
  acked.store(kRecords, std::memory_order_release);
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(fs_->StagedBytes(), 0u);
  EXPECT_GT(fs_->Relinks(), 0u);
  if (async()) {
    EXPECT_GT(fs_->AsyncPublishes(), 0u);
  }
  std::vector<uint8_t> back(kRecord);
  for (uint64_t r = 0; r < kRecords; ++r) {
    ASSERT_EQ(fs_->Pread(wfd, back.data(), kRecord, r * kRecord),
              static_cast<ssize_t>(kRecord));
    uint8_t expect = static_cast<uint8_t>(0xB0 ^ r);
    for (uint64_t b = 0; b < kRecord; ++b) {
      ASSERT_EQ(back[b], expect) << "record " << r << " byte " << b;
    }
  }
  fs_->Close(wfd);
}

// --- Log-full checkpoint with async relink --------------------------------------------

TEST(AsyncRelinkCheckpoint, LogFullCheckpointDoesNotDeadlockAndKeepsData) {
  // A tiny op log forces the log-full checkpoint repeatedly while async relink is
  // appending intent and done records. Regression: a publish's kRelinkDone append
  // against an already-full log used to re-enter CheckpointForFull from inside the
  // checkpoint's own sweep and deadlock on the checkpoint mutex.
  for (Mode mode : {Mode::kPosix, Mode::kStrict}) {
    sim::Context ctx;
    pmem::Device dev(&ctx, 2 * common::kGiB);
    ext4sim::Ext4Dax kfs(&dev);
    Options o = ConcurrentOptions(mode, /*async_publish=*/true);
    o.replenish_thread = false;
    o.oplog_bytes = 64 * 1024;  // 1024 entries: checkpoints early and often.
    SplitFs fs(&kfs, o);
    // A second file that stays dirty (staged, never fsync'd): the checkpoint's
    // try-lock sweep — which runs under the checkpoint mutex, where a recursive
    // re-entry deadlocks — must publish it, exercising the sweep-side done-record
    // suppression.
    std::vector<uint8_t> rec(512);
    int afd = fs.Open("/ckpt-dirty", vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(afd, 0);
    int fd = fs.Open("/ckpt", vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(fd, 0);
    uint64_t off = 0;
    uint64_t dirty_off = 0;
    for (int i = 0; i < 2000; ++i) {
      std::memset(rec.data(), 0x30 + (i % 40), rec.size());
      ASSERT_EQ(fs.Pwrite(fd, rec.data(), rec.size(), off),
                static_cast<ssize_t>(rec.size()));
      off += rec.size();
      if (i % 16 == 0) {
        // Re-dirty the sweep target (the previous checkpoint published it).
        std::memset(rec.data(), 0x7A, rec.size());
        ASSERT_EQ(fs.Pwrite(afd, rec.data(), rec.size(), dirty_off),
                  static_cast<ssize_t>(rec.size()));
        dirty_off += rec.size();
      }
      if (i % 4 == 3) {
        ASSERT_EQ(fs.Fsync(fd), 0);
      }
    }
    ASSERT_EQ(fs.Fsync(fd), 0);
    EXPECT_GT(fs.Checkpoints(), 0u) << ModeName(mode);
    for (uint64_t r = 0; r < 2000; ++r) {
      std::vector<uint8_t> back(512);
      ASSERT_EQ(fs.Pread(fd, back.data(), back.size(), r * 512),
                static_cast<ssize_t>(back.size()));
      ASSERT_EQ(back[0], 0x30 + (r % 40)) << "record " << r;
      ASSERT_EQ(back[511], 0x30 + (r % 40)) << "record " << r;
    }
    ASSERT_EQ(fs.Close(fd), 0);
    ASSERT_EQ(fs.Close(afd), 0);
  }
}

// --- Rename vs. first open of the destination (PR 3 leftover race) --------------------

TEST_P(ConcurrencyTest, RenameVsFirstOpenKeepsStagedState) {
  // A file with staged-but-unpublished appends is renamed while another thread
  // performs the first open of the destination path. Before the fix, an open in
  // the window between the kernel rename and the path-cache update resolved the
  // *moved* inode through the kernel and installed a second FileState that
  // overwrote the cached one — stranding its staged set and dirty-file count: the
  // original descriptor then reported the kernel size instead of the staged size.
  // Rename now holds both path shards across the kernel call, so the opener
  // serializes behind it and reopens the moved state from the cache.
  //
  // The interleaving is forced through the test hook — single-core CI cannot land
  // preemption inside a sub-microsecond window: the hook parks the rename in the
  // historical window, starts the opener, and gives it a generous grace period.
  // On the fixed code the opener blocks on the destination's path shard until the
  // rename finishes; on the unfixed code it completed inside the window and the
  // staged state was lost.
  constexpr uint64_t kBytes = 4096;
  std::vector<uint8_t> payload(kBytes, 0x5C);
  for (int i = 0; i < 3; ++i) {
    std::string src = "/rnrace-src-" + std::to_string(i);
    std::string dst = "/rnrace-dst-" + std::to_string(i);
    int sfd = fs_->Open(src, vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(sfd, 0);
    ASSERT_EQ(fs_->Pwrite(sfd, payload.data(), kBytes, 0),
              static_cast<ssize_t>(kBytes));  // Staged append, not yet published.
    std::thread opener;
    std::atomic<bool> open_done{false};
    fs_->set_rename_race_hook_for_test([this, &dst, &opener, &open_done] {
      opener = std::thread([this, &dst, &open_done] {
        int fd = fs_->Open(dst, vfs::kRdWr | vfs::kCreate);
        if (fd >= 0) {
          fs_->Close(fd);
        }
        open_done.store(true, std::memory_order_release);
      });
      for (int spins = 0; spins < 100 && !open_done.load(std::memory_order_acquire);
           ++spins) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    ASSERT_EQ(fs_->Rename(src, dst), 0);
    fs_->set_rename_race_hook_for_test(nullptr);
    opener.join();
    EXPECT_TRUE(open_done.load());
    // The moved state must still carry the staged append.
    vfs::StatBuf st;
    ASSERT_EQ(fs_->Fstat(sfd, &st), 0);
    ASSERT_EQ(st.size, kBytes) << "staged state stranded by rename/open race, iter "
                               << i;
    ASSERT_EQ(fs_->Fsync(sfd), 0);
    std::vector<uint8_t> back(kBytes);
    ASSERT_EQ(fs_->Pread(sfd, back.data(), kBytes, 0), static_cast<ssize_t>(kBytes));
    EXPECT_EQ(back, payload);
    ASSERT_EQ(fs_->Close(sfd), 0);
    ASSERT_EQ(fs_->Unlink(dst), 0);
  }
}

// --- One background executor ---------------------------------------------------------

TEST(BackgroundExecutor, SingleTenantServicesAddOneOsThreadAndJoinIt) {
  // Without Services wiring, the §3.5 replenisher runs on a 1-worker pool the
  // instance owns: exactly one OS thread while it lives, none left after it is
  // destroyed. Async relink publishes on the caller and spawns nothing.
  if (testutil::OsThreadCount() < 0) {
    GTEST_SKIP() << "/proc/self/task is not readable here";
  }
  testutil::PrimeThreadRuntime();
  sim::Context ctx;
  pmem::Device dev(&ctx, 256 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  const int baseline = testutil::SettledOsThreadCount();
  {
    SplitFs fs(&kfs, ConcurrentOptions(Mode::kPosix, /*async_publish=*/true));
    EXPECT_EQ(testutil::OsThreadCount(), baseline + 1);
    int fd = fs.Open("/threads", vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(fd, 0);
    // Enough appends to consume staging files (replenish passes) and fsyncs to
    // publish them.
    std::vector<uint8_t> chunk(1 * kMiB, 0x6B);
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(fs.Write(fd, chunk.data(), chunk.size()),
                static_cast<ssize_t>(chunk.size()));
      ASSERT_EQ(fs.Fsync(fd), 0);
    }
    EXPECT_EQ(fs.AsyncPublishes(), 20u);
    // Replenish passes have no completion fence; poll for the first one.
    for (int i = 0; i < 2000 && fs.staging_pool().BackgroundCreations() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT(fs.staging_pool().BackgroundCreations(), 0u);
    EXPECT_EQ(testutil::OsThreadCount(), baseline + 1);
    ASSERT_EQ(fs.Close(fd), 0);
  }
  EXPECT_EQ(testutil::OsThreadCountSettlingTo(baseline), baseline);
}

// --- fd table stress ------------------------------------------------------------------

TEST_P(ConcurrencyTest, FdTableOpenCloseDupStress) {
  // Threads churn open/dup/lseek/write/read/close on their own files concurrently.
  // dup must share exactly one cursor with its origin; close must invalidate exactly
  // one descriptor; no descriptor may ever observe another file's bytes.
  constexpr int kIters = 120;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t] {
      std::string path = "/fdstress-" + std::to_string(t);
      std::vector<uint8_t> tag(64, static_cast<uint8_t>(0xA0 + t));
      std::vector<uint8_t> back(64);
      for (int i = 0; i < kIters; ++i) {
        int fd = fs_->Open(path, vfs::kRdWr | vfs::kCreate);
        ASSERT_GE(fd, 0);
        int dup_fd = fs_->Dup(fd);
        ASSERT_GE(dup_fd, 0);
        ASSERT_NE(dup_fd, fd);
        // Write through the original; the dup's shared cursor must have advanced.
        ASSERT_EQ(fs_->Lseek(fd, 0, vfs::Whence::kSet), 0);
        ASSERT_EQ(fs_->Write(fd, tag.data(), tag.size()),
                  static_cast<ssize_t>(tag.size()));
        ASSERT_EQ(fs_->Lseek(dup_fd, 0, vfs::Whence::kCur),
                  static_cast<int64_t>(tag.size()));
        // Read back through the dup from offset 0.
        ASSERT_EQ(fs_->Pread(dup_fd, back.data(), back.size(), 0),
                  static_cast<ssize_t>(back.size()));
        ASSERT_EQ(back, tag) << "descriptor cross-talk";
        // Close one: the other must stay usable; double-close must fail cleanly.
        ASSERT_EQ(fs_->Close(fd), 0);
        ASSERT_EQ(fs_->Pread(dup_fd, back.data(), back.size(), 0),
                  static_cast<ssize_t>(back.size()));
        ASSERT_EQ(fs_->Close(dup_fd), 0);
        ASSERT_EQ(fs_->Close(dup_fd), -EBADF);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
}

// --- Disjoint-offset writers on one file ----------------------------------------------

TEST_P(ConcurrencyTest, DisjointOffsetWritersOneFile) {
  // Pre-size the file, then let N threads overwrite their own disjoint regions in
  // parallel; in POSIX/sync modes these take only their byte range. Verify every
  // region afterward.
  constexpr uint64_t kRegion = 256 * 1024;
  int fd = fs_->Open("/regions", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  {
    std::vector<uint8_t> zero(kRegion, 0);
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(fs_->Pwrite(fd, zero.data(), kRegion, t * kRegion),
                static_cast<ssize_t>(kRegion));
    }
    ASSERT_EQ(fs_->Fsync(fd), 0);
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, fd, t] {
      std::vector<uint8_t> buf(4096);
      for (uint64_t off = 0; off < kRegion; off += buf.size()) {
        std::memset(buf.data(), 0x10 + t, buf.size());
        ASSERT_EQ(fs_->Pwrite(fd, buf.data(), buf.size(), t * kRegion + off),
                  static_cast<ssize_t>(buf.size()));
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  std::vector<uint8_t> back(kRegion);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(fs_->Pread(fd, back.data(), kRegion, t * kRegion),
              static_cast<ssize_t>(kRegion));
    for (uint64_t b = 0; b < kRegion; ++b) {
      ASSERT_EQ(back[b], 0x10 + t) << "offset " << t * kRegion + b;
    }
  }
  fs_->Close(fd);
}

// --- Open race ------------------------------------------------------------------------

TEST_P(ConcurrencyTest, ConcurrentOpensOfOnePathShareOneState) {
  std::vector<std::thread> workers;
  std::vector<int> fds(kThreads, -1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, &fds] {
      fds[t] = fs_->Open("/shared-create", vfs::kRdWr | vfs::kCreate);
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_GE(fds[t], 0);
  }
  // One writer's appends are visible through every descriptor (one cached state).
  std::vector<uint8_t> data(1000, 0x77);
  ASSERT_EQ(fs_->Pwrite(fds[0], data.data(), data.size(), 0),
            static_cast<ssize_t>(data.size()));
  for (int t = 0; t < kThreads; ++t) {
    vfs::StatBuf st;
    ASSERT_EQ(fs_->Fstat(fds[t], &st), 0);
    EXPECT_EQ(st.size, data.size());
    fs_->Close(fds[t]);
  }
}

// --- K-Split kernel metadata stress (per-inode locking + sharded allocator) -----------

class KernelMetadataStress : public ::testing::Test {
 protected:
  KernelMetadataStress() : dev_(&ctx_, 512 * common::kMiB), kfs_(&dev_) {}

  void ExpectFsckClean() {
    kfs_.CommitJournal(/*fsync_barrier=*/false);
    ext4sim::FsckReport r = ext4sim::RunFsck(&kfs_);
    for (const auto& p : r.problems) {
      ADD_FAILURE() << p;
    }
    EXPECT_TRUE(r.clean);
  }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
};

TEST_F(KernelMetadataStress, ParallelNamespaceChurnKeepsFsckClean) {
  // N threads churn create/write/rename/unlink plus mkdir/rmdir across a set of
  // shared directories — the workload the former big kernel lock serialized. Each
  // thread uses its own leaf names, so every operation must succeed; afterwards
  // fsck verifies nlink, reachability, and allocator accounting.
  constexpr int kDirs = 4;
  for (int d = 0; d < kDirs; ++d) {
    ASSERT_EQ(kfs_.Mkdir("/d" + std::to_string(d)), 0);
  }
  constexpr int kIters = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t] {
      std::vector<uint8_t> block(kBlockSize, static_cast<uint8_t>(0xA0 + t));
      for (int i = 0; i < kIters; ++i) {
        std::string d1 = "/d" + std::to_string((t + i) % kDirs);
        std::string d2 = "/d" + std::to_string((t + i + 1) % kDirs);
        std::string name = "/f" + std::to_string(t);
        int fd = kfs_.Open(d1 + name, vfs::kRdWr | vfs::kCreate);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(kfs_.Pwrite(fd, block.data(), block.size(), 0),
                  static_cast<ssize_t>(block.size()));
        ASSERT_EQ(kfs_.Close(fd), 0);
        ASSERT_EQ(kfs_.Rename(d1 + name, d2 + name), 0);
        // Subdirectory churn in the shared directories (nlink accounting under
        // concurrency), including a cross-directory directory move.
        std::string sub = d2 + "/sub" + std::to_string(t);
        ASSERT_EQ(kfs_.Mkdir(sub), 0);
        std::string sub2 = d1 + "/sub" + std::to_string(t);
        ASSERT_EQ(kfs_.Rename(sub, sub2), 0);
        ASSERT_EQ(kfs_.Rmdir(sub2), 0);
        if (i % 3 == 0) {
          ASSERT_EQ(kfs_.Unlink(d2 + name), 0);
        } else {
          ASSERT_EQ(kfs_.Rename(d2 + name, d1 + name), 0);
          ASSERT_EQ(kfs_.Unlink(d1 + name), 0);
        }
        if (i % 8 == 0) {
          kfs_.CommitJournal(/*fsync_barrier=*/false);
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  ExpectFsckClean();
}

TEST_F(KernelMetadataStress, ConcurrentPreadsAndOverwritesOnOneInode) {
  // Per-inode reader/writer lock: readers share the inode and update the atomic
  // sequential-read hint concurrently; a writer invalidating it must not race them.
  // Block contents are deterministic per block index, so readers always verify.
  constexpr uint64_t kBlocks = 16;
  int wfd = kfs_.Open("/hot", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(wfd, 0);
  std::vector<uint8_t> block(kBlockSize);
  for (uint64_t b = 0; b < kBlocks; ++b) {
    std::memset(block.data(), static_cast<int>(b), kBlockSize);
    ASSERT_EQ(kfs_.Pwrite(wfd, block.data(), kBlockSize, b * kBlockSize),
              static_cast<ssize_t>(kBlockSize));
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads - 1; ++r) {
    readers.emplace_back([this, r, &done] {
      int fd = kfs_.Open("/hot", vfs::kRdOnly);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> buf(kBlockSize);
      uint64_t spins = 0;
      while (!done.load(std::memory_order_acquire) && spins < 20000) {
        uint64_t b = (++spins * (r + 3)) % kBlocks;
        ASSERT_EQ(kfs_.Pread(fd, buf.data(), kBlockSize, b * kBlockSize),
                  static_cast<ssize_t>(kBlockSize));
        ASSERT_EQ(buf[0], static_cast<uint8_t>(b));
        ASSERT_EQ(buf[kBlockSize - 1], static_cast<uint8_t>(b));
      }
      kfs_.Close(fd);
    });
  }
  for (int i = 0; i < 400; ++i) {
    uint64_t b = (i * 7) % kBlocks;
    std::memset(block.data(), static_cast<int>(b), kBlockSize);  // Same bytes back.
    ASSERT_EQ(kfs_.Pwrite(wfd, block.data(), kBlockSize, b * kBlockSize),
              static_cast<ssize_t>(kBlockSize));
  }
  done.store(true, std::memory_order_release);
  for (auto& r : readers) {
    r.join();
  }
  kfs_.Close(wfd);
  ExpectFsckClean();
}

TEST_F(KernelMetadataStress, RenameOverOpenDestinationChurn) {
  // The satellite-bugfix scenario, multithreaded: renames displace open files while
  // other descriptors reopen victims by ino and commits race the deferred frees.
  // Nothing may double-free (fsck's allocator accounting catches it).
  ASSERT_EQ(kfs_.Mkdir("/r"), 0);
  constexpr int kIters = 40;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t] {
      std::vector<uint8_t> block(kBlockSize, static_cast<uint8_t>(t));
      std::string a = "/r/a" + std::to_string(t);
      std::string b = "/r/b" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        int afd = kfs_.Open(a, vfs::kRdWr | vfs::kCreate);
        ASSERT_GE(afd, 0);
        ASSERT_EQ(kfs_.Pwrite(afd, block.data(), block.size(), 0),
                  static_cast<ssize_t>(block.size()));
        ASSERT_EQ(kfs_.Close(afd), 0);
        int bfd = kfs_.Open(b, vfs::kRdWr | vfs::kCreate);
        ASSERT_GE(bfd, 0);
        ASSERT_EQ(kfs_.Pwrite(bfd, block.data(), block.size(), 0),
                  static_cast<ssize_t>(block.size()));
        vfs::Ino victim = kfs_.InoOf(bfd);
        ASSERT_EQ(kfs_.Rename(a, b), 0);  // Displaces the open destination.
        // The orphan stays readable through the surviving descriptor and through
        // an OpenByIno reopen, however commits interleave.
        std::vector<uint8_t> back(kBlockSize);
        ASSERT_EQ(kfs_.Pread(bfd, back.data(), back.size(), 0),
                  static_cast<ssize_t>(back.size()));
        int vfd = kfs_.OpenByIno(victim, vfs::kRdWr);
        if (vfd >= 0) {
          ASSERT_EQ(kfs_.Close(vfd), 0);
        }
        ASSERT_EQ(kfs_.Close(bfd), 0);
        kfs_.CommitJournal(/*fsync_barrier=*/false);
        ASSERT_EQ(kfs_.Unlink(b), 0);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  ExpectFsckClean();
}

// --- jbd2 commit pipeline -------------------------------------------------------------

TEST_F(KernelMetadataStress, MetadataHandlesProgressDuringCommitWriteout) {
  // The tentpole property of the pipelined journal: while one thread's fsync
  // commit writes out transaction T_n, metadata operations on other threads join
  // T_{n+1} and complete. The mid-writeout hook parks the committer after the seal
  // (barrier released, writeout not started) until the main thread has finished a
  // create and a rename. On the pre-pipeline journal those operations would block
  // on the exclusively-held barrier until the commit finished — with the committer
  // waiting on them in turn, the bounded wait below would expire and fail the test
  // instead of deadlocking.
  ASSERT_EQ(kfs_.Mkdir("/pipe"), 0);
  int fd = kfs_.Open("/pipe/f0", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> block(kBlockSize, 0x42);
  ASSERT_EQ(kfs_.Pwrite(fd, block.data(), block.size(), 0),
            static_cast<ssize_t>(block.size()));

  std::atomic<bool> in_writeout{false};
  std::atomic<bool> ops_done{false};
  ext4sim::Journal* journal = kfs_.journal_for_test();
  journal->SetMidWriteoutHookForTest([&in_writeout, &ops_done] {
    in_writeout.store(true, std::memory_order_release);
    for (int i = 0; i < 20000 && !ops_done.load(std::memory_order_acquire); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(ops_done.load(std::memory_order_acquire))
        << "metadata handles made no progress while the commit writeout was held "
           "open — the journal is serializing handles behind the commit again";
  });
  std::thread committer([this, fd] { EXPECT_EQ(kfs_.Fsync(fd), 0); });
  while (!in_writeout.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // T_n is sealed but not durable; these handles join T_{n+1} and must not block.
  EXPECT_EQ(journal->CommittedTid(), 0u);
  int fd2 = kfs_.Open("/pipe/f1", vfs::kRdWr | vfs::kCreate);
  EXPECT_GE(fd2, 0);
  EXPECT_EQ(kfs_.Rename("/pipe/f1", "/pipe/f2"), 0);
  ops_done.store(true, std::memory_order_release);
  committer.join();
  journal->SetMidWriteoutHookForTest(nullptr);
  EXPECT_GE(journal->CommittedTid(), 1u);  // fsync's tid completed (log_wait_commit).
  // T_{n+1}'s mutations are intact and commit cleanly on their own.
  ASSERT_EQ(kfs_.Close(fd2), 0);
  kfs_.CommitJournal(/*fsync_barrier=*/false);
  vfs::StatBuf sb;
  EXPECT_EQ(kfs_.Stat("/pipe/f2", &sb), 0);
  ExpectFsckClean();
}

TEST_F(KernelMetadataStress, NamespaceChurnAgainstFsyncStorm) {
  // Parallel creates/renames racing a continuous fsync storm: every storm commit
  // seals whatever the churn threads dirtied and writes it out while they keep
  // going. Exercises the seal window (handle try-lock slow path), log_wait_commit
  // waiters piling onto in-flight tids, and deferred frees racing live handles —
  // the TSan pass runs this via the `concurrency` label.
  constexpr int kChurn = 3;
  constexpr int kIters = 60;
  ASSERT_EQ(kfs_.Mkdir("/storm"), 0);
  int storm_fd = kfs_.Open("/storm/sync-anchor", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(storm_fd, 0);
  std::atomic<bool> stop{false};
  std::thread storm([this, storm_fd, &stop] {
    uint8_t byte = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Keep the journal dirty so most fsyncs take a real commit, not the clean
      // fast path.
      ASSERT_EQ(kfs_.Pwrite(storm_fd, &byte, 1, byte), 1);
      ++byte;
      ASSERT_EQ(kfs_.Fsync(storm_fd), 0);
    }
  });
  std::vector<std::thread> churn;
  for (int t = 0; t < kChurn; ++t) {
    churn.emplace_back([this, t] {
      std::vector<uint8_t> block(kBlockSize, static_cast<uint8_t>(0x30 + t));
      std::string a = "/storm/a" + std::to_string(t);
      std::string b = "/storm/b" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        int fd = kfs_.Open(a, vfs::kRdWr | vfs::kCreate);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(kfs_.Pwrite(fd, block.data(), block.size(), 0),
                  static_cast<ssize_t>(block.size()));
        ASSERT_EQ(kfs_.Close(fd), 0);
        ASSERT_EQ(kfs_.Rename(a, b), 0);
        ASSERT_EQ(kfs_.Unlink(b), 0);
        std::string sub = "/storm/d" + std::to_string(t);
        ASSERT_EQ(kfs_.Mkdir(sub), 0);
        ASSERT_EQ(kfs_.Rmdir(sub), 0);
      }
    });
  }
  for (auto& w : churn) {
    w.join();
  }
  stop.store(true, std::memory_order_release);
  storm.join();
  ASSERT_EQ(kfs_.Close(storm_fd), 0);
  ExpectFsckClean();
}

// --- Range-granular inode locks (shared hot file) -------------------------------------
//
// The tentpole group: size-preserving writes to disjoint ranges of ONE file must run
// in parallel in every mode, stay correct when whole-file restructurings (truncate,
// Fallocate, publish) race them, and — in strict mode — survive the log-full
// checkpoint's epoch'd quiesce with per-range entries in flight.

TEST(RangeLockGroup, SharedHotFileDisjointWritersScaleInAllModes) {
  // The bench driver doubles as the correctness harness: it preallocates one file,
  // writes disjoint interleaved strides from every thread, publishes once, and
  // verifies every slot. Virtual time is deterministic, so the scaling assertion is
  // exact: with per-range locks the N-thread elapsed stays near the 1-thread
  // elapsed (equal per-lane work); the pre-PR whole-inode lock made it ~N×.
  constexpr uint64_t kPerThread = 512 * 1024;
  for (Mode mode : {Mode::kPosix, Mode::kSync, Mode::kStrict}) {
    auto run = [mode](int threads) {
      sim::Context ctx;
      pmem::Device dev(&ctx, 2 * common::kGiB);
      ext4sim::Ext4Dax kfs(&dev);
      SplitFs fs(&kfs, ConcurrentOptions(mode, /*async_publish=*/false));
      return wl::RunParallelSharedHotFile(&fs, &ctx.clock, threads, "/hot",
                                          kPerThread, /*op_bytes=*/4096);
    };
    wl::ParallelResult solo = run(1);
    EXPECT_EQ(solo.errors, 0u) << ModeName(mode);
    wl::ParallelResult par = run(kThreads);
    EXPECT_EQ(par.errors, 0u) << ModeName(mode);
    EXPECT_EQ(par.ops, static_cast<uint64_t>(kThreads) * (kPerThread / 4096));
    EXPECT_LT(par.elapsed_ns, solo.elapsed_ns * kThreads / 2)
        << ModeName(mode) << ": disjoint range writers serialized on the inode";
  }
}

TEST(RangeLockGroup, RangeWritersRacingTruncateAndFallocate) {
  // Writers hammer their own disjoint slots while the main thread shrinks the file,
  // re-extends it with Fallocate, and publishes with fsync — the whole-file
  // exclusive operations the range writers must coexist with. Every write call must
  // fully succeed (a racing shrink re-classifies it, never fails it), and after the
  // dust settles each block is uniform: zeros (dropped by a truncate, re-extended as
  // a hole) or one owner's round byte — a mixed block means a torn or resurrected
  // write.
  constexpr uint64_t kSlot = 256 * 1024;
  constexpr int kRounds = 12;
  auto fill_of = [](int t, int round) {
    return static_cast<uint8_t>(0x40 ^ (t * 37) ^ (round * 11));
  };
  for (Mode mode : {Mode::kPosix, Mode::kSync, Mode::kStrict}) {
    sim::Context ctx;
    pmem::Device dev(&ctx, 2 * common::kGiB);
    ext4sim::Ext4Dax kfs(&dev);
    SplitFs fs(&kfs, ConcurrentOptions(mode, /*async_publish=*/false));
    const uint64_t file_bytes = static_cast<uint64_t>(kThreads) * kSlot;
    int fd = fs.Open("/churn-hot", vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fs.Fallocate(fd, 0, file_bytes, /*keep_size=*/false), 0);
    ASSERT_EQ(fs.Fsync(fd), 0);

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&fs, fd, t, &fill_of] {
        std::vector<uint8_t> buf(4096);
        for (int round = 0; round < kRounds; ++round) {
          std::memset(buf.data(), fill_of(t, round), buf.size());
          for (uint64_t off = 0; off < kSlot; off += buf.size()) {
            ASSERT_EQ(fs.Pwrite(fd, buf.data(), buf.size(), t * kSlot + off),
                      static_cast<ssize_t>(buf.size()));
          }
        }
      });
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_EQ(fs.Ftruncate(fd, file_bytes / 2), 0);
      ASSERT_EQ(fs.Fallocate(fd, 0, file_bytes, /*keep_size=*/false), 0);
      if (i % 4 == 3) {
        ASSERT_EQ(fs.Fsync(fd), 0);  // Publish (relink) racing the range writers.
      }
    }
    for (auto& w : writers) {
      w.join();
    }
    ASSERT_EQ(fs.Fsync(fd), 0);
    vfs::StatBuf st;
    ASSERT_EQ(fs.Fstat(fd, &st), 0);
    ASSERT_EQ(st.size, file_bytes);
    std::vector<uint8_t> back(4096);
    for (int t = 0; t < kThreads; ++t) {
      std::vector<bool> valid(256, false);
      for (int round = 0; round < kRounds; ++round) {
        valid[fill_of(t, round)] = true;
      }
      valid[0] = true;  // Truncated away and re-extended as a hole.
      for (uint64_t off = 0; off < kSlot; off += back.size()) {
        ASSERT_EQ(fs.Pread(fd, back.data(), back.size(), t * kSlot + off),
                  static_cast<ssize_t>(back.size()));
        EXPECT_TRUE(valid[back[0]])
            << ModeName(mode) << ": unknown byte at " << t * kSlot + off;
        for (uint64_t b = 1; b < back.size(); b += 127) {
          ASSERT_EQ(back[b], back[0])
              << ModeName(mode) << ": torn block at " << t * kSlot + off + b;
        }
      }
    }
    fs.Close(fd);
  }
}

TEST(RangeLockGroup, StrictWritersRaceLogFullCheckpointEpoch) {
  // Strict mode with a tiny op log: the per-range entries of four concurrent
  // writers fill it repeatedly, so the log-full checkpoint's epoch'd quiesce (close
  // the gate, drain in-flight range holders, sweep, reopen) runs many times with
  // writers mid-flight — the protocol the old code handled by seizing every file.
  // Every write must succeed, checkpoints must actually happen, and each slot must
  // end with its final-round bytes (a write backed out for the checkpoint and
  // replayed must not duplicate or lose its entry).
  constexpr uint64_t kSlot = 64 * 1024;
  constexpr int kRounds = 24;
  sim::Context ctx;
  pmem::Device dev(&ctx, 2 * common::kGiB);
  ext4sim::Ext4Dax kfs(&dev);
  Options o = ConcurrentOptions(Mode::kStrict, /*async_publish=*/false);
  // 64 slots. Re-writing an already-staged range updates the run in place (no new
  // entry), so writers also publish periodically below: each publish empties the
  // staged map and the next round re-stages — a steady stream of fresh per-range
  // entries that must overflow this log many times over.
  o.oplog_bytes = 4 * 1024;
  SplitFs fs(&kfs, o);
  const uint64_t file_bytes = static_cast<uint64_t>(kThreads) * kSlot;
  int fd = fs.Open("/epoch-hot", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(fs.Fallocate(fd, 0, file_bytes, /*keep_size=*/false), 0);
  ASSERT_EQ(fs.Fsync(fd), 0);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&fs, fd, t] {
      std::vector<uint8_t> buf(4096);
      for (int round = 0; round < kRounds; ++round) {
        for (uint64_t off = 0; off < kSlot; off += buf.size()) {
          std::memset(buf.data(), 0x60 ^ (t * 29) ^ round, buf.size());
          ASSERT_EQ(fs.Pwrite(fd, buf.data(), buf.size(), t * kSlot + off),
                    static_cast<ssize_t>(buf.size()));
        }
        if (round % kThreads == t) {
          // Publish so the next round stages fresh runs (and fresh log entries)
          // instead of updating the staged bytes in place; the whole-file publish
          // also races the other threads' range writes.
          ASSERT_EQ(fs.Fsync(fd), 0);
        }
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_GT(fs.Checkpoints(), 0u) << "op log never filled; the gate went untested";
  ASSERT_EQ(fs.Fsync(fd), 0);
  std::vector<uint8_t> back(4096);
  for (int t = 0; t < kThreads; ++t) {
    uint8_t expect = static_cast<uint8_t>(0x60 ^ (t * 29) ^ (kRounds - 1));
    for (uint64_t off = 0; off < kSlot; off += back.size()) {
      ASSERT_EQ(fs.Pread(fd, back.data(), back.size(), t * kSlot + off),
                static_cast<ssize_t>(back.size()));
      for (uint64_t b = 0; b < back.size(); b += 97) {
        ASSERT_EQ(back[b], expect) << "slot " << t << " offset " << off + b;
      }
    }
  }
  fs.Close(fd);
}

TEST_F(KernelMetadataStress, DisjointRangePwritesOneInodeSameAndCrossBlock) {
  // K-Split's per-inode byte-range lock, exercised directly: writers share one
  // inode with disjoint BYTE ranges that collide on the same 4 KB block (the lock
  // acquires block-aligned, so same-block writers serialize and the hole-check →
  // insert sequence stays atomic per block) and with block-spanning ranges. No
  // update may be lost, and fsck must stay clean.
  constexpr uint64_t kStrip = 64;  // 64 threads' strips would fit one block; we use 4.
  constexpr uint64_t kSpan = 2 * kBlockSize;
  int fd = kfs_.Open("/krange", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  const uint64_t file_bytes = (kThreads + 1) * kSpan;
  {
    std::vector<uint8_t> zero(file_bytes, 0);
    ASSERT_EQ(kfs_.Pwrite(fd, zero.data(), file_bytes, 0),
              static_cast<ssize_t>(file_bytes));
  }
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, fd, t] {
      std::vector<uint8_t> strip(kStrip, static_cast<uint8_t>(0x90 + t));
      std::vector<uint8_t> span(kSpan, static_cast<uint8_t>(0x20 + t));
      for (int i = 0; i < 200; ++i) {
        // Same-block strips: all four land in block 0, byte-disjoint.
        ASSERT_EQ(kfs_.Pwrite(fd, strip.data(), kStrip, t * kStrip),
                  static_cast<ssize_t>(kStrip));
        // Cross-block spans: each thread owns two whole blocks further out.
        ASSERT_EQ(kfs_.Pwrite(fd, span.data(), kSpan, (t + 1) * kSpan),
                  static_cast<ssize_t>(kSpan));
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  std::vector<uint8_t> back(file_bytes);
  ASSERT_EQ(kfs_.Pread(fd, back.data(), file_bytes, 0),
            static_cast<ssize_t>(file_bytes));
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t b = 0; b < kStrip; ++b) {
      ASSERT_EQ(back[t * kStrip + b], 0x90 + t) << "lost same-block strip " << t;
    }
    for (uint64_t b = 0; b < kSpan; ++b) {
      ASSERT_EQ(back[(t + 1) * kSpan + b], 0x20 + t) << "lost span " << t;
    }
  }
  kfs_.Close(fd);
  ExpectFsckClean();
}

// --- Driver integration + counters ----------------------------------------------------

TEST_P(ConcurrencyTest, ParallelAppendDriverRunsCleanAndCountsAdd) {
  wl::ParallelResult r = wl::RunParallelAppend(fs_.get(), &ctx_.clock, kThreads,
                                               "/drv", /*bytes_per_thread=*/2 * kMiB,
                                               /*op_bytes=*/4096, /*fsync_every=*/64);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.ops, static_cast<uint64_t>(kThreads) * (2 * kMiB / 4096));
  EXPECT_GT(r.elapsed_ns, 0u);
  EXPECT_GT(fs_->Relinks(), 0u);  // Publishes happened, counted without tearing.
  if (mode() == Mode::kStrict || async()) {
    EXPECT_GT(fs_->OpLogEntries(), 0u);  // Strict ops, or async relink intents.
  }
}

}  // namespace
