// Unit tests for the optimized operation log (§3.3): 64 B checksummed entries, DRAM
// tail, torn-entry detection, idempotent scan order.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/oplog.h"

namespace {

using common::kMiB;
using splitfs::LogEntry;
using splitfs::LogOp;
using splitfs::OpLog;

class OpLogTest : public ::testing::Test {
 protected:
  OpLogTest()
      : dev_(&ctx_, 128 * kMiB),
        kfs_(&dev_),
        log_(&kfs_, "/oplog", 64 * 1024) {}  // 1024 slots.

  LogEntry MakeEntry(uint64_t n) {
    LogEntry e;
    e.op = LogOp::kAppend;
    e.target_ino = 100 + n;
    e.file_off = n * 4096;
    e.staging_ino = 7;
    e.staging_off = n * 4096;
    e.len = 4096;
    return e;
  }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
  OpLog log_;
};

TEST_F(OpLogTest, EntryIsExactlyOneCacheLine) {
  static_assert(sizeof(LogEntry) == 64);
}

TEST_F(OpLogTest, SealAndValidate) {
  LogEntry e = MakeEntry(1);
  e.seq = 5;
  e.Seal();
  EXPECT_TRUE(e.ValidSealed());
  e.len = 8192;  // Tamper after sealing.
  EXPECT_FALSE(e.ValidSealed());
}

TEST_F(OpLogTest, ZeroEntryIsInvalid) {
  LogEntry zero;
  EXPECT_FALSE(zero.ValidSealed());
}

TEST_F(OpLogTest, AsyncRelinkOpsSurviveRecoveryScan) {
  // Regression: the scan's structural validation capped valid op codes at
  // kRenameTo, so the async-relink records (intent / done / intent-overwrite)
  // sealed fine but were silently dropped at recovery — losing exactly the
  // entries that make an acknowledged-but-unpublished fsync recoverable.
  for (LogOp op : {LogOp::kRelinkIntent, LogOp::kRelinkDone,
                   LogOp::kRelinkIntentOverwrite}) {
    LogEntry e = MakeEntry(static_cast<uint64_t>(op));
    e.op = op;
    ASSERT_TRUE(log_.Append(e));
  }
  auto entries = log_.ScanForRecovery();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].op, LogOp::kRelinkIntent);
  EXPECT_EQ(entries[1].op, LogOp::kRelinkDone);
  EXPECT_EQ(entries[2].op, LogOp::kRelinkIntentOverwrite);
  // Op codes past the known range are still structurally invalid.
  LogEntry rogue = MakeEntry(99);
  rogue.op = static_cast<LogOp>(static_cast<uint8_t>(splitfs::kMaxLogOp) + 1);
  rogue.seq = 1234;
  rogue.Seal();
  EXPECT_FALSE(rogue.ValidSealed());
}

TEST_F(OpLogTest, AppendAndScanRoundTrip) {
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(log_.Append(MakeEntry(i)));
  }
  auto entries = log_.ScanForRecovery();
  ASSERT_EQ(entries.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(entries[i].seq, i + 1);  // Sorted by sequence.
    EXPECT_EQ(entries[i].target_ino, 100 + i);
    EXPECT_TRUE(entries[i].ValidSealed());
  }
}

TEST_F(OpLogTest, AppendCostIsOneLineOneFence) {
  // §3.3: one 64 B nt-store + one fence + CAS + compose. Well under NOVA's
  // two-line/two-fence pattern (~260+ ns).
  log_.Append(MakeEntry(0));  // Warm.
  uint64_t t0 = ctx_.clock.Now();
  uint64_t f0 = ctx_.stats.fences();
  log_.Append(MakeEntry(1));
  EXPECT_EQ(ctx_.stats.fences() - f0, 1u);
  EXPECT_LT(ctx_.clock.Now() - t0, 250u);
}

TEST_F(OpLogTest, FullLogRejectsUntilReset) {
  for (uint64_t i = 0; i < log_.Capacity(); ++i) {
    ASSERT_TRUE(log_.Append(MakeEntry(i)));
  }
  EXPECT_FALSE(log_.Append(MakeEntry(9999)));
  log_.Reset();
  EXPECT_TRUE(log_.Append(MakeEntry(1)));
  // Reset zeroed the area: only the new entry is found.
  EXPECT_EQ(log_.ScanForRecovery().size(), 1u);
}

TEST_F(OpLogTest, TornEntryIsDiscardedByScan) {
  dev_.EnableCrashTracking(true);
  ASSERT_TRUE(log_.Append(MakeEntry(0)));
  ASSERT_TRUE(log_.Append(MakeEntry(1)));
  // Entry 2's store gets torn: some of its cachelines never persist. One 64 B entry
  // is a single line, so simulate tearing by writing garbage into half of slot 2
  // directly (a torn line from a partially-evicted store).
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps;
  int fd = kfs_.OpenByIno(log_.ino(), vfs::kRdWr);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(kfs_.DaxMap(fd, 0, 64 * 1024, &maps), 0);
  LogEntry e = MakeEntry(2);
  e.seq = 3;
  e.Seal();
  std::vector<uint8_t> torn(64);
  std::memcpy(torn.data(), &e, 64);
  torn[40] ^= 0xFF;  // Corrupt one byte after sealing: checksum must catch it.
  dev_.StoreNt(maps[0].dev_off + 2 * 64, torn.data(), 64, sim::PmWriteKind::kLog);
  dev_.Fence();
  kfs_.Close(fd);

  auto entries = log_.ScanForRecovery();
  ASSERT_EQ(entries.size(), 2u);  // The torn entry is silently dropped.
  EXPECT_EQ(entries[0].target_ino, 100u);
  EXPECT_EQ(entries[1].target_ino, 101u);
}

TEST_F(OpLogTest, TruncatedTailEntryRejectedByChecksum) {
  // The tail entry's 64 B store only partially drains before power loss: the crash
  // harness tears the line at 8-byte granularity. Recovery must keep the intact
  // prefix and reject the truncated tail on checksum, not entry length.
  dev_.EnableCrashTracking(true);
  ASSERT_TRUE(log_.Append(MakeEntry(0)));
  ASSERT_TRUE(log_.Append(MakeEntry(1)));
  ASSERT_TRUE(log_.Append(MakeEntry(2)));
  // Tear every line still pending at the crash: only the first half of each 64 B
  // store survives. Entries 0-2 already persisted at their append fences.
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps;
  int fd = kfs_.OpenByIno(log_.ino(), vfs::kRdWr);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(kfs_.DaxMap(fd, 0, 64 * 1024, &maps), 0);
  LogEntry tail = MakeEntry(3);
  tail.seq = 4;
  tail.Seal();
  dev_.StoreNt(maps[0].dev_off + 3 * 64, &tail, 64, sim::PmWriteKind::kLog);
  // No fence: the store is un-persisted when the machine dies, and only its first
  // four 8-byte chunks drain.
  dev_.CrashWith([](uint64_t, uint64_t) { return static_cast<uint8_t>(0x0F); });
  kfs_.Close(fd);

  auto entries = log_.ScanForRecovery();
  ASSERT_EQ(entries.size(), 3u);
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, i + 1);
  }
}

TEST_F(OpLogTest, ChecksumValidButGarbageOpRejected) {
  // A checksum-valid slot whose op byte is outside the known vocabulary must not be
  // replayed: structural validation backs up the checksum.
  ASSERT_TRUE(log_.Append(MakeEntry(0)));
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps;
  int fd = kfs_.OpenByIno(log_.ino(), vfs::kRdWr);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(kfs_.DaxMap(fd, 0, 64 * 1024, &maps), 0);
  LogEntry rogue = MakeEntry(1);
  rogue.seq = 2;
  rogue.op = static_cast<LogOp>(77);
  rogue.Seal();  // Checksum matches the garbage op.
  EXPECT_FALSE(rogue.ValidSealed());
  dev_.StoreNt(maps[0].dev_off + 1 * 64, &rogue, 64, sim::PmWriteKind::kLog);
  dev_.Fence();
  kfs_.Close(fd);

  auto entries = log_.ScanForRecovery();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].target_ino, 100u);
}

TEST_F(OpLogTest, DuplicateSequenceReplayedOnce) {
  ASSERT_TRUE(log_.Append(MakeEntry(0)));
  // Forge a second checksum-valid entry with the same sequence number in a later
  // slot; the scan must surface the sequence exactly once.
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps;
  int fd = kfs_.OpenByIno(log_.ino(), vfs::kRdWr);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(kfs_.DaxMap(fd, 0, 64 * 1024, &maps), 0);
  LogEntry dup = MakeEntry(9);
  dup.seq = 1;
  dup.Seal();
  dev_.StoreNt(maps[0].dev_off + 5 * 64, &dup, 64, sim::PmWriteKind::kLog);
  dev_.Fence();
  kfs_.Close(fd);

  auto entries = log_.ScanForRecovery();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].seq, 1u);
}

TEST_F(OpLogTest, ScanIsIdempotent) {
  // Recovery may scan any number of times (double crash): results are identical and
  // the log contents are untouched by scanning.
  for (uint64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(log_.Append(MakeEntry(i)));
  }
  auto first = log_.ScanForRecovery();
  auto second = log_.ScanForRecovery();
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&first[i], &second[i], sizeof(LogEntry)));
  }
}

TEST_F(OpLogTest, ConcurrentAppendsGetDistinctSlots) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogEntry e = MakeEntry(static_cast<uint64_t>(t) * 1000 + i);
        ASSERT_TRUE(log_.Append(e));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  auto entries = log_.ScanForRecovery();
  EXPECT_EQ(entries.size(), static_cast<size_t>(kThreads * kPerThread));
  // Sequence numbers are unique and dense.
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, i + 1);
  }
}

}  // namespace
