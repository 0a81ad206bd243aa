// Unit tests for the optimized operation log (§3.3): 64 B checksummed entries, DRAM
// tail, torn-entry detection, idempotent scan order, the header reset, the windowed
// recovery scan that stops past the live end, and replay coalescing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/core/oplog.h"
#include "src/crash/crash_plan.h"

namespace {

using common::kBlockSize;
using common::kCacheLineSize;
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
  // Reset's header retired every earlier entry: only the new one is found.
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

// --- Header reset and the bounded scan -----------------------------------------------

// The device offsets of every slot of `log`, entry slots then the two header slots.
std::vector<uint64_t> SlotOffsets(ext4sim::Ext4Dax* kfs, const OpLog& log) {
  const uint64_t bytes = (log.Capacity() + 2) * kCacheLineSize;
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps;
  int fd = kfs->OpenByIno(log.ino(), vfs::kRdWr);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(kfs->DaxMap(fd, 0, bytes, &maps), 0);
  kfs->Close(fd);
  std::vector<uint64_t> offs;
  for (const auto& m : maps) {
    for (uint64_t off = 0; off < m.len; off += kCacheLineSize) {
      offs.push_back(m.dev_off + off);
    }
  }
  EXPECT_EQ(offs.size(), log.Capacity() + 2);
  return offs;
}

TEST_F(OpLogTest, ScanCrossesEveryLanesChunkOfDeadSlotsAndStopsOneSlotLater) {
  OpLog log(&kfs_, "/oplog-wide", 128 * 1024);
  std::vector<uint64_t> slot = SlotOffsets(&kfs_, log);
  auto put = [&](uint64_t s, uint64_t seq) {
    LogEntry e = MakeEntry(s);
    e.seq = seq;
    e.Seal();
    dev_.StoreNt(slot[s], &e, kCacheLineSize, sim::PmWriteKind::kLog);
  };
  // Live entries at 0, 513 and 1027: the first gap is kMaxDeadRun slots (one of
  // them torn), the second one more.
  put(0, 1);
  put(513, 2);
  put(1027, 3);
  LogEntry torn = MakeEntry(9);
  torn.seq = 9;
  torn.Seal();
  torn.len ^= 1;
  dev_.StoreNt(slot[200], &torn, kCacheLineSize, sim::PmWriteKind::kLog);
  dev_.Fence();
  std::vector<LogEntry> got = log.ScanForRecovery();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1].seq, 2u);
  // One more live slot shortens the second gap to kMaxDeadRun: the scan crosses it.
  put(1026, 4);
  dev_.Fence();
  got = log.ScanForRecovery();
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[3].target_ino, 100u + 1026);
}

TEST_F(OpLogTest, ResetRetiresStaleEntriesAndTheScanReadsOnlyPastTheTail) {
  OpLog log(&kfs_, "/oplog-1m", 1 * kMiB);
  std::vector<uint64_t> slot = SlotOffsets(&kfs_, log);
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(log.Append(MakeEntry(i)));
  }
  log.Reset();
  for (uint64_t i = 0; i < 1200; ++i) {
    ASSERT_TRUE(log.Append(MakeEntry(i)));
  }
  // Slots 1200..4999 still hold sealed entries of the closed epoch.
  LogEntry stale;
  std::memcpy(&stale, dev_.DirectMap(slot[1200]), kCacheLineSize);
  ASSERT_TRUE(stale.ValidSealed());
  uint64_t t0 = ctx_.clock.Now();
  uint64_t read0 = ctx_.stats.read_log_bytes();
  std::vector<LogEntry> got = log.ScanForRecovery();
  uint64_t charged = ctx_.clock.Now() - t0;
  ASSERT_EQ(got.size(), 1200u);
  EXPECT_EQ(got.front().seq, 5001u);
  EXPECT_EQ(got.back().seq, 6200u);
  // The header slots, then windows 0 and 1: the scan stops at slot 1199 + 513, in
  // window 1 (the log is one mapping of 16 windows).
  ASSERT_EQ(slot[1024], slot[0] + OpLog::kScanWindowBytes);
  EXPECT_EQ(charged, ctx_.model.PmReadCost(2 * kCacheLineSize, /*sequential=*/false) +
                         2 * ctx_.model.PmReadCost(OpLog::kScanWindowBytes,
                                                   /*sequential=*/true));
  EXPECT_EQ(ctx_.stats.read_log_bytes() - read0,
            2 * kCacheLineSize + 2 * OpLog::kScanWindowBytes);
}

TEST_F(OpLogTest, ResetCostsOneHeaderWhateverTheLogSize) {
  OpLog big(&kfs_, "/oplog-64m", 64 * kMiB);
  ASSERT_TRUE(log_.Append(MakeEntry(0)));
  ASSERT_TRUE(big.Append(MakeEntry(0)));
  auto reset_cost = [this](OpLog* log) {
    uint64_t t0 = ctx_.clock.Now();
    uint64_t w0 = ctx_.stats.log_bytes();
    uint64_t f0 = ctx_.stats.fences();
    log->Reset();
    EXPECT_EQ(ctx_.stats.log_bytes() - w0, kCacheLineSize);
    EXPECT_EQ(ctx_.stats.fences() - f0, 1u);
    return ctx_.clock.Now() - t0;
  };
  EXPECT_EQ(reset_cost(&log_), reset_cost(&big));
}

// Cuts power right after the next Reset's header store; `drained` says which of that
// line's 8-byte chunks reach the media.
void CutNextReset(pmem::Device* dev, OpLog* log, uint8_t drained) {
  crash::CrashInjector cut({crash::CrashPoint::Trigger::kAfterStore, 0});
  dev->SetObserver(&cut);
  EXPECT_THROW(log->Reset(), crash::CrashSignal);
  dev->SetObserver(nullptr);
  dev->CrashWith([drained](uint64_t, uint64_t) { return drained; });
}

constexpr uint8_t kTornHeader = 0xFE;   // Checksum and op never drain.
constexpr uint8_t kWholeHeader = 0xFF;  // The header survives the cut.

std::vector<uint64_t> LiveSeqs(OpLog* log) {
  std::vector<uint64_t> seqs;
  for (const LogEntry& e : log->ScanForRecovery()) {
    seqs.push_back(e.seq);
  }
  return seqs;
}

TEST_F(OpLogTest, TornHeaderFallsBackToThePreviousFloorWhichIsNeverOverwritten) {
  dev_.EnableCrashTracking(true);
  const uint64_t first_header = SlotOffsets(&kfs_, log_)[log_.Capacity()];
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(log_.Append(MakeEntry(i)));  // Seqs 1-3 in slots 0-2.
  }
  log_.Reset();  // Floor 3.
  LogEntry header;
  std::memcpy(&header, dev_.DirectMap(first_header), kCacheLineSize);
  ASSERT_TRUE(header.ValidHeader());
  ASSERT_TRUE(log_.Append(MakeEntry(3)));  // Seqs 4-5 over slots 0-1.
  ASSERT_TRUE(log_.Append(MakeEntry(4)));
  const std::vector<uint64_t> second_epoch = {4, 5};
  // The second checkpoint's header is torn: recovery falls back to floor 3, which
  // replays the epoch that checkpoint closed, and never the stale seq 3 in slot 2.
  CutNextReset(&dev_, &log_, kTornHeader);
  EXPECT_EQ(LiveSeqs(&log_), second_epoch);
  // The reset after that writes the torn slot again, not the surviving header: torn
  // too, the first header still decides.
  CutNextReset(&dev_, &log_, kTornHeader);
  EXPECT_EQ(0, std::memcmp(dev_.DirectMap(first_header), &header, kCacheLineSize));
  EXPECT_EQ(LiveSeqs(&log_), second_epoch);
  log_.Reset();
  EXPECT_TRUE(LiveSeqs(&log_).empty());
  EXPECT_EQ(0, std::memcmp(dev_.DirectMap(first_header), &header, kCacheLineSize));
  ASSERT_TRUE(log_.Append(MakeEntry(5)));
  EXPECT_EQ(LiveSeqs(&log_), std::vector<uint64_t>{6});
}

TEST_F(OpLogTest, HeaderThatSurvivesTheCutIsTheNewestAndIsNeverOverwritten) {
  dev_.EnableCrashTracking(true);
  const uint64_t second_header = SlotOffsets(&kfs_, log_)[log_.Capacity() + 1];
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(log_.Append(MakeEntry(i)));
  }
  log_.Reset();  // Floor 3, first header slot.
  ASSERT_TRUE(log_.Append(MakeEntry(3)));
  ASSERT_TRUE(log_.Append(MakeEntry(4)));
  // The cut comes before the second header's fence, but the line drains whole: the
  // scan must take it as the newest (floor 5) and aim the next reset at the other
  // slot.
  CutNextReset(&dev_, &log_, kWholeHeader);
  LogEntry header;
  std::memcpy(&header, dev_.DirectMap(second_header), kCacheLineSize);
  ASSERT_TRUE(header.ValidHeader());
  EXPECT_TRUE(LiveSeqs(&log_).empty());
  ASSERT_TRUE(log_.Append(MakeEntry(5)));  // Seq 6: the next header differs.
  CutNextReset(&dev_, &log_, kTornHeader);
  EXPECT_EQ(0, std::memcmp(dev_.DirectMap(second_header), &header, kCacheLineSize));
  EXPECT_EQ(LiveSeqs(&log_), std::vector<uint64_t>{6});
}

// --- Windowed recovery scan --------------------------------------------------------

// A log built on a fragmented allocator: 25-block holes between 1-block pins, so the
// 100-block log spans 5 mappings. The middle three are 100 KiB, each read as a 64 KiB
// and a 36 KiB window.
class FragmentedOpLogTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kHoleBlocks = 25;
  static constexpr uint64_t kLogBytes = 100 * kBlockSize;

  FragmentedOpLogTest() : dev_(&ctx_, 24 * kMiB), kfs_(&dev_) {
    std::vector<std::string> holes;
    for (int i = 0;; ++i) {
      std::string hole = std::string("/hole").append(std::to_string(i));
      if (!Preallocate(hole, kHoleBlocks)) {
        break;
      }
      holes.push_back(hole);
      if (!Preallocate(std::string("/pin").append(std::to_string(i)), 1)) {
        break;
      }
    }
    for (const std::string& hole : holes) {
      SPLITFS_CHECK(kfs_.Unlink(hole) == 0);
    }
    // Unlinked blocks return to the allocator at the journal commit.
    SPLITFS_CHECK(kfs_.CommitJournal(/*fsync_barrier=*/true) == 0);
    log_ = std::make_unique<OpLog>(&kfs_, "/oplog", kLogBytes);
    int fd = kfs_.OpenByIno(log_->ino(), vfs::kRdWr);
    SPLITFS_CHECK(fd >= 0);
    SPLITFS_CHECK(kfs_.DaxMap(fd, 0, kLogBytes, &maps_) == 0);
    kfs_.Close(fd);
  }

  bool Preallocate(const std::string& path, uint64_t blocks) {
    int fd = kfs_.Open(path, vfs::kRdWr | vfs::kCreate);
    if (fd < 0) {
      return false;
    }
    bool ok = kfs_.Fallocate(fd, 0, blocks * kBlockSize, /*keep_size=*/false) == 0;
    kfs_.Close(fd);
    return ok;
  }

  // Device offset of log slot `slot`.
  uint64_t SlotDev(uint64_t slot) const {
    uint64_t off = slot * kCacheLineSize;
    for (const auto& m : maps_) {
      if (off >= m.file_off && off < m.file_off + m.len) {
        return m.dev_off + off - m.file_off;
      }
    }
    ADD_FAILURE() << "slot " << slot << " outside the log";
    return 0;
  }

  void Put(uint64_t slot, const LogEntry& e) {
    dev_.StoreNt(SlotDev(slot), &e, kCacheLineSize, sim::PmWriteKind::kLog);
  }

  // What a per-slot scan of every entry slot returns: each structurally valid,
  // checksum-valid slot above `floor` in file order, stably sorted by seq, first of
  // each seq kept.
  std::vector<LogEntry> PerSlotDecode(uint64_t floor) const {
    std::vector<LogEntry> out;
    for (uint64_t slot = 0; slot < log_->Capacity(); ++slot) {
      LogEntry e;
      std::memcpy(&e, dev_.DirectMap(SlotDev(slot)), kCacheLineSize);
      if (e.ValidSealed() && e.seq > floor) {
        out.push_back(e);
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const LogEntry& a, const LogEntry& b) { return a.seq < b.seq; });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const LogEntry& a, const LogEntry& b) { return a.seq == b.seq; }),
              out.end());
    return out;
  }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
  std::unique_ptr<OpLog> log_;
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps_;
};

LogEntry Sealed(LogOp op, uint64_t seq, uint64_t n) {
  LogEntry e;
  e.op = op;
  e.target_ino = 100 + n;
  e.staging_ino = 7;
  e.file_off = n * kBlockSize;
  e.staging_off = n * kBlockSize;
  e.len = kBlockSize;
  e.seq = seq;
  e.Seal();
  return e;
}

TEST_F(FragmentedOpLogTest, WindowedScanMatchesPerSlotDecodeAndChargesOneLoadPerWindow) {
  ASSERT_GE(maps_.size(), 4u);
  // Close one epoch first: its entries, and any sealed entry at or below its floor,
  // are stale.
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(log_->Append(Sealed(LogOp::kAppend, 0, i)));
  }
  log_->Reset();
  const uint64_t floor = 40;
  // Live entries fill every slot from 0 to a tail 100 slots before the end of the
  // third mapping, as Append lays them out; each mapping ends in a short window.
  // Seqs descend with the slot, so the scan must sort.
  const uint64_t tail = (maps_[2].file_off + maps_[2].len) / kCacheLineSize - 100;
  for (uint64_t slot = 0; slot < tail; ++slot) {
    Put(slot, Sealed(LogOp::kAppend, floor + tail - slot, slot));
  }
  // Among them: a torn entry, a checksum-valid garbage op, a stale entry from the
  // closed epoch, and a second entry with an already used seq in a later slot (the
  // earlier slot's entry must win).
  LogEntry torn = Sealed(LogOp::kOverwrite, floor + 5, 1);
  torn.len ^= 1;
  Put(1000, torn);
  Put(2000, Sealed(static_cast<LogOp>(77), floor + 6, 2));
  Put(2500, Sealed(LogOp::kAppend, floor, 3));
  LogEntry dup = Sealed(LogOp::kTruncate, floor + tail, 4);
  dup.target_ino = 1;
  dup.Seal();
  Put(tail - 1, dup);
  // Past the tail: stale sealed entries, dead like zero slots.
  for (uint64_t slot = tail; slot < tail + 64; ++slot) {
    Put(slot, Sealed(LogOp::kAppend, 1 + slot % floor, slot));
  }
  dev_.Fence();

  std::vector<LogEntry> expected = PerSlotDecode(floor);
  ASSERT_EQ(expected.size(), tail - 4);  // Torn, garbage, stale, and the dup's slot.
  uint64_t t0 = ctx_.clock.Now();
  std::vector<LogEntry> got = log_->ScanForRecovery();
  uint64_t charged = ctx_.clock.Now() - t0;

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&got[i], &expected[i], sizeof(LogEntry))) << "entry " << i;
  }
  EXPECT_EQ(got.back().op, LogOp::kAppend);  // The max seq from slot 0.
  // The header slots, then every window up to the one holding the slot that ends
  // the scan: the (kMaxDeadRun + 1)-th dead slot past the last live one (the dup at
  // tail - 1), which lies in the fourth mapping.
  const uint64_t stop = tail - 1 + OpLog::kMaxDeadRun + 1;
  ASSERT_GE(stop * kCacheLineSize, maps_[3].file_off);
  uint64_t model = ctx_.model.PmReadCost(2 * kCacheLineSize, /*sequential=*/false);
  for (const auto& m : maps_) {
    for (uint64_t off = 0; off < m.len && (m.file_off + off) / kCacheLineSize <= stop;
         off += OpLog::kScanWindowBytes) {
      model += ctx_.model.PmReadCost(std::min(OpLog::kScanWindowBytes, m.len - off),
                                     /*sequential=*/true);
    }
  }
  EXPECT_EQ(charged, model);
}

// --- Replay coalescing -----------------------------------------------------------

// The coalescing Recover ran before CoalesceForReplay: each kept data entry walks the
// runs backwards and extends the first whose end matches. `ties` counts merges where
// an older run ended at the same place too.
std::vector<LogEntry> ReverseScanCoalesce(const std::vector<LogEntry>& entries,
                                          uint64_t* ties) {
  std::unordered_map<uint64_t, uint64_t> last_truncate_seq;
  std::unordered_map<uint64_t, uint64_t> last_done_seq;
  for (const LogEntry& e : entries) {
    if (e.op == LogOp::kTruncate) {
      uint64_t& seq = last_truncate_seq[e.target_ino];
      seq = std::max(seq, e.seq);
    } else if (e.op == LogOp::kRelinkDone) {
      uint64_t& seq = last_done_seq[e.target_ino];
      seq = std::max(seq, e.seq);
    }
  }
  auto extends = [](const LogEntry& run, const LogEntry& e) {
    return run.staging_ino == e.staging_ino && run.target_ino == e.target_ino &&
           run.op == e.op && run.staging_off + run.len == e.staging_off &&
           run.file_off + run.len == e.file_off;
  };
  std::vector<LogEntry> runs;
  for (const LogEntry& e : entries) {
    if (e.op != LogOp::kAppend && e.op != LogOp::kOverwrite &&
        e.op != LogOp::kRelinkIntent && e.op != LogOp::kRelinkIntentOverwrite) {
      continue;
    }
    auto trunc = last_truncate_seq.find(e.target_ino);
    if (trunc != last_truncate_seq.end() && trunc->second > e.seq) {
      continue;
    }
    auto done = last_done_seq.find(e.target_ino);
    if (done != last_done_seq.end() && done->second > e.seq) {
      continue;
    }
    bool merged = false;
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
      if (extends(*it, e)) {
        *ties += std::any_of(std::next(it), runs.rend(),
                             [&](const LogEntry& older) { return extends(older, e); });
        it->len += e.len;
        merged = true;
        break;
      }
    }
    if (!merged) {
      runs.push_back(e);
    }
  }
  return runs;
}

void ExpectSameRuns(const std::vector<LogEntry>& got, const std::vector<LogEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&got[i], &want[i], sizeof(LogEntry))) << "run " << i;
  }
}

LogEntry Data(LogOp op, uint64_t seq, uint64_t staging_off, uint64_t file_off,
              uint64_t len) {
  LogEntry e;
  e.op = op;
  e.seq = seq;
  e.staging_ino = 7;
  e.target_ino = 100;
  e.staging_off = staging_off;
  e.file_off = file_off;
  e.len = len;
  return e;
}

TEST(CoalesceForReplayTest, ExtendsTheNewestRunEndingWhereTheEntryStarts) {
  std::vector<LogEntry> log = {
      Data(LogOp::kAppend, 1, 0, 0, 10),    // Run 0: ends at 10.
      Data(LogOp::kAppend, 2, 5, 5, 15),    // Run 1: ends at 20.
      Data(LogOp::kAppend, 3, 10, 10, 10),  // Extends run 0, which now ends at 20 too.
      Data(LogOp::kAppend, 4, 20, 20, 10),  // Extends run 1, the newer: ends at 30.
      Data(LogOp::kAppend, 5, 20, 20, 5),   // Extends run 0, the only one left at 20.
      Data(LogOp::kOverwrite, 6, 25, 25, 5),  // Other op: a run of its own.
      Data(LogOp::kAppend, 7, 30, 31, 5),   // File gap: a run of its own.
  };
  uint64_t ties = 0;
  std::vector<LogEntry> want = ReverseScanCoalesce(log, &ties);
  EXPECT_EQ(ties, 1u);
  ASSERT_EQ(want.size(), 4u);
  EXPECT_EQ(want[0].len, 25u);
  EXPECT_EQ(want[1].len, 25u);
  CoalesceForReplay(&log);
  ExpectSameRuns(log, want);
}

TEST(CoalesceForReplayTest, MatchesTheReverseScanOnSeededLogs) {
  const LogOp kOps[] = {LogOp::kAppend,       LogOp::kOverwrite,  LogOp::kRelinkIntent,
                        LogOp::kRelinkIntentOverwrite, LogOp::kTruncate, LogOp::kRelinkDone,
                        LogOp::kCreate,       LogOp::kUnlink,     LogOp::kRenameFrom,
                        LogOp::kRenameTo};
  uint64_t ties = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    common::Rng rng(seed);
    std::vector<LogEntry> log;
    for (uint64_t seq = 1; seq <= 10'000; ++seq) {
      LogEntry e;
      uint64_t pick = rng.Uniform(100);
      // Mostly data ops; truncates, done records and metadata ops sprinkled in.
      e.op = pick < 96 ? kOps[pick % 4] : kOps[4 + pick % 6];
      e.seq = seq;
      e.staging_ino = 1 + rng.Uniform(3);
      // Only targets 10 and 11 are ever truncated or sealed done, so 12-15 keep every
      // data entry.
      e.target_ino = e.op == LogOp::kTruncate || e.op == LogOp::kRelinkDone
                         ? 10 + rng.Uniform(2)
                         : 10 + rng.Uniform(6);
      if (!log.empty() && rng.OneIn(2)) {
        // Continue right after some earlier entry: its run may or may not still end
        // there, and several runs may.
        const LogEntry& prev = log[log.size() - 1 - rng.Uniform(std::min<size_t>(log.size(), 64))];
        e.staging_ino = prev.staging_ino;
        e.target_ino = prev.target_ino;
        e.op = rng.OneIn(8) ? kOps[rng.Uniform(4)] : prev.op;
        e.staging_off = prev.staging_off + prev.len;
        e.file_off = prev.file_off + prev.len + (rng.OneIn(16) ? 512 : 0);
      } else {
        // A small offset grid, so unrelated runs often start or end together.
        e.staging_off = rng.Uniform(64) * 512;
        e.file_off = rng.Uniform(64) * 512;
      }
      e.len = rng.OneIn(50) ? 0 : (1 + rng.Uniform(8)) * 512;
      if (rng.OneIn(500)) {
        e.staging_off = UINT64_MAX - 511;  // Ends wrap past zero.
      }
      log.push_back(e);
    }
    std::vector<LogEntry> want = ReverseScanCoalesce(log, &ties);
    CoalesceForReplay(&log);
    ExpectSameRuns(log, want);
  }
  EXPECT_GT(ties, 0u);  // Two runs ending at the same place did happen.
}

}  // namespace
