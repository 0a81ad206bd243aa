// Unit tests for the optimized operation log (§3.3): 64 B checksummed entries, DRAM
// tail, torn-entry detection, idempotent scan order, the windowed recovery scan and
// replay coalescing.
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

// --- Windowed recovery scan --------------------------------------------------------

// A log built on a fragmented allocator: 25-block holes between 1-block pins, so the
// 100-block log spans 4 mappings of 100 KiB, each read as a 64 KiB and a 36 KiB
// window.
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

  // The slots a windowed scan reads first and last: the first and last slot of every
  // window of every mapping, in file order.
  std::vector<uint64_t> WindowEdgeSlots() const {
    std::vector<uint64_t> slots;
    for (const auto& m : maps_) {
      for (uint64_t off = 0; off < m.len; off += OpLog::kScanWindowBytes) {
        uint64_t n = std::min(OpLog::kScanWindowBytes, m.len - off);
        slots.push_back((m.file_off + off) / kCacheLineSize);
        slots.push_back((m.file_off + off + n) / kCacheLineSize - 1);
      }
    }
    return slots;
  }

  // What a per-slot scan returns: every nonzero, structurally valid, checksum-valid
  // slot in file order, stably sorted by seq, first of each seq kept.
  std::vector<LogEntry> PerSlotDecode() const {
    static const LogEntry kZero{};
    std::vector<LogEntry> out;
    for (uint64_t slot = 0; slot < kLogBytes / kCacheLineSize; ++slot) {
      LogEntry e;
      std::memcpy(&e, dev_.DirectMap(SlotDev(slot)), kCacheLineSize);
      if (std::memcmp(&e, &kZero, kCacheLineSize) != 0 && e.ValidSealed()) {
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

TEST_F(FragmentedOpLogTest, WindowedScanMatchesPerSlotDecodeAndChargesOneLoadPerWindow) {
  ASSERT_GE(maps_.size(), 3u);
  std::vector<uint64_t> edges = WindowEdgeSlots();
  ASSERT_GT(edges.size(), 2 * maps_.size());  // Some mapping has several windows.
  // Seqs descend with the slot, so the scan must sort; zero holes lie between.
  uint64_t seq = 10'000;
  for (uint64_t slot : edges) {
    LogEntry e;
    e.op = LogOp::kAppend;
    e.target_ino = 100 + slot;
    e.staging_ino = 7;
    e.file_off = slot * kBlockSize;
    e.staging_off = slot * kBlockSize;
    e.len = kBlockSize;
    e.seq = seq--;
    e.Seal();
    Put(slot, e);
  }
  // Next to them: a torn entry, a checksum-valid garbage op, and a second entry with
  // an already used seq in a later slot (the earlier slot's entry must win).
  LogEntry torn;
  torn.op = LogOp::kOverwrite;
  torn.seq = 5;
  torn.Seal();
  torn.len ^= 1;
  Put(edges[0] + 1, torn);
  LogEntry garbage;
  garbage.op = static_cast<LogOp>(77);
  garbage.seq = 6;
  garbage.Seal();
  Put(edges[2] + 1, garbage);
  LogEntry dup;
  dup.op = LogOp::kTruncate;
  dup.target_ino = 1;
  dup.seq = 10'000;
  dup.Seal();
  Put(edges.back() - 1, dup);
  dev_.Fence();

  std::vector<LogEntry> expected = PerSlotDecode();
  ASSERT_EQ(expected.size(), edges.size());
  uint64_t t0 = ctx_.clock.Now();
  std::vector<LogEntry> got = log_->ScanForRecovery();
  uint64_t charged = ctx_.clock.Now() - t0;

  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&got[i], &expected[i], sizeof(LogEntry))) << "entry " << i;
  }
  EXPECT_EQ(got.back().op, LogOp::kAppend);  // Seq 10000 from the first slot.
  uint64_t model = 0;
  for (const auto& m : maps_) {
    for (uint64_t off = 0; off < m.len; off += OpLog::kScanWindowBytes) {
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
