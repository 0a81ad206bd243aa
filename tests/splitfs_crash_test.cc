// Crash-consistency tests for SplitFS: the Table 3 guarantee matrix, strict-mode op-log
// replay (§3.3, §5.3), torn-entry handling, replay idempotency, and the paper's §5.3
// correctness methodology (SplitFS end state == ext4 DAX end state).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/split_fs.h"

namespace {

using common::kBlockSize;
using common::kMiB;
using splitfs::Mode;

splitfs::Options SmallOpts(Mode m) {
  splitfs::Options o;
  o.mode = m;
  o.num_staging_files = 2;
  o.staging_file_bytes = 8 * kMiB;
  o.oplog_bytes = 1 * kMiB;
  return o;
}

struct CrashWorld {
  sim::Context ctx;
  std::unique_ptr<pmem::Device> dev;
  std::unique_ptr<ext4sim::Ext4Dax> kfs;
  std::unique_ptr<splitfs::SplitFs> fs;

  explicit CrashWorld(Mode m) : CrashWorld(SmallOpts(m)) {}
  explicit CrashWorld(const splitfs::Options& o) {
    dev = std::make_unique<pmem::Device>(&ctx, 512 * kMiB);
    kfs = std::make_unique<ext4sim::Ext4Dax>(dev.get());
    fs = std::make_unique<splitfs::SplitFs>(kfs.get(), o);
    dev->EnableCrashTracking(true);
  }

  void CrashAndRecover(common::Rng* rng = nullptr) {
    dev->Crash(rng);
    ASSERT_EQ(kfs->Recover(), 0);
    ASSERT_EQ(fs->Recover(), 0);
  }
};

std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i * 11);
  }
  return v;
}

TEST(SplitFsCrash, PosixAppendWithoutFsyncIsLostAtomically) {
  CrashWorld w(Mode::kPosix);
  int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  w.fs->Fsync(fd);
  auto data = Pattern(2 * kBlockSize, 1);
  w.fs->Pwrite(fd, data.data(), data.size(), 0);
  w.CrashAndRecover();
  vfs::StatBuf st;
  ASSERT_EQ(w.fs->Stat("/f", &st), 0);
  EXPECT_EQ(st.size, 0u);  // Appends require fsync in POSIX mode; loss is total.
}

TEST(SplitFsCrash, PosixAppendWithFsyncSurvives) {
  CrashWorld w(Mode::kPosix);
  int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(2 * kBlockSize + 777, 2);
  w.fs->Pwrite(fd, data.data(), data.size(), 0);
  ASSERT_EQ(w.fs->Fsync(fd), 0);
  w.CrashAndRecover();
  int fd2 = w.fs->Open("/f", vfs::kRdWr);
  ASSERT_GE(fd2, 0);
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(w.fs->Pread(fd2, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, data);
}

TEST(SplitFsCrash, NoStagingAppendWithFsyncSurvives) {
  // The Figure 3 "split" configuration writes appends through to K-Split, whose size
  // update sits in the running transaction: fsync must commit it in every mode.
  for (Mode m : {Mode::kPosix, Mode::kSync, Mode::kStrict}) {
    SCOPED_TRACE(splitfs::ModeName(m));
    splitfs::Options o = SmallOpts(m);
    o.enable_staging = false;
    CrashWorld w(o);
    int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
    ASSERT_EQ(w.fs->Fsync(fd), 0);  // The create is durable; the append is at stake.
    auto data = Pattern(2 * kBlockSize + 777, 4);
    ASSERT_EQ(w.fs->Pwrite(fd, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
    ASSERT_EQ(w.fs->Fsync(fd), 0);
    w.CrashAndRecover();
    int fd2 = w.fs->Open("/f", vfs::kRdWr);
    ASSERT_GE(fd2, 0);
    std::vector<uint8_t> back(data.size());
    ASSERT_EQ(w.fs->Pread(fd2, back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(back, data);
  }
}

TEST(SplitFsCrash, NoRelinkAppendWithFsyncSurvives) {
  // The Figure 3 "+staging" configuration publishes by copying staged bytes through
  // K-Split, whose size update sits in the running transaction: fsync must commit
  // it in every mode.
  for (Mode m : {Mode::kPosix, Mode::kSync, Mode::kStrict}) {
    SCOPED_TRACE(splitfs::ModeName(m));
    splitfs::Options o = SmallOpts(m);
    o.enable_relink = false;
    CrashWorld w(o);
    int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
    ASSERT_EQ(w.fs->Fsync(fd), 0);  // The create is durable; the append is at stake.
    auto data = Pattern(2 * kBlockSize + 777, 4);
    ASSERT_EQ(w.fs->Pwrite(fd, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
    ASSERT_EQ(w.fs->Fsync(fd), 0);
    w.CrashAndRecover();
    int fd2 = w.fs->Open("/f", vfs::kRdWr);
    ASSERT_GE(fd2, 0);
    vfs::StatBuf st;
    ASSERT_EQ(w.fs->Fstat(fd2, &st), 0);
    EXPECT_EQ(st.size, data.size());
    std::vector<uint8_t> back(data.size());
    ASSERT_EQ(w.fs->Pread(fd2, back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(back, data);
  }
}

TEST(SplitFsCrash, StrictAppendSurvivesWithoutFsyncViaLogReplay) {
  // Strict mode: the op-log entry + staged data are durable at the end of the write
  // call; recovery replays the relink even though fsync never ran.
  CrashWorld w(Mode::kStrict);
  int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  w.fs->Fsync(fd);
  auto data = Pattern(3 * kBlockSize, 3);
  w.fs->Pwrite(fd, data.data(), data.size(), 0);
  uint64_t relinks_before = w.kfs->JournalCommits();
  w.CrashAndRecover();
  EXPECT_GT(w.kfs->JournalCommits(), relinks_before);  // Replay performed relinks.
  int fd2 = w.fs->Open("/f", vfs::kRdWr);
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(w.fs->Pread(fd2, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, data);
}

TEST(SplitFsCrash, StrictUnalignedAppendReplaysExactBytes) {
  CrashWorld w(Mode::kStrict);
  int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  w.fs->Fsync(fd);
  auto a = Pattern(1000, 4);
  auto b = Pattern(7000, 5);
  w.fs->Pwrite(fd, a.data(), a.size(), 0);
  w.fs->Pwrite(fd, b.data(), b.size(), 1000);
  w.CrashAndRecover();
  int fd2 = w.fs->Open("/f", vfs::kRdWr);
  vfs::StatBuf st;
  w.fs->Fstat(fd2, &st);
  EXPECT_EQ(st.size, 8000u);
  std::vector<uint8_t> back(8000);
  ASSERT_EQ(w.fs->Pread(fd2, back.data(), 8000, 0), 8000);
  EXPECT_EQ(0, std::memcmp(back.data(), a.data(), 1000));
  EXPECT_EQ(0, std::memcmp(back.data() + 1000, b.data(), 7000));
}

TEST(SplitFsCrash, StrictOverwriteAtomicUnderTornCrash) {
  CrashWorld w(Mode::kStrict);
  int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  auto old_data = Pattern(4 * kBlockSize, 6);
  w.fs->Pwrite(fd, old_data.data(), old_data.size(), 0);
  w.fs->Fsync(fd);
  auto new_data = Pattern(4 * kBlockSize, 7);
  w.fs->Pwrite(fd, new_data.data(), new_data.size(), 0);
  common::Rng rng(555);
  w.CrashAndRecover(&rng);
  int fd2 = w.fs->Open("/f", vfs::kRdWr);
  std::vector<uint8_t> back(old_data.size());
  ASSERT_EQ(w.fs->Pread(fd2, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_TRUE(back == old_data || back == new_data);  // Never a mix.
}

TEST(SplitFsCrash, ReplayIsIdempotentAcrossDoubleCrash) {
  CrashWorld w(Mode::kStrict);
  int fd = w.fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  w.fs->Fsync(fd);
  auto data = Pattern(2 * kBlockSize, 8);
  w.fs->Pwrite(fd, data.data(), data.size(), 0);
  w.CrashAndRecover();
  // Crash again immediately — replaying an already-applied log must be a no-op.
  w.dev->Crash();
  ASSERT_EQ(w.kfs->Recover(), 0);
  ASSERT_EQ(w.fs->Recover(), 0);
  int fd2 = w.fs->Open("/f", vfs::kRdWr);
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(w.fs->Pread(fd2, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, data);
  vfs::StatBuf st;
  w.fs->Fstat(fd2, &st);
  EXPECT_EQ(st.size, data.size());
}

TEST(SplitFsCrash, UnlinkedTargetSkippedDuringReplay) {
  CrashWorld w(Mode::kStrict);
  int fd = w.fs->Open("/doomed", vfs::kRdWr | vfs::kCreate);
  w.fs->Fsync(fd);
  auto data = Pattern(kBlockSize, 9);
  w.fs->Pwrite(fd, data.data(), data.size(), 0);
  w.fs->Close(fd);  // Publishes.
  ASSERT_EQ(w.fs->Unlink("/doomed"), 0);
  w.CrashAndRecover();  // Log still holds the append entry; target is gone.
  vfs::StatBuf st;
  EXPECT_EQ(w.fs->Stat("/doomed", &st), -ENOENT);
}

TEST(SplitFsCrash, RecoveredInstanceKeepsServing) {
  CrashWorld w(Mode::kStrict);
  int fd = w.fs->Open("/before", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(kBlockSize, 10);
  w.fs->Pwrite(fd, data.data(), data.size(), 0);
  w.fs->Fsync(fd);
  w.CrashAndRecover();
  // Post-recovery: new files, new staging epoch, everything functional.
  int fd2 = w.fs->Open("/after", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd2, 0);
  auto fresh = Pattern(2 * kBlockSize, 11);
  ASSERT_EQ(w.fs->Pwrite(fd2, fresh.data(), fresh.size(), 0),
            static_cast<ssize_t>(fresh.size()));
  ASSERT_EQ(w.fs->Fsync(fd2), 0);
  std::vector<uint8_t> back(fresh.size());
  ASSERT_EQ(w.fs->Pread(fd2, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, fresh);
}

// §5.3 methodology: run the same operation sequence against plain ext4-DAX and
// against SplitFS (with fsyncs), then compare the resulting file-system states.
TEST(SplitFsCorrectness, StateMatchesExt4AfterMixedWorkload) {
  sim::Context ctx_a, ctx_b;
  pmem::Device dev_a(&ctx_a, 512 * kMiB), dev_b(&ctx_b, 512 * kMiB);
  ext4sim::Ext4Dax ext4(&dev_a);
  ext4sim::Ext4Dax under(&dev_b);
  splitfs::SplitFs split(&under, SmallOpts(Mode::kPosix));

  auto drive = [](vfs::FileSystem* fs) {
    common::Rng rng(321);
    fs->Mkdir("/w");
    for (int i = 0; i < 30; ++i) {
      std::string path = "/w/f" + std::to_string(i % 7);
      int fd = fs->Open(path, vfs::kRdWr | vfs::kCreate);
      ASSERT_GE(fd, 0);
      auto data = Pattern(500 + rng.Uniform(8000), static_cast<uint8_t>(i));
      vfs::StatBuf st;
      fs->Fstat(fd, &st);
      uint64_t off = st.size > 0 && rng.OneIn(2) ? rng.Uniform(st.size) : st.size;
      ASSERT_EQ(fs->Pwrite(fd, data.data(), data.size(), off),
                static_cast<ssize_t>(data.size()));
      if (rng.OneIn(3)) {
        ASSERT_EQ(fs->Fsync(fd), 0);
      }
      ASSERT_EQ(fs->Close(fd), 0);
      if (rng.OneIn(10)) {
        fs->Rename(path, path + "x");
        fs->Rename(path + "x", path);
      }
    }
    // Final fsync pass so both systems publish everything.
    for (int i = 0; i < 7; ++i) {
      std::string path = "/w/f" + std::to_string(i);
      int fd = fs->Open(path, vfs::kRdWr);
      if (fd >= 0) {
        fs->Fsync(fd);
        fs->Close(fd);
      }
    }
  };
  drive(&ext4);
  drive(&split);

  // Compare the visible state file by file.
  std::vector<std::string> names_a, names_b;
  ASSERT_EQ(ext4.ReadDir("/w", &names_a), 0);
  ASSERT_EQ(split.ReadDir("/w", &names_b), 0);
  ASSERT_EQ(names_a, names_b);
  for (const auto& name : names_a) {
    std::string path = "/w/" + name;
    vfs::StatBuf sa, sb;
    ASSERT_EQ(ext4.Stat(path, &sa), 0);
    ASSERT_EQ(split.Stat(path, &sb), 0);
    ASSERT_EQ(sa.size, sb.size) << path;
    int fa = ext4.Open(path, vfs::kRdOnly);
    int fb = split.Open(path, vfs::kRdOnly);
    std::vector<uint8_t> ba(sa.size), bb(sb.size);
    ASSERT_EQ(ext4.Pread(fa, ba.data(), ba.size(), 0), static_cast<ssize_t>(ba.size()));
    ASSERT_EQ(split.Pread(fb, bb.data(), bb.size(), 0), static_cast<ssize_t>(bb.size()));
    EXPECT_EQ(ba, bb) << path;
    ext4.Close(fa);
    split.Close(fb);
  }
}

}  // namespace
