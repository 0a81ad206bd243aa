// Functional tests for SplitFs (U-Split): data paths, staging, relink publication,
// modes, POSIX quirks (dup/lseek/fork/exec), tunables, and resource accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/split_fs.h"

namespace {

using common::kBlockSize;
using common::kMiB;
using splitfs::Mode;
using splitfs::Options;
using splitfs::SplitFs;

Options SmallOptions(Mode mode) {
  Options o;
  o.mode = mode;
  o.num_staging_files = 2;
  o.staging_file_bytes = 4 * kMiB;
  o.oplog_bytes = 1 * kMiB;
  return o;
}

class SplitFsTest : public ::testing::TestWithParam<Mode> {
 protected:
  SplitFsTest()
      : dev_(&ctx_, 512 * kMiB),
        kfs_(&dev_),
        fs_(std::make_unique<SplitFs>(&kfs_, SmallOptions(GetParam()))) {}

  std::vector<uint8_t> Pattern(size_t n, uint8_t seed) {
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 13);
    }
    return v;
  }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
  std::unique_ptr<SplitFs> fs_;
};

INSTANTIATE_TEST_SUITE_P(AllModes, SplitFsTest,
                         ::testing::Values(Mode::kPosix, Mode::kSync, Mode::kStrict),
                         [](const auto& info) { return ModeName(info.param); });

TEST_P(SplitFsTest, WriteReadRoundTrip) {
  int fd = fs_->Open("/f", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  auto data = Pattern(3 * kBlockSize + 123, 1);
  ASSERT_EQ(fs_->Pwrite(fd, data.data(), data.size(), 0),
            static_cast<ssize_t>(data.size()));
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(fs_->Pread(fd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, data);  // Reads see staged appends before any fsync.
  EXPECT_EQ(fs_->Close(fd), 0);
}

TEST_P(SplitFsTest, AppendsAreStagedUntilFsync) {
  int fd = fs_->Open("/staged", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(2 * kBlockSize, 2);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  EXPECT_EQ(fs_->StagedBytes(), data.size());

  // The kernel file does not see the append yet...
  vfs::StatBuf kst;
  ASSERT_EQ(kfs_.Stat("/staged", &kst), 0);
  EXPECT_EQ(kst.size, 0u);
  // ...but the application does, through U-Split.
  vfs::StatBuf ust;
  ASSERT_EQ(fs_->Fstat(fd, &ust), 0);
  EXPECT_EQ(ust.size, data.size());

  ASSERT_EQ(fs_->Fsync(fd), 0);
  EXPECT_EQ(fs_->StagedBytes(), 0u);
  ASSERT_EQ(kfs_.Stat("/staged", &kst), 0);
  EXPECT_EQ(kst.size, data.size());  // Published by relink.
  EXPECT_GT(fs_->Relinks(), 0u);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, FsyncPublishesViaRelinkNotCopy) {
  int fd = fs_->Open("/nocopy", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(8 * kBlockSize, 3);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  uint64_t data_bytes_before_fsync = ctx_.stats.data_bytes();
  ASSERT_EQ(fs_->Fsync(fd), 0);
  // Block-aligned appends publish with zero additional data writes.
  EXPECT_EQ(ctx_.stats.data_bytes(), data_bytes_before_fsync);
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(fs_->Pread(fd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, data);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, UnalignedAppendPublishesCorrectly) {
  int fd = fs_->Open("/unaligned", vfs::kRdWr | vfs::kCreate);
  // Three unaligned appends: 100, 5000, 3000 bytes.
  auto a = Pattern(100, 4), b = Pattern(5000, 5), c = Pattern(3000, 6);
  fs_->Pwrite(fd, a.data(), a.size(), 0);
  fs_->Pwrite(fd, b.data(), b.size(), 100);
  fs_->Pwrite(fd, c.data(), c.size(), 5100);
  ASSERT_EQ(fs_->Fsync(fd), 0);

  std::vector<uint8_t> expect;
  expect.insert(expect.end(), a.begin(), a.end());
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), c.begin(), c.end());
  // Verify through the KERNEL view: the published file must be byte-identical.
  int kfd = kfs_.Open("/unaligned", vfs::kRdWr);
  std::vector<uint8_t> back(expect.size());
  ASSERT_EQ(kfs_.Pread(kfd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, expect);
  vfs::StatBuf st;
  kfs_.Fstat(kfd, &st);
  EXPECT_EQ(st.size, 8100u);
  kfs_.Close(kfd);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, CloseAlsoPublishesStagedAppends) {
  int fd = fs_->Open("/onclose", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(kBlockSize, 7);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  ASSERT_EQ(fs_->Close(fd), 0);
  vfs::StatBuf kst;
  ASSERT_EQ(kfs_.Stat("/onclose", &kst), 0);
  EXPECT_EQ(kst.size, data.size());
}

TEST_P(SplitFsTest, OverwriteSemanticsPerMode) {
  int fd = fs_->Open("/ow", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(4 * kBlockSize, 8);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  ASSERT_EQ(fs_->Fsync(fd), 0);

  auto patch = Pattern(kBlockSize, 9);
  ASSERT_EQ(fs_->Pwrite(fd, patch.data(), patch.size(), kBlockSize),
            static_cast<ssize_t>(patch.size()));
  if (GetParam() == Mode::kStrict) {
    // Strict: COW through staging until the next fsync.
    EXPECT_EQ(fs_->StagedBytes(), patch.size());
  } else {
    // POSIX/sync: in place, immediately visible through the kernel too.
    EXPECT_EQ(fs_->StagedBytes(), 0u);
    int kfd = kfs_.Open("/ow", vfs::kRdWr);
    std::vector<uint8_t> kback(patch.size());
    kfs_.Pread(kfd, kback.data(), kback.size(), kBlockSize);
    EXPECT_EQ(kback, patch);
    kfs_.Close(kfd);
  }
  // Either way the application reads its own writes.
  std::vector<uint8_t> back(patch.size());
  fs_->Pread(fd, back.data(), back.size(), kBlockSize);
  EXPECT_EQ(back, patch);

  ASSERT_EQ(fs_->Fsync(fd), 0);
  back.assign(patch.size(), 0);
  fs_->Pread(fd, back.data(), back.size(), kBlockSize);
  EXPECT_EQ(back, patch);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, StraddlingWriteSplitsOverwriteAndAppend) {
  int fd = fs_->Open("/straddle", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(kBlockSize, 10);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  fs_->Fsync(fd);
  // Write 2 KB starting 1 KB before EOF: half overwrite, half append.
  auto w = Pattern(2048, 11);
  ASSERT_EQ(fs_->Pwrite(fd, w.data(), w.size(), kBlockSize - 1024), 2048);
  vfs::StatBuf st;
  fs_->Fstat(fd, &st);
  EXPECT_EQ(st.size, kBlockSize + 1024);
  fs_->Fsync(fd);
  std::vector<uint8_t> back(2048);
  fs_->Pread(fd, back.data(), 2048, kBlockSize - 1024);
  EXPECT_EQ(back, w);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, ReadAcrossStagedAndPublishedData) {
  int fd = fs_->Open("/mixed", vfs::kRdWr | vfs::kCreate);
  auto first = Pattern(kBlockSize, 12);
  fs_->Pwrite(fd, first.data(), first.size(), 0);
  fs_->Fsync(fd);  // Published.
  auto second = Pattern(kBlockSize, 13);
  fs_->Pwrite(fd, second.data(), second.size(), kBlockSize);  // Staged.

  std::vector<uint8_t> back(2 * kBlockSize);
  ASSERT_EQ(fs_->Pread(fd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(0, std::memcmp(back.data(), first.data(), kBlockSize));
  EXPECT_EQ(0, std::memcmp(back.data() + kBlockSize, second.data(), kBlockSize));
  fs_->Close(fd);
}

TEST_P(SplitFsTest, CursorWriteReadAndAppendFlag) {
  int fd = fs_->Open("/cursor", vfs::kRdWr | vfs::kCreate);
  EXPECT_EQ(fs_->Write(fd, "hello", 5), 5);
  EXPECT_EQ(fs_->Write(fd, " world", 6), 6);
  EXPECT_EQ(fs_->Lseek(fd, 0, vfs::Whence::kSet), 0);
  char buf[12] = {};
  EXPECT_EQ(fs_->Read(fd, buf, 11), 11);
  EXPECT_STREQ(buf, "hello world");
  fs_->Close(fd);

  int fd2 = fs_->Open("/cursor", vfs::kWrOnly | vfs::kAppend);
  EXPECT_EQ(fs_->Write(fd2, "!", 1), 1);
  vfs::StatBuf st;
  fs_->Fstat(fd2, &st);
  EXPECT_EQ(st.size, 12u);
  fs_->Close(fd2);
}

TEST_P(SplitFsTest, DupSharesOffsetAcrossDescriptors) {
  int fd = fs_->Open("/dup", vfs::kRdWr | vfs::kCreate);
  fs_->Write(fd, "abcdef", 6);
  fs_->Lseek(fd, 0, vfs::Whence::kSet);
  int fd2 = fs_->Dup(fd);
  ASSERT_GE(fd2, 0);
  char c;
  fs_->Read(fd, &c, 1);
  EXPECT_EQ(c, 'a');
  fs_->Read(fd2, &c, 1);
  EXPECT_EQ(c, 'b');  // §3.5: both threads see the shared offset move.
  fs_->Close(fd2);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, UnlinkDropsCachesAndFile) {
  int fd = fs_->Open("/gone", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(kBlockSize, 14);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  fs_->Fsync(fd);
  fs_->Close(fd);
  ASSERT_EQ(fs_->Unlink("/gone"), 0);
  vfs::StatBuf st;
  EXPECT_EQ(fs_->Stat("/gone", &st), -ENOENT);
  EXPECT_EQ(kfs_.Stat("/gone", &st), -ENOENT);
  // Reopen with create starts fresh.
  fd = fs_->Open("/gone", vfs::kRdWr | vfs::kCreate);
  fs_->Fstat(fd, &st);
  EXPECT_EQ(st.size, 0u);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, TruncateInteractsWithStagedData) {
  int fd = fs_->Open("/trunc", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(2 * kBlockSize, 15);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  ASSERT_EQ(fs_->Ftruncate(fd, 100), 0);
  vfs::StatBuf st;
  fs_->Fstat(fd, &st);
  EXPECT_EQ(st.size, 100u);
  std::vector<uint8_t> back(100);
  ASSERT_EQ(fs_->Pread(fd, back.data(), 100, 0), 100);
  EXPECT_EQ(0, std::memcmp(back.data(), data.data(), 100));
  fs_->Close(fd);
}

TEST_P(SplitFsTest, OpenTruncResetsFile) {
  int fd = fs_->Open("/ot", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(kBlockSize, 16);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  fs_->Fsync(fd);
  fs_->Close(fd);
  int fd2 = fs_->Open("/ot", vfs::kRdWr | vfs::kTrunc);
  vfs::StatBuf st;
  fs_->Fstat(fd2, &st);
  EXPECT_EQ(st.size, 0u);
  EXPECT_EQ(fs_->Pread(fd2, data.data(), 10, 0), 0);
  fs_->Close(fd2);
}

TEST_P(SplitFsTest, TruncateDropsTheMappingsOfEveryFreedBlock) {
  // K-Split frees every block up to the old size's block end. A mapping left over one
  // of them routes a later in-place overwrite (POSIX/sync) into the freed block,
  // where K-Split no longer reads: O_TRUNC kept [5000, 8 KiB) of a 5000-byte file,
  // and Ftruncate also kept [100, 4 KiB) of a 100-byte one.
  struct Case {
    const char* path;
    uint64_t size;
    bool o_trunc;
  };
  for (const Case& c : {Case{"/ftrunc5000", 5000, false}, Case{"/otrunc5000", 5000, true},
                        Case{"/ftrunc100", 100, false}}) {
    SCOPED_TRACE(c.path);
    int fd = fs_->Open(c.path, vfs::kRdWr | vfs::kCreate);
    auto data = Pattern(c.size, 23);
    ASSERT_EQ(fs_->Pwrite(fd, data.data(), data.size(), 0), static_cast<ssize_t>(c.size));
    ASSERT_EQ(fs_->Fsync(fd), 0);
    ASSERT_EQ(fs_->Pread(fd, data.data(), data.size(), 0), static_cast<ssize_t>(c.size));
    if (c.o_trunc) {
      ASSERT_EQ(fs_->Close(fd), 0);
      fd = fs_->Open(c.path, vfs::kRdWr | vfs::kTrunc);
      ASSERT_GE(fd, 0);
    } else {
      ASSERT_EQ(fs_->Ftruncate(fd, 0), 0);
    }
    kfs_.CommitJournal(/*fsync_barrier=*/false);  // The freed blocks are reusable now.
    ASSERT_EQ(fs_->Fallocate(fd, 0, 12 * common::kKiB, /*keep_size=*/false), 0);
    auto patch = Pattern(8, 24);
    ASSERT_EQ(fs_->Pwrite(fd, patch.data(), patch.size(), c.size + 8), 8);
    ASSERT_EQ(fs_->Fsync(fd), 0);
    int kfd = kfs_.Open(c.path, vfs::kRdWr);
    std::vector<uint8_t> back(patch.size());
    ASSERT_EQ(kfs_.Pread(kfd, back.data(), back.size(), c.size + 8), 8);
    EXPECT_EQ(back, patch);  // The kernel view holds the overwrite.
    kfs_.Close(kfd);
    fs_->Close(fd);
  }
}

TEST_P(SplitFsTest, RenamePreservesCachedState) {
  int fd = fs_->Open("/old", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(1000, 17);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  fs_->Fsync(fd);
  fs_->Close(fd);
  ASSERT_EQ(fs_->Rename("/old", "/new"), 0);
  vfs::StatBuf st;
  EXPECT_EQ(fs_->Stat("/old", &st), -ENOENT);
  ASSERT_EQ(fs_->Stat("/new", &st), 0);
  EXPECT_EQ(st.size, 1000u);
  int fd2 = fs_->Open("/new", vfs::kRdWr);
  std::vector<uint8_t> back(1000);
  ASSERT_EQ(fs_->Pread(fd2, back.data(), 1000, 0), 1000);
  EXPECT_EQ(back, data);
  fs_->Close(fd2);
}

TEST_P(SplitFsTest, RenameOverCachedDestinationTearsDownDisplacedState) {
  // Both source and destination cached: the displaced destination's state must be
  // torn down like Unlink's — staged bytes back to the pool, descriptors defunct —
  // not left live in the shards (a state/fd/staged-bytes leak otherwise).
  int dfd = fs_->Open("/victim", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(dfd, 0);
  auto staged = Pattern(1000, 31);
  // Append stays staged (no fsync): it must die with the displaced file.
  ASSERT_EQ(fs_->Pwrite(dfd, staged.data(), staged.size(), 0),
            static_cast<ssize_t>(staged.size()));
  EXPECT_GT(fs_->StagedBytes(), 0u);
  int sfd = fs_->Open("/winner", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(sfd, 0);
  auto data = Pattern(500, 32);
  ASSERT_EQ(fs_->Pwrite(sfd, data.data(), data.size(), 0),
            static_cast<ssize_t>(data.size()));
  ASSERT_EQ(fs_->Fsync(sfd), 0);
  ASSERT_EQ(fs_->Close(sfd), 0);

  ASSERT_EQ(fs_->Rename("/winner", "/victim"), 0);
  EXPECT_EQ(fs_->StagedBytes(), 0u);          // Displaced staged data released.
  std::vector<uint8_t> back(staged.size());
  EXPECT_EQ(fs_->Pread(dfd, back.data(), back.size(), 0), -EBADF);  // Defunct.
  fs_->Close(dfd);
  vfs::StatBuf st;
  ASSERT_EQ(fs_->Stat("/victim", &st), 0);
  EXPECT_EQ(st.size, data.size());
  int fd2 = fs_->Open("/victim", vfs::kRdWr);
  back.resize(data.size());
  ASSERT_EQ(fs_->Pread(fd2, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, data);
  fs_->Close(fd2);
}

TEST_P(SplitFsTest, SequentialAppendsCoalesceIntoFewRelinks) {
  int fd = fs_->Open("/seq", vfs::kRdWr | vfs::kCreate);
  auto block = Pattern(kBlockSize, 18);
  for (int i = 0; i < 64; ++i) {
    fs_->Pwrite(fd, block.data(), kBlockSize, static_cast<uint64_t>(i) * kBlockSize);
  }
  uint64_t relinks_before = fs_->Relinks();
  ASSERT_EQ(fs_->Fsync(fd), 0);
  // 64 sequential appends merge into a handful of contiguous staged runs.
  EXPECT_LE(fs_->Relinks() - relinks_before, 4u);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, StagingPoolReplenishesInBackground) {
  int fd = fs_->Open("/big", vfs::kRdWr | vfs::kCreate);
  // Write more than the two initial 4 MB staging files can hold.
  auto chunk = Pattern(64 * common::kKiB, 19);
  uint64_t off = 0;
  for (int i = 0; i < 200; ++i) {  // 12.5 MB total.
    ASSERT_EQ(fs_->Pwrite(fd, chunk.data(), chunk.size(), off),
              static_cast<ssize_t>(chunk.size()));
    off += chunk.size();
  }
  EXPECT_GT(fs_->staging_pool().FilesCreated(), 2u);
  EXPECT_GT(fs_->staging_pool().BackgroundCreations(), 0u);
  ASSERT_EQ(fs_->Fsync(fd), 0);
  // Spot-check contents.
  std::vector<uint8_t> back(chunk.size());
  ASSERT_EQ(fs_->Pread(fd, back.data(), back.size(), 100 * chunk.size()),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, chunk);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, StatHidesRuntimeDirAndShowsStagedSize) {
  int fd = fs_->Open("/visible", vfs::kRdWr | vfs::kCreate);
  fs_->Pwrite(fd, "xyz", 3, 0);
  vfs::StatBuf st;
  ASSERT_EQ(fs_->Stat("/visible", &st), 0);
  EXPECT_EQ(st.size, 3u);  // Staged append included.
  std::vector<std::string> names;
  ASSERT_EQ(fs_->ReadDir("/", &names), 0);
  for (const auto& n : names) {
    EXPECT_NE("/" + n, fs_->kernel_fs() ? ".splitfs" : "");  // No runtime dir leak.
    EXPECT_NE(n, ".splitfs");
  }
  fs_->Close(fd);
}

TEST_P(SplitFsTest, ForkChildInheritsState) {
  int fd = fs_->Open("/forked", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(kBlockSize, 20);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  fs_->Fsync(fd);

  auto child = fs_->CloneForFork("child");
  int cfd = child->Open("/forked", vfs::kRdWr);
  ASSERT_GE(cfd, 0);
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(child->Pread(cfd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, data);
  child->Close(cfd);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, ExecStateCarriesOverViaShmBlob) {
  int fd = fs_->Open("/execed", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(2000, 21);
  fs_->Pwrite(fd, data.data(), data.size(), 0);
  fs_->Fsync(fd);

  std::vector<uint8_t> blob = fs_->SaveForExec();
  auto restored = SplitFs::RestoreAfterExec(&kfs_, SmallOptions(GetParam()),
                                            "after-exec", blob);
  int rfd = restored->Open("/execed", vfs::kRdWr);
  ASSERT_GE(rfd, 0);
  vfs::StatBuf st;
  restored->Fstat(rfd, &st);
  EXPECT_EQ(st.size, 2000u);
  std::vector<uint8_t> back(2000);
  ASSERT_EQ(restored->Pread(rfd, back.data(), 2000, 0), 2000);
  EXPECT_EQ(back, data);
  restored->Close(rfd);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, ExecCarriesOverUnsyncedStagedAppends) {
  // The staged runs die with the pre-exec address space, but the saved size counts
  // them: unless SaveForExec publishes first, the restored instance reads zeros.
  int fd = fs_->Open("/exec-staged", vfs::kRdWr | vfs::kCreate);
  auto data = Pattern(3000, 25);
  ASSERT_EQ(fs_->Pwrite(fd, data.data(), data.size(), 0), 3000);  // No fsync.

  std::vector<uint8_t> blob = fs_->SaveForExec();
  auto restored = SplitFs::RestoreAfterExec(&kfs_, SmallOptions(GetParam()),
                                            "after-exec", blob);
  int rfd = restored->Open("/exec-staged", vfs::kRdWr);
  ASSERT_GE(rfd, 0);
  std::vector<uint8_t> back(data.size());
  ASSERT_EQ(restored->Pread(rfd, back.data(), back.size(), 0), 3000);
  EXPECT_EQ(back, data);
  restored->Close(rfd);
  fs_->Close(fd);
}

TEST_P(SplitFsTest, MemoryUsageIsBoundedAndReported) {
  for (int i = 0; i < 50; ++i) {
    std::string path = "/mem" + std::to_string(i);
    int fd = fs_->Open(path, vfs::kRdWr | vfs::kCreate);
    auto data = Pattern(kBlockSize, static_cast<uint8_t>(i));
    fs_->Pwrite(fd, data.data(), data.size(), 0);
    fs_->Fsync(fd);
    fs_->Close(fd);
  }
  uint64_t usage = fs_->MemoryUsageBytes();
  EXPECT_GT(usage, 0u);
  EXPECT_LT(usage, 100 * kMiB);  // §5.10: U-Split metadata stays under 100 MB.
}

// --- Mode-specific behaviour ---------------------------------------------------------------

TEST(SplitFsModes, StrictLogsOneEntryPerDataOp) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 512 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  SplitFs fs(&kfs, SmallOptions(Mode::kStrict));
  int fd = fs.Open("/logged", vfs::kRdWr | vfs::kCreate);
  auto block = std::vector<uint8_t>(kBlockSize, 7);
  uint64_t entries0 = fs.OpLogEntries();
  for (int i = 0; i < 10; ++i) {
    fs.Pwrite(fd, block.data(), kBlockSize, static_cast<uint64_t>(i) * kBlockSize);
  }
  EXPECT_EQ(fs.OpLogEntries() - entries0, 10u);
  fs.Close(fd);
}

TEST(SplitFsModes, PosixAndSyncDoNotLog) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 512 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  for (Mode m : {Mode::kPosix, Mode::kSync}) {
    SplitFs fs(&kfs, SmallOptions(m), std::string("nl-") + ModeName(m));
    std::string path = std::string("/nolog-") + ModeName(m);
    int fd = fs.Open(path, vfs::kRdWr | vfs::kCreate);
    auto block = std::vector<uint8_t>(kBlockSize, 7);
    fs.Pwrite(fd, block.data(), kBlockSize, 0);
    EXPECT_EQ(fs.OpLogEntries(), 0u);
    fs.Close(fd);
  }
}

TEST(SplitFsModes, OpLogCheckpointsWhenFull) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 512 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  Options o = SmallOptions(Mode::kStrict);
  o.oplog_bytes = 64 * 1024;  // 1024 entries.
  SplitFs fs(&kfs, o);
  int fd = fs.Open("/ckpt", vfs::kRdWr | vfs::kCreate);
  std::vector<uint8_t> cell(64, 1);
  for (int i = 0; i < 1500; ++i) {
    fs.Pwrite(fd, cell.data(), cell.size(), static_cast<uint64_t>(i) * cell.size());
  }
  EXPECT_GE(fs.Checkpoints(), 1u);
  // Data survives the checkpoint.
  std::vector<uint8_t> back(64);
  ASSERT_EQ(fs.Pread(fd, back.data(), 64, 700 * 64), 64);
  EXPECT_EQ(back, cell);
  fs.Close(fd);
}

TEST(SplitFsModes, ConcurrentInstancesWithDifferentModes) {
  // §3.2: applications with different consistency modes share one file system.
  sim::Context ctx;
  pmem::Device dev(&ctx, 768 * kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  SplitFs posix_app(&kfs, SmallOptions(Mode::kPosix), "app-posix");
  SplitFs strict_app(&kfs, SmallOptions(Mode::kStrict), "app-strict");

  int fd1 = posix_app.Open("/shared-posix", vfs::kRdWr | vfs::kCreate);
  int fd2 = strict_app.Open("/shared-strict", vfs::kRdWr | vfs::kCreate);
  std::vector<uint8_t> a(kBlockSize, 0xA1), b(kBlockSize, 0xB2);
  posix_app.Pwrite(fd1, a.data(), a.size(), 0);
  strict_app.Pwrite(fd2, b.data(), b.size(), 0);
  posix_app.Fsync(fd1);
  strict_app.Fsync(fd2);

  // Cross-visibility after publication: each instance can read the other's file.
  int x1 = strict_app.Open("/shared-posix", vfs::kRdWr);
  std::vector<uint8_t> back(kBlockSize);
  ASSERT_EQ(strict_app.Pread(x1, back.data(), back.size(), 0),
            static_cast<ssize_t>(kBlockSize));
  EXPECT_EQ(back, a);
  strict_app.Close(x1);
  posix_app.Close(fd1);
  strict_app.Close(fd2);
}

// --- Tunables (§3.6) -------------------------------------------------------------------------

TEST(SplitFsTunables, LargerMmapSizeFewerRegions) {
  for (uint64_t mmap_size : {2 * kMiB, 16 * kMiB}) {
    sim::Context ctx;
    pmem::Device dev(&ctx, 512 * kMiB);
    ext4sim::Ext4Dax kfs(&dev);
    Options o = SmallOptions(Mode::kPosix);
    o.mmap_size = mmap_size;
    SplitFs fs(&kfs, o);
    int fd = fs.Open("/span", vfs::kRdWr | vfs::kCreate);
    std::vector<uint8_t> data(8 * kMiB, 5);
    fs.Pwrite(fd, data.data(), data.size(), 0);
    fs.Fsync(fd);
    // Force reads through mmaps across the whole file.
    std::vector<uint8_t> back(data.size());
    fs.Pread(fd, back.data(), back.size(), 0);
    EXPECT_EQ(back, data);
    fs.Close(fd);
  }
}

}  // namespace
