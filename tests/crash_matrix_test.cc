// Crash-state matrix: store/fence-granular failure injection with recovery oracles
// across SplitFS (all three consistency modes) and the NOVA/PMFS/Strata baselines.
//
// Each crash state is one (workload, crash point, drain fate) triple: a fresh world
// re-executes the deterministic workload, power is cut at the exact store/fence, the
// un-fenced stores are dropped / subset-drained / torn, recovery remounts, and the
// oracles of src/crash/oracles.h validate durability, atomicity, integrity, and
// post-recovery service.
//
// Tests whose names contain "Smoke" form the quick subset (ctest -L crash_smoke);
// the full matrix is labeled crash_matrix so fast iterations can exclude it
// (ctest -LE crash_matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "src/crash/crash_runner.h"
#include "src/ext4/fsck.h"
#include "src/tenant/tenant_router.h"

namespace {

using crash::CrashRunner;
using crash::FatePolicy;
using crash::Guarantees;
using crash::MatrixStats;
using crash::RunnerConfig;

constexpr uint64_t kSeed = 20190727;  // Fixed: the whole matrix is reproducible.

Guarantees GuaranteesFor(splitfs::Mode mode) {
  switch (mode) {
    case splitfs::Mode::kPosix:
      return Guarantees::SplitFsPosix();
    case splitfs::Mode::kSync:
      return Guarantees::SplitFsSync();
    case splitfs::Mode::kStrict:
      return Guarantees::SplitFsStrict();
  }
  return Guarantees::SplitFsPosix();
}

void ExpectClean(const MatrixStats& stats, const std::string& what) {
  EXPECT_EQ(stats.oracle_failures, 0u) << what << ": " << stats.oracle_failures
                                       << " failing crash states";
  for (const std::string& f : stats.failures) {
    ADD_FAILURE() << what << ": " << f;
  }
}

TEST(CrashMatrixSmoke, StrictAppendSurvivesInjection) {
  RunnerConfig cfg;
  cfg.seed = kSeed;
  cfg.max_fence_points = 4;
  cfg.max_store_points = 2;
  cfg.fates = {FatePolicy::kDropAll, FatePolicy::kTorn};
  CrashRunner runner(crash::SplitFsWorldFactory(splitfs::Mode::kStrict),
                     crash::MakeAppendScript(kSeed), Guarantees::SplitFsStrict(), cfg);
  MatrixStats stats = runner.Run();
  EXPECT_GE(stats.crash_states, 8u);
  ExpectClean(stats, "strict/append");
}

TEST(CrashMatrixSmoke, DeterministicUnderFixedSeed) {
  RunnerConfig cfg;
  cfg.seed = kSeed;
  cfg.max_fence_points = 3;
  cfg.max_store_points = 1;
  cfg.fates = {FatePolicy::kSubset, FatePolicy::kTorn};
  auto run = [&cfg] {
    CrashRunner runner(crash::SplitFsWorldFactory(splitfs::Mode::kStrict),
                       crash::MakeOverwriteScript(kSeed),
                       Guarantees::SplitFsStrict(), cfg);
    return runner.Run();
  };
  MatrixStats a = run();
  MatrixStats b = run();
  EXPECT_EQ(a.crash_states, b.crash_states);
  EXPECT_EQ(a.oracle_failures, b.oracle_failures);
  EXPECT_EQ(a.fingerprint, b.fingerprint);  // Byte-identical recovered states.
  EXPECT_EQ(a.failures, b.failures);
}

// The acceptance matrix: >= 100 distinct crash states across
// {posix, sync, strict} x {append, overwrite, rename} on SplitFS.
TEST(CrashMatrix, SplitFsModesTimesWorkloads) {
  uint64_t total_states = 0;
  for (splitfs::Mode mode :
       {splitfs::Mode::kPosix, splitfs::Mode::kSync, splitfs::Mode::kStrict}) {
    for (const auto& script : crash::AllScripts(kSeed)) {
      RunnerConfig cfg;
      cfg.seed = kSeed;
      CrashRunner runner(crash::SplitFsWorldFactory(mode), script,
                         GuaranteesFor(mode), cfg);
      MatrixStats stats = runner.Run();
      total_states += stats.crash_states;
      ExpectClean(stats, std::string(splitfs::ModeName(mode)) + "/" + script.name);
      EXPECT_GT(stats.fence_points, 0u);
      EXPECT_GT(stats.store_points, 0u);
    }
  }
  EXPECT_GE(total_states, 100u);
}

// Regression: op-log replay must honor logged truncate ordering. The core relink of
// a published entry skips on holes, but its partial-block head copy would happily
// re-write bytes a later truncate removed — recovery must not resurrect them.
TEST(CrashMatrixSmoke, TruncateAfterStagedAppendsDoesNotResurrect) {
  auto w = crash::SplitFsWorldFactory(splitfs::Mode::kStrict)();
  w->dev->EnableCrashTracking(true);
  int fd = w->fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(w->fs->Fsync(fd), 0);
  std::vector<uint8_t> a(9000, 0x77);
  ASSERT_EQ(w->fs->Pwrite(fd, a.data(), a.size(), 0), static_cast<ssize_t>(a.size()));
  ASSERT_EQ(w->fs->Close(fd), 0);  // Publishes.
  fd = w->fs->Open("/f", vfs::kRdWr | vfs::kCreate);
  std::vector<uint8_t> b(5000, 0x33);
  ASSERT_EQ(w->fs->Pwrite(fd, b.data(), b.size(), 9000),
            static_cast<ssize_t>(b.size()));
  ASSERT_GE(w->fs->Open("/f", vfs::kRdWr | vfs::kTrunc), 0);  // Discards everything.
  w->dev->Crash();
  ASSERT_EQ(w->RecoverAll(), 0);
  vfs::StatBuf sb;
  ASSERT_EQ(w->fs->Stat("/f", &sb), 0);
  EXPECT_EQ(sb.size, 0u) << "replay resurrected truncated data";
}

// --- Async relink column ----------------------------------------------------------------
// The same mode × workload sweep with Options::async_relink on (deterministic inline
// publisher): fsync fences intent records before the publish runs, so injected
// crashes land between the intent fence and the relinks/commit. Recovery must land
// on the staged contents (intent replay re-relinks them) or the published contents —
// never a torn mix — and fsck must stay clean.

TEST(CrashMatrixSmoke, AsyncRelinkIntentWindowSurvivesInjection) {
  RunnerConfig cfg;
  cfg.seed = kSeed;
  cfg.max_fence_points = 4;
  cfg.max_store_points = 2;
  cfg.fates = {FatePolicy::kDropAll, FatePolicy::kTorn};
  CrashRunner runner(crash::SplitFsWorldFactory(splitfs::Mode::kPosix,
                                                /*async_relink=*/true),
                     crash::MakeAppendScript(kSeed), Guarantees::SplitFsPosix(), cfg);
  MatrixStats stats = runner.Run();
  EXPECT_GE(stats.crash_states, 8u);
  ExpectClean(stats, "posix+async/append");
}

TEST(CrashMatrixSmoke, AsyncRelinkDeterministicUnderFixedSeed) {
  RunnerConfig cfg;
  cfg.seed = kSeed;
  cfg.max_fence_points = 3;
  cfg.max_store_points = 1;
  cfg.fates = {FatePolicy::kSubset, FatePolicy::kTorn};
  auto run = [&cfg] {
    CrashRunner runner(crash::SplitFsWorldFactory(splitfs::Mode::kSync,
                                                  /*async_relink=*/true),
                       crash::MakeAppendScript(kSeed), Guarantees::SplitFsSync(), cfg);
    return runner.Run();
  };
  MatrixStats a = run();
  MatrixStats b = run();
  EXPECT_EQ(a.crash_states, b.crash_states);
  EXPECT_EQ(a.fingerprint, b.fingerprint);  // Inline publisher: byte-identical.
  EXPECT_EQ(a.failures, b.failures);
}

// The async contract end-to-end: an async-relink fsync's durability point is its
// intent fence. A power cut at the next fence — after the staged data and the one
// intent entry are fenced, before any relink store — must still recover the
// acknowledged bytes: recovery replays the intents. (Also the regression test for
// the recovery-scan bug that silently discarded intent records: op codes above
// kRenameTo failed structural validation, so exactly the entries that make an
// acknowledged-but-unpublished fsync recoverable were dropped.)
TEST(CrashMatrixSmoke, IntentsAloneRecoverAnAsyncFsync) {
  for (splitfs::Mode mode : {splitfs::Mode::kPosix, splitfs::Mode::kSync}) {
    SCOPED_TRACE(splitfs::ModeName(mode));
    std::unique_ptr<crash::World> w =
        crash::SplitFsWorldFactory(mode, /*async_relink=*/true)();
    w->dev->EnableCrashTracking(true);
    vfs::FileSystem* fs = w->fs.get();
    int fd = fs->Open("/acked", vfs::kRdWr | vfs::kCreate);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(fs->Fsync(fd), 0);  // The create itself is durable.
    std::vector<uint8_t> data(6000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(0x11 ^ (i * 13));
    }
    ASSERT_EQ(fs->Pwrite(fd, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
    // The fsync's fences: #0 drains the staged data, #1 persists the intent entry
    // (the ack), #2 opens the publish, ahead of every relink store.
    crash::CrashInjector injector(
        {crash::CrashPoint::Trigger::kAtFence, w->dev->FenceEpoch() + 2});
    w->dev->SetObserver(&injector);
    bool crashed = false;
    try {
      fs->Fsync(fd);
    } catch (const crash::CrashSignal&) {
      crashed = true;
    }
    w->dev->SetObserver(nullptr);
    ASSERT_TRUE(crashed);

    w->dev->CrashWith(crash::MakeFate(FatePolicy::kDropAll, kSeed));
    ASSERT_EQ(w->RecoverAll(), 0);
    int rfd = fs->Open("/acked", vfs::kRdOnly);
    ASSERT_GE(rfd, 0);
    vfs::StatBuf st;
    ASSERT_EQ(fs->Fstat(rfd, &st), 0);
    EXPECT_EQ(st.size, data.size());
    std::vector<uint8_t> back(data.size());
    ASSERT_EQ(fs->Pread(rfd, back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(back, data);
    fs->Close(rfd);
    ext4sim::FsckReport fsck = ext4sim::RunFsck(w->kfs.get());
    for (const auto& p : fsck.problems) {
      ADD_FAILURE() << p;
    }
  }
}

TEST(CrashMatrix, AsyncRelinkModesTimesWorkloads) {
  uint64_t total_states = 0;
  for (splitfs::Mode mode :
       {splitfs::Mode::kPosix, splitfs::Mode::kSync, splitfs::Mode::kStrict}) {
    for (const auto& script : crash::AllScripts(kSeed)) {
      RunnerConfig cfg;
      cfg.seed = kSeed;
      CrashRunner runner(crash::SplitFsWorldFactory(mode, /*async_relink=*/true),
                         script, GuaranteesFor(mode), cfg);
      MatrixStats stats = runner.Run();
      total_states += stats.crash_states;
      ExpectClean(stats, std::string(splitfs::ModeName(mode)) + "+async/" + script.name);
    }
  }
  EXPECT_GE(total_states, 100u);
}

// --- jbd2 commit pipeline column --------------------------------------------------------
// The pipelined journal creates a crash state the script-driven matrix cannot reach
// single-threaded: power cut mid-writeout of T_n while T_{n+1} already holds live
// mutations. The mid-writeout hook stages exactly that window — T_n creates and
// fills a file, T_{n+1} (populated after the seal, barrier released) renames it and
// creates another — and the injector cuts the writeout at a chosen journal store.
// Recovery must roll back the running T_{n+1} first, then the unsealed T_n, newest
// mutation first; rolling back T_n first would leave T_{n+1}'s rename undo pointing
// a resurrected dirent at an erased inode, which fsck flags as a dangling entry.

struct PipelineCrashOutcome {
  bool crashed = false;
  bool fsck_clean = false;
  uint64_t free_blocks = 0;
  uint64_t fingerprint = 0;  // Stat results of every involved path.
};

PipelineCrashOutcome RunPipelineCrashState(uint64_t store_ordinal,
                                           crash::FatePolicy fate, uint64_t seed) {
  PipelineCrashOutcome out;
  sim::Context ctx;
  pmem::Device dev(&ctx, 64 * common::kMiB);
  ext4sim::Ext4Dax fs(&dev);
  dev.EnableCrashTracking(true);

  // Durable base state.
  int base = fs.Open("/base", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(base >= 0);
  std::vector<uint8_t> img(6000, 0x5C);
  SPLITFS_CHECK(fs.Pwrite(base, img.data(), img.size(), 0) ==
                static_cast<ssize_t>(img.size()));
  SPLITFS_CHECK(fs.CommitJournal(/*fsync_barrier=*/false) == 0);
  dev.Fence();

  // T_n: create + fill a file; its commit is the writeout the crash will cut.
  int fd = fs.Open("/tn", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  std::vector<uint8_t> data(5000, 0xA1);
  SPLITFS_CHECK(fs.Pwrite(fd, data.data(), data.size(), 0) ==
                static_cast<ssize_t>(data.size()));

  crash::CrashInjector injector(
      {crash::CrashPoint::Trigger::kAfterStore, store_ordinal});
  fs.journal_for_test()->SetMidWriteoutHookForTest([&fs, &dev, &injector] {
    // T_{n+1}: mutations stacked on T_n's state while its writeout is in flight.
    SPLITFS_CHECK(fs.Rename("/tn", "/tn-renamed") == 0);
    SPLITFS_CHECK(fs.Open("/tq", vfs::kRdWr | vfs::kCreate) >= 0);
    dev.SetObserver(&injector);  // Arm: ordinal 0 = first writeout store.
  });
  try {
    fs.CommitJournal(/*fsync_barrier=*/true);
  } catch (const crash::CrashSignal&) {
    out.crashed = true;
  }
  dev.SetObserver(nullptr);
  fs.journal_for_test()->SetMidWriteoutHookForTest(nullptr);
  if (!out.crashed) {
    return out;
  }

  dev.CrashWith(crash::MakeFate(fate, seed | 1));
  SPLITFS_CHECK(fs.Recover() == 0);

  ext4sim::FsckReport fsck = ext4sim::RunFsck(&fs);
  out.fsck_clean = fsck.clean;
  for (const std::string& p : fsck.problems) {
    ADD_FAILURE() << "pipeline crash @ store#" << store_ordinal << "/"
                  << crash::FateName(fate) << ": " << p;
  }
  out.free_blocks = fs.FreeBlocks();
  uint64_t fp = 14695981039346656037ull;
  auto mix = [&fp](uint64_t v) { fp = (fp ^ v) * 1099511628211ull; };
  for (const char* p : {"/base", "/tn", "/tn-renamed", "/tq"}) {
    vfs::StatBuf sb;
    mix(fs.Stat(p, &sb) == 0 ? sb.size : ~0ull);
  }
  out.fingerprint = fp;

  // Neither transaction reached its commit record: everything above the base
  // state rolls back, under every drain fate.
  vfs::StatBuf sb;
  EXPECT_EQ(fs.Stat("/base", &sb), 0);
  EXPECT_EQ(sb.size, 6000u);
  EXPECT_EQ(fs.Stat("/tn", &sb), -ENOENT);
  EXPECT_EQ(fs.Stat("/tn-renamed", &sb), -ENOENT);
  EXPECT_EQ(fs.Stat("/tq", &sb), -ENOENT);
  return out;
}

TEST(CrashMatrixSmoke, MidWriteoutCrashWithLiveNextTransactionRecovers) {
  int crashed_states = 0;
  // T_n dirtied >= 3 metadata blocks, so the writeout spans >= 5 journal stores;
  // sweep the cut across the descriptor, metadata, and commit-record stores.
  for (uint64_t store = 0; store < 4; ++store) {
    for (crash::FatePolicy fate : {FatePolicy::kDropAll, FatePolicy::kTorn}) {
      PipelineCrashOutcome out = RunPipelineCrashState(store, fate, kSeed);
      ASSERT_TRUE(out.crashed) << "store#" << store << " never reached";
      EXPECT_TRUE(out.fsck_clean);
      ++crashed_states;
    }
  }
  EXPECT_EQ(crashed_states, 8);
}

TEST(CrashMatrixSmoke, MidWriteoutCrashStatesAreDeterministic) {
  for (crash::FatePolicy fate : {FatePolicy::kSubset, FatePolicy::kTorn}) {
    PipelineCrashOutcome a = RunPipelineCrashState(2, fate, kSeed);
    PipelineCrashOutcome b = RunPipelineCrashState(2, fate, kSeed);
    ASSERT_TRUE(a.crashed);
    ASSERT_TRUE(b.crashed);
    EXPECT_EQ(a.fsck_clean, b.fsck_clean);
    EXPECT_EQ(a.free_blocks, b.free_blocks);
    EXPECT_EQ(a.fingerprint, b.fingerprint);  // Byte-identical recovered states.
  }
}

// --- Coalescing / checkpoint / batched-publish column -----------------------------------
// The journal's commit-coalescing window, modeled checkpoint writeback, and the
// batched publisher each open crash states the earlier columns cannot reach: a
// power cut inside the delay window (two operations merged into ONE tid must roll
// back together), a cut inside checkpoint writeback (only the journal region is
// being rewritten — committed state must survive untouched), and a cut inside a
// batched publish (N files' relinks riding one commit that never lands).

struct CoalesceCrashOutcome {
  bool crashed = false;
  bool fsck_clean = false;
  uint64_t fingerprint = 0;
};

CoalesceCrashOutcome RunCoalescingWindowCrashState(uint64_t store_ordinal,
                                                   crash::FatePolicy fate,
                                                   uint64_t seed) {
  CoalesceCrashOutcome out;
  sim::Context ctx;
  pmem::Device dev(&ctx, 64 * common::kMiB);
  ext4sim::Ext4Options eo;
  eo.commit_interval_ns = 200'000;  // Every commit holds a window open.
  ext4sim::Ext4Dax fs(&dev, eo);
  dev.EnableCrashTracking(true);

  int base = fs.Open("/base", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(base >= 0);
  std::vector<uint8_t> img(6000, 0x5C);
  SPLITFS_CHECK(fs.Pwrite(base, img.data(), img.size(), 0) ==
                static_cast<ssize_t>(img.size()));
  SPLITFS_CHECK(fs.CommitJournal(/*fsync_barrier=*/false) == 0);
  dev.Fence();

  // First operation: create + fill, then fsync. The fsync's committer opens the
  // coalescing window; the hook below runs inside it, with the running
  // transaction still accepting handles.
  int fd = fs.Open("/wa", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  std::vector<uint8_t> data(5000, 0xB4);
  SPLITFS_CHECK(fs.Pwrite(fd, data.data(), data.size(), 0) ==
                static_cast<ssize_t>(data.size()));

  crash::CrashInjector injector(
      {crash::CrashPoint::Trigger::kAfterStore, store_ordinal});
  fs.journal_for_test()->SetCommitWindowHookForTest([&fs, &dev, &injector] {
    // Second operation lands inside the window: it joins the SAME tid the
    // committer is about to seal — the merge coalescing buys. The cut then
    // falls in that merged transaction's writeout.
    SPLITFS_CHECK(fs.Open("/wb", vfs::kRdWr | vfs::kCreate) >= 0);
    dev.SetObserver(&injector);
  });
  try {
    fs.CommitJournal(/*fsync_barrier=*/true);
  } catch (const crash::CrashSignal&) {
    out.crashed = true;
  }
  dev.SetObserver(nullptr);
  fs.journal_for_test()->SetCommitWindowHookForTest(nullptr);
  if (!out.crashed) {
    return out;
  }

  dev.CrashWith(crash::MakeFate(fate, seed | 1));
  SPLITFS_CHECK(fs.Recover() == 0);
  ext4sim::FsckReport fsck = ext4sim::RunFsck(&fs);
  out.fsck_clean = fsck.clean;
  for (const std::string& p : fsck.problems) {
    ADD_FAILURE() << "coalesce crash @ store#" << store_ordinal << "/"
                  << crash::FateName(fate) << ": " << p;
  }
  uint64_t fp = 14695981039346656037ull;
  auto mix = [&fp](uint64_t v) { fp = (fp ^ v) * 1099511628211ull; };
  for (const char* p : {"/base", "/wa", "/wb"}) {
    vfs::StatBuf sb;
    mix(fs.Stat(p, &sb) == 0 ? sb.size : ~0ull);
  }
  out.fingerprint = fp;

  // The merged tid never reached its commit record: BOTH window-mates roll back
  // together. A survivor of either would mean the merge split durability.
  vfs::StatBuf sb;
  EXPECT_EQ(fs.Stat("/base", &sb), 0);
  EXPECT_EQ(sb.size, 6000u);
  EXPECT_EQ(fs.Stat("/wa", &sb), -ENOENT);
  EXPECT_EQ(fs.Stat("/wb", &sb), -ENOENT);
  return out;
}

TEST(CrashMatrixSmoke, PowerCutInsideCoalescingWindowRollsBackMergedTids) {
  int crashed_states = 0;
  for (uint64_t store = 0; store < 3; ++store) {
    for (crash::FatePolicy fate : {FatePolicy::kDropAll, FatePolicy::kTorn}) {
      CoalesceCrashOutcome out = RunCoalescingWindowCrashState(store, fate, kSeed);
      ASSERT_TRUE(out.crashed) << "store#" << store << " never reached";
      EXPECT_TRUE(out.fsck_clean);
      ++crashed_states;
    }
  }
  EXPECT_EQ(crashed_states, 6);
}

TEST(CrashMatrixSmoke, CoalescingWindowCrashStatesAreDeterministic) {
  for (crash::FatePolicy fate : {FatePolicy::kSubset, FatePolicy::kTorn}) {
    CoalesceCrashOutcome a = RunCoalescingWindowCrashState(1, fate, kSeed);
    CoalesceCrashOutcome b = RunCoalescingWindowCrashState(1, fate, kSeed);
    ASSERT_TRUE(a.crashed);
    ASSERT_TRUE(b.crashed);
    EXPECT_EQ(a.fsck_clean, b.fsck_clean);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
  }
}

CoalesceCrashOutcome RunCheckpointCrashState(uint64_t store_ordinal,
                                             crash::FatePolicy fate, uint64_t seed) {
  CoalesceCrashOutcome out;
  sim::Context ctx;
  pmem::Device dev(&ctx, 64 * common::kMiB);
  ext4sim::Ext4Options eo;
  eo.journal_blocks = 8;  // Smallest legal log: a few commits force checkpointing.
  ext4sim::Ext4Dax fs(&dev, eo);
  dev.EnableCrashTracking(true);

  // Committed base state that fills most of the tiny log.
  std::vector<uint8_t> img(3000, 0x42);
  for (int i = 0; i < 2; ++i) {
    std::string path = "/ck" + std::to_string(i);
    int fd = fs.Open(path, vfs::kRdWr | vfs::kCreate);
    SPLITFS_CHECK(fd >= 0);
    SPLITFS_CHECK(fs.Pwrite(fd, img.data(), img.size(), 0) ==
                  static_cast<ssize_t>(img.size()));
    SPLITFS_CHECK(fs.CommitJournal(/*fsync_barrier=*/false) == 0);
  }
  dev.Fence();

  // The next commit cannot fit: its committer stalls in checkpoint writeback, and
  // the hook arms the injector so the cut lands inside the writeback stores —
  // which touch ONLY the journal region, never committed home locations.
  int fd = fs.Open("/ck-tail", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  SPLITFS_CHECK(fs.Pwrite(fd, img.data(), img.size(), 0) ==
                static_cast<ssize_t>(img.size()));
  crash::CrashInjector injector(
      {crash::CrashPoint::Trigger::kAfterStore, store_ordinal});
  fs.journal_for_test()->SetCheckpointHookForTest(
      [&dev, &injector] { dev.SetObserver(&injector); });
  try {
    fs.CommitJournal(/*fsync_barrier=*/true);
  } catch (const crash::CrashSignal&) {
    out.crashed = true;
  }
  dev.SetObserver(nullptr);
  fs.journal_for_test()->SetCheckpointHookForTest(nullptr);
  if (!out.crashed) {
    return out;
  }

  dev.CrashWith(crash::MakeFate(fate, seed | 1));
  SPLITFS_CHECK(fs.Recover() == 0);
  ext4sim::FsckReport fsck = ext4sim::RunFsck(&fs);
  out.fsck_clean = fsck.clean;
  for (const std::string& p : fsck.problems) {
    ADD_FAILURE() << "checkpoint crash @ store#" << store_ordinal << "/"
                  << crash::FateName(fate) << ": " << p;
  }
  uint64_t fp = 14695981039346656037ull;
  auto mix = [&fp](uint64_t v) { fp = (fp ^ v) * 1099511628211ull; };
  for (const char* p : {"/ck0", "/ck1", "/ck-tail"}) {
    vfs::StatBuf sb;
    mix(fs.Stat(p, &sb) == 0 ? sb.size : ~0ull);
  }
  out.fingerprint = fp;

  // Checkpoint writeback rewrites the journal region only: the committed files
  // survive byte-for-byte, and the uncommitted tail transaction rolls back.
  vfs::StatBuf sb;
  EXPECT_EQ(fs.Stat("/ck0", &sb), 0);
  EXPECT_EQ(sb.size, 3000u);
  EXPECT_EQ(fs.Stat("/ck1", &sb), 0);
  EXPECT_EQ(sb.size, 3000u);
  EXPECT_EQ(fs.Stat("/ck-tail", &sb), -ENOENT);
  return out;
}

TEST(CrashMatrixSmoke, MidCheckpointWritebackCrashKeepsCommittedState) {
  int crashed_states = 0;
  for (uint64_t store = 0; store < 3; ++store) {
    for (crash::FatePolicy fate : {FatePolicy::kDropAll, FatePolicy::kTorn}) {
      CoalesceCrashOutcome out = RunCheckpointCrashState(store, fate, kSeed);
      ASSERT_TRUE(out.crashed)
          << "store#" << store << ": checkpoint writeback never armed";
      EXPECT_TRUE(out.fsck_clean);
      ++crashed_states;
    }
  }
  EXPECT_EQ(crashed_states, 6);
}

TEST(CrashMatrixSmoke, MidCheckpointCrashStatesAreDeterministic) {
  for (crash::FatePolicy fate : {FatePolicy::kSubset, FatePolicy::kTorn}) {
    CoalesceCrashOutcome a = RunCheckpointCrashState(1, fate, kSeed);
    CoalesceCrashOutcome b = RunCheckpointCrashState(1, fate, kSeed);
    ASSERT_TRUE(a.crashed);
    ASSERT_TRUE(b.crashed);
    EXPECT_EQ(a.fsck_clean, b.fsck_clean);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
  }
}

// --- Tenant churn column --------------------------------------------------------------
//
// Power cuts during TenantRouter mount and during an unmount whose close publishes
// staged data. Journal commits run on the thread that forces them, and the cells
// turn the staging replenisher off, so every store lands on the driving test thread
// (a CrashSignal on a pool worker could not be caught), which also makes each state
// deterministic: same ordinal + fate => byte-identical recovered fingerprint.

struct ChurnCrashOutcome {
  bool crashed = false;
  uint64_t fingerprint = 0;
};

tenant::TenantOptions ChurnCellTenant(bool async_publish) {
  tenant::TenantOptions t;
  t.fs.mode = splitfs::Mode::kPosix;
  t.fs.num_staging_files = 2;
  t.fs.staging_file_bytes = common::kMiB;
  t.fs.oplog_bytes = 256 * common::kKiB;
  t.fs.replenish_thread = false;  // Inline refill: deterministic store sequence.
  t.fs.async_relink = async_publish;
  return t;
}

struct TenantWorld {
  std::unique_ptr<crash::World> w;
  tenant::TenantRouter* router = nullptr;
};

TenantWorld MakeTenantWorld() {
  TenantWorld tw;
  tw.w = std::make_unique<crash::World>();
  tw.w->dev = std::make_unique<pmem::Device>(&tw.w->ctx, 64 * common::kMiB);
  tw.w->kfs = std::make_unique<ext4sim::Ext4Dax>(tw.w->dev.get());
  auto router = std::make_unique<tenant::TenantRouter>(tw.w->kfs.get());
  tw.router = router.get();
  tw.w->fs = std::move(router);
  return tw;
}

uint8_t TenantPayload(int file, size_t i) {
  return static_cast<uint8_t>(0x5a ^ (file * 31) ^ (i * 7));
}

constexpr size_t kTenantBytes = 5000;

void WriteTenantFile(tenant::TenantRouter* router, const std::string& path,
                     int file_key) {
  int fd = router->Open(path, vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  std::vector<uint8_t> data(kTenantBytes);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = TenantPayload(file_key, i);
  }
  SPLITFS_CHECK(router->Pwrite(fd, data.data(), data.size(), 0) ==
                static_cast<ssize_t>(data.size()));
  SPLITFS_CHECK(router->Fsync(fd) == 0);  // Acked (at the intent fence when async).
  SPLITFS_CHECK(router->Close(fd) == 0);
}

// Reads the file back through the router, checks every byte, folds it into `fp`.
void CheckTenantFile(tenant::TenantRouter* router, const std::string& path,
                     int file_key, uint64_t* fp) {
  auto mix = [fp](uint64_t v) { *fp = (*fp ^ v) * 1099511628211ull; };
  int fd = router->Open(path, vfs::kRdOnly);
  EXPECT_GE(fd, 0) << path << " lost across tenant-churn crash";
  if (fd < 0) {
    return;
  }
  vfs::StatBuf st;
  EXPECT_EQ(router->Fstat(fd, &st), 0);
  EXPECT_EQ(st.size, kTenantBytes) << path;
  std::vector<uint8_t> back(kTenantBytes);
  EXPECT_EQ(router->Pread(fd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  size_t diverged = 0;
  for (size_t i = 0; i < back.size(); ++i) {
    if (back[i] != TenantPayload(file_key, i)) {
      ++diverged;
    }
  }
  EXPECT_EQ(diverged, 0u) << path << ": " << diverged << " bytes diverged";
  mix(st.size);
  for (size_t i = 0; i < back.size(); i += 997) {
    mix(back[i]);
  }
  router->Close(fd);
}

// Cell 1: power cut mid-Mount (staging pre-allocation, namespace mkdir). The
// interrupted mount must leave the router clean, the established tenant intact,
// and the same id must mount again after recovery over its leftover artifacts.
ChurnCrashOutcome RunMountCrashState(uint64_t store_ordinal, crash::FatePolicy fate,
                                     uint64_t seed) {
  ChurnCrashOutcome out;
  TenantWorld tw = MakeTenantWorld();
  tw.w->dev->EnableCrashTracking(true);
  SPLITFS_CHECK(tw.router->Mount("a", ChurnCellTenant(/*async=*/false)) == 0);
  WriteTenantFile(tw.router, "/a/keep", 0);

  crash::CrashInjector injector(
      {crash::CrashPoint::Trigger::kAfterStore, store_ordinal});
  tw.w->dev->SetObserver(&injector);
  try {
    tw.router->Mount("b", ChurnCellTenant(/*async=*/false));
  } catch (const crash::CrashSignal&) {
    out.crashed = true;
  }
  tw.w->dev->SetObserver(nullptr);
  if (!out.crashed) {
    return out;
  }
  EXPECT_FALSE(tw.router->IsMounted("b"));  // A torn mount registers nothing.

  tw.w->dev->CrashWith(crash::MakeFate(fate, seed | 1));
  SPLITFS_CHECK(tw.w->RecoverAll() == 0);

  uint64_t fp = 14695981039346656037ull;
  CheckTenantFile(tw.router, "/a/keep", 0, &fp);
  // The torn id mounts again over whatever staging artifacts the cut left behind.
  EXPECT_EQ(tw.router->Mount("b", ChurnCellTenant(/*async=*/false)), 0);
  WriteTenantFile(tw.router, "/b/fresh", 1);
  CheckTenantFile(tw.router, "/b/fresh", 1, &fp);
  ext4sim::FsckReport fsck = ext4sim::RunFsck(tw.w->kfs.get());
  for (const auto& p : fsck.problems) {
    ADD_FAILURE() << "tenant mount @ store#" << store_ordinal << ": " << p;
  }
  fp = (fp ^ (fsck.clean ? 1 : 0)) * 1099511628211ull;
  out.fingerprint = fp;
  return out;
}

// Cell 2: power cut inside Unmount("a")'s close-publish. Tenant "a" still holds a
// descriptor on a file it fsync'd and then appended to; Unmount closes it on the
// calling thread, which fences the append's intent and publishes it. Every fsync'd
// file of both tenants must recover byte-exact wherever the cut lands; the unacked
// append survives whole or not at all (POSIX appends are atomic).
constexpr size_t kTenantAppendBytes = 12000;  // Head copy, extent swap, tail copy.

ChurnCrashOutcome RunUnmountCrashState(uint64_t store_ordinal, crash::FatePolicy fate,
                                       uint64_t seed) {
  ChurnCrashOutcome out;
  TenantWorld tw = MakeTenantWorld();
  tw.w->dev->EnableCrashTracking(true);
  SPLITFS_CHECK(tw.router->Mount("a", ChurnCellTenant(/*async=*/true)) == 0);
  SPLITFS_CHECK(tw.router->Mount("b", ChurnCellTenant(/*async=*/true)) == 0);
  WriteTenantFile(tw.router, "/a/q0", 0);
  WriteTenantFile(tw.router, "/b/q0", 1);
  int fd = tw.router->Open("/a/open", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  std::vector<uint8_t> data(kTenantBytes + kTenantAppendBytes);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = TenantPayload(2, i);
  }
  SPLITFS_CHECK(tw.router->Pwrite(fd, data.data(), kTenantBytes, 0) ==
                static_cast<ssize_t>(kTenantBytes));
  SPLITFS_CHECK(tw.router->Fsync(fd) == 0);
  SPLITFS_CHECK(tw.router->Pwrite(fd, data.data() + kTenantBytes, kTenantAppendBytes,
                                  kTenantBytes) ==
                static_cast<ssize_t>(kTenantAppendBytes));

  crash::CrashInjector injector(
      {crash::CrashPoint::Trigger::kAfterStore, store_ordinal});
  tw.w->dev->SetObserver(&injector);
  try {
    tw.router->Unmount("a");
  } catch (const crash::CrashSignal&) {
    out.crashed = true;
  }
  tw.w->dev->SetObserver(nullptr);
  if (!out.crashed) {
    return out;
  }
  // The cut lands before the tenant leaves the table: nothing is half-dismantled.
  EXPECT_TRUE(tw.router->IsMounted("a"));
  EXPECT_TRUE(tw.router->IsMounted("b"));

  tw.w->dev->CrashWith(crash::MakeFate(fate, seed | 1));
  SPLITFS_CHECK(tw.w->RecoverAll() == 0);

  uint64_t fp = 14695981039346656037ull;
  auto mix = [&fp](uint64_t v) { fp = (fp ^ v) * 1099511628211ull; };
  CheckTenantFile(tw.router, "/a/q0", 0, &fp);
  CheckTenantFile(tw.router, "/b/q0", 1, &fp);
  int rfd = tw.router->Open("/a/open", vfs::kRdOnly);
  EXPECT_GE(rfd, 0) << "/a/open lost across the unmount crash";
  if (rfd >= 0) {
    vfs::StatBuf st;
    EXPECT_EQ(tw.router->Fstat(rfd, &st), 0);
    EXPECT_TRUE(st.size == kTenantBytes || st.size == data.size()) << st.size;
    std::vector<uint8_t> back(std::min<uint64_t>(st.size, data.size()));
    EXPECT_EQ(tw.router->Pread(rfd, back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));
    EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()))
        << "/a/open diverged at size " << st.size;
    mix(st.size);
    tw.router->Close(rfd);
  }
  // Churn completes after recovery: the unmount finishes cleanly and the same
  // namespace remounts with its data still rooted under /a.
  EXPECT_EQ(tw.router->Unmount("a"), 0);
  EXPECT_EQ(tw.router->Mount("a", ChurnCellTenant(/*async=*/true)), 0);
  CheckTenantFile(tw.router, "/a/q0", 0, &fp);
  ext4sim::FsckReport fsck = ext4sim::RunFsck(tw.w->kfs.get());
  for (const auto& p : fsck.problems) {
    ADD_FAILURE() << "tenant unmount @ store#" << store_ordinal << ": " << p;
  }
  mix(fsck.clean ? 1 : 0);
  out.fingerprint = fp;
  return out;
}

TEST(CrashMatrixSmoke, TenantMountCrashLeavesRouterCleanAndRemountable) {
  int crashed_states = 0;
  for (uint64_t store : {0ull, 2ull, 5ull}) {
    for (crash::FatePolicy fate : {FatePolicy::kDropAll, FatePolicy::kTorn}) {
      ChurnCrashOutcome out = RunMountCrashState(store, fate, kSeed);
      ASSERT_TRUE(out.crashed) << "store#" << store << " never reached in Mount";
      ++crashed_states;
    }
  }
  EXPECT_EQ(crashed_states, 6);
}

TEST(CrashMatrixSmoke, TenantUnmountCloseCrashRecoversEveryFsyncedFile) {
  // Every store ordinal of the close-publish (eight), under both extreme fates.
  int crashed_states = 0;
  for (uint64_t store = 0;; ++store) {
    ChurnCrashOutcome out = RunUnmountCrashState(store, FatePolicy::kDropAll, kSeed);
    if (!out.crashed) {
      break;
    }
    ASSERT_TRUE(RunUnmountCrashState(store, FatePolicy::kTorn, kSeed).crashed);
    crashed_states += 2;
  }
  EXPECT_EQ(crashed_states, 16);
}

TEST(CrashMatrixSmoke, TenantChurnCrashStatesAreDeterministic) {
  for (crash::FatePolicy fate : {FatePolicy::kSubset, FatePolicy::kTorn}) {
    ChurnCrashOutcome a = RunMountCrashState(4, fate, kSeed);
    ChurnCrashOutcome b = RunMountCrashState(4, fate, kSeed);
    ASSERT_TRUE(a.crashed && b.crashed);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    a = RunUnmountCrashState(3, fate, kSeed);
    b = RunUnmountCrashState(3, fate, kSeed);
    ASSERT_TRUE(a.crashed && b.crashed);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
  }
}

// --- Range-granular strict logging column -----------------------------------------------
//
// The per-range op-logging path opens two schedules the script-driven matrix cannot
// reach: a power cut inside the log-full checkpoint (epoch gate closed, staged
// per-range runs being published, log being reset) while fenced per-range entries
// are still live, and an interleaved two-writer schedule on one inode whose log
// entries alternate between disjoint ranges — replay must stitch them back by seq,
// not by file order. Both drivers are single-threaded (the writers' interleaving is
// the deterministic schedule itself), so every (ordinal, fate) cell is reproducible
// and double-runs must produce byte-identical recovered fingerprints.

struct RangeCrashOutcome {
  bool crashed = false;
  uint64_t acked = 0;        // Pwrite calls that returned before the cut.
  uint64_t checkpoints = 0;  // Completed checkpoints at the moment of the cut.
  uint64_t fingerprint = 0;
};

struct StrictRangeWorld {
  std::unique_ptr<crash::World> w;
  splitfs::SplitFs* fs = nullptr;
};

StrictRangeWorld MakeStrictRangeWorld(uint64_t oplog_bytes) {
  StrictRangeWorld srw;
  srw.w = std::make_unique<crash::World>();
  srw.w->dev = std::make_unique<pmem::Device>(&srw.w->ctx, 64 * common::kMiB);
  srw.w->kfs = std::make_unique<ext4sim::Ext4Dax>(srw.w->dev.get());
  splitfs::Options o;
  o.mode = splitfs::Mode::kStrict;
  o.num_staging_files = 2;
  o.staging_file_bytes = 4 * common::kMiB;
  o.oplog_bytes = oplog_bytes;
  o.replenish_thread = false;  // Inline refill: deterministic store sequence.
  auto sfs = std::make_unique<splitfs::SplitFs>(srw.w->kfs.get(), o);
  srw.fs = sfs.get();
  srw.w->fs = std::move(sfs);
  return srw;
}

// Cell driver: distinct (non-coalescing) 4 KB strict range writes into a
// preallocated file until the 64-slot op log forces CheckpointForFull. The injector
// arms at `arm_write` (use FindCheckpointTriggerWrite for the write whose append
// overflows the log), so small ordinals cut inside that write's staging stores and
// larger ones inside the checkpoint's relinks / journal commit / log reset. Strict
// acks only durable data: every Pwrite that RETURNED must read back exactly after
// recovery, under every drain fate; the one in-flight write is unconstrained but
// folds into the determinism fingerprint.
constexpr uint64_t kRangeSlot = 4096;
constexpr uint64_t kRangeStride = 8192;
constexpr int kRangeWrites = 96;

uint8_t RangeFill(int i) { return static_cast<uint8_t>(0x30 ^ (i * 41)); }

RangeCrashOutcome RunStrictCheckpointCrashState(int arm_write, uint64_t store_ordinal,
                                                crash::FatePolicy fate, uint64_t seed) {
  RangeCrashOutcome out;
  StrictRangeWorld srw = MakeStrictRangeWorld(/*oplog_bytes=*/4 * common::kKiB);
  splitfs::SplitFs* fs = srw.fs;
  srw.w->dev->EnableCrashTracking(true);

  int fd = fs->Open("/rng", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  SPLITFS_CHECK(fs->Fallocate(fd, 0, kRangeWrites * kRangeStride,
                              /*keep_size=*/false) == 0);
  SPLITFS_CHECK(fs->Fsync(fd) == 0);

  crash::CrashInjector injector(
      {crash::CrashPoint::Trigger::kAfterStore, store_ordinal});
  std::vector<uint8_t> buf(kRangeSlot);
  try {
    for (int i = 0; i < kRangeWrites; ++i) {
      if (i == arm_write) {
        srw.w->dev->SetObserver(&injector);
      }
      std::memset(buf.data(), RangeFill(i), buf.size());
      SPLITFS_CHECK(fs->Pwrite(fd, buf.data(), buf.size(), i * kRangeStride) ==
                    static_cast<ssize_t>(buf.size()));
      out.acked = i + 1;
    }
  } catch (const crash::CrashSignal&) {
    out.crashed = true;
  }
  srw.w->dev->SetObserver(nullptr);
  out.checkpoints = fs->Checkpoints();
  if (!out.crashed) {
    return out;
  }

  srw.w->dev->CrashWith(crash::MakeFate(fate, seed | 1));
  SPLITFS_CHECK(srw.w->RecoverAll() == 0);

  uint64_t fp = 14695981039346656037ull;
  auto mix = [&fp](uint64_t v) { fp = (fp ^ v) * 1099511628211ull; };
  int rfd = fs->Open("/rng", vfs::kRdOnly);
  EXPECT_GE(rfd, 0);
  vfs::StatBuf st;
  EXPECT_EQ(fs->Fstat(rfd, &st), 0);
  EXPECT_EQ(st.size, kRangeWrites * kRangeStride);  // Fallocate'd size was fsync'd.
  std::vector<uint8_t> back(kRangeSlot);
  for (uint64_t i = 0; i < out.acked; ++i) {
    EXPECT_EQ(fs->Pread(rfd, back.data(), back.size(), i * kRangeStride),
              static_cast<ssize_t>(back.size()));
    size_t diverged = 0;
    for (uint8_t b : back) {
      if (b != RangeFill(static_cast<int>(i))) {
        ++diverged;
      }
    }
    EXPECT_EQ(diverged, 0u) << "acked range write " << i << " (of " << out.acked
                            << ") lost or torn across the checkpoint cut";
    mix(back[0]);
  }
  if (out.acked < kRangeWrites) {  // The in-flight write: any outcome, but fixed.
    EXPECT_EQ(fs->Pread(rfd, back.data(), back.size(), out.acked * kRangeStride),
              static_cast<ssize_t>(back.size()));
    for (size_t i = 0; i < back.size(); i += 131) {
      mix(back[i]);
    }
  }
  fs->Close(rfd);
  ext4sim::FsckReport fsck = ext4sim::RunFsck(srw.w->kfs.get());
  for (const auto& p : fsck.problems) {
    ADD_FAILURE() << "strict checkpoint cut @ write#" << arm_write << " store#"
                  << store_ordinal << "/" << crash::FateName(fate) << ": " << p;
  }
  mix(fsck.clean ? 1 : 0);
  out.fingerprint = fp;
  return out;
}

// Counts device stores without disturbing them: the probe runs measure how many
// stores a schedule issues so the crash sweeps pick ordinals that actually land.
class StoreCounter : public pmem::DeviceObserver {
 public:
  void OnStore(uint64_t, uint64_t, bool) override { ++stores_; }
  void OnClwb(uint64_t, uint64_t) override {}
  void OnFence(uint64_t) override {}
  uint64_t stores() const { return stores_; }

 private:
  uint64_t stores_ = 0;
};

// Unarmed probe run: the write whose log append overflows the 64-slot log and runs
// the first checkpoint. Single-threaded and virtual-timed, so the index is the same
// in every armed re-execution. When `stores_from_trigger` is given, a counter arms
// at that write and reports how many stores the rest of the schedule (the
// triggering write, the checkpoint, the remaining writes) issues.
int FindCheckpointTriggerWrite(uint64_t* stores_from_trigger = nullptr,
                               int known_trigger = -1) {
  StrictRangeWorld srw = MakeStrictRangeWorld(/*oplog_bytes=*/4 * common::kKiB);
  splitfs::SplitFs* fs = srw.fs;
  int fd = fs->Open("/rng", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  SPLITFS_CHECK(fs->Fallocate(fd, 0, kRangeWrites * kRangeStride,
                              /*keep_size=*/false) == 0);
  SPLITFS_CHECK(fs->Fsync(fd) == 0);
  StoreCounter counter;
  std::vector<uint8_t> buf(kRangeSlot, 0x11);
  int trigger = -1;
  for (int i = 0; i < kRangeWrites; ++i) {
    if (i == known_trigger && stores_from_trigger != nullptr) {
      srw.w->dev->SetObserver(&counter);
    }
    SPLITFS_CHECK(fs->Pwrite(fd, buf.data(), buf.size(), i * kRangeStride) ==
                  static_cast<ssize_t>(buf.size()));
    if (trigger < 0 && fs->Checkpoints() > 0) {
      trigger = i;
      if (stores_from_trigger == nullptr) {
        break;
      }
    }
  }
  srw.w->dev->SetObserver(nullptr);
  if (stores_from_trigger != nullptr) {
    *stores_from_trigger = counter.stores();
  }
  return trigger;
}

TEST(CrashMatrixSmoke, StrictRangeLogCheckpointCutRecoversAckedWrites) {
  int trigger = FindCheckpointTriggerWrite();
  ASSERT_GE(trigger, 0) << "96 distinct strict range writes never filled the log";
  uint64_t span = 0;  // Stores from the triggering write to the schedule's end.
  FindCheckpointTriggerWrite(&span, trigger);
  ASSERT_GT(span, 16u);
  int crashed_states = 0;
  bool cut_inside_checkpoint = false;
  bool cut_after_checkpoint = false;
  // Ordinal 0 lands in the triggering write's own staging stores; the fractions
  // walk into the checkpoint's relink + commit + log-reset stores and beyond.
  for (uint64_t store : std::vector<uint64_t>{0, span / 16, span / 8, span / 4,
                                              span / 2, (3 * span) / 4}) {
    for (crash::FatePolicy fate : {FatePolicy::kDropAll, FatePolicy::kTorn}) {
      RangeCrashOutcome out =
          RunStrictCheckpointCrashState(trigger, store, fate, kSeed);
      ASSERT_TRUE(out.crashed) << "store#" << store << " never reached";
      ++crashed_states;
      if (out.checkpoints == 0) {
        cut_inside_checkpoint = true;  // Cut before the checkpoint could finish.
      } else {
        cut_after_checkpoint = true;  // Post-reset image: replay from a reused log.
      }
    }
  }
  EXPECT_EQ(crashed_states, 12);
  EXPECT_TRUE(cut_inside_checkpoint)
      << "no cell cut inside the checkpoint window; widen the ordinal sweep";
  EXPECT_TRUE(cut_after_checkpoint)
      << "no cell survived past the checkpoint; widen the ordinal sweep";
}

TEST(CrashMatrixSmoke, StrictRangeLogCheckpointCutIsDeterministic) {
  int trigger = FindCheckpointTriggerWrite();
  ASSERT_GE(trigger, 0);
  uint64_t span = 0;
  FindCheckpointTriggerWrite(&span, trigger);
  for (uint64_t store : std::vector<uint64_t>{span / 8, span / 2}) {
    for (crash::FatePolicy fate : {FatePolicy::kSubset, FatePolicy::kTorn}) {
      RangeCrashOutcome a = RunStrictCheckpointCrashState(trigger, store, fate, kSeed);
      RangeCrashOutcome b = RunStrictCheckpointCrashState(trigger, store, fate, kSeed);
      ASSERT_TRUE(a.crashed);
      ASSERT_TRUE(b.crashed);
      EXPECT_EQ(a.acked, b.acked);
      EXPECT_EQ(a.checkpoints, b.checkpoints);
      EXPECT_EQ(a.fingerprint, b.fingerprint);  // Byte-identical recovered states.
    }
  }
}

// Interleaved two-range-writer schedule on one inode: writers A and B alternate
// strictly (A,B,A,B,...) over disjoint halves of the file, two rounds deep, so the
// op log holds interleaved per-range entries for the same inode and the second
// round updates round-one staging bytes in place. The cut sweeps the whole
// schedule; recovery must restore every acked write exactly — entries replayed in
// seq order across the interleaving — with one unconstrained in-flight slot.
constexpr int kAbSlots = 4;
constexpr int kAbRounds = 2;
constexpr uint64_t kAbHalf = 128 * common::kKiB;

uint8_t AbFill(int writer, int slot, int round) {
  return static_cast<uint8_t>(0x80 | (writer << 6) | (slot << 2) | round);
}

RangeCrashOutcome RunInterleavedRangeWritersCrashState(uint64_t store_ordinal,
                                                       crash::FatePolicy fate,
                                                       uint64_t seed,
                                                       uint64_t* probe_stores = nullptr) {
  RangeCrashOutcome out;
  StrictRangeWorld srw = MakeStrictRangeWorld(/*oplog_bytes=*/256 * common::kKiB);
  splitfs::SplitFs* fs = srw.fs;
  srw.w->dev->EnableCrashTracking(true);

  int fd = fs->Open("/ab", vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  SPLITFS_CHECK(fs->Fallocate(fd, 0, 2 * kAbHalf, /*keep_size=*/false) == 0);
  SPLITFS_CHECK(fs->Fsync(fd) == 0);

  // Flat schedule: (round, slot, writer) with writers alternating innermost.
  struct Op {
    int writer, slot, round;
    uint64_t off;
  };
  std::vector<Op> ops;
  for (int r = 0; r < kAbRounds; ++r) {
    for (int s = 0; s < kAbSlots; ++s) {
      for (int wtr = 0; wtr < 2; ++wtr) {
        ops.push_back({wtr, s, r, wtr * kAbHalf + s * kRangeSlot});
      }
    }
  }

  StoreCounter counter;
  crash::CrashInjector injector(
      {crash::CrashPoint::Trigger::kAfterStore, store_ordinal});
  srw.w->dev->SetObserver(probe_stores != nullptr
                              ? static_cast<pmem::DeviceObserver*>(&counter)
                              : &injector);
  std::vector<uint8_t> buf(kRangeSlot);
  try {
    for (const Op& op : ops) {
      std::memset(buf.data(), AbFill(op.writer, op.slot, op.round), buf.size());
      SPLITFS_CHECK(fs->Pwrite(fd, buf.data(), buf.size(), op.off) ==
                    static_cast<ssize_t>(buf.size()));
      out.acked++;
    }
  } catch (const crash::CrashSignal&) {
    out.crashed = true;
  }
  srw.w->dev->SetObserver(nullptr);
  if (probe_stores != nullptr) {
    *probe_stores = counter.stores();
    return out;
  }
  if (!out.crashed) {
    return out;
  }

  srw.w->dev->CrashWith(crash::MakeFate(fate, seed | 1));
  SPLITFS_CHECK(srw.w->RecoverAll() == 0);

  // Last acked round per (writer, slot); -1 means never written (reads as zeros).
  int last_round[2][kAbSlots];
  for (auto& row : last_round) {
    for (int& v : row) {
      v = -1;
    }
  }
  for (uint64_t i = 0; i < out.acked; ++i) {
    last_round[ops[i].writer][ops[i].slot] = ops[i].round;
  }
  uint64_t fp = 14695981039346656037ull;
  auto mix = [&fp](uint64_t v) { fp = (fp ^ v) * 1099511628211ull; };
  int rfd = fs->Open("/ab", vfs::kRdOnly);
  EXPECT_GE(rfd, 0);
  std::vector<uint8_t> back(kRangeSlot);
  for (int wtr = 0; wtr < 2; ++wtr) {
    for (int s = 0; s < kAbSlots; ++s) {
      uint64_t off = wtr * kAbHalf + s * kRangeSlot;
      EXPECT_EQ(fs->Pread(rfd, back.data(), back.size(), off),
                static_cast<ssize_t>(back.size()));
      bool in_flight = out.acked < ops.size() && ops[out.acked].writer == wtr &&
                       ops[out.acked].slot == s;
      if (!in_flight) {
        int r = last_round[wtr][s];
        uint8_t expect = r < 0 ? 0 : AbFill(wtr, s, r);
        size_t diverged = 0;
        for (uint8_t b : back) {
          if (b != expect) {
            ++diverged;
          }
        }
        EXPECT_EQ(diverged, 0u)
            << "writer " << wtr << " slot " << s << " (last acked round " << r
            << ") lost or torn across the interleaved-entry replay";
      }
      for (size_t i = 0; i < back.size(); i += 131) {
        mix(back[i]);
      }
    }
  }
  fs->Close(rfd);
  ext4sim::FsckReport fsck = ext4sim::RunFsck(srw.w->kfs.get());
  for (const auto& p : fsck.problems) {
    ADD_FAILURE() << "interleaved range writers @ store#" << store_ordinal << "/"
                  << crash::FateName(fate) << ": " << p;
  }
  mix(fsck.clean ? 1 : 0);
  out.fingerprint = fp;
  return out;
}

TEST(CrashMatrixSmoke, InterleavedRangeWriterScheduleSurvivesCuts) {
  uint64_t span = 0;  // Total stores the 16-write interleaved schedule issues.
  RunInterleavedRangeWritersCrashState(0, FatePolicy::kDropAll, kSeed, &span);
  ASSERT_GT(span, 16u);
  int crashed_states = 0;
  // The sweep spans the first round's fresh interleaved entries and the second
  // round's in-place staging updates.
  for (uint64_t store : std::vector<uint64_t>{0, span / 8, span / 4, span / 2,
                                              (3 * span) / 4, span - 2}) {
    for (crash::FatePolicy fate : {FatePolicy::kDropAll, FatePolicy::kTorn}) {
      RangeCrashOutcome out =
          RunInterleavedRangeWritersCrashState(store, fate, kSeed);
      ASSERT_TRUE(out.crashed) << "store#" << store << " never reached";
      ++crashed_states;
    }
  }
  EXPECT_EQ(crashed_states, 12);
}

TEST(CrashMatrixSmoke, InterleavedRangeWriterCutsAreDeterministic) {
  uint64_t span = 0;
  RunInterleavedRangeWritersCrashState(0, FatePolicy::kDropAll, kSeed, &span);
  for (uint64_t store : std::vector<uint64_t>{span / 4, (3 * span) / 4}) {
    for (crash::FatePolicy fate : {FatePolicy::kSubset, FatePolicy::kTorn}) {
      RangeCrashOutcome a = RunInterleavedRangeWritersCrashState(store, fate, kSeed);
      RangeCrashOutcome b = RunInterleavedRangeWritersCrashState(store, fate, kSeed);
      ASSERT_TRUE(a.crashed == b.crashed);
      EXPECT_EQ(a.acked, b.acked);
      EXPECT_EQ(a.fingerprint, b.fingerprint);  // Byte-identical recovered states.
    }
  }
}

// --- Full op-log column ------------------------------------------------------------------
//
// A 4 KiB op log (62 entry slots) fills within a few dozen fsyncs and forces
// CheckpointForFull: in strict mode through the logged writes, in POSIX and sync mode
// through async relink's intent and done records. A checkpoint ends with one store,
// its header (OpLog::Reset), and one fence. Each cell cuts power right after a
// header store and drops or tears the unfenced lines. Oracles: every fsync'd byte
// reads back exactly, and fsck is clean.

constexpr int kFullLogFiles = 3;
constexpr int kFullLogRounds = 100;
constexpr uint64_t kFullLogChunk = 1500;  // Unaligned: runs have partial blocks.
constexpr uint64_t kFullLogBytes = 4 * common::kKiB;
constexpr uint64_t kHeaderBytes = 2 * sizeof(splitfs::LogEntry);

std::unique_ptr<crash::World> MakeFullLogWorld(splitfs::Mode mode) {
  auto w = std::make_unique<crash::World>();
  w->dev = std::make_unique<pmem::Device>(&w->ctx, 64 * common::kMiB);
  w->kfs = std::make_unique<ext4sim::Ext4Dax>(w->dev.get());
  splitfs::Options o;
  o.mode = mode;
  o.async_relink = mode != splitfs::Mode::kStrict;
  o.num_staging_files = 2;
  o.staging_file_bytes = 4 * common::kMiB;
  o.oplog_bytes = kFullLogBytes;
  w->fs = std::make_unique<splitfs::SplitFs>(w->kfs.get(), o);
  w->dev->EnableCrashTracking(true);
  return w;
}

// Device offset of the op log's two header slots, the last two of its file (the
// instance has the default runtime dir and tag).
uint64_t HeaderSlotsDev(ext4sim::Ext4Dax* kfs) {
  int fd = kfs->Open(splitfs::Options{}.runtime_dir + "/oplog-u0", vfs::kRdOnly);
  SPLITFS_CHECK(fd >= 0);
  std::vector<ext4sim::Ext4Dax::DaxMapping> maps;
  const uint64_t off = kFullLogBytes - kHeaderBytes;
  SPLITFS_CHECK(kfs->DaxMap(fd, off, kHeaderBytes, &maps) == 0);
  kfs->Close(fd);
  return maps[0].dev_off + (off - maps[0].file_off);  // Mappings are whole blocks.
}

std::array<splitfs::LogEntry, 2> ReadHeaderSlots(const pmem::Device& dev, uint64_t at) {
  std::array<splitfs::LogEntry, 2> h;
  std::memcpy(h.data(), dev.DirectMap(at), kHeaderBytes);
  return h;
}

struct HeaderStore {
  uint64_t ordinal;  // Stores issued before it since the observer was installed.
  int slot;          // Which header slot it wrote.
};

class HeaderStoreRecorder : public pmem::DeviceObserver {
 public:
  explicit HeaderStoreRecorder(uint64_t at) : at_(at) {}
  void OnStore(uint64_t off, uint64_t n, bool) override {
    if (off < at_ + kHeaderBytes && off + n > at_) {
      stores_.push_back({count_, static_cast<int>((off - at_) / sizeof(splitfs::LogEntry))});
    }
    ++count_;
  }
  void OnClwb(uint64_t, uint64_t) override {}
  void OnFence(uint64_t) override {}
  const std::vector<HeaderStore>& stores() const { return stores_; }

 private:
  uint64_t at_;
  uint64_t count_ = 0;
  std::vector<HeaderStore> stores_;
};

// Round-robin over the files: two unaligned appends, then an fsync. `synced` holds
// each file's bytes as of its last fsync that returned.
void RunFullLogSchedule(vfs::FileSystem* fs, std::vector<std::vector<uint8_t>>* synced) {
  std::vector<std::vector<uint8_t>> written(kFullLogFiles);
  std::vector<int> fds(kFullLogFiles, -1);
  for (int r = 0; r < kFullLogRounds; ++r) {
    const int f = r % kFullLogFiles;
    if (fds[f] < 0) {
      fds[f] = fs->Open(std::string("/full").append(std::to_string(f)),
                        vfs::kRdWr | vfs::kCreate);
      SPLITFS_CHECK(fds[f] >= 0);
    }
    for (int half = 0; half < 2; ++half) {
      std::vector<uint8_t> chunk(kFullLogChunk);
      for (uint64_t i = 0; i < chunk.size(); ++i) {
        chunk[i] = static_cast<uint8_t>(r * 37 + half * 101 + i * 13 + 1);
      }
      SPLITFS_CHECK(fs->Pwrite(fds[f], chunk.data(), chunk.size(), written[f].size()) ==
                    static_cast<ssize_t>(chunk.size()));
      written[f].insert(written[f].end(), chunk.begin(), chunk.end());
    }
    SPLITFS_CHECK(fs->Fsync(fds[f]) == 0);
    (*synced)[f] = written[f];
  }
  for (int fd : fds) {
    SPLITFS_CHECK(fs->Close(fd) == 0);
  }
}

// An uncut run of the schedule: every checkpoint's header store.
std::vector<HeaderStore> RecordHeaderStores(splitfs::Mode mode) {
  std::unique_ptr<crash::World> w = MakeFullLogWorld(mode);
  HeaderStoreRecorder recorder(HeaderSlotsDev(w->kfs.get()));
  w->dev->SetObserver(&recorder);
  std::vector<std::vector<uint8_t>> synced(kFullLogFiles);
  RunFullLogSchedule(w->fs.get(), &synced);
  w->dev->SetObserver(nullptr);
  EXPECT_EQ(recorder.stores().size(),
            static_cast<splitfs::SplitFs*>(w->fs.get())->Checkpoints());
  return recorder.stores();
}

// Re-runs the schedule with power cut right after store `ordinal`, drains the
// unfenced lines by `fate`, recovers and checks the oracles. Returns the header slots
// in the crash image and after recovery.
std::pair<std::array<splitfs::LogEntry, 2>, std::array<splitfs::LogEntry, 2>>
RunFullLogCell(splitfs::Mode mode, uint64_t ordinal, const pmem::Device::LineFateFn& fate,
               const std::string& what) {
  std::unique_ptr<crash::World> w = MakeFullLogWorld(mode);
  const uint64_t headers = HeaderSlotsDev(w->kfs.get());
  std::vector<std::vector<uint8_t>> synced(kFullLogFiles);
  crash::CrashInjector cut({crash::CrashPoint::Trigger::kAfterStore, ordinal});
  w->dev->SetObserver(&cut);
  bool crashed = false;
  try {
    RunFullLogSchedule(w->fs.get(), &synced);
  } catch (const crash::CrashSignal&) {
    crashed = true;
  }
  w->dev->SetObserver(nullptr);
  EXPECT_TRUE(crashed) << what;
  w->dev->CrashWith(fate);
  std::array<splitfs::LogEntry, 2> image = ReadHeaderSlots(*w->dev, headers);
  EXPECT_EQ(w->RecoverAll(), 0) << what;
  for (int f = 0; f < kFullLogFiles; ++f) {
    if (synced[f].empty()) {
      continue;
    }
    int fd = w->fs->Open(std::string("/full").append(std::to_string(f)), vfs::kRdOnly);
    EXPECT_GE(fd, 0) << what << ": file " << f;
    std::vector<uint8_t> back(synced[f].size());
    EXPECT_EQ(w->fs->Pread(fd, back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));
    EXPECT_TRUE(back == synced[f]) << what << ": fsync'd bytes of file " << f
                                   << " differ after recovery";
    w->fs->Close(fd);
  }
  for (const auto& p : ext4sim::RunFsck(w->kfs.get()).problems) {
    ADD_FAILURE() << what << ": " << p;
  }
  return {image, ReadHeaderSlots(*w->dev, headers)};
}

const splitfs::Mode kAllModes[] = {splitfs::Mode::kPosix, splitfs::Mode::kSync,
                                   splitfs::Mode::kStrict};

TEST(CrashMatrixSmoke, FullOpLogHeaderCutsKeepEveryFsyncedByte) {
  for (splitfs::Mode mode : kAllModes) {
    std::vector<HeaderStore> stores = RecordHeaderStores(mode);
    ASSERT_GE(stores.size(), 2u) << splitfs::ModeName(mode) << ": the op log never refilled";
    for (const HeaderStore& h : stores) {
      for (FatePolicy fate : {FatePolicy::kDropAll, FatePolicy::kTorn}) {
        RunFullLogCell(mode, h.ordinal, crash::MakeFate(fate, kSeed ^ h.ordinal),
                       std::string(splitfs::ModeName(mode)) + " header store#" +
                           std::to_string(h.ordinal) + "/" + crash::FateName(fate));
      }
    }
  }
}

TEST(CrashMatrixSmoke, TornSecondHeaderFallsBackToTheFirstAndRecoveryKeepsIt) {
  for (splitfs::Mode mode : kAllModes) {
    std::vector<HeaderStore> stores = RecordHeaderStores(mode);
    ASSERT_GE(stores.size(), 2u);
    const int first = stores[0].slot;
    ASSERT_NE(stores[1].slot, first);
    // Every unfenced line loses its first 8 bytes: the second header's checksum and op.
    auto [image, after] = RunFullLogCell(
        mode, stores[1].ordinal, [](uint64_t, uint64_t) { return static_cast<uint8_t>(0xFE); },
        std::string(splitfs::ModeName(mode)) + " torn second header");
    ASSERT_TRUE(image[first].ValidHeader());
    EXPECT_FALSE(image[1 - first].ValidHeader());
    // Recovery's own reset wrote the torn slot; the first header is untouched.
    EXPECT_EQ(0, std::memcmp(&after[first], &image[first], sizeof(splitfs::LogEntry)));
    EXPECT_TRUE(after[1 - first].ValidHeader());
    EXPECT_GT(after[1 - first].seq, image[first].seq);
  }
}

// The same schedules, driven against each baseline with its own guarantee profile.
TEST(CrashMatrix, BaselinesUnderSameSchedule) {
  uint64_t total_states = 0;
  for (const std::string which : {"nova", "pmfs", "strata"}) {
    for (const auto& script : crash::AllScripts(kSeed)) {
      RunnerConfig cfg;
      cfg.seed = kSeed;
      cfg.max_fence_points = 6;
      cfg.max_store_points = 2;
      cfg.fates = {FatePolicy::kDropAll, FatePolicy::kTorn};
      CrashRunner runner(crash::BaselineWorldFactory(which), script,
                         Guarantees::PmBaseline(), cfg);
      MatrixStats stats = runner.Run();
      total_states += stats.crash_states;
      ExpectClean(stats, which + "/" + script.name);
    }
  }
  EXPECT_GE(total_states, 50u);
}

}  // namespace
