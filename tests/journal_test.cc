// Unit tests for the jbd2-style journal model: transaction emptiness semantics,
// the two-transaction commit pipeline (tids, log_wait_commit, the seal window),
// and newest-first rollback across a mid-writeout crash.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/crash/crash_plan.h"
#include "src/ext4/journal.h"
#include "src/pmem/device.h"

namespace {

using ext4sim::Journal;
using ext4sim::MetaBlockId;
using ext4sim::MetaKind;

class JournalTest : public ::testing::Test {
 protected:
  JournalTest()
      : dev_(&ctx_, 4 * common::kMiB),
        journal_(&dev_, /*journal_start_block=*/1, /*journal_blocks=*/64) {}

  sim::Context ctx_;
  pmem::Device dev_;
  Journal journal_;
};

TEST_F(JournalTest, FreshJournalIsEmptyAndCleanFsyncCommitsNothing) {
  EXPECT_TRUE(journal_.RunningEmpty());
  EXPECT_EQ(journal_.RunningTid(), 1u);
  EXPECT_EQ(journal_.CommittedTid(), 0u);
  uint64_t t0 = ctx_.clock.Now();
  journal_.CommitRunning(/*fsync_barrier=*/true);
  // Clean fast path: no commit record, no fsync handshake charge, tid unchanged.
  EXPECT_EQ(journal_.commits(), 0u);
  EXPECT_EQ(ctx_.clock.Now(), t0);
  EXPECT_EQ(journal_.RunningTid(), 1u);
}

TEST_F(JournalTest, OnCommitOnlyTransactionIsNotEmptyAndCommits) {
  // A transaction holding only a deferred action (e.g. an inode free with no dirty
  // block of its own) must not report empty: the action still needs its commit
  // record, and the clean-fsync fast path must not skip it.
  bool ran = false;
  {
    Journal::Handle h(&journal_);
    journal_.OnCommit([&ran] { ran = true; });
  }
  EXPECT_FALSE(journal_.RunningEmpty());
  journal_.CommitRunning(/*fsync_barrier=*/false);
  EXPECT_TRUE(ran);
  EXPECT_EQ(journal_.commits(), 1u);
  EXPECT_TRUE(journal_.RunningEmpty());
  EXPECT_EQ(journal_.CommittedTid(), 1u);
}

TEST_F(JournalTest, TidsAdvancePerCommitAndWaitReturnsForDurableTids) {
  {
    Journal::Handle h(&journal_);
    journal_.Dirty(MetaBlockId(MetaKind::kInodeTable, 1), nullptr);
  }
  EXPECT_EQ(journal_.RunningTid(), 1u);
  journal_.CommitRunning(/*fsync_barrier=*/false);
  EXPECT_EQ(journal_.CommittedTid(), 1u);
  EXPECT_EQ(journal_.RunningTid(), 2u);  // Fresh transaction opened by the seal.
  journal_.WaitForCommit(1);             // Durable tid: returns immediately.

  {
    Journal::Handle h(&journal_);
    journal_.Dirty(MetaBlockId(MetaKind::kDirBlock, 7), nullptr);
  }
  journal_.CommitRunning(/*fsync_barrier=*/true);
  EXPECT_EQ(journal_.CommittedTid(), 2u);
  EXPECT_EQ(journal_.commits(), 2u);
}

TEST_F(JournalTest, MidWriteoutHandlesJoinTheFreshRunningTransaction) {
  {
    Journal::Handle h(&journal_);
    journal_.Dirty(MetaBlockId(MetaKind::kInodeTable, 1), nullptr);
  }
  // The hook runs after the seal with the barrier released: a handle taken here
  // models a metadata operation overlapping T_n's writeout. It must join T_{n+1}
  // without blocking and without being captured by T_n's commit.
  bool hook_ran = false;
  journal_.SetMidWriteoutHookForTest([this, &hook_ran] {
    hook_ran = true;
    EXPECT_EQ(journal_.RunningTid(), 2u);
    EXPECT_EQ(journal_.CommittedTid(), 0u);  // T_1 not durable yet.
    Journal::Handle h(&journal_);
    journal_.Dirty(MetaBlockId(MetaKind::kExtentTree, 9), nullptr);
  });
  journal_.CommitRunning(/*fsync_barrier=*/false);
  journal_.SetMidWriteoutHookForTest(nullptr);
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(journal_.CommittedTid(), 1u);
  EXPECT_FALSE(journal_.RunningEmpty());  // The hook's dirt lives in T_2.
  journal_.CommitRunning(/*fsync_barrier=*/false);
  EXPECT_EQ(journal_.CommittedTid(), 2u);
  EXPECT_TRUE(journal_.RunningEmpty());
}

TEST_F(JournalTest, MidWriteoutCrashRollsBackBothTransactionsNewestFirst) {
  // T_1 carries undos A1, A2; the hook stacks T_2 (undos B1, B2) on top and then
  // arms a crash inside T_1's journal writeout. Recovery must unwind the running
  // T_2 first, then the unsealed committing T_1, newest mutation first overall:
  // B2, B1, A2, A1. Any other order would re-apply state the later transaction
  // already depended on (the dangling-dirent shape the ext4-level matrix checks).
  std::vector<std::string> order;
  {
    Journal::Handle h(&journal_);
    journal_.Dirty(MetaBlockId(MetaKind::kInodeTable, 1),
                   [&order] { order.push_back("A1"); });
    journal_.Dirty(MetaBlockId(MetaKind::kDirBlock, 2),
                   [&order] { order.push_back("A2"); });
    journal_.OnCommit([&order] { order.push_back("T1-action"); });
  }
  crash::CrashInjector injector({crash::CrashPoint::Trigger::kAfterStore, 1});
  journal_.SetMidWriteoutHookForTest([this, &injector, &order] {
    {
      Journal::Handle h(&journal_);
      journal_.Dirty(MetaBlockId(MetaKind::kExtentTree, 3),
                     [&order] { order.push_back("B1"); });
      journal_.Dirty(MetaBlockId(MetaKind::kSuperblock, 0),
                     [&order] { order.push_back("B2"); });
      journal_.OnCommit([&order] { order.push_back("T2-action"); });
    }
    dev_.SetObserver(&injector);  // Store #1 of the writeout never completes.
  });
  bool crashed = false;
  try {
    journal_.CommitRunning(/*fsync_barrier=*/true);
  } catch (const crash::CrashSignal&) {
    crashed = true;
  }
  dev_.SetObserver(nullptr);
  journal_.SetMidWriteoutHookForTest(nullptr);
  ASSERT_TRUE(crashed);
  EXPECT_EQ(journal_.commits(), 0u);  // The commit record never landed.

  journal_.RecoverDiscardRunning();
  ASSERT_EQ(order.size(), 4u);  // Deferred actions died with their transactions.
  EXPECT_EQ(order[0], "B2");
  EXPECT_EQ(order[1], "B1");
  EXPECT_EQ(order[2], "A2");
  EXPECT_EQ(order[3], "A1");
  EXPECT_TRUE(journal_.RunningEmpty());
  // Recovery settles every discarded tid: the horizon sits just below the fresh
  // running transaction, so a post-recovery clean fsync takes the fast path
  // (no commit record) instead of chasing tids that can never commit.
  EXPECT_EQ(journal_.CommittedTid(), journal_.RunningTid() - 1);
  journal_.CommitRunning(/*fsync_barrier=*/true);
  EXPECT_EQ(journal_.commits(), 0u);

  // The recovered journal keeps serving: a fresh transaction commits normally.
  {
    Journal::Handle h(&journal_);
    journal_.Dirty(MetaBlockId(MetaKind::kInodeTable, 5), nullptr);
  }
  journal_.CommitRunning(/*fsync_barrier=*/false);
  EXPECT_EQ(journal_.commits(), 1u);
  EXPECT_EQ(journal_.CommittedTid(), journal_.RunningTid() - 1);
}

// --- Commit coalescing (j_commit_interval) --------------------------------------------

TEST(JournalCoalescingTest, SameWindowFsyncsShareOneWriteout) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 4 * common::kMiB);
  Journal j(&dev, /*journal_start_block=*/1, /*journal_blocks=*/64,
            /*commit_interval_ns=*/100'000);
  {
    Journal::Handle h(&j);
    j.Dirty(MetaBlockId(MetaKind::kInodeTable, 1), nullptr);
  }
  // The window hook runs with the pipeline slot held and the running transaction
  // still open: a metadata operation landing here joins tid 1, and a concurrent
  // fsync targeting tid 1 queues behind the slot and finds its tid already durable
  // — one writeout serves both, jbd2's coalescing.
  std::thread racer;
  bool hook_ran = false;
  j.SetCommitWindowHookForTest([&] {
    hook_ran = true;
    {
      Journal::Handle h(&j);
      j.Dirty(MetaBlockId(MetaKind::kDirBlock, 7), nullptr);
    }
    racer = std::thread([&j] { j.CommitRunning(/*fsync_barrier=*/true); });
  });
  j.CommitRunning(/*fsync_barrier=*/true);
  racer.join();
  j.SetCommitWindowHookForTest(nullptr);
  ASSERT_TRUE(hook_ran);
  // Two fsyncs, two dirty operations, ONE commit record.
  EXPECT_EQ(j.commits(), 1u);
  EXPECT_EQ(j.CommittedTid(), 1u);
  EXPECT_TRUE(j.RunningEmpty());
}

TEST(JournalCoalescingTest, LogWaitCommitLatencyIncludesTheWindow) {
  constexpr uint64_t kInterval = 250'000;
  sim::Context ctx;
  pmem::Device dev(&ctx, 4 * common::kMiB);
  Journal j(&dev, 1, 64, kInterval);
  {
    Journal::Handle h(&j);
    j.Dirty(MetaBlockId(MetaKind::kInodeTable, 1), nullptr);
  }
  uint64_t t0 = ctx.clock.Now();
  j.CommitRunning(/*fsync_barrier=*/true);
  // The latency-for-bandwidth trade is real: the committer's fsync pays the full
  // delay window on top of the writeout.
  EXPECT_GE(ctx.clock.Now() - t0, kInterval);
  EXPECT_EQ(j.commits(), 1u);
}

TEST(JournalCoalescingTest, IntervalZeroIsIdenticalToTheDefaultPipeline) {
  // interval=0 must not merely be "fast": the virtual timeline, commit count, and
  // log-space accounting have to match the three-arg constructor exactly, so every
  // pre-coalescing benchmark and crash fingerprint stays bit-identical.
  auto run = [](bool explicit_zero) {
    sim::Context ctx;
    pmem::Device dev(&ctx, 4 * common::kMiB);
    auto j = explicit_zero ? std::make_unique<Journal>(&dev, 1, 64, 0)
                           : std::make_unique<Journal>(&dev, 1, 64);
    for (int i = 0; i < 5; ++i) {
      {
        Journal::Handle h(j.get());
        j->Dirty(MetaBlockId(MetaKind::kInodeTable, 1 + i), nullptr);
        j->Dirty(MetaBlockId(MetaKind::kDirBlock, 100 + i), nullptr);
      }
      j->CommitRunning(/*fsync_barrier=*/(i % 2) == 0);
    }
    struct Result {
      uint64_t now, commits, free_bytes;
    };
    return Result{ctx.clock.Now(), j->commits(), j->FreeLogBytes()};
  };
  auto a = run(false);
  auto b = run(true);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.free_bytes, b.free_bytes);
}

TEST(JournalCoalescingTest, LogFullDuringWindowForcesImmediateSeal) {
  // Smallest legal journal (8 blocks = 32 KiB) and an absurd one-second window:
  // once the log is nearly full, holding the window open would only deepen the
  // checkpoint stall, so the seal must go immediately — the commit's virtual
  // latency stays far below the configured interval.
  constexpr uint64_t kHugeInterval = 1'000'000'000;
  sim::Context ctx;
  pmem::Device dev(&ctx, 4 * common::kMiB);
  Journal j(&dev, 1, /*journal_blocks=*/8, kHugeInterval);
  uint64_t windowed = 0;
  for (int i = 0; i < 6; ++i) {
    {
      Journal::Handle h(&j);
      j.Dirty(MetaBlockId(MetaKind::kInodeTable, 1 + i), nullptr);
    }
    uint64_t t0 = ctx.clock.Now();
    j.CommitRunning(/*fsync_barrier=*/false);
    if (ctx.clock.Now() - t0 >= kHugeInterval) {
      ++windowed;
    }
  }
  EXPECT_EQ(j.commits(), 6u);
  // The first commits pay the window; the later ones hit the near-full guard and
  // seal immediately, and the wrap triggers modeled checkpoint writeback instead
  // of a silent cursor recycle.
  EXPECT_LT(windowed, 6u);
  EXPECT_GE(j.CheckpointStalls(), 1u);
  EXPECT_GT(j.FreeLogBytes(), 0u);
}

}  // namespace
