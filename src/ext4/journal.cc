#include "src/ext4/journal.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <thread>

#include "src/analysis/annotations.h"
#include "src/analysis/persist_checker.h"
#include "src/common/bytes.h"

namespace ext4sim {

using common::kBlockSize;

namespace {
// Real-time grace inside the coalescing window: long enough for concurrently running
// application threads to reach log_start_commit and pile onto the delayed
// transaction, short enough to be invisible in wall-clock terms. The *virtual* cost
// of the window is commit_interval_ns, charged independently of this constant, so
// simulated timelines never depend on host scheduling.
constexpr std::chrono::microseconds kCommitWindowRealGrace(50);
}  // namespace

Journal::Journal(pmem::Device* dev, uint64_t journal_start_block, uint64_t journal_blocks,
                 uint64_t commit_interval_ns)
    : dev_(dev),
      ctx_(dev->context()),
      journal_start_(journal_start_block * kBlockSize),
      journal_bytes_(journal_blocks * kBlockSize),
      commit_interval_ns_(commit_interval_ns) {
  SPLITFS_CHECK(journal_blocks >= 8);
  running_ = std::make_unique<Transaction>();
  running_->tid = next_tid_++;

  // Pull-model gauges: evaluated only when the registry snapshots, reading through
  // this journal's own synchronization (acquire loads / state_mu_).
  obs::MetricsRegistry* m = &ctx_->obs.metrics;
  m->RegisterGauge("journal.pipeline_depth", [this]() -> uint64_t {
    std::lock_guard<std::mutex> state(state_mu_);
    return committing_tid_ != 0 ? 1 : 0;
  });
  m->RegisterGauge("journal.commits",
                   [this]() { return commits_.load(std::memory_order_acquire); });
  m->RegisterGauge("journal.committed_tid", [this]() { return CommittedTid(); });
  m->RegisterGauge("journal.commit_service_ns",
                   [this]() { return commit_stamp_.busy_ns(); });
  m->RegisterGauge("journal.running_dirty_blocks",
                   [this]() { return static_cast<uint64_t>(RunningDirtyBlocks()); });
  m->RegisterGauge("journal.free_space", [this]() { return FreeLogBytes(); });
  m->RegisterGauge("journal.checkpoint_stall", [this]() { return CheckpointStalls(); });
  m->RegisterGauge("journal.checkpoint_writeback_blocks", [this]() {
    return checkpoint_writeback_blocks_.load(std::memory_order_relaxed);
  });
  m->RegisterGauge("journal.commit_windows", [this]() {
    return coalesced_windows_.load(std::memory_order_relaxed);
  });
}

Journal::~Journal() { ctx_->obs.metrics.DeregisterGauges("journal."); }

void Journal::Dirty(uint64_t meta_block_id, std::function<void()> undo) {
  std::lock_guard<std::mutex> lock(state_mu_);
  analysis::ScopedLockNote note(analysis::LockWitness::Global(), StateSite());
  running_->dirty.insert(meta_block_id);
  if (undo) {
    running_->undo.push_back(std::move(undo));
  }
}

void Journal::OnCommit(std::function<void()> action) {
  std::lock_guard<std::mutex> lock(state_mu_);
  analysis::ScopedLockNote note(analysis::LockWitness::Global(), StateSite());
  running_->on_commit.push_back(std::move(action));
}

size_t Journal::RunningDirtyBlocks() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return running_->dirty.size();
}

bool Journal::RunningEmpty() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return running_->Empty();
}

uint64_t Journal::RunningTid() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return running_->tid;
}

void Journal::WaitForCommit(uint64_t tid) {
  if (CommittedTid() < tid) {
    std::unique_lock<std::mutex> wl(wait_mu_);
    commit_cv_.wait(wl, [this, tid] { return CommittedTid() >= tid; });
  }
  // The tid's writeout rendered commit service time while this thread slept; its
  // lane-bound virtual timeline resumes after that work, like the real wait did.
  uint64_t w = commit_stamp_.AcquireShared(&ctx_->clock);
  obs::ReportWait(&ctx_->obs, &ctx_->clock, "journal.tid_wait", w);
}

bool Journal::LogNearFullLocked() const {
  // "Near full": even after logging the current running transaction (descriptor +
  // dirty blocks + commit record, doubled for slack the way jbd2 reserves credits),
  // the log would overflow and the committer would stall in checkpoint writeback.
  // Holding the coalescing window open in that state only deepens the stall.
  uint64_t used = log_used_bytes_.load(std::memory_order_acquire);
  uint64_t running_cost = 2 * (RunningDirtyBlocks() + 2) * kBlockSize;
  return used + running_cost > journal_bytes_;
}

void Journal::EnsureLogSpaceLocked(uint64_t needed_bytes) {
  // Caller holds commit_mu_ (the single-committer pipeline slot), so the
  // checkpoint queue and cursor are stable. Fast path: the log still has room.
  if (log_used_bytes_.load(std::memory_order_acquire) + needed_bytes <= journal_bytes_ ||
      checkpoint_queue_.empty()) {
    return;
  }
  // Log full: jbd2 stalls the committer while checkpoint writeback copies still-live
  // logged metadata blocks to their home locations and advances the log tail
  // (Strata's log digestion is the same move). The stall is real commit service
  // time — it lands in commit_service_ns and every tid/pipeline waiter sits behind
  // it — and is attributed in the contention ledger under "journal.checkpoint".
  checkpoint_stalls_.fetch_add(1, std::memory_order_relaxed);
  uint64_t t0 = ctx_->clock.Now();
  obs::ScopedSpan span(&ctx_->obs.tracer, &ctx_->clock, "journal", "journal.checkpoint",
                       "needed_bytes", needed_bytes);
  if (checkpoint_hook_) {
    checkpoint_hook_();
  }
  static thread_local std::array<uint8_t, kBlockSize> scratch{};
  // Reclaim at least a quarter of the log per stall so a storm of maximal commits
  // doesn't checkpoint one transaction at a time.
  uint64_t reclaim_target = std::max(needed_bytes, journal_bytes_ / 4);
  uint64_t reclaimed = 0;
  uint64_t written_back = 0;
  while (reclaimed < reclaim_target && !checkpoint_queue_.empty()) {
    LoggedTx tx = std::move(checkpoint_queue_.front());
    checkpoint_queue_.pop_front();
    for (uint64_t id : tx.ids) {
      auto it = live_logged_.find(id);
      SPLITFS_CHECK(it != live_logged_.end() && it->second > 0);
      if (--it->second == 0) {
        live_logged_.erase(it);
        // Newest logged copy of this block: write it back to its home location.
        // Older copies were superseded in the log and are dropped for free — the
        // dedup that makes a bigger journal absorb metadata rewrites.
        dev_->StoreNt(journal_start_, scratch.data(), kBlockSize,
                      sim::PmWriteKind::kMetadata);
        ++written_back;
      }
    }
    reclaimed += tx.blocks * kBlockSize;
  }
  // Advance the log tail durably (jbd2 updates the journal superblock), then
  // account the bookkeeping CPU.
  dev_->StoreNt(journal_start_, scratch.data(), kBlockSize, sim::PmWriteKind::kJournal);
  dev_->Fence();
  ctx_->ChargeCpu(ctx_->model.ext4_checkpoint_cpu_ns);
  checkpoint_writeback_blocks_.fetch_add(written_back, std::memory_order_relaxed);
  log_used_bytes_.fetch_sub(std::min(
      reclaimed, log_used_bytes_.load(std::memory_order_acquire)),
      std::memory_order_acq_rel);
  obs::ReportWait(&ctx_->obs, &ctx_->clock, "journal.checkpoint",
                  ctx_->clock.Now() - t0);
}

void Journal::ChargeCommitIo(const std::set<uint64_t>& dirty_ids) {
  // JBD2 writes: one descriptor block, each logged metadata block, one commit record.
  // All land in the journal region of PM; the journal area is written with real bytes
  // so wear accounting and the write-amplification comparisons are honest.
  static thread_local std::array<uint8_t, kBlockSize> scratch{};
  analysis::ScopedLintSite lint("journal.commit");
  size_t total_blocks = dirty_ids.size() + 2;
  EnsureLogSpaceLocked(total_blocks * kBlockSize);
  auto store_block = [this]() {
    if (write_cursor_ + kBlockSize > journal_bytes_) {
      write_cursor_ = 0;
    }
    uint64_t off = journal_start_ + write_cursor_;
    dev_->StoreNt(off, scratch.data(), kBlockSize, sim::PmWriteKind::kJournal);
    write_cursor_ += kBlockSize;
    return off;
  };
  // Descriptor + logged metadata blocks first; they are the commit record's payload
  // (rule (b), strict: the record must reach a *later* fence than every payload
  // block, or a crash between them can expose a committed-looking transaction whose
  // body never drained).
  for (size_t i = 0; i + 1 < total_blocks; ++i) {
    uint64_t off = store_block();
    analysis::CoverPayload(dev_, off, kBlockSize);
  }
  if (!legacy_commit_order_for_test_) {
    // JBD2's ordering: fence the payload, then store the commit record, then fence
    // it. The payload fence persists dirty_ids.size()+1 nt-stores (pm_store_fence_ns);
    // the old order issued both fences after the record, leaving the second one
    // empty (fence_ns) and the record ordered *with* its payload, not after it.
    dev_->Fence();
    uint64_t rec_off = store_block();
    analysis::SealCover(dev_, rec_off, kBlockSize, /*strict=*/true, "journal.commit");
    dev_->Fence();
  } else {
    // Test-only mutation (set_legacy_commit_order_for_test): the pre-fix order —
    // record stored with the payload, both fences after. The checker's strict
    // publish-before-persist rule must flag the record persisting at the same
    // fence as its payload, and the second fence is an empty-fence lint hit.
    uint64_t rec_off = store_block();
    analysis::SealCover(dev_, rec_off, kBlockSize, /*strict=*/true, "journal.commit");
    dev_->Fence();
    dev_->Fence();
  }
  ctx_->ChargeCpu(ctx_->model.ext4_journal_commit_cpu_ns);
  ctx_->stats.AddJournalCommit();
  commits_.fetch_add(1, std::memory_order_relaxed);
  // The transaction now occupies log space until checkpoint writeback retires it.
  LoggedTx logged;
  logged.blocks = total_blocks;
  logged.ids.assign(dirty_ids.begin(), dirty_ids.end());
  for (uint64_t id : logged.ids) {
    ++live_logged_[id];
  }
  checkpoint_queue_.push_back(std::move(logged));
  log_used_bytes_.fetch_add(total_blocks * kBlockSize, std::memory_order_acq_rel);
}

void Journal::NoteCommitRequest(const char* who, uint64_t tid) {
  std::lock_guard<std::mutex> lock(attr_mu_);
  uint64_t& pending = pending_attr_[who];
  pending = std::max(pending, tid);
  attr_stamps_[who];  // Materialize the stamp so the gauge can read it.
}

void Journal::AttributeCommitService(uint64_t target, uint64_t dt) {
  std::vector<sim::ResourceStamp*> satisfied;
  {
    std::lock_guard<std::mutex> lock(attr_mu_);
    for (auto it = pending_attr_.begin(); it != pending_attr_.end();) {
      if (it->second <= target) {
        satisfied.push_back(&attr_stamps_[it->first]);
        it = pending_attr_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (satisfied.empty() || dt == 0) {
    return;
  }
  // Equal split: every satisfied tag's durability horizon needed this one writeout,
  // and the writeout's cost is dominated by the shared descriptor/record/fence
  // machinery, not any one tag's dirty blocks.
  uint64_t share = dt / satisfied.size();
  for (sim::ResourceStamp* stamp : satisfied) {
    stamp->AddBusy(&ctx_->clock, share);
  }
}

uint64_t Journal::AttributedCommitServiceNs(const std::string& who) const {
  std::lock_guard<std::mutex> lock(attr_mu_);
  auto it = attr_stamps_.find(who);
  return it == attr_stamps_.end() ? 0 : it->second.busy_ns();
}

void Journal::CommitRunning(bool fsync_barrier, const char* who) {
  // Durability horizon under state_mu_: the running transaction if it carries
  // anything, else everything before it. The RunningEmpty predicate must match the
  // commit's own notion of "nothing to do" — a transaction holding only a deferred
  // inode free still needs its commit record.
  uint64_t target;
  bool in_flight;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    target = running_->Empty() ? running_->tid - 1 : running_->tid;
    in_flight = committing_tid_ != 0 && committing_tid_ >= target;
  }
  if (CommittedTid() >= target) {
    return;  // Clean journal: fsync returns without the commit-thread handshake.
  }
  if (who != nullptr) {
    NoteCommitRequest(who, target);
  }
  if (in_flight) {
    // The horizon is already being written out by another thread: log_wait_commit
    // instead of queueing for the pipeline slot.
    WaitForCommit(target);
    return;
  }
  CommitTid(target, fsync_barrier);
}

void Journal::CommitTid(uint64_t target, bool fsync_barrier) {
  // The pipeline slot: one transaction writes out at a time. Queueing here is the
  // real jbd2 wait "for the previous commit to finish before starting ours".
  std::unique_lock<std::mutex> pipeline(commit_mu_);
  analysis::ScopedLockNote pipeline_note(analysis::LockWitness::Global(), PipelineSite());
  if (CommittedTid() >= target) {
    // Another committer carried our tid (or a later one sealed it into its own
    // commit) while we queued; we really waited for that service time.
    uint64_t w = commit_stamp_.AcquireShared(&ctx_->clock);
    obs::ReportWait(&ctx_->obs, &ctx_->clock, "journal.pipeline_slot", w);
    return;
  }
  // Per-tag attribution measures the same bracket on this thread's own timeline
  // (the window, seal, writeout, and actions below); the split happens after the
  // tid publishes.
  uint64_t attr_t0 = ctx_->clock.Now();
  // Commit service time brackets the seal and the writeout: a serial resource
  // renders at most one second of service per second, and every later waiter's
  // timeline must sit after it. RAII so no exit path — including a crash-injection
  // unwind mid-writeout — can leave the stamp unbalanced.
  sim::ScopedResourceTime service(&commit_stamp_, &ctx_->clock);
  obs::ReportWait(&ctx_->obs, &ctx_->clock, "journal.pipeline_slot", service.waited_ns());

  if (commit_interval_ns_ > 0 && !LogNearFullLocked()) {
    // Commit coalescing (jbd2's j_commit_interval): hold the pipeline slot with the
    // running transaction still open, so fsyncs arriving during the window join the
    // same tid instead of queueing their own commit. The window is charged as
    // commit service time — log_wait_commit latency includes it, which is exactly
    // the latency-for-bandwidth trade the knob buys. Skipped when the log is nearly
    // full: delaying the seal there would only deepen the checkpoint stall.
    obs::ScopedSpan window_span(&ctx_->obs.tracer, &ctx_->clock, "journal",
                                "journal.commit_window", "tid", target);
    if (commit_window_hook_) {
      commit_window_hook_();
    }
    ctx_->clock.Advance(commit_interval_ns_);
    // Real-time grace so concurrently running threads actually reach the running
    // transaction before the seal; virtual cost is the Advance above, not this.
    std::this_thread::sleep_for(kCommitWindowRealGrace);
    coalesced_windows_.fetch_add(1, std::memory_order_relaxed);
  }

  {
    obs::ScopedSpan seal_span(&ctx_->obs.tracer, &ctx_->clock, "journal", "journal.seal",
                              "tid", target);
    // Seal: the exclusive barrier waits for in-flight handles and blocks new ones
    // only for this swap — the commit captures every joined operation complete,
    // none half-done, and T_{n+1} starts accepting handles the moment we release.
    std::unique_lock<std::shared_mutex> barrier(handle_mu_);
    analysis::ScopedLockNote barrier_note(analysis::LockWitness::Global(), BarrierSite());
    std::lock_guard<std::mutex> state(state_mu_);
    analysis::ScopedLockNote state_note(analysis::LockWitness::Global(), StateSite());
    // We hold the pipeline slot and committed < target, so the target can only be
    // the (non-empty) running transaction — unless a recovery discarded it, in
    // which case there is nothing left to write.
    if (running_->Empty() || running_->tid != target) {
      return;
    }
    committing_ = std::move(running_);
    committing_tid_ = target;
    running_ = std::make_unique<Transaction>();
    running_->tid = next_tid_++;
  }

  if (mid_writeout_hook_) {
    mid_writeout_hook_();
  }

  // Writeout, with the barrier released. A crash below unwinds with committing_
  // still holding its undo stack — RecoverDiscardRunning rolls back the fresh
  // running transaction first, then this unsealed one, newest mutation first.
  {
    obs::ScopedSpan writeout_span(&ctx_->obs.tracer, &ctx_->clock, "journal",
                                  "journal.writeout", "tid", target);
    if (fsync_barrier) {
      ctx_->ChargeCpu(ctx_->model.ext4_fsync_barrier_ns);
    }
    ChargeCommitIo(committing_->dirty);
  }

  // The commit record is durable: drop the undos, then run the deferred actions.
  // Actions execute outside state_mu_ AND outside the barrier: they take inode and
  // allocator locks, and operations take the state mutex *while holding* inode
  // locks (journal_.Dirty inside a write path) — running them under state_mu_
  // would invert that order, and the pipeline means concurrent handles may be
  // mid-operation, so each action synchronizes on the locks it needs.
  std::vector<std::function<void()>> actions;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    committing_->dirty.clear();
    committing_->undo.clear();
    actions.swap(committing_->on_commit);
  }
  for (auto& action : actions) {
    action();
  }
  {
    std::lock_guard<std::mutex> state(state_mu_);
    committing_.reset();
    committing_tid_ = 0;
  }
  committed_tid_.store(target, std::memory_order_release);
  // Split the writeout's measured virtual duration across the tags it satisfied.
  // Off-clock brackets (inline background twins) rewind their charge — consistent
  // with a real background thread, their service is foreground-costless, so it
  // attributes nothing.
  if (!sim::Clock::OffClock()) {
    uint64_t attr_now = ctx_->clock.Now();
    AttributeCommitService(target, attr_now > attr_t0 ? attr_now - attr_t0 : 0);
  }
  {
    // Empty section: a log_wait_commit sleeper that checked the predicate before
    // the store above is inside wait(), so the notify cannot be lost.
    std::lock_guard<std::mutex> wl(wait_mu_);
  }
  commit_cv_.notify_all();
}

void Journal::RecoverDiscardRunning() {
  std::unique_lock<std::mutex> pipeline(commit_mu_);
  analysis::ScopedLockNote pipeline_note(analysis::LockWitness::Global(), PipelineSite());
  std::unique_lock<std::shared_mutex> barrier(handle_mu_);
  analysis::ScopedLockNote barrier_note(analysis::LockWitness::Global(), BarrierSite());
  // Oldest-first concatenation: an unsealed committing transaction's mutations
  // predate everything in the running transaction.
  std::vector<std::function<void()>> undos;
  {
    std::lock_guard<std::mutex> state(state_mu_);
    if (committing_ != nullptr) {
      undos = std::move(committing_->undo);
    }
    for (auto& u : running_->undo) {
      undos.push_back(std::move(u));
    }
    committing_.reset();  // Deferred frees die with their transactions.
    committing_tid_ = 0;
    running_ = std::make_unique<Transaction>();
    running_->tid = next_tid_++;
    // A remount replays committed tids to their home locations and restarts the
    // log empty: the checkpoint accounting resets with it (the DRAM mirror of the
    // journal superblock's head/tail).
    checkpoint_queue_.clear();
    live_logged_.clear();
    log_used_bytes_.store(0, std::memory_order_release);
    // Every tid below the fresh running transaction is now settled: durable if it
    // committed, rolled back here otherwise — none can ever commit later. Publish
    // that horizon, or every post-recovery clean fsync would chase the discarded
    // tids through the commit path (pipeline slot + exclusive barrier) forever
    // instead of taking the documented clean fast path.
    committed_tid_.store(running_->tid - 1, std::memory_order_release);
  }
  {
    std::lock_guard<std::mutex> wl(wait_mu_);
  }
  // Defensive: recovery is a quiesce point, so no fsync can legally be sleeping on
  // a tid this rollback discards — but if that contract were ever violated, waking
  // the sleeper beats hanging it forever. (Real jbd2 would abort the journal and
  // surface EIO from log_wait_commit; this model has no journal-abort state.)
  commit_cv_.notify_all();
  // Undos run newest-first outside the state mutex (same discipline as commit
  // actions — they touch the inode table and allocator): the running transaction's
  // mutations unwind before the committing transaction's they were stacked on.
  for (auto it = undos.rbegin(); it != undos.rend(); ++it) {
    (*it)();
  }
}

}  // namespace ext4sim
