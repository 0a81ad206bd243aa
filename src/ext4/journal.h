// JBD2-style metadata journal model with a two-transaction commit pipeline.
//
// ext4 keeps one *running transaction* that every metadata-dirtying operation joins;
// fsync() forces a commit of the whole running transaction (this is why ext4 fsync is
// expensive, Table 6: 28.98 us). The modified EXT4_IOC_MOVE_EXT ioctl that implements
// relink wraps its own small set of metadata blocks in a dedicated transaction and
// commits it without the fsync barrier path — which is why SplitFS fsync (relink) costs
// 6.85 us on the same hardware.
//
// Three concerns are modeled:
//  * Cost: a commit writes one descriptor block, each distinct dirtied metadata block,
//    and a commit record into the journal region of the PM device, with the fences JBD2
//    issues; the fsync path additionally pays the commit-thread handshake.
//  * Crash atomicity: mutations register undo closures; Crash-then-Recover rolls back
//    everything that never reached its commit record — the running transaction first,
//    then a committing transaction whose writeout was cut short, newest mutation first.
//    Committed state is durable.
//  * Handle concurrency (jbd2's journal_start/journal_stop): a metadata operation
//    brackets itself with a Handle — a shared lock on the transaction barrier. Commit
//    is *pipelined* like real jbd2: it takes the barrier exclusively only for a short
//    seal window that atomically swaps the running transaction into the committing
//    slot and opens a fresh running transaction, then performs the descriptor/
//    metadata/commit-record writeout and the deferred on-commit actions with the
//    barrier released — transaction T_{n+1} accepts handles while T_n writes out.
//    Each transaction carries a tid; fsync commits its tid and waits for its
//    completion (jbd2's log_start_commit + log_wait_commit). Only one transaction
//    writes out at a time (commit_mu_ is the pipeline slot, depth two: one running,
//    one committing).
//
//    Virtual time follows the real waits, not the old writeout-length freeze: commit
//    service time accumulates in a ResourceStamp, and only true waiters fast-forward
//    past it — an fsync whose tid has not completed, a committer queued behind an
//    in-flight writeout, or a handle that raced the seal window. Handles that join
//    the running transaction while a commit writes out (the common pipelined case)
//    pay nothing, which is exactly what shrinks the commit shadow fsync-heavy
//    workloads used to see. Single-timeline (no-lane) runs are bit-identical.
//
// Two production-traffic behaviors layer on the pipeline:
//  * Commit coalescing (jbd2's j_commit_interval): with a nonzero commit interval the
//    committer holds the seal open for a delay window before swapping the running
//    transaction out. Every log_start_commit that arrives during the window targets
//    the still-running transaction — its dirt and its durability wait merge into the
//    one writeout, trading per-fsync latency (the window is charged as commit
//    service time, so tid waiters fast-forward past it) for writeout amortization.
//    Interval 0 (the default) skips the window code entirely: timelines are
//    bit-identical to the plain pipeline. A nearly-full journal forces an immediate
//    seal — delaying a commit the log cannot absorb would only deepen the stall.
//  * Checkpoint writeback (jbd2 checkpointing / Strata log digestion): the journal is
//    a circular log whose space is only reclaimed by writing still-live logged
//    metadata blocks back to their home locations and advancing the tail. A commit
//    that does not fit stalls, pops the oldest logged transactions, writes back each
//    block whose newest logged copy lives there (a later re-log supersedes the old
//    copy — the digest optimization), updates the tail, and only then writes itself.
//    The stall is charged to the committer (media + cpu), attributed in the
//    contention ledger under "journal.checkpoint", and surfaced by the
//    "journal.free_space" / "journal.checkpoint_stall" gauge pair.
#ifndef SRC_EXT4_JOURNAL_H_
#define SRC_EXT4_JOURNAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/lock_witness.h"
#include "src/pmem/device.h"
#include "src/sim/context.h"

namespace common {
class ServicePool;
}

namespace ext4sim {

// Identifies a distinct metadata block for dirty-set dedup within a transaction.
enum class MetaKind : uint64_t {
  kInodeTable = 1,
  kBlockBitmap = 2,
  kExtentTree = 3,
  kDirBlock = 4,
  kGroupDesc = 5,
  kSuperblock = 6,
};

constexpr uint64_t MetaBlockId(MetaKind kind, uint64_t id) {
  return (static_cast<uint64_t>(kind) << 48) | id;
}

class Journal {
 public:
  // The journal occupies device blocks [journal_start, journal_start + journal_blocks).
  // `commit_interval_ns` is the coalescing delay window (0 = seal immediately, the
  // bit-identical pre-coalescing behavior).
  Journal(pmem::Device* dev, uint64_t journal_start_block, uint64_t journal_blocks,
          uint64_t commit_interval_ns = 0);
  ~Journal();

  // RAII jbd2 handle: joins the running transaction. Hold one across every metadata
  // operation (Dirty/OnCommit calls plus the in-memory mutations they cover); never
  // hold one while calling CommitRunning — the seal takes the barrier exclusively
  // and would self-deadlock.
  class Handle {
   public:
    explicit Handle(Journal* j) : j_(j) {
      // Pipelined fast path: the barrier is free during a commit's writeout, so a
      // handle normally joins the running transaction immediately and pays nothing.
      analysis::LockWitness::Kind k = analysis::LockWitness::Kind::kTry;
      if (!j_->handle_mu_.try_lock_shared()) {
        // Racing the seal window: the thread really waits for the swap, behind
        // which sits the commit service time already rendered — a lane-bound
        // virtual timeline must not sit before work the pipeline already did.
        j_->handle_mu_.lock_shared();
        k = analysis::LockWitness::Kind::kBlocking;
        uint64_t w = j_->commit_stamp_.AcquireShared(&j_->ctx_->clock);
        obs::ReportWait(&j_->ctx_->obs, &j_->ctx_->clock, "journal.handle_seal_race", w);
      }
      if (analysis::LockWitness* w = analysis::LockWitness::Global(); w != nullptr) {
        w->Acquire(BarrierSite(), 0, k);
      }
    }
    ~Handle() {
      if (analysis::LockWitness* w = analysis::LockWitness::Global(); w != nullptr) {
        w->Release(BarrierSite(), 0);
      }
      j_->handle_mu_.unlock_shared();
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

   private:
    Journal* j_;
  };

  // Witness site ids for the journal's documented lock order
  // commit_mu_ -> handle_mu_ -> state_mu_ (interned once, process-wide).
  static int PipelineSite() {
    static const int kSite = analysis::LockSite("journal.pipeline");
    return kSite;
  }
  static int BarrierSite() {
    static const int kSite = analysis::LockSite("journal.barrier");
    return kSite;
  }
  static int StateSite() {
    static const int kSite = analysis::LockSite("journal.state");
    return kSite;
  }

  // Marks a metadata block dirty in the running transaction and registers the inverse
  // mutation used if the transaction never commits. Caller holds a Handle.
  void Dirty(uint64_t meta_block_id, std::function<void()> undo);

  // Defers an action (e.g. freeing blocks) until the running transaction commits;
  // discarded if the transaction is rolled back. Mirrors jbd2's deferred-free rule:
  // blocks released by an uncommitted transaction must not be reused before commit.
  // Caller holds a Handle. Actions run after the commit record, with the barrier
  // *released* (the pipeline no longer quiesces the namespace), so every action must
  // take the locks it needs — see Ext4Dax::ReclaimIfOrphan for the pattern.
  void OnCommit(std::function<void()> action);

  // Number of distinct dirty metadata blocks in the running transaction.
  size_t RunningDirtyBlocks() const;
  // True when the running transaction carries nothing a commit would have to make
  // durable: no dirty block, no undo, and no deferred on-commit action. The same
  // predicate gates CommitRunning's clean-fsync fast path — a transaction holding
  // only a deferred inode free is NOT empty (the free must still reach its commit).
  bool RunningEmpty() const;

  // Tid of the transaction currently accepting handles. Tids are dense and start at
  // 1; transaction t is settled once CommittedTid() >= t — durable, or discarded by
  // crash recovery (a discarded tid can never commit, so waiting on it must not
  // block; recovery advances the horizon past everything it rolled back).
  uint64_t RunningTid() const;
  uint64_t CommittedTid() const {
    return committed_tid_.load(std::memory_order_acquire);
  }
  // jbd2's log_wait_commit: blocks until transaction `tid` has fully committed
  // (commit record written, deferred actions run). A lane-bound waiter fast-forwards
  // past the commit service time rendered while it slept.
  void WaitForCommit(uint64_t tid);

  // Commits the running transaction and waits for its completion. `fsync_barrier`
  // selects the heavyweight path (commit-thread handshake + wait), used by fsync;
  // the timer/background path and the relink ioctl path skip it. Clean fast path:
  // if the running transaction is empty and every prior tid has committed, returns
  // without touching the barrier. If the durability horizon is an in-flight commit,
  // waits on its tid instead of starting a new writeout. Must not be called while
  // holding a Handle.
  //
  // `who`, when set, tags the request for per-caller commit-service attribution: a
  // coalesced writeout measures its own virtual duration and splits it equally
  // across the tags whose requested tids it satisfied (the tenant router passes
  // tenant ids, so cross-tenant commits no longer merge into one anonymous stamp).
  // The merged commit_stamp_ is untouched — attribution is an additional view.
  void CommitRunning(bool fsync_barrier, const char* who = nullptr);

  // Accumulated commit-service time attributed to `who` (gauge basis:
  // tenant.<id>.commit_service_ns). 0 for never-seen tags.
  uint64_t AttributedCommitServiceNs(const std::string& who) const;

  // Crash recovery: discard everything that never reached its commit record, newest
  // mutation first — the running transaction's undos, then (if a crash cut a
  // writeout short) the unsealed committing transaction's. Takes the pipeline slot
  // and the barrier exclusively; the caller is the only thread running (recovery is
  // a quiesce point), so undo closures may mutate filesystem state freely.
  void RecoverDiscardRunning();

  // Exclusive journal quiescence for offline inspection (fsck) and orphan replay:
  // excludes every metadata operation AND any in-flight commit writeout while held
  // (the barrier alone no longer implies commit exclusion — the pipeline writes out
  // with the barrier released). Lock order: pipeline slot before barrier, matching
  // the committer.
  struct Quiescence {
    std::unique_lock<std::mutex> pipeline;
    std::unique_lock<std::shared_mutex> barrier;
  };
  Quiescence Quiesce() {
    std::unique_lock<std::mutex> pipeline(commit_mu_);
    // Witness: the pipeline -> barrier edge is recorded (and released) here; the
    // Quiescence holder keeps the real locks, but any ordering violation against
    // this pair manifests at acquisition, which is what the note brackets.
    std::unique_lock<std::shared_mutex> barrier(handle_mu_);
    if (analysis::LockWitness* w = analysis::LockWitness::Global(); w != nullptr) {
      w->Acquire(PipelineSite(), 0, analysis::LockWitness::Kind::kBlocking);
      w->Acquire(BarrierSite(), 0, analysis::LockWitness::Kind::kBlocking);
      w->Release(BarrierSite(), 0);
      w->Release(PipelineSite(), 0);
    }
    return {std::move(pipeline), std::move(barrier)};
  }

  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }

  // Shared journal-commit service (multi-tenant deployments). With a pool set,
  // CommitRunning no longer performs the writeout on the calling thread: the caller
  // records the tid it needs durable, registers one commit pass with the pool
  // (queued passes dedup — one pass serves every tid requested before it runs), and
  // sleeps in log_wait_commit. The pass runs on a pool worker under its own clock
  // lane, so commit service time still accumulates in the commit stamp and waiters
  // still fast-forward past it — the virtual-time cost of a commit is unchanged;
  // only which thread renders it moves. Null (the default) keeps the caller-commits
  // behavior bit-identical. Swapping to null drains in-flight passes first. Must
  // not be called concurrently with commits (mount/unmount points only).
  void SetServicePool(common::ServicePool* pool);

  // Journal bytes not occupied by logged-but-not-yet-checkpointed transactions.
  // Monotone within a commit; replenished by checkpoint writeback.
  uint64_t FreeLogBytes() const {
    uint64_t used = log_used_bytes_.load(std::memory_order_acquire);
    return used >= journal_bytes_ ? 0 : journal_bytes_ - used;
  }
  // Commits that stalled for checkpoint writeback before they could write.
  uint64_t CheckpointStalls() const {
    return checkpoint_stalls_.load(std::memory_order_relaxed);
  }

  // Test-only: invoked by the committer after the seal (fresh running transaction
  // live, barrier released) and before the writeout's journal stores. Lets tests
  // populate T_{n+1} or arm a crash injector exactly inside the pipeline window.
  void SetMidWriteoutHookForTest(std::function<void()> hook) {
    mid_writeout_hook_ = std::move(hook);
  }
  // Test-only: invoked inside the coalescing delay window — after the committer
  // claimed the pipeline slot for `target`, before the window charge and the seal.
  // The running transaction is still accepting handles, so the hook can stack
  // mutations that merge into the delayed writeout, or arm a crash injector.
  void SetCommitWindowHookForTest(std::function<void()> hook) {
    commit_window_hook_ = std::move(hook);
  }
  // Test-only: invoked when a commit stalls for checkpoint writeback, before the
  // writeback stores. Lets crash tests arm an injector mid-checkpoint.
  void SetCheckpointHookForTest(std::function<void()> hook) {
    checkpoint_hook_ = std::move(hook);
  }
  // Test-only mutation hook (analysis self-tests): revert ChargeCommitIo to the
  // pre-fix order — commit record stored together with its payload, both fences
  // after — so the PersistChecker's strict publish-before-persist rule and the
  // empty-fence lint both fire.
  void set_legacy_commit_order_for_test(bool v) { legacy_commit_order_for_test_ = v; }

 private:
  // One jbd2 transaction: the dirty-block set for commit IO sizing, the undo stack
  // for rollback, and actions deferred to commit.
  struct Transaction {
    uint64_t tid = 0;
    std::set<uint64_t> dirty;
    std::vector<std::function<void()>> undo;
    std::vector<std::function<void()>> on_commit;
    bool Empty() const { return dirty.empty() && undo.empty() && on_commit.empty(); }
  };

  // One logged-but-not-checkpointed transaction: how much journal space it pins and
  // which metadata blocks its log copies cover (for writeback dedup).
  struct LoggedTx {
    uint64_t blocks = 0;
    std::vector<uint64_t> ids;
  };

  // Writes the descriptor/metadata/commit-record blocks for one transaction into the
  // journal region, reserving space first (checkpointing if the log is full) and
  // retiring the transaction into the checkpoint queue after. Caller holds
  // commit_mu_.
  void ChargeCommitIo(const std::set<uint64_t>& dirty_ids);
  // Checkpoint writeback: pops oldest logged transactions and writes back every
  // block whose newest logged copy they hold until `needed_bytes` (plus slack) fit.
  // Caller holds commit_mu_.
  void EnsureLogSpaceLocked(uint64_t needed_bytes);
  // True when the log cannot absorb roughly two more transactions the size of the
  // running one — the coalescing window must not delay a commit the log is about to
  // stall on. Caller holds commit_mu_.
  bool LogNearFullLocked() const;
  // Seals the running transaction (short exclusive barrier swap), writes it out with
  // the barrier released, runs deferred actions, publishes the tid. Caller must NOT
  // hold commit_mu_ — this takes it.
  void CommitTid(uint64_t target, bool fsync_barrier);
  // One shared-pool pass: commits until every requested tid is durable.
  void ServiceCommitPass();
  // Records that `who` needs `tid` durable (attribution bookkeeping).
  void NoteCommitRequest(const char* who, uint64_t tid);
  // Splits `dt` of commit service equally across every tag whose pending request
  // `target` satisfies, crediting each tag's stamp and retiring the requests.
  void AttributeCommitService(uint64_t target, uint64_t dt);

  pmem::Device* dev_;
  sim::Context* ctx_;
  uint64_t journal_start_;  // Byte offset of journal region on the device.
  uint64_t journal_bytes_;
  uint64_t commit_interval_ns_ = 0;  // Coalescing delay window; 0 = off.
  uint64_t write_cursor_ = 0;  // Circular position; guarded by commit_mu_.

  // Checkpoint model, guarded by commit_mu_ (mutations happen only inside a commit).
  // log_used_bytes_ is additionally atomic so the free-space gauge can read it
  // without taking the pipeline slot mid-writeout.
  std::deque<LoggedTx> checkpoint_queue_;
  std::unordered_map<uint64_t, uint32_t> live_logged_;  // id -> logged copies in queue.
  std::atomic<uint64_t> log_used_bytes_{0};
  std::atomic<uint64_t> checkpoint_stalls_{0};
  std::atomic<uint64_t> checkpoint_writeback_blocks_{0};
  std::atomic<uint64_t> coalesced_windows_{0};

  // handle_mu_ is the transaction barrier: shared = operation handle, exclusive =
  // the commit seal window / recovery / fsck. commit_mu_ is the pipeline slot: held
  // for a whole writeout, so at most one transaction commits at a time while the
  // next accepts handles. state_mu_ guards the running transaction's in-memory sets
  // (operations on different inodes append concurrently) plus the committing slot's
  // identity. Lock order: commit_mu_ -> handle_mu_ -> state_mu_.
  mutable std::shared_mutex handle_mu_;
  mutable std::mutex commit_mu_;
  mutable std::mutex state_mu_;
  mutable sim::ResourceStamp commit_stamp_;

  // Guarded by state_mu_. committing_ keeps its undo stack until the commit record
  // is durable so a crash that unwinds mid-writeout still has everything recovery
  // needs to roll back.
  std::unique_ptr<Transaction> running_;
  std::unique_ptr<Transaction> committing_;
  uint64_t committing_tid_ = 0;  // 0 = no writeout in flight.
  uint64_t next_tid_ = 1;

  std::atomic<uint64_t> committed_tid_{0};
  std::mutex wait_mu_;  // log_wait_commit sleepers.
  std::condition_variable commit_cv_;

  std::function<void()> mid_writeout_hook_;    // Test-only; see setter.
  std::function<void()> commit_window_hook_;   // Test-only; see setter.
  std::function<void()> checkpoint_hook_;      // Test-only; see setter.
  bool legacy_commit_order_for_test_ = false;  // Test-only; see setter.
  std::atomic<uint64_t> commits_{0};

  // Shared commit service (SetServicePool). requested_tid_ is the newest tid any
  // caller has asked the service to make durable; a pass loops until the committed
  // horizon covers it, so a request recorded while a pass runs is never lost.
  common::ServicePool* service_pool_ = nullptr;
  std::atomic<uint64_t> requested_tid_{0};

  // Per-tag commit-service attribution (see CommitRunning). pending_attr_ maps a
  // tag to the newest tid it asked for; a completing commit collects every tag its
  // target covers and credits each an equal share of the measured service duration.
  // Stamps live in a node-based map because ResourceStamp is unmovable.
  mutable std::mutex attr_mu_;
  std::map<std::string, uint64_t> pending_attr_;
  std::map<std::string, sim::ResourceStamp> attr_stamps_;
};

}  // namespace ext4sim

#endif  // SRC_EXT4_JOURNAL_H_
