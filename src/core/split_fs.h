// SplitFS: the user-space library file system (U-Split) over ext4-DAX (K-Split).
//
// This is the paper's primary contribution (§3). One SplitFs instance corresponds to
// one LD_PRELOAD-ed process; several instances — possibly with different consistency
// modes — can share a single Ext4Dax, exactly as concurrent applications share one
// mounted SplitFS.
//
// Responsibilities split:
//   * data operations (read / overwrite) are served in user space from the collection
//     of memory-maps, with loads and non-temporal stores — no kernel trap;
//   * appends (all modes) and overwrites (strict mode) are redirected to staging files
//     and published atomically by relink on fsync()/close(). With async relink
//     (Options::async_relink) fsync/close first fence relink-intent records, then
//     publish on the calling thread with the cost rewound off its clock;
//   * metadata operations (open, close, unlink, rename, mkdir, ...) are passed through
//     to K-Split, with U-Split bookkeeping layered on top;
//   * strict mode additionally writes one 64 B op-log entry + one fence per operation.
//
// POSIX quirks the paper calls out are reproduced: dup() shares one offset (fd_table),
// fork()/execve() state carryover (CloneForFork / SaveForExec + RestoreAfterExec),
// attribute caching across close, and mmap retention until unlink.
//
// Concurrency model (one instance, N application threads):
//   * the FD table and the path→inode / inode→state maps are sharded by hash with a
//     shared_mutex per shard — lookups (the common case) take reader locks;
//   * every FileState carries a byte-range reader/writer lock: reads take the range
//     shared; in-place overwrites take the range exclusive; appends, truncate,
//     publish (relink), and unlink teardown take the whole file. Strict-mode writes
//     that stay inside the current size also take only their byte range: each one
//     appends its own per-range op-log entry while registered with the checkpoint
//     epoch gate (below), so disjoint-offset strict writers scale like disjoint
//     files instead of serializing on one whole-file lock;
//   * the strict log-full checkpoint quiesces by epoch instead of seizing every
//     file: it closes the gate (epoch goes odd), waits out the in-flight per-range
//     writers — who only ever *try* range locks while registered, never block, so
//     the drain always terminates — sweeps and publishes the dirty files with
//     try-locks, resets the log, and reopens the gate (epoch even again). A writer
//     arriving at a closed gate falls back to the whole-file path and charges the
//     deferral to "splitfs.strict_range_log" in the contention ledger;
//   * a small per-file metadata mutex guards the size/staged-range bookkeeping so
//     disjoint-range operations can update the shared map structure;
//   * lock order: fd-table shard → path/file shard → OpenFile cursor → checkpoint
//     epoch gate (entered before the range lock; registered writers try-lock only)
//     → file range lock → file metadata mutex → mmap-cache/staging/op-log internals
//     → K-Split's locks. The op-log checkpoint acquires other files only with
//     try-lock, so "holds own file, waits for checkpoint" and "holds checkpoint,
//     sweeps files" cannot deadlock.
//
// K-Split is no longer a big kernel lock: Ext4Dax has per-inode reader/writer locks,
// namespace (dentry) shards, a sharded allocator, and jbd2-style journal handles
// (lock order documented in src/ext4/ext4_dax.h). U-Split never holds a K-Split lock
// across its own — every kfs_ call is a self-contained trap — so the two lock
// hierarchies compose trivially. The two-inode operations U-Split drives are ordered
// inside the kernel model itself:
//   * SwapExtentsForRelink locks {staging inode, target inode} by ascending ino;
//   * an fsync that publishes many staged runs issues relinks with defer_commit and
//     one CommitJournal — each relink reorders its own pair, and the commit takes
//     the journal barrier with no inode lock held;
//   * op-log recovery's OpenByIno + relink replay goes through the same ioctl, so
//     crash replay obeys the same order as the live path.
#ifndef SRC_CORE_SPLIT_FS_H_
#define SRC_CORE_SPLIT_FS_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/mmap_cache.h"
#include "src/core/oplog.h"
#include "src/core/options.h"
#include "src/core/staging.h"
#include "src/ext4/ext4_dax.h"
#include "src/obs/obs.h"
#include "src/vfs/fd_table.h"
#include "src/vfs/file_system.h"
#include "src/vfs/range_lock.h"

namespace splitfs {

// Public operations instrumented by SplitFs::OpScope: one top-level trace span per
// call when Options::tracing is set.
enum class OpKind {
  kOpen, kClose, kUnlink, kRename, kPread, kPwrite, kRead, kWrite, kLseek, kFsync,
  kFtruncate, kFallocate, kStat, kFstat, kMkdir, kRmdir, kReadDir, kRecover,
};
const char* OpKindName(OpKind op);

class SplitFs : public vfs::FileSystem {
 public:
  // `instance_tag` names this U-Split instance's runtime files (staging, op log).
  // `services` (optional) wires the instance into a multi-tenant deployment
  // (src/tenant/): replenish passes run on the shared pool instead of a 1-worker
  // pool of the instance's own, and token buckets pace this tenant's staging-file
  // and journal-commit consumption. The defaults (all null) keep the single-tenant
  // behavior bit-identical.
  SplitFs(ext4sim::Ext4Dax* kfs, Options opts, const std::string& instance_tag = "u0",
          const Services& services = {});
  ~SplitFs() override;

  std::string Name() const override;
  Mode mode() const { return opts_.mode; }

  // --- vfs::FileSystem ------------------------------------------------------------------
  int Open(const std::string& path, int flags) override;
  int Close(int fd) override;
  int Unlink(const std::string& path) override;
  int Rename(const std::string& from, const std::string& to) override;
  ssize_t Pread(int fd, void* buf, uint64_t n, uint64_t off) override;
  ssize_t Pwrite(int fd, const void* buf, uint64_t n, uint64_t off) override;
  ssize_t Read(int fd, void* buf, uint64_t n) override;
  ssize_t Write(int fd, const void* buf, uint64_t n) override;
  int64_t Lseek(int fd, int64_t off, vfs::Whence whence) override;
  int Fsync(int fd) override;
  int Ftruncate(int fd, uint64_t size) override;
  int Fallocate(int fd, uint64_t off, uint64_t len, bool keep_size) override;
  int Stat(const std::string& path, vfs::StatBuf* out) override;
  int Fstat(int fd, vfs::StatBuf* out) override;
  int Mkdir(const std::string& path) override;
  int Rmdir(const std::string& path) override;
  int ReadDir(const std::string& path, std::vector<std::string>* names) override;
  int Recover() override;

  // --- POSIX process plumbing (§3.5) -----------------------------------------------------
  int Dup(int fd);
  // fork(): the child inherits the library state (copied address space).
  std::unique_ptr<SplitFs> CloneForFork(const std::string& child_tag) const;
  // execve(): open-file state is serialized to a shm file keyed by pid and restored
  // after the exec replaces the address space. Staged runs do not survive the exec,
  // so SaveForExec publishes every staged file first.
  std::vector<uint8_t> SaveForExec();
  static std::unique_ptr<SplitFs> RestoreAfterExec(ext4sim::Ext4Dax* kfs, Options opts,
                                                   const std::string& instance_tag,
                                                   const std::vector<uint8_t>& blob);

  // --- Introspection (tests / §5.10 resource bench) ---------------------------------------
  uint64_t StagedBytes() const;
  uint64_t MemoryUsageBytes() const;
  uint64_t OpLogEntries() const { return oplog_ ? oplog_->EntriesLogged() : 0; }
  uint64_t Relinks() const { return relinks_.load(std::memory_order_relaxed); }
  uint64_t Checkpoints() const { return checkpoints_.load(std::memory_order_relaxed); }
  // Async-relink publishes: fsync/close calls that fenced intents and then
  // published the file's staged runs.
  uint64_t AsyncPublishes() const {
    return async_publishes_.load(std::memory_order_relaxed);
  }
  // Completion fence for publishes. Always satisfied: every publish, async relink
  // included, has finished before the fsync/close that started it returns.
  void WaitForPublishes() {}

  // Test-only: invoked right after the kernel rename, before the path-cache
  // updates — inside Rename's dual path-shard critical section. The rename-vs-
  // first-open regression test uses it to park the rename in the historical race
  // window while another thread attempts a first open of the destination;
  // single-core CI cannot land preemption inside a sub-microsecond window, so the
  // interleaving must be forced. Set to nullptr (the default) outside tests.
  void set_rename_race_hook_for_test(std::function<void()> hook) {
    rename_race_hook_ = std::move(hook);
  }

  const StagingPool& staging_pool() const { return *staging_; }
  ext4sim::Ext4Dax* kernel_fs() const { return kfs_; }

 private:
  struct StagedRange {
    uint64_t file_off = 0;
    StagingAlloc alloc;  // alloc.len is the range length.
    bool is_overwrite = false;
    // Async relink: prefix of the run already covered by a fenced kRelinkIntent
    // record. A later fsync logs only the delta; recovery's run coalescing stitches
    // the contiguous intent entries back together.
    uint64_t intent_len = 0;
  };

  struct FileState {
    explicit FileState(sim::Clock* clock, obs::Observability* obs = nullptr)
        : rlock(clock, obs, "splitfs.range_lock") {}

    // Immutable after creation.
    vfs::Ino ino = vfs::kInvalidIno;
    int kernel_fd = -1;

    // Everything below is guarded by meta_mu (brief critical sections: bookkeeping
    // only, never device access), except as noted. kernel_size is only touched while
    // the whole-file range lock is held exclusively (publish/truncate paths).
    std::string path;
    uint64_t size = 0;         // Application-visible size (includes staged appends).
    uint64_t kernel_size = 0;  // Size K-Split believes (after last relink).
    bool metadata_dirty = false;  // Create/truncate not yet committed by a kernel sync.
    std::map<uint64_t, StagedRange> staged;  // Keyed by file_off; non-overlapping.
    uint32_t open_count = 0;
    uint64_t last_read_end = 0;  // Sequential-access detection.
    // Torn down by unlink (or rename displacement): the kernel fd is closed and the
    // state is out of the shards, but a thread that grabbed the FileRef before the
    // teardown may still be queued on the range lock. Every operation re-checks this
    // after acquiring its lock and bails with EBADF — staging data into an orphan
    // would leak allocations and wedge the strict-mode checkpoint (its dirty count
    // could never drain).
    bool defunct = false;

    vfs::RangeLock rlock;       // Byte-range lock; kWholeFile for restructuring ops.
    mutable std::mutex meta_mu;
  };
  using FileRef = std::shared_ptr<FileState>;

  static constexpr size_t kStateShards = 16;
  struct FileShard {
    mutable std::shared_mutex mu;
    std::unordered_map<vfs::Ino, FileRef> map;
  };
  struct PathShard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, vfs::Ino> map;
  };

  FileShard& FileShardOf(vfs::Ino ino) const {
    return file_shards_[std::hash<vfs::Ino>{}(ino) % kStateShards];
  }
  PathShard& PathShardOf(const std::string& path) const {
    return path_shards_[std::hash<std::string>{}(path) % kStateShards];
  }

  FileRef FileOf(vfs::Ino ino) const;
  vfs::Ino LookupPath(const std::string& path) const;
  // Tears down the cached state of a file that unlink deleted or rename displaced:
  // the state leaves the file shards, and under its whole-file lock staged bytes
  // return to the pool and the state goes defunct; then mappings are invalidated and
  // the kernel fd closes. The caller has already dropped the path-cache entry.
  void TearDown(FileState* fs);
  // State behind a descriptor (and optionally its open-file description).
  FileRef StateOf(int fd, std::shared_ptr<vfs::OpenFile>* of_out = nullptr) const;
  std::vector<FileRef> SnapshotFiles() const;
  bool IsDefunct(FileState* fs) const {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    return fs->defunct;
  }

  // Context of a strict-mode write that holds only its byte range (not the whole
  // file): LogDataOp needs the coordinates to release and reacquire the range
  // around a log-full checkpoint.
  struct RangeWriteCtx {
    uint64_t off = 0;
    uint64_t len = 0;
  };

  // --- Strict checkpoint epoch gate ---------------------------------------------------
  // Per-range strict writers register here so the log-full checkpoint can quiesce
  // them without seizing every file. Even epoch = gate open; odd = a checkpoint is
  // draining/sweeping. Invariant: a registered writer NEVER blocks on a range lock
  // (try-only) — that is what makes the checkpoint's drain terminate.
  bool TryEnterRangeWrite();  // Fails (without registering) when the gate is closed.
  void EnterRangeWrite();     // Blocks until the gate opens, then registers.
  void ExitRangeWrite();
  // Charges a writer the closed gate deflected or delayed: fast-forwards behind the
  // checkpoint's rendered service time and reports the wait into the contention
  // ledger as "splitfs.strict_range_log".
  void ChargeEpochGateWait();
  // After a log-full back-out forced a per-range logger to drop its range: is the
  // staged run it was logging still the same un-published run (same staging bytes)?
  // False means a checkpoint publish, truncate, or unlink already made the bytes
  // durable or moot — the entry must NOT be re-logged (see LogDataOp).
  bool StagedRunStillOurs(FileState* fs, uint64_t file_off, const StagingAlloc& a);

  // File offset `off` looked up in the staged set: the run covering it, or (when
  // none does) the start of the next run, UINT64_MAX if there is none. Caller holds
  // fs->meta_mu.
  struct StagedLookup {
    StagedRange* covering = nullptr;
    uint64_t next_start = UINT64_MAX;
  };
  static StagedLookup FindStaged(FileState* fs, uint64_t off);

  // Acquires the right range lock for a write and runs WriteAt: exclusive on
  // [off, off+n) for writes that stay inside the current size (in-place overwrites;
  // in strict mode, gate-registered COW overwrites with per-range log entries), the
  // whole file for anything that appends or bypasses staging.
  ssize_t LockedWrite(FileState* fs, const void* buf, uint64_t n, uint64_t off);

  // Data-path helpers; the caller holds the covering range lock (whole file where a
  // helper restructures the staged set), or — when `range` is non-null — exactly
  // that byte range plus an epoch-gate registration.
  ssize_t ReadAt(FileState* fs, void* buf, uint64_t n, uint64_t off);
  ssize_t WriteAt(FileState* fs, const void* buf, uint64_t n, uint64_t off,
                  const RangeWriteCtx* range = nullptr);
  ssize_t AppendStaged(FileState* fs, const uint8_t* buf, uint64_t n, uint64_t off,
                       bool is_overwrite, const RangeWriteCtx* range = nullptr);
  ssize_t OverwriteInPlace(FileState* fs, const uint8_t* buf, uint64_t n, uint64_t off);
  // Writes into already-staged bytes overlapping [off, off+n); returns bytes written
  // from the front, 0 if the front of the range is not staged.
  uint64_t OverwriteStagedOverlap(FileState* fs, const uint8_t* buf, uint64_t n,
                                  uint64_t off);
  // Writes [off, off+n) through the kernel — the no-staging ablation's appends and
  // gap writes past EOF — and adopts the grown size, marking the file metadata-dirty
  // so the next fsync commits the size change.
  ssize_t WriteThrough(FileState* fs, const uint8_t* src, uint64_t n, uint64_t off);
  // Ftruncate and Open(O_TRUNC): publishes the staged set, truncates K-Split, drops
  // the mappings of the blocks it frees, logs the truncate (op log present) and, in
  // sync/strict mode, commits it. Caller holds the whole-file lock exclusively and
  // has checked the state is not defunct.
  int TruncateLocked(FileState* fs, uint64_t size);

  // Publishes all staged ranges of `fs` into the target file: RelinkStaged, then
  // SealPublished. Returns 0 or -errno. Caller holds the whole-file lock
  // exclusively. `log_done` appends the async-relink publish seal
  // (kRelinkDone); the log-full checkpoint passes false — it resets the log right
  // after, which retires every intent wholesale, and a done append against the
  // still-full log would recurse into the checkpoint and deadlock on its mutex.
  int PublishStaged(FileState* fs, bool log_done = true);
  // The relink loop of a publish: relinks (or, with the Figure 3 ablation toggle
  // off, copies) every staged run of `fs` into the target, erasing each as it
  // publishes. Leaves the journal commit and the dirty count to SealPublished — the
  // count must not drop before the commit, or a log reset could retire intents whose
  // relinks are not yet durable. Caller holds the whole-file lock exclusively.
  // `log_done` false marks a checkpoint publish, which fences first in every mode.
  int RelinkStaged(FileState* fs, bool log_done);
  // Seals a publish of `fs`, relinked by RelinkStaged and still whole-file locked
  // by the caller: one journal commit, then the dirty count drops, then (with
  // `log_done`, async relink) one kRelinkDone record.
  void SealPublished(FileState* fs, bool log_done);

  // --- Async relink publication -----------------------------------------------------
  // fsync/close entry point; caller holds the whole-file lock exclusively and, on
  // success, claims its durability point before dropping it. Without async relink:
  // publishes. Async: commits dirty metadata (the fsync contract covers it), logs +
  // fences relink intents, then publishes with the cost rewound off the caller's
  // clock (sim::ScopedOffClock), modeling a background publisher while keeping the
  // store and fence sequence deterministic.
  int PublishOrIntend(FileState* fs);
  // Logs one kRelinkIntent per staged run (or run delta) not yet intent-covered.
  // POSIX/sync modes only — strict logged every run at write time. Caller holds the
  // whole-file lock exclusively.
  int LogRelinkIntents(FileState* fs);
  int RelinkRun(FileState* fs, uint64_t file_off, const StagedRange& r);
  int CopyStagedRun(FileState* fs, const StagedRange& r);

  // sync/strict modes: commit the kernel journal (non-barrier) so the metadata
  // operation that just completed is synchronous, per Table 3.
  void MakeMetadataSynchronous(FileState* fs);

  // Multi-tenant QoS: takes one commit credit from this tenant's journal bucket
  // before a foreground journal commit. The wait (if any) lands on the caller's
  // lane and is attributed to the tenant's throttle resource in the contention
  // ledger. No-op without Services wiring.
  void TakeJournalCredit();

  // `held` is the file whose whole-file lock the caller owns (nullptr when none): on
  // a full log the checkpoint publishes it directly instead of try-locking it.
  // With `range` set, the caller holds only that byte range of `held` plus an
  // epoch-gate registration; on a full log both are dropped around the checkpoint
  // and reacquired, and the append retries only while the staged run is still ours.
  // Returns false when the run went moot (published/truncated/unlinked during the
  // back-out): the bytes are already durable or gone, and re-logging the entry
  // would let a post-crash replay resurrect them over later overwrites. The range
  // lock and gate registration are held again on either return.
  bool LogDataOp(LogOp op, FileState* held, uint64_t file_off, const StagingAlloc& a,
                 const RangeWriteCtx* range = nullptr);
  void LogMetaOp(LogOp op, vfs::Ino target, uint64_t aux, FileState* held);
  void CheckpointForFull(FileState* held);

  // RAII bracket at every public operation entry: a top-level trace span named after
  // the op, carrying the op's PM media-time delta (the §5.7 split). Inert — one
  // branch — unless Options::tracing is set and the tracer enabled; inert inside
  // ScopedOffClock brackets (rewound work has no place on the timeline).
  class OpScope {
   public:
    OpScope(SplitFs* fs, OpKind op, uint64_t arg = 0)
        : fs_(fs),
          span_(fs->opts_.tracing ? &fs->ctx_->obs.tracer : nullptr, &fs->ctx_->clock,
                "op", OpKindName(op), "arg", arg) {
      if (span_.active()) {
        media0_ = fs_->ctx_->stats.data_media_ns();
      }
    }
    ~OpScope() {
      if (span_.active()) {
        // Media time charged while this op ran. Exact on one thread; concurrent
        // threads' media charges can leak into each other's spans (the counter is
        // process-wide), which the README's reconciliation section spells out.
        span_.set_media_ns(fs_->ctx_->stats.data_media_ns() - media0_);
      }
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    SplitFs* fs_;
    uint64_t media0_ = 0;
    obs::ScopedSpan span_;
  };

  // Registers (tag-prefixed) gauges for this instance's counters and pools; the dtor
  // deregisters by prefix before any member is torn down.
  void RegisterGauges();

  ext4sim::Ext4Dax* kfs_;
  sim::Context* ctx_;
  Options opts_;
  std::string tag_;
  Services services_;
  // Ledger resource name for journal-credit throttling, per tenant.
  std::string journal_qos_resource_;

  mutable std::array<FileShard, kStateShards> file_shards_;
  mutable std::array<PathShard, kStateShards> path_shards_;
  vfs::FdTable fds_;
  MmapCache mmaps_;
  std::unique_ptr<StagingPool> staging_;
  std::unique_ptr<OpLog> oplog_;  // Strict mode only.

  std::atomic<uint64_t> relinks_{0};
  std::atomic<uint64_t> checkpoints_{0};
  // Files whose staged set is nonempty; the log-full checkpoint resets the log only
  // once this reaches zero (every entry is then dead).
  std::atomic<int64_t> dirty_files_{0};
  std::mutex checkpoint_mu_;  // Single-flight log checkpoint.

  // Strict checkpoint epoch gate (see TryEnterRangeWrite). range_epoch_ even = open,
  // odd = a checkpoint is draining; range_writers_ counts registered per-range
  // writers. Both guarded by epoch_mu_; epoch_cv_ signals both directions (writers
  // draining to zero, gate reopening).
  std::mutex epoch_mu_;
  std::condition_variable epoch_cv_;
  uint64_t range_epoch_ = 0;
  uint64_t range_writers_ = 0;
  // Virtual-time service window of the epoch'd checkpoint (drain + sweep): writers
  // the closed gate deflects or delays wait behind it, attributed to
  // "splitfs.strict_range_log" in the contention ledger.
  sim::ResourceStamp strict_epoch_stamp_;

  std::atomic<uint64_t> async_publishes_{0};

  std::function<void()> rename_race_hook_;  // Test-only; see the setter.
};

}  // namespace splitfs

#endif  // SRC_CORE_SPLIT_FS_H_
