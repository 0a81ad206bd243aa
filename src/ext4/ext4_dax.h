// ext4 in DAX mode, modeled in user space: the K-Split half of SplitFS.
//
// Reproduces the boundary SplitFS depends on:
//   * full POSIX file/dir namespace with extent-based files and a JBD2-style journal;
//   * DAX semantics — file data lives at stable physical offsets on the PM device,
//     exposed to U-Split via DaxMap() (the moral equivalent of mmap on a DAX file);
//   * the modified EXT4_IOC_MOVE_EXT ioctl (SwapExtentsForRelink) added by the paper's
//     500-line kernel patch: metadata-only, journaled, mapping-preserving.
//
// Every public entry point charges one kernel trap plus the CPU/journal/media costs of
// the real ext4 code path it models (see sim::CostModel for the calibration).
//
// Locking model (mirrors real ext4, replacing the former big kernel lock). A thread
// only ever acquires downward in this list:
//
//   1. Journal handle (shared side of the jbd2 barrier): every metadata-mutating
//      operation holds one. The commit pipeline takes the barrier exclusively only
//      for the short seal window that swaps the running transaction into the
//      committing slot — a commit never captures half an operation, but the
//      writeout and the deferred commit actions run with the barrier released, so
//      actions synchronize on inode/allocator locks themselves (ReclaimIfOrphan's
//      keyed re-check). Recovery and fsck quiesce harder: pipeline slot + barrier.
//   2. rename_mu_: shared by all namespace mutations; exclusive only for directory
//      renames, freezing the tree shape so the cycle (ancestor) walk and a displaced
//      directory's emptiness check are stable — Linux's s_vfs_rename_mutex.
//   3. Namespace (dentry) shard locks, keyed by directory inode, ascending shard
//      index when two or three are needed: guard dirent maps. Path resolution locks
//      one shard at a time (shared) and never holds two.
//   4. Per-inode byte-range locks (vfs::RangeLock, ledger resource
//      "ext4.inode_range"), ascending ino when two are needed (relink).
//      Size-preserving data writes and in-bounds Fallocate take only their
//      block-aligned byte range exclusively (block granularity serializes same-block
//      writers, which share extent-allocation and byte-overlap state); data reads
//      take their range shared. Anything that changes the file's shape — extends,
//      truncate, O_TRUNC, relink, orphan reclamation — takes the whole file
//      (kWholeFile), which excludes every range holder.
//   5. Per-inode reader/writer locks (mu), ascending ino when two are needed:
//      guard nlink/open_count/unlinked and, for shape changes, size. A range-locked
//      data write does NOT take mu — the whole-file range acquisition of every
//      shape-changing path is what keeps size and extents stable under it; `size`
//      is atomic so lock-free classification reads stay defined. Metadata readers
//      (Stat/Fstat/Lseek) still take mu shared.
//   6. Leaves, never held while acquiring any of the above: the inode table's
//      shared_mutex, the extent map's internal lock, the allocator's per-group
//      locks, the journal's state mutex.
//
// Virtual-time accounting follows the same granularity: each inode, namespace shard,
// allocator group, and the journal commit path carries a sim::ResourceStamp, so
// lane-bound threads serialize their timelines only where the real locks serialize
// them — concurrent writes to different files or creates in different directories
// no longer queue on one global stamp. Single-timeline (no-lane) runs are
// bit-identical to the big-kernel-lock model.
#ifndef SRC_EXT4_EXT4_DAX_H_
#define SRC_EXT4_EXT4_DAX_H_

#include <array>
#include <atomic>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ext4/allocator.h"
#include "src/ext4/extent_map.h"
#include "src/ext4/journal.h"
#include "src/pmem/device.h"
#include "src/vfs/fd_table.h"
#include "src/vfs/file_system.h"
#include "src/vfs/range_lock.h"

namespace ext4sim {

struct FsckReport;
class Ext4Dax;
FsckReport RunFsck(Ext4Dax* fs);

struct Ext4Options {
  uint64_t journal_blocks = 2048;  // 8 MB journal, scaled-down jbd2 default.
  // jbd2's j_commit_interval: how long a committer holds the pipeline slot open so
  // concurrent fsyncs merge into one sealed transaction. 0 = seal immediately
  // (bit-identical to the pre-coalescing pipeline).
  uint64_t commit_interval_ns = 0;
};

class Ext4Dax : public vfs::FileSystem {
 public:
  Ext4Dax(pmem::Device* dev, Ext4Options opts = {});
  ~Ext4Dax() override = default;

  std::string Name() const override { return "ext4-DAX"; }

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

  // Duplicates a descriptor (shares offset, as POSIX dup()).
  int Dup(int fd);

  // --- DAX / SplitFS extension surface ---------------------------------------------------

  // One piece of a DAX mapping: file byte range -> device byte range.
  struct DaxMapping {
    uint64_t file_off = 0;
    uint64_t dev_off = 0;
    uint64_t len = 0;
  };

  // Resolves [off, off+len) of the file behind `fd` to device byte ranges. Holes are
  // simply absent from the result. This is the kernel half of mmap(MAP_SHARED) on a
  // DAX file; the caller (U-Split) charges mmap()/fault costs.
  int DaxMap(int fd, uint64_t off, uint64_t len, std::vector<DaxMapping>* out);

  // The relink primitive (modified EXT4_IOC_MOVE_EXT, §3.5). Logically and atomically
  // moves [src_off, src_off+len) of src_fd to [dst_off, ...) of dst_fd:
  //   * block-aligned core is moved by swapping extent-tree entries (no data copy,
  //     no flush), wrapped in a dedicated journal transaction;
  //   * blocks previously mapped at the destination are deallocated;
  //   * the source range becomes a hole;
  //   * dst file size grows to max(current, new_dst_size) when new_dst_size > 0 —
  //     this is how staged appends publish the true (possibly unaligned) file size.
  // Non-block-aligned edges are NOT handled here — U-Split copies partial blocks
  // itself, as the paper describes. Returns 0 or -errno (-EINVAL for misalignment).
  //
  // With defer_commit=true the ioctl leaves its dirtied metadata in the running
  // transaction instead of committing; an fsync publishing many staged ranges issues
  // one relink per contiguous run and then a single CommitJournal(false) — jbd2
  // batches the handles into one commit.
  //
  // Takes both inode locks, ascending ino — the documented two-inode lock order that
  // keeps concurrent relinks (fsync batching, op-log recovery replay) deadlock-free.
  int SwapExtentsForRelink(int src_fd, uint64_t src_off, int dst_fd, uint64_t dst_off,
                           uint64_t len, uint64_t new_dst_size,
                           bool defer_commit = false);

  // Inode number behind an fd (0 if bad fd) — U-Split keys its caches by inode.
  vfs::Ino InoOf(int fd) const;

  // Opens a file by inode number (the open_by_handle_at analog). Used by SplitFS
  // op-log recovery, where log entries identify files by inode. Returns fd or -errno.
  int OpenByIno(vfs::Ino ino, int flags);

  // Commits the running journal transaction. U-Split's sync/strict modes use the
  // non-barrier path to make metadata operations synchronous without paying the
  // fsync commit-thread handshake. `who`, when set, tags the request for per-caller
  // commit-service attribution (the tenant router passes the tenant id): a coalesced
  // writeout splits its service time across the tags it satisfied.
  int CommitJournal(bool fsync_barrier, const char* who = nullptr);

  // Fsync with commit-service attribution (see CommitJournal); the virtual override
  // forwards who=nullptr.
  int Fsync(int fd, const char* who);

  pmem::Device* device() const { return dev_; }
  sim::Context* context() const { return ctx_; }

  // Test/bench introspection.
  uint64_t FreeBlocks() const { return alloc_.FreeBlocks(); }
  uint64_t JournalCommits() const { return journal_.commits(); }
  // Pipeline introspection/hook access for the directed commit-pipeline tests.
  Journal* journal_for_test() { return &journal_; }
  // Inodes currently on the on-disk orphan list (unlinked, awaiting reclamation).
  size_t OrphanCount() const {
    std::lock_guard<std::mutex> lock(orphan_mu_);
    return orphans_.size();
  }


  friend FsckReport RunFsck(Ext4Dax* fs);

 private:
  struct Inode {
    Inode(sim::Clock* clock, obs::Observability* obs)
        : range_lock(clock, obs, "ext4.inode_range") {}

    // Immutable after creation.
    vfs::Ino ino = vfs::kInvalidIno;
    vfs::FileType type = vfs::FileType::kRegular;

    // Atomic so range-locked writers can classify (extend vs. in-place) without mu.
    // Mutated only under range_lock whole-file exclusive + mu exclusive, so it is
    // stable while any byte range is held.
    std::atomic<uint64_t> size{0};

    // Guarded by mu: exclusive for mutation, shared for reads. `dirents` is the
    // exception — it is guarded by the owning directory's namespace shard lock;
    // `extents` carries its own internal lock (range-disjoint writers mutate it
    // concurrently).
    uint32_t nlink = 1;  // Dirs: 2 + #subdirs ('.' + parent entry + childrens' '..').
    vfs::Ino parent = vfs::kInvalidIno;  // Directories: containing directory's ino.
    ExtentMap extents;
    std::map<std::string, vfs::Ino> dirents;  // Directories only; ns-shard guarded.
    uint32_t open_count = 0;
    bool unlinked = false;  // Orphaned: free on last close.

    // Sequential-access detection (Table 2 latency class). Atomic: updated by
    // readers holding only the shared inode lock, and invalidated by writers.
    std::atomic<uint64_t> last_read_end{0};

    // Byte-range lock, level 4: data-path granularity. Per-range virtual-time
    // stamps live inside it (ledger resource "ext4.inode_range").
    mutable vfs::RangeLock range_lock;
    mutable std::shared_mutex mu;
    mutable sim::ResourceStamp stamp;  // Busy time of mu's exclusive side.
  };
  using InodeRef = std::shared_ptr<Inode>;

  static constexpr size_t kNsShards = 16;
  struct alignas(64) NsShard {
    mutable std::shared_mutex mu;
    mutable sim::ResourceStamp stamp;
  };
  NsShard& NsShardOf(vfs::Ino dir_ino) const {
    return ns_shards_[static_cast<size_t>(dir_ino) % kNsShards];
  }

  // Locks the namespace shards of the given directories (deduplicated) in ascending
  // shard order, bracketing each with its ResourceStamp.
  class NsLock {
   public:
    NsLock(const Ext4Dax* fs, std::initializer_list<vfs::Ino> dirs);
    ~NsLock();
    NsLock(const NsLock&) = delete;
    NsLock& operator=(const NsLock&) = delete;

   private:
    const Ext4Dax* fs_;
    size_t n_ = 0;
    struct Held {
      NsShard* shard;
      uint64_t t0;
      size_t idx;  // Shard index; witness order key is idx + 1.
    } held_[3];
  };

  // Witness site ids for the namespace-level locks (see the lock-order comment at
  // the top of this file). The per-inode range locks report through vfs::RangeLock
  // itself ("ext4.inode_range", order key = ino).
  static int NamespaceSite() {
    static const int kSite = analysis::LockSite("ksplit.namespace");
    return kSite;
  }
  static int DentryShardSite() {
    static const int kSite = analysis::LockSite("ksplit.dentry_shard");
    return kSite;
  }
  static int InodeMuSite() {
    static const int kSite = analysis::LockSite("ksplit.inode_mu");
    return kSite;
  }

  InodeRef GetInode(vfs::Ino ino) const;       // Inode-table shared lock (leaf).
  void InsertInode(InodeRef inode);            // Inode-table unique lock (leaf).
  void EraseInode(vfs::Ino ino);               // Inode-table unique lock (leaf).
  InodeRef ResolvePath(const std::string& path);
  // Resolves the parent directory of `path`; fills leaf name.
  InodeRef ResolveParent(const std::string& path, std::string* leaf);
  // A directory that still has a dirent pointing at it (nlink > 0). Re-checked under
  // the shard lock before inserting into a directory that may have been removed.
  bool DirAlive(const InodeRef& dir) const;

  InodeRef AllocateInode(vfs::FileType type);
  void FreeInodeBlocks(Inode* inode);
  // On-disk orphan list maintenance (ext4's s_last_orphan chain, modeled as a set).
  // OrphanAdd is called inside the unlinking transaction and registers a journal
  // undo, so a rolled-back unlink also takes the inode back off the list; removal
  // happens when the inode is actually reclaimed (commit action or Recover()).
  void OrphanAdd(vfs::Ino ino);
  void OrphanRemove(vfs::Ino ino);
  // Commit action for deferred inode reclamation: re-looks the inode up by ino and
  // frees it only if it is still an orphan (unlinked, no opens). Keying by ino —
  // never by captured pointer — makes a rollback that resurrects the inode, or a
  // reopen via OpenByIno, cancel the free instead of use-after-freeing it.
  void ReclaimIfOrphan(vfs::Ino ino);
  // Ensures blocks exist for [off, off+len); returns number of newly allocated blocks
  // or -ENOSPC. Journals the allocation. Caller holds a range-write (block-aligned,
  // covering [off, off+len)) or whole-file lock, and a journal handle.
  int64_t EnsureBlocks(const InodeRef& inode, uint64_t off, uint64_t len);
  // Truncates a regular file to `size`; shared by Ftruncate and O_TRUNC. Caller
  // holds the whole-file range lock + inode lock exclusively and a journal handle.
  void TruncateLocked(const InodeRef& inode, uint64_t size);

  // Write body behind Pwrite/Write: classifies the write (extending vs.
  // size-preserving) and takes either the whole file (range + mu, with mu's
  // ResourceStamp) or just the block-aligned byte range exclusively, retrying if a
  // concurrent truncate invalidates the classification. Caller holds a journal
  // handle and nothing else on this inode.
  ssize_t LockedPwrite(const InodeRef& inode, int flags, const void* buf, uint64_t n,
                       uint64_t off);

  // Data-path bodies; the caller holds the locks LockedPwrite/the read path
  // describe (write: range-write or whole-file; read: shared range) and, for
  // writes, a journal handle.
  ssize_t PwriteInode(const InodeRef& inode, int flags, const void* buf, uint64_t n,
                      uint64_t off);
  ssize_t PreadInode(const InodeRef& inode, void* buf, uint64_t n, uint64_t off);

  pmem::Device* dev_;
  sim::Context* ctx_;
  uint64_t data_start_block_;
  BlockAllocator alloc_;
  Journal journal_;

  mutable std::shared_mutex rename_mu_;
  mutable std::array<NsShard, kNsShards> ns_shards_;
  mutable std::shared_mutex itable_mu_;  // Guards the inode table's structure only.
  std::unordered_map<vfs::Ino, InodeRef> inodes_;
  // On-disk orphan list (leaf lock): unlinked inodes whose blocks are still
  // allocated. Mount-time recovery (Recover) reclaims whatever is left on it — the
  // deferred last-close reclamation may have died with a rolled-back transaction.
  mutable std::mutex orphan_mu_;
  std::set<vfs::Ino> orphans_;
  std::atomic<vfs::Ino> next_ino_{vfs::kRootIno + 1};
  vfs::FdTable fds_;
};

}  // namespace ext4sim

#endif  // SRC_EXT4_EXT4_DAX_H_
