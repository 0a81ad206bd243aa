// Staging-file pool (§3.3, §3.5).
//
// Appends (all modes) and overwrites (strict mode) are redirected to pre-allocated
// staging files on K-Split and later relinked into the target file. The pool:
//   * pre-creates `num_staging_files` files of `staging_file_bytes` at startup,
//     fallocate()d and DAX-mapped up front so the critical path never traps;
//   * hands out contiguous byte ranges with a bump allocator, one *lane* per thread:
//     each application thread owns an active staging file and bumps it without
//     touching any shared state, so concurrent appends to different files never
//     contend on the pool;
//   * replenishes consumed files off the critical path (the paper's §3.5 background
//     thread). Two modes: with Options::replenish_thread, replenish passes on a
//     common::ServicePool keep the shared spare-file queue full — the tenant
//     router's shared pool when one is wired in through Services, else a 1-worker
//     pool the StagingPool owns; without it (the default) the replacement is
//     created inline but its cost is rewound off the foreground clock — equivalent
//     accounting with a fully deterministic store sequence, which the crash harness
//     depends on.
//
// Lock order inside the pool: lane.mu, then pool_mu_, then the replenisher pool's
// own mutex (a kick submits a pass under pool_mu_). lane.mu and pool_mu_ are leaves
// with respect to the rest of the stack (the pool calls into K-Split while holding
// them, never the other way around).
#ifndef SRC_CORE_STAGING_H_
#define SRC_CORE_STAGING_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/core/mmap_cache.h"
#include "src/core/options.h"
#include "src/ext4/ext4_dax.h"

namespace splitfs {

// One allocation handed to a data operation.
struct StagingAlloc {
  vfs::Ino staging_ino = vfs::kInvalidIno;
  int staging_fd = -1;        // K-Split fd of the staging file.
  uint64_t staging_off = 0;   // Byte offset within the staging file.
  uint64_t dev_off = 0;       // Device byte offset (staging files are fully mapped).
  uint64_t len = 0;
};

class StagingPool {
 public:
  // `instance_tag` keeps staging namespaces of concurrent U-Split instances apart.
  // `services` (optional) wires the pool into a multi-tenant deployment: with
  // `replenisher_pool` set (and Options::replenish_thread on), replenish passes run
  // on the shared pool instead of one the StagingPool owns; with `staging_tokens`
  // set, each staging file a lane takes costs one token, pacing the tenant's
  // staging consumption on its own timeline. When K-Split cannot hold the
  // pre-created files the constructor aborts, unless `status` is set: then it
  // unlinks the files it did create, stores -ENOSPC in *status, and the pool must
  // not be used (a restart reports the error instead of dying).
  StagingPool(ext4sim::Ext4Dax* kfs, MmapCache* mmaps, const Options& opts,
              const std::string& instance_tag, const Services& services = {},
              int* status = nullptr);
  ~StagingPool();

  StagingPool(const StagingPool&) = delete;
  StagingPool& operator=(const StagingPool&) = delete;

  // Allocates `len` staged bytes whose starting offset is congruent to `align_mod`
  // modulo the block size — relink requires staged blocks to line up with the target
  // file's block grid. May split across staging files; returns one alloc per
  // contiguous piece. Returns false if the device is out of space. Allocates from the
  // calling thread's lane.
  bool Allocate(uint64_t len, uint64_t align_mod, std::vector<StagingAlloc>* out);

  // Grows `a` by `n` bytes if it ends exactly at the calling thread's lane bump
  // pointer (the sequential-append fast path). Returns false when not extendable.
  bool ExtendInPlace(StagingAlloc* a, uint64_t n);

  // Relink moved staging blocks [.., end_off)-rounded-up out of `ino`; the space up
  // to the next block boundary must never be handed out again (the physical blocks
  // now belong to the target file).
  void MarkRelinked(vfs::Ino ino, uint64_t end_off);

  // Returns a previously handed-out allocation: its bytes were published (relinked or
  // copied into the target) or died with their file (unlink, truncate). Once every
  // handed-out byte of a *consumed* staging file has been returned, the file is
  // closed and unlinked — the out-of-band garbage collection a real restart performs
  // on its runtime directory. Without this, a long-running instance leaks one open
  // descriptor plus one dead file per consumed pool file.
  void Release(const StagingAlloc& a);

  // Number of staging files created over the pool's lifetime (bench introspection).
  uint64_t FilesCreated() const { return files_created_.load(std::memory_order_relaxed); }
  uint64_t BackgroundCreations() const {
    return background_creations_.load(std::memory_order_relaxed);
  }
  // Consumed files whose staged bytes were all released and that were deleted.
  uint64_t FilesRetired() const { return files_retired_.load(std::memory_order_relaxed); }
  // Files currently held by the pool: lane-active files, the spare queue, and
  // consumed files still referenced by unpublished staged ranges.
  uint64_t LiveFiles() const;
  // Pre-created files waiting in the spare queue (pool occupancy gauge).
  uint64_t SpareFiles() const {
    std::lock_guard<std::mutex> pl(pool_mu_);
    return spare_.size();
  }

  uint64_t MemoryUsageBytes() const;

 private:
  struct StageFile {
    vfs::Ino ino = vfs::kInvalidIno;
    int fd = -1;
    std::string path;
    uint64_t used = 0;        // Bump pointer.
    uint64_t handed_out = 0;  // Bytes allocated to staged ranges, not yet released.
    std::vector<ext4sim::Ext4Dax::DaxMapping> mappings;
  };

  // Per-thread allocation lane. Threads hash onto lanes; the lane mutex is therefore
  // uncontended in steady state and exists only for the hash-collision case.
  struct alignas(64) Lane {
    std::mutex mu;
    std::optional<StageFile> active;
  };

  enum class CreateMode {
    kForeground,        // Cost on the caller's clock (startup, pool exhaustion).
    kBackgroundInline,  // Cost rewound off the caller's clock (deterministic mode).
    kBackgroundThread,  // Created by a replenish pass; pool workers have no lane, so
                        // the charges land on the shared (non-lane) timeline, which
                        // lane-based measurements ignore — the §3.5 point: the cost
                        // is off every app thread's critical path.
  };

  Lane& LaneOfThisThread();
  // Creates + fallocates + maps one staging file into *out. Thread-safe without
  // pool_mu_ (the file number is reserved atomically); the caller pushes the result
  // onto spare_ under pool_mu_.
  bool CreateStageFile(CreateMode mode, StageFile* out);
  // CreateStageFile + push to spare_. Caller holds pool_mu_.
  bool CreateStageFileLocked(CreateMode mode);
  // Moves a spare file into `lane.active`, triggering replenishment. Caller holds
  // lane.mu; takes pool_mu_.
  bool RefillLaneLocked(Lane* lane);
  // Hands the lane's consumed active file to consumed_ (or retires it). Caller holds
  // lane.mu; takes pool_mu_.
  void ConsumeActiveLocked(Lane* lane);
  // Device offset backing `file_off` of `sf` (staging files are fully allocated).
  uint64_t DevOffsetOf(const StageFile& sf, uint64_t file_off) const;
  // Closes + unlinks a fully-released consumed file, off the foreground clock.
  void Retire(StageFile* sf);
  // One pool pass: tops the spare queue back up to the configured size.
  void ReplenishPass();
  // Submits a queue-deduplicated replenish pass. Caller holds pool_mu_.
  void KickReplenisherLocked();

  // Per-thread allocation lanes. Threads hash onto lanes; a single-threaded
  // process uses exactly one.
  static constexpr size_t kLanes = 16;

  ext4sim::Ext4Dax* kfs_;
  MmapCache* mmaps_;
  sim::Context* ctx_;
  Options opts_;
  Services services_;
  std::string dir_;
  // Ledger resource name for staging-token throttling, per tenant.
  std::string qos_resource_;

  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex pool_mu_;  // Guards spare_, consumed_, file creation order.
  std::deque<StageFile> spare_;     // Pre-created, untouched files.
  std::deque<StageFile> consumed_;  // Fully bump-allocated, awaiting release of ranges.
  sim::ResourceStamp pool_stamp_;   // Virtual-time serialization of the slow path.

  std::atomic<uint64_t> files_created_{0};
  std::atomic<uint64_t> background_creations_{0};
  std::atomic<uint64_t> files_retired_{0};

  // §3.5 replenisher (Options::replenish_thread): Services::replenisher_pool when
  // one is wired in, otherwise owned_replenisher_pool_ (one worker). Null in the
  // inline mode. The destructor drains this pool's key before the owned pool goes.
  common::ServicePool* replenisher_pool_ = nullptr;
  std::unique_ptr<common::ServicePool> owned_replenisher_pool_;
  bool stop_ = false;  // Guarded by pool_mu_.
};

}  // namespace splitfs

#endif  // SRC_CORE_STAGING_H_
