// The "collection of memory-mappings" (§3.3, Table 4).
//
// U-Split serves reads and overwrites from user space by memory-mapping 2 MB (default)
// regions of DAX files and issuing loads / non-temporal stores. A logical file's data
// may be spread across the original file and staging files, so each inode owns a set of
// mapping pieces: file byte range -> PM device byte range.
//
// Two properties from the paper are preserved:
//  * mappings are created once, pre-populated with huge pages, and reused for the rest
//    of the workload (mappings are discarded only on unlink) — sidestepping huge-page
//    fragility (§4);
//  * relink retains existing mappings: after a relink, the staging region's pieces are
//    re-registered under the target inode with zero mmap/fault cost.
//
// Concurrency: the cache is on every user-space read and overwrite, so Translate is
// lock-free. The translation state is split into kShards immutable snapshot tables,
// one per `ino % kShards`, each published through its own atomic pointer; a table
// holds the per-file piece/region vectors of its shard's files. Readers pin an epoch
// (common/epoch.h), load their file's shard, and binary-search it; they never write a
// shared cache line. Updates (region creation, relink piece replacement,
// invalidation) serialize on one small update mutex, build the next file snapshot and
// the next table of that one shard aside, swap the shard pointer, and retire the old
// objects to the epoch garbage collector, which frees them at reader quiescence. An
// update therefore costs O(the changed file + its shard), not O(every cached file).
// Virtual-time charges are unchanged from the mutex-based cache (snapshot building
// is DRAM-only work), so single-threaded timelines are bit-identical.
#ifndef SRC_CORE_MMAP_CACHE_H_
#define SRC_CORE_MMAP_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/epoch.h"
#include "src/ext4/ext4_dax.h"
#include "src/vfs/types.h"

namespace splitfs {

class MmapCache {
 public:
  // Snapshot tables, one per `ino % kShards`; an update copies only its shard's.
  static constexpr size_t kShards = 64;

  explicit MmapCache(ext4sim::Ext4Dax* kfs, uint64_t mmap_size);
  ~MmapCache();

  // Resolves file offset -> device offset if some cached mapping covers `off`.
  // Returns the device offset and the length of contiguous coverage from `off`.
  // Wait-free: epoch pin + snapshot load + binary search; no shared-line write.
  struct Hit {
    uint64_t dev_off = 0;
    uint64_t len = 0;
  };
  std::optional<Hit> Translate(vfs::Ino ino, uint64_t off) const;

  // Ensures the mmap-size-aligned region around `off` is mapped, charging mmap() +
  // pre-population (huge-page) costs. Holes in the file stay unmapped. `kernel_fd` is
  // the K-Split descriptor used for the DaxMap call. Returns false if the kernel call
  // failed.
  bool EnsureRegion(vfs::Ino ino, int kernel_fd, uint64_t off);

  // Registers mapping pieces directly, with no mmap cost. Used after relink (the
  // physical blocks and their mappings are retained) and by the staging pool (staging
  // files are mapped once at pre-allocation time). Overlapping subranges are skipped.
  void InsertPieces(vfs::Ino ino, const std::vector<ext4sim::Ext4Dax::DaxMapping>& pieces);

  // Relink: drops mappings overlapping [off, off+len) and registers the piece
  // [off, off+len) -> dev_off in their place, as one published update. Charges what
  // InsertPieces charges for a single piece (no mmap cost).
  void ReplaceRange(vfs::Ino ino, uint64_t off, uint64_t dev_off, uint64_t len);

  // Drops every mapping of `ino`, charging one munmap per created region (§3.5:
  // unlink() is expensive in SplitFS precisely because of this).
  void InvalidateFile(vfs::Ino ino);

  // Drops mappings overlapping [off, off+len) without munmap charges (truncate path).
  void InvalidateRange(vfs::Ino ino, uint64_t off, uint64_t len);

  // Drops everything without charges: crash recovery starts from an empty cache.
  void Clear();

  // §5.10 accounting: approximate DRAM footprint of the cache structures.
  uint64_t MemoryUsageBytes() const;
  uint64_t RegionCount() const {
    return total_regions_.load(std::memory_order_relaxed);
  }
  // Snapshots retired but not yet reclaimed (epoch GC introspection for tests).
  size_t RetiredSnapshotsForTest() const;

 private:
  struct Piece {
    uint64_t dev_off = 0;
    uint64_t len = 0;
  };
  // Immutable once published.
  struct FileSnapshot {
    std::vector<std::pair<uint64_t, Piece>> pieces;  // Sorted by file_off.
    std::vector<uint64_t> regions;                   // Sorted aligned region starts.
    uint64_t mmap_count = 0;  // Regions created via mmap (munmap charge basis).
  };
  // One shard's files, sorted by ino. Copied whole on each update of the shard.
  struct Table {
    std::vector<std::pair<vfs::Ino, const FileSnapshot*>> files;
    const FileSnapshot* Find(vfs::Ino ino) const;
  };
  // Mutable build form of a FileSnapshot; the std::map preserves the insertion /
  // merge semantics of the original locked implementation exactly, so the published
  // piece structure (and therefore every downstream Translate span and media charge)
  // is unchanged.
  struct FileBuilder {
    std::map<uint64_t, Piece> pieces;
    std::vector<uint64_t> regions;
    uint64_t mmap_count = 0;
  };
  static void InsertPiece(FileBuilder* fb, uint64_t file_off, uint64_t dev_off,
                          uint64_t len);
  // Drops [off, off+len) from the builder, keeping the parts of straddling pieces.
  static void EraseRange(FileBuilder* fb, uint64_t off, uint64_t len);
  static FileBuilder BuilderFrom(const FileSnapshot& snap);
  // The build form of `ino`'s current snapshot (empty if uncached). Caller holds
  // update_mu_.
  FileBuilder BuilderFor(vfs::Ino ino) const;
  void SealAndPublish(vfs::Ino ino, FileBuilder&& fb);
  std::atomic<const Table*>& ShardOf(vfs::Ino ino) { return shards_[ino % kShards]; }
  // Loads `ino`'s shard table; caller must hold update_mu_ (writers) or an epoch pin
  // (readers).
  const Table* CurrentTable(vfs::Ino ino) const {
    return shards_[ino % kShards].load(std::memory_order_acquire);
  }
  // Swaps `next` into `shard` and retires the previous table. Caller holds update_mu_.
  void PublishTable(std::atomic<const Table*>* shard, const Table* next);

  ext4sim::Ext4Dax* kfs_;
  sim::Context* ctx_;
  uint64_t mmap_size_;

  // Updates serialize here; Translate never touches it. Retire lists are guarded by
  // update_mu_ too (retirement only happens during updates).
  mutable std::mutex update_mu_;
  std::array<std::atomic<const Table*>, kShards> shards_;
  common::RetireList<Table> retired_tables_;
  common::RetireList<FileSnapshot> retired_files_;
  std::atomic<uint64_t> total_regions_{0};
};

}  // namespace splitfs

#endif  // SRC_CORE_MMAP_CACHE_H_
