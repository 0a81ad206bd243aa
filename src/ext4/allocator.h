// Bitmap block allocator for the data region of the emulated PM device.
//
// Models ext4's mballoc at the interface level: callers ask for up-to-`count`
// physically contiguous blocks near a goal and receive one extent per call; large
// requests therefore decay into multiple extents under fragmentation, which is exactly
// the behaviour that makes huge-page-backed mmaps fragile (§4 of the paper).
//
// Concurrency: the block space is partitioned into per-group free lists — contiguous,
// word-aligned block-group ranges, each with its own mutex and sim::ResourceStamp —
// mirroring ext4's per-group allocation locks. The first-fit scan is logically
// identical to the pre-sharding single-bitmap scan (a free run may cross group
// boundaries; the scan takes group locks in ascending order as it advances), so a
// single-threaded caller sees bit-identical placement. A thread with a bound clock
// lane instead starts at its own preferred group's rotating cursor — the fast path
// that keeps concurrent allocators out of each other's groups — and spills into
// neighbouring groups only when its preferred group cannot satisfy the request (the
// rebalancing slow path, charged to the neighbours' stamps). Its preferred group
// migrates to wherever the allocation landed, so a thread that drained one group
// rebalances itself onto fresh ones instead of rescanning exhausted space.
#ifndef SRC_EXT4_ALLOCATOR_H_
#define SRC_EXT4_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/sim/clock.h"

namespace ext4sim {

struct PhysExtent {
  uint64_t start = 0;  // First physical block.
  uint64_t count = 0;  // Number of blocks.
};

class BlockAllocator {
 public:
  // Manages blocks [first_block, first_block + n_blocks). `clock` enables the
  // per-group ResourceStamp accounting and per-thread group affinity for lane-bound
  // threads; with clock == nullptr the allocator behaves exactly like the legacy
  // single-cursor allocator (modulo internal locking, which is then uncontended).
  BlockAllocator(uint64_t first_block, uint64_t n_blocks, sim::Clock* clock = nullptr);

  // Allocates up to `count` contiguous blocks starting the search at `goal`
  // (0 = the rotating cursor — the shared one, or the calling thread's preferred
  // group's when a clock lane is bound). Returns an extent with count in
  // [1, count], or count == 0 if the device is full. `charge_ns` is CPU time
  // charged to the caller's timeline inside the first group's critical section,
  // so allocation CPU serializes on the group lock in virtual time.
  PhysExtent Allocate(uint64_t count, uint64_t goal = 0, uint64_t charge_ns = 0);

  // Allocates exactly `count` blocks as a list of extents (first-fit, possibly
  // fragmented). Returns false (and allocates nothing) if space is insufficient.
  // `charge_ns` is charged once, not per piece.
  bool AllocateBlocks(uint64_t count, std::vector<PhysExtent>* out, uint64_t goal = 0,
                      uint64_t charge_ns = 0);

  // Frees an extent (which may span group boundaries; it is split internally).
  void Free(const PhysExtent& e, uint64_t charge_ns = 0);

  uint64_t FreeBlocks() const { return free_blocks_.load(std::memory_order_relaxed); }
  uint64_t TotalBlocks() const { return n_blocks_; }
  bool IsAllocated(uint64_t block) const;

  // Largest contiguous free run; tests use this to assert fragmentation behaviour.
  uint64_t LargestFreeRun() const;

 private:
  struct alignas(64) Group {
    uint64_t lo = 0;      // First block index (word-aligned) owned by this group.
    uint64_t hi = 0;      // One past the last block index.
    uint64_t cursor = 0;  // Rotating allocation hint within [lo, hi); guarded by mu.
    uint64_t free_blocks = 0;  // Guarded by mu; the atomic total is authoritative.
    mutable std::mutex mu;
    mutable sim::ResourceStamp stamp;
  };

  // Word-granular bits_ plus word-aligned group boundaries keep each 64-bit word
  // owned by exactly one group, so bit updates under the group lock never race.
  bool TestBit(uint64_t idx) const { return (bits_[idx >> 6] >> (idx & 63)) & 1; }
  void SetBit(uint64_t idx) { bits_[idx >> 6] |= (1ull << (idx & 63)); }
  void ClearBit(uint64_t idx) { bits_[idx >> 6] &= ~(1ull << (idx & 63)); }

  size_t GroupOf(uint64_t idx) const {
    size_t g = static_cast<size_t>(idx / blocks_per_group_);
    return g >= n_groups_ ? n_groups_ - 1 : g;
  }
  // The calling thread's preferred group (lane-bound threads only); sticky until
  // UpdateAffinity migrates it to where an allocation last succeeded.
  size_t PreferredGroup() const;
  void UpdateAffinity(size_t group) const;

  // First-fit scan over [lo, hi) with group-lock coupling; returns the first free
  // run (up to `count` blocks) or an empty extent. Sets *charged the first time a
  // group section charges `charge_ns`.
  PhysExtent ScanRange(uint64_t lo, uint64_t hi, uint64_t count, uint64_t charge_ns,
                       bool* charged);
  PhysExtent AllocateInternal(uint64_t count, uint64_t goal, uint64_t charge_ns,
                              bool* charged);

  uint64_t first_block_;
  uint64_t n_blocks_;
  uint64_t blocks_per_group_;
  size_t n_groups_;
  sim::Clock* clock_;
  std::atomic<uint64_t> free_blocks_;
  // Shared rotating hint (index, not block number) used when no lane is bound —
  // the legacy single-threaded behaviour.
  std::atomic<uint64_t> cursor_{0};
  std::vector<uint64_t> bits_;
  std::unique_ptr<Group[]> groups_;
};

}  // namespace ext4sim

#endif  // SRC_EXT4_ALLOCATOR_H_
