#include "src/nova/nova.h"

#include <array>
#include <cstring>
#include <vector>

#include "src/common/bytes.h"

namespace novasim {

using common::kBlockSize;
using common::kCacheLineSize;

namespace {
constexpr uint64_t kLogRegionBlocks = 4096;  // 16 MB of per-inode log space.
}

Nova::Nova(pmem::Device* dev, bool strict)
    : PmFsBase(dev, kLogRegionBlocks), strict_(strict) {}

void Nova::AppendLogEntry() {
  // Log entry (one cache line), fence, then the persisted tail pointer (second line),
  // fence again: the "at least two cache lines and two fences" of §3.3.
  static const std::array<uint8_t, kCacheLineSize> entry{};
  if (log_cursor_ + 2 * kCacheLineSize > meta_region_bytes_) {
    log_cursor_ = 0;
  }
  ctx_->ChargeCpu(ctx_->model.nova_log_cpu_ns);
  dev_->StoreNt(meta_region_start_ + log_cursor_, entry.data(), kCacheLineSize,
                sim::PmWriteKind::kLog);
  dev_->Fence();
  log_cursor_ += kCacheLineSize;
  dev_->StoreNt(meta_region_start_ + log_cursor_, entry.data(), 8,
                sim::PmWriteKind::kLog);
  dev_->Fence();
  log_cursor_ += kCacheLineSize;
}

ssize_t Nova::WriteCow(BaseInode* inode, const void* buf, uint64_t n, uint64_t off,
                       std::vector<ext4sim::PhysExtent>* fresh_out) {
  // Copy-on-write: fresh blocks for the whole covered range; partial head/tail blocks
  // merge old contents (read-modify-write), then the old blocks are freed.
  uint64_t first = off / kBlockSize;
  uint64_t last = (off + n - 1) / kBlockSize;
  uint64_t nblocks = last - first + 1;

  ctx_->ChargeCpu(ctx_->model.nova_alloc_cpu_ns);
  std::vector<ext4sim::PhysExtent> fresh;
  if (!alloc_.AllocateBlocks(nblocks, &fresh)) {
    return -ENOSPC;
  }

  // Build the new block contents: old data merged with the write.
  std::vector<uint8_t> block(kBlockSize);
  const auto* src = static_cast<const uint8_t*>(buf);
  uint64_t fresh_idx = 0, fresh_used = 0;
  for (uint64_t lb = first; lb <= last; ++lb) {
    uint64_t block_start = lb * kBlockSize;
    uint64_t copy_from = std::max(off, block_start);
    uint64_t copy_to = std::min(off + n, block_start + kBlockSize);
    bool partial = copy_from != block_start || copy_to != block_start + kBlockSize;
    if (partial) {
      auto old = inode->extents.Lookup(lb);
      if (old && block_start < inode->size) {
        dev_->Load(old->phys * kBlockSize, block.data(), kBlockSize,
                   /*sequential=*/true, sim::PmReadKind::kLog);
      } else {
        std::memset(block.data(), 0, kBlockSize);
      }
      std::memcpy(block.data() + (copy_from - block_start), src, copy_to - copy_from);
    } else {
      std::memcpy(block.data(), src, kBlockSize);
    }
    src += copy_to - copy_from;

    uint64_t phys = fresh[fresh_idx].start + fresh_used;
    dev_->StoreNt(phys * kBlockSize, block.data(), kBlockSize,
                  sim::PmWriteKind::kUserData);
    if (++fresh_used == fresh[fresh_idx].count) {
      ++fresh_idx;
      fresh_used = 0;
    }
  }

  *fresh_out = std::move(fresh);
  return static_cast<ssize_t>(n);
}

void Nova::InstallCow(BaseInode* inode, uint64_t off, uint64_t n,
                      const std::vector<ext4sim::PhysExtent>& fresh) {
  uint64_t first = off / kBlockSize;
  uint64_t last = (off + n - 1) / kBlockSize;
  uint64_t nblocks = last - first + 1;
  for (const auto& e : inode->extents.RemoveRange(first, nblocks)) {
    alloc_.Free(e);
  }
  uint64_t lb = first;
  for (const auto& e : fresh) {
    inode->extents.Insert(lb, e.start, e.count);
    lb += e.count;
  }
}

ssize_t Nova::WriteData(BaseInode* inode, const void* buf, uint64_t n, uint64_t off) {
  ctx_->ChargeCpu(ctx_->model.nova_write_path_ns);
  bool extends = off + n > inode->size;

  if (strict_ || extends) {
    // Strict always COWs; appends allocate fresh blocks in both flavors.
    std::vector<ext4sim::PhysExtent> fresh;
    ssize_t rc = WriteCow(inode, buf, n, off, &fresh);
    if (rc < 0) {
      return rc;
    }
    // Crash ordering: the COW blocks persist at the log entry's fences, and only
    // then does the mapping adopt them — a crash mid-operation must leave the old
    // (durable) blocks reachable, never a fresh block that might not have drained.
    AppendLogEntry();  // write entry + tail, two fences.
    InstallCow(inode, off, n, fresh);
    if (extends) {
      inode->size = off + n;
    }
  } else {
    // Relaxed: in-place data update plus the per-op log append (§5.7: paying the log
    // update on every in-place write is what gives NOVA-relaxed its TPCC overhead).
    // The data stores go first so the log entry's fences also persist them — an
    // acknowledged relaxed write is durable, it just isn't atomic.
    ssize_t rc = WriteExtentsInPlace(inode, buf, n, off, ctx_->model.nova_alloc_cpu_ns);
    if (rc < 0) {
      return rc;
    }
    AppendLogEntry();  // write entry + tail, two fences.
  }
  ctx_->ChargeCpu(ctx_->model.nova_mem_bookkeep_ns);  // DRAM radix-tree update.
  return static_cast<ssize_t>(n);
}

ssize_t Nova::ReadData(BaseInode* inode, void* buf, uint64_t n, uint64_t off) {
  ctx_->ChargeCpu(ctx_->model.nova_mem_bookkeep_ns);  // Radix lookup.
  return ReadExtents(inode, buf, n, off);
}

int Nova::SyncFile(BaseInode* /*inode*/) {
  // All operations were synchronous; nothing to flush.
  dev_->Fence();
  return 0;
}

void Nova::OnMetadataOp(BaseInode* inode, const char* /*what*/) {
  // Namespace changes write a dirent log entry in the directory's log AND an inode
  // log entry (NOVA journals multi-inode ops with its lightweight journal), so a
  // metadata op costs two entry+tail appends plus setup CPU.
  ctx_->ChargeCpu(ctx_->model.nova_log_cpu_ns + ctx_->model.nova_write_path_ns / 2);
  if (inode != nullptr) {
    AppendLogEntry();
    AppendLogEntry();
  }
}

}  // namespace novasim
