#include "src/pmfs/pmfs.h"

#include <array>

#include "src/common/bytes.h"

namespace pmfssim {

using common::kBlockSize;
using common::kCacheLineSize;

namespace {
constexpr uint64_t kJournalBlocks = 1024;  // 4 MB undo-journal area.
}

Pmfs::Pmfs(pmem::Device* dev) : PmFsBase(dev, kJournalBlocks) {}

void Pmfs::JournalRecords(size_t n_entries) {
  // PMFS journals metadata with small undo records: temporal store + clwb per record,
  // one fence before and one after the commit record.
  static const std::array<uint8_t, kCacheLineSize> record{};
  for (size_t i = 0; i <= n_entries; ++i) {  // +1 for the commit record.
    if (journal_cursor_ + kCacheLineSize > meta_region_bytes_) {
      journal_cursor_ = 0;
    }
    dev_->StoreTemporal(meta_region_start_ + journal_cursor_, record.data(),
                        kCacheLineSize, sim::PmWriteKind::kJournal);
    dev_->Clwb(meta_region_start_ + journal_cursor_, kCacheLineSize);
    ctx_->ChargeCpu(ctx_->model.pmfs_journal_entry_cpu_ns);
    if (i == n_entries - 1) {
      dev_->Fence();  // Records persist before the commit record is written.
    }
    journal_cursor_ += kCacheLineSize;
  }
  dev_->Fence();
}

ssize_t Pmfs::WriteData(BaseInode* inode, const void* buf, uint64_t n, uint64_t off) {
  ctx_->ChargeCpu(ctx_->model.pmfs_write_path_ns);
  bool extends = off + n > inode->size;
  bool allocates = extends || !inode->extents.Lookup(off / kBlockSize).has_value();
  if (allocates) {
    // Allocation mutates the inode B-tree and allocator state: journaled (inode,
    // B-tree node, allocator bitmap).
    ctx_->ChargeCpu(ctx_->model.pmfs_btree_cpu_ns);
    JournalRecords(3);
  }
  ssize_t rc = WriteExtentsInPlace(inode, buf, n, off, ctx_->model.pmfs_alloc_cpu_ns);
  if (rc < 0) {
    return rc;
  }
  if (extends) {
    inode->size = off + n;
    // i_size update: one persistent inode line, flushed synchronously.
    static const std::array<uint8_t, kCacheLineSize> line{};
    dev_->StoreTemporal(meta_region_start_, line.data(), kCacheLineSize,
                        sim::PmWriteKind::kMetadata);
    dev_->Clwb(meta_region_start_, kCacheLineSize);
  }
  dev_->Fence();  // PMFS data ops are synchronous (Table 3: sync guarantee).
  return rc;
}

int Pmfs::SyncFile(BaseInode* /*inode*/) {
  // Everything was persisted at operation time; fsync only drains the pipeline.
  dev_->Fence();
  return 0;
}

void Pmfs::OnMetadataOp(BaseInode* /*inode*/, const char* /*what*/) {
  ctx_->ChargeCpu(ctx_->model.pmfs_btree_cpu_ns);
  JournalRecords(3);
}

}  // namespace pmfssim
