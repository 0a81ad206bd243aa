#include "src/strata/strata.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "src/common/bytes.h"

namespace stratasim {

using common::kBlockSize;
using common::kCacheLineSize;

namespace {
uint64_t MetaBlocksFor(pmem::Device* dev, const StrataOptions& opts) {
  // The private log cannot exceed a quarter of the device in this model.
  uint64_t bytes = std::min(opts.private_log_bytes, dev->size() / 4);
  return std::max<uint64_t>(bytes / kBlockSize, 64);
}
}  // namespace

Strata::Strata(pmem::Device* dev, StrataOptions opts)
    : PmFsBase(dev, MetaBlocksFor(dev, opts)), opts_(opts) {
  opts_.private_log_bytes = meta_region_bytes_;
}

int Strata::LogAppend(BaseInode* inode, const void* buf, uint64_t n, uint64_t off) {
  // Digest synchronously if the log is past its utilization threshold — this stall is
  // the structural cost SplitFS's relink avoids.
  uint64_t need = common::AlignUp(kCacheLineSize + n, kCacheLineSize);
  if (log_used_ + need >
      static_cast<uint64_t>(opts_.digest_threshold * opts_.private_log_bytes)) {
    Digest();
  }
  if (log_used_ + need > opts_.private_log_bytes) {
    return -ENOSPC;
  }
  ctx_->ChargeCpu(ctx_->model.strata_log_cpu_ns);

  // Header line + payload, non-temporal, one fence: the log write IS the synchronous,
  // atomic data operation.
  static const std::array<uint8_t, kCacheLineSize> header{};
  dev_->StoreNt(meta_region_start_ + log_used_, header.data(), kCacheLineSize,
                sim::PmWriteKind::kLog);
  uint64_t payload_off = log_used_ + kCacheLineSize;
  dev_->StoreNt(meta_region_start_ + payload_off, buf, n, sim::PmWriteKind::kUserData);
  dev_->Fence();

  // Index the piece, replacing (coalescing with) any overlapping pending pieces.
  auto& pieces = pending_[inode->ino];
  uint64_t end = off + n;
  auto it = pieces.upper_bound(off);
  if (it != pieces.begin()) {
    --it;
  }
  while (it != pieces.end() && it->first < end) {
    uint64_t p_start = it->first;
    LogPiece p = it->second;
    uint64_t p_end = p_start + p.len;
    if (p_end <= off) {
      ++it;
      continue;
    }
    it = pieces.erase(it);
    if (p_start < off) {
      pieces[p_start] = LogPiece{p.log_off, off - p_start};
    }
    if (p_end > end) {
      pieces[end] = LogPiece{p.log_off + (end - p_start), p_end - end};
    }
  }
  pieces[off] = LogPiece{payload_off, n};
  log_used_ += need;
  return 0;
}

void Strata::Digest() {
  ++digests_;
  std::vector<uint8_t> block(kBlockSize);
  for (auto& [ino, pieces] : pending_) {
    BaseInode* inode = GetInode(ino);
    if (inode == nullptr) {
      continue;
    }
    for (const auto& [off, piece] : pieces) {
      // Digest granularity is a block: even a small surviving entry costs a full
      // block write into the shared area (appends don't coalesce, §2.3).
      uint64_t first = off / kBlockSize;
      uint64_t last = (off + piece.len - 1) / kBlockSize;
      for (uint64_t lb = first; lb <= last; ++lb) {
        ctx_->ChargeCpu(ctx_->model.strata_digest_cpu_ns);
        auto hit = inode->extents.Lookup(lb);
        if (!hit) {
          std::vector<ext4sim::PhysExtent> fresh;
          if (!alloc_.AllocateBlocks(1, &fresh)) {
            continue;  // Shared area full; piece stays in the log.
          }
          inode->extents.Insert(lb, fresh[0].start, fresh[0].count);
          hit = inode->extents.Lookup(lb);
        }
        // Merge the logged bytes into the shared block and write it whole: this is
        // the second copy of the data (2x write IO on append-heavy workloads).
        uint64_t block_start = lb * kBlockSize;
        uint64_t from = std::max(off, block_start);
        uint64_t to = std::min(off + piece.len, block_start + kBlockSize);
        dev_->Load(hit->phys * kBlockSize, block.data(), kBlockSize,
                   /*sequential=*/true, sim::PmReadKind::kLog);
        dev_->Load(meta_region_start_ + piece.log_off + (from - off),
                   block.data() + (from - block_start), to - from,
                   /*sequential=*/true, sim::PmReadKind::kLog);
        dev_->StoreNt(hit->phys * kBlockSize, block.data(), kBlockSize,
                      sim::PmWriteKind::kLog);
      }
    }
    pieces.clear();
  }
  dev_->Fence();
  std::erase_if(pending_, [](const auto& kv) { return kv.second.empty(); });
  log_used_ = 0;
}

void Strata::DigestNow() {
  std::lock_guard<std::mutex> lock(mu_);
  Digest();
}

ssize_t Strata::WriteData(BaseInode* inode, const void* buf, uint64_t n, uint64_t off) {
  // LibFS: no kernel trap on the data path. PmFsBase::Pwrite charged one syscall
  // before calling us; refund it — Strata's whole point is user-level operation.
  ctx_->clock.Rewind(ctx_->model.syscall_ns);
  int rc = LogAppend(inode, buf, n, off);
  if (rc != 0) {
    return rc;
  }
  if (off + n > inode->size) {
    inode->size = off + n;
  }
  return static_cast<ssize_t>(n);
}

ssize_t Strata::ReadData(BaseInode* inode, void* buf, uint64_t n, uint64_t off) {
  ctx_->clock.Rewind(ctx_->model.syscall_ns);  // User-level read path.
  ctx_->ChargeCpu(ctx_->model.strata_read_path_ns);
  if (off >= inode->size) {
    return 0;
  }
  uint64_t end = std::min(off + n, inode->size);
  auto* dst = static_cast<uint8_t*>(buf);
  uint64_t cur = off;
  auto pit = pending_.find(inode->ino);

  while (cur < end) {
    const LogPiece* covering = nullptr;
    uint64_t piece_start = 0;
    uint64_t next_piece = end;
    if (pit != pending_.end()) {
      auto it = pit->second.upper_bound(cur);
      if (it != pit->second.begin()) {
        auto prev = std::prev(it);
        if (cur < prev->first + prev->second.len) {
          covering = &prev->second;
          piece_start = prev->first;
        }
      }
      if (covering == nullptr && it != pit->second.end()) {
        next_piece = std::min(end, it->first);
      }
    }
    if (covering != nullptr) {
      uint64_t delta = cur - piece_start;
      uint64_t span = std::min(end - cur, covering->len - delta);
      dev_->Load(meta_region_start_ + covering->log_off + delta, dst, span,
                 /*sequential=*/n >= kBlockSize, sim::PmReadKind::kUserData);
      dst += span;
      cur += span;
      continue;
    }
    uint64_t span = next_piece - cur;
    ssize_t rc = ReadExtents(inode, dst, span, cur);
    if (rc < 0) {
      return rc;
    }
    if (rc == 0) {
      std::memset(dst, 0, span);  // Hole.
      rc = static_cast<ssize_t>(span);
    }
    dst += rc;
    cur += static_cast<uint64_t>(rc);
  }
  return static_cast<ssize_t>(end - off);
}

int Strata::SyncFile(BaseInode* /*inode*/) {
  dev_->Fence();  // Log writes were already synchronous.
  return 0;
}

void Strata::OnMetadataOp(BaseInode* inode, const char* what) {
  // Metadata updates are log records too.
  static const std::array<uint8_t, kCacheLineSize> rec{};
  if (log_used_ + kCacheLineSize <= opts_.private_log_bytes) {
    dev_->StoreNt(meta_region_start_ + log_used_, rec.data(), kCacheLineSize,
                  sim::PmWriteKind::kLog);
    dev_->Fence();
    log_used_ += kCacheLineSize;
  }
  ctx_->ChargeCpu(ctx_->model.strata_log_cpu_ns);
  if (inode != nullptr && std::string_view(what) == "unlink") {
    pending_.erase(inode->ino);
  }
}

}  // namespace stratasim
