#include "src/core/oplog.h"

#include <algorithm>
#include <cstring>

#include "src/analysis/annotations.h"
#include "src/analysis/persist_checker.h"
#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/threading.h"

namespace splitfs {

using common::kCacheLineSize;

void LogEntry::Seal() {
  seq = seq == 0 ? 1 : seq;  // Valid entries are always nonzero in the seq field.
  checksum = common::Crc32c(reinterpret_cast<const uint8_t*>(this) + 4, 60);
}

bool LogEntry::ValidSealed() const {
  // Structural validation first: recovery must never act on a slot whose fields it
  // cannot trust, even if the checksum happens to collide. The checksum is the
  // authority on tearing — a 64 B entry whose store only partially drained fails it.
  if (seq == 0 || op == LogOp::kInvalid || op > kMaxLogOp) {
    return false;
  }
  return checksum == common::Crc32c(reinterpret_cast<const uint8_t*>(this) + 4, 60);
}

OpLog::OpLog(ext4sim::Ext4Dax* kfs, const std::string& path, uint64_t bytes)
    : kfs_(kfs), ctx_(kfs->context()), capacity_(bytes / kCacheLineSize) {
  fd_ = kfs_->Open(path, vfs::kRdWr | vfs::kCreate | vfs::kTrunc);
  SPLITFS_CHECK(fd_ >= 0);
  SPLITFS_CHECK_OK(kfs_->Fallocate(fd_, 0, bytes, /*keep_size=*/false));
  ino_ = kfs_->InoOf(fd_);
  SPLITFS_CHECK_OK(kfs_->DaxMap(fd_, 0, bytes, &mappings_));
  uint64_t mapped = 0;
  for (const auto& m : mappings_) {
    mapped += m.len;
  }
  SPLITFS_CHECK(mapped == bytes);
  ZeroLogArea();
}

OpLog::~OpLog() {
  if (fd_ >= 0) {
    kfs_->Close(fd_);
  }
}

uint64_t OpLog::SlotDevOffset(uint64_t slot) const {
  uint64_t file_off = slot * kCacheLineSize;
  for (const auto& m : mappings_) {
    if (file_off >= m.file_off && file_off < m.file_off + m.len) {
      return m.dev_off + (file_off - m.file_off);
    }
  }
  SPLITFS_CHECK(false && "log slot outside mapped area");
  return 0;
}

void OpLog::ZeroLogArea() {
  static const std::vector<uint8_t> zeros(common::kBlockSize, 0);
  pmem::Device* dev = kfs_->device();
  for (const auto& m : mappings_) {
    for (uint64_t off = 0; off < m.len; off += zeros.size()) {
      uint64_t n = std::min<uint64_t>(zeros.size(), m.len - off);
      dev->StoreNt(m.dev_off + off, zeros.data(), n, sim::PmWriteKind::kLog);
    }
  }
  dev->Fence();
}

bool OpLog::Append(LogEntry entry) {
  // Compose the entry (DRAM), reserve a slot in this thread's lane, nt-store the
  // line, one fence. The fence is core-local and the slot is lane-private, so
  // concurrent strict-mode threads only share the (rare) chunk-claim fetch-add and
  // the seq counter.
  ctx_->ChargeCpu(ctx_->model.user_work_ns + ctx_->model.cas_ns);
  std::shared_lock<std::shared_mutex> no_reset(reset_mu_);
  Lane& lane = lanes_[common::ThreadLaneIndex(kLanes)];
  uint64_t slot;
  {
    std::lock_guard<std::mutex> lm(lane.mu);
    if (lane.next == lane.end) {
      uint64_t start = tail_.fetch_add(kLaneChunkSlots, std::memory_order_relaxed);
      if (start >= capacity_) {
        tail_.fetch_sub(kLaneChunkSlots, std::memory_order_relaxed);
        return false;  // Full: the caller checkpoints and retries.
      }
      lane.next = start;
      lane.end = std::min(start + kLaneChunkSlots, capacity_);
    }
    slot = lane.next++;
  }
  entry.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  entry.Seal();
  pmem::Device* dev = kfs_->device();
  uint64_t entry_off = SlotDevOffset(slot);
  analysis::ScopedLintSite lint("oplog.append");
  dev->StoreNt(entry_off, &entry, kCacheLineSize, sim::PmWriteKind::kLog);
  // Rule (b), non-strict: the entry is the record over whatever payload the
  // caller declared (a strict data op's staged bytes); entry and payload
  // persisting at the SAME fence is the §3.3 design, so strict=false.
  analysis::SealCover(dev, entry_off, kCacheLineSize, /*strict=*/false,
                      "oplog.append");
  if (!skip_fence_for_test_) {
    dev->Fence();  // THE single fence per logged operation.
  }
  // Rule (a): the operation acks durability of its log entry the moment Append
  // returns — with the fence mutation-dropped above, this fires.
  analysis::RequireDurable(dev, entry_off, kCacheLineSize, "oplog.entry");
  ctx_->stats.AddLogEntry();
  return true;
}

bool OpLog::ResetIfQuiesced(const std::function<bool()>& quiesced) {
  std::lock_guard<std::shared_mutex> exclusive(reset_mu_);
  // Any append that already wrote an entry has released the shared lock, so its
  // effects (including the caller's dirty-state bookkeeping preceding the append)
  // are visible to the predicate here; an append that has not yet started will land
  // in the fresh log.
  if (quiesced && !quiesced()) {
    return false;
  }
  ZeroLogArea();
  for (Lane& lane : lanes_) {
    std::lock_guard<std::mutex> lm(lane.mu);
    lane.next = 0;
    lane.end = 0;
  }
  tail_.store(0, std::memory_order_relaxed);
  reset_epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

std::vector<LogEntry> OpLog::ScanForRecovery() const {
  std::vector<LogEntry> out;
  pmem::Device* dev = kfs_->device();
  for (uint64_t slot = 0; slot < capacity_; ++slot) {
    LogEntry e;
    // Recovery-time reads are sequential scans of the log area.
    dev->Load(SlotDevOffset(slot), &e, kCacheLineSize, /*sequential=*/true,
              sim::PmReadKind::kLog);
    // Zero slot: end of the dense region may still be followed by valid entries after
    // a wrap/reset race, so scan everything (capacity is bounded).
    static const LogEntry kZero{};
    if (std::memcmp(&e, &kZero, kCacheLineSize) == 0) {
      continue;
    }
    if (e.ValidSealed()) {
      out.push_back(e);
    }
    // Nonzero but checksum-invalid: torn entry, discarded (§3.3).
  }
  // Stable sort: if corruption ever produces two checksum-valid entries with equal
  // seq, the one in the earlier log slot deterministically wins on every platform.
  std::stable_sort(out.begin(), out.end(),
                   [](const LogEntry& a, const LogEntry& b) { return a.seq < b.seq; });
  // The log writes each sequence number exactly once; a duplicate is corruption that
  // slipped past the checksum (or a bug) and must not be replayed twice.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const LogEntry& a, const LogEntry& b) { return a.seq == b.seq; }),
            out.end());
  return out;
}

}  // namespace splitfs
