#include "src/core/mmap_cache.h"

#include <algorithm>

#include "src/common/bytes.h"

namespace splitfs {

using common::kHugePageSize;

// Orders a shard table's (ino, snapshot) entries against an ino.
constexpr auto kByIno = [](const auto& entry, vfs::Ino ino) { return entry.first < ino; };

MmapCache::MmapCache(ext4sim::Ext4Dax* kfs, uint64_t mmap_size)
    : kfs_(kfs), ctx_(kfs->context()), mmap_size_(mmap_size) {
  SPLITFS_CHECK(mmap_size >= 2 * common::kMiB);
  for (auto& shard : shards_) {
    shard.store(new Table(), std::memory_order_relaxed);
  }
}

MmapCache::~MmapCache() {
  // No caller may be mid-Translate once the owner destroys the cache; free the live
  // snapshots directly and let the retire lists delete whatever is still pending.
  for (auto& shard : shards_) {
    const Table* t = shard.load(std::memory_order_relaxed);
    for (const auto& [ino, snap] : t->files) {
      delete snap;
    }
    delete t;
  }
}

const MmapCache::FileSnapshot* MmapCache::Table::Find(vfs::Ino ino) const {
  auto it = std::lower_bound(files.begin(), files.end(), ino, kByIno);
  return it != files.end() && it->first == ino ? it->second : nullptr;
}

std::optional<MmapCache::Hit> MmapCache::Translate(vfs::Ino ino, uint64_t off) const {
  common::EpochGc::ReadGuard pin(&common::EpochGc::Global());
  const FileSnapshot* snap = CurrentTable(ino)->Find(ino);
  if (snap == nullptr) {
    return std::nullopt;
  }
  const auto& pieces = snap->pieces;
  // First piece with file_off > off, then step back — the snapshot analog of the old
  // std::map::upper_bound walk.
  auto it = std::upper_bound(
      pieces.begin(), pieces.end(), off,
      [](uint64_t o, const std::pair<uint64_t, Piece>& p) { return o < p.first; });
  if (it == pieces.begin()) {
    return std::nullopt;
  }
  --it;
  uint64_t start = it->first;
  const Piece& p = it->second;
  if (off >= start + p.len) {
    return std::nullopt;
  }
  uint64_t delta = off - start;
  return Hit{p.dev_off + delta, p.len - delta};
}

void MmapCache::InsertPiece(FileBuilder* fb, uint64_t file_off, uint64_t dev_off,
                            uint64_t len) {
  // Insert only sub-ranges not already covered; existing mappings stay authoritative.
  uint64_t cur = file_off;
  uint64_t end = file_off + len;
  while (cur < end) {
    // Find existing piece covering or after `cur`.
    auto it = fb->pieces.upper_bound(cur);
    uint64_t covered_until = cur;
    if (it != fb->pieces.begin()) {
      auto prev = std::prev(it);
      uint64_t p_end = prev->first + prev->second.len;
      if (p_end > cur) {
        covered_until = p_end;  // `cur` already mapped.
      }
    }
    if (covered_until > cur) {
      cur = std::min(covered_until, end);
      continue;
    }
    uint64_t next_start = it == fb->pieces.end() ? end : std::min(it->first, end);
    if (next_start > cur) {
      uint64_t piece_dev = dev_off + (cur - file_off);
      uint64_t piece_len = next_start - cur;
      // Merge with a contiguous predecessor (same file gap-free AND same device
      // run): one virtual mapping region, one latency charge per access run.
      auto pit = fb->pieces.upper_bound(cur);
      if (pit != fb->pieces.begin()) {
        auto prev = std::prev(pit);
        if (prev->first + prev->second.len == cur &&
            prev->second.dev_off + prev->second.len == piece_dev) {
          prev->second.len += piece_len;
          cur = next_start;
          // Try to also swallow a contiguous successor.
          auto next = fb->pieces.find(cur);
          if (next != fb->pieces.end() &&
              prev->second.dev_off + prev->second.len == next->second.dev_off) {
            prev->second.len += next->second.len;
            fb->pieces.erase(next);
          }
          continue;
        }
      }
      fb->pieces[cur] = Piece{piece_dev, piece_len};
      // Merge with a contiguous successor.
      auto self = fb->pieces.find(cur);
      auto next = std::next(self);
      if (next != fb->pieces.end() && cur + piece_len == next->first &&
          piece_dev + piece_len == next->second.dev_off) {
        self->second.len += next->second.len;
        fb->pieces.erase(next);
      }
      cur = next_start;
    }
  }
}

void MmapCache::EraseRange(FileBuilder* fb, uint64_t off, uint64_t len) {
  auto& pieces = fb->pieces;
  uint64_t end = off + len;
  auto it = pieces.upper_bound(off);
  if (it != pieces.begin()) {
    --it;
  }
  while (it != pieces.end() && it->first < end) {
    uint64_t p_start = it->first;
    Piece p = it->second;
    uint64_t p_end = p_start + p.len;
    if (p_end <= off) {
      ++it;
      continue;
    }
    it = pieces.erase(it);
    if (p_start < off) {  // Keep the left part.
      pieces[p_start] = Piece{p.dev_off, off - p_start};
    }
    if (p_end > end) {  // Keep the right part.
      pieces[end] = Piece{p.dev_off + (end - p_start), p_end - end};
    }
  }
}

MmapCache::FileBuilder MmapCache::BuilderFrom(const FileSnapshot& snap) {
  FileBuilder fb;
  fb.pieces.insert(snap.pieces.begin(), snap.pieces.end());
  fb.regions = snap.regions;
  fb.mmap_count = snap.mmap_count;
  return fb;
}

MmapCache::FileBuilder MmapCache::BuilderFor(vfs::Ino ino) const {
  const FileSnapshot* snap = CurrentTable(ino)->Find(ino);
  return snap != nullptr ? BuilderFrom(*snap) : FileBuilder{};
}

void MmapCache::SealAndPublish(vfs::Ino ino, FileBuilder&& fb) {
  auto* snap = new FileSnapshot();
  snap->pieces.assign(fb.pieces.begin(), fb.pieces.end());
  snap->regions = std::move(fb.regions);
  snap->mmap_count = fb.mmap_count;
  std::atomic<const Table*>& shard = ShardOf(ino);
  const Table* old = shard.load(std::memory_order_relaxed);
  auto* next = new Table();
  next->files.reserve(old->files.size() + 1);
  next->files = old->files;
  auto it = std::lower_bound(next->files.begin(), next->files.end(), ino, kByIno);
  const FileSnapshot* replaced = nullptr;
  if (it != next->files.end() && it->first == ino) {
    replaced = it->second;
    it->second = snap;
  } else {
    next->files.insert(it, {ino, snap});
  }
  // Swap first: an object may only be retired once it is unreachable from the live
  // table, or a reader pinning between the retire and the swap could still walk it
  // while the GC already considers it quiesced.
  PublishTable(&shard, next);
  if (replaced != nullptr) {
    retired_files_.Retire(replaced);
  }
}

void MmapCache::PublishTable(std::atomic<const Table*>* shard, const Table* next) {
  const Table* old = shard->exchange(next, std::memory_order_seq_cst);
  retired_tables_.Retire(old);
}

bool MmapCache::EnsureRegion(vfs::Ino ino, int kernel_fd, uint64_t off) {
  uint64_t region_start = common::AlignDown(off, mmap_size_);
  {
    common::EpochGc::ReadGuard pin(&common::EpochGc::Global());
    const FileSnapshot* snap = CurrentTable(ino)->Find(ino);
    if (snap != nullptr &&
        std::binary_search(snap->regions.begin(), snap->regions.end(), region_start)) {
      return true;  // Region already set up (holes included by design).
    }
  }
  // The kernel call runs outside the update mutex: it queues on K-Split's locks and
  // charges mmap + fault costs, and serializing it behind other files' region
  // creation would stall unrelated threads in real time.
  std::vector<ext4sim::Ext4Dax::DaxMapping> mappings;
  int rc = kfs_->DaxMap(kernel_fd, region_start, mmap_size_, &mappings);
  if (rc != 0) {
    return false;
  }
  std::lock_guard<std::mutex> lock(update_mu_);
  FileBuilder fb = BuilderFor(ino);
  if (std::binary_search(fb.regions.begin(), fb.regions.end(), region_start)) {
    return true;  // A racing thread mapped the same region; keep its pieces.
  }
  // mmap() trap + pre-populated (MAP_POPULATE) huge-page faults: one per 2 MB chunk.
  ctx_->ChargeCpu(ctx_->model.mmap_syscall_ns);
  ctx_->stats.AddSyscall();
  for (uint64_t chunk = 0; chunk < mmap_size_; chunk += kHugePageSize) {
    ctx_->ChargeHugePageSetup();
  }
  for (const auto& m : mappings) {
    InsertPiece(&fb, m.file_off, m.dev_off, m.len);
  }
  fb.regions.insert(
      std::upper_bound(fb.regions.begin(), fb.regions.end(), region_start),
      region_start);
  ++fb.mmap_count;
  SealAndPublish(ino, std::move(fb));
  total_regions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void MmapCache::InsertPieces(vfs::Ino ino,
                             const std::vector<ext4sim::Ext4Dax::DaxMapping>& pieces) {
  std::lock_guard<std::mutex> lock(update_mu_);
  FileBuilder fb = BuilderFor(ino);
  for (const auto& m : pieces) {
    ctx_->ChargeCpu(ctx_->model.user_work_ns);
    InsertPiece(&fb, m.file_off, m.dev_off, m.len);
  }
  SealAndPublish(ino, std::move(fb));
}

void MmapCache::ReplaceRange(vfs::Ino ino, uint64_t off, uint64_t dev_off,
                             uint64_t len) {
  std::lock_guard<std::mutex> lock(update_mu_);
  FileBuilder fb = BuilderFor(ino);
  EraseRange(&fb, off, len);
  ctx_->ChargeCpu(ctx_->model.user_work_ns);  // InsertPieces' charge for one piece.
  InsertPiece(&fb, off, dev_off, len);
  SealAndPublish(ino, std::move(fb));
}

void MmapCache::InvalidateFile(vfs::Ino ino) {
  std::lock_guard<std::mutex> lock(update_mu_);
  std::atomic<const Table*>& shard = ShardOf(ino);
  const Table* t = shard.load(std::memory_order_relaxed);
  const FileSnapshot* snap = t->Find(ino);
  if (snap == nullptr) {
    return;
  }
  // munmap + TLB shootdown per region created by mmap (§3.5: this is why unlink is
  // SplitFS's most expensive call).
  for (uint64_t i = 0; i < std::max<uint64_t>(snap->mmap_count, 1); ++i) {
    ctx_->ChargeCpu(ctx_->model.munmap_ns);
  }
  total_regions_.fetch_sub(snap->mmap_count, std::memory_order_relaxed);
  auto* next = new Table(*t);
  next->files.erase(std::lower_bound(next->files.begin(), next->files.end(), ino, kByIno));
  PublishTable(&shard, next);  // Unreachable-before-retire, as in SealAndPublish.
  retired_files_.Retire(snap);
}

void MmapCache::InvalidateRange(vfs::Ino ino, uint64_t off, uint64_t len) {
  std::lock_guard<std::mutex> lock(update_mu_);
  const FileSnapshot* snap = CurrentTable(ino)->Find(ino);
  if (snap == nullptr || len == 0) {
    return;
  }
  FileBuilder fb = BuilderFrom(*snap);
  EraseRange(&fb, off, len);
  SealAndPublish(ino, std::move(fb));
}

void MmapCache::Clear() {
  std::lock_guard<std::mutex> lock(update_mu_);
  for (auto& shard : shards_) {
    const Table* t = shard.load(std::memory_order_relaxed);
    if (t->files.empty()) {
      continue;
    }
    std::vector<const FileSnapshot*> snaps;  // PublishTable may free `t` itself.
    snaps.reserve(t->files.size());
    for (const auto& [ino, snap] : t->files) {
      snaps.push_back(snap);
    }
    PublishTable(&shard, new Table());  // Unreachable-before-retire.
    for (const FileSnapshot* snap : snaps) {
      retired_files_.Retire(snap);
    }
  }
  total_regions_.store(0, std::memory_order_relaxed);
}

uint64_t MmapCache::MemoryUsageBytes() const {
  common::EpochGc::ReadGuard pin(&common::EpochGc::Global());
  uint64_t total = sizeof(*this);
  for (const auto& shard : shards_) {
    for (const auto& [ino, snap] : shard.load(std::memory_order_acquire)->files) {
      total += sizeof(*snap) +
               snap->pieces.size() * (sizeof(uint64_t) + sizeof(Piece) + 48) +
               snap->regions.size() * (sizeof(uint64_t) + 48);
    }
  }
  return total;
}

size_t MmapCache::RetiredSnapshotsForTest() const {
  std::lock_guard<std::mutex> lock(update_mu_);
  return retired_tables_.PendingForTest() + retired_files_.PendingForTest();
}

}  // namespace splitfs
