#include "src/core/staging.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/service_pool.h"
#include "src/common/threading.h"
#include "src/sim/token_bucket.h"

namespace splitfs {

StagingPool::StagingPool(ext4sim::Ext4Dax* kfs, MmapCache* mmaps, const Options& opts,
                         const std::string& instance_tag, const Services& services,
                         int* status)
    : kfs_(kfs), mmaps_(mmaps), ctx_(kfs->context()), opts_(opts), services_(services) {
  dir_ = opts.runtime_dir + "/stage-" + instance_tag;
  qos_resource_ = "tenant." + instance_tag + ".staging_throttle";
  kfs_->Mkdir(opts.runtime_dir);  // Idempotent; EEXIST is fine.
  // A prior incarnation of this tag (tenant remount churn) may have left the dir
  // and scratch files behind; staging contents are meaningless until relinked, so
  // reuse is safe.
  int mkdir_rc = kfs_->Mkdir(dir_);
  SPLITFS_CHECK(mkdir_rc == 0 || mkdir_rc == -EEXIST);
  lanes_.reserve(kLanes);
  for (size_t i = 0; i < kLanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  {
    std::lock_guard<std::mutex> pl(pool_mu_);
    for (uint32_t i = 0; i < opts_.num_staging_files; ++i) {
      if (!CreateStageFileLocked(CreateMode::kForeground)) {
        SPLITFS_CHECK(status != nullptr && "staging pool out of space");
        // Give the space back, so that a retry after freeing space fits a whole pool.
        for (StageFile& sf : spare_) {
          Retire(&sf);
        }
        spare_.clear();
        *status = -ENOSPC;
        return;
      }
    }
  }
  // Without replenish_thread the deterministic inline fallback stands in.
  if (opts_.replenish_thread) {
    replenisher_pool_ = services_.replenisher_pool;
    if (replenisher_pool_ == nullptr) {
      owned_replenisher_pool_ = std::make_unique<common::ServicePool>();
      replenisher_pool_ = owned_replenisher_pool_.get();
    }
  }
}

StagingPool::~StagingPool() {
  if (replenisher_pool_ != nullptr) {
    {
      std::lock_guard<std::mutex> pl(pool_mu_);
      stop_ = true;
    }
    // Fence our replenish passes out of the pool before tearing down the queues
    // they push into.
    replenisher_pool_->Drain(reinterpret_cast<uint64_t>(this));
  }
  for (auto& lane : lanes_) {
    if (lane->active && lane->active->fd >= 0) {
      kfs_->Close(lane->active->fd);
    }
  }
  for (auto& sf : spare_) {
    if (sf.fd >= 0) {
      kfs_->Close(sf.fd);
    }
  }
  for (auto& sf : consumed_) {
    if (sf.fd >= 0) {
      kfs_->Close(sf.fd);
    }
  }
}

StagingPool::Lane& StagingPool::LaneOfThisThread() {
  return *lanes_[common::ThreadLaneIndex(kLanes)];
}

bool StagingPool::CreateStageFile(CreateMode mode, StageFile* out) {
  // Deterministic background mode: the work happens inline (same store sequence
  // every run) but is attributed to the §3.5 background thread — the charge is
  // rewound and no resource stamp accumulates it, exactly as when the real
  // replenisher (which has no lane) does it.
  std::optional<sim::ScopedOffClock> off;
  if (mode == CreateMode::kBackgroundInline) {
    off.emplace(&ctx_->clock);
  }
  StageFile sf;
  std::string path = dir_ + "/s" +
                     std::to_string(files_created_.fetch_add(1, std::memory_order_relaxed));
  sf.path = path;
  sf.fd = kfs_->Open(path, vfs::kRdWr | vfs::kCreate);
  if (sf.fd < 0) {
    return false;
  }
  // Full-size fallocate (not KEEP_SIZE): crash recovery reads partial-block staged
  // bytes back through the kernel, which clips reads at i_size.
  int rc = kfs_->Fallocate(sf.fd, 0, opts_.staging_file_bytes, /*keep_size=*/false);
  if (rc != 0) {
    kfs_->Close(sf.fd);
    kfs_->Unlink(path);
    return false;
  }
  sf.ino = kfs_->InoOf(sf.fd);
  rc = kfs_->DaxMap(sf.fd, 0, opts_.staging_file_bytes, &sf.mappings);
  SPLITFS_CHECK(rc == 0 && !sf.mappings.empty());
  // The staging file is mapped once, up front; these mappings are what relink retains.
  ctx_->ChargeCpu(ctx_->model.mmap_syscall_ns);
  for (uint64_t chunk = 0; chunk < opts_.staging_file_bytes; chunk += common::kHugePageSize) {
    ctx_->ChargeHugePageSetup();
  }
  if (mode != CreateMode::kForeground) {
    background_creations_.fetch_add(1, std::memory_order_relaxed);
  }
  *out = std::move(sf);
  return true;
}

bool StagingPool::CreateStageFileLocked(CreateMode mode) {
  StageFile sf;
  if (!CreateStageFile(mode, &sf)) {
    return false;
  }
  spare_.push_back(std::move(sf));
  return true;
}

bool StagingPool::RefillLaneLocked(Lane* lane) {
  // QoS admission: one token per staging file this lane takes. The throttle
  // advances only the taker's own timeline and is attributed to the tenant.
  if (services_.staging_tokens != nullptr) {
    uint64_t throttled = services_.staging_tokens->Take(&ctx_->clock);
    obs::ReportWait(&ctx_->obs, &ctx_->clock, qos_resource_.c_str(), throttled);
  }
  std::lock_guard<std::mutex> pl(pool_mu_);
  if (spare_.empty()) {
    // Exhausted faster than replenishment: the application pays for the new file, as
    // it would if the paper's background thread fell behind.
    sim::ScopedResourceTime serial(&pool_stamp_, &ctx_->clock);
    obs::ReportWait(&ctx_->obs, &ctx_->clock, "staging.slow_path", serial.waited_ns());
    obs::ScopedSpan span(&ctx_->obs.tracer, &ctx_->clock, "staging",
                         "staging.foreground_create");
    if (!CreateStageFileLocked(CreateMode::kForeground)) {
      return false;
    }
  }
  lane->active = std::move(spare_.front());
  spare_.pop_front();
  if (spare_.size() < opts_.num_staging_files) {
    KickReplenisherLocked();
  }
  return true;
}

void StagingPool::ConsumeActiveLocked(Lane* lane) {
  std::lock_guard<std::mutex> pl(pool_mu_);
  StageFile sf = std::move(*lane->active);
  lane->active.reset();
  if (sf.handed_out == 0) {
    Retire(&sf);
  } else {
    consumed_.push_back(std::move(sf));
  }
  // Trigger the replacement now, so the pool's working set stays at its configured
  // size. Deterministic mode creates it inline (cost rewound); otherwise a
  // replenish pass does. When the spare queue is already empty the next refill
  // creates the file in the foreground — same as the pre-concurrency pool.
  if (replenisher_pool_ != nullptr) {
    KickReplenisherLocked();
  } else if (!spare_.empty()) {
    CreateStageFileLocked(CreateMode::kBackgroundInline);
  }
}

void StagingPool::KickReplenisherLocked() {
  if (replenisher_pool_ == nullptr) {
    return;
  }
  // Queued-pass dedup: one pending pass tops the queue up however far it has
  // drained by the time a worker runs it.
  replenisher_pool_->Submit(reinterpret_cast<uint64_t>(this), [this] { ReplenishPass(); });
}

void StagingPool::ReplenishPass() {
  std::unique_lock<std::mutex> ul(pool_mu_);
  while (!stop_ && spare_.size() < opts_.num_staging_files) {
    // Create outside pool_mu_: the kernel work (open + fallocate + map) is the
    // slow part, and holding the pool lock across it would stall every foreground
    // refill — the §3.5 critical-path cost this pass exists to absorb.
    ul.unlock();
    StageFile sf;
    bool ok = CreateStageFile(CreateMode::kBackgroundThread, &sf);
    ul.lock();
    if (!ok) {
      return;  // Out of space; foreground allocations will surface ENOSPC.
    }
    spare_.push_back(std::move(sf));
  }
}

uint64_t StagingPool::DevOffsetOf(const StageFile& sf, uint64_t file_off) const {
  for (const auto& m : sf.mappings) {
    if (file_off >= m.file_off && file_off < m.file_off + m.len) {
      return m.dev_off + (file_off - m.file_off);
    }
  }
  SPLITFS_CHECK(false && "staging offset outside pre-allocated range");
  return 0;
}

bool StagingPool::ExtendInPlace(StagingAlloc* a, uint64_t n) {
  Lane& lane = LaneOfThisThread();
  std::lock_guard<std::mutex> lg(lane.mu);
  if (!lane.active) {
    return false;
  }
  StageFile& sf = *lane.active;
  if (sf.ino != a->staging_ino || sf.used != a->staging_off + a->len ||
      sf.used + n > opts_.staging_file_bytes) {
    return false;
  }
  // Must also stay within one device-contiguous mapping piece.
  for (const auto& m : sf.mappings) {
    if (a->staging_off >= m.file_off &&
        a->staging_off + a->len + n <= m.file_off + m.len) {
      sf.used += n;
      sf.handed_out += n;
      a->len += n;
      return true;
    }
  }
  return false;
}

void StagingPool::MarkRelinked(vfs::Ino ino, uint64_t end_off) {
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lg(lane->mu);
    if (lane->active && lane->active->ino == ino) {
      StageFile& sf = *lane->active;
      sf.used = std::max(sf.used,
                         std::min(common::AlignUp(end_off, common::kBlockSize),
                                  opts_.staging_file_bytes));
      return;
    }
  }
}

void StagingPool::Retire(StageFile* sf) {
  // The namespace work (close + unlink of the dead staging file) happens on the
  // paper's background thread: the work is real, the foreground clock doesn't pay.
  sim::ScopedOffClock off(&ctx_->clock);
  if (sf->fd >= 0) {
    kfs_->Close(sf->fd);
    sf->fd = -1;
  }
  kfs_->Unlink(sf->path);
  files_retired_.fetch_add(1, std::memory_order_relaxed);
}

void StagingPool::Release(const StagingAlloc& a) {
  // Still active in some lane: never retired here.
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lg(lane->mu);
    if (lane->active && lane->active->ino == a.staging_ino) {
      StageFile& sf = *lane->active;
      sf.handed_out -= std::min(sf.handed_out, a.len);
      return;
    }
  }
  std::lock_guard<std::mutex> pl(pool_mu_);
  for (auto it = consumed_.begin(); it != consumed_.end(); ++it) {
    if (it->ino == a.staging_ino) {
      it->handed_out -= std::min(it->handed_out, a.len);
      if (it->handed_out == 0) {
        Retire(&*it);
        consumed_.erase(it);
      }
      return;
    }
  }
}

bool StagingPool::Allocate(uint64_t len, uint64_t align_mod,
                           std::vector<StagingAlloc>* out) {
  out->clear();
  Lane& lane = LaneOfThisThread();
  std::lock_guard<std::mutex> lg(lane.mu);
  uint64_t remaining = len;
  while (remaining > 0) {
    if (!lane.active && !RefillLaneLocked(&lane)) {
      return false;
    }
    StageFile& sf = *lane.active;
    // Two invariants: (1) a new allocation NEVER shares a block with a previous one
    // (relink moves whole blocks, including partially-used tails), and (2) the
    // staged offset is congruent to the target file offset mod the block size so
    // the aligned core can be relinked. Only ExtendInPlace continues mid-block.
    uint64_t desired_mod = (align_mod + (len - remaining)) % common::kBlockSize;
    uint64_t base = common::AlignUp(sf.used, common::kBlockSize);
    sf.used = std::min(base + desired_mod, opts_.staging_file_bytes);
    uint64_t avail = opts_.staging_file_bytes - sf.used;
    if (avail == 0) {
      // Active file consumed: hand it to the consumed list (it stays alive while
      // StagedRange records still reference staged bytes in it) and replenish.
      ConsumeActiveLocked(&lane);
      continue;
    }
    // Also respect physical-piece boundaries so each alloc is device-contiguous.
    uint64_t take = std::min(remaining, avail);
    uint64_t dev_off = DevOffsetOf(sf, sf.used);
    // Clip to the containing mapping piece.
    for (const auto& m : sf.mappings) {
      if (sf.used >= m.file_off && sf.used < m.file_off + m.len) {
        take = std::min(take, m.file_off + m.len - sf.used);
        break;
      }
    }
    out->push_back({sf.ino, sf.fd, sf.used, dev_off, take});
    sf.used += take;
    sf.handed_out += take;
    remaining -= take;
  }
  return true;
}

uint64_t StagingPool::LiveFiles() const {
  uint64_t n = 0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lg(lane->mu);
    if (lane->active) {
      ++n;
    }
  }
  std::lock_guard<std::mutex> pl(pool_mu_);
  return n + spare_.size() + consumed_.size();
}

uint64_t StagingPool::MemoryUsageBytes() const {
  uint64_t total = sizeof(*this);
  auto file_bytes = [](const StageFile& sf) {
    return sizeof(sf) + sf.mappings.size() * sizeof(ext4sim::Ext4Dax::DaxMapping);
  };
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lg(lane->mu);
    total += sizeof(Lane);
    if (lane->active) {
      total += file_bytes(*lane->active);
    }
  }
  std::lock_guard<std::mutex> pl(pool_mu_);
  for (const auto& sf : spare_) {
    total += file_bytes(sf);
  }
  for (const auto& sf : consumed_) {
    total += file_bytes(sf);
  }
  return total;
}

}  // namespace splitfs
