#include "src/pmem/device.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/analysis/persist_checker.h"

namespace pmem {

using common::kCacheLineSize;

namespace {
bool EnvAnalysisOn() {
  const char* v = std::getenv("SPLITFS_ANALYSIS");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}
}  // namespace

Device::Device(sim::Context* ctx, uint64_t size) : ctx_(ctx), data_(size, 0) {
  SPLITFS_CHECK(ctx != nullptr);
  SPLITFS_CHECK(size > 0);
  if (EnvAnalysisOn()) {
    // Analysis mode: every device gets its own halt-on-violation checker, wired
    // into this context's metrics registry for the per-site lint gauges.
    owned_checker_ = std::make_unique<analysis::PersistChecker>(
        analysis::PersistChecker::Mode::kHalt, &ctx->obs.metrics);
    checker_ = owned_checker_.get();
  }
}

Device::~Device() = default;

void Device::EnableCrashTracking(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  tracking_ = on;
  if (!on) {
    pending_.clear();
    pending_flush_bytes_ = 0;
  }
}

void Device::TrackStore(uint64_t off, uint64_t n, bool flushed) {
  // Caller holds mu_. Saves the pre-store image of every line touched so Crash() can
  // revert it; a line already pending keeps its original (oldest) image.
  uint64_t first = off / kCacheLineSize;
  uint64_t last = (off + n - 1) / kCacheLineSize;
  for (uint64_t line = first; line <= last; ++line) {
    auto [it, inserted] = pending_.try_emplace(line);
    if (inserted) {
      std::memcpy(it->second.old_image.data(), data_.data() + line * kCacheLineSize,
                  kCacheLineSize);
    }
    it->second.flushed = flushed;
    if (flushed) {
      pending_flush_bytes_ += kCacheLineSize;
    }
  }
}

void Device::StoreTemporal(uint64_t off, const void* src, uint64_t n,
                           sim::PmWriteKind kind) {
  SPLITFS_CHECK(off + n <= data_.size());
  if (n == 0) {
    return;
  }
  if (tracking_) {
    std::lock_guard<std::mutex> lock(mu_);
    TrackStore(off, n, /*flushed=*/false);
    std::memcpy(data_.data() + off, src, n);
  } else {
    std::memcpy(data_.data() + off, src, n);
  }
  if (observer_ != nullptr) {
    observer_->OnStore(off, n, /*persists_at_fence=*/false);
  }
  if (checker_ != nullptr) {
    checker_->OnStore(off, n, /*persists_at_fence=*/false);
  }
  // Temporal stores land in cache: cheap now, media cost charged at Clwb time.
  uint64_t ns = static_cast<uint64_t>(ctx_->model.dram_ns_per_byte * n);
  ctx_->clock.Advance(ns);
  ctx_->stats.AddPmWrite(kind, n, /*media_ns=*/0);
}

void Device::StoreNt(uint64_t off, const void* src, uint64_t n, sim::PmWriteKind kind) {
  SPLITFS_CHECK(off + n <= data_.size());
  if (n == 0) {
    return;
  }
  if (tracking_) {
    std::lock_guard<std::mutex> lock(mu_);
    TrackStore(off, n, /*flushed=*/true);
    std::memcpy(data_.data() + off, src, n);
  } else {
    std::memcpy(data_.data() + off, src, n);
  }
  if (observer_ != nullptr) {
    observer_->OnStore(off, n, /*persists_at_fence=*/true);
  }
  if (checker_ != nullptr) {
    checker_->OnStore(off, n, /*persists_at_fence=*/true);
  }
  // Full media cost at the store: this is the Table 1 calibration anchor
  // (91 + 4096 * 0.1416 ≈ 671 ns for one 4 KB block).
  uint64_t ns = ctx_->model.PmWriteCost(n);
  ctx_->clock.Advance(ns);
  ctx_->stats.AddPmWrite(kind, n, ns);
}

void Device::Clwb(uint64_t off, uint64_t n) {
  SPLITFS_CHECK(off + n <= data_.size());
  if (n == 0) {
    return;
  }
  uint64_t first = common::AlignDown(off, kCacheLineSize);
  uint64_t last = common::AlignDown(off + n - 1, kCacheLineSize);
  uint64_t lines = (last - first) / kCacheLineSize + 1;
  if (tracking_) {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t line = first / kCacheLineSize; line <= last / kCacheLineSize; ++line) {
      auto it = pending_.find(line);
      if (it != pending_.end() && !it->second.flushed) {
        it->second.flushed = true;
        pending_flush_bytes_ += kCacheLineSize;
      }
    }
  }
  if (observer_ != nullptr) {
    observer_->OnClwb(off, n);
  }
  if (checker_ != nullptr) {
    checker_->OnClwb(off, n);
  }
  // Write-back of dirty lines at PM write bandwidth.
  uint64_t bytes = lines * kCacheLineSize;
  ctx_->clock.Advance(static_cast<uint64_t>(ctx_->model.pm_write_ns_per_byte * bytes));
}

void Device::Fence() {
  // Observer runs before anything persists: a crash injected here still sees every
  // un-fenced store as vulnerable.
  uint64_t epoch = fence_epoch_.fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) {
    // The primary observer goes first: a crash injector that unwinds from here
    // leaves the checker's pre-fence shadow intact — CrashWith then resets it
    // through OnCrash, matching the lines it reverted.
    observer_->OnFence(epoch);
  }
  if (checker_ != nullptr) {
    checker_->OnFence(epoch);
  }
  bool persisting = false;
  if (tracking_) {
    std::lock_guard<std::mutex> lock(mu_);
    persisting = pending_flush_bytes_ > 0;
    // Every flushed / nt-written line is now durable: forget its undo image.
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second.flushed) {
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    pending_flush_bytes_ = 0;
  }
  ctx_->clock.Advance(persisting ? ctx_->model.pm_store_fence_ns : ctx_->model.fence_ns);
  ctx_->stats.AddFence();
}

void Device::Load(uint64_t off, void* dst, uint64_t n, bool sequential,
                  sim::PmReadKind kind) const {
  SPLITFS_CHECK(off + n <= data_.size());
  if (n == 0) {
    return;
  }
  std::memcpy(dst, data_.data() + off, n);
  uint64_t ns = ctx_->model.PmReadCost(n, sequential);
  ctx_->clock.Advance(ns);
  ctx_->stats.AddPmRead(kind, n, ns);
}

void Device::Crash(common::Rng* rng) {
  // Lines are visited in ascending order so a seeded Rng produces the same crash
  // state on every run (unordered_map iteration order must not leak into results).
  CrashWith([rng](uint64_t, uint64_t) -> uint8_t {
    return rng != nullptr && rng->OneIn(2) ? 0xFF : 0x00;
  });
}

void Device::CrashWith(const LineFateFn& fate) {
  std::lock_guard<std::mutex> lock(mu_);
  SPLITFS_CHECK(tracking_);
  // Ascending line order, whatever the hash map's: the fate sees a deterministic
  // (line, ordinal) sequence.
  std::vector<uint64_t> lines;
  lines.reserve(pending_.size());
  for (const auto& [line, state] : pending_) {
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  constexpr uint64_t kChunk = 8;  // One survival bit per 8-byte drain unit.
  for (uint64_t ordinal = 0; ordinal < lines.size(); ++ordinal) {
    uint64_t line = lines[ordinal];
    uint8_t mask = fate(line, ordinal);
    const LineState& state = pending_.at(line);
    for (uint64_t chunk = 0; chunk < kCacheLineSize / kChunk; ++chunk) {
      if ((mask & (1u << chunk)) == 0) {
        std::memcpy(data_.data() + line * kCacheLineSize + chunk * kChunk,
                    state.old_image.data() + chunk * kChunk, kChunk);
      }
    }
  }
  pending_.clear();
  pending_flush_bytes_ = 0;
  if (checker_ != nullptr) {
    checker_->OnCrash();
  }
  if (observer_ != nullptr) {
    observer_->OnCrash();
  }
}

uint64_t Device::UnpersistedLines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

}  // namespace pmem
