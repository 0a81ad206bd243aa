// Emulated byte-addressable persistent-memory device.
//
// Substitutes for the Intel Optane DC PMM used in the paper (§5.1). Two concerns:
//
//  1. Timing: every access charges simulated nanoseconds through sim::CostModel,
//     calibrated against Table 2 (latency/bandwidth) and the Table 1 anchor
//     ("it takes 671 ns to write 4 KB to PM").
//
//  2. Persistence semantics: x86 PM semantics are modeled at cacheline granularity.
//     Regular (temporal) stores are volatile until CLWB + SFENCE; non-temporal stores
//     become persistent at the next SFENCE. `Crash()` rolls every line that has not
//     reached its persistence point back to its pre-store image (optionally persisting
//     a random subset, to model torn writes). Crash-consistency tests for every file
//     system in this repo are built on this.
//
// Persistence tracking is opt-in (`EnableCrashTracking`): benchmarks run with tracking
// off so multi-gigabyte workloads don't pay for the shadow images.
#ifndef SRC_PMEM_DEVICE_H_
#define SRC_PMEM_DEVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/sim/context.h"

namespace analysis {
class PersistChecker;
}

namespace pmem {

// Observation hooks for the crash harness (src/crash). The device reports every
// store, flush, and fence so a shadow-recording layer can journal the persistence
// traffic and a crash injector can fire at an exact store/fence boundary. Callbacks
// run outside the device lock; OnFence runs *before* the fence persists anything, so
// an observer that unwinds (crash injection) sees the pre-fence pending set intact.
class DeviceObserver {
 public:
  virtual ~DeviceObserver() = default;
  // After the store's bytes have landed. `persists_at_fence` is true for
  // non-temporal stores (durable at the next fence without an explicit flush).
  virtual void OnStore(uint64_t off, uint64_t n, bool persists_at_fence) = 0;
  virtual void OnClwb(uint64_t off, uint64_t n) = 0;
  // At the start of a fence; `epoch` counts fences completed so far.
  virtual void OnFence(uint64_t epoch) = 0;
  // After CrashWith decided every pending line's fate: the observer's shadow of
  // the volatile state must reset with the DRAM it models. Default no-op (the
  // crash harness's ShadowLog is reinstalled per world and never needs it).
  virtual void OnCrash() {}
};

class Device {
 public:
  // Creates a device of `size` bytes, zero-initialized, charging time to `ctx`.
  // With SPLITFS_ANALYSIS=1 in the environment, a halt-on-violation
  // analysis::PersistChecker is created and installed automatically (see
  // src/analysis/), so every existing suite runs checked without source
  // changes. Out-of-line dtor: the owned checker's type is incomplete here.
  Device(sim::Context* ctx, uint64_t size);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  uint64_t size() const { return data_.size(); }
  sim::Context* context() const { return ctx_; }

  // --- Persistence-tracked access ----------------------------------------------------

  // Regular temporal stores: contents land in "cache"; volatile until Clwb + Fence.
  void StoreTemporal(uint64_t off, const void* src, uint64_t n, sim::PmWriteKind kind);

  // Non-temporal (movnt) stores: bypass cache; persistent at the next Fence.
  // Charges full PM write cost (store + persistence) at the store, per the
  // "671 ns per 4 KB" calibration anchor.
  void StoreNt(uint64_t off, const void* src, uint64_t n, sim::PmWriteKind kind);

  // Flushes the cachelines covering [off, off+n): they persist at the next Fence.
  void Clwb(uint64_t off, uint64_t n);

  // Store fence: everything flushed or written non-temporally is now persistent.
  void Fence();

  // Loads [off, off+n) into dst. `sequential` selects the latency class (Table 2);
  // `kind` classifies the read for accounting — kUserData marks payload reads for
  // the software-overhead split, the rest refine pm_read_bytes by purpose.
  void Load(uint64_t off, void* dst, uint64_t n, bool sequential, sim::PmReadKind kind) const;

  // --- DAX window --------------------------------------------------------------------
  // Raw pointer into the device, the moral equivalent of a DAX mmap target. Callers
  // that use it for data access must charge time themselves (U-Split does; tests that
  // just inspect contents don't need to).
  uint8_t* DirectMap(uint64_t off) {
    SPLITFS_CHECK(off <= data_.size());
    return data_.data() + off;
  }
  const uint8_t* DirectMap(uint64_t off) const {
    SPLITFS_CHECK(off <= data_.size());
    return data_.data() + off;
  }

  // --- Observation (crash harness) -----------------------------------------------------
  // Installs (or, with nullptr, removes) the single observer notified of every store,
  // flush, and fence. Costs one branch per access when unset. Observers are a
  // single-threaded facility (the crash harness drives one workload thread); the
  // epoch counter itself stays race-free under concurrent fencing.
  void SetObserver(DeviceObserver* observer) { observer_ = observer; }
  uint64_t FenceEpoch() const { return fence_epoch_.load(std::memory_order_relaxed); }

  // --- Observation (analysis layer) ----------------------------------------------------
  // A second, dedicated observer slot for the persistence-ordering checker: the
  // crash harness owns SetObserver, and the two must compose (the checker keeps
  // shadowing while a crash injector arms and fires). Notified after the primary
  // observer — a crash injector that unwinds from OnFence skips the checker's
  // fence, and CrashWith's OnCrash resets the checker's shadow state instead.
  // Installs a non-owned checker (tests); pass nullptr to remove.
  void SetPersistChecker(analysis::PersistChecker* checker) { checker_ = checker; }
  // Installed checker, or nullptr — annotation helpers branch on this.
  analysis::PersistChecker* persist_checker() const { return checker_; }

  // --- Crash simulation ----------------------------------------------------------------
  void EnableCrashTracking(bool on);
  bool crash_tracking() const { return tracking_; }

  // Simulates power loss: every line that has not persisted reverts to its pre-store
  // image. If `rng` is non-null, each unpersisted line instead *persists* with
  // probability 1/2 — modeling the arbitrary subset of cachelines that may have been
  // evicted before the crash (this is what makes torn log entries possible).
  void Crash(common::Rng* rng = nullptr);

  // Fine-grained, deterministic power loss. `fate(line, ordinal)` is evaluated for
  // each dirty-but-unpersisted line in ascending line order (`ordinal` counts from 0)
  // and returns an 8-bit survival mask: bit i covers bytes [8i, 8(i+1)) of the line —
  // set keeps the new store, clear reverts to the pre-store image. 0x00 drops the
  // whole line, 0xFF persists it, anything in between models a torn store (the
  // write-combining buffer drained partially before power was cut).
  using LineFateFn = std::function<uint8_t(uint64_t line, uint64_t ordinal)>;
  void CrashWith(const LineFateFn& fate);

  // Number of cachelines currently dirty-but-unpersisted (test introspection).
  uint64_t UnpersistedLines() const;

 private:
  struct LineState {
    std::array<uint8_t, common::kCacheLineSize> old_image;
    bool flushed = false;  // Flushed (or nt-written): persists at next fence.
  };

  void TrackStore(uint64_t off, uint64_t n, bool flushed);

  sim::Context* ctx_;
  std::vector<uint8_t> data_;
  bool tracking_ = false;
  DeviceObserver* observer_ = nullptr;
  analysis::PersistChecker* checker_ = nullptr;
  std::unique_ptr<analysis::PersistChecker> owned_checker_;  // Env auto-install.
  std::atomic<uint64_t> fence_epoch_{0};

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, LineState> pending_;  // line index -> state
  uint64_t pending_flush_bytes_ = 0;                 // For fence cost selection.
};

}  // namespace pmem

#endif  // SRC_PMEM_DEVICE_H_
