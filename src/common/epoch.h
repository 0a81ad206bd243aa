// Epoch-based reclamation (EBR) for read-mostly snapshot structures.
//
// The lock-free read path (MmapCache translation snapshots) publishes immutable
// objects through a raw atomic pointer. Readers must be able to dereference the
// pointer without taking any shared-write atomic — a shared_ptr refcount bump would
// reintroduce exactly the contended cache line the refactor removes — so retired
// snapshots cannot be freed until every reader that might still hold them has moved
// on. This header provides the classic three-part answer:
//
//   * a global epoch counter, advanced by writers at each retirement;
//   * one *per-thread* reader slot: entering a read-side critical section pins the
//     current epoch into the calling thread's own cache line (no shared write);
//   * a retire list kept by each writer: an object retired at epoch E is freed once
//     every pinned slot has observed an epoch >= E (quiescence).
//
// The reader registry is process-global and shared by every domain user: a thread is
// either inside *some* read-side section or it is not, so one slot per thread
// suffices. Slots are registered on a thread's first pin and recycled when the
// thread exits. Writers (who already serialize on their structure's update mutex)
// pay the registry walk; readers never touch it after registration.
//
// Memory-order recipe (the standard EBR validation loop): a reader pins by storing
// the observed global epoch seq_cst and re-validating that the global epoch did not
// move; a writer unlinks the object, *then* advances the epoch, *then* scans the
// slots. In the seq_cst total order any reader the scan misses must re-validate
// after the advance, sees the new epoch, and therefore reloads the structure pointer
// after the unlink — it can never hold the retired object.
//
// None of this charges simulated time: epoch bookkeeping is DRAM-only work already
// folded into the read path's per-op CPU cost, which keeps single-threaded virtual
// timelines bit-identical to the mutex-based cache it replaces.
#ifndef SRC_COMMON_EPOCH_H_
#define SRC_COMMON_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace common {

class EpochGc {
 private:
  struct Slot;  // Per-thread reader slot; defined below.

 public:
  // The process-wide reader registry + epoch counter.
  static EpochGc& Global() {
    static EpochGc* gc = new EpochGc();  // Leaked: threads may outlive any user.
    return *gc;
  }

  // RAII read-side critical section. While live, objects retired at or after the
  // pinned epoch stay allocated. Cheap: two stores to this thread's own slot plus a
  // validation load of the (read-mostly) global epoch.
  class ReadGuard {
   public:
    explicit ReadGuard(EpochGc* gc) : slot_(gc->SlotOfThisThread()) {
      for (;;) {
        uint64_t e = gc->epoch_.load(std::memory_order_seq_cst);
        slot_->pinned.store(e, std::memory_order_seq_cst);
        if (gc->epoch_.load(std::memory_order_seq_cst) == e) {
          return;  // Validated: any later retirement scan will see this pin.
        }
        // A writer advanced the epoch mid-pin; re-pin at the new epoch so the
        // structure pointer we are about to load is at least as new as the advance.
      }
    }
    ~ReadGuard() { slot_->pinned.store(kIdle, std::memory_order_release); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    Slot* slot_;
  };

  // Writer side, called with the retiring structure's update lock held (calls from
  // different structures may race; the epoch counter and registry are internally
  // synchronized). Returns the retirement epoch to store alongside the object.
  uint64_t BeginRetire() { return epoch_.fetch_add(1, std::memory_order_seq_cst) + 1; }

  // One registry walk answering the quiescence question for *every* retirement at
  // once: all objects retired at an epoch <= the returned horizon are unreachable.
  // A reader pinned at epoch E validated the pin after any epoch-E retirement's
  // unlink, so it can hold only objects retired at epochs > E; the horizon is the
  // minimum pinned epoch (UINT64_MAX when no reader is pinned). This is what lets a
  // batched sweep free a whole retire list for the cost of a single walk instead of
  // one walk per retired object.
  uint64_t QuiescedHorizon() {
    std::lock_guard<std::mutex> lock(registry_mu_);
    uint64_t horizon = UINT64_MAX;
    for (const Slot* s : slots_) {
      uint64_t pinned = s->pinned.load(std::memory_order_seq_cst);
      if (pinned != kIdle && pinned < horizon) {
        horizon = pinned;
      }
    }
    return horizon;
  }

 private:
  static constexpr uint64_t kIdle = 0;  // Epochs start at 1, so 0 is never pinned.

  struct alignas(64) Slot {
    std::atomic<uint64_t> pinned{0};
  };

  EpochGc() = default;

  Slot* SlotOfThisThread() {
    thread_local Registration reg(this);
    return reg.slot;
  }

  // Registers a slot on the thread's first pin; recycles it at thread exit. The
  // slot object itself is never freed (retired slots go to a free list), so a
  // concurrent registry scan can always read `pinned` safely.
  struct Registration {
    explicit Registration(EpochGc* gc_in) : gc(gc_in) {
      std::lock_guard<std::mutex> lock(gc->registry_mu_);
      if (!gc->free_slots_.empty()) {
        slot = gc->free_slots_.back();
        gc->free_slots_.pop_back();
      } else {
        slot = new Slot();
        gc->slots_.push_back(slot);
      }
    }
    ~Registration() {
      slot->pinned.store(kIdle, std::memory_order_seq_cst);
      std::lock_guard<std::mutex> lock(gc->registry_mu_);
      gc->free_slots_.push_back(slot);
    }
    EpochGc* gc;
    Slot* slot = nullptr;
  };

  std::atomic<uint64_t> epoch_{1};
  std::mutex registry_mu_;
  std::vector<Slot*> slots_;       // Every slot ever created.
  std::vector<Slot*> free_slots_;  // Recyclable (owning thread exited).
};

// Per-structure retire list: objects unlinked from the structure but possibly still
// pinned by readers. The owner calls Retire() under its own update mutex; sweeps are
// *deferred* — a generation counter lets kSweepGeneration retirements accumulate
// before the next registry walk, so an invalidation storm (many back-to-back
// updates) pays one walk per batch instead of one per update, and each walk frees
// the whole quiesced prefix via a single QuiescedHorizon() query. Drain() busy-waits
// for full quiescence — destructor use, when the structure itself is going away.
template <typename T>
class RetireList {
 public:
  // Retirements between registry walks. Bounds the garbage a storm can pile up to a
  // constant factor while cutting the walk rate by the same factor. No size-based
  // backstop: a reader pinned across the storm blocks reclamation no matter how
  // often we sweep, so extra walks while the list is long would only re-create the
  // per-update walk cost this deferral removes (the list shrinks the moment the
  // pin drops and the next generation sweep runs).
  static constexpr uint64_t kSweepGeneration = 8;

  ~RetireList() {
    // Destructor contract: the owner is unreachable, so no reader can be pinned on
    // *these* objects even if other readers are mid-section elsewhere.
    for (const Entry& e : retired_) {
      delete e.object;
    }
  }

  void Retire(const T* object) {
    uint64_t epoch = EpochGc::Global().BeginRetire();
    retired_.push_back({object, epoch});
    if (++generation_ >= kSweepGeneration) {
      Sweep();
    }
  }

  // Frees every retired object whose epoch has quiesced: one registry walk for the
  // whole list, then a compaction of the survivors. Resets the sweep generation.
  void Sweep() {
    generation_ = 0;
    if (retired_.empty()) {
      return;
    }
    uint64_t horizon = EpochGc::Global().QuiescedHorizon();
    size_t kept = 0;
    for (size_t i = 0; i < retired_.size(); ++i) {
      if (retired_[i].epoch <= horizon) {
        delete retired_[i].object;
      } else {
        retired_[kept++] = retired_[i];
      }
    }
    retired_.resize(kept);
  }

  // Spins until every retired object is freed (readers are short critical sections).
  void Drain() {
    while (!retired_.empty()) {
      Sweep();
      if (!retired_.empty()) {
        std::this_thread::yield();
      }
    }
  }

  size_t PendingForTest() const { return retired_.size(); }

 private:
  struct Entry {
    const T* object;
    uint64_t epoch;
  };
  std::vector<Entry> retired_;
  uint64_t generation_ = 0;  // Retirements since the last sweep.
};

}  // namespace common

#endif  // SRC_COMMON_EPOCH_H_
