// Simulated nanosecond clock.
//
// Every layer of the stack charges time here instead of measuring wall-clock time: the
// emulated PM device charges media latency/bandwidth, the kernel-FS models charge trap
// and journaling costs, U-Split charges its user-space bookkeeping. Benchmarks report
// this clock, which is what makes the paper's relative results reproducible on DRAM.
//
// Multithreading model. By default every thread charges the one shared counter and the
// clock behaves exactly as a single global timeline (all existing single-threaded
// tests and the deterministic crash matrix run in this mode and are bit-identical).
// A worker thread of a parallel phase may bind a Clock::Lane: its charges then accrue
// to a private per-thread timeline, so the simulated elapsed time of an N-thread phase
// is max(lane time), not the sum — the virtual-time model of an N-core host. Code
// sections that are serialized by a real lock can make that serialization visible in
// virtual time with a ResourceStamp (below): acquire fast-forwards the lane past the
// previous holder's release time, exactly like waiting on the lock in real time.
#ifndef SRC_SIM_CLOCK_H_
#define SRC_SIM_CLOCK_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace sim {

class Clock {
 public:
  Clock() = default;
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  // Per-thread virtual timeline for parallel phases. Binding is RAII and per-thread:
  // while a Lane for this clock is live on the current thread, Advance/Now/Rewind act
  // on the lane. On destruction the lane folds back into the shared counter with
  // max() semantics (the parallel phase ends when its slowest worker ends).
  class Lane {
   public:
    explicit Lane(Clock* clock) : clock_(clock), prev_(tls_lane_) {
      ns_ = clock->now_.load(std::memory_order_relaxed);
      tls_lane_ = this;
    }
    ~Lane() {
      clock_->FoldIn(ns_);
      tls_lane_ = prev_;
    }
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    uint64_t Now() const { return ns_; }

   private:
    friend class Clock;
    Clock* clock_;
    uint64_t ns_ = 0;
    Lane* prev_;
  };

  // Advances simulated time by `ns` and returns the new time.
  uint64_t Advance(uint64_t ns) {
    if (Lane* lane = BoundLane()) {
      lane->ns_ += ns;
      return lane->ns_;
    }
    return now_.fetch_add(ns, std::memory_order_relaxed) + ns;
  }

  uint64_t Now() const {
    if (const Lane* lane = BoundLane()) {
      return lane->ns_;
    }
    return now_.load(std::memory_order_relaxed);
  }

  // Rewinds simulated time by `ns`. Used to attribute work to a background thread:
  // the caller snapshots Now(), performs the work inline (keeping the simulation
  // deterministic), then rewinds the elapsed charge off the foreground clock.
  void Rewind(uint64_t ns) {
    if (Lane* lane = BoundLane()) {
      lane->ns_ -= std::min(lane->ns_, ns);
      return;
    }
    now_.fetch_sub(ns, std::memory_order_relaxed);
  }

  // Jumps the current timeline forward to at least `ns` (never backward). This is
  // how waiting on a contended resource is accounted in a lane; in the default
  // single-timeline mode resource stamps are always <= Now(), making this a no-op.
  void FastForwardTo(uint64_t ns) {
    if (Lane* lane = BoundLane()) {
      lane->ns_ = std::max(lane->ns_, ns);
      return;
    }
    uint64_t cur = now_.load(std::memory_order_relaxed);
    while (cur < ns &&
           !now_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }

  void Reset() {
    now_.store(0, std::memory_order_relaxed);
    reset_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  // True when the calling thread runs on a private lane of this clock.
  bool HasLane() const { return BoundLane() != nullptr; }
  // True while the calling thread is inside a ScopedOffClock bracket: its work
  // belongs to a background context of the simulated machine. Resource stamps
  // consult this so inline background work accumulates no busy time — a real
  // background thread has no lane and accumulates none, and the deterministic
  // inline twin must account identically.
  static bool OffClock() { return tls_off_clock_ > 0; }
  // Incremented by Reset(); lets ResourceStamp discard busy time from before a reset.
  uint64_t ResetSeq() const { return reset_seq_.load(std::memory_order_relaxed); }

 private:
  // Innermost lane of this thread bound to *this* clock; walks the nesting chain so
  // a thread driving two simulated machines charges each clock's own lane.
  Lane* BoundLane() const {
    for (Lane* lane = tls_lane_; lane != nullptr; lane = lane->prev_) {
      if (lane->clock_ == this) {
        return lane;
      }
    }
    return nullptr;
  }

  void FoldIn(uint64_t ns) {
    uint64_t cur = now_.load(std::memory_order_relaxed);
    while (cur < ns &&
           !now_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
    }
  }

  friend class ScopedOffClock;

  // One live binding per thread (a thread drives one simulated machine at a time;
  // nesting across clocks is supported by the saved `prev_` chain).
  static thread_local Lane* tls_lane_;
  // ScopedOffClock nesting depth of the calling thread (see OffClock()).
  static thread_local int tls_off_clock_;

  alignas(64) std::atomic<uint64_t> now_{0};
  std::atomic<uint64_t> reset_seq_{0};
};

inline thread_local Clock::Lane* Clock::tls_lane_ = nullptr;
inline thread_local int Clock::tls_off_clock_ = 0;

// Virtual-time model of a serially-reusable resource (a real mutex in the stack: the
// kernel's big lock, the staging pool's slow path, a contended file range). The
// holder of the real lock brackets its critical section with Acquire/Release; the
// stamp accumulates the resource's total *busy* (service) time, and Acquire
// fast-forwards the caller's lane to at least that total — a serial resource cannot
// render more than one second of service per second, so no acquirer's timeline may
// sit before the service time already rendered. Busy-time accounting is
// scheduling-insensitive: it gives the same answer whether the host interleaves the
// worker threads finely (true parallelism) or runs them in coarse slices (one core),
// unlike a release-timestamp model, which would chain absolute lane times and
// serialize everything on a time-sliced host.
//
// Both calls are no-ops on threads without a bound lane, so the default
// single-timeline mode — including the crash harness and every deterministic
// single-threaded test — is bit-identical with or without the stamps (this also
// sidesteps Clock::Rewind-based background attribution, which would otherwise leak
// into the busy total).
class ResourceStamp {
 public:
  // Returns the caller's timeline position at section entry; pass it to Release.
  // No-ops without a bound lane or inside a ScopedOffClock bracket: background
  // work — whether on a real background thread (no lane) or run inline with its
  // cost rewound — renders no foreground-visible service time.
  // `waited_ns`, when non-null, receives the fast-forward this acquisition consumed
  // (0 when uncontended) — the hook the contention ledger (src/obs) attributes
  // virtual-time waits through.
  uint64_t Acquire(Clock* clock, uint64_t* waited_ns = nullptr) {
    if (waited_ns != nullptr) {
      *waited_ns = 0;
    }
    if (!clock->HasLane() || Clock::OffClock()) {
      return 0;
    }
    Refresh(clock);
    uint64_t before = clock->Now();
    clock->FastForwardTo(busy_ns_.load(std::memory_order_relaxed));
    uint64_t now = clock->Now();
    if (waited_ns != nullptr && now > before) {
      *waited_ns = now - before;
    }
    return now;
  }
  void Release(Clock* clock, uint64_t t0) {
    if (!clock->HasLane() || Clock::OffClock()) {
      return;
    }
    Refresh(clock);
    uint64_t now = clock->Now();
    if (now > t0) {
      busy_ns_.fetch_add(now - t0, std::memory_order_relaxed);
    }
  }

  // Read-side entry of a reader/writer resource (per-inode locks; journal handles
  // that raced the commit seal window): a shared acquirer waits behind the service
  // time the exclusive side has rendered, but adds none of its own — concurrent
  // readers overlap, so charging their section durations into the busy total would
  // serialize them. Callers that did not actually wait (the pipelined journal's
  // uncontended handle fast path) skip even this. Returns the fast-forward consumed
  // (0 when uncontended), for contention-ledger attribution.
  uint64_t AcquireShared(Clock* clock) {
    if (!clock->HasLane() || Clock::OffClock()) {
      return 0;
    }
    Refresh(clock);
    uint64_t before = clock->Now();
    clock->FastForwardTo(busy_ns_.load(std::memory_order_relaxed));
    uint64_t now = clock->Now();
    return now > before ? now - before : 0;
  }

  // Credits `ns` of service rendered on behalf of this resource by another timeline:
  // the shared journal splits one coalesced writeout's measured duration across the
  // tenants whose commit requests it satisfied, crediting each tenant's stamp its
  // share. Unlike Acquire/Release this is lane-independent — the rendering
  // thread brackets its own section; here we only record the pre-split duration.
  void AddBusy(Clock* clock, uint64_t ns) {
    Refresh(clock);
    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  // Folds `other`'s accumulated service time into this stamp. Range-granular locks
  // (vfs::RangeLock) keep one stamp per contended byte range and merge stamps whose
  // ranges come to overlap; overlapping exclusive sections were serialized by the
  // real lock, so their service times add.
  void MergeFrom(ResourceStamp* other, Clock* clock) {
    Refresh(clock);
    other->Refresh(clock);
    busy_ns_.fetch_add(other->busy_ns_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }

  // Accumulated service time (metrics gauge: e.g. the journal's total commit
  // service / stall basis). Observation only.
  uint64_t busy_ns() const { return busy_ns_.load(std::memory_order_acquire); }

 private:
  // Busy time from before a Clock::Reset() must not leak into the next measured
  // phase (benches reset the clock after testbed setup).
  void Refresh(Clock* clock) {
    uint64_t seq = clock->ResetSeq();
    uint64_t cur = seen_reset_seq_.load(std::memory_order_relaxed);
    if (cur != seq &&
        seen_reset_seq_.compare_exchange_strong(cur, seq, std::memory_order_relaxed)) {
      busy_ns_.store(0, std::memory_order_relaxed);
    }
  }

  std::atomic<uint64_t> busy_ns_{0};
  std::atomic<uint64_t> seen_reset_seq_{0};
};

// Brackets work that really happens on the calling thread but belongs to a
// background context of the simulated machine: staging-file creation and retirement
// (staging.cc) and the async relink publish (split_fs.cc). The elapsed virtual
// charge is rewound on destruction, so foreground timelines are identical whether
// the background work runs inline (deterministic store sequence, what the crash
// harness needs) or on a real thread (whose charges land on the shared timeline that
// lane-based measurements ignore).
class ScopedOffClock {
 public:
  explicit ScopedOffClock(Clock* clock) : clock_(clock), t0_(clock->Now()) {
    ++Clock::tls_off_clock_;
  }
  ~ScopedOffClock() {
    --Clock::tls_off_clock_;
    uint64_t now = clock_->Now();
    if (now > t0_) {
      clock_->Rewind(now - t0_);
    }
  }
  ScopedOffClock(const ScopedOffClock&) = delete;
  ScopedOffClock& operator=(const ScopedOffClock&) = delete;

 private:
  Clock* clock_;
  uint64_t t0_;
};

// RAII bracket for a critical section already protected by a real lock.
class ScopedResourceTime {
 public:
  ScopedResourceTime(ResourceStamp* stamp, Clock* clock) : stamp_(stamp), clock_(clock) {
    t0_ = stamp_->Acquire(clock_, &waited_ns_);
  }
  ~ScopedResourceTime() { stamp_->Release(clock_, t0_); }
  ScopedResourceTime(const ScopedResourceTime&) = delete;
  ScopedResourceTime& operator=(const ScopedResourceTime&) = delete;

  // Fast-forward the acquisition consumed (0 when uncontended); callers feed this to
  // the contention ledger with their site's resource name.
  uint64_t waited_ns() const { return waited_ns_; }

 private:
  ResourceStamp* stamp_;
  Clock* clock_;
  uint64_t t0_ = 0;
  uint64_t waited_ns_ = 0;
};

}  // namespace sim

#endif  // SRC_SIM_CLOCK_H_
