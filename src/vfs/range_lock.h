// Reader/writer byte-range lock for one file (SplitFS concurrency model).
//
// The paper targets multi-threaded POSIX applications; U-Split therefore lets
// disjoint-offset reads and writes of one file proceed in parallel while operations
// that restructure the file — relink publication, truncate, unlink teardown — take the
// whole file exclusively. This lock provides exactly that vocabulary:
//
//   * LockShared(off, len)     — a read of [off, off+len): excludes overlapping
//                                writers, admits any other readers;
//   * LockExclusive(off, len)  — a write of [off, off+len): excludes any overlap;
//   * kWholeFile               — len for publish/truncate/teardown: excludes everything.
//
// Waiting writers gate new readers (writer preference), so a relink cannot be starved
// by a stream of preads.
//
// Virtual time is range-granular: the lock keeps one sim::ResourceStamp per contended
// byte range, created when an exclusive holder releases while someone overlapping
// waits, merged when a later contended release spans several stamps (their exclusive
// sections were serialized by the lock, so service times add), and retired once no
// holder or waiter overlaps the range — every queued acquirer has consumed its
// service debt by then, and the range's serial resource is idle. An acquisition that
// had to wait fast-forwards the caller's sim::Clock lane past the busy time of the
// stamps its own range overlaps, and only those: disjoint-offset writers that never
// really contend no longer fast-forward each other's virtual timelines the way the
// previous single per-file stamp did. Uncontended acquisitions charge nothing, so
// deterministic single-threaded timelines are unchanged.
//
// The implementation is a held-range list under one small mutex + condvar. The list is
// short in practice (the number of in-flight operations on one file), and the lock is
// per-file, so this does not become a global hot spot.
#ifndef SRC_VFS_RANGE_LOCK_H_
#define SRC_VFS_RANGE_LOCK_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <vector>

#include "src/analysis/lock_witness.h"
#include "src/obs/obs.h"
#include "src/sim/clock.h"

namespace vfs {

class RangeLock {
 public:
  static constexpr uint64_t kWholeFile = UINT64_MAX;

  // `clock` may be null (no virtual-time accounting, e.g. unit tests). `ledger`, when
  // set, receives every virtual-time wait this lock induces, attributed under
  // `resource` (a string literal; per-file locks share one name — the per-file detail
  // lives in the trace's wait spans).
  explicit RangeLock(sim::Clock* clock = nullptr, obs::Observability* obs = nullptr,
                     const char* resource = "vfs.range_lock")
      : clock_(clock), obs_(obs), resource_(resource) {}
  RangeLock(const RangeLock&) = delete;
  RangeLock& operator=(const RangeLock&) = delete;

  // Lock-order witness key for same-site nested acquisitions: K-Split's
  // per-inode range locks set their ino (the documented ascending-ino
  // discipline becomes a checked invariant); 0 (the default) opts out of the
  // same-site ordering check. The witness site id itself is the `resource`
  // name, so every RangeLock acquisition is graph-visible when analysis mode
  // is on (one null branch otherwise).
  void SetWitnessOrderKey(uint64_t key) { witness_key_ = key; }

  void LockShared(uint64_t off, uint64_t len) { Lock(off, len, /*exclusive=*/false); }
  void LockExclusive(uint64_t off, uint64_t len) { Lock(off, len, /*exclusive=*/true); }

  // Non-blocking whole-file exclusive acquisition (checkpoint sweep: never block on a
  // file whose owner may itself be waiting for the checkpoint to finish).
  bool TryLockExclusive(uint64_t off, uint64_t len) {
    std::unique_lock<std::mutex> ul(mu_);
    if (ConflictsLocked(off, EndOf(off, len), /*exclusive=*/true) || waiting_exclusive_ > 0) {
      return false;
    }
    held_.push_back({off, EndOf(off, len), true, clock_ != nullptr ? clock_->Now() : 0});
    WitnessAcquireLocked(analysis::LockWitness::Kind::kTry);
    return true;
  }

  void Unlock(uint64_t off, uint64_t len, bool exclusive) {
    bool contended;
    {
      std::lock_guard<std::mutex> lg(mu_);
      uint64_t end = EndOf(off, len);
      uint64_t t0 = 0;
      for (auto it = held_.begin(); it != held_.end(); ++it) {
        if (it->off == off && it->end == end && it->exclusive == exclusive) {
          t0 = it->t0;
          held_.erase(it);
          break;
        }
      }
      contended = !waiters_.empty();
      if (analysis::LockWitness* w = analysis::LockWitness::Global();
          w != nullptr && site_ >= 0) {
        w->Release(site_, witness_key_);
      }
      if (clock_ != nullptr && exclusive && AnyWaiterOverlaps(off, end)) {
        // Somebody overlapping is blocked on this range right now: account our
        // section's duration into the range's busy time, so the waiters' virtual
        // timelines cannot end up ahead of the serialized work they really waited
        // for. Waiters on disjoint ranges are not charged — they never waited for
        // these bytes.
        MergedStampFor(off, end).stamp.Release(clock_, t0);
      }
      if (clock_ != nullptr) {
        RetireQuiescentStamps();
      }
    }
    if (contended) {
      cv_.notify_all();
    }
  }

  void UnlockShared(uint64_t off, uint64_t len) { Unlock(off, len, false); }
  void UnlockExclusive(uint64_t off, uint64_t len) { Unlock(off, len, true); }

 private:
  struct Held {
    uint64_t off;
    uint64_t end;  // Exclusive; kWholeFile-safe (saturated).
    bool exclusive;
    uint64_t t0;  // Holder's virtual time at acquisition (busy accounting).
  };
  struct Waiter {
    uint64_t off;
    uint64_t end;
  };
  // One virtual-time stamp per contended byte range; ranges merge on overlap and
  // retire at quiescence (no overlapping holder or waiter).
  struct RangeStamp {
    uint64_t off = 0;
    uint64_t end = 0;
    sim::ResourceStamp stamp;
  };

  static uint64_t EndOf(uint64_t off, uint64_t len) {
    uint64_t end = off + len;
    return end < off ? UINT64_MAX : end;  // Saturate (kWholeFile, huge ranges).
  }
  static bool Overlaps(uint64_t a_off, uint64_t a_end, uint64_t b_off, uint64_t b_end) {
    return a_off < b_end && b_off < a_end;
  }

  bool ConflictsLocked(uint64_t off, uint64_t end, bool exclusive) const {
    for (const Held& h : held_) {
      if (Overlaps(h.off, h.end, off, end) && (exclusive || h.exclusive)) {
        return true;
      }
    }
    return false;
  }

  bool AnyWaiterOverlaps(uint64_t off, uint64_t end) const {
    for (const Waiter* w : waiters_) {
      if (Overlaps(w->off, w->end, off, end)) {
        return true;
      }
    }
    return false;
  }

  // Finds the stamp for [off, end), merging every stamp the range overlaps into one
  // whose range is the union (the real lock serialized their exclusive sections, so
  // busy times add); creates a fresh stamp when none overlaps.
  RangeStamp& MergedStampFor(uint64_t off, uint64_t end) {
    auto target = stamps_.end();
    for (auto it = stamps_.begin(); it != stamps_.end();) {
      if (Overlaps(it->off, it->end, off, end)) {
        if (target == stamps_.end()) {
          it->off = std::min(it->off, off);
          it->end = std::max(it->end, end);
          target = it++;
        } else {
          target->off = std::min(target->off, it->off);
          target->end = std::max(target->end, it->end);
          target->stamp.MergeFrom(&it->stamp, clock_);
          it = stamps_.erase(it);
        }
      } else {
        ++it;
      }
    }
    if (target == stamps_.end()) {
      stamps_.emplace_back();
      target = std::prev(stamps_.end());
      target->off = off;
      target->end = end;
    }
    return *target;
  }

  // Drops stamps with no overlapping holder and no overlapping waiter: everyone who
  // queued behind the range has acquired (and consumed the busy total) and released,
  // so the serial resource is idle and the next contention episode starts clean.
  void RetireQuiescentStamps() {
    stamps_.remove_if([this](const RangeStamp& rs) {
      for (const Held& h : held_) {
        if (Overlaps(h.off, h.end, rs.off, rs.end)) {
          return false;
        }
      }
      for (const Waiter* w : waiters_) {
        if (Overlaps(w->off, w->end, rs.off, rs.end)) {
          return false;
        }
      }
      return true;
    });
  }

  void Lock(uint64_t off, uint64_t len, bool exclusive) {
    uint64_t end = EndOf(off, len);
    std::unique_lock<std::mutex> ul(mu_);
    bool waited = false;
    Waiter self{off, end};
    if (exclusive) {
      ++waiting_exclusive_;
      if (ConflictsLocked(off, end, true)) {
        waiters_.push_back(&self);
        do {
          waited = true;
          cv_.wait(ul);
        } while (ConflictsLocked(off, end, true));
        waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &self));
      }
      --waiting_exclusive_;
    } else {
      // Writer preference: a reader also yields to writers already queued, so
      // publish/truncate cannot starve under a read storm.
      if (ConflictsLocked(off, end, false) || waiting_exclusive_ > 0) {
        waiters_.push_back(&self);
        do {
          waited = true;
          cv_.wait(ul);
        } while (ConflictsLocked(off, end, false) || waiting_exclusive_ > 0);
        waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &self));
      }
    }
    uint64_t t0 = 0;
    if (clock_ != nullptr) {
      if (waited) {
        // A waiter resumes no earlier than the accumulated busy time of the ranges
        // it actually waited behind (stamps overlapping its own range).
        uint64_t waited_ns = 0;
        for (RangeStamp& rs : stamps_) {
          if (Overlaps(rs.off, rs.end, off, end)) {
            waited_ns += rs.stamp.AcquireShared(clock_);
          }
        }
        if (obs_ != nullptr) {
          obs::ReportWait(obs_, clock_, resource_, waited_ns);
        }
      }
      t0 = clock_->Now();
    }
    held_.push_back({off, end, exclusive, t0});
    WitnessAcquireLocked(analysis::LockWitness::Kind::kBlocking);
  }

  // Caller holds mu_ (site_ initialization is serialized by it).
  void WitnessAcquireLocked(analysis::LockWitness::Kind kind) {
    analysis::LockWitness* w = analysis::LockWitness::Global();
    if (w == nullptr) {
      return;
    }
    if (site_ < 0) {
      site_ = analysis::LockWitness::RegisterSite(resource_);
    }
    w->Acquire(site_, witness_key_, kind);
  }

  sim::Clock* clock_;
  obs::Observability* obs_;
  const char* resource_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Held> held_;
  std::vector<Waiter*> waiters_;   // Registered while blocked (stack nodes).
  std::list<RangeStamp> stamps_;   // ResourceStamp is unmovable: node storage.
  int waiting_exclusive_ = 0;
  uint64_t witness_key_ = 0;       // Same-site order key (K-Split: ino).
  int site_ = -1;                  // Lazily interned witness site id.
};

// RAII guards. Length kWholeFile locks the entire file.
class RangeReadGuard {
 public:
  RangeReadGuard(RangeLock* lock, uint64_t off, uint64_t len)
      : lock_(lock), off_(off), len_(len) {
    lock_->LockShared(off_, len_);
  }
  ~RangeReadGuard() { lock_->UnlockShared(off_, len_); }
  RangeReadGuard(const RangeReadGuard&) = delete;
  RangeReadGuard& operator=(const RangeReadGuard&) = delete;

 private:
  RangeLock* lock_;
  uint64_t off_, len_;
};

class RangeWriteGuard {
 public:
  RangeWriteGuard(RangeLock* lock, uint64_t off, uint64_t len)
      : lock_(lock), off_(off), len_(len) {
    lock_->LockExclusive(off_, len_);
  }
  ~RangeWriteGuard() {
    if (lock_ != nullptr) {
      lock_->UnlockExclusive(off_, len_);
    }
  }
  RangeWriteGuard(const RangeWriteGuard&) = delete;
  RangeWriteGuard& operator=(const RangeWriteGuard&) = delete;

 private:
  RangeLock* lock_;
  uint64_t off_, len_;
};

}  // namespace vfs

#endif  // SRC_VFS_RANGE_LOCK_H_
