// LockWitness: a witness-style runtime lock-order checker (FreeBSD WITNESS,
// lockdep). Every annotated acquisition site registers the edges "site already
// held -> site being acquired" in a process-global order graph keyed by static
// site id; a cycle in the accumulated graph is a lock-order violation and is
// reported the moment the closing edge is inserted — even if no schedule ever
// produced the actual deadlock. This turns the lock-hierarchy comments in
// split_fs.h / ext4_dax.h / journal.h into a checked invariant.
//
// Semantics:
//   * Blocking acquisitions add an edge from every lock currently held by the
//     thread (however that lock was acquired) to the new lock: holding A while
//     blocking on B is the half of a deadlock the graph records.
//   * Try-acquisitions (and ResourceStamp brackets, which never block) add NO
//     edges — a try-lock cannot deadlock — but stay on the held stack so later
//     blocking acquisitions still record edges out of them. This is what keeps
//     the strict checkpoint's try-lock sweep (checkpoint_mu_ held, file range
//     locks tried) from reporting the false cycle range_lock -> checkpoint ->
//     range_lock.
//   * Same-site nested blocking acquisitions (two inode locks at one call site)
//     are checked for strictly ascending order keys when both carry a nonzero
//     key — the ascending-ino / ascending-shard disciplines become violations
//     when inverted. Key 0 opts a site out of the same-site check.
//
// The witness never touches the virtual clock: enabling it cannot move a single
// timeline charge. Disabled (the default), every annotation is one null-pointer
// branch.
//
// Enable process-wide with SPLITFS_ANALYSIS=1 (violations print and abort, like
// TSAN_OPTIONS=halt_on_error=1) or construct a private kCollect instance in a
// test and inspect violations().
#ifndef SRC_ANALYSIS_LOCK_WITNESS_H_
#define SRC_ANALYSIS_LOCK_WITNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace analysis {

class LockWitness {
 public:
  enum class Mode {
    kCollect,  // Accumulate violations; tests inspect them.
    kHalt,     // Print the report and abort() on the first violation.
  };

  explicit LockWitness(Mode mode = Mode::kCollect) : mode_(mode) {}

  // Process-global witness, or nullptr when analysis mode is off. Enabled by
  // SPLITFS_ANALYSIS=1 in the environment (kHalt) or SetGlobalForTest. Lock-free:
  // every annotated lock acquisition and release calls it.
  static LockWitness* Global();
  // Test hook: installs `w` as the global witness (nullptr restores env gating).
  static void SetGlobalForTest(LockWitness* w);

  // Interns an acquisition-site name -> dense site id. Thread-safe; idempotent.
  // The registry is process-wide (shared by every witness instance) so static
  // site ids taken at annotation sites stay valid across test-local witnesses.
  static int RegisterSite(const std::string& name);
  static std::string SiteName(int site);

  enum class Kind {
    kBlocking,  // mutex lock / shared_mutex lock / RangeLock::Lock.
    kTry,       // try_lock that succeeded, or a non-blocking ResourceStamp.
  };

  // Records an acquisition at `site` by the calling thread. `order_key` orders
  // same-site nested acquisitions (ino, shard index); 0 = unordered.
  void Acquire(int site, uint64_t order_key, Kind kind);
  // Pops the newest matching (site, order_key) entry off the thread's stack.
  void Release(int site, uint64_t order_key);

  struct Violation {
    std::string kind;    // "cycle" or "order".
    std::string detail;  // Human-readable path / key pair.
  };
  std::vector<Violation> violations() const;
  size_t violation_count() const;
  // Distinct edges accumulated so far (coverage introspection).
  size_t edge_count() const;
  // One line per edge, "from -> to", sorted (teardown report / debugging).
  std::vector<std::string> EdgeList() const;

 private:
  struct Held {
    int site;
    uint64_t order_key;
    Kind kind;
  };

  // Caller holds mu_. Adds the edge and runs cycle detection when it is new.
  void AddEdgeLocked(int from, int to);
  // Caller holds mu_. DFS: is `target` reachable from `from`?
  bool PathExistsLocked(int from, int target, std::vector<int>* path) const;
  void ReportLocked(const std::string& kind, const std::string& detail);

  Mode mode_;
  mutable std::mutex mu_;
  std::map<int, std::set<int>> edges_;
  std::map<std::thread::id, std::vector<Held>> stacks_;
  std::vector<Violation> violations_;
};

// RAII acquisition note. Place immediately after taking the lock, in the same
// scope; the destructor records the release. Inert when `w` is nullptr, so
//   analysis::ScopedLockNote note(analysis::LockWitness::Global(), kSite, ino);
// costs one branch in a default build.
class ScopedLockNote {
 public:
  ScopedLockNote(LockWitness* w, int site, uint64_t order_key = 0,
                 LockWitness::Kind kind = LockWitness::Kind::kBlocking)
      : w_(w), site_(site), key_(order_key) {
    if (w_ != nullptr) {
      w_->Acquire(site_, key_, kind);
    }
  }
  ~ScopedLockNote() {
    if (w_ != nullptr) {
      w_->Release(site_, key_);
    }
  }
  ScopedLockNote(const ScopedLockNote&) = delete;
  ScopedLockNote& operator=(const ScopedLockNote&) = delete;

 private:
  LockWitness* w_;
  int site_;
  uint64_t key_;
};

// Interns `name` once per call site:
//   static const int kSite = analysis::LockSite("usplit.checkpoint");
// Safe to call before main; registration goes to the global registry shared by
// every witness instance (site ids are process-wide).
int LockSite(const std::string& name);

}  // namespace analysis

#endif  // SRC_ANALYSIS_LOCK_WITNESS_H_
