// PersistChecker: a pmem::Device observer (PMTest / XFDetector style) that
// shadows every store's flush/fence lifecycle at cacheline granularity and
// enforces the durability contracts the code declares through the annotation
// API below. Three rules:
//
//  (a) "Acked but volatile": a byte range a durability point depends on (staged
//      data at fsync return, an op-log entry after its fence) must have been
//      flushed AND fenced by the time the point is reached. Checked by
//      RequireDurable / DurabilityPoint against the shadow line states.
//
//  (b) Publish-before-persist: a commit/done record must not become persistent
//      before the payload it covers. Declared with CoverPayload + SealCover;
//      resolved at the fence that makes the record durable. `strict` requires
//      the payload to have persisted at an EARLIER fence (jbd2's commit record);
//      non-strict allows payload and record to share one fence (the op log's
//      single-fence-per-operation design, §3.3).
//
//  (c) Performance lint: redundant flushes (a CLWB covering no line that needed
//      flushing) and empty fences (an SFENCE with nothing armed to persist),
//      counted per annotated call site (ScopedLintSite) and exported through
//      the obs metrics registry as analysis.redundant_flush.* /
//      analysis.empty_fence.* gauges.
//
// The checker performs no clock access whatsoever: enabling it does not move a
// single virtual-time charge, so checked runs keep bit-identical timelines.
// Installed automatically on every Device when SPLITFS_ANALYSIS=1 is set in the
// environment (kHalt: print + abort on the first violation), or constructed
// directly in kCollect mode by tests.
#ifndef SRC_ANALYSIS_PERSIST_CHECKER_H_
#define SRC_ANALYSIS_PERSIST_CHECKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/pmem/device.h"

namespace obs {
class MetricsRegistry;
}

namespace analysis {

class PersistChecker : public pmem::DeviceObserver {
 public:
  enum class Mode {
    kCollect,  // Accumulate violations; tests inspect them.
    kHalt,     // Print the report and abort() on the first violation.
  };

  // `metrics`, when set, receives the per-site lint gauges (deregistered by the
  // "analysis." prefix in the destructor).
  explicit PersistChecker(Mode mode, obs::MetricsRegistry* metrics = nullptr);
  ~PersistChecker() override;

  // --- pmem::DeviceObserver ----------------------------------------------------------
  void OnStore(uint64_t off, uint64_t n, bool persists_at_fence) override;
  void OnClwb(uint64_t off, uint64_t n) override;
  void OnFence(uint64_t epoch) override;
  // Power loss: every pending line is decided by the crash harness; the shadow
  // state, open covers, and dependency sets reset with the DRAM they model.
  void OnCrash() override;

  // --- Annotation API ----------------------------------------------------------------
  // Rule (a). `key` scopes a dependency set (U-Split uses the file ino): writes
  // record the device ranges whose durability the file's next fsync/close will
  // acknowledge; the durability point checks and clears them. Ranges are dropped
  // when their staged bytes leave the contract some other way (published,
  // truncated, unlinked).
  void AddDep(uint64_t key, uint64_t off, uint64_t n);
  void DropDeps(uint64_t key, uint64_t off, uint64_t n);
  void DropAllDeps(uint64_t key);
  void DurabilityPoint(uint64_t key, const char* site);
  // Immediate form: [off, off+n) must be durable right now.
  void RequireDurable(uint64_t off, uint64_t n, const char* site);

  // Rule (b). CoverPayload accumulates payload ranges in a per-thread open
  // cover; SealCover closes it against the record at [rec_off, rec_off+rec_len)
  // and arms the check, resolved at the fence that persists the record.
  void CoverPayload(uint64_t off, uint64_t n);
  void SealCover(uint64_t rec_off, uint64_t rec_len, bool strict, const char* site);
  // Drops the calling thread's open (unsealed) cover, if any.
  void AbandonCover();

  // --- Results -----------------------------------------------------------------------
  struct Violation {
    std::string rule;    // "acked_but_volatile" or "publish_before_persist".
    std::string site;
    std::string detail;
  };
  std::vector<Violation> violations() const;
  size_t violation_count() const;
  uint64_t redundant_flushes() const;
  uint64_t empty_fences() const;
  // Per-site lint counts ("<site>" -> count).
  std::map<std::string, uint64_t> redundant_flushes_by_site() const;
  std::map<std::string, uint64_t> empty_fences_by_site() const;

 private:
  struct LineInfo {
    bool pending = false;       // Stored, not yet persistent.
    bool flushed = false;       // Will persist at the next fence.
    uint64_t persist_epoch = 0; // Fence ordinal that made it durable (0 = never
                                // stored, durable since forever).
  };
  struct Range {
    uint64_t off;
    uint64_t len;
  };
  struct Cover {
    std::vector<Range> payload;
    Range record{0, 0};
    bool strict = false;
    std::string site;
  };

  // Caller holds mu_.
  void ForEachLineLocked(uint64_t off, uint64_t n,
                         const std::function<void(uint64_t)>& fn) const;
  bool RangeDurableLocked(const Range& r, uint64_t* first_volatile) const;
  void ReportLocked(const char* rule, const std::string& site,
                    const std::string& detail);
  void ResolveCoversLocked(uint64_t fence_ordinal);
  const char* LintSiteOrDefault() const;

  Mode mode_;
  obs::MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, LineInfo> lines_;
  std::unordered_set<uint64_t> armed_;  // pending && flushed: persist next fence.
  uint64_t fence_ordinal_ = 0;          // Fences observed (1-based after first).

  std::map<uint64_t, std::vector<Range>> deps_;           // key -> dep ranges.
  std::map<std::thread::id, Cover> open_covers_;          // Unsealed, per thread.
  std::vector<Cover> sealed_covers_;                      // Awaiting record fence.

  std::vector<Violation> violations_;
  uint64_t redundant_flushes_ = 0;
  uint64_t empty_fences_ = 0;
  std::map<std::string, uint64_t> redundant_by_site_;
  std::map<std::string, uint64_t> empty_by_site_;
  // Sites that already have registered gauges (lazily, on first count).
  std::unordered_set<std::string> gauged_sites_;
};

// RAII lint-site label: while alive, redundant flushes / empty fences observed
// on this thread are attributed to `site` instead of "unannotated". Nested
// scopes restore the outer site. Static (thread-local) — works across every
// checker instance the thread's stores reach.
class ScopedLintSite {
 public:
  explicit ScopedLintSite(const char* site);
  ~ScopedLintSite();
  ScopedLintSite(const ScopedLintSite&) = delete;
  ScopedLintSite& operator=(const ScopedLintSite&) = delete;

 private:
  const char* prev_;
};

}  // namespace analysis

#endif  // SRC_ANALYSIS_PERSIST_CHECKER_H_
