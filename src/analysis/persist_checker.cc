#include "src/analysis/persist_checker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/bytes.h"
#include "src/obs/metrics.h"

namespace analysis {

using common::kCacheLineSize;

namespace {
thread_local const char* t_lint_site = nullptr;
}  // namespace

ScopedLintSite::ScopedLintSite(const char* site) : prev_(t_lint_site) {
  t_lint_site = site;
}
ScopedLintSite::~ScopedLintSite() { t_lint_site = prev_; }

const char* PersistChecker::LintSiteOrDefault() const {
  return t_lint_site != nullptr ? t_lint_site : "unannotated";
}

PersistChecker::PersistChecker(Mode mode, obs::MetricsRegistry* metrics)
    : mode_(mode), metrics_(metrics) {
  if (metrics_ != nullptr) {
    metrics_->RegisterGauge("analysis.redundant_flush_total",
                            [this] { return redundant_flushes(); });
    metrics_->RegisterGauge("analysis.empty_fence_total",
                            [this] { return empty_fences(); });
    metrics_->RegisterGauge("analysis.persist_violations",
                            [this] { return static_cast<uint64_t>(violation_count()); });
  }
}

PersistChecker::~PersistChecker() {
  if (metrics_ != nullptr) {
    metrics_->DeregisterGauges("analysis.");
  }
}

void PersistChecker::ForEachLineLocked(
    uint64_t off, uint64_t n, const std::function<void(uint64_t)>& fn) const {
  if (n == 0) {
    return;
  }
  uint64_t first = off / kCacheLineSize;
  uint64_t last = (off + n - 1) / kCacheLineSize;
  for (uint64_t line = first; line <= last; ++line) {
    fn(line);
  }
}

void PersistChecker::OnStore(uint64_t off, uint64_t n, bool persists_at_fence) {
  std::lock_guard<std::mutex> lock(mu_);
  ForEachLineLocked(off, n, [&](uint64_t line) {
    LineInfo& info = lines_[line];
    info.pending = true;
    // Mirrors Device::TrackStore: a temporal store to an already-flushed pending
    // line re-dirties it (the flush covered the old contents, not these bytes).
    info.flushed = persists_at_fence;
    if (persists_at_fence) {
      armed_.insert(line);
    } else {
      armed_.erase(line);
    }
  });
}

void PersistChecker::OnClwb(uint64_t off, uint64_t n) {
  bool register_gauge = false;
  std::string site;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool any_effect = false;
    ForEachLineLocked(off, n, [&](uint64_t line) {
      auto it = lines_.find(line);
      if (it != lines_.end() && it->second.pending && !it->second.flushed) {
        it->second.flushed = true;
        armed_.insert(line);
        any_effect = true;
      }
    });
    if (any_effect) {
      return;
    }
    site = LintSiteOrDefault();
    ++redundant_flushes_;
    ++redundant_by_site_[site];
    register_gauge =
        metrics_ != nullptr && gauged_sites_.insert("rf:" + site).second;
  }
  // Registered outside mu_: Snapshot evaluates gauges under the registry's own
  // mutex, so the only permitted lock order is registry -> checker.
  if (register_gauge) {
    metrics_->RegisterGauge("analysis.redundant_flush." + site, [this, site] {
      std::lock_guard<std::mutex> l(mu_);
      auto it = redundant_by_site_.find(site);
      return it == redundant_by_site_.end() ? uint64_t{0} : it->second;
    });
  }
}

void PersistChecker::OnFence(uint64_t epoch) {
  (void)epoch;  // The shadow keeps its own ordinal; the device epoch is shared
                // with crash injection and may skip notifications on unwind.
  bool register_gauge = false;
  std::string site;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++fence_ordinal_;
    if (armed_.empty()) {
      site = LintSiteOrDefault();
      ++empty_fences_;
      ++empty_by_site_[site];
      register_gauge =
          metrics_ != nullptr && gauged_sites_.insert("ef:" + site).second;
    } else {
      for (uint64_t line : armed_) {
        LineInfo& info = lines_[line];
        info.pending = false;
        info.flushed = false;
        info.persist_epoch = fence_ordinal_;
      }
      armed_.clear();
    }
    ResolveCoversLocked(fence_ordinal_);
  }
  if (register_gauge) {
    metrics_->RegisterGauge("analysis.empty_fence." + site, [this, site] {
      std::lock_guard<std::mutex> l(mu_);
      auto it = empty_by_site_.find(site);
      return it == empty_by_site_.end() ? uint64_t{0} : it->second;
    });
  }
}

void PersistChecker::OnCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  lines_.clear();
  armed_.clear();
  deps_.clear();
  open_covers_.clear();
  sealed_covers_.clear();
}

bool PersistChecker::RangeDurableLocked(const Range& r,
                                        uint64_t* first_volatile) const {
  bool ok = true;
  ForEachLineLocked(r.off, r.len, [&](uint64_t line) {
    if (!ok) {
      return;
    }
    auto it = lines_.find(line);
    if (it != lines_.end() && it->second.pending) {
      ok = false;
      if (first_volatile != nullptr) {
        *first_volatile = line;
      }
    }
  });
  return ok;
}

void PersistChecker::AddDep(uint64_t key, uint64_t off, uint64_t n) {
  if (n == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  deps_[key].push_back({off, n});
}

void PersistChecker::DropDeps(uint64_t key, uint64_t off, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = deps_.find(key);
  if (it == deps_.end()) {
    return;
  }
  auto& ranges = it->second;
  ranges.erase(std::remove_if(ranges.begin(), ranges.end(),
                              [&](const Range& r) {
                                return r.off < off + n && off < r.off + r.len;
                              }),
               ranges.end());
  if (ranges.empty()) {
    deps_.erase(it);
  }
}

void PersistChecker::DropAllDeps(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  deps_.erase(key);
}

void PersistChecker::DurabilityPoint(uint64_t key, const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = deps_.find(key);
  if (it == deps_.end()) {
    return;
  }
  for (const Range& r : it->second) {
    uint64_t line = 0;
    if (!RangeDurableLocked(r, &line)) {
      ReportLocked("acked_but_volatile", site,
                   "durability point reached with depended-on line " +
                       std::to_string(line) + " (dev range [" +
                       std::to_string(r.off) + ", " +
                       std::to_string(r.off + r.len) +
                       ")) not flushed+fenced — acked but volatile");
    }
  }
  deps_.erase(it);
}

void PersistChecker::RequireDurable(uint64_t off, uint64_t n, const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t line = 0;
  if (!RangeDurableLocked({off, n}, &line)) {
    ReportLocked("acked_but_volatile", site,
                 "required-durable range [" + std::to_string(off) + ", " +
                     std::to_string(off + n) + ") has unpersisted line " +
                     std::to_string(line));
  }
}

void PersistChecker::CoverPayload(uint64_t off, uint64_t n) {
  if (n == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  open_covers_[std::this_thread::get_id()].payload.push_back({off, n});
}

void PersistChecker::SealCover(uint64_t rec_off, uint64_t rec_len, bool strict,
                               const char* site) {
  std::lock_guard<std::mutex> lock(mu_);
  Cover cover;
  auto it = open_covers_.find(std::this_thread::get_id());
  if (it != open_covers_.end()) {
    cover = std::move(it->second);
    open_covers_.erase(it);
  }
  cover.record = {rec_off, rec_len};
  cover.strict = strict;
  cover.site = site;
  sealed_covers_.push_back(std::move(cover));
}

void PersistChecker::AbandonCover() {
  std::lock_guard<std::mutex> lock(mu_);
  open_covers_.erase(std::this_thread::get_id());
}

void PersistChecker::ResolveCoversLocked(uint64_t fence_ordinal) {
  for (auto it = sealed_covers_.begin(); it != sealed_covers_.end();) {
    // A cover resolves at the fence that makes its record fully persistent.
    if (!RangeDurableLocked(it->record, nullptr)) {
      ++it;
      continue;
    }
    uint64_t record_epoch = 0;
    ForEachLineLocked(it->record.off, it->record.len, [&](uint64_t line) {
      auto li = lines_.find(line);
      if (li != lines_.end()) {
        record_epoch = std::max(record_epoch, li->second.persist_epoch);
      }
    });
    for (const Range& p : it->payload) {
      bool bad = false;
      uint64_t bad_line = 0;
      ForEachLineLocked(p.off, p.len, [&](uint64_t line) {
        if (bad) {
          return;
        }
        auto li = lines_.find(line);
        if (li == lines_.end()) {
          return;  // Never stored: durable since forever.
        }
        if (li->second.pending) {
          bad = true;  // Record durable, payload still volatile.
          bad_line = line;
        } else if (it->strict && li->second.persist_epoch >= record_epoch) {
          bad = true;  // Payload persisted at (or after) the record's fence.
          bad_line = line;
        }
      });
      if (bad) {
        ReportLocked(
            "publish_before_persist", it->site,
            std::string("record at [") + std::to_string(it->record.off) + ", " +
                std::to_string(it->record.off + it->record.len) +
                ") persisted at fence " + std::to_string(record_epoch) +
                (it->strict ? " without its payload strictly before it"
                            : " while its payload is still volatile") +
                " (payload line " + std::to_string(bad_line) + ", fence " +
                std::to_string(fence_ordinal) + ")");
      }
    }
    it = sealed_covers_.erase(it);
  }
}

void PersistChecker::ReportLocked(const char* rule, const std::string& site,
                                  const std::string& detail) {
  violations_.push_back({rule, site, detail});
  if (mode_ == Mode::kHalt) {
    std::fprintf(stderr, "\n[analysis] PersistChecker %s violation at %s:\n  %s\n",
                 rule, site.c_str(), detail.c_str());
    std::abort();
  }
}

std::vector<PersistChecker::Violation> PersistChecker::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

size_t PersistChecker::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.size();
}

uint64_t PersistChecker::redundant_flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return redundant_flushes_;
}

uint64_t PersistChecker::empty_fences() const {
  std::lock_guard<std::mutex> lock(mu_);
  return empty_fences_;
}

std::map<std::string, uint64_t> PersistChecker::redundant_flushes_by_site() const {
  std::lock_guard<std::mutex> lock(mu_);
  return redundant_by_site_;
}

std::map<std::string, uint64_t> PersistChecker::empty_fences_by_site() const {
  std::lock_guard<std::mutex> lock(mu_);
  return empty_by_site_;
}

}  // namespace analysis
