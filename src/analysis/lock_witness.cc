#include "src/analysis/lock_witness.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace analysis {

namespace {

// Process-wide site registry: annotation sites intern their names once into
// static ids, independent of which witness instance (global or test-local) is
// active when the annotation runs.
struct SiteRegistry {
  std::mutex mu;
  std::map<std::string, int> ids;
  std::vector<std::string> names;
};

SiteRegistry& Registry() {
  static SiteRegistry* r = new SiteRegistry();  // Leaked: outlives static dtors.
  return *r;
}

bool EnvAnalysisOn() {
  const char* v = std::getenv("SPLITFS_ANALYSIS");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

// Test override of the global witness; nullptr = none (env gating applies). Read on
// every annotated lock acquisition and release, so it is an atomic, not a mutex.
std::atomic<LockWitness*> g_override{nullptr};

}  // namespace

int LockWitness::RegisterSite(const std::string& name) {
  SiteRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto [it, inserted] = r.ids.try_emplace(name, static_cast<int>(r.names.size()));
  if (inserted) {
    r.names.push_back(name);
  }
  return it->second;
}

std::string LockWitness::SiteName(int site) {
  SiteRegistry& r = Registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (site < 0 || site >= static_cast<int>(r.names.size())) {
    return "<unknown-site>";
  }
  return r.names[site];
}

int LockSite(const std::string& name) { return LockWitness::RegisterSite(name); }

LockWitness* LockWitness::Global() {
  if (LockWitness* w = g_override.load(std::memory_order_acquire)) {
    return w;
  }
  // Env gating decided once: tests that want a different mode install an
  // override before touching any annotated path.
  static LockWitness* env_witness =
      EnvAnalysisOn() ? new LockWitness(Mode::kHalt) : nullptr;
  return env_witness;
}

void LockWitness::SetGlobalForTest(LockWitness* w) {
  g_override.store(w, std::memory_order_release);
}

void LockWitness::Acquire(int site, uint64_t order_key, Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Held>& stack = stacks_[std::this_thread::get_id()];
  if (kind == Kind::kBlocking) {
    for (const Held& held : stack) {
      if (held.site == site) {
        // Same-site nesting: the only legal pattern is a strictly ascending
        // order-key discipline (two-inode locks by ascending ino, multi-shard
        // locks by ascending index). Key 0 opts out.
        if (held.order_key != 0 && order_key != 0 && order_key <= held.order_key) {
          ReportLocked(
              "order",
              SiteName(site) + ": acquired key " + std::to_string(order_key) +
                  " while holding key " + std::to_string(held.order_key) +
                  " (same-site nesting must use strictly ascending keys)");
        }
      } else {
        AddEdgeLocked(held.site, site);
      }
    }
  }
  stack.push_back({site, order_key, kind});
}

void LockWitness::Release(int site, uint64_t order_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stacks_.find(std::this_thread::get_id());
  if (it == stacks_.end()) {
    return;
  }
  std::vector<Held>& stack = it->second;
  for (auto rit = stack.rbegin(); rit != stack.rend(); ++rit) {
    if (rit->site == site && rit->order_key == order_key) {
      stack.erase(std::next(rit).base());
      break;
    }
  }
  if (stack.empty()) {
    stacks_.erase(it);
  }
}

void LockWitness::AddEdgeLocked(int from, int to) {
  auto [it, inserted] = edges_[from].insert(to);
  (void)it;
  if (!inserted) {
    return;  // Known edge: already checked when first recorded.
  }
  std::vector<int> path;
  if (PathExistsLocked(to, from, &path)) {
    std::string detail = SiteName(from);
    for (int node : path) {
      detail += " -> " + SiteName(node);
    }
    detail += " -> " + SiteName(from);
    ReportLocked("cycle", detail);
  }
}

bool LockWitness::PathExistsLocked(int from, int target,
                                   std::vector<int>* path) const {
  path->push_back(from);
  if (from == target) {
    return true;
  }
  auto it = edges_.find(from);
  if (it != edges_.end()) {
    for (int next : it->second) {
      // The graph is small (dozens of sites); plain DFS with the path as the
      // visited set is enough and yields the cycle for the report.
      bool on_path = false;
      for (int node : *path) {
        if (node == next) {
          on_path = true;
          break;
        }
      }
      if (on_path && next != target) {
        continue;
      }
      if (next == target) {
        return true;
      }
      if (PathExistsLocked(next, target, path)) {
        return true;
      }
    }
  }
  path->pop_back();
  return false;
}

void LockWitness::ReportLocked(const std::string& kind, const std::string& detail) {
  violations_.push_back({kind, detail});
  if (mode_ == Mode::kHalt) {
    std::fprintf(stderr, "\n[analysis] LockWitness %s violation:\n  %s\n",
                 kind.c_str(), detail.c_str());
    std::fprintf(stderr, "[analysis] accumulated lock-order edges:\n");
    for (const auto& [from, tos] : edges_) {
      for (int to : tos) {
        std::fprintf(stderr, "  %s -> %s\n", SiteName(from).c_str(),
                     SiteName(to).c_str());
      }
    }
    std::abort();
  }
}

std::vector<LockWitness::Violation> LockWitness::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

size_t LockWitness::violation_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.size();
}

size_t LockWitness::edge_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [from, tos] : edges_) {
    (void)from;
    n += tos.size();
  }
  return n;
}

std::vector<std::string> LockWitness::EdgeList() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [from, tos] : edges_) {
    for (int to : tos) {
      out.push_back(SiteName(from) + " -> " + SiteName(to));
    }
  }
  return out;
}

}  // namespace analysis
