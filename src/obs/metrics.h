// Pull-model metrics registry: named counters and gauges.
//
// Subsystems register what they can report; nothing is pushed. A *counter* is a
// monotonically increasing atomic owned by the registry (stable address, relaxed
// increments on the hot path). A *gauge* is a callback evaluated at snapshot time —
// journal pipeline depth, staging-pool occupancy, epoch retire-list length, oplog
// fill — so the instantaneous value is read from the owning structure under that
// structure's own synchronization.
//
// Snapshot discipline (the dump race fix): every dump takes the registry lock
// and evaluates each gauge exactly once into one vector — one atomic cut per dump,
// never a value re-read mid-formatting. Gauge callbacks must themselves read shared
// state with acquire loads (or under the owning lock); the registry's contract is that
// it never caches or re-reads a gauge within a dump, so a torn pair of reads of a
// mutating value cannot appear in one snapshot. The obs test suite runs concurrent
// dumps against mutating gauges under TSan to keep this honest.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace obs {

// Registry-owned monotonic counter. Stable address for the lifetime of the registry.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_acquire); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

class MetricsRegistry {
 public:
  using GaugeFn = std::function<uint64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Returns the counter registered under `name`, creating it on first use (so two
  // subsystems naming the same counter share it, and re-registration is idempotent).
  Counter* RegisterCounter(const std::string& name);

  // Registers (or replaces) the gauge `name`. The callback is evaluated only inside
  // Snapshot(), under the registry lock; it must read its sources with acquire loads
  // or the owning structure's lock, and must not call back into the registry.
  void RegisterGauge(const std::string& name, GaugeFn fn);
  // Removes gauges whose name starts with `prefix` (owners deregister on teardown so
  // a later dump cannot call into a destroyed structure).
  void DeregisterGauges(const std::string& prefix);

  struct Sample {
    std::string name;
    uint64_t value = 0;
    bool is_counter = false;
  };
  // One atomic cut: every gauge evaluated exactly once, every counter loaded once,
  // under the registry lock; sorted by name (the map order) for stable output.
  std::vector<Sample> Snapshot() const;

  // Zeroes all counters (gauges are live views and have nothing to reset). Benches
  // call this via sim::Context::Reset after testbed setup.
  void ResetCounters();

 private:
  mutable std::mutex mu_;
  // Counters live in a deque: stable addresses across growth.
  std::deque<Counter> counter_storage_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, GaugeFn> gauges_;
};

}  // namespace obs

#endif  // SRC_OBS_METRICS_H_
