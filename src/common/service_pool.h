// Bounded service-thread pool: the one background executor of the stack.
//
// A fixed handful of workers serve jobs that any number of client instances
// *register* with, keyed by client so one client's teardown can fence exactly its
// own work (Drain). Every background service runs here: the §3.5 staging
// replenisher's passes and the journal commit service. A single-tenant SplitFs
// owns a 1-worker replenisher pool when replenish_thread is on; the tenant router
// owns two pools (staging replenisher, journal commit) that every mounted tenant
// shares — total service threads are O(pools), not O(tenants).
//
// Simulation note: pool workers bind no sim::Clock::Lane, so their virtual-time
// charges land on the shared timeline that lane-based measurements ignore —
// background work is invisible to every foreground timeline.
#ifndef SRC_COMMON_SERVICE_POOL_H_
#define SRC_COMMON_SERVICE_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace common {

class ServicePool {
 public:
  // Spawns `threads` workers immediately (>= 1).
  ServicePool(std::string name, int threads = 1);
  ~ServicePool();
  ServicePool(const ServicePool&) = delete;
  ServicePool& operator=(const ServicePool&) = delete;

  // Enqueues `job` attributed to `client_key` (typically the client instance
  // pointer), unless a not-yet-running job with the same key is already queued —
  // a queued pass will observe the newer state when it runs. Jobs already
  // *running* never dedup a submit: a running pass may have sampled state from
  // before the caller's update, so dropping the submit could lose the request (the
  // journal-commit service depends on this).
  void Submit(uint64_t client_key, std::function<void()> job);

  // Blocks until no queued or running job for `client_key` remains. Jobs submitted
  // concurrently with the drain (including by the drained jobs themselves) are
  // waited for too — the fence is "key is quiet", not "jobs as of entry are done".
  void Drain(uint64_t client_key);

  // Blocks until the pool is fully quiet (all keys).
  void DrainAll();

  size_t QueueDepth() const;
  int threads() const { return static_cast<int>(workers_.size()); }
  const std::string& name() const { return name_; }

  // True while the calling thread is a worker of *this* pool executing a job
  // (false on submitters and on other pools' workers). Clients that must not
  // wait on their own service pass — a journal commit requested from inside the
  // commit service's pass — consult it before handing work to the pool.
  bool OnWorkerThread() const { return tls_running_in_ == this; }

 private:
  struct Job {
    uint64_t key;
    std::function<void()> fn;
  };

  void WorkerLoop();

  const std::string name_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for jobs / stop
  std::condition_variable drain_cv_;  // Drain()/DrainAll() waiters
  std::deque<Job> queue_;
  // Queued + running job count per client key (erased at zero).
  std::unordered_map<uint64_t, uint32_t> pending_;
  size_t running_total_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;

  static thread_local const ServicePool* tls_running_in_;
};

}  // namespace common

#endif  // SRC_COMMON_SERVICE_POOL_H_
