#include "src/common/service_pool.h"

#include <algorithm>
#include <utility>

namespace common {

ServicePool::ServicePool(int threads) {
  int n = std::max(1, threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServicePool::~ServicePool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
  // Jobs still queued at destruction are dropped; clients fence their own work
  // with Drain() before letting go of the pool.
}

void ServicePool::Submit(uint64_t client_key, std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      return;
    }
    // pending_ counts queued + running; only a *queued* twin may absorb this
    // submit. queued-for-key = pending - running-for-key, but tracking running per
    // key would cost a second map — instead scan the (short, bounded by clients)
    // queue directly.
    for (const Job& q : queue_) {
      if (q.key == client_key) {
        return;
      }
    }
    queue_.push_back(Job{client_key, std::move(job)});
    ++pending_[client_key];
  }
  work_cv_.notify_one();
}

void ServicePool::Drain(uint64_t client_key) {
  std::unique_lock<std::mutex> lk(mu_);
  drain_cv_.wait(lk, [&] {
    return stop_ || pending_.find(client_key) == pending_.end();
  });
}

void ServicePool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (stop_) {
      return;
    }
    Job job = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    job.fn();
    lk.lock();
    auto it = pending_.find(job.key);
    if (it != pending_.end() && --it->second == 0) {
      pending_.erase(it);
    }
    drain_cv_.notify_all();
  }
}

}  // namespace common
