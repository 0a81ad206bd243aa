// OS-thread accounting for tests: counts this process's threads in
// /proc/self/task, the kernel's own list, so a test can pin how many threads a
// component really starts and check that it joins every one of them.
#ifndef TESTS_OS_THREADS_H_
#define TESTS_OS_THREADS_H_

#include <chrono>
#include <filesystem>
#include <system_error>
#include <thread>

namespace testutil {

// Threads of this process, or -1 where /proc/self/task cannot be read.
inline int OsThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) {
    return -1;
  }
  int n = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) {
      return -1;
    }
    ++n;
  }
  return n;
}

// The kernel may still list a thread for a moment after pthread_join returns, so
// a count taken right after a join can be one too high. The two helpers below
// poll in 1 ms steps for up to ~2 s.

// Polls until the count equals `want`; returns the last count.
inline int OsThreadCountSettlingTo(int want) {
  int n = OsThreadCount();
  for (int i = 0; i < 2000 && n != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = OsThreadCount();
  }
  return n;
}

// A baseline count: polls until two reads 1 ms apart agree.
inline int SettledOsThreadCount() {
  int n = OsThreadCount();
  for (int i = 0; i < 2000; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int again = OsThreadCount();
    if (again == n) {
      break;
    }
    n = again;
  }
  return n;
}

// Starts and joins one thread, so runtime helpers that spawn at the first
// pthread_create (ThreadSanitizer's background thread) exist before a baseline
// count is taken.
inline void PrimeThreadRuntime() { std::thread([] {}).join(); }

}  // namespace testutil

#endif  // TESTS_OS_THREADS_H_
