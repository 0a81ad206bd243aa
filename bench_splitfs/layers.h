// Bench-side timing wrappers for the traced run of bench_splitfs.
//
// Every per-layer number is measured from outside the layers. TimedFs decorates the
// vfs::FileSystem that the workload and the app call into (the "core" layer,
// U-Split), and TimedGet/TimedPut bracket the KvLsm calls (the "apps" layer). Each
// wrapped call records one obs::ScopedSpan (category bench.core / bench.apps) and adds
// its virtual and host duration to the calling thread's LayerAcc. The wrappers only
// read the simulated clock, so a traced run's virtual timeline equals the untraced
// run's; the untraced run does not construct them at all.
#ifndef BENCH_SPLITFS_LAYERS_H_
#define BENCH_SPLITFS_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "src/apps/kv_lsm.h"
#include "src/sim/context.h"
#include "src/vfs/file_system.h"

namespace bench_splitfs {

inline uint64_t HostNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// The core-call classes the per-layer metrics report (core.<class>_vns/_host_ns).
enum CoreCall { kWrite, kRead, kFsync, kOpenClose, kMeta, kCoreCallCount };
inline constexpr const char* kCoreCallNames[kCoreCallCount] = {"write", "read", "fsync",
                                                               "openclose", "meta"};
enum AppCall { kGet, kPut, kAppCallCount };

// One thread's totals of wrapped calls.
struct LayerAcc {
  std::array<uint64_t, kCoreCallCount> core_calls{};
  std::array<uint64_t, kCoreCallCount> core_vns{};
  std::array<uint64_t, kCoreCallCount> core_host_ns{};
  std::array<uint64_t, kAppCallCount> app_calls{};
  std::array<uint64_t, kAppCallCount> app_vns{};
  uint64_t app_self_vns = 0;      // App call time minus the core calls inside it.
  uint64_t app_self_host_ns = 0;
  uint64_t inner_vns = 0;         // Core time inside app calls, running total.
  uint64_t inner_host_ns = 0;

  void MergeFrom(const LayerAcc& o) {
    for (int k = 0; k < kCoreCallCount; ++k) {
      core_calls[k] += o.core_calls[k];
      core_vns[k] += o.core_vns[k];
      core_host_ns[k] += o.core_host_ns[k];
    }
    for (int k = 0; k < kAppCallCount; ++k) {
      app_calls[k] += o.app_calls[k];
      app_vns[k] += o.app_vns[k];
    }
    app_self_vns += o.app_self_vns;
    app_self_host_ns += o.app_self_host_ns;
  }
};

namespace internal {
inline thread_local LayerAcc* tls_acc = nullptr;
}  // namespace internal

// Routes the calling thread's wrapped calls into `acc` while in scope.
class ScopedAcc {
 public:
  explicit ScopedAcc(LayerAcc* acc) : prev_(internal::tls_acc) { internal::tls_acc = acc; }
  ~ScopedAcc() { internal::tls_acc = prev_; }
  ScopedAcc(const ScopedAcc&) = delete;
  ScopedAcc& operator=(const ScopedAcc&) = delete;

 private:
  LayerAcc* prev_;
};

class TimedFs final : public vfs::FileSystem {
 public:
  TimedFs(vfs::FileSystem* inner, sim::Context* ctx) : inner_(inner), ctx_(ctx) {}

  std::string Name() const override { return inner_->Name(); }
  int Open(const std::string& path, int flags) override {
    return Call(kOpenClose, "open", [&] { return inner_->Open(path, flags); });
  }
  int Close(int fd) override {
    return Call(kOpenClose, "close", [&] { return inner_->Close(fd); });
  }
  int Unlink(const std::string& path) override {
    return Call(kMeta, "unlink", [&] { return inner_->Unlink(path); });
  }
  int Rename(const std::string& from, const std::string& to) override {
    return Call(kMeta, "rename", [&] { return inner_->Rename(from, to); });
  }
  ssize_t Pread(int fd, void* buf, uint64_t n, uint64_t off) override {
    return Call(kRead, "pread", [&] { return inner_->Pread(fd, buf, n, off); });
  }
  ssize_t Pwrite(int fd, const void* buf, uint64_t n, uint64_t off) override {
    return Call(kWrite, "pwrite", [&] { return inner_->Pwrite(fd, buf, n, off); });
  }
  ssize_t Read(int fd, void* buf, uint64_t n) override {
    return Call(kRead, "read", [&] { return inner_->Read(fd, buf, n); });
  }
  ssize_t Write(int fd, const void* buf, uint64_t n) override {
    return Call(kWrite, "write", [&] { return inner_->Write(fd, buf, n); });
  }
  int64_t Lseek(int fd, int64_t off, vfs::Whence whence) override {
    return Call(kMeta, "lseek", [&] { return inner_->Lseek(fd, off, whence); });
  }
  int Fsync(int fd) override {
    return Call(kFsync, "fsync", [&] { return inner_->Fsync(fd); });
  }
  int Ftruncate(int fd, uint64_t size) override {
    return Call(kMeta, "ftruncate", [&] { return inner_->Ftruncate(fd, size); });
  }
  int Fallocate(int fd, uint64_t off, uint64_t len, bool keep_size) override {
    return Call(kMeta, "fallocate",
                [&] { return inner_->Fallocate(fd, off, len, keep_size); });
  }
  int Stat(const std::string& path, vfs::StatBuf* out) override {
    return Call(kMeta, "stat", [&] { return inner_->Stat(path, out); });
  }
  int Fstat(int fd, vfs::StatBuf* out) override {
    return Call(kMeta, "fstat", [&] { return inner_->Fstat(fd, out); });
  }
  int Mkdir(const std::string& path) override {
    return Call(kMeta, "mkdir", [&] { return inner_->Mkdir(path); });
  }
  int Rmdir(const std::string& path) override {
    return Call(kMeta, "rmdir", [&] { return inner_->Rmdir(path); });
  }
  int ReadDir(const std::string& path, std::vector<std::string>* names) override {
    return Call(kMeta, "readdir", [&] { return inner_->ReadDir(path, names); });
  }
  int Recover() override { return inner_->Recover(); }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn> Call(CoreCall kind, const char* name, Fn&& fn) {
    obs::ScopedSpan span(&ctx_->obs.tracer, &ctx_->clock, "bench.core", name);
    uint64_t v0 = ctx_->clock.Now();
    uint64_t h0 = HostNowNs();
    auto rc = fn();
    if (LayerAcc* acc = internal::tls_acc) {
      uint64_t dv = ctx_->clock.Now() - v0;
      uint64_t dh = HostNowNs() - h0;
      acc->core_calls[kind] += 1;
      acc->core_vns[kind] += dv;
      acc->core_host_ns[kind] += dh;
      acc->inner_vns += dv;
      acc->inner_host_ns += dh;
    }
    return rc;
  }

  vfs::FileSystem* inner_;
  sim::Context* ctx_;
};

// Brackets one KvLsm call: span, app totals, and self time (the call minus the
// TimedFs calls it made).
template <typename Fn>
auto TimedApp(sim::Context* ctx, AppCall kind, const char* name, Fn&& fn) {
  obs::ScopedSpan span(&ctx->obs.tracer, &ctx->clock, "bench.apps", name);
  LayerAcc* acc = internal::tls_acc;
  uint64_t v0 = ctx->clock.Now();
  uint64_t h0 = HostNowNs();
  uint64_t inner_v0 = acc != nullptr ? acc->inner_vns : 0;
  uint64_t inner_h0 = acc != nullptr ? acc->inner_host_ns : 0;
  auto rc = fn();
  if (acc != nullptr) {
    uint64_t dv = ctx->clock.Now() - v0;
    uint64_t dh = HostNowNs() - h0;
    acc->app_calls[kind] += 1;
    acc->app_vns[kind] += dv;
    acc->app_self_vns += dv - (acc->inner_vns - inner_v0);
    uint64_t inner_h = acc->inner_host_ns - inner_h0;
    acc->app_self_host_ns += dh > inner_h ? dh - inner_h : 0;
  }
  return rc;
}

}  // namespace bench_splitfs

#endif  // BENCH_SPLITFS_LAYERS_H_
