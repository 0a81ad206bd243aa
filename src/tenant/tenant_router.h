// Tenant router: thousands of namespaces over shared service pools with per-tenant
// QoS.
//
// One TenantRouter mounts N namespace-rooted SplitFs instances — each with its own
// Options (consistency mode, staging sizing, async relink) — behind a single
// vfs::FileSystem entry point. Paths route by their first component ("/db/x" goes
// to tenant "db", which serves the full path, so tenants stay disjoint subtrees of
// the shared K-Split namespace); descriptors route through a router-level fd table
// that maps each handed-out fd to its tenant and inner descriptor, and goes stale
// (EBADF) the moment the tenant unmounts.
//
// Service threads are the point: an unwired instance with replenish_thread owns a
// 1-worker replenisher pool, so N of them burn N threads. The router owns two
// bounded pools — one staging-replenisher pool, one journal-commit service — and
// every mounted instance registers its passes with them instead of owning pools,
// so 64 tenants (or thousands) run on ServiceThreads() == 2 by default. Async
// relink needs no thread: each instance publishes on the fsync/close caller.
//
// QoS: per-tenant token buckets pace the two shared amplifiers — staging-file
// consumption and foreground journal commits — on the tenant's own virtual
// timeline. A strict-mode tenant's fsync storm then pays its own throttle waits
// (visible in the contention ledger as tenant.<id>.journal_throttle /
// tenant.<id>.staging_throttle) instead of starving a posix-mode neighbor.
// Zero rates mean unlimited.
//
// Determinism caveat: shared pool workers interleave tenants' background work in
// real-time arrival order. Crash cells that need a deterministic store sequence
// run with RouterOptions::journal_service off and replenish_thread off, so every
// store lands on the driving thread.
#ifndef SRC_TENANT_TENANT_ROUTER_H_
#define SRC_TENANT_TENANT_ROUTER_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/service_pool.h"
#include "src/core/split_fs.h"
#include "src/ext4/ext4_dax.h"
#include "src/sim/token_bucket.h"
#include "src/vfs/file_system.h"

namespace tenant {

// Per-tenant configuration: the instance's own SplitFS options plus its QoS rates.
struct TenantOptions {
  splitfs::Options fs;
  // Journal-commit credits per second of simulated time (foreground commits:
  // fsync, synchronous metadata). 0 = unlimited.
  double journal_credits_per_sec = 0.0;
  double journal_credit_burst = 1.0;
  // Staging-file tokens per second of simulated time (one per staging file a lane
  // refills with). 0 = unlimited.
  double staging_tokens_per_sec = 0.0;
  double staging_token_burst = 1.0;
};

struct RouterOptions {
  int replenisher_threads = 1;
  // Route the shared kernel journal's commits through a one-thread commit service
  // (callers sleep in log_wait_commit while the worker seals + writes out). Off for
  // deterministic crash cells, which need every store on the driving thread.
  bool journal_service = true;
};

class TenantRouter : public vfs::FileSystem {
 public:
  explicit TenantRouter(ext4sim::Ext4Dax* kfs, RouterOptions ropts = {});
  ~TenantRouter() override;

  TenantRouter(const TenantRouter&) = delete;
  TenantRouter& operator=(const TenantRouter&) = delete;

  // Mounts `tenant_id` (one path component, no '/') as the subtree "/<tenant_id>".
  // Creates the tenant root directory, constructs the SplitFs instance wired to the
  // shared pools and its QoS buckets, and registers the tenant.<id>.* gauges.
  // Returns 0, -EEXIST (already mounted), or -EINVAL (bad id).
  int Mount(const std::string& tenant_id, const TenantOptions& topts);

  // Unmounts a tenant: deregisters its gauges, closes its router fds on the
  // calling thread (close publishes staged data, §3.4 — never in a destructor, so
  // a crash signal is catchable here and leaves the tenant mounted), and tears
  // the instance down. Returns 0 or -ENOENT.
  int Unmount(const std::string& tenant_id);

  bool IsMounted(const std::string& tenant_id) const;
  size_t TenantCount() const;
  // Shared service threads backing every mounted tenant.
  int ServiceThreads() const;
  // The mounted instance (introspection / tests); nullptr when not mounted. The
  // pointer is owned by the router and dies at Unmount.
  splitfs::SplitFs* tenant_fs(const std::string& tenant_id) const;

  std::string Name() const override;

  // --- vfs::FileSystem: path ops route by first component, fd ops by table -------
  int Open(const std::string& path, int flags) override;
  int Close(int fd) override;
  int Unlink(const std::string& path) override;
  int Rename(const std::string& from, const std::string& to) override;
  ssize_t Pread(int fd, void* buf, uint64_t n, uint64_t off) override;
  ssize_t Pwrite(int fd, const void* buf, uint64_t n, uint64_t off) override;
  ssize_t Read(int fd, void* buf, uint64_t n) override;
  ssize_t Write(int fd, const void* buf, uint64_t n) override;
  int64_t Lseek(int fd, int64_t off, vfs::Whence whence) override;
  int Fsync(int fd) override;
  int Ftruncate(int fd, uint64_t size) override;
  int Fallocate(int fd, uint64_t off, uint64_t len, bool keep_size) override;
  int Stat(const std::string& path, vfs::StatBuf* out) override;
  int Fstat(int fd, vfs::StatBuf* out) override;
  int Mkdir(const std::string& path) override;
  int Rmdir(const std::string& path) override;
  int ReadDir(const std::string& path, std::vector<std::string>* names) override;
  // Remounts every tenant's state from its durable artifacts (crash recovery).
  int Recover() override;

 private:
  struct Tenant {
    std::string id;
    // Buckets are declared before the instance: the instance (destroyed first)
    // borrows them through Services.
    std::unique_ptr<sim::TokenBucket> staging_tokens;
    std::unique_ptr<sim::TokenBucket> journal_credits;
    std::unique_ptr<splitfs::SplitFs> fs;
  };

  // First path component of "/<id>/..." (or "/<id>"), empty on malformed paths.
  static std::string TenantIdOf(const std::string& path);
  std::shared_ptr<Tenant> FindTenant(const std::string& id) const;
  std::shared_ptr<Tenant> RoutePath(const std::string& path) const;
  // Resolves a router fd; returns the tenant and sets *inner_fd. Null on EBADF.
  std::shared_ptr<Tenant> RouteFd(int fd, int* inner_fd) const;

  ext4sim::Ext4Dax* kfs_;
  sim::Context* ctx_;
  RouterOptions ropts_;

  // Shared bounded service pools (the <= 2 threads serving every tenant).
  common::ServicePool replenisher_pool_;
  std::unique_ptr<common::ServicePool> journal_pool_;  // When journal_service.

  mutable std::shared_mutex tenants_mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;

  struct FdEntry {
    std::shared_ptr<Tenant> tenant;
    int inner_fd = -1;
  };
  mutable std::shared_mutex fds_mu_;
  std::unordered_map<int, FdEntry> fds_;
  int next_fd_ = 3;  // Guarded by fds_mu_.
};

}  // namespace tenant

#endif  // SRC_TENANT_TENANT_ROUTER_H_
