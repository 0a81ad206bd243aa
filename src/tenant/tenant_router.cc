#include "src/tenant/tenant_router.h"

#include <utility>

#include "src/ext4/journal.h"
#include "src/obs/obs.h"

namespace tenant {

TenantRouter::TenantRouter(ext4sim::Ext4Dax* kfs, RouterOptions ropts)
    : kfs_(kfs),
      ctx_(kfs->context()),
      ropts_(ropts),
      replenisher_pool_("tenant.replenishers", ropts.replenisher_threads) {
  if (ropts_.journal_service) {
    journal_pool_ = std::make_unique<common::ServicePool>("tenant.journal", 1);
    kfs_->journal_for_test()->SetServicePool(journal_pool_.get());
  }
}

TenantRouter::~TenantRouter() {
  // Tear tenants down while the pools are still alive: each instance's teardown
  // drains its registered replenish passes. Gauges read through tenant state, so
  // they go first.
  {
    std::unique_lock<std::shared_mutex> tl(tenants_mu_);
    for (auto& [id, t] : tenants_) {
      ctx_->obs.metrics.DeregisterGauges("tenant." + id + ".");
      (void)t;
    }
    {
      std::unique_lock<std::shared_mutex> fl(fds_mu_);
      fds_.clear();
    }
    tenants_.clear();
  }
  // Detach the journal commit service (drains it) before the pool is destroyed.
  if (journal_pool_ != nullptr) {
    kfs_->journal_for_test()->SetServicePool(nullptr);
  }
}

std::string TenantRouter::Name() const { return "TenantRouter"; }

int TenantRouter::ServiceThreads() const {
  return replenisher_pool_.threads() +
         (journal_pool_ != nullptr ? journal_pool_->threads() : 0);
}

std::string TenantRouter::TenantIdOf(const std::string& path) {
  if (path.size() < 2 || path[0] != '/') {
    return {};
  }
  size_t slash = path.find('/', 1);
  return path.substr(1, slash == std::string::npos ? std::string::npos : slash - 1);
}

std::shared_ptr<TenantRouter::Tenant> TenantRouter::FindTenant(
    const std::string& id) const {
  std::shared_lock<std::shared_mutex> tl(tenants_mu_);
  auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : it->second;
}

std::shared_ptr<TenantRouter::Tenant> TenantRouter::RoutePath(
    const std::string& path) const {
  return FindTenant(TenantIdOf(path));
}

std::shared_ptr<TenantRouter::Tenant> TenantRouter::RouteFd(int fd,
                                                            int* inner_fd) const {
  std::shared_lock<std::shared_mutex> fl(fds_mu_);
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return nullptr;
  }
  *inner_fd = it->second.inner_fd;
  return it->second.tenant;
}

int TenantRouter::Mount(const std::string& tenant_id, const TenantOptions& topts) {
  if (tenant_id.empty() || tenant_id.find('/') != std::string::npos) {
    return -EINVAL;
  }
  if (IsMounted(tenant_id)) {
    return -EEXIST;
  }
  auto t = std::make_shared<Tenant>();
  t->id = tenant_id;
  if (topts.staging_tokens_per_sec > 0.0) {
    t->staging_tokens = std::make_unique<sim::TokenBucket>(
        topts.staging_tokens_per_sec, topts.staging_token_burst);
  }
  if (topts.journal_credits_per_sec > 0.0) {
    t->journal_credits = std::make_unique<sim::TokenBucket>(
        topts.journal_credits_per_sec, topts.journal_credit_burst);
  }
  splitfs::Services svcs;
  svcs.replenisher_pool = &replenisher_pool_;
  svcs.staging_tokens = t->staging_tokens.get();
  svcs.journal_credits = t->journal_credits.get();

  // The tenant's namespace root. Idempotent; a remount after a crash finds it.
  kfs_->Mkdir("/" + tenant_id);
  t->fs = std::make_unique<splitfs::SplitFs>(kfs_, topts.fs, tenant_id, svcs);

  {
    std::unique_lock<std::shared_mutex> tl(tenants_mu_);
    auto [it, inserted] = tenants_.emplace(tenant_id, t);
    if (!inserted) {
      return -EEXIST;  // Lost a mount race; the constructed instance unwinds.
    }
  }
  obs::MetricsRegistry* m = &ctx_->obs.metrics;
  sim::TokenBucket* jc = t->journal_credits.get();
  sim::TokenBucket* st = t->staging_tokens.get();
  m->RegisterGauge("tenant." + tenant_id + ".journal_credits", [jc]() -> uint64_t {
    return jc == nullptr ? 0 : static_cast<uint64_t>(jc->Available());
  });
  m->RegisterGauge("tenant." + tenant_id + ".staging_tokens", [st]() -> uint64_t {
    return st == nullptr ? 0 : static_cast<uint64_t>(st->Available());
  });
  // Shared-journal attribution: service time of coalesced commits that satisfied
  // this tenant's fsyncs/metadata syncs, split per tenant by the commit pipeline
  // (Journal::AttributeCommitService). The key is the instance tag the tenant's
  // SplitFs passes as `who` at its CommitJournal/Fsync call sites.
  ext4sim::Journal* journal = kfs_->journal_for_test();
  m->RegisterGauge("tenant." + tenant_id + ".commit_service_ns",
                   [journal, tenant_id]() -> uint64_t {
                     return journal->AttributedCommitServiceNs(tenant_id);
                   });
  return 0;
}

int TenantRouter::Unmount(const std::string& tenant_id) {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  if (t == nullptr) {
    return -ENOENT;
  }
  ctx_->obs.metrics.DeregisterGauges("tenant." + tenant_id + ".");
  // Invalidate the tenant's router fds; close their inner descriptors on THIS
  // thread (close publishes any straggler staged data, per §3.4). A power cut here
  // is a catchable crash state: the tenant is still mounted if we unwind.
  std::vector<int> inner;
  {
    std::unique_lock<std::shared_mutex> fl(fds_mu_);
    for (auto it = fds_.begin(); it != fds_.end();) {
      if (it->second.tenant == t) {
        inner.push_back(it->second.inner_fd);
        it = fds_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (int fd : inner) {
    t->fs->Close(fd);
  }
  {
    std::unique_lock<std::shared_mutex> tl(tenants_mu_);
    tenants_.erase(tenant_id);
  }
  // Drop our reference; the instance is destroyed here unless an in-flight call
  // still holds the tenant (it finishes on the live instance first).
  t.reset();
  return 0;
}

bool TenantRouter::IsMounted(const std::string& tenant_id) const {
  return FindTenant(tenant_id) != nullptr;
}

size_t TenantRouter::TenantCount() const {
  std::shared_lock<std::shared_mutex> tl(tenants_mu_);
  return tenants_.size();
}

splitfs::SplitFs* TenantRouter::tenant_fs(const std::string& tenant_id) const {
  std::shared_ptr<Tenant> t = FindTenant(tenant_id);
  return t == nullptr ? nullptr : t->fs.get();
}

// --- vfs::FileSystem ----------------------------------------------------------------

int TenantRouter::Open(const std::string& path, int flags) {
  std::shared_ptr<Tenant> t = RoutePath(path);
  if (t == nullptr) {
    return -ENOENT;
  }
  int inner = t->fs->Open(path, flags);
  if (inner < 0) {
    return inner;
  }
  std::unique_lock<std::shared_mutex> fl(fds_mu_);
  int fd = next_fd_++;
  fds_.emplace(fd, FdEntry{std::move(t), inner});
  return fd;
}

int TenantRouter::Close(int fd) {
  FdEntry entry;
  {
    std::unique_lock<std::shared_mutex> fl(fds_mu_);
    auto it = fds_.find(fd);
    if (it == fds_.end()) {
      return -EBADF;
    }
    entry = std::move(it->second);
    fds_.erase(it);
  }
  return entry.tenant->fs->Close(entry.inner_fd);
}

int TenantRouter::Unlink(const std::string& path) {
  std::shared_ptr<Tenant> t = RoutePath(path);
  return t == nullptr ? -ENOENT : t->fs->Unlink(path);
}

int TenantRouter::Rename(const std::string& from, const std::string& to) {
  std::shared_ptr<Tenant> t = RoutePath(from);
  if (t == nullptr) {
    return -ENOENT;
  }
  if (TenantIdOf(to) != t->id) {
    return -EXDEV;  // Tenants are separate mounts; no cross-tenant rename.
  }
  return t->fs->Rename(from, to);
}

ssize_t TenantRouter::Pread(int fd, void* buf, uint64_t n, uint64_t off) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Pread(inner, buf, n, off);
}

ssize_t TenantRouter::Pwrite(int fd, const void* buf, uint64_t n, uint64_t off) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Pwrite(inner, buf, n, off);
}

ssize_t TenantRouter::Read(int fd, void* buf, uint64_t n) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Read(inner, buf, n);
}

ssize_t TenantRouter::Write(int fd, const void* buf, uint64_t n) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Write(inner, buf, n);
}

int64_t TenantRouter::Lseek(int fd, int64_t off, vfs::Whence whence) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Lseek(inner, off, whence);
}

int TenantRouter::Fsync(int fd) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Fsync(inner);
}

int TenantRouter::Ftruncate(int fd, uint64_t size) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Ftruncate(inner, size);
}

int TenantRouter::Fallocate(int fd, uint64_t off, uint64_t len, bool keep_size) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Fallocate(inner, off, len, keep_size);
}

int TenantRouter::Stat(const std::string& path, vfs::StatBuf* out) {
  std::shared_ptr<Tenant> t = RoutePath(path);
  return t == nullptr ? -ENOENT : t->fs->Stat(path, out);
}

int TenantRouter::Fstat(int fd, vfs::StatBuf* out) {
  int inner = -1;
  std::shared_ptr<Tenant> t = RouteFd(fd, &inner);
  return t == nullptr ? -EBADF : t->fs->Fstat(inner, out);
}

int TenantRouter::Mkdir(const std::string& path) {
  std::shared_ptr<Tenant> t = RoutePath(path);
  return t == nullptr ? -ENOENT : t->fs->Mkdir(path);
}

int TenantRouter::Rmdir(const std::string& path) {
  std::shared_ptr<Tenant> t = RoutePath(path);
  return t == nullptr ? -ENOENT : t->fs->Rmdir(path);
}

int TenantRouter::ReadDir(const std::string& path, std::vector<std::string>* names) {
  std::shared_ptr<Tenant> t = RoutePath(path);
  return t == nullptr ? -ENOENT : t->fs->ReadDir(path, names);
}

int TenantRouter::Recover() {
  // Crash recovery wiped the process: every tenant's DRAM state rebuilds from its
  // durable artifacts, and every pre-crash router fd goes stale.
  {
    std::unique_lock<std::shared_mutex> fl(fds_mu_);
    fds_.clear();
  }
  std::vector<std::shared_ptr<Tenant>> snapshot;
  {
    std::shared_lock<std::shared_mutex> tl(tenants_mu_);
    for (const auto& [id, t] : tenants_) {
      snapshot.push_back(t);
    }
  }
  int rc = 0;
  for (const auto& t : snapshot) {
    int r = t->fs->Recover();
    if (r != 0 && rc == 0) {
      rc = r;
    }
  }
  return rc;
}

}  // namespace tenant
