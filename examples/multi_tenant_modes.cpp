// Example: the SplitFS feature no other PM file system offers (§3.2) — concurrent
// applications choosing *different* consistency modes over one shared file system —
// scaled out through the TenantRouter: namespace-rooted tenants behind one POSIX
// entry point, every instance's background work riding one shared service thread
// (the staging replenisher; journal commits run on the thread that forces them),
// and per-tenant QoS so the strict tenant's commit storm pays its own throttle
// instead of starving the POSIX neighbor.
//
//   build/examples/multi_tenant_modes
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/wal_db.h"
#include "src/common/bytes.h"
#include "src/tenant/tenant_router.h"

int main() {
  sim::Context ctx;
  pmem::Device pm(&ctx, 2 * common::kGiB);
  ext4sim::Ext4Dax kernel_fs(&pm);
  tenant::TenantRouter router(&kernel_fs);

  // Tenant "db": a database wanting atomic+synchronous operations, paced to 20k
  // forced journal commits per second of simulated time. (Both tenants use a
  // modest staging pool so the instances fit comfortably on the 2 GiB demo device.)
  tenant::TenantOptions db_opts;
  db_opts.fs.mode = splitfs::Mode::kStrict;
  db_opts.fs.num_staging_files = 4;
  db_opts.fs.staging_file_bytes = 32 * common::kMiB;
  db_opts.journal_credits_per_sec = 20000.0;
  db_opts.journal_credit_burst = 32.0;
  router.Mount("db", db_opts);

  // Tenant "logs": a log cruncher that only needs POSIX semantics, but wants speed
  // — async relink publication (fsync acks at the intent fence), unthrottled.
  tenant::TenantOptions log_opts;
  log_opts.fs.mode = splitfs::Mode::kPosix;
  log_opts.fs.num_staging_files = 4;
  log_opts.fs.staging_file_bytes = 32 * common::kMiB;
  log_opts.fs.async_relink = true;
  router.Mount("logs", log_opts);

  const int threads = router.ServiceThreads();
  std::printf("tenants: db (%s) + logs (%s) — one K-Split instance, %d shared "
              "service thread%s\n\n",
              router.tenant_fs("db")->Name().c_str(),
              router.tenant_fs("logs")->Name().c_str(), threads, threads == 1 ? "" : "s");

  // Tenant "db" runs transactions through the router's namespace.
  apps::WalDb db(&router, "/db/bank.db");
  std::vector<uint8_t> page(4096, 1);
  uint64_t t0 = ctx.clock.Now();
  for (int i = 0; i < 500; ++i) {
    db.Begin();
    page[0] = static_cast<uint8_t>(i);
    db.WritePage(static_cast<uint64_t>(i % 50), page.data());
    db.Commit();
  }
  double db_us_per_txn = (ctx.clock.Now() - t0) / 500.0 / 1000.0;

  // Tenant "logs" streams a log file concurrently (interleaved here; the instances
  // are independent and their modes do not interfere).
  int lfd = router.Open("/logs/events.log", vfs::kRdWr | vfs::kCreate | vfs::kAppend);
  std::string line(256, '#');
  t0 = ctx.clock.Now();
  for (int i = 0; i < 20000; ++i) {
    router.Write(lfd, line.data(), line.size());
  }
  router.Fsync(lfd);
  double log_ns_per_append = static_cast<double>(ctx.clock.Now() - t0) / 20000.0;
  router.Close(lfd);

  std::printf("strict tenant:  %.1f us per committed transaction (atomic, synchronous)\n",
              db_us_per_txn);
  std::printf("POSIX tenant:   %.0f ns per 256 B append (amortized, incl. final relink)\n",
              log_ns_per_append);
  std::printf("op-log entries written by strict tenant: %llu; POSIX tenant: %llu\n",
              static_cast<unsigned long long>(router.tenant_fs("db")->OpLogEntries()),
              static_cast<unsigned long long>(router.tenant_fs("logs")->OpLogEntries()));

  // QoS attribution: the strict tenant's pacing shows up under its own name in the
  // contention ledger; the POSIX tenant pays nothing.
  for (const auto& [name, e] : ctx.obs.ledger.Snapshot()) {
    if (name.rfind("tenant.", 0) == 0) {
      std::printf("%-28s %llu waits, %.1f ms throttled\n", name.c_str(),
                  static_cast<unsigned long long>(e.waits), e.waited_ns / 1e6);
    }
  }

  // Cross-tenant visibility goes through the router's shared namespace.
  vfs::StatBuf st;
  if (router.Stat("/logs/events.log", &st) == 0) {
    std::printf("\nstrict tenant sees the POSIX tenant's published log: %llu bytes\n",
                static_cast<unsigned long long>(st.size));
  }
  router.Unmount("logs");
  router.Unmount("db");
  return 0;
}
