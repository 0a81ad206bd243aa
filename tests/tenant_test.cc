// TenantRouter tests (ctest labels: `tenant` + `concurrency` so the churn-race
// suite runs under the TSan pass of scripts/check.sh --tsan).
//
// Covers the multi-tenant claims:
//   * path/fd routing: first component picks the tenant, fds go stale at unmount,
//     cross-tenant rename is -EXDEV, unknown namespaces are -ENOENT;
//   * 64 mounted tenants run on exactly 1 shared service thread (the staging
//     replenisher) — mounting them starts no OS thread of its own — with every
//     tenant's data intact;
//   * per-tenant QoS: a throttled tenant's journal/staging waits land in the
//     contention ledger under tenant.<id>.* while an unthrottled neighbor pays
//     nothing, and the tenant.<id>.* gauges appear at mount and vanish at unmount;
//   * shared-journal attribution: tenant.<id>.commit_service_ns credits the commit
//     service each tenant's own fsyncs forced, and nothing to a tenant that never
//     commits;
//   * mount/unmount churn racing opens, writes, and stats on the shared router
//     tables (the TSan target for router fd/path races).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/bytes.h"
#include "src/tenant/tenant_router.h"
#include "tests/os_threads.h"

namespace {

using common::kGiB;
using common::kMiB;
using splitfs::Mode;
using tenant::TenantOptions;
using tenant::TenantRouter;

// Small per-tenant footprint so dozens of instances fit one simulated device.
TenantOptions SmallTenant(Mode mode, bool async_publish) {
  TenantOptions t;
  t.fs.mode = mode;
  t.fs.num_staging_files = 2;
  t.fs.staging_file_bytes = 1 * kMiB;
  t.fs.oplog_bytes = 1 * kMiB;
  t.fs.replenish_thread = true;  // Rides the shared replenisher pool.
  t.fs.async_relink = async_publish;
  return t;
}

class TenantTest : public ::testing::Test {
 protected:
  TenantTest() : dev_(&ctx_, 2 * kGiB), kfs_(&dev_) {}

  bool LedgerHas(const std::string& resource, uint64_t* waited_ns = nullptr) {
    for (const auto& [name, e] : ctx_.obs.ledger.Snapshot()) {
      if (name == resource) {
        if (waited_ns != nullptr) {
          *waited_ns = e.waited_ns;
        }
        return true;
      }
    }
    return false;
  }

  bool GaugeExists(const std::string& name, uint64_t* value = nullptr) {
    for (const auto& s : ctx_.obs.metrics.Snapshot()) {
      if (s.name == name) {
        if (value != nullptr) {
          *value = s.value;
        }
        return true;
      }
    }
    return false;
  }

  sim::Context ctx_;
  pmem::Device dev_;
  ext4sim::Ext4Dax kfs_;
};

TEST_F(TenantTest, PathAndFdRouting) {
  TenantRouter router(&kfs_);
  ASSERT_EQ(router.Mount("db", SmallTenant(Mode::kStrict, /*async=*/false)), 0);
  ASSERT_EQ(router.Mount("logs", SmallTenant(Mode::kPosix, /*async=*/true)), 0);
  EXPECT_EQ(router.Mount("db", SmallTenant(Mode::kPosix, false)), -EEXIST);
  EXPECT_EQ(router.Mount("", SmallTenant(Mode::kPosix, false)), -EINVAL);
  EXPECT_EQ(router.Mount("a/b", SmallTenant(Mode::kPosix, false)), -EINVAL);
  EXPECT_EQ(router.TenantCount(), 2u);

  // Data written through the router round-trips within each namespace.
  int dbfd = router.Open("/db/bank.db", vfs::kCreate | vfs::kRdWr);
  ASSERT_GE(dbfd, 0);
  int logfd = router.Open("/logs/events.log", vfs::kCreate | vfs::kRdWr);
  ASSERT_GE(logfd, 0);
  const std::string db_rec(512, 'd');
  const std::string log_rec(256, 'l');
  ASSERT_EQ(router.Pwrite(dbfd, db_rec.data(), db_rec.size(), 0),
            static_cast<ssize_t>(db_rec.size()));
  ASSERT_EQ(router.Write(logfd, log_rec.data(), log_rec.size()),
            static_cast<ssize_t>(log_rec.size()));
  EXPECT_EQ(router.Fsync(dbfd), 0);
  EXPECT_EQ(router.Fsync(logfd), 0);
  std::string back(db_rec.size(), 0);
  ASSERT_EQ(router.Pread(dbfd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, db_rec);

  // Cross-tenant visibility goes through the router's path routing, not shared fds.
  vfs::StatBuf st{};
  EXPECT_EQ(router.Stat("/logs/events.log", &st), 0);
  EXPECT_EQ(st.size, log_rec.size());
  EXPECT_EQ(router.Stat("/nobody/x", &st), -ENOENT);
  EXPECT_EQ(router.Open("/nobody/x", vfs::kCreate | vfs::kRdWr), -ENOENT);

  // Renames stay inside a namespace; tenants are separate mounts.
  EXPECT_EQ(router.Rename("/db/bank.db", "/logs/bank.db"), -EXDEV);
  EXPECT_EQ(router.Rename("/db/bank.db", "/db/bank2.db"), 0);
  EXPECT_EQ(router.Stat("/db/bank2.db", &st), 0);

  // Unmount invalidates that tenant's router fds and namespace, nothing else.
  ASSERT_EQ(router.Unmount("logs"), 0);
  EXPECT_EQ(router.Unmount("logs"), -ENOENT);
  EXPECT_EQ(router.Fsync(logfd), -EBADF);
  char c = 0;
  EXPECT_EQ(router.Read(logfd, &c, 1), -EBADF);
  EXPECT_EQ(router.Stat("/logs/events.log", &st), -ENOENT);
  EXPECT_EQ(router.TenantCount(), 1u);
  ASSERT_EQ(router.Pread(dbfd, back.data(), back.size(), 0),
            static_cast<ssize_t>(back.size()));
  EXPECT_EQ(back, db_rec);
  EXPECT_EQ(router.Close(dbfd), 0);
  EXPECT_EQ(router.Close(dbfd), -EBADF);
}

// The headline resource claim: 64 mounted namespaces, each with async relink and
// the replenisher enabled, share exactly one service thread.
TEST_F(TenantTest, SixtyFourTenantsOneServiceThread) {
  TenantRouter router(&kfs_);
  ASSERT_EQ(router.ServiceThreads(), 1);
  // ServiceThreads() counts the router's own pool; the OS count checks that no
  // mounted instance starts a thread beside them.
  const int router_threads = testutil::SettledOsThreadCount();

  constexpr int kTenants = 64;
  const std::string payload(16 * 1024, 'x');
  std::vector<int> fds;
  for (int i = 0; i < kTenants; ++i) {
    // append(), not "t" + to_string: GCC 12 -O3 flags that form with a false
    // -Wrestrict positive.
    const std::string id = std::string("t").append(std::to_string(i));
    Mode mode = (i % 2 == 0) ? Mode::kPosix : Mode::kStrict;
    ASSERT_EQ(router.Mount(id, SmallTenant(mode, /*async=*/true)), 0) << id;
    int fd = router.Open("/" + id + "/data", vfs::kCreate | vfs::kRdWr);
    ASSERT_GE(fd, 0) << id;
    ASSERT_EQ(router.Pwrite(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
    ASSERT_EQ(router.Fsync(fd), 0);
    fds.push_back(fd);
  }
  EXPECT_EQ(router.TenantCount(), static_cast<size_t>(kTenants));
  EXPECT_EQ(router.ServiceThreads(), 1);
  if (router_threads >= 0) {
    EXPECT_EQ(testutil::OsThreadCount(), router_threads);
  }

  std::string back(payload.size(), 0);
  for (int i = 0; i < kTenants; ++i) {
    ASSERT_EQ(router.Pread(fds[i], back.data(), back.size(), 0),
              static_cast<ssize_t>(back.size()));
    EXPECT_EQ(back, payload) << "tenant t" << i;
    EXPECT_EQ(router.Close(fds[i]), 0);
  }
  for (int i = 0; i < kTenants; ++i) {
    ASSERT_EQ(router.Unmount(std::string("t").append(std::to_string(i))), 0);
  }
  EXPECT_EQ(router.TenantCount(), 0u);
}

// A throttled tenant's journal-commit pacing lands in the contention ledger under
// its own name; the unthrottled neighbor pays nothing. Gauges follow mount state.
TEST_F(TenantTest, JournalCreditsThrottleAndAttribute) {
  TenantRouter router(&kfs_);
  TenantOptions noisy = SmallTenant(Mode::kStrict, /*async=*/false);
  noisy.journal_credits_per_sec = 1000.0;  // One forced commit per simulated ms.
  noisy.journal_credit_burst = 1.0;
  ASSERT_EQ(router.Mount("noisy", noisy), 0);
  ASSERT_EQ(router.Mount("quiet", SmallTenant(Mode::kPosix, /*async=*/false)), 0);

  EXPECT_TRUE(GaugeExists("tenant.noisy.journal_credits"));
  EXPECT_TRUE(GaugeExists("tenant.noisy.staging_tokens"));

  int nfd = router.Open("/noisy/storm", vfs::kCreate | vfs::kRdWr);
  int qfd = router.Open("/quiet/app.log", vfs::kCreate | vfs::kRdWr);
  ASSERT_GE(nfd, 0);
  ASSERT_GE(qfd, 0);
  const std::string rec(4096, 's');
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(router.Write(nfd, rec.data(), rec.size()),
              static_cast<ssize_t>(rec.size()));
    ASSERT_EQ(router.Fsync(nfd), 0);  // Metadata-dirty append: forces a commit.
    ASSERT_EQ(router.Write(qfd, rec.data(), rec.size()),
              static_cast<ssize_t>(rec.size()));
    ASSERT_EQ(router.Fsync(qfd), 0);
  }
  uint64_t throttled_ns = 0;
  EXPECT_TRUE(LedgerHas("tenant.noisy.journal_throttle", &throttled_ns));
  EXPECT_GT(throttled_ns, 0u);
  EXPECT_FALSE(LedgerHas("tenant.quiet.journal_throttle"));

  EXPECT_EQ(router.Close(nfd), 0);
  EXPECT_EQ(router.Close(qfd), 0);
  ASSERT_EQ(router.Unmount("noisy"), 0);
  EXPECT_FALSE(GaugeExists("tenant.noisy.journal_credits"));
  EXPECT_TRUE(GaugeExists("tenant.quiet.staging_tokens"));
}

// Shared-journal attribution: a tenant's fsync commits the shared journal on the
// calling thread, and tenant.<id>.commit_service_ns credits that commit's service
// time to it. A mounted tenant that never commits reads 0, and the gauge goes with
// the mount. Async relink is off: its publish runs off the clock and is not
// attributed.
TEST_F(TenantTest, CommitServiceIsAttributedToTheCommittingTenant) {
  TenantRouter router(&kfs_);
  for (const char* id : {"a", "b", "idle"}) {
    ASSERT_EQ(router.Mount(id, SmallTenant(Mode::kPosix, /*async=*/false)), 0);
  }
  const std::string rec(4096, 'r');
  for (const char* id : {"a", "b"}) {
    int fd = router.Open(std::string("/").append(id).append("/log"),
                         vfs::kCreate | vfs::kRdWr);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(router.Write(fd, rec.data(), rec.size()),
              static_cast<ssize_t>(rec.size()));
    ASSERT_EQ(router.Fsync(fd), 0);  // New file + staged append: forces a commit.
    ASSERT_EQ(router.Close(fd), 0);
  }
  int idle_fd = router.Open("/idle/log", vfs::kCreate | vfs::kRdWr);
  ASSERT_GE(idle_fd, 0);  // Dirties the running transaction, never commits it.

  uint64_t a_ns = 0, b_ns = 0, idle_ns = 1;
  ASSERT_TRUE(GaugeExists("tenant.a.commit_service_ns", &a_ns));
  ASSERT_TRUE(GaugeExists("tenant.b.commit_service_ns", &b_ns));
  ASSERT_TRUE(GaugeExists("tenant.idle.commit_service_ns", &idle_ns));
  EXPECT_GT(a_ns, 0u);
  EXPECT_GT(b_ns, 0u);
  EXPECT_EQ(idle_ns, 0u);

  for (const char* id : {"a", "b", "idle"}) {
    ASSERT_EQ(router.Unmount(id), 0);
    EXPECT_FALSE(
        GaugeExists(std::string("tenant.").append(id).append(".commit_service_ns")));
  }
}

// Staging-file admission pacing: a tenant that churns through staging files waits
// on its own tenant.<id>.staging_throttle, visible in the ledger.
TEST_F(TenantTest, StagingTokensThrottleAndAttribute) {
  TenantRouter router(&kfs_);
  TenantOptions hog = SmallTenant(Mode::kPosix, /*async=*/false);
  hog.fs.replenish_thread = false;  // Inline refill: the foreground pays the toll.
  hog.staging_tokens_per_sec = 10.0;  // One staging file per 100 simulated ms.
  ASSERT_EQ(router.Mount("hog", hog), 0);

  int fd = router.Open("/hog/big", vfs::kCreate | vfs::kRdWr);
  ASSERT_GE(fd, 0);
  const std::string chunk(256 * 1024, 'h');
  for (int i = 0; i < 24; ++i) {  // 6 MiB through 1 MiB staging files.
    ASSERT_EQ(router.Write(fd, chunk.data(), chunk.size()),
              static_cast<ssize_t>(chunk.size()));
  }
  uint64_t throttled_ns = 0;
  EXPECT_TRUE(LedgerHas("tenant.hog.staging_throttle", &throttled_ns));
  EXPECT_GT(throttled_ns, 0u);
  EXPECT_EQ(router.Close(fd), 0);
}

// Router fd/path tables under tenant churn: mounts, unmounts, opens, writes, and
// stats race on the shared maps (the TSan cell for this PR). Two long-lived
// tenants keep traffic flowing through the shared pools the whole time.
TEST_F(TenantTest, ChurnRacesOpensAndWrites) {
  TenantRouter router(&kfs_);
  ASSERT_EQ(router.Mount("w0", SmallTenant(Mode::kPosix, /*async=*/true)), 0);
  ASSERT_EQ(router.Mount("w1", SmallTenant(Mode::kStrict, /*async=*/true)), 0);

  constexpr int kRounds = 60;
  std::atomic<bool> stop{false};
  std::atomic<int> churn_mounts{0};

  // Steady writers on the long-lived tenants.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      const std::string path = "/w" + std::to_string(w) + "/stream";
      const std::string rec(1024, static_cast<char>('a' + w));
      while (!stop.load(std::memory_order_acquire)) {
        int fd = router.Open(path, vfs::kCreate | vfs::kRdWr | vfs::kAppend);
        if (fd < 0) {
          continue;
        }
        router.Write(fd, rec.data(), rec.size());
        router.Fsync(fd);
        router.Close(fd);
      }
    });
  }
  // Churn: mount, use, unmount a transient tenant, repeatedly.
  std::thread churner([&] {
    for (int i = 0; i < kRounds; ++i) {
      const std::string id = "churn" + std::to_string(i % 4);
      if (router.Mount(id, SmallTenant(Mode::kPosix, /*async=*/true)) != 0) {
        continue;
      }
      churn_mounts.fetch_add(1, std::memory_order_relaxed);
      int fd = router.Open("/" + id + "/f", vfs::kCreate | vfs::kRdWr);
      if (fd >= 0) {
        const std::string rec(2048, 'c');
        router.Write(fd, rec.data(), rec.size());
        router.Fsync(fd);
        router.Close(fd);
      }
      ASSERT_EQ(router.Unmount(id), 0);
    }
  });
  // Prober: stats and opens against namespaces that appear and disappear.
  std::thread prober([&] {
    vfs::StatBuf st{};
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 4; ++i) {
        const std::string path = "/churn" + std::to_string(i) + "/f";
        int rc = router.Stat(path, &st);
        ASSERT_TRUE(rc == 0 || rc == -ENOENT) << rc;
        int fd = router.Open(path, vfs::kRdOnly);
        if (fd >= 0) {
          char c = 0;
          ssize_t r = router.Pread(fd, &c, 1, 0);
          ASSERT_TRUE(r >= 0 || r == -EBADF) << r;
          router.Close(fd);
        } else {
          ASSERT_TRUE(fd == -ENOENT || fd == -EBADF) << fd;
        }
      }
    }
  });

  churner.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : writers) {
    t.join();
  }
  prober.join();

  EXPECT_GT(churn_mounts.load(), 0);
  EXPECT_EQ(router.TenantCount(), 2u);
  vfs::StatBuf st{};
  ASSERT_EQ(router.Stat("/w0/stream", &st), 0);
  EXPECT_GT(st.size, 0u);
  ASSERT_EQ(router.Stat("/w1/stream", &st), 0);
  EXPECT_GT(st.size, 0u);
}

}  // namespace
