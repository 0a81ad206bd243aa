// Multi-tenant QoS bench: N namespace-rooted tenants behind one TenantRouter, a
// strict-mode tenant running an fsync storm against POSIX-mode neighbors, with the
// per-tenant journal-credit throttle on vs off.
//
// Time model: every worker binds a sim::Clock::Lane and runs a CLOSED LOOP against
// a fixed virtual-time window — it issues operations until its own lane passes the
// deadline. That is what makes the QoS comparison meaningful: the shared journal
// renders one second of commit service per second (ResourceStamp busy-time), so
// within a fixed window an unthrottled storm can fill the entire window with commit
// service — every neighbor's fsync fast-forwards past it (starvation bounded only
// by the storm's real-time rate). With credits on, the storm's own lane is paced to
// its refill horizon, capping the commit service it can inject per virtual second;
// the neighbor's p99 degrades by a bounded factor instead.
//
//   bench_multitenant [--json] [--schema-check]
//     --json          additionally writes BENCH_multitenant.json (schema_version 2:
//                     per-tenant latency percentiles + contention ledger +
//                     p99 degradation factors vs the storm-free baseline)
//     --schema-check  validates the committed BENCH_multitenant.json against the
//                     schema_version 2 key set; nonzero exit on a regression
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/threading.h"
#include "src/obs/histogram.h"
#include "src/tenant/tenant_router.h"

namespace {

constexpr uint64_t kWindowNs = 10'000'000;  // 10 ms of virtual time per run.
constexpr uint64_t kAppOpBytes = 4096;
constexpr uint64_t kAppFsyncEvery = 32;
// The storm tenant always runs 4 threads — a misbehaving multi-threaded tenant —
// regardless of how many threads the well-behaved app tenants run.
constexpr int kStormThreads = 4;
// QoS-on pacing for the storm tenant: 5000 forced commits per virtual second
// (50 per window), burst 4.
constexpr double kStormCreditsPerSec = 5000.0;
constexpr double kStormCreditBurst = 4.0;

enum class Variant { kSolo, kQosOff, kQosOn };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kSolo:
      return "solo";
    case Variant::kQosOff:
      return "qos_off";
    case Variant::kQosOn:
      return "qos_on";
  }
  return "?";
}

struct WorkerResult {
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t elapsed_ns = 0;  // Lane delta: deadline loops end just past the window.
  obs::LatencyHistogram latency;
  // App workers only: latency of the write+fsync ops. The fsync is the operation
  // that commits through the SHARED journal, so its tail — not the all-ops tail,
  // which the 31 staging-only appends between fsyncs dilute — is where cross-tenant
  // interference lands.
  obs::LatencyHistogram fsync_latency;
};

struct TenantResult {
  std::string id;
  std::string mode;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t elapsed_ns = 0;  // max over the tenant's workers
  obs::LatencyHistogram latency;
  obs::LatencyHistogram fsync_latency;
  double OpsPerSec() const {
    return elapsed_ns == 0
               ? 0
               : static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed_ns);
  }
};

struct RunResult {
  std::vector<TenantResult> tenants;
  std::vector<std::pair<std::string, obs::ContentionLedger::Entry>> contention;
  // Aggregate across the POSIX app tenants (the neighbors the storm degrades).
  obs::LatencyHistogram app_latency;
  obs::LatencyHistogram app_fsync_latency;
  uint64_t app_ops = 0;
  uint64_t errors = 0;
};

// Closed-loop app worker: append kAppOpBytes, fsync every kAppFsyncEvery ops,
// until the worker's own lane passes the virtual deadline. The periodic fsync
// relinks through the SHARED journal (relink ends in a running-transaction
// commit), which is the surface the storm contends on.
void RunAppWorker(tenant::TenantRouter* router, sim::Clock* clock,
                  const std::string& path, size_t lane_index, WorkerResult* out) {
  common::ScopedThreadLane pin(lane_index);
  sim::Clock::Lane lane(clock);
  const uint64_t t0 = lane.Now();
  const uint64_t deadline = t0 + kWindowNs;
  int fd = router->Open(path, vfs::kCreate | vfs::kRdWr | vfs::kAppend);
  if (fd < 0) {
    out->errors += 1;
    return;
  }
  std::string buf(kAppOpBytes, 'm');
  while (lane.Now() < deadline) {
    uint64_t s = lane.Now();
    if (router->Write(fd, buf.data(), buf.size()) !=
        static_cast<ssize_t>(buf.size())) {
      out->errors += 1;
    }
    out->ops += 1;
    bool synced = out->ops % kAppFsyncEvery == 0;
    if (synced && router->Fsync(fd) != 0) {
      out->errors += 1;
    }
    uint64_t d = lane.Now() - s;
    out->latency.Record(d);
    if (synced) {
      out->fsync_latency.Record(d);
    }
  }
  router->Close(fd);
  out->elapsed_ns = lane.Now() - t0;
}

// Closed-loop storm worker: strict-mode fsync storm — 4 KiB append + fsync every
// op with synchronous publication, so every single op relinks and commits through
// the SHARED journal. Unthrottled, the storm streams commit service into the
// shared commit stamp for its whole window; every neighbor fsync that lands
// behind it fast-forwards past that service. The relink commit is the path the
// per-tenant journal credit throttles.
void RunStormWorker(tenant::TenantRouter* router, sim::Clock* clock,
                    const std::string& tenant, size_t lane_index,
                    WorkerResult* out) {
  common::ScopedThreadLane pin(lane_index);
  sim::Clock::Lane lane(clock);
  const uint64_t t0 = lane.Now();
  const uint64_t deadline = t0 + kWindowNs;
  std::string path = "/" + tenant + "/storm-" + std::to_string(lane_index);
  int fd = router->Open(path, vfs::kCreate | vfs::kRdWr | vfs::kAppend);
  if (fd < 0) {
    out->errors += 1;
    return;
  }
  std::string buf(kAppOpBytes, 's');
  while (lane.Now() < deadline) {
    uint64_t s = lane.Now();
    if (router->Write(fd, buf.data(), buf.size()) !=
        static_cast<ssize_t>(buf.size())) {
      out->errors += 1;
    }
    if (router->Fsync(fd) != 0) {
      out->errors += 1;
    }
    out->ops += 1;
    out->latency.Record(lane.Now() - s);
  }
  router->Close(fd);
  out->elapsed_ns = lane.Now() - t0;
}

tenant::TenantOptions AppTenant() {
  tenant::TenantOptions t;
  t.fs.mode = splitfs::Mode::kPosix;
  t.fs.num_staging_files = 3;
  t.fs.staging_file_bytes = 8 * common::kMiB;
  t.fs.oplog_bytes = 4 * common::kMiB;
  t.fs.replenish_thread = true;  // Shared replenisher pool.
  // Synchronous publication: the neighbor's periodic fsync relinks and commits
  // through the SHARED journal, which is exactly the surface the storm contends
  // on. (async_relink would ack at the intent fence and hide the interference.)
  t.fs.async_relink = false;
  return t;
}

tenant::TenantOptions StormTenant(bool qos) {
  tenant::TenantOptions t;
  t.fs.mode = splitfs::Mode::kStrict;
  t.fs.num_staging_files = 3;
  t.fs.staging_file_bytes = 8 * common::kMiB;
  t.fs.oplog_bytes = 4 * common::kMiB;
  t.fs.replenish_thread = true;
  // Synchronous publication: every fsync forces its commit through the shared
  // journal on the worker's own timeline — the §5 storm shape.
  t.fs.async_relink = false;
  if (qos) {
    t.journal_credits_per_sec = kStormCreditsPerSec;
    t.journal_credit_burst = kStormCreditBurst;
  }
  return t;
}

// One scenario cell: `app_tenants` POSIX tenants (plus one strict storm tenant in
// the storm variants), `threads` workers per tenant, all through one router.
RunResult RunScenario(int app_tenants, int threads, Variant variant) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 2 * common::kGiB);
  ext4sim::Ext4Dax kfs(&dev);
  // Journal commits run on the thread that forces them: each committer renders its
  // commit's service time on its own lane, into the shared commit stamp. That is
  // the sharpest honest model of the contended journal — the storm's threads stream
  // service into the stamp in parallel, and every neighbor commit fast-forwards
  // past it.
  tenant::TenantRouter router(&kfs);

  const bool storm = variant != Variant::kSolo;
  if (storm) {
    router.Mount("noisy", StormTenant(variant == Variant::kQosOn));
  }
  for (int t = 0; t < app_tenants; ++t) {
    router.Mount("app" + std::to_string(t), AppTenant());
  }
  ctx.Reset();  // Setup (mounts, staging pre-creation) is not part of the window.

  struct Job {
    std::string tenant;
    bool is_storm;
    std::vector<WorkerResult> results;
  };
  std::vector<Job> jobs;
  if (storm) {
    jobs.push_back({"noisy", /*is_storm=*/true, {}});
  }
  for (int t = 0; t < app_tenants; ++t) {
    jobs.push_back({"app" + std::to_string(t), /*is_storm=*/false, {}});
  }
  for (Job& job : jobs) {
    job.results.resize(job.is_storm ? kStormThreads : threads);
  }

  std::vector<std::thread> workers;
  size_t lane_index = 0;
  for (Job& job : jobs) {
    for (size_t w = 0; w < job.results.size(); ++w) {
      if (job.is_storm) {
        workers.emplace_back(RunStormWorker, &router, &ctx.clock, job.tenant,
                             lane_index++, &job.results[w]);
      } else {
        std::string path = "/" + job.tenant + "/bench-w" + std::to_string(w);
        workers.emplace_back(RunAppWorker, &router, &ctx.clock, path,
                             lane_index++, &job.results[w]);
      }
    }
  }
  for (std::thread& w : workers) {
    w.join();
  }

  RunResult run;
  for (Job& job : jobs) {
    TenantResult tr;
    tr.id = job.tenant;
    tr.mode = job.tenant == "noisy" ? "strict" : "posix";
    for (const WorkerResult& w : job.results) {
      tr.ops += w.ops;
      tr.errors += w.errors;
      tr.elapsed_ns = std::max(tr.elapsed_ns, w.elapsed_ns);
      tr.latency.MergeFrom(w.latency);
      tr.fsync_latency.MergeFrom(w.fsync_latency);
    }
    run.errors += tr.errors;
    if (job.tenant != "noisy") {
      run.app_ops += tr.ops;
      run.app_latency.MergeFrom(tr.latency);
      run.app_fsync_latency.MergeFrom(tr.fsync_latency);
    }
    run.tenants.push_back(std::move(tr));
  }
  run.contention = ctx.obs.ledger.Snapshot();
  return run;
}

struct Cell {
  int app_tenants = 0;
  int threads = 0;
  Variant variant = Variant::kSolo;
  RunResult run;
};

// Real-thread interleaving makes a single closed-loop run's tail noisy; each cell
// reports the run with the median app-fsync p99 out of three.
RunResult RunScenarioMedian(int app_tenants, int threads, Variant variant) {
  std::vector<RunResult> runs;
  for (int i = 0; i < 3; ++i) {
    runs.push_back(RunScenario(app_tenants, threads, variant));
  }
  std::sort(runs.begin(), runs.end(), [](const RunResult& a, const RunResult& b) {
    return a.app_fsync_latency.Percentile(0.99) <
           b.app_fsync_latency.Percentile(0.99);
  });
  return std::move(runs[1]);
}

int SchemaCheck() {
  FILE* f = std::fopen("BENCH_multitenant.json", "r");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL schema-check: BENCH_multitenant.json not found\n");
    return 1;
  }
  std::string blob;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    blob.append(buf, n);
  }
  std::fclose(f);
  int rc = 0;
  for (const char* key :
       {"\"schema_version\": 2", "\"bench\": \"multitenant\"", "\"window_ns\"",
        "\"app_tenants\"", "\"threads_per_tenant\"", "\"variant\"", "\"per_tenant\"",
        "\"latency_ns\"", "\"p99\"", "\"fsync_p99_ns\"", "\"contention\"",
        "\"degradation_p99\"", "\"errors\"", "qos_off", "qos_on"}) {
    if (blob.find(key) == std::string::npos) {
      std::fprintf(stderr, "FAIL schema-check: missing %s\n", key);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("schema-check: PASS\n");
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool schema_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--schema-check") == 0) {
      schema_check = true;
    }
  }
  if (schema_check && !json) {
    return SchemaCheck();
  }

  bench::PrintHeader(
      "Multi-tenant QoS: strict fsync storm vs POSIX neighbors (TenantRouter)",
      "tenants x threads x mode mix; closed loops over a fixed virtual window");

  const int kAppTenantCounts[] = {1, 3, 7};  // +1 storm tenant in storm variants
  const int kThreadCounts[] = {1, 2};
  const Variant kVariants[] = {Variant::kSolo, Variant::kQosOff, Variant::kQosOn};

  std::vector<Cell> cells;
  std::printf("%-8s %8s %9s %12s %12s %14s %14s %10s\n", "variant", "tenants",
              "threads", "app ops", "app p99", "app fsync p99", "fsync degrade",
              "errors");
  for (int app_tenants : kAppTenantCounts) {
    uint64_t solo_fp99 = 0;
    for (int threads : kThreadCounts) {
      for (Variant variant : kVariants) {
        Cell cell;
        cell.app_tenants = app_tenants;
        cell.threads = threads;
        cell.variant = variant;
        cell.run = RunScenarioMedian(app_tenants, threads, variant);
        uint64_t fp99 = cell.run.app_fsync_latency.Percentile(0.99);
        if (variant == Variant::kSolo) {
          solo_fp99 = fp99;
        }
        double degrade = solo_fp99 > 0 ? static_cast<double>(fp99) /
                                             static_cast<double>(solo_fp99)
                                       : 0.0;
        std::printf("%-8s %8d %9d %12llu %12llu %14llu %13.1fx %10llu\n",
                    VariantName(variant), app_tenants + (variant == Variant::kSolo ? 0 : 1),
                    threads, static_cast<unsigned long long>(cell.run.app_ops),
                    static_cast<unsigned long long>(cell.run.app_latency.Percentile(0.99)),
                    static_cast<unsigned long long>(fp99), degrade,
                    static_cast<unsigned long long>(cell.run.errors));
        std::fflush(stdout);
        cells.push_back(std::move(cell));
      }
    }
  }

  // The acceptance claim, printed where it can be eyeballed: the app fsync is the
  // op that commits through the shared journal. With credits on, its p99
  // degradation stays a bounded factor; with them off, the storm's commit service
  // lands in the neighbors' fsync tail.
  std::printf("\n--- app fsync p99 degradation (vs storm-free baseline, same cell) ---\n");
  for (size_t i = 0; i < cells.size(); i += 3) {
    uint64_t solo = cells[i].run.app_fsync_latency.Percentile(0.99);
    uint64_t off = cells[i + 1].run.app_fsync_latency.Percentile(0.99);
    uint64_t on = cells[i + 2].run.app_fsync_latency.Percentile(0.99);
    std::printf("apps=%d threads=%d: qos_off %.1fx, qos_on %.1fx\n",
                cells[i].app_tenants, cells[i].threads,
                solo > 0 ? static_cast<double>(off) / solo : 0.0,
                solo > 0 ? static_cast<double>(on) / solo : 0.0);
  }

  if (json) {
    FILE* f = std::fopen("BENCH_multitenant.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_multitenant.json\n");
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"multitenant\",\n  \"schema_version\": 2,\n");
    std::fprintf(f, "  \"window_ns\": %llu,\n",
                 static_cast<unsigned long long>(kWindowNs));
    std::fprintf(f, "  \"time_model\": \"simulated per-thread lanes; closed loops "
                    "against a fixed virtual deadline\",\n");
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      // Baseline cell of this (app_tenants, threads) group: variant order is
      // solo, qos_off, qos_on.
      uint64_t solo_p99 = cells[i - (i % 3)].run.app_fsync_latency.Percentile(0.99);
      uint64_t p99 = c.run.app_fsync_latency.Percentile(0.99);
      std::fprintf(f,
                   "    {\"app_tenants\": %d, \"threads_per_tenant\": %d, "
                   "\"variant\": \"%s\",\n",
                   c.app_tenants, c.threads, VariantName(c.variant));
      std::fprintf(f, "     \"degradation_p99\": %.2f, \"errors\": %llu,\n",
                   solo_p99 > 0 ? static_cast<double>(p99) / solo_p99 : 0.0,
                   static_cast<unsigned long long>(c.run.errors));
      std::fprintf(f, "     \"per_tenant\": [\n");
      for (size_t t = 0; t < c.run.tenants.size(); ++t) {
        const TenantResult& tr = c.run.tenants[t];
        std::fprintf(f,
                     "      {\"id\": \"%s\", \"mode\": \"%s\", \"ops\": %llu, "
                     "\"ops_per_sec\": %.0f, \"latency_ns\": {\"p50\": %llu, "
                     "\"p95\": %llu, \"p99\": %llu, \"max\": %llu}, "
                     "\"fsync_p99_ns\": %llu}%s\n",
                     tr.id.c_str(), tr.mode.c_str(),
                     static_cast<unsigned long long>(tr.ops), tr.OpsPerSec(),
                     static_cast<unsigned long long>(tr.latency.Percentile(0.50)),
                     static_cast<unsigned long long>(tr.latency.Percentile(0.95)),
                     static_cast<unsigned long long>(tr.latency.Percentile(0.99)),
                     static_cast<unsigned long long>(tr.latency.Max()),
                     static_cast<unsigned long long>(
                         tr.fsync_latency.Percentile(0.99)),
                     t + 1 == c.run.tenants.size() ? "" : ",");
      }
      std::fprintf(f, "     ],\n     \"contention\": [");
      for (size_t k = 0; k < c.run.contention.size(); ++k) {
        const auto& [resource, e] = c.run.contention[k];
        std::fprintf(f,
                     "%s{\"resource\": \"%s\", \"waits\": %llu, "
                     "\"waited_ns\": %llu}",
                     k == 0 ? "" : ", ", resource.c_str(),
                     static_cast<unsigned long long>(e.waits),
                     static_cast<unsigned long long>(e.waited_ns));
      }
      std::fprintf(f, "]}%s\n", i + 1 == cells.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_multitenant.json\n");
  }
  if (schema_check) {
    return SchemaCheck();
  }
  return 0;
}
