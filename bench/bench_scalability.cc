// Multithreaded scalability of the concurrent U-Split: sweeps 1..16 application
// threads over five workloads per consistency mode and reports aggregate ops/s.
// shared_hot_file is the range-granular inode-lock column: N threads overwrite
// disjoint 4 KB strides of ONE preallocated file, so its scaling is exactly the
// lock granularity of the shared-file write path.
//
// Not a figure from the paper — the paper's evaluation is single-application — but
// the workloads are its §5 staples (appends+fsync, random reads, YCSB-A over the
// LevelDB-shaped store). Time is the simulated clock's per-thread lane model: each
// worker accrues its own virtual timeline; elapsed = slowest worker; code serialized
// by real locks (K-Split's kernel lock, contended file ranges, the staging slow path)
// fast-forwards waiters, so the reported scaling honestly reflects the lock
// granularity of the implementation rather than the host's core count.
//
//   bench_scalability [--json] [--histograms] [--trace=<file>] [--repeat-check]
//                     [--schema-check]
//     --json          additionally writes BENCH_scalability.json (schema_version 2:
//                     per-cell latency percentiles + per-series contention breakdown)
//     --histograms    prints a per-cell latency table (p50/p95/p99/max, virtual ns)
//     --trace=<file>  runs one traced fsync-storm pass (tracing on, fsync every op,
//                     nonzero commit interval) and writes a Chrome-trace/Perfetto
//                     JSON to <file>; given alone, skips the scalability sweep.
//                     The pass self-checks: writeout spans must number fewer than
//                     fsyncs (commit coalescing merged them) and the per-thread
//                     reconciliation identity must hold — nonzero exit otherwise
//     --repeat-check  determinism gates: 1-thread cells (helpers off) must be
//                     bit-identical and 8-thread cells must repeat within 1%, for
//                     both the posix append cell (the PR 6 lane-hash wobble gate)
//                     and the shared_hot_file cell (strict solo / sync at 8 — the
//                     range-granular inode-lock gate)
//     --schema-check  validates the committed BENCH_scalability.json against the
//                     schema_version 2 key set; nonzero exit on a regression
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/ext4/ext4_dax.h"

#include "bench/bench_util.h"
#include "src/obs/obs.h"
#include "src/workloads/parallel.h"

namespace {

using bench::FsKind;
using bench::Testbed;

constexpr int kThreadCounts[] = {1, 2, 4, 8, 16};

struct Cell {
  int threads = 0;
  double ops_per_sec = 0;
  uint64_t errors = 0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
};

struct Series {
  std::string workload;
  std::string mode;
  std::vector<Cell> cells;
  // Contention ledger snapshot of the 8-thread cell: which serial resource the
  // fast-forwarded wait time went to, per resource name.
  std::vector<std::pair<std::string, obs::ContentionLedger::Entry>> contention_at_8;
};

splitfs::Options ConcurrentOptions() {
  splitfs::Options o;
  // Real §3.5 replenisher thread: staging files are pre-created off the workers'
  // critical path. (Deterministic single-threaded tests keep it off; here the whole
  // point is concurrency.)
  o.replenish_thread = true;
  // Async relink publication: fsync acks once the relink intent is fenced; the
  // relink ioctls and their journal commit then run with their cost rewound off
  // the worker's clock, which keeps every cell reproducible run-to-run.
  o.async_relink = true;
  // Pre-size the pool for the 16-thread sweep point (16 lanes x one 16 MiB active
  // file): pool exhaustion mid-run would serialize every worker behind foreground
  // staging-file creation, which is exactly the §3.5 problem pre-creation solves.
  o.num_staging_files = 18;
  o.staging_file_bytes = 16 * common::kMiB;
  o.oplog_bytes = 16 * common::kMiB;  // 256 K entries; ample for every sweep point.
  return o;
}

wl::ParallelResult RunWorkload(const char* workload, Testbed* bed, int threads) {
  vfs::FileSystem* fs = bed->fs();
  sim::Clock* clock = &bed->ctx()->clock;
  if (std::strcmp(workload, "append_heavy") == 0) {
    // Disjoint-file appends, 4 KB ops, fsync every 256 ops: the acceptance workload.
    return wl::RunParallelAppend(fs, clock, threads, "/scal-append",
                                 /*bytes_per_thread=*/8 * common::kMiB,
                                 /*op_bytes=*/4096, /*fsync_every=*/256);
  }
  if (std::strcmp(workload, "read_heavy") == 0) {
    return wl::RunParallelRead(fs, clock, threads, "/scal-read",
                               /*file_bytes=*/8 * common::kMiB, /*op_bytes=*/4096,
                               /*ops_per_thread=*/4000, /*seed=*/42);
  }
  if (std::strcmp(workload, "shared_hot_file") == 0) {
    // One preallocated file, every thread overwriting disjoint 4 KB strides
    // in-size: the range-granular inode-lock acceptance workload. Pre-PR this
    // serialized on the whole-inode lock in sync and strict modes.
    return wl::RunParallelSharedHotFile(fs, clock, threads, "/scal-hot",
                                        /*bytes_per_thread=*/2 * common::kMiB,
                                        /*op_bytes=*/4096);
  }
  if (std::strcmp(workload, "ycsb_c") == 0) {
    // Read-heavy YCSB-C phase: 100% zipfian gets against pre-flushed SSTables —
    // every get walks U-Split's pread path and its lock-free mmap translation.
    return wl::RunParallelYcsbC(fs, clock, threads, "/scal-ycsbc",
                                /*records_per_thread=*/1000,
                                /*ops_per_thread=*/3000, /*seed=*/42);
  }
  return wl::RunParallelYcsbA(fs, clock, threads, "/scal-ycsb",
                              /*records_per_thread=*/1000, /*ops_per_thread=*/2000,
                              /*seed=*/42);
}

// Storm options: synchronous publish (no async intents), so every fsync drives the
// kernel journal on the worker's own lane — the traffic shape commit coalescing
// amortizes. The staging/replenisher knobs match ConcurrentOptions.
splitfs::Options StormOptions() {
  splitfs::Options o = ConcurrentOptions();
  o.async_relink = false;
  return o;
}

wl::ParallelResult RunFsyncStorm(Testbed* bed, int threads) {
  // 4 KB appends, fsync EVERY op: each op is a journal commit request.
  return wl::RunParallelAppend(bed->fs(), &bed->ctx()->clock, threads, "/storm",
                               /*bytes_per_thread=*/1 * common::kMiB,
                               /*op_bytes=*/4096, /*fsync_every=*/1);
}

// Traced fsync-storm pass (--trace): every append fsyncs, so the journal pipeline
// and wait spans all light up, and the nonzero commit interval merges racing
// commits. The pass validates two invariants and fails on a regression:
//   1. Merge identity: strictly fewer journal.writeout spans than fsync calls
//      (coalescing amortized the writeouts).
//   2. Reconciliation identity: per worker thread, Σ top-level span durations
//      matches that worker's share of virtual time — the slowest worker's sum must
//      reconcile with the reported elapsed within 5%.
int WriteStormTrace(const std::string& path) {
  splitfs::Options o = StormOptions();
  o.tracing = true;
  ext4sim::Ext4Options eo;
  eo.commit_interval_ns = 20'000;
  Testbed bed(FsKind::kSplitSync, 2 * common::kGiB, o, eo);
  bed.ctx()->obs.tracer.Enable();
  wl::ParallelResult r =
      wl::RunParallelAppend(bed.fs(), &bed.ctx()->clock, /*threads=*/4, "/trace-append",
                            /*bytes_per_thread=*/2 * common::kMiB, /*op_bytes=*/4096,
                            /*fsync_every=*/1);
  if (r.errors != 0) {
    std::fprintf(stderr, "traced fsync-storm pass reported %llu errors\n",
                 static_cast<unsigned long long>(r.errors));
    return 1;
  }
  if (!bed.ctx()->obs.tracer.ExportChromeTrace(path)) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return 1;
  }

  uint64_t fsyncs = 0;
  uint64_t writeouts = 0;
  uint64_t windows = 0;
  std::map<uint32_t, uint64_t> top_level_ns;  // tracer tid -> Σ depth-0 durations
  bed.ctx()->obs.tracer.ForEachSpan([&](const obs::SpanRecord& s) {
    if (std::strcmp(s.name, "splitfs.fsync") == 0) {
      ++fsyncs;
    } else if (std::strcmp(s.name, "journal.writeout") == 0) {
      ++writeouts;
    } else if (std::strcmp(s.name, "journal.commit_window") == 0) {
      ++windows;
    }
    if (s.depth == 0) {
      top_level_ns[s.tid] += s.end_ns - s.start_ns;
    }
  });
  std::printf("\nstorm trace: %llu fsyncs, %llu journal writeouts, %llu coalescing "
              "windows\n",
              static_cast<unsigned long long>(fsyncs),
              static_cast<unsigned long long>(writeouts),
              static_cast<unsigned long long>(windows));
  int rc = 0;
  if (writeouts == 0 || fsyncs == 0 || writeouts >= fsyncs) {
    std::fprintf(stderr,
                 "FAIL merge identity: expected 0 < writeouts < fsyncs, got "
                 "%llu writeouts / %llu fsyncs\n",
                 static_cast<unsigned long long>(writeouts),
                 static_cast<unsigned long long>(fsyncs));
    rc = 1;
  }
  uint64_t slowest = 0;
  for (const auto& [tid, ns] : top_level_ns) {
    slowest = std::max(slowest, ns);
  }
  double ratio = r.elapsed_ns > 0 ? static_cast<double>(slowest) /
                                        static_cast<double>(r.elapsed_ns)
                                  : 0.0;
  std::printf("reconciliation: slowest worker top-level spans %llu ns vs elapsed "
              "%llu ns (ratio %.4f)\n",
              static_cast<unsigned long long>(slowest),
              static_cast<unsigned long long>(r.elapsed_ns), ratio);
  if (ratio < 0.95 || ratio > 1.05) {
    std::fprintf(stderr, "FAIL reconciliation identity: ratio %.4f outside 5%%\n",
                 ratio);
    rc = 1;
  }
  std::printf("wrote %s (%llu spans, %llu dropped) — load in Perfetto or "
              "chrome://tracing\n",
              path.c_str(), static_cast<unsigned long long>(bed.ctx()->obs.tracer.SpanCount()),
              static_cast<unsigned long long>(bed.ctx()->obs.tracer.Drops()));
  return rc;
}

// --repeat-check: the PR 6 wobble gate for the posix append cell. PR 6's dominant
// nondeterminism was lane assignment hashing std::thread::id, so which workers
// shared a staging/op-log lane changed every run; RunWorkers now pins each worker
// to lane == worker index (common::ScopedThreadLane), which removed it.
//
// What remains — and is a DOCUMENTED EXCLUSION from bit-identity — is real-time
// scheduling order at shared virtual resources. The background staging replenisher
// and workers contending on the journal's ResourceStamp resolve "who waits on whom" in OS arrival order, which virtual time
// cannot pin without a lockstep scheduler. Measured residual wobble on the 8-thread
// cell is up to ~0.6%, quantized to single contention charges (e.g. one 670 ns
// staging-allocation step).
//
// The gate therefore asserts two things:
//   1. A 1-thread cell with background helpers off — every charge lands on the
//      worker's own lane, no cross-thread interaction — is bit-identical. This
//      validates the lane-pinning machinery itself.
//   2. The 8-thread cell as-benched repeats with identical ops/errors and elapsed
//      within 1% (above the observed scheduling residue, well below the several-%
//      PR 6 lane-hash wobble it gates against).
int RepeatCheck() {
  auto run_cell = [](const char* workload, FsKind kind, int threads, bool helpers) {
    splitfs::Options o = ConcurrentOptions();
    if (!helpers) {
      o.replenish_thread = false;  // documented exclusion, see above
      o.async_relink = false;      // documented exclusion, see above
    }
    Testbed bed(kind, 2 * common::kGiB, o);
    return RunWorkload(workload, &bed, threads);
  };
  int rc = 0;

  // One bit-identity cell and one repeatability cell per gated workload:
  //   - append_heavy/posix: the PR 6 lane-hash gate (disjoint files).
  //   - shared_hot_file: the range-lock gate — one file, 8 range-locked writers.
  //     The 1-thread cell runs strict, so the per-range op-log path itself (entry
  //     logging, epoch gate, range stamps) must charge nothing extra solo; the
  //     8-thread cell runs sync, the mode the >=3x acceptance criterion targets.
  struct Gate {
    const char* workload;
    FsKind solo_kind;
    const char* solo_name;
    FsKind hot_kind;
    const char* hot_name;
  };
  const Gate kGates[] = {
      {"append_heavy", FsKind::kSplitPosix, "posix append",
       FsKind::kSplitPosix, "posix append"},
      {"shared_hot_file", FsKind::kSplitStrict, "strict shared-hot-file",
       FsKind::kSplitSync, "sync shared-hot-file"},
  };
  for (const Gate& g : kGates) {
    wl::ParallelResult s1 = run_cell(g.workload, g.solo_kind, 1, /*helpers=*/false);
    wl::ParallelResult s2 = run_cell(g.workload, g.solo_kind, 1, /*helpers=*/false);
    std::printf("repeat-check[1T %s]: run1 %llu ns / %llu ops, run2 %llu ns / %llu "
                "ops\n",
                g.solo_name, static_cast<unsigned long long>(s1.elapsed_ns),
                static_cast<unsigned long long>(s1.ops),
                static_cast<unsigned long long>(s2.elapsed_ns),
                static_cast<unsigned long long>(s2.ops));
    if (s1.elapsed_ns != s2.elapsed_ns || s1.ops != s2.ops ||
        s1.errors != s2.errors) {
      std::fprintf(stderr, "FAIL repeat-check: 1-thread %s cell is not "
                           "bit-identical\n",
                   g.solo_name);
      rc = 1;
    }

    wl::ParallelResult a = run_cell(g.workload, g.hot_kind, 8, /*helpers=*/true);
    wl::ParallelResult b = run_cell(g.workload, g.hot_kind, 8, /*helpers=*/true);
    double drift = a.elapsed_ns > b.elapsed_ns
                       ? static_cast<double>(a.elapsed_ns - b.elapsed_ns) /
                             static_cast<double>(b.elapsed_ns)
                       : static_cast<double>(b.elapsed_ns - a.elapsed_ns) /
                             static_cast<double>(a.elapsed_ns);
    std::printf("repeat-check[8T %s]: run1 %llu ns / %llu ops, run2 %llu ns / %llu "
                "ops (drift %.4f%%)\n",
                g.hot_name, static_cast<unsigned long long>(a.elapsed_ns),
                static_cast<unsigned long long>(a.ops),
                static_cast<unsigned long long>(b.elapsed_ns),
                static_cast<unsigned long long>(b.ops), drift * 100.0);
    if (a.ops != b.ops || a.errors != b.errors || drift > 0.01) {
      std::fprintf(stderr, "FAIL repeat-check: 8-thread %s cell wobbled beyond "
                           "the scheduling-residue bound\n",
                   g.hot_name);
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("repeat-check: PASS (1T bit-identical, 8T within bound)\n");
  }
  return rc;
}

// --schema-check: cheap structural validation of the committed artifact — every
// schema_version 2 key the downstream tooling reads must be present.
int SchemaCheck() {
  FILE* f = std::fopen("BENCH_scalability.json", "r");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL schema-check: BENCH_scalability.json not found\n");
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
       {"\"schema_version\": 2", "\"threads\"", "\"ops_per_sec\"", "\"latency_ns\"",
        "\"contention_at_8\"", "\"speedup_at_8\"", "\"errors\"", "fsync_storm",
        "shared_hot_file"}) {
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
  bool histograms = false;
  bool repeat_check = false;
  bool schema_check = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--histograms") == 0) {
      histograms = true;
    } else if (std::strcmp(argv[i], "--repeat-check") == 0) {
      repeat_check = true;
    } else if (std::strcmp(argv[i], "--schema-check") == 0) {
      schema_check = true;
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    }
  }

  // Check-only invocations want their verdict, not a ten-minute sweep.
  if ((repeat_check || schema_check || !trace_path.empty()) && !json && !histograms) {
    int rc = 0;
    if (!trace_path.empty()) {
      rc |= WriteStormTrace(trace_path);
    }
    if (repeat_check) {
      rc |= RepeatCheck();
    }
    if (schema_check) {
      rc |= SchemaCheck();
    }
    return rc;
  }

  bench::PrintHeader("SplitFS multithreaded scalability (1..16 application threads)",
                     "concurrent U-Split refactor; workloads from §5.2/§5.5/§5.6");

  const FsKind kModes[] = {FsKind::kSplitPosix, FsKind::kSplitSync, FsKind::kSplitStrict};
  const char* kWorkloads[] = {"append_heavy", "read_heavy", "shared_hot_file",
                              "ycsb_a", "ycsb_c"};
  std::vector<Series> all;

  for (const char* workload : kWorkloads) {
    std::printf("\n--- %s ---\n", workload);
    std::printf("%-16s %8s %14s %10s %8s\n", "mode", "threads", "ops/s", "speedup", "errors");
    for (FsKind kind : kModes) {
      Series series;
      series.workload = workload;
      double base = 0;
      for (int threads : kThreadCounts) {
        // Fresh testbed per point: no cross-pollution of staging pools or caches.
        Testbed bed(kind, 2 * common::kGiB, ConcurrentOptions());
        series.mode = bed.fs()->Name() == "SplitFS-POSIX"  ? "posix"
                      : bed.fs()->Name() == "SplitFS-sync" ? "sync"
                                                           : "strict";
        wl::ParallelResult r = RunWorkload(workload, &bed, threads);
        double ops = r.OpsPerSec();
        if (threads == 1) {
          base = ops;
        }
        Cell cell;
        cell.threads = threads;
        cell.ops_per_sec = ops;
        cell.errors = r.errors;
        cell.p50_ns = r.latency.Percentile(0.50);
        cell.p95_ns = r.latency.Percentile(0.95);
        cell.p99_ns = r.latency.Percentile(0.99);
        cell.max_ns = r.latency.Max();
        series.cells.push_back(cell);
        if (threads == 8) {
          series.contention_at_8 = bed.ctx()->obs.ledger.Snapshot();
        }
        std::printf("%-16s %8d %14.0f %9.2fx %8llu\n", bed.fs()->Name().c_str(), threads,
                    ops, base > 0 ? ops / base : 0.0,
                    static_cast<unsigned long long>(r.errors));
        std::fflush(stdout);
      }
      all.push_back(std::move(series));
    }
  }

  // --- fsync storm: threads × commit-interval × journal-size ------------------------
  // Every op fsyncs through the kernel journal on the worker's own lane (sync
  // publish, no intent path), so the sweep isolates what the jbd2 knobs buy: the
  // coalescing window amortizes writeouts across racing fsyncs, and the journal
  // size decides how often commit service stalls in checkpoint writeback (visible
  // as journal.checkpoint in the contention breakdown).
  {
    const uint64_t kIntervalsNs[] = {0, 5'000, 20'000};
    const uint64_t kJournalBlocks[] = {256, 2048};
    std::printf("\n--- fsync_storm (sync mode; 4 KB appends, fsync every op) ---\n");
    std::printf("%-26s %8s %14s %10s %8s\n", "series", "threads", "ops/s", "speedup",
                "errors");
    for (uint64_t jblocks : kJournalBlocks) {
      for (uint64_t interval : kIntervalsNs) {
        Series series;
        series.workload = "fsync_storm_j" + std::to_string(jblocks) + "_i" +
                          std::to_string(interval) + "ns";
        series.mode = "sync";
        double base = 0;
        for (int threads : kThreadCounts) {
          ext4sim::Ext4Options eo;
          eo.journal_blocks = jblocks;
          eo.commit_interval_ns = interval;
          Testbed bed(FsKind::kSplitSync, 2 * common::kGiB, StormOptions(), eo);
          wl::ParallelResult r = RunFsyncStorm(&bed, threads);
          double ops = r.OpsPerSec();
          if (threads == 1) {
            base = ops;
          }
          Cell cell;
          cell.threads = threads;
          cell.ops_per_sec = ops;
          cell.errors = r.errors;
          cell.p50_ns = r.latency.Percentile(0.50);
          cell.p95_ns = r.latency.Percentile(0.95);
          cell.p99_ns = r.latency.Percentile(0.99);
          cell.max_ns = r.latency.Max();
          series.cells.push_back(cell);
          if (threads == 8) {
            series.contention_at_8 = bed.ctx()->obs.ledger.Snapshot();
          }
          std::printf("%-26s %8d %14.0f %9.2fx %8llu\n", series.workload.c_str(),
                      threads, ops, base > 0 ? ops / base : 0.0,
                      static_cast<unsigned long long>(r.errors));
          std::fflush(stdout);
        }
        all.push_back(std::move(series));
      }
    }
  }

  if (histograms) {
    std::printf("\n--- per-op latency (virtual ns; log-bucket upper bounds) ---\n");
    std::printf("%-14s %-8s %8s %10s %10s %10s %10s\n", "workload", "mode", "threads",
                "p50", "p95", "p99", "max");
    for (const Series& s : all) {
      for (const Cell& c : s.cells) {
        std::printf("%-14s %-8s %8d %10llu %10llu %10llu %10llu\n", s.workload.c_str(), s.mode.c_str(),
                    c.threads, static_cast<unsigned long long>(c.p50_ns),
                    static_cast<unsigned long long>(c.p95_ns),
                    static_cast<unsigned long long>(c.p99_ns),
                    static_cast<unsigned long long>(c.max_ns));
      }
    }
    std::printf("\n--- contention at 8 threads (virtual-time fast-forwards by resource) ---\n");
    std::printf("%-14s %-8s %-28s %8s %14s %12s\n", "workload", "mode", "resource",
                "waits", "waited_ns", "max_wait_ns");
    for (const Series& s : all) {
      if (s.contention_at_8.empty()) {
        std::printf("%-14s %-8s %-28s %8s %14s %12s\n", s.workload.c_str(),
                    s.mode.c_str(), "(none)", "-", "-", "-");
        continue;
      }
      for (const auto& [resource, e] : s.contention_at_8) {
        std::printf("%-14s %-8s %-28s %8llu %14llu %12llu\n", s.workload.c_str(), s.mode.c_str(),
                    resource.c_str(), static_cast<unsigned long long>(e.waits),
                    static_cast<unsigned long long>(e.waited_ns),
                    static_cast<unsigned long long>(e.max_wait_ns));
      }
    }
  }

  if (json) {
    FILE* f = std::fopen("BENCH_scalability.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_scalability.json\n");
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"scalability\",\n  \"schema_version\": 2,\n");
    std::fprintf(f, "  \"threads\": [1, 2, 4, 8, 16],\n");
    std::fprintf(f, "  \"time_model\": \"simulated per-thread lanes (max over workers)\",\n");
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < all.size(); ++i) {
      const Series& s = all[i];
      std::fprintf(f, "    {\"workload\": \"%s\", \"mode\": \"%s\", \"ops_per_sec\": {",
                   s.workload.c_str(), s.mode.c_str());
      for (size_t c = 0; c < s.cells.size(); ++c) {
        std::fprintf(f, "%s\"%d\": %.0f", c == 0 ? "" : ", ", s.cells[c].threads,
                     s.cells[c].ops_per_sec);
      }
      std::fprintf(f, "},\n     \"latency_ns\": {");
      for (size_t c = 0; c < s.cells.size(); ++c) {
        const Cell& cell = s.cells[c];
        std::fprintf(f,
                     "%s\"%d\": {\"p50\": %llu, \"p95\": %llu, \"p99\": %llu, "
                     "\"max\": %llu}",
                     c == 0 ? "" : ", ", cell.threads,
                     static_cast<unsigned long long>(cell.p50_ns),
                     static_cast<unsigned long long>(cell.p95_ns),
                     static_cast<unsigned long long>(cell.p99_ns),
                     static_cast<unsigned long long>(cell.max_ns));
      }
      std::fprintf(f, "},\n     \"contention_at_8\": [");
      for (size_t c = 0; c < s.contention_at_8.size(); ++c) {
        const auto& [resource, e] = s.contention_at_8[c];
        std::fprintf(f,
                     "%s{\"resource\": \"%s\", \"waits\": %llu, \"waited_ns\": %llu, "
                     "\"max_wait_ns\": %llu}",
                     c == 0 ? "" : ", ", resource.c_str(),
                     static_cast<unsigned long long>(e.waits),
                     static_cast<unsigned long long>(e.waited_ns),
                     static_cast<unsigned long long>(e.max_wait_ns));
      }
      double base = s.cells.empty() ? 0 : s.cells[0].ops_per_sec;
      double at8 = 0;
      uint64_t errors = 0;
      for (const Cell& c : s.cells) {
        if (c.threads == 8) {
          at8 = c.ops_per_sec;
        }
        errors += c.errors;
      }
      std::fprintf(f, "],\n     \"speedup_at_8\": %.2f, \"errors\": %llu}%s\n",
                   base > 0 ? at8 / base : 0.0, static_cast<unsigned long long>(errors),
                   i + 1 == all.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_scalability.json\n");
  }

  if (!trace_path.empty()) {
    int rc = WriteStormTrace(trace_path);
    if (rc != 0) {
      return rc;
    }
  }
  return 0;
}
