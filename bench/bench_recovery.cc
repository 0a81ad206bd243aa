// §5.3 recovery experiment: time to replay the SplitFS operation log after a crash.
//
// Paper: real-workload crashes replayed at most ~18,000 valid entries in ~3 s on
// emulated PM; the worst case — 2M valid entries (a full 128 MB log of cache-line
// writes) — took ~6 s, so 111x the entries cost 2x the time. The shape to reproduce:
// replay time grows with the valid entries. Ours reads the two header slots and then
// the log from slot 0, one PM load per 64 KiB window, until the scan passes the live
// end; then it charges per entry for checking, sorting and coalescing, replays, and
// writes one header. The paper's design scans and re-zeroes the whole log, a fixed
// cost this one does not pay, so our curve grows much more steeply than the paper's.
//
//   bench_recovery                # replay points, then crash-state enumeration
//   bench_recovery --shape-check  # replay points only; exit 1 unless replay time
//                                 # strictly grows with entries,
//                                 # t(2M)/t(18K) >= 1.5, and the 1K-entry replay
//                                 # reads at most two windows plus the headers
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/oplog.h"
#include "src/core/split_fs.h"
#include "src/crash/crash_runner.h"

namespace {

using common::kMiB;

struct Replay {
  double ms;           // Simulated recovery time.
  uint64_t log_bytes;  // Op-log bytes the recovery read.
};

// Builds a strict-mode instance, performs `entries` logged cache-line appends without
// fsync, crashes, and measures the op-log recovery.
Replay MeasureRecovery(uint64_t entries) {
  sim::Context ctx;
  pmem::Device dev(&ctx, 3 * common::kGiB);
  ext4sim::Ext4Dax kfs(&dev);
  splitfs::Options o;
  o.mode = splitfs::Mode::kStrict;
  o.oplog_bytes = 128 * kMiB;  // Paper default: holds 2M entries.
  o.num_staging_files = 4;
  o.staging_file_bytes = 64 * kMiB;
  splitfs::SplitFs fs(&kfs, o);

  std::vector<uint8_t> line(64, 0x77);
  int fd = fs.Open("/victim", vfs::kRdWr | vfs::kCreate);
  fs.Fsync(fd);
  for (uint64_t i = 0; i < entries; ++i) {
    fs.Pwrite(fd, line.data(), line.size(), i * line.size());
  }
  // Crash without fsync: every logged op must be replayed.
  kfs.Recover();
  uint64_t t0 = ctx.clock.Now();
  uint64_t read0 = ctx.stats.read_log_bytes();
  fs.Recover();
  return {static_cast<double>(ctx.clock.Now() - t0) * 1e-6,
          ctx.stats.read_log_bytes() - read0};
}

}  // namespace

int main(int argc, char** argv) {
  const bool shape_check = argc > 1 && std::strcmp(argv[1], "--shape-check") == 0;
  std::printf("\n=============================================================================\n");
  std::printf("Recovery: op-log replay time after a crash (strict mode)\n");
  std::printf("Reproduces: SplitFS (SOSP'19) §5.3\n");
  std::printf("=============================================================================\n");
  std::printf("%12s %16s %14s | paper reference\n", "log entries", "replay (sim ms)",
              "log read (B)");
  struct Point {
    uint64_t entries;
    const char* ref;
  };
  const Point points[] = {
      {1000, ""},
      {6000, ""},
      {18000, "~3 s (max seen in real-workload crashes)"},
      {100000, ""},
      {500000, ""},
      {2000000, "~6 s (worst case: full 128 MB log)"},
  };
  double t18k = 0, t2m = 0, prev = 0;
  uint64_t read1k = 0;
  bool grows = true;
  for (const auto& p : points) {
    Replay r = MeasureRecovery(p.entries);
    if (p.entries == 1000) {
      read1k = r.log_bytes;
    }
    if (p.entries == 18000) {
      t18k = r.ms;
    }
    if (p.entries == 2000000) {
      t2m = r.ms;
    }
    grows = grows && r.ms > prev;
    prev = r.ms;
    std::printf("%12llu %16.3f %14llu | %s\n", static_cast<unsigned long long>(p.entries),
                r.ms, static_cast<unsigned long long>(r.log_bytes), p.ref);
  }
  const double ratio = t18k > 0 ? t2m / t18k : 0.0;
  std::printf("\ngrowth: t(2M)/t(18K) = %.1f (paper: 6 s / 3 s = 2.0; entries ratio 111.1)\n",
              ratio);
  std::printf("Our replay is faster per entry than the paper's (their replay re-walks\n"
              "paths through the kernel; ours opens by inode). The reproduced claim is\n"
              "the shape: replay time grows with the entries replayed. The paper's fixed\n"
              "cost of scanning and re-zeroing the whole log is gone: the scan reads at\n"
              "most one window past the live end, and a checkpoint writes one 64 B header.\n");
  if (shape_check) {
    // The 1K entries fill one window; the scan may read into the next to see the
    // live end, plus the two header slots.
    const uint64_t read_bound = 2 * splitfs::OpLog::kScanWindowBytes +
                                2 * sizeof(splitfs::LogEntry);
    if (!grows || ratio < 1.5 || read1k > read_bound) {
      std::fprintf(stderr, "FAIL shape-check: replay time must strictly grow with entries "
                           "(%s), t(2M)/t(18K) must be >= 1.5 (%.2f), and the 1K-entry "
                           "replay must read at most %llu log bytes (%llu)\n",
                   grows ? "it does" : "it does not", ratio,
                   static_cast<unsigned long long>(read_bound),
                   static_cast<unsigned long long>(read1k));
      return 1;
    }
    return 0;
  }

  // --- Crash-state enumeration throughput (src/crash harness) -----------------------
  // Each state is a full fresh-world re-execution + crash image + recovery + oracle
  // sweep; this is the fixed cost every durability PR pays to regress against the
  // matrix, so its throughput is tracked here.
  std::printf("\n-----------------------------------------------------------------------------\n");
  std::printf("Crash-state enumeration: store/fence injection over SplitFS-strict\n");
  std::printf("%12s %14s %16s %18s\n", "workload", "crash states", "oracle failures",
              "states/sec (wall)");
  uint64_t total_states = 0;
  double total_secs = 0;
  for (const auto& script : crash::AllScripts(/*seed=*/20190727)) {
    crash::RunnerConfig cfg;
    cfg.seed = 20190727;
    crash::CrashRunner runner(crash::SplitFsWorldFactory(splitfs::Mode::kStrict),
                              script, crash::Guarantees::SplitFsStrict(), cfg);
    auto t0 = std::chrono::steady_clock::now();
    crash::MatrixStats stats = runner.Run();
    double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                      .count();
    total_states += stats.crash_states;
    total_secs += secs;
    std::printf("%12s %14llu %16llu %18.1f\n", script.name.c_str(),
                static_cast<unsigned long long>(stats.crash_states),
                static_cast<unsigned long long>(stats.oracle_failures),
                secs > 0 ? stats.crash_states / secs : 0.0);
  }
  std::printf("%12s %14llu %16s %18.1f\n", "total",
              static_cast<unsigned long long>(total_states), "-",
              total_secs > 0 ? total_states / total_secs : 0.0);
  return 0;
}
