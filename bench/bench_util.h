// Shared benchmark scaffolding: builds a "testbed" (device + one file system under
// test) and provides the paper-style reporting helpers.
//
// Every bench binary regenerates one table or figure from the paper's evaluation and
// prints the measured (simulated-time) values next to the paper's published numbers,
// so the reproduction quality is visible in the output itself.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "src/common/bytes.h"
#include "src/core/split_fs.h"
#include "src/ext4/ext4_dax.h"
#include "src/nova/nova.h"
#include "src/pmem/device.h"
#include "src/pmfs/pmfs.h"
#include "src/strata/strata.h"
#include "src/vfs/file_system.h"

namespace bench {

enum class FsKind {
  kExt4Dax,
  kPmfs,
  kNovaStrict,
  kNovaRelaxed,
  kStrata,
  kSplitPosix,
  kSplitSync,
  kSplitStrict,
};

inline const char* FsKindName(FsKind k) {
  switch (k) {
    case FsKind::kExt4Dax:
      return "ext4-DAX";
    case FsKind::kPmfs:
      return "PMFS";
    case FsKind::kNovaStrict:
      return "NOVA-strict";
    case FsKind::kNovaRelaxed:
      return "NOVA-relaxed";
    case FsKind::kStrata:
      return "Strata";
    case FsKind::kSplitPosix:
      return "SplitFS-POSIX";
    case FsKind::kSplitSync:
      return "SplitFS-sync";
    case FsKind::kSplitStrict:
      return "SplitFS-strict";
  }
  return "?";
}

// One device + one mounted file system. SplitFS testbeds layer U-Split over a private
// ext4-DAX instance, exactly as a deployed SplitFS process would.
class Testbed {
 public:
  explicit Testbed(FsKind kind, uint64_t device_bytes = 4 * common::kGiB,
                   splitfs::Options split_opts = {}, ext4sim::Ext4Options ext4_opts = {}) {
    dev_ = std::make_unique<pmem::Device>(&ctx_, device_bytes);
    switch (kind) {
      case FsKind::kExt4Dax:
        ext4_ = std::make_unique<ext4sim::Ext4Dax>(dev_.get(), ext4_opts);
        fs_ = ext4_.get();
        break;
      case FsKind::kPmfs:
        other_ = std::make_unique<pmfssim::Pmfs>(dev_.get());
        fs_ = other_.get();
        break;
      case FsKind::kNovaStrict:
        other_ = std::make_unique<novasim::Nova>(dev_.get(), /*strict=*/true);
        fs_ = other_.get();
        break;
      case FsKind::kNovaRelaxed:
        other_ = std::make_unique<novasim::Nova>(dev_.get(), /*strict=*/false);
        fs_ = other_.get();
        break;
      case FsKind::kStrata: {
        // Size the private log so digestion is part of steady state (the paper's
        // 20 GB log served multi-GB workloads; scale to this testbed's workloads).
        stratasim::StrataOptions so;
        so.private_log_bytes = 64 * common::kMiB;
        other_ = std::make_unique<stratasim::Strata>(dev_.get(), so);
        fs_ = other_.get();
        break;
      }
      case FsKind::kSplitPosix:
      case FsKind::kSplitSync:
      case FsKind::kSplitStrict: {
        split_opts.mode = kind == FsKind::kSplitPosix  ? splitfs::Mode::kPosix
                          : kind == FsKind::kSplitSync ? splitfs::Mode::kSync
                                                       : splitfs::Mode::kStrict;
        ext4_ = std::make_unique<ext4sim::Ext4Dax>(dev_.get(), ext4_opts);
        split_ = std::make_unique<splitfs::SplitFs>(ext4_.get(), split_opts);
        fs_ = split_.get();
        break;
      }
    }
    // Instance startup (staging pre-allocation, op-log zeroing) is not part of any
    // measured workload: reset the clock and counters.
    ctx_.Reset();
  }

  vfs::FileSystem* fs() { return fs_; }
  sim::Context* ctx() { return &ctx_; }
  splitfs::SplitFs* split() { return split_.get(); }
  ext4sim::Ext4Dax* ext4() { return ext4_.get(); }
  pmem::Device* device() { return dev_.get(); }

  // §5.7 definition: total time minus time spent moving user payload on PM media.
  uint64_t SoftwareOverheadNs() const {
    uint64_t total = ctx_.clock.Now();
    uint64_t media = ctx_.stats.data_media_ns();
    return total > media ? total - media : 0;
  }

 private:
  sim::Context ctx_;
  std::unique_ptr<pmem::Device> dev_;
  std::unique_ptr<ext4sim::Ext4Dax> ext4_;
  std::unique_ptr<splitfs::SplitFs> split_;
  std::unique_ptr<vfs::FileSystem> other_;
  vfs::FileSystem* fs_ = nullptr;
};

// PM read traffic decomposed by consumer — the read-side counterpart of the §5.7
// data/metadata split: user payload vs FS metadata vs journal vs log (op log,
// Strata private log) vs staging machinery (relink head/tail copies).
inline void PrintPmReadSplit(const char* label, const sim::Stats& stats) {
  std::printf("  %-28s PM reads: data %llu B, metadata %llu B, journal %llu B, "
              "log %llu B, staging %llu B\n",
              label, static_cast<unsigned long long>(stats.read_data_bytes()),
              static_cast<unsigned long long>(stats.read_metadata_bytes()),
              static_cast<unsigned long long>(stats.read_journal_bytes()),
              static_cast<unsigned long long>(stats.read_log_bytes()),
              static_cast<unsigned long long>(stats.read_staging_bytes()));
}

// Host-time loop harness for per-structure microbenches: what the simulator's own
// code costs to run, in real nanoseconds. One warm-up segment, then kSegments timed
// segments of `iters` calls each; reports the median ns/call and the quartiles of
// the segments. Host numbers are trend artifacts, not gates.
struct HostTiming {
  static constexpr int kSegments = 5;
  double median_ns = 0;
  double q1_ns = 0;
  double q3_ns = 0;
};

// `call` returns a value that is folded into this sink, so the loop cannot be elided.
inline volatile uint64_t host_loop_sink = 0;

template <typename Call>
HostTiming TimeHostLoop(uint64_t iters, Call&& call) {
  uint64_t sink = 0;
  std::array<double, HostTiming::kSegments> ns{};
  for (int seg = -1; seg < HostTiming::kSegments; ++seg) {  // seg -1 is warm-up.
    auto t0 = std::chrono::steady_clock::now();
    for (uint64_t i = 0; i < iters; ++i) {
      sink += static_cast<uint64_t>(call(i));
    }
    auto t1 = std::chrono::steady_clock::now();
    if (seg >= 0) {
      ns[seg] = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                static_cast<double>(iters);
    }
  }
  host_loop_sink = sink;
  std::sort(ns.begin(), ns.end());
  return {ns[2], ns[1], ns[3]};
}

inline void PrintHostTiming(const char* label, const HostTiming& t) {
  std::printf("  %-40s %10.1f ns/call  (q1 %.1f, q3 %.1f)\n", label, t.median_ns,
              t.q1_ns, t.q3_ns);
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("\n=============================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("All times are simulated nanoseconds from the calibrated PM cost model.\n");
  std::printf("=============================================================================\n");
}

}  // namespace bench

#endif  // BENCH_BENCH_UTIL_H_
