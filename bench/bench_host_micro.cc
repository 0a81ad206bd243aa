// Host-time microbenches: real CPU ns per call of the simulator's own hot paths, as
// opposed to the virtual nanoseconds every other bench reports. Each row is the
// median of 5 timed segments after a warm-up, with the quartiles of the segments.
// Absolute numbers are trend artifacts: they move with the host and its load.
//
//   bench_host_micro                   # every row
//   bench_host_micro --scaling-check   # update rows only; exit 1 if 4096-file > 4x 16-file
//
// Rows:
//   Crc32c reference / dispatched at 60 B (one strict-mode op-log entry body) and
//   4 KiB (one LevelDB-shaped SSTable block);
//   MmapCache::Translate over 64 cached files of 16 pieces each: 1 reader thread,
//   4 reader threads, and 4 reader threads while a fifth thread churns updates of
//   other files (per reader thread: mean of the threads' medians and quartiles);
//   MmapCache update: one relink-shaped ReplaceRange plus the InvalidateFile of an
//   unlink, on a file that is not otherwise cached, with 16 / 256 / 4096 other files
//   cached. An update copies only its own shard's table, so the row stays flat as
//   the cache grows. --scaling-check gates exactly that, as a ratio of two rows of
//   one run, so host load cancels out.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/core/mmap_cache.h"

namespace {

constexpr uint64_t kPieceBytes = 64 * 1024;

void CrcRows() {
  common::Rng rng(1);
  std::vector<uint8_t> buf(4096);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t n : {size_t{60}, size_t{4096}}) {
    const uint64_t iters = n < 1024 ? 2'000'000 : 100'000;
    char label[64];
    std::snprintf(label, sizeof(label), "Crc32cReference %zu B", n);
    bench::PrintHostTiming(label, bench::TimeHostLoop(iters, [&](uint64_t i) {
                             return common::Crc32cReference(buf.data(), n,
                                                            static_cast<uint32_t>(i));
                           }));
    std::snprintf(label, sizeof(label), "Crc32c (dispatched) %zu B", n);
    bench::PrintHostTiming(label, bench::TimeHostLoop(iters, [&](uint64_t i) {
                             return common::Crc32c(buf.data(), n, static_cast<uint32_t>(i));
                           }));
  }
}

// An MmapCache holding inos 1..files, each with `pieces` pieces on non-contiguous
// device ranges, so pieces stay separate and Translate searches.
struct CacheBed {
  CacheBed(uint64_t files, uint64_t pieces)
      : dev(&ctx, 64 * common::kMiB), kfs(&dev), cache(&kfs, 2 * common::kMiB) {
    for (vfs::Ino ino = 1; ino <= files; ++ino) {
      std::vector<ext4sim::Ext4Dax::DaxMapping> run;
      for (uint64_t p = 0; p < pieces; ++p) {
        run.push_back({p * kPieceBytes, (ino * pieces + p) * 2 * kPieceBytes, kPieceBytes});
      }
      cache.InsertPieces(ino, run);
    }
  }
  sim::Context ctx;
  pmem::Device dev;
  ext4sim::Ext4Dax kfs;
  splitfs::MmapCache cache;
};

// What a relink then an unlink of file `ino` does to the cache.
uint64_t RelinkThenUnlink(splitfs::MmapCache* cache, vfs::Ino ino, uint64_t i) {
  cache->ReplaceRange(ino, 0, (i % 1024) * kPieceBytes, kPieceBytes);
  cache->InvalidateFile(ino);
  return ino;
}

void TranslateRow(const char* label, int readers, bool churn) {
  constexpr uint64_t kFiles = 64;
  constexpr uint64_t kPieces = 16;
  CacheBed bed(kFiles, kPieces);
  common::Rng rng(7);
  std::vector<std::pair<vfs::Ino, uint64_t>> probes(4096);
  for (auto& [ino, off] : probes) {
    ino = 1 + rng.Range(0, kFiles - 1);
    off = rng.Range(0, kPieces * kPieceBytes - 1);
  }
  std::atomic<bool> done{false};
  std::thread churner;
  if (churn) {
    churner = std::thread([&] {
      for (uint64_t i = 0; !done.load(std::memory_order_relaxed); ++i) {
        RelinkThenUnlink(&bed.cache, kFiles + 1 + i % 256, i);
      }
    });
  }
  std::vector<bench::HostTiming> timings(readers);
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      timings[t] = bench::TimeHostLoop(1'000'000, [&](uint64_t i) {
        const auto& [ino, off] = probes[(i + t * 1031) % probes.size()];
        auto hit = bed.cache.Translate(ino, off);
        return hit ? hit->dev_off : 0;
      });
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  done.store(true, std::memory_order_relaxed);
  if (churner.joinable()) {
    churner.join();
  }
  bench::HostTiming mean;
  for (const auto& t : timings) {
    mean.median_ns += t.median_ns / readers;
    mean.q1_ns += t.q1_ns / readers;
    mean.q3_ns += t.q3_ns / readers;
  }
  bench::PrintHostTiming(label, mean);
}

bench::HostTiming UpdateRow(uint64_t cached_files) {
  CacheBed bed(cached_files, 4);
  bench::HostTiming t = bench::TimeHostLoop(20'000, [&](uint64_t i) {
    // A new file each call, cycling through every shard.
    return RelinkThenUnlink(&bed.cache, cached_files + 1 + i % 1024, i);
  });
  char label[64];
  std::snprintf(label, sizeof(label), "MmapCache update, %llu files cached",
                static_cast<unsigned long long>(cached_files));
  bench::PrintHostTiming(label, t);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bool scaling_check = argc > 1 && std::strcmp(argv[1], "--scaling-check") == 0;
  std::printf("Host-time microbenches (real ns/call: median of %d segments, quartiles)\n",
              bench::HostTiming::kSegments);
  if (!scaling_check) {
    CrcRows();
    TranslateRow("MmapCache::Translate, 1 thread", 1, false);
    TranslateRow("MmapCache::Translate, 4 threads", 4, false);
    TranslateRow("MmapCache::Translate, 4 thr + churner", 4, true);
  }
  double small = UpdateRow(16).median_ns;
  UpdateRow(256);
  double large = UpdateRow(4096).median_ns;
  double ratio = large / small;
  std::printf("  update cost 4096 / 16 files cached: %.2fx (gate: <= 4x)\n", ratio);
  if (scaling_check && ratio > 4.0) {
    std::fprintf(stderr, "FAIL scaling-check: an MmapCache update grows with the "
                         "number of files cached (%.2fx)\n", ratio);
    return 1;
  }
  return 0;
}
