// Host-time microbenches: real CPU ns per call of the simulator's own hot paths, as
// opposed to the virtual nanoseconds every other bench reports. Each row is the
// median of 5 timed segments after a warm-up, with the quartiles of the segments.
// A trend artifact, not a gate: numbers move with the host and its load.
//
//   bench_host_micro
//
// Rows:
//   Crc32c reference / dispatched at 60 B (one strict-mode op-log entry body) and
//   4 KiB (one LevelDB-shaped SSTable block);
//   MmapCache::Translate on one thread over 64 cached files of 16 pieces each.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/checksum.h"
#include "src/common/random.h"
#include "src/core/mmap_cache.h"

namespace {

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

void TranslateRow() {
  constexpr uint64_t kFiles = 64;
  constexpr uint64_t kPieces = 16;
  constexpr uint64_t kPieceBytes = 64 * 1024;
  sim::Context ctx;
  pmem::Device dev(&ctx, 256 * common::kMiB);
  ext4sim::Ext4Dax kfs(&dev);
  splitfs::MmapCache cache(&kfs, 2 * common::kMiB);
  // Non-contiguous device ranges, so pieces stay separate and Translate searches.
  for (vfs::Ino ino = 1; ino <= kFiles; ++ino) {
    std::vector<ext4sim::Ext4Dax::DaxMapping> pieces;
    for (uint64_t p = 0; p < kPieces; ++p) {
      pieces.push_back({p * kPieceBytes, (ino * kPieces + p) * 2 * kPieceBytes, kPieceBytes});
    }
    cache.InsertPieces(ino, pieces);
  }
  common::Rng rng(7);
  std::vector<std::pair<vfs::Ino, uint64_t>> probes(4096);
  for (auto& [ino, off] : probes) {
    ino = 1 + rng.Range(0, kFiles - 1);
    off = rng.Range(0, kPieces * kPieceBytes - 1);
  }
  bench::PrintHostTiming("MmapCache::Translate, 1 thread",
                         bench::TimeHostLoop(1'000'000, [&](uint64_t i) {
                           const auto& [ino, off] = probes[i % probes.size()];
                           auto hit = cache.Translate(ino, off);
                           return hit ? hit->dev_off : 0;
                         }));
}

}  // namespace

int main() {
  std::printf("Host-time microbenches (real ns/call: median of %d segments, quartiles)\n",
              bench::HostTiming::kSegments);
  CrcRows();
  TranslateRow();
  return 0;
}
