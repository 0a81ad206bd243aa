// Multithreaded workload drivers for the concurrent U-Split (SplitFS §5 on N cores).
//
// Each driver spawns N real std::threads against one file system instance. Every
// worker binds a sim::Clock::Lane, so its charges accrue to a private virtual
// timeline; the phase's elapsed simulated time is the slowest worker's lane delta —
// the virtual-time model of an N-core host. Serialized sections (the kernel lock,
// contended file ranges, the staging slow path) fast-forward waiters' lanes through
// sim::ResourceStamp, so lock contention degrades the reported scaling exactly where
// it would degrade wall-clock scaling on real hardware.
//
// The drivers double as correctness harnesses: each one verifies its invariants
// (sizes, record integrity) after joining and reports failures in the result.
#ifndef SRC_WORKLOADS_PARALLEL_H_
#define SRC_WORKLOADS_PARALLEL_H_

#include <cstdint>
#include <string>

#include "src/obs/histogram.h"
#include "src/sim/clock.h"
#include "src/vfs/file_system.h"

namespace wl {

struct ParallelResult {
  uint64_t ops = 0;          // Aggregate operations across all threads.
  uint64_t bytes = 0;        // Aggregate payload bytes.
  uint64_t elapsed_ns = 0;   // max over workers of (lane end - lane start).
  uint64_t errors = 0;       // Failed calls or post-run verification mismatches.
  // Per-op virtual latency, one sample per counted operation unit (a write plus any
  // fsync it triggered; a read; a KV get/put), merged across all worker lanes.
  obs::LatencyHistogram latency;
  double MopsPerSec() const {
    return elapsed_ns == 0 ? 0
                           : static_cast<double>(ops) * 1e3 / static_cast<double>(elapsed_ns);
  }
  double OpsPerSec() const {
    return elapsed_ns == 0 ? 0
                           : static_cast<double>(ops) * 1e9 / static_cast<double>(elapsed_ns);
  }
};

// Disjoint-file append: each thread creates its own file under `dir` and appends
// `bytes_per_thread` in `op_bytes` chunks, fsync'ing every `fsync_every` ops and once
// at the end. Verifies each file's published size. This is the scalability
// acceptance workload: the data path is pure user space, so it should scale nearly
// linearly with threads.
ParallelResult RunParallelAppend(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                                 const std::string& dir, uint64_t bytes_per_thread,
                                 uint64_t op_bytes, uint64_t fsync_every);

// Read-heavy: each thread preads `ops_per_thread` random `op_bytes` chunks from its
// own pre-created `file_bytes` file. Verifies the read contents' seed bytes.
ParallelResult RunParallelRead(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                               const std::string& dir, uint64_t file_bytes,
                               uint64_t op_bytes, uint64_t ops_per_thread, uint64_t seed);

// Shared hot file: every thread overwrites disjoint `op_bytes` strides of ONE
// preallocated file (thread t owns slots i*threads + t), size-preserving. The file
// is created, sized, and warmed in an untimed prepare phase and published with one
// fsync after the join, so the timed phase is pure in-size data writes — the workload that used to
// serialize on the whole-inode lock and now scales on the byte-range locks. Verifies
// every slot's first/last payload byte after joining.
ParallelResult RunParallelSharedHotFile(vfs::FileSystem* fs, sim::Clock* clock,
                                        int threads, const std::string& dir,
                                        uint64_t bytes_per_thread, uint64_t op_bytes);

// YCSB-A-shaped mix (50% read / 50% update, zipfian keys) over per-thread KvLsm
// stores sharing one file system — the paper's LevelDB setup, one store per app
// thread, all traffic through the same U-Split instance.
ParallelResult RunParallelYcsbA(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                                const std::string& dir, uint64_t records_per_thread,
                                uint64_t ops_per_thread, uint64_t seed);

// YCSB-C-shaped read-only phase (100% zipfian gets) over per-thread KvLsm stores
// loaded — and flushed to SSTables — before the timed phase, so every get walks the
// table path (U-Split preads through the lock-free mmap-cache translation). The
// load runs on the caller's thread and background publishes are drained before
// timing starts, keeping the measured cells deterministic.
ParallelResult RunParallelYcsbC(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                                const std::string& dir, uint64_t records_per_thread,
                                uint64_t ops_per_thread, uint64_t seed);

}  // namespace wl

#endif  // SRC_WORKLOADS_PARALLEL_H_
