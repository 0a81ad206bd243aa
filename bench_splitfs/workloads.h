// The four bench_splitfs workloads and the per-mode run that drives one of them.
//
// A mode run builds a fresh testbed (device -> ext4-DAX -> U-Split in one consistency
// mode), preloads the workload untimed, runs a closed loop of timed ops, verifies the
// end state, and finishes with a durability check: fsync every file, digest it,
// power-cut the device, time ext4 + U-Split recovery, and digest again.
#ifndef BENCH_SPLITFS_WORKLOADS_H_
#define BENCH_SPLITFS_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/core/options.h"

namespace bench_splitfs {

enum class WorkloadId { kAppendFsync, kKvReadMostly, kMetaChurn, kMtShared };
inline constexpr WorkloadId kWorkloads[] = {WorkloadId::kAppendFsync,
                                            WorkloadId::kKvReadMostly,
                                            WorkloadId::kMetaChurn, WorkloadId::kMtShared};
const char* WorkloadName(WorkloadId w);
std::optional<WorkloadId> ParseWorkload(const std::string& name);
// Application threads issuing the workload's ops (1, or 3 for mt_shared).
int WorkerThreads(WorkloadId w);

inline constexpr splitfs::Mode kModes[] = {splitfs::Mode::kPosix, splitfs::Mode::kSync,
                                           splitfs::Mode::kStrict};
const char* ModeLabel(splitfs::Mode mode);  // "posix", "sync", "strict"

// PM device of every testbed. Recovery builds a second staging pool beside the first,
// so it must hold about twice the pool plus the workload's data.
inline constexpr uint64_t kDeviceBytes = 1 * common::kGiB;

// Run size of every mode run.
struct Sizes {
  uint64_t ops = 0;  // Timed ops per mode, all worker threads together.
  // kv_read_mostly keyspace. With 50k records about 49.5% of ops were memtable hits,
  // so the median sat on the edge between 1.5 us hits and ~2.4 us one-table gets and
  // swung by ~3% with the seed; at 100k the hits are ~46% and the median falls inside
  // the one-table class.
  uint64_t kv_records = 100000;
};

// One per-layer metric of a traced run, reported per mode as <mode>.<name>.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr std::array<LayerMetric, 36> kLayerMetrics = {{
    {"apps.get_vns", "ns"},           {"apps.put_vns", "ns"},
    {"apps.self_vns", "ns"},          {"apps.self_host_ns", "ns"},
    {"apps.flushes", "count"},        {"apps.compactions", "count"},
    {"core.write_vns", "ns"},         {"core.write_host_ns", "ns"},
    {"core.read_vns", "ns"},          {"core.read_host_ns", "ns"},
    {"core.fsync_vns", "ns"},         {"core.fsync_host_ns", "ns"},
    {"core.openclose_vns", "ns"},     {"core.openclose_host_ns", "ns"},
    {"core.meta_vns", "ns"},          {"core.meta_host_ns", "ns"},
    {"core.relinks", "count"},        {"core.oplog_entries", "count"},
    {"core.checkpoints", "count"},    {"core.async_publishes", "count"},
    {"core.dram_bytes", "B"},         {"ext4.syscalls_per_op", "1/op"},
    {"ext4.journal_commits", "count"}, {"ext4.commit_service_ns", "ns"},
    {"pmem.data_write_bpo", "B/op"},  {"pmem.metadata_write_bpo", "B/op"},
    {"pmem.journal_write_bpo", "B/op"}, {"pmem.log_write_bpo", "B/op"},
    {"pmem.read_bpo", "B/op"},        {"pmem.fences_per_op", "1/op"},
    {"pmem.page_faults", "count"},    {"wait.range_lock_ns", "ns/op"},
    {"wait.journal_ns", "ns/op"},     {"wait.ext4_lock_ns", "ns/op"},
    {"wait.staging_ns", "ns/op"},     {"wait.total_ns", "ns/op"},
}};

// What one mode run measured. Virtual quantities are simulated nanoseconds.
struct ModeResult {
  uint64_t ops = 0;      // Timed ops attempted.
  uint64_t failed = 0;   // Failed calls + verification mismatches, whole run.
  uint64_t elapsed_vns = 0;
  std::vector<uint64_t> lat_vns;  // One virtual latency per timed op.
  // Host time and op count of each of the five equal segments of the timed phase.
  std::vector<uint64_t> seg_host_ns;
  std::vector<uint64_t> seg_ops;
  uint64_t setup_host_ns = 0;  // Testbed construction + preload.
  uint64_t user_bytes = 0;     // Payload bytes the timed phase asked to write.
  uint64_t pm_write_bytes = 0;  // Every byte the timed phase wrote to PM.
  uint64_t recovery_vns = 0;
  // Traced runs only, in kLayerMetrics order.
  std::array<double, kLayerMetrics.size()> layers{};
  uint64_t trace_drops = 0;
};

// Runs workload `w` once in `mode`. A traced run turns on the tracer and the
// bench-side wrappers, fills in the per-layer values, and exports the span trace to
// `trace_path` unless it is empty.
ModeResult RunMode(WorkloadId w, splitfs::Mode mode, uint64_t seed, const Sizes& sizes,
                   bool traced, const std::string& trace_path);

}  // namespace bench_splitfs

#endif  // BENCH_SPLITFS_WORKLOADS_H_
