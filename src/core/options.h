// SplitFS per-instance configuration: consistency mode (§3.2) and the tunable
// parameters of §3.6, plus feature toggles used by the Figure 3 ablation bench.
#ifndef SRC_CORE_OPTIONS_H_
#define SRC_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "src/common/bytes.h"

namespace common {
class ServicePool;
}
namespace sim {
class TokenBucket;
}

namespace splitfs {

// Consistency modes (Table 3). Concurrent SplitFs instances over the same K-Split may
// use different modes without interfering.
enum class Mode {
  kPosix,   // Metadata consistency; atomic appends; in-place synchronous overwrites.
  kSync,    // + synchronous data operations (no atomicity for overwrites).
  kStrict,  // + atomic, synchronous everything (op logging + staged COW overwrites).
};

const char* ModeName(Mode mode);

struct Options {
  Mode mode = Mode::kPosix;

  // mmap() granularity for the collection of memory-maps. 2 MB default (huge pages,
  // pre-populated); configurable 2 MB .. 512 MB (§3.6).
  uint64_t mmap_size = 2 * common::kMiB;

  // Staging file pool (§3.5): files pre-created at startup; a background thread
  // replaces each one as it is consumed.
  uint32_t num_staging_files = 10;
  uint64_t staging_file_bytes = 160 * common::kMiB;

  // Run the §3.5 replenishment thread for real: replenish passes on a service pool
  // (Services::replenisher_pool, else a 1-worker pool the staging pool owns)
  // pre-create staging files off the critical path. Off by default — the crash
  // harness and the deterministic single-threaded tests require a fully
  // deterministic store sequence, which the (equivalent, inline, clock-rewound)
  // fallback provides. Multithreaded benches and the concurrency tests turn it on.
  bool replenish_thread = false;

  // Operation log (strict mode): zeroed pre-allocated file; one 64 B entry per op;
  // checkpoint-and-reset when full (§3.3).
  uint64_t oplog_bytes = 128 * common::kMiB;

  // Asynchronous relink publication (ROADMAP follow-on to the concurrency PRs).
  // When on, fsync()/close() of a file with staged data logs one relink-intent
  // record per staged run to the op log (created in every mode when this is set)
  // and fences it — the durability point: recovery replays intent records exactly
  // like staged-append records. The relinks and their journal commit then run on
  // the calling thread with their cost rewound off its clock (sim::ScopedOffClock),
  // modeling a background publisher with a fully deterministic store sequence,
  // which the async crash-matrix column depends on. Off by default: the
  // synchronous publish path stays byte-identical for the crash matrix and every
  // deterministic test.
  bool async_relink = false;

  // Record virtual-time spans (op entry/exit, publishes, journal seal/writeout) into
  // the context's tracer when the tracer is enabled. Purely observational: the obs
  // layer never touches the clock, so timelines are identical with this on or off.
  bool tracing = false;

  // Directory (on K-Split) for staging files and the op log.
  std::string runtime_dir = "/.splitfs";

  // --- Ablation toggles (Figure 3). Production configuration leaves both true. -------
  // When false, appends bypass staging and go straight to the kernel FS ("split" bar).
  bool enable_staging = true;
  // When false, fsync copies staged bytes into the target file instead of relinking
  // ("+staging" bar vs "+relink" bar).
  bool enable_relink = true;
};

// Shared-service wiring for multi-tenant deployments (src/tenant/). All pointers
// are borrowed (the tenant router outlives every instance it mounts) and all
// default to null, which means "own your services": a 1-worker replenisher pool
// per instance (only when replenish_thread is on), inline journal commits — the
// single-tenant behavior. With the pool set, the instance registers its replenish
// passes with the shared pool instead of owning one; with a token bucket set,
// foreground admission to that service is paced on the caller's virtual timeline.
struct Services {
  common::ServicePool* replenisher_pool = nullptr;
  // QoS: paces staging-file consumption (one token per staging file a lane takes).
  sim::TokenBucket* staging_tokens = nullptr;
  // QoS: paces foreground journal commits (fsync/metadata-sync forced commits).
  sim::TokenBucket* journal_credits = nullptr;
};

}  // namespace splitfs

#endif  // SRC_CORE_OPTIONS_H_
