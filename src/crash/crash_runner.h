// Crash-state matrix driver.
//
// One CrashRunner owns a (file system × workload × guarantees) configuration and
// sweeps it through the crash-state space:
//
//   1. Record run: a fresh world executes the workload to completion under a
//      ShadowLog, journaling every store/fence. Vulnerable fence epochs (pending
//      un-fenced stores) and store ordinals become candidate crash points.
//   2. For each sampled point × fate policy: a fresh world re-executes the same
//      deterministic workload with a CrashInjector armed at the point. The injector
//      unwinds (power cut), the fate materializes the crash image on the device,
//      recovery remounts (ext4 journal rollback + SplitFS op-log replay, or the
//      baseline's own procedure), and the recovery oracles validate the result.
//
// Everything is seeded: the same MatrixConfig produces byte-identical crash states,
// oracle verdicts, and fingerprints on every run.
#ifndef SRC_CRASH_CRASH_RUNNER_H_
#define SRC_CRASH_CRASH_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/split_fs.h"
#include "src/crash/crash_plan.h"
#include "src/crash/oracles.h"
#include "src/crash/shadow_log.h"

namespace crash {

// --- Workload scripts ------------------------------------------------------------------

struct Step {
  enum class Kind : uint8_t { kOpenCreate, kWrite, kFsync, kClose, kRename };
  Kind kind = Kind::kOpenCreate;
  std::string file;  // Logical file id == creation path.
  std::string to;    // Rename target.
  uint64_t off = 0;
  uint64_t len = 0;
  uint8_t pattern = 0;
};

struct WorkloadScript {
  std::string name;
  std::vector<Step> steps;
};

// The three paper-relevant shapes: staged appends (relink), in-place + staged-overlap
// overwrites, and multi-entry metadata (rename) interleaved with data.
WorkloadScript MakeAppendScript(uint64_t seed);
WorkloadScript MakeOverwriteScript(uint64_t seed);
WorkloadScript MakeRenameScript(uint64_t seed);
std::vector<WorkloadScript> AllScripts(uint64_t seed);

// Executes `script` against `fs`, building the oracle trace. Steps are acknowledged
// in the trace only after the call returns, so a CrashSignal unwinding mid-step
// leaves that step marked in-flight.
void ExecuteScript(vfs::FileSystem* fs, const WorkloadScript& script,
                   TraceModel* trace);

// --- Worlds ----------------------------------------------------------------------------

// One simulated machine: device, the FS under test, and (for SplitFS) K-Split.
struct World {
  sim::Context ctx;
  std::unique_ptr<pmem::Device> dev;
  std::unique_ptr<ext4sim::Ext4Dax> kfs;  // Null for the PM baselines.
  std::unique_ptr<vfs::FileSystem> fs;

  int RecoverAll();
};

using WorldFactory = std::function<std::unique_ptr<World>()>;

// Small worlds sized for crash-state enumeration (64 MB device). `async_relink`
// builds the SplitFS instance with Options::async_relink on: fsync logs + fences
// relink intents before the (rewound) publish, so the injector can land between
// the intent fence and the publish — the async column of the matrix.
WorldFactory SplitFsWorldFactory(splitfs::Mode mode, bool async_relink = false);
// `which` is "nova", "pmfs", or "strata".
WorldFactory BaselineWorldFactory(const std::string& which);

// --- Matrix runner ---------------------------------------------------------------------

struct RunnerConfig {
  uint64_t seed = 42;
  // Crash points: vulnerable fences plus raw store ordinals, stride-sampled down to
  // these budgets (0 disables the class).
  int max_fence_points = 10;
  int max_store_points = 4;
  std::vector<FatePolicy> fates = {FatePolicy::kDropAll, FatePolicy::kSubset,
                                   FatePolicy::kTorn};
  bool check_fsck = true;          // SplitFS worlds: ext4 integrity after recovery.
  bool post_recovery_probe = true; // New file write/read-back after recovery.
};

struct MatrixStats {
  uint64_t crash_states = 0;   // Distinct (point, fate) states materialized.
  uint64_t fence_points = 0;
  uint64_t store_points = 0;
  uint64_t oracle_failures = 0;
  uint64_t fingerprint = 0;    // Order-sensitive digest of every recovered state.
  std::vector<std::string> failures;  // First few failure details, for diagnostics.
};

class CrashRunner {
 public:
  CrashRunner(WorldFactory factory, WorkloadScript script, Guarantees guarantees,
              RunnerConfig config = {});

  // Record pass + full point × fate sweep.
  MatrixStats Run();

 private:
  void RunOneState(const CrashPoint& point, FatePolicy fate, MatrixStats* stats);

  WorldFactory factory_;
  WorkloadScript script_;
  Guarantees guarantees_;
  RunnerConfig cfg_;
};

}  // namespace crash

#endif  // SRC_CRASH_CRASH_RUNNER_H_
