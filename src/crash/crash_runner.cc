#include "src/crash/crash_runner.h"

#include <numeric>

#include "src/common/bytes.h"
#include "src/ext4/fsck.h"
#include "src/nova/nova.h"
#include "src/pmfs/pmfs.h"
#include "src/strata/strata.h"

namespace crash {

using common::kBlockSize;
using common::kKiB;
using common::kMiB;

// --- Workload scripts ------------------------------------------------------------------

WorkloadScript MakeAppendScript(uint64_t seed) {
  common::Rng rng(seed ^ 0xA55A);
  WorkloadScript ws{"append", {}};
  const std::string f = "/a";
  ws.steps.push_back({Step::Kind::kOpenCreate, f, "", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kFsync, f, "", 0, 0, 0});  // Create reaches disk.
  const uint64_t lens[] = {1000,          kBlockSize, 2 * kBlockSize + 37,
                           777,           kBlockSize + 501, 3 * kBlockSize};
  uint64_t size = 0;
  int i = 0;
  for (uint64_t len : lens) {
    ws.steps.push_back({Step::Kind::kWrite, f, "", size, len,
                        static_cast<uint8_t>(rng.Next())});
    size += len;
    if (i == 1 || i == 3) {
      ws.steps.push_back({Step::Kind::kFsync, f, "", 0, 0, 0});
    }
    ++i;
  }
  ws.steps.push_back({Step::Kind::kClose, f, "", 0, 0, 0});
  return ws;
}

WorkloadScript MakeOverwriteScript(uint64_t seed) {
  common::Rng rng(seed ^ 0x0E0E);
  WorkloadScript ws{"overwrite", {}};
  const std::string f = "/o";
  auto pat = [&rng] { return static_cast<uint8_t>(rng.Next()); };
  ws.steps.push_back({Step::Kind::kOpenCreate, f, "", 0, 0, 0});
  // Base image, published: subsequent overwrites below 16 KB are in-place.
  ws.steps.push_back({Step::Kind::kWrite, f, "", 0, 4 * kBlockSize, pat()});
  ws.steps.push_back({Step::Kind::kFsync, f, "", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kWrite, f, "", 100, 300, pat()});  // Unaligned.
  ws.steps.push_back({Step::Kind::kWrite, f, "", kBlockSize, kBlockSize, pat()});
  // Staged append, then an overwrite that lands inside the staged range.
  ws.steps.push_back({Step::Kind::kWrite, f, "", 4 * kBlockSize, 1000, pat()});
  ws.steps.push_back({Step::Kind::kWrite, f, "", 4 * kBlockSize + 200, 600, pat()});
  ws.steps.push_back({Step::Kind::kFsync, f, "", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kWrite, f, "", 0, 128, pat()});
  ws.steps.push_back({Step::Kind::kClose, f, "", 0, 0, 0});
  return ws;
}

WorkloadScript MakeRenameScript(uint64_t seed) {
  common::Rng rng(seed ^ 0x4E4E);
  WorkloadScript ws{"rename", {}};
  const std::string f = "/r0";
  auto pat = [&rng] { return static_cast<uint8_t>(rng.Next()); };
  ws.steps.push_back({Step::Kind::kOpenCreate, f, "", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kWrite, f, "", 0, 2000, pat()});
  ws.steps.push_back({Step::Kind::kFsync, f, "", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kRename, f, "/r1", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kWrite, f, "", 2000, 3000, pat()});
  ws.steps.push_back({Step::Kind::kFsync, f, "", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kRename, f, "/r2", 0, 0, 0});
  ws.steps.push_back({Step::Kind::kWrite, f, "", 100, 500, pat()});
  ws.steps.push_back({Step::Kind::kClose, f, "", 0, 0, 0});
  return ws;
}

std::vector<WorkloadScript> AllScripts(uint64_t seed) {
  return {MakeAppendScript(seed), MakeOverwriteScript(seed), MakeRenameScript(seed)};
}

void ExecuteScript(vfs::FileSystem* fs, const WorkloadScript& script,
                   TraceModel* trace) {
  std::map<std::string, int> fds;        // Logical file -> open descriptor.
  std::map<std::string, std::string> cur;  // Logical file -> current path.
  for (const Step& s : script.steps) {
    switch (s.kind) {
      case Step::Kind::kOpenCreate: {
        TraceFile* tf = trace->Create(s.file);
        cur[s.file] = s.file;
        int fd = fs->Open(s.file, vfs::kRdWr | vfs::kCreate);
        SPLITFS_CHECK(fd >= 0);
        fds[s.file] = fd;
        tf->create_acked = true;
        break;
      }
      case Step::Kind::kWrite: {
        TraceFile* tf = trace->Get(s.file);
        tf->events.push_back(
            {FileEvent::Kind::kWrite, s.off, s.len, s.pattern, /*acked=*/false});
        std::vector<uint8_t> buf(s.len);
        for (uint64_t i = 0; i < s.len; ++i) {
          buf[i] = PatternByte(s.pattern, i);
        }
        ssize_t rc = fs->Pwrite(fds.at(s.file), buf.data(), s.len, s.off);
        SPLITFS_CHECK(rc == static_cast<ssize_t>(s.len));
        tf->events.back().acked = true;
        break;
      }
      case Step::Kind::kFsync: {
        TraceFile* tf = trace->Get(s.file);
        tf->events.push_back({FileEvent::Kind::kPublish, 0, 0, 0, /*acked=*/false});
        SPLITFS_CHECK(fs->Fsync(fds.at(s.file)) == 0);
        tf->events.back().acked = true;
        tf->ever_published_acked = true;
        break;
      }
      case Step::Kind::kClose: {
        // Scripts only close after a prior fsync or with staged data outstanding, so
        // modeling close as a publish point is sound.
        TraceFile* tf = trace->Get(s.file);
        tf->events.push_back({FileEvent::Kind::kPublish, 0, 0, 0, /*acked=*/false});
        SPLITFS_CHECK(fs->Close(fds.at(s.file)) == 0);
        tf->events.back().acked = true;
        tf->ever_published_acked = true;
        fds.erase(s.file);
        break;
      }
      case Step::Kind::kRename: {
        TraceFile* tf = trace->Get(s.file);
        tf->has_renames = true;
        tf->last_rename_acked = false;
        tf->paths.push_back(s.to);  // Candidate name even if the rename is torn.
        SPLITFS_CHECK(fs->Rename(cur.at(s.file), s.to) == 0);
        cur[s.file] = s.to;
        tf->current_path = s.to;
        tf->last_rename_acked = true;
        break;
      }
    }
  }
}

// --- Worlds ----------------------------------------------------------------------------

int World::RecoverAll() {
  if (kfs != nullptr) {
    int rc = kfs->Recover();
    if (rc != 0) {
      return rc;
    }
  }
  return fs->Recover();
}

WorldFactory SplitFsWorldFactory(splitfs::Mode mode, bool async_relink) {
  return [mode, async_relink] {
    auto w = std::make_unique<World>();
    w->dev = std::make_unique<pmem::Device>(&w->ctx, 64 * kMiB);
    w->kfs = std::make_unique<ext4sim::Ext4Dax>(w->dev.get());
    splitfs::Options o;
    o.mode = mode;
    o.num_staging_files = 2;
    o.staging_file_bytes = 4 * kMiB;
    o.oplog_bytes = 256 * kKiB;
    o.async_relink = async_relink;
    w->fs = std::make_unique<splitfs::SplitFs>(w->kfs.get(), o);
    return w;
  };
}

WorldFactory BaselineWorldFactory(const std::string& which) {
  return [which] {
    auto w = std::make_unique<World>();
    w->dev = std::make_unique<pmem::Device>(&w->ctx, 64 * kMiB);
    if (which == "nova") {
      w->fs = std::make_unique<novasim::Nova>(w->dev.get(), /*strict=*/true);
    } else if (which == "pmfs") {
      w->fs = std::make_unique<pmfssim::Pmfs>(w->dev.get());
    } else if (which == "strata") {
      stratasim::StrataOptions so;
      so.private_log_bytes = 16 * kMiB;
      w->fs = std::make_unique<stratasim::Strata>(w->dev.get(), so);
    } else {
      SPLITFS_CHECK(false && "unknown baseline");
    }
    return w;
  };
}

// --- Matrix runner ---------------------------------------------------------------------

namespace {

void Mix(uint64_t* fp, uint64_t v) { *fp = (*fp ^ v) * 1099511628211ull; }

std::vector<uint64_t> StrideSample(const std::vector<uint64_t>& v, int max_n) {
  if (max_n <= 0 || v.empty()) {
    return {};
  }
  if (v.size() <= static_cast<size_t>(max_n)) {
    return v;
  }
  std::vector<uint64_t> out;
  out.reserve(max_n);
  for (int i = 0; i < max_n; ++i) {
    uint64_t pick = v[static_cast<size_t>(i) * v.size() / max_n];
    if (out.empty() || out.back() != pick) {
      out.push_back(pick);
    }
  }
  return out;
}

void ProbePostRecoveryService(vfs::FileSystem* fs, OracleReport* report) {
  // A recovered instance must keep serving: create, write, publish, read back.
  int fd = fs->Open("/__probe", vfs::kRdWr | vfs::kCreate);
  if (fd < 0) {
    report->Problem("post-recovery probe: open failed");
    return;
  }
  std::vector<uint8_t> out(3000);
  for (uint64_t i = 0; i < out.size(); ++i) {
    out[i] = PatternByte(0x5A, i);
  }
  if (fs->Pwrite(fd, out.data(), out.size(), 0) !=
          static_cast<ssize_t>(out.size()) ||
      fs->Fsync(fd) != 0) {
    report->Problem("post-recovery probe: write/fsync failed");
    fs->Close(fd);
    return;
  }
  std::vector<uint8_t> back(out.size());
  if (fs->Pread(fd, back.data(), back.size(), 0) !=
          static_cast<ssize_t>(back.size()) ||
      back != out) {
    report->Problem("post-recovery probe: read-back mismatch");
  }
  fs->Close(fd);
}

}  // namespace

CrashRunner::CrashRunner(WorldFactory factory, WorkloadScript script,
                         Guarantees guarantees, RunnerConfig config)
    : factory_(std::move(factory)),
      script_(std::move(script)),
      guarantees_(guarantees),
      cfg_(std::move(config)) {}

MatrixStats CrashRunner::Run() {
  MatrixStats stats;

  // --- Record run: journal the persistence traffic of a crash-free execution.
  auto rec_world = factory_();
  rec_world->dev->EnableCrashTracking(true);
  ShadowLog shadow(rec_world->dev.get());
  rec_world->dev->SetObserver(&shadow);
  TraceModel rec_trace;
  ExecuteScript(rec_world->fs.get(), script_, &rec_trace);
  rec_world->dev->SetObserver(nullptr);

  // --- Crash points: vulnerable fences + interior store ordinals.
  std::vector<CrashPoint> points;
  for (uint64_t e : StrideSample(shadow.VulnerableFenceEpochs(), cfg_.max_fence_points)) {
    points.push_back({CrashPoint::Trigger::kAtFence, e});
    ++stats.fence_points;
  }
  if (cfg_.max_store_points > 0 && shadow.store_count() > 0) {
    uint64_t prev = ~0ull;
    for (int i = 0; i < cfg_.max_store_points; ++i) {
      uint64_t ordinal = static_cast<uint64_t>(i + 1) * shadow.store_count() /
                         (cfg_.max_store_points + 1);
      if (ordinal != prev) {
        points.push_back({CrashPoint::Trigger::kAfterStore, ordinal});
        ++stats.store_points;
        prev = ordinal;
      }
    }
  }

  for (const CrashPoint& point : points) {
    for (FatePolicy fate : cfg_.fates) {
      RunOneState(point, fate, &stats);
    }
  }
  return stats;
}

void CrashRunner::RunOneState(const CrashPoint& point, FatePolicy fate,
                              MatrixStats* stats) {
  auto w = factory_();
  w->dev->EnableCrashTracking(true);
  CrashInjector injector(point);
  w->dev->SetObserver(&injector);
  TraceModel trace;
  try {
    ExecuteScript(w->fs.get(), script_, &trace);
  } catch (const CrashSignal&) {
    // Power cut: the unwound DRAM state above the device is dead; recovery below
    // rebuilds everything from the materialized crash image.
  }
  w->dev->SetObserver(nullptr);

  uint64_t fate_seed = cfg_.seed * 0x9E3779B97F4A7C15ull ^
                       (point.index * 1000003 + static_cast<uint64_t>(point.trigger)) ^
                       (static_cast<uint64_t>(fate) << 56);
  w->dev->CrashWith(MakeFate(fate, fate_seed | 1));

  OracleReport report;
  if (w->RecoverAll() != 0) {
    report.Problem("recovery returned nonzero");
  } else {
    report = CheckRecoveredState(w->fs.get(), trace, guarantees_);
    if (cfg_.check_fsck && w->kfs != nullptr) {
      ext4sim::FsckReport fsck = ext4sim::RunFsck(w->kfs.get());
      if (!fsck.clean) {
        report.Problem("fsck: " + fsck.problems.front());
      }
    }
    if (cfg_.post_recovery_probe) {
      ProbePostRecoveryService(w->fs.get(), &report);
    }
  }

  ++stats->crash_states;
  Mix(&stats->fingerprint, point.index * 2 + static_cast<uint64_t>(point.trigger));
  Mix(&stats->fingerprint, static_cast<uint64_t>(fate));
  for (const auto& [create_path, tf] : trace.files()) {
    for (const std::string& path : tf.paths) {
      vfs::StatBuf sb;
      Mix(&stats->fingerprint, w->fs->Stat(path, &sb) == 0 ? sb.size : ~0ull);
    }
  }
  if (!report.ok()) {
    ++stats->oracle_failures;
    if (stats->failures.size() < 20) {
      for (const std::string& p : report.problems) {
        stats->failures.push_back(script_.name + " @ " + point.Describe() + " / " +
                                  FateName(fate) + ": " + p);
      }
    }
  }
}

}  // namespace crash
