#include "bench_splitfs/workloads.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <source_location>
#include <string_view>
#include <thread>

#include "bench_splitfs/layers.h"
#include "src/apps/kv_lsm.h"
#include "src/common/random.h"
#include "src/common/threading.h"
#include "src/core/split_fs.h"
#include "src/ext4/ext4_dax.h"
#include "src/pmem/device.h"

namespace bench_splitfs {

const char* WorkloadName(WorkloadId w) {
  switch (w) {
    case WorkloadId::kAppendFsync:
      return "append_fsync";
    case WorkloadId::kKvReadMostly:
      return "kv_read_mostly";
    case WorkloadId::kMetaChurn:
      return "meta_churn";
    case WorkloadId::kMtShared:
      return "mt_shared";
  }
  return "?";
}

std::optional<WorkloadId> ParseWorkload(const std::string& name) {
  for (WorkloadId w : kWorkloads) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* ModeLabel(splitfs::Mode mode) {
  switch (mode) {
    case splitfs::Mode::kPosix:
      return "posix";
    case splitfs::Mode::kSync:
      return "sync";
    case splitfs::Mode::kStrict:
      return "strict";
  }
  return "?";
}

namespace {

using common::kKiB;
using common::kMiB;

constexpr int kSegments = 5;
// Per-thread span budget of a traced run: keeps each exported mode trace at a few MB;
// later spans are dropped and counted.
constexpr size_t kTraceRingSpans = 1 << 14;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t Mix(uint64_t a, uint64_t b) { return Mix(a ^ Mix(b)); }

// Payload source: a seeded 1 MiB random period, stored twice so that any span of up
// to one period is contiguous. Stream s holds period[(Start(s) + off) % period], so
// writers point straight into it and verifiers compare against it; no op generates
// bytes.
class Pattern {
 public:
  static constexpr uint64_t kPeriod = 1 * kMiB;

  explicit Pattern(uint64_t seed) : bytes_(2 * kPeriod) {
    common::Rng rng(Mix(seed, 0x7061747465726eull));
    for (uint64_t i = 0; i < kPeriod; i += 8) {
      uint64_t v = rng.Next();
      std::memcpy(&bytes_[i], &v, 8);
    }
    std::memcpy(&bytes_[kPeriod], &bytes_[0], kPeriod);
  }

  const uint8_t* At(uint64_t stream, uint64_t off) const {
    return &bytes_[(Mix(stream) + off) % kPeriod];
  }

  bool Matches(uint64_t stream, uint64_t off, const uint8_t* data, uint64_t n) const {
    while (n > 0) {
      uint64_t span = std::min(n, kPeriod);
      if (std::memcmp(At(stream, off), data, span) != 0) {
        return false;
      }
      data += span;
      off += span;
      n -= span;
    }
    return true;
  }

 private:
  std::vector<uint8_t> bytes_;
};

// What every workload call can reach: the file system it runs on (TimedFs in traced
// runs), the simulated machine, the payload source, and the run's error tally.
struct Env {
  vfs::FileSystem* fs = nullptr;
  sim::Context* ctx = nullptr;
  const Pattern* pat = nullptr;
  uint64_t seed = 0;
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> user_bytes{0};

  // Counts a failed call or a verification mismatch unless `ok`; the first one of a
  // run is reported on stderr with its source line.
  void Expect(bool ok, std::source_location where = std::source_location::current()) {
    if (!ok && failed.fetch_add(1, std::memory_order_relaxed) == 0) {
      std::fprintf(stderr, "bench_splitfs: first failure at %s:%u\n", where.file_name(),
                   static_cast<unsigned>(where.line()));
    }
  }
  void AddUserBytes(uint64_t n) { user_bytes.fetch_add(n, std::memory_order_relaxed); }
};

bool WriteAll(vfs::FileSystem* fs, int fd, const void* buf, uint64_t n, uint64_t off) {
  return fs->Pwrite(fd, buf, n, off) == static_cast<ssize_t>(n);
}

// True when `path` is exactly `size` bytes of pattern stream `stream`.
bool FileMatches(vfs::FileSystem* fs, const Pattern& pat, const std::string& path,
                 uint64_t stream, uint64_t size) {
  int fd = fs->Open(path, vfs::kRdOnly);
  if (fd < 0) {
    return false;
  }
  vfs::StatBuf st;
  bool ok = fs->Fstat(fd, &st) == 0 && st.size == size;
  std::vector<uint8_t> buf(256 * kKiB);
  for (uint64_t off = 0; ok && off < size; off += buf.size()) {
    uint64_t n = std::min<uint64_t>(buf.size(), size - off);
    ok = fs->Pread(fd, buf.data(), n, off) == static_cast<ssize_t>(n) &&
         pat.Matches(stream, off, buf.data(), n);
  }
  return fs->Close(fd) == 0 && ok;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual int threads() const { return 1; }
  virtual splitfs::Options Tune(splitfs::Options o) const { return o; }
  // Untimed preload.
  virtual void Setup(Env& env) = 0;
  // The i-th timed op of worker `thread`.
  virtual void Op(Env& env, int thread, uint64_t i) = 0;
  // Verifies the state the timed phase left, then closes every descriptor.
  virtual void Finish(Env& env) = 0;
  // App-level check after crash + recovery; file digests are compared regardless.
  virtual void CheckRecovered(Env&) {}
  // apps-layer counters of the timed phase (KvLsm); read before Finish.
  virtual uint64_t Flushes() const { return 0; }
  virtual uint64_t Compactions() const { return 0; }
  // Set only around the timed phase of a traced run: KvLsm calls go through
  // TimedApp.
  bool time_app_calls = false;
};

// --- append_fsync ------------------------------------------------------------------
// One thread appends log records (2-6 KiB, mean 4 KiB) with an fsync every 16, and
// rotates at 8 MiB: close, open the next file, unlink the file four generations back.
class AppendFsync final : public Workload {
 public:
  void Setup(Env& env) override {
    rng_ = common::Rng(Mix(env.seed, 1));
    env.Expect(env.fs->Mkdir("/w") == 0);
    fd_ = env.fs->Open(Path(0), vfs::kRdWr | vfs::kCreate);
    env.Expect(fd_ >= 0);
    sizes_.push_back(0);
  }

  void Op(Env& env, int, uint64_t) override {
    uint64_t n = rng_.Range(kMinRecord, kMaxRecord);
    uint64_t gen = sizes_.size() - 1;
    if (sizes_[gen] + n > kFileBytes) {
      env.Expect(env.fs->Close(fd_) == 0);
      ++gen;
      sizes_.push_back(0);
      fd_ = env.fs->Open(Path(gen), vfs::kRdWr | vfs::kCreate);
      env.Expect(fd_ >= 0);
      if (gen >= kKeepGenerations) {
        env.Expect(env.fs->Unlink(Path(gen - kKeepGenerations)) == 0);
      }
    }
    uint64_t& size = sizes_[gen];
    env.Expect(WriteAll(env.fs, fd_, env.pat->At(gen, size), n, size));
    size += n;
    env.AddUserBytes(n);
    if (++unsynced_ == kFsyncEvery) {
      unsynced_ = 0;
      env.Expect(env.fs->Fsync(fd_) == 0);
    }
  }

  void Finish(Env& env) override {
    env.Expect(env.fs->Close(fd_) == 0);
    uint64_t last = sizes_.size() - 1;
    uint64_t first = last >= kKeepGenerations - 1 ? last - (kKeepGenerations - 1) : 0;
    for (uint64_t g = first; g <= last; ++g) {
      env.Expect(FileMatches(env.fs, *env.pat, Path(g), g, sizes_[g]));
    }
  }

 private:
  static constexpr uint64_t kFileBytes = 8 * kMiB;
  static constexpr uint64_t kMinRecord = 2 * kKiB;
  static constexpr uint64_t kMaxRecord = 6 * kKiB;
  static constexpr uint64_t kFsyncEvery = 16;
  static constexpr uint64_t kKeepGenerations = 4;

  static std::string Path(uint64_t gen) { return "/w/log-" + std::to_string(gen); }

  common::Rng rng_;
  int fd_ = -1;
  std::vector<uint64_t> sizes_;  // Per generation; the last one is open.
  uint64_t unsynced_ = 0;
};

// --- kv_read_mostly ----------------------------------------------------------------
// YCSB-B over KvLsm with default options: 95% zipfian(0.99) gets, 5% puts, values of
// 512-1536 B. The preload (far larger than the 4 MiB memtable) is followed by
// updates until a compaction completes, so every timed phase starts from the same
// LSM shape: one table and an empty memtable.
class KvReadMostly final : public Workload {
 public:
  explicit KvReadMostly(uint64_t records) : records_(records) {}

  void Setup(Env& env) override {
    rng_ = common::Rng(Mix(env.seed, 2));
    zipf_ = std::make_unique<common::ZipfianGenerator>(records_, 0.99, Mix(env.seed, 3));
    env.Expect(env.fs->Mkdir("/w") == 0);
    Open(env);
    versions_.assign(records_, 0);
    for (uint64_t k = 0; k < records_; ++k) {
      env.Expect(store_->Put(Key(k), Value(env, k)) == 0);
    }
    uint64_t compactions = store_->Compactions();
    while (store_->Compactions() == compactions) {
      uint64_t k = rng_.Uniform(records_);
      ++versions_[k];
      env.Expect(store_->Put(Key(k), Value(env, k)) == 0);
    }
    flushes0_ = store_->Flushes();
    compactions0_ = store_->Compactions();
  }

  void Op(Env& env, int, uint64_t i) override {
    uint64_t k = zipf_->NextScrambled();
    // Every 20th op is the 5% of puts: a fixed put count per window keeps the
    // flush and compaction points (and so the LSM shape gets see) steady across seeds.
    if (i % kPutEvery == kPutEvery - 1) {
      ++versions_[k];
      std::string key = Key(k);
      std::string value = Value(env, k);
      env.AddUserBytes(key.size() + value.size());
      int rc = time_app_calls ? TimedApp(env.ctx, kPut, "kv.put",
                                         [&] { return store_->Put(key, value); })
                              : store_->Put(key, value);
      env.Expect(rc == 0);
      return;
    }
    std::string key = Key(k);
    std::optional<std::string> got =
        time_app_calls ? TimedApp(env.ctx, kGet, "kv.get", [&] { return store_->Get(key); })
                       : store_->Get(key);
    env.Expect(got.has_value() && Matches(env, k, *got));
  }

  void Finish(Env&) override { store_.reset(); }

  void CheckRecovered(Env& env) override {
    Open(env);
    for (uint64_t k = 0; k < records_; ++k) {
      std::optional<std::string> got = store_->Get(Key(k));
      env.Expect(got.has_value() && Matches(env, k, *got));
    }
    store_.reset();
  }

  uint64_t Flushes() const override { return store_->Flushes() - flushes0_; }
  uint64_t Compactions() const override { return store_->Compactions() - compactions0_; }

 private:
  static constexpr uint64_t kPutEvery = 20;
  static constexpr uint64_t kMinValue = 512;
  static constexpr uint64_t kMaxValue = 1536;

  void Open(Env& env) {
    apps::KvLsmOptions opts;
    opts.clock = &env.ctx->clock;
    store_ = std::make_unique<apps::KvLsm>(env.fs, "/w/kv", opts);
  }

  static std::string Key(uint64_t k) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "user%010llu", static_cast<unsigned long long>(k));
    return buf;
  }
  uint64_t Stream(uint64_t k) const { return Mix(k, versions_[k]); }
  uint64_t ValueBytes(uint64_t k) const {
    return kMinValue + Stream(k) % (kMaxValue - kMinValue + 1);
  }
  std::string Value(Env& env, uint64_t k) const {
    const char* p = reinterpret_cast<const char*>(env.pat->At(Stream(k), 0));
    return std::string(p, ValueBytes(k));
  }
  bool Matches(Env& env, uint64_t k, const std::string& got) const {
    return got.size() == ValueBytes(k) &&
           env.pat->Matches(Stream(k), 0, reinterpret_cast<const uint8_t*>(got.data()),
                            got.size());
  }

  uint64_t records_;
  common::Rng rng_;
  std::unique_ptr<common::ZipfianGenerator> zipf_;
  std::unique_ptr<apps::KvLsm> store_;
  std::vector<uint32_t> versions_;
  uint64_t flushes0_ = 0;  // Counts at the start of the timed phase.
  uint64_t compactions0_ = 0;
};

// --- meta_churn --------------------------------------------------------------------
// rsync/git-style replace-by-rename across 16 directories: create a temp file, write
// 1-16 KiB, fsync, close, rename into place, stat it, unlink the file from 256
// iterations back; a readdir every 64 iterations.
class MetaChurn final : public Workload {
 public:
  void Setup(Env& env) override {
    rng_ = common::Rng(Mix(env.seed, 4));
    env.Expect(env.fs->Mkdir("/w") == 0);
    for (uint64_t d = 0; d < kDirs; ++d) {
      env.Expect(env.fs->Mkdir(Dir(d)) == 0);
    }
    sizes_.assign(kKeep, 0);
  }

  void Op(Env& env, int, uint64_t i) override {
    uint64_t d = i % kDirs;
    uint64_t n = rng_.Range(kMinBytes, kMaxBytes);
    std::string tmp = Dir(d) + "/t" + std::to_string(i);
    std::string path = File(i);
    int fd = env.fs->Open(tmp, vfs::kRdWr | vfs::kCreate);
    env.Expect(fd >= 0);
    env.Expect(WriteAll(env.fs, fd, env.pat->At(i, 0), n, 0));
    env.Expect(env.fs->Fsync(fd) == 0);
    env.Expect(env.fs->Close(fd) == 0);
    env.Expect(env.fs->Rename(tmp, path) == 0);
    vfs::StatBuf st;
    env.Expect(env.fs->Stat(path, &st) == 0 && st.size == n);
    env.AddUserBytes(n);
    sizes_[i % kKeep] = n;
    if (i >= kKeep) {
      env.Expect(env.fs->Unlink(File(i - kKeep)) == 0);
    }
    if (i % kReaddirEvery == kReaddirEvery - 1) {
      // Live files are iterations (i - kKeep, i]; those in d are i, i-16, i-32, ...
      uint64_t live = std::min(i + 1, kKeep);
      uint64_t expect = (live - 1) / kDirs + 1;
      std::vector<std::string> names;
      env.Expect(env.fs->ReadDir(Dir(d), &names) == 0 && names.size() == expect);
    }
    done_ = i + 1;
  }

  void Finish(Env& env) override {
    for (uint64_t i = done_ > kKeep ? done_ - kKeep : 0; i < done_; ++i) {
      env.Expect(FileMatches(env.fs, *env.pat, File(i), i, sizes_[i % kKeep]));
    }
  }

 private:
  static constexpr uint64_t kDirs = 16;
  static constexpr uint64_t kKeep = 256;
  static constexpr uint64_t kReaddirEvery = 64;
  static constexpr uint64_t kMinBytes = 1 * kKiB;
  static constexpr uint64_t kMaxBytes = 16 * kKiB;

  static std::string Dir(uint64_t d) { return "/w/d" + std::to_string(d); }
  static std::string File(uint64_t i) { return Dir(i % kDirs) + "/f" + std::to_string(i); }

  common::Rng rng_;
  std::vector<uint64_t> sizes_;  // Ring of the live files' sizes.
  uint64_t done_ = 0;
};

// --- mt_shared ---------------------------------------------------------------------
// Three workers share one prewarmed 8 MiB file of 4 KiB slots; worker t owns the
// slots s with s % 3 == t. One op: overwrite an own slot, pread a random slot, append
// 128-384 B to the worker's own log (fsync every 8 ops; 1 MiB segments, the previous
// one kept), and every 64 ops create, write, fsync and close a 4 KiB file in a shared
// directory, unlinking the one from 10 generations back. Runs with the staging
// replenisher thread and async relink (inline publisher), so 4 threads are busy.
//
// The logs rotate because U-Split rebuilds a file's whole mmap snapshot
// (MmapCache::BuilderFrom) at each publish: one ever-growing log made host ns/op
// climb ~6x between 30k and 300k ops per mode, so no run length was steady.
class MtShared final : public Workload {
 public:
  int threads() const override { return kThreads; }

  splitfs::Options Tune(splitfs::Options o) const override {
    o.replenish_thread = true;
    o.async_relink = true;
    return o;
  }

  void Setup(Env& env) override {
    env.Expect(env.fs->Mkdir("/w") == 0);
    env.Expect(env.fs->Mkdir("/w/side") == 0);
    shared_fd_ = env.fs->Open(kSharedPath, vfs::kRdWr | vfs::kCreate);
    env.Expect(shared_fd_ >= 0);
    env.Expect(env.fs->Fallocate(shared_fd_, 0, kFileBytes, /*keep_size=*/false) == 0);
    std::vector<uint8_t> chunk(64 * kKiB);
    for (uint64_t off = 0; off < kFileBytes; off += chunk.size()) {
      for (uint64_t s = off / kSlot; s < (off + chunk.size()) / kSlot; ++s) {
        FillSlot(env, s, 0, &chunk[s * kSlot - off]);
      }
      env.Expect(WriteAll(env.fs, shared_fd_, chunk.data(), chunk.size(), off));
    }
    env.Expect(env.fs->Fsync(shared_fd_) == 0);
    for (uint64_t off = 0; off < kFileBytes; off += chunk.size()) {
      env.Expect(env.fs->Pread(shared_fd_, chunk.data(), chunk.size(), off) ==
                 static_cast<ssize_t>(chunk.size()));
    }
    for (int t = 0; t < kThreads; ++t) {
      Worker& w = workers_[t];
      w.rng = common::Rng(Mix(env.seed, 16 + t));
      w.versions.assign(OwnSlots(t), 0);
      w.log_fd = env.fs->Open(LogPath(t, 0), vfs::kRdWr | vfs::kCreate);
      env.Expect(w.log_fd >= 0);
      w.wbuf.resize(kSlot);
      w.rbuf.resize(kSlot);
    }
  }

  void Op(Env& env, int t, uint64_t i) override {
    Worker& w = workers_[t];
    uint64_t idx = w.rng.Uniform(w.versions.size());
    uint64_t slot = static_cast<uint64_t>(t) + kThreads * idx;
    FillSlot(env, slot, ++w.versions[idx], w.wbuf.data());
    env.Expect(WriteAll(env.fs, shared_fd_, w.wbuf.data(), kSlot, slot * kSlot));

    uint64_t r = w.rng.Uniform(kSlots);
    uint64_t version = 0;
    env.Expect(env.fs->Pread(shared_fd_, w.rbuf.data(), kSlot, r * kSlot) ==
                   static_cast<ssize_t>(kSlot) &&
               SlotValid(env, r, w.rbuf.data(), &version) &&
               (r % kThreads != static_cast<uint64_t>(t) ||
                version == w.versions[r / kThreads]));

    uint64_t n = w.rng.Range(kMinLog, kMaxLog);
    if (w.log_bytes + n > kLogSegmentBytes) {
      env.Expect(env.fs->Close(w.log_fd) == 0);
      w.prev_log_bytes = w.log_bytes;
      w.log_bytes = 0;
      ++w.log_gen;
      w.log_fd = env.fs->Open(LogPath(t, w.log_gen), vfs::kRdWr | vfs::kCreate);
      env.Expect(w.log_fd >= 0);
      if (w.log_gen >= 2) {
        env.Expect(env.fs->Unlink(LogPath(t, w.log_gen - 2)) == 0);
      }
    }
    env.Expect(WriteAll(env.fs, w.log_fd, env.pat->At(LogStream(t, w.log_gen), w.log_bytes),
                        n, w.log_bytes));
    w.log_bytes += n;
    if (i % kLogFsyncEvery == kLogFsyncEvery - 1) {
      env.Expect(env.fs->Fsync(w.log_fd) == 0);
    }
    env.AddUserBytes(kSlot + n);

    if (i % kSideEvery == kSideEvery - 1) {
      uint64_t k = i / kSideEvery;
      int fd = env.fs->Open(SidePath(t, k), vfs::kRdWr | vfs::kCreate);
      env.Expect(fd >= 0);
      env.Expect(WriteAll(env.fs, fd, env.pat->At(SideStream(t, k), 0), kSlot, 0));
      env.Expect(env.fs->Fsync(fd) == 0);
      env.Expect(env.fs->Close(fd) == 0);
      if (k >= kSideKeep) {
        env.Expect(env.fs->Unlink(SidePath(t, k - kSideKeep)) == 0);
      }
      w.side_files = k + 1;
      env.AddUserBytes(kSlot);
    }
  }

  void Finish(Env& env) override {
    std::vector<uint8_t> buf(kSlot);
    for (uint64_t s = 0; s < kSlots; ++s) {
      uint64_t version = 0;
      env.Expect(env.fs->Pread(shared_fd_, buf.data(), kSlot, s * kSlot) ==
                     static_cast<ssize_t>(kSlot) &&
                 SlotValid(env, s, buf.data(), &version) &&
                 version == workers_[s % kThreads].versions[s / kThreads]);
    }
    env.Expect(env.fs->Close(shared_fd_) == 0);
    for (int t = 0; t < kThreads; ++t) {
      Worker& w = workers_[t];
      env.Expect(env.fs->Close(w.log_fd) == 0);
      env.Expect(FileMatches(env.fs, *env.pat, LogPath(t, w.log_gen),
                             LogStream(t, w.log_gen), w.log_bytes));
      if (w.log_gen > 0) {
        env.Expect(FileMatches(env.fs, *env.pat, LogPath(t, w.log_gen - 1),
                               LogStream(t, w.log_gen - 1), w.prev_log_bytes));
      }
      uint64_t first = w.side_files > kSideKeep ? w.side_files - kSideKeep : 0;
      for (uint64_t k = first; k < w.side_files; ++k) {
        env.Expect(FileMatches(env.fs, *env.pat, SidePath(t, k), SideStream(t, k), kSlot));
      }
    }
  }

 private:
  static constexpr int kThreads = 3;
  static constexpr uint64_t kSlot = 4 * kKiB;
  static constexpr uint64_t kFileBytes = 8 * kMiB;
  static constexpr uint64_t kSlots = kFileBytes / kSlot;
  static constexpr uint64_t kHeader = 3 * sizeof(uint64_t);  // owner, slot, version
  static constexpr uint64_t kMinLog = 128;
  static constexpr uint64_t kMaxLog = 384;
  static constexpr uint64_t kLogFsyncEvery = 8;
  static constexpr uint64_t kLogSegmentBytes = 1 * kMiB;
  static constexpr uint64_t kSideEvery = 64;
  static constexpr uint64_t kSideKeep = 10;
  static constexpr const char* kSharedPath = "/w/shared";

  struct Worker {
    common::Rng rng;
    std::vector<uint64_t> versions;  // Last version written to each own slot.
    int log_fd = -1;
    uint64_t log_gen = 0;
    uint64_t log_bytes = 0;       // Of segment log_gen.
    uint64_t prev_log_bytes = 0;  // Of segment log_gen - 1.
    uint64_t side_files = 0;
    std::vector<uint8_t> wbuf;
    std::vector<uint8_t> rbuf;
  };

  static uint64_t OwnSlots(int t) { return (kSlots - t + kThreads - 1) / kThreads; }
  static std::string LogPath(int t, uint64_t gen) {
    return "/w/log-" + std::to_string(t) + "-" + std::to_string(gen);
  }
  static std::string SidePath(int t, uint64_t k) {
    return "/w/side/f" + std::to_string(t) + "-" + std::to_string(k);
  }
  static uint64_t LogStream(int t, uint64_t gen) { return Mix(100 + t, gen); }
  static uint64_t SideStream(int t, uint64_t k) { return Mix(200 + t, k); }
  static uint64_t SlotStream(uint64_t slot, uint64_t version) { return Mix(slot, version); }

  // Slot image: {owner, slot, version} header, then pattern bytes of that version.
  static void FillSlot(Env& env, uint64_t slot, uint64_t version, uint8_t* out) {
    uint64_t header[3] = {slot % kThreads, slot, version};
    std::memcpy(out, header, kHeader);
    std::memcpy(out + kHeader, env.pat->At(SlotStream(slot, version), 0), kSlot - kHeader);
  }
  static bool SlotValid(Env& env, uint64_t slot, const uint8_t* data, uint64_t* version) {
    uint64_t header[3];
    std::memcpy(header, data, kHeader);
    *version = header[2];
    return header[0] == slot % kThreads && header[1] == slot &&
           env.pat->Matches(SlotStream(slot, header[2]), 0, data + kHeader, kSlot - kHeader);
  }

  int shared_fd_ = -1;
  Worker workers_[kThreads];
};

std::unique_ptr<Workload> MakeWorkload(WorkloadId id, const Sizes& sizes) {
  switch (id) {
    case WorkloadId::kAppendFsync:
      return std::make_unique<AppendFsync>();
    case WorkloadId::kKvReadMostly:
      return std::make_unique<KvReadMostly>(sizes.kv_records);
    case WorkloadId::kMetaChurn:
      return std::make_unique<MetaChurn>();
    case WorkloadId::kMtShared:
      return std::make_unique<MtShared>();
  }
  return nullptr;
}

// --- Testbed -----------------------------------------------------------------------

// One simulated machine: device -> ext4-DAX (K-Split) -> U-Split. Members are
// destroyed in reverse order, so U-Split goes first.
struct Bed {
  explicit Bed(const splitfs::Options& opts) : opts(opts) {
    dev = std::make_unique<pmem::Device>(&ctx, kDeviceBytes);
    kfs = std::make_unique<ext4sim::Ext4Dax>(dev.get());
    split = std::make_unique<splitfs::SplitFs>(kfs.get(), opts);
  }

  // Returns once no background work is in flight: queued publishes are done and the
  // staging replenisher has refilled its spare queue (it then sleeps until the next
  // staging file is consumed).
  bool Quiesce() {
    split->WaitForPublishes();
    if (!opts.replenish_thread) {
      return true;
    }
    for (int i = 0; i < 30000; ++i) {
      if (split->staging_pool().SpareFiles() >= opts.num_staging_files) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  splitfs::Options opts;
  sim::Context ctx;
  std::unique_ptr<pmem::Device> dev;
  std::unique_ptr<ext4sim::Ext4Dax> kfs;
  std::unique_ptr<splitfs::SplitFs> split;
};

// Staging pool and op log sized for kDeviceBytes. With a 16 MiB log, mt_shared/strict
// hit ~5 log-full checkpoints per run, and whichever lane ran the extra one set the
// elapsed time: strict.kops fell into two clusters 1.4% apart. At 64 MiB its ~0.7M
// entries fit; append_fsync/strict still fills the log once per run.
splitfs::Options BaseOptions(splitfs::Mode mode) {
  splitfs::Options o;
  o.mode = mode;
  o.num_staging_files = 8;
  o.staging_file_bytes = 32 * kMiB;
  o.oplog_bytes = 64 * kMiB;
  return o;
}

// --- Timed phase -------------------------------------------------------------------

struct Samples {
  std::vector<uint64_t> lat_vns;
  std::vector<uint64_t> seg_host_ns;
  std::vector<uint64_t> seg_ops;
  uint64_t elapsed_vns = 0;
};

// Runs ops/threads ops on each worker thread, timing each op on the simulated clock
// and the five equal segments of the phase on the host clock (a barrier separates
// the segments). A single worker runs on the calling thread on the shared timeline;
// several run on their own clock lanes, pinned to structure lanes 0..n-1, and the
// phase lasts as long as the slowest lane. `accs`, when set, receives each worker's
// wrapped-call totals.
Samples RunTimed(Workload* w, Env* env, uint64_t ops, std::vector<LayerAcc>* accs) {
  const int threads = w->threads();
  const uint64_t per_thread = ops / threads;
  sim::Clock* clock = &env->ctx->clock;
  std::vector<uint64_t> marks;
  std::barrier sync(threads, [&marks]() noexcept { marks.push_back(HostNowNs()); });
  std::vector<std::vector<uint64_t>> lat(threads);
  std::vector<uint64_t> elapsed(threads, 0);

  auto body = [&](int t) {
    std::optional<ScopedAcc> bind;
    if (accs != nullptr) {
      bind.emplace(&(*accs)[t]);
    }
    std::vector<uint64_t>& my = lat[t];
    my.reserve(per_thread);
    uint64_t t0 = clock->Now();
    for (int s = 0; s < kSegments; ++s) {
      sync.arrive_and_wait();
      uint64_t end = per_thread * (s + 1) / kSegments;
      for (uint64_t i = per_thread * s / kSegments; i < end; ++i) {
        uint64_t v0 = clock->Now();
        w->Op(*env, t, i);
        my.push_back(clock->Now() - v0);
      }
    }
    sync.arrive_and_wait();
    elapsed[t] = clock->Now() - t0;
  };

  if (threads == 1) {
    body(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        common::ScopedThreadLane pin(static_cast<size_t>(t));
        sim::Clock::Lane lane(clock);
        body(t);
      });
    }
    for (std::thread& th : workers) {
      th.join();
    }
  }

  Samples out;
  for (const std::vector<uint64_t>& v : lat) {
    out.lat_vns.insert(out.lat_vns.end(), v.begin(), v.end());
  }
  for (int s = 0; s < kSegments; ++s) {
    out.seg_host_ns.push_back(marks[s + 1] - marks[s]);
    out.seg_ops.push_back(static_cast<uint64_t>(threads) *
                          (per_thread * (s + 1) / kSegments - per_thread * s / kSegments));
  }
  out.elapsed_vns = *std::max_element(elapsed.begin(), elapsed.end());
  return out;
}

// --- Per-layer values of a traced run ------------------------------------------------

// U-Split counters are cumulative per instance; the timed phase reports deltas.
struct CoreCounters {
  uint64_t relinks = 0;
  uint64_t oplog_entries = 0;
  uint64_t checkpoints = 0;
  uint64_t async_publishes = 0;

  static CoreCounters Of(const splitfs::SplitFs& fs) {
    return {fs.Relinks(), fs.OpLogEntries(), fs.Checkpoints(), fs.AsyncPublishes()};
  }
};

void CaptureLayers(Bed& bed, const Workload& w, const CoreCounters& before,
                   const std::vector<LayerAcc>& accs, uint64_t ops, ModeResult* res) {
  auto set = [res](std::string_view name, double value) {
    for (size_t i = 0; i < kLayerMetrics.size(); ++i) {
      if (name == kLayerMetrics[i].name) {
        res->layers[i] = value;
        return;
      }
    }
    SPLITFS_CHECK(false);
  };
  auto mean = [](uint64_t total, uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
  };
  auto per_op = [ops](uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(ops);
  };

  LayerAcc acc;
  for (const LayerAcc& a : accs) {
    acc.MergeFrom(a);
  }
  uint64_t app_calls = acc.app_calls[kGet] + acc.app_calls[kPut];
  set("apps.get_vns", mean(acc.app_vns[kGet], acc.app_calls[kGet]));
  set("apps.put_vns", mean(acc.app_vns[kPut], acc.app_calls[kPut]));
  set("apps.self_vns", mean(acc.app_self_vns, app_calls));
  set("apps.self_host_ns", mean(acc.app_self_host_ns, app_calls));
  set("apps.flushes", static_cast<double>(w.Flushes()));
  set("apps.compactions", static_cast<double>(w.Compactions()));
  for (int k = 0; k < kCoreCallCount; ++k) {
    std::string base = std::string("core.") + kCoreCallNames[k];
    set(base + "_vns", mean(acc.core_vns[k], acc.core_calls[k]));
    set(base + "_host_ns", mean(acc.core_host_ns[k], acc.core_calls[k]));
  }

  CoreCounters now = CoreCounters::Of(*bed.split);
  set("core.relinks", static_cast<double>(now.relinks - before.relinks));
  set("core.oplog_entries", static_cast<double>(now.oplog_entries - before.oplog_entries));
  set("core.checkpoints", static_cast<double>(now.checkpoints - before.checkpoints));
  set("core.async_publishes",
      static_cast<double>(now.async_publishes - before.async_publishes));
  set("core.dram_bytes", static_cast<double>(bed.split->MemoryUsageBytes()));

  const sim::Stats& st = bed.ctx.stats;
  set("ext4.syscalls_per_op", per_op(st.syscalls()));
  set("ext4.journal_commits", static_cast<double>(st.journal_commits()));
  uint64_t service_ns = 0;
  for (const obs::MetricsRegistry::Sample& s : bed.ctx.obs.metrics.Snapshot()) {
    if (s.name == "journal.commit_service_ns") {
      service_ns = s.value;
    }
  }
  set("ext4.commit_service_ns", static_cast<double>(service_ns));
  set("pmem.data_write_bpo", per_op(st.data_bytes()));
  set("pmem.metadata_write_bpo", per_op(st.metadata_bytes()));
  set("pmem.journal_write_bpo", per_op(st.journal_bytes()));
  set("pmem.log_write_bpo", per_op(st.log_bytes()));
  set("pmem.read_bpo", per_op(st.pm_read_bytes()));
  set("pmem.fences_per_op", per_op(st.fences()));
  set("pmem.page_faults", static_cast<double>(st.page_faults()));

  uint64_t range = 0, journal = 0, ext4_lock = 0, staging = 0, total = 0;
  for (const auto& [name, e] : bed.ctx.obs.ledger.Snapshot()) {
    std::string_view n = name;
    total += e.waited_ns;
    if (n == "splitfs.range_lock" || n == "splitfs.strict_range_log" ||
        n == "ext4.inode_range") {
      range += e.waited_ns;
    } else if (n.starts_with("journal.")) {
      journal += e.waited_ns;
    } else if (n.starts_with("ext4.")) {
      ext4_lock += e.waited_ns;
    } else if (n.starts_with("staging.")) {
      staging += e.waited_ns;
    }
  }
  set("wait.range_lock_ns", per_op(range));
  set("wait.journal_ns", per_op(journal));
  set("wait.ext4_lock_ns", per_op(ext4_lock));
  set("wait.staging_ns", per_op(staging));
  set("wait.total_ns", per_op(total));
}

// --- Durability check --------------------------------------------------------------

struct Digest {
  uint64_t size = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;

  // Folds the next n bytes of the file in; every call but the last passes a multiple
  // of 8 bytes.
  void Add(const uint8_t* p, uint64_t n) {
    for (uint64_t i = 0; i < n; i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, p + i, std::min<uint64_t>(8, n - i));
      hash = (hash ^ word) * 0x100000001B3ull;
    }
  }
  static Digest Of(const std::vector<uint8_t>& bytes) {
    Digest d{bytes.size(), Mix(bytes.size())};
    d.Add(bytes.data(), bytes.size());
    return d;
  }
};

// Appends the regular files under `dir` to `out`, walking subdirectories.
bool ListTree(vfs::FileSystem* fs, const std::string& dir, std::vector<std::string>* out) {
  std::vector<std::string> names;
  if (fs->ReadDir(dir, &names) != 0) {
    return false;
  }
  for (const std::string& name : names) {
    std::string path = dir + "/" + name;
    vfs::StatBuf st;
    if (fs->Stat(path, &st) != 0) {
      return false;
    }
    if (st.type != vfs::FileType::kDirectory) {
      out->push_back(path);
    } else if (!ListTree(fs, path, out)) {
      return false;
    }
  }
  return true;
}

// Size and content hash of every file under `dir` except `skip`, read through `fs`.
bool DigestTree(vfs::FileSystem* fs, const std::string& dir, const std::string& skip,
                std::map<std::string, Digest>* out) {
  std::vector<std::string> files;
  if (!ListTree(fs, dir, &files)) {
    return false;
  }
  std::vector<uint8_t> buf(256 * kKiB);
  for (const std::string& path : files) {
    if (path == skip) {
      continue;
    }
    int fd = fs->Open(path, vfs::kRdOnly);
    vfs::StatBuf st;
    if (fd < 0 || fs->Fstat(fd, &st) != 0) {
      return false;
    }
    Digest d{st.size, Mix(st.size)};
    for (uint64_t off = 0; off < st.size; off += buf.size()) {
      uint64_t n = std::min<uint64_t>(buf.size(), st.size - off);
      if (fs->Pread(fd, buf.data(), n, off) != static_cast<ssize_t>(n)) {
        fs->Close(fd);
        return false;
      }
      d.Add(buf.data(), n);
    }
    if (fs->Close(fd) != 0) {
      return false;
    }
    (*out)[path] = d;
  }
  return true;
}

// Fsyncs every file under the workload root, digests it, cuts power, runs ext4 and
// U-Split recovery (timed on the simulated clock), and digests again. Crash tracking
// is on only for this check, so the timed phase does not pay for shadow images.
//
// The crash also leaves work outstanding: after the sync, a seeded number (16-64) of
// 4 KiB overwrites of a bench-owned 1 MiB file, whose descriptor stays open and which
// is not read again before the crash (a close would publish them). Size-preserving
// overwrites are synchronous in every mode, so they must survive; in strict mode
// they are unpublished copy-on-write runs that op-log replay relinks, so recovery
// work depends on the inputs, as it does after a real crash.
void DurabilityCheck(Bed& bed, Env& env, Workload* w, ModeResult* res) {
  const std::string kTailPath = "/w/crash-tail";
  constexpr uint64_t kTailBlock = 4 * kKiB;
  constexpr uint64_t kTailBlocks = 256;
  vfs::FileSystem* fs = bed.split.get();
  env.Expect(bed.Quiesce());
  bed.dev->EnableCrashTracking(true);
  std::vector<uint8_t> tail(env.pat->At(Mix(env.seed, 5), 0),
                            env.pat->At(Mix(env.seed, 5), 0) + kTailBlocks * kTailBlock);
  int tail_fd = fs->Open(kTailPath, vfs::kRdWr | vfs::kCreate);
  env.Expect(tail_fd >= 0 && WriteAll(fs, tail_fd, tail.data(), tail.size(), 0));
  std::vector<std::string> files;
  env.Expect(ListTree(fs, "/w", &files));
  for (const std::string& path : files) {
    int fd = fs->Open(path, vfs::kRdWr);
    env.Expect(fd >= 0 && fs->Fsync(fd) == 0 && fs->Close(fd) == 0);
  }
  // syncfs(): POSIX mode makes renames and unlinks durable only at the next journal
  // commit, and a file fsync with nothing staged may not force one.
  env.Expect(bed.kfs->CommitJournal(/*fsync_barrier=*/true) == 0);
  std::map<std::string, Digest> before;
  env.Expect(DigestTree(fs, "/w", kTailPath, &before));
  uint64_t overwrites = 16 + Mix(env.seed, 6) % 49;
  for (uint64_t j = 0; j < overwrites; ++j) {
    uint64_t off = Mix(env.seed, 1000 + j) % kTailBlocks * kTailBlock;
    const uint8_t* src = env.pat->At(Mix(env.seed, 2000 + j), 0);
    env.Expect(WriteAll(fs, tail_fd, src, kTailBlock, off));
    std::memcpy(&tail[off], src, kTailBlock);
  }
  before[kTailPath] = Digest::Of(tail);
  env.Expect(bed.Quiesce());
  bed.dev->Crash();
  uint64_t v0 = bed.ctx.clock.Now();
  env.Expect(bed.kfs->Recover() == 0);
  env.Expect(bed.split->Recover() == 0);
  res->recovery_vns = bed.ctx.clock.Now() - v0;
  std::map<std::string, Digest> after;
  env.Expect(DigestTree(fs, "/w", "", &after));
  env.Expect(after == before);
  vfs::FileSystem* workload_fs = env.fs;
  env.fs = fs;
  w->CheckRecovered(env);
  env.fs = workload_fs;
  env.Expect(bed.Quiesce());
  bed.dev->EnableCrashTracking(false);
}

}  // namespace

int WorkerThreads(WorkloadId w) { return MakeWorkload(w, Sizes{})->threads(); }

ModeResult RunMode(WorkloadId id, splitfs::Mode mode, uint64_t seed, const Sizes& sizes,
                   bool traced, const std::string& trace_path) {
  ModeResult res;
  uint64_t h0 = HostNowNs();
  std::unique_ptr<Workload> w = MakeWorkload(id, sizes);
  splitfs::Options opts = w->Tune(BaseOptions(mode));
  opts.tracing = traced;
  Bed bed(opts);
  Pattern pat(seed);
  std::optional<TimedFs> timed_fs;
  if (traced) {
    timed_fs.emplace(bed.split.get(), &bed.ctx);
  }
  Env env;
  env.fs = traced ? static_cast<vfs::FileSystem*>(&*timed_fs) : bed.split.get();
  env.ctx = &bed.ctx;
  env.pat = &pat;
  env.seed = seed;
  w->Setup(env);
  env.Expect(bed.Quiesce());
  // Setup work is not part of the measured phase: zero the clock, counters, ledger.
  bed.ctx.Reset();
  CoreCounters before = CoreCounters::Of(*bed.split);
  std::vector<LayerAcc> accs(static_cast<size_t>(w->threads()));
  if (traced) {
    bed.ctx.obs.tracer.Enable(kTraceRingSpans);
    w->time_app_calls = true;
  }
  res.setup_host_ns = HostNowNs() - h0;

  Samples s = RunTimed(w.get(), &env, sizes.ops, traced ? &accs : nullptr);
  w->time_app_calls = false;
  bed.ctx.obs.tracer.Disable();
  res.ops = s.lat_vns.size();
  res.elapsed_vns = s.elapsed_vns;
  res.lat_vns = std::move(s.lat_vns);
  res.seg_host_ns = std::move(s.seg_host_ns);
  res.seg_ops = std::move(s.seg_ops);
  res.user_bytes = env.user_bytes.load();
  res.pm_write_bytes = bed.ctx.stats.pm_write_bytes();
  if (traced) {
    CaptureLayers(bed, *w, before, accs, res.ops, &res);
  }

  w->Finish(env);
  DurabilityCheck(bed, env, w.get(), &res);
  res.failed = env.failed.load();
  res.trace_drops = bed.ctx.obs.tracer.Drops();
  if (!trace_path.empty() && !bed.ctx.obs.tracer.ExportChromeTrace(trace_path)) {
    ++res.failed;
  }
  return res;
}

}  // namespace bench_splitfs
