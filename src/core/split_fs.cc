#include "src/core/split_fs.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "src/analysis/annotations.h"
#include "src/analysis/lock_witness.h"
#include "src/analysis/persist_checker.h"
#include "src/common/bytes.h"
#include "src/sim/token_bucket.h"

namespace splitfs {

using common::kBlockSize;
using vfs::Ino;
using vfs::RangeLock;
using vfs::RangeReadGuard;
using vfs::RangeWriteGuard;

namespace {
// One 4 KB scratch buffer per thread for partial-block staging copies.
thread_local std::vector<uint8_t> g_scratch(common::kBlockSize);

// Internal sentinel (never surfaces to callers): a strict per-range write raced a
// whole-file restructuring — checkpoint publish or truncate — during a log-full
// back-out. The bytes written so far are durable (published) or moot (truncated);
// LockedWrite re-classifies and replays the whole write, which is idempotent.
constexpr ssize_t kRangeWriteRetry = std::numeric_limits<ssize_t>::min();

// Witness site ids for U-Split's documented lock order (split_fs.h top comment).
// The per-file byte-range lock reports through vfs::RangeLock itself
// ("splitfs.range_lock").
int MetaMuSite() {
  static const int kSite = analysis::LockSite("usplit.file_meta");
  return kSite;
}
int CheckpointSite() {
  static const int kSite = analysis::LockSite("usplit.checkpoint");
  return kSite;
}
int EpochGateSite() {
  static const int kSite = analysis::LockSite("usplit.epoch_gate");
  return kSite;
}

// How one staged run [file_off, file_off + len) lands in its target file, for the
// live publish (RelinkRun) and op-log replay (Recover) alike:
//   [ head partial | aligned core ... | tail partial ]
// Head/tail partial blocks are copied (the paper's "SplitFS copies the partial
// data"); the aligned core moves by extent swap with zero data movement.
struct RunLayout {
  uint64_t head_end = 0;   // [file_off, head_end) is copied.
  uint64_t core_src = 0;   // Staging offset the swap starts at.
  uint64_t core_end = 0;   // [head_end, core_end) moves by extent swap...
  uint64_t core_len = 0;   // ...of this many (block-aligned) bytes; 0 = no swap.
  // [core_end, file_off + len) is copied: non-empty only for an overwrite's tail.
};

// Appends may relink their final partial block whole (nothing lives past EOF);
// an overwrite whose unaligned end lies strictly inside the target copies that tail
// instead — relinking it would clobber the settled bytes that share its block.
// `target_size()` is asked only for such an overwrite.
template <typename TargetSize>
RunLayout LayOutRun(uint64_t file_off, uint64_t len, uint64_t staging_off,
                    bool is_overwrite, TargetSize target_size) {
  const uint64_t end = file_off + len;
  RunLayout lay;
  lay.head_end = file_off;
  lay.core_src = staging_off;
  if (file_off % kBlockSize != 0) {
    lay.head_end = std::min(end, common::AlignUp(file_off, kBlockSize));
    lay.core_src = common::AlignUp(staging_off, kBlockSize);
  }
  lay.core_end = end;
  if (is_overwrite && end % kBlockSize != 0 && end < target_size()) {
    lay.core_end = std::max(lay.head_end, common::AlignDown(end, kBlockSize));
  }
  if (lay.core_end > lay.head_end) {
    lay.core_len = common::AlignUp(lay.core_end - lay.head_end, kBlockSize);
  }
  return lay;
}
}  // namespace

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kPosix:
      return "POSIX";
    case Mode::kSync:
      return "sync";
    case Mode::kStrict:
      return "strict";
  }
  return "?";
}

const char* OpKindName(OpKind op) {
  switch (op) {
    case OpKind::kOpen: return "splitfs.open";
    case OpKind::kClose: return "splitfs.close";
    case OpKind::kUnlink: return "splitfs.unlink";
    case OpKind::kRename: return "splitfs.rename";
    case OpKind::kPread: return "splitfs.pread";
    case OpKind::kPwrite: return "splitfs.pwrite";
    case OpKind::kRead: return "splitfs.read";
    case OpKind::kWrite: return "splitfs.write";
    case OpKind::kLseek: return "splitfs.lseek";
    case OpKind::kFsync: return "splitfs.fsync";
    case OpKind::kFtruncate: return "splitfs.ftruncate";
    case OpKind::kFallocate: return "splitfs.fallocate";
    case OpKind::kStat: return "splitfs.stat";
    case OpKind::kFstat: return "splitfs.fstat";
    case OpKind::kMkdir: return "splitfs.mkdir";
    case OpKind::kRmdir: return "splitfs.rmdir";
    case OpKind::kReadDir: return "splitfs.readdir";
    case OpKind::kRecover: return "splitfs.recover";
  }
  return "splitfs.?";
}

SplitFs::SplitFs(ext4sim::Ext4Dax* kfs, Options opts, const std::string& instance_tag,
                 const Services& services)
    : kfs_(kfs),
      ctx_(kfs->context()),
      opts_(opts),
      tag_(instance_tag),
      services_(services),
      journal_qos_resource_("tenant." + instance_tag + ".journal_throttle"),
      mmaps_(kfs, opts.mmap_size) {
  kfs_->Mkdir(opts_.runtime_dir);  // Idempotent; EEXIST is fine.
  if (opts_.enable_staging) {
    staging_ = std::make_unique<StagingPool>(kfs_, &mmaps_, opts_, tag_, services_);
  }
  if (opts_.mode == Mode::kStrict || opts_.async_relink) {
    // Strict logs every operation; async relink logs fsync's publish intents (any
    // mode) — both need the log replayed at recovery.
    oplog_ = std::make_unique<OpLog>(kfs_, opts_.runtime_dir + "/oplog-" + tag_,
                                     opts_.oplog_bytes);
  }
  // Make the runtime files (staging pool, op log) durable before serving operations:
  // recovery depends on their metadata having committed.
  int fd = kfs_->Open(opts_.runtime_dir + "/.init-" + tag_, vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  SPLITFS_CHECK_OK(kfs_->Fsync(fd));
  SPLITFS_CHECK_OK(kfs_->Close(fd));
  RegisterGauges();
}

void SplitFs::RegisterGauges() {
  // Tag-prefixed so concurrent U-Split instances over one Context never collide;
  // the dtor deregisters by the same prefix.
  obs::MetricsRegistry* m = &ctx_->obs.metrics;
  m->RegisterGauge(tag_ + ".publisher.async_publishes", [this]() {
    return async_publishes_.load(std::memory_order_acquire);
  });
  m->RegisterGauge(tag_ + ".relinks", [this]() {
    return relinks_.load(std::memory_order_acquire);
  });
  m->RegisterGauge(tag_ + ".checkpoints", [this]() {
    return checkpoints_.load(std::memory_order_acquire);
  });
  m->RegisterGauge(tag_ + ".dirty_files", [this]() -> uint64_t {
    int64_t v = dirty_files_.load(std::memory_order_acquire);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  });
  m->RegisterGauge(tag_ + ".mmap.regions", [this]() { return mmaps_.RegionCount(); });
  m->RegisterGauge(tag_ + ".epoch.retired_snapshots", [this]() {
    return static_cast<uint64_t>(mmaps_.RetiredSnapshotsForTest());
  });
  if (staging_ != nullptr) {
    m->RegisterGauge(tag_ + ".staging.live_files",
                     [this]() { return staging_->LiveFiles(); });
    m->RegisterGauge(tag_ + ".staging.spare_files",
                     [this]() { return staging_->SpareFiles(); });
  }
  if (oplog_ != nullptr) {
    m->RegisterGauge(tag_ + ".oplog.entries",
                     [this]() { return oplog_->EntriesLogged(); });
    m->RegisterGauge(tag_ + ".oplog.fill_permille", [this]() -> uint64_t {
      uint64_t cap = oplog_->Capacity();
      return cap == 0 ? 0 : oplog_->SlotsReserved() * 1000 / cap;
    });
  }
}

SplitFs::~SplitFs() {
  // Gauges read through `this`; drop them before any member state goes away.
  ctx_->obs.metrics.DeregisterGauges(tag_ + ".");
  for (FileShard& shard : file_shards_) {
    for (auto& [ino, fs] : shard.map) {
      if (fs->kernel_fd >= 0) {
        kfs_->Close(fs->kernel_fd);
      }
    }
  }
}

std::string SplitFs::Name() const { return std::string("SplitFS-") + ModeName(opts_.mode); }

// --- State management --------------------------------------------------------------------

SplitFs::FileRef SplitFs::FileOf(Ino ino) const {
  FileShard& shard = FileShardOf(ino);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(ino);
  return it == shard.map.end() ? nullptr : it->second;
}

Ino SplitFs::LookupPath(const std::string& path) const {
  PathShard& shard = PathShardOf(path);
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  auto it = shard.map.find(path);
  return it == shard.map.end() ? vfs::kInvalidIno : it->second;
}

SplitFs::FileRef SplitFs::StateOf(int fd, std::shared_ptr<vfs::OpenFile>* of_out) const {
  auto of = fds_.Get(fd);
  if (of == nullptr) {
    return nullptr;
  }
  if (of_out != nullptr) {
    *of_out = of;
  }
  return FileOf(of->ino);
}

std::vector<SplitFs::FileRef> SplitFs::SnapshotFiles() const {
  std::vector<FileRef> out;
  for (FileShard& shard : file_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [ino, fs] : shard.map) {
      out.push_back(fs);
    }
  }
  return out;
}

// --- Open / close / metadata ---------------------------------------------------------------

int SplitFs::Open(const std::string& path, int flags) {
  OpScope op_scope(this, OpKind::kOpen);
  // Retries only on races with unlink/creation (a cached state going defunct under
  // us, or a creation finishing first); a single-threaded process never loops.
  for (;;) {
    Ino cached_ino = LookupPath(path);
    FileRef fs = cached_ino != vfs::kInvalidIno ? FileOf(cached_ino) : nullptr;
    ctx_->ChargeCpu(fs != nullptr ? ctx_->model.usplit_reopen_cpu_ns
                                  : ctx_->model.usplit_open_cpu_ns);

    if (fs != nullptr) {
      // Reopen of a cached file: the kernel open still happens (the trap and path
      // walk), but U-Split reuses its cached attributes and existing kernel
      // descriptor.
      if ((flags & vfs::kCreate) != 0 && (flags & vfs::kExcl) != 0) {
        return -EEXIST;  // The cached file exists; O_CREAT|O_EXCL must fail.
      }
      ctx_->ChargeSyscall();
      ctx_->ChargeCpu(ctx_->model.ext4_open_path_ns);
      if ((flags & vfs::kTrunc) != 0) {
        RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
        if (IsDefunct(fs.get())) {
          continue;  // Unlinked while we queued for the lock.
        }
        int rc = TruncateLocked(fs.get(), 0);
        if (rc != 0) {
          return rc;
        }
      }
      {
        std::lock_guard<std::mutex> meta(fs->meta_mu);
        if (fs->defunct) {
          continue;  // Unlinked since the lookup; restart as a fresh open.
        }
        ++fs->open_count;
      }
      return fds_.Allocate(fs->ino, flags);
    }

    // First open: create the state under the path-shard lock, which Unlink holds
    // across its kernel unlink — so the kernel open, the attribute snapshot, and the
    // path-cache insert are atomic against deletion (no stale cache entry can ever
    // outlive its file).
    {
      PathShard& pshard = PathShardOf(path);
      std::unique_lock<std::shared_mutex> plock(pshard.mu);
      if (pshard.map.count(path) != 0) {
        continue;  // A racing creator won; retry as a cached reopen.
      }
      int kfd = kfs_->Open(path, flags);
      if (kfd < 0) {
        return kfd;
      }
      Ino ino = kfs_->InoOf(kfd);
      SPLITFS_CHECK(ino != vfs::kInvalidIno);
      // Stat() the file and cache its attributes (§3.5).
      vfs::StatBuf st;
      SPLITFS_CHECK_OK(kfs_->Fstat(kfd, &st));
      fs = std::make_shared<FileState>(&ctx_->clock, &ctx_->obs);
      fs->ino = ino;
      fs->kernel_fd = kfd;
      fs->path = path;
      fs->size = st.size;
      fs->kernel_size = st.size;
      {
        FileShard& shard = FileShardOf(ino);
        std::lock_guard<std::shared_mutex> lock(shard.mu);
        shard.map[ino] = fs;
      }
      pshard.map[path] = ino;
    }
    uint64_t size_now;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      if ((flags & (vfs::kCreate | vfs::kTrunc)) != 0) {
        fs->metadata_dirty = true;
      }
      size_now = fs->size;
    }
    if (opts_.mode == Mode::kStrict && (flags & vfs::kCreate) != 0 && size_now == 0) {
      LogMetaOp(LogOp::kCreate, fs->ino, 0, nullptr);
    }
    if ((flags & vfs::kCreate) != 0 && size_now == 0) {
      MakeMetadataSynchronous(fs.get());
    }
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      ++fs->open_count;
    }
    return fds_.Allocate(fs->ino, flags);
  }
}

void SplitFs::MakeMetadataSynchronous(FileState* fs) {
  // Table 3: sync and strict modes guarantee synchronous metadata operations; the
  // kernel journal commits immediately (non-barrier path), like PMFS/NOVA semantics.
  if (opts_.mode == Mode::kPosix) {
    return;
  }
  TakeJournalCredit();
  kfs_->CommitJournal(/*fsync_barrier=*/false, tag_.c_str());
  if (fs != nullptr) {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    fs->metadata_dirty = false;
  }
}

int SplitFs::Close(int fd) {
  OpScope op_scope(this, OpKind::kClose);
  ctx_->ChargeCpu(ctx_->model.usplit_close_cpu_ns);
  FileRef fs = StateOf(fd);
  if (fs == nullptr) {
    return -EBADF;
  }
  // Appends are published on fsync() *or* close() (§3.4).
  bool staged;
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    staged = !fs->staged.empty();
  }
  if (staged) {
    RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
    int rc = PublishOrIntend(fs.get());
    if (rc != 0) {
      return rc;
    }
    // close() acks durability of everything this file staged (§3.4). Claimed under
    // the lock, like Fsync: once it drops, a concurrent appender's fresh unfenced
    // bytes join the file's dependency set.
    analysis::DurabilityPoint(kfs_->device(), fs->ino, "splitfs.close");
  }
  // The application's close traps into the kernel; U-Split keeps its own descriptor
  // and all cached state alive (cache is only cleared by unlink, §3.5).
  ctx_->ChargeSyscall();
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    if (fs->open_count > 0) {
      --fs->open_count;
    }
  }
  return fds_.Release(fd);
}

int SplitFs::Dup(int fd) {
  ctx_->ChargeCpu(ctx_->model.user_work_ns);
  ctx_->ChargeSyscall();
  return fds_.Dup(fd);  // Shares the open file description: one offset (§3.5).
}

int SplitFs::Unlink(const std::string& path) {
  OpScope op_scope(this, OpKind::kUnlink);
  ctx_->ChargeCpu(ctx_->model.usplit_unlink_cpu_ns);
  int rc;
  {
    // The path-shard lock is held through the kernel unlink so a racing first open
    // (which creates its state under the same lock) either completes before us — and
    // we tear it down — or starts after the file is really gone.
    PathShard& pshard = PathShardOf(path);
    std::lock_guard<std::shared_mutex> plock(pshard.mu);
    Ino ino = vfs::kInvalidIno;
    auto it = pshard.map.find(path);
    if (it != pshard.map.end()) {
      ino = it->second;
      pshard.map.erase(it);
    }
    if (FileRef fs = FileOf(ino); fs != nullptr) {
      TearDown(fs.get());
      if (opts_.mode == Mode::kStrict) {
        LogMetaOp(LogOp::kUnlink, ino, 0, nullptr);
      }
    }
    rc = kfs_->Unlink(path);
  }
  if (rc == 0) {
    MakeMetadataSynchronous(nullptr);
  }
  return rc;
}

int SplitFs::Rename(const std::string& from, const std::string& to) {
  OpScope op_scope(this, OpKind::kRename);
  ctx_->ChargeCpu(2 * ctx_->model.user_work_ns);
  {
    // Both path shards are held — ascending address, one lock when the paths
    // collide on a shard — across the kernel rename and the cache updates, the same
    // protocol Unlink applies to its single shard. A racing first Open of either
    // path blocks on its shard until the caches reflect the rename; without this,
    // an Open of the destination in the window after the kernel rename resolved the
    // *moved* inode, built a second FileState for it, and overwrote the cached one
    // — stranding its staged set and dirty-file count (the PR 3 leftover race).
    PathShard& fshard = PathShardOf(from);
    PathShard& tshard = PathShardOf(to);
    PathShard* lo = &fshard < &tshard ? &fshard : &tshard;
    PathShard* hi = &fshard < &tshard ? &tshard : &fshard;
    std::unique_lock<std::shared_mutex> l1(lo->mu);
    std::unique_lock<std::shared_mutex> l2;
    if (lo != hi) {
      l2 = std::unique_lock<std::shared_mutex>(hi->mu);
    }
    int rc = kfs_->Rename(from, to);
    if (rc != 0) {
      return rc;
    }
    if (rename_race_hook_) {
      rename_race_hook_();  // Test-only: park in the historical race window.
    }
    // Rename is the paper's example of a multi-entry logged operation.
    Ino ino = vfs::kInvalidIno;
    {
      auto it = fshard.map.find(from);
      if (it != fshard.map.end()) {
        ino = it->second;
        fshard.map.erase(it);
      }
    }
    // The destination, if it existed and was cached, has been replaced: its stale
    // state must be torn down exactly as on unlink, or the displaced file's kernel
    // descriptor, staged bytes, and mappings leak.
    Ino displaced = vfs::kInvalidIno;
    if (ino != vfs::kInvalidIno) {
      auto it = tshard.map.find(to);
      if (it != tshard.map.end() && it->second != ino) {
        displaced = it->second;
      }
      tshard.map[to] = ino;
    } else {
      auto it = tshard.map.find(to);
      if (it != tshard.map.end()) {
        displaced = it->second;
        tshard.map.erase(it);
      }
    }
    if (FileRef victim = FileOf(displaced); victim != nullptr) {
      bool names_to;  // False once the cached state no longer names `to`.
      {
        std::lock_guard<std::mutex> meta(victim->meta_mu);
        names_to = victim->path == to;
      }
      if (names_to) {
        TearDown(victim.get());
      }
    }
    if (ino != vfs::kInvalidIno) {
      FileRef fs = FileOf(ino);
      if (fs != nullptr) {
        std::lock_guard<std::mutex> meta(fs->meta_mu);
        fs->path = to;
      }
      if (opts_.mode == Mode::kStrict) {
        LogMetaOp(LogOp::kRenameFrom, ino, 0, nullptr);
        LogMetaOp(LogOp::kRenameTo, ino, 0, nullptr);
      }
    }
  }
  MakeMetadataSynchronous(nullptr);
  return 0;
}

void SplitFs::TearDown(FileState* fs) {
  {
    // Descriptor operations now miss; in-flight ones drain on the lock below.
    FileShard& shard = FileShardOf(fs->ino);
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    shard.map.erase(fs->ino);
  }
  RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
  // Staged-but-unpublished data dies with the file; the pool gets its bytes back (so
  // consumed staging files can retire) and mappings are unmapped here — this is what
  // makes unlink SplitFS's most expensive call (Table 6).
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    if (!fs->staged.empty()) {
      if (staging_) {
        for (const auto& [off, r] : fs->staged) {
          staging_->Release(r.alloc);
        }
      }
      fs->staged.clear();
      dirty_files_.fetch_sub(1, std::memory_order_release);
    }
    fs->defunct = true;  // Queued writers/readers bail with EBADF.
  }
  // Unpublished staged data died with the file: nothing to acknowledge.
  analysis::DropAllDeps(kfs_->device(), fs->ino);
  mmaps_.InvalidateFile(fs->ino);
  kfs_->Close(fs->kernel_fd);
}

int SplitFs::Mkdir(const std::string& path) {
  OpScope op_scope(this, OpKind::kMkdir);
  int rc = kfs_->Mkdir(path);
  if (rc == 0) {
    MakeMetadataSynchronous(nullptr);
  }
  return rc;
}

int SplitFs::Rmdir(const std::string& path) {
  OpScope op_scope(this, OpKind::kRmdir);
  int rc = kfs_->Rmdir(path);
  if (rc == 0) {
    MakeMetadataSynchronous(nullptr);
  }
  return rc;
}

int SplitFs::ReadDir(const std::string& path, std::vector<std::string>* names) {
  OpScope op_scope(this, OpKind::kReadDir);
  int rc = kfs_->ReadDir(path, names);
  if (rc != 0) {
    return rc;
  }
  // Hide U-Split's own runtime directory from directory listings at the root.
  if (path == "/") {
    std::erase_if(*names, [this](const std::string& n) {
      return "/" + n == opts_.runtime_dir;
    });
  }
  return 0;
}

int SplitFs::Stat(const std::string& path, vfs::StatBuf* out) {
  OpScope op_scope(this, OpKind::kStat);
  int rc = kfs_->Stat(path, out);
  if (rc != 0) {
    return rc;
  }
  // Overlay the cached size: the caller sees its own staged appends.
  Ino ino = LookupPath(path);
  if (ino != vfs::kInvalidIno) {
    FileRef fs = FileOf(ino);
    if (fs != nullptr) {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      out->size = fs->size;
    }
  }
  return 0;
}

int SplitFs::Fstat(int fd, vfs::StatBuf* out) {
  OpScope op_scope(this, OpKind::kFstat);
  ctx_->ChargeCpu(ctx_->model.user_work_ns);  // Served from the attribute cache.
  FileRef fs = StateOf(fd);
  if (fs == nullptr) {
    return -EBADF;
  }
  uint64_t size;
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    size = fs->size;
  }
  out->ino = fs->ino;
  out->size = size;
  out->blocks = common::DivCeil(size, kBlockSize);
  out->nlink = 1;
  out->type = vfs::FileType::kRegular;
  return 0;
}

int64_t SplitFs::Lseek(int fd, int64_t off, vfs::Whence whence) {
  OpScope op_scope(this, OpKind::kLseek);
  ctx_->ChargeCpu(ctx_->model.user_work_ns);  // Pure user space: no trap.
  std::shared_ptr<vfs::OpenFile> of;
  FileRef fs = StateOf(fd, &of);
  if (of == nullptr || fs == nullptr) {
    return -EBADF;
  }
  std::lock_guard<std::mutex> flock(of->mu);
  int64_t base = 0;
  switch (whence) {
    case vfs::Whence::kSet:
      base = 0;
      break;
    case vfs::Whence::kCur:
      base = static_cast<int64_t>(of->offset);
      break;
    case vfs::Whence::kEnd: {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      base = static_cast<int64_t>(fs->size);
      break;
    }
  }
  int64_t target = base + off;
  if (target < 0) {
    return -EINVAL;
  }
  of->offset = static_cast<uint64_t>(target);
  return target;
}

// --- Data path ----------------------------------------------------------------------------

ssize_t SplitFs::Pread(int fd, void* buf, uint64_t n, uint64_t off) {
  OpScope op_scope(this, OpKind::kPread, n);
  std::shared_ptr<vfs::OpenFile> of;
  FileRef fs = StateOf(fd, &of);
  if (fs == nullptr) {
    return -EBADF;
  }
  if (!vfs::WantsRead(of->flags)) {
    return -EBADF;
  }
  RangeReadGuard guard(&fs->rlock, off, n);
  if (IsDefunct(fs.get())) {
    return -EBADF;  // Unlinked while we queued for the range.
  }
  return ReadAt(fs.get(), buf, n, off);
}

ssize_t SplitFs::Pwrite(int fd, const void* buf, uint64_t n, uint64_t off) {
  OpScope op_scope(this, OpKind::kPwrite, n);
  std::shared_ptr<vfs::OpenFile> of;
  FileRef fs = StateOf(fd, &of);
  if (fs == nullptr) {
    return -EBADF;
  }
  if (!vfs::WantsWrite(of->flags)) {
    return -EBADF;
  }
  return LockedWrite(fs.get(), buf, n, off);
}

ssize_t SplitFs::Read(int fd, void* buf, uint64_t n) {
  OpScope op_scope(this, OpKind::kRead, n);
  std::shared_ptr<vfs::OpenFile> of;
  FileRef fs = StateOf(fd, &of);
  if (fs == nullptr || of == nullptr || !vfs::WantsRead(of->flags)) {
    return -EBADF;
  }
  std::lock_guard<std::mutex> flock(of->mu);
  RangeReadGuard guard(&fs->rlock, of->offset, n);
  if (IsDefunct(fs.get())) {
    return -EBADF;
  }
  ssize_t rc = ReadAt(fs.get(), buf, n, of->offset);
  if (rc > 0) {
    of->offset += static_cast<uint64_t>(rc);
  }
  return rc;
}

ssize_t SplitFs::Write(int fd, const void* buf, uint64_t n) {
  OpScope op_scope(this, OpKind::kWrite, n);
  std::shared_ptr<vfs::OpenFile> of;
  FileRef fs = StateOf(fd, &of);
  if (fs == nullptr || of == nullptr || !vfs::WantsWrite(of->flags)) {
    return -EBADF;
  }
  std::lock_guard<std::mutex> flock(of->mu);
  if ((of->flags & vfs::kAppend) != 0) {
    // O_APPEND: the write offset is the size *at write time*; take the whole file so
    // concurrent appenders see a consistent tail (atomic appends, Table 3).
    RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
    uint64_t off;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      if (fs->defunct) {
        return -EBADF;
      }
      off = fs->size;
    }
    ssize_t rc = WriteAt(fs.get(), buf, n, off);
    if (rc > 0) {
      of->offset = off + static_cast<uint64_t>(rc);
    }
    return rc;
  }
  uint64_t off = of->offset;
  ssize_t rc = LockedWrite(fs.get(), buf, n, off);
  if (rc > 0) {
    of->offset = off + static_cast<uint64_t>(rc);
  }
  return rc;
}

ssize_t SplitFs::LockedWrite(FileState* fs, const void* buf, uint64_t n, uint64_t off) {
  // Writes that stay strictly inside the current file size take only their byte
  // range, so disjoint-offset writers proceed in parallel: sync/POSIX overwrite in
  // place; strict COW-stages the range and appends a per-range op-log entry while
  // registered with the checkpoint epoch gate. Everything else — appends, EOF
  // crossings, and the no-staging ablation — takes the whole file.
  for (;;) {
    bool whole = !opts_.enable_staging;
    if (!whole) {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      whole = off + n > fs->size;
    }
    // Strict per-range writers register with the checkpoint epoch gate. Both steps
    // are try-only: a registered writer must never block on a range lock (the
    // gate-drain invariant), and a closed gate means a checkpoint is quiescing. Any
    // failure falls back to the whole-file path, which is always correct — the
    // checkpoint's try-lock sweep then handles us like any other whole-file writer.
    bool gated = false;
    if (!whole && opts_.mode == Mode::kStrict) {
      gated = TryEnterRangeWrite();
      if (!gated) {
        ChargeEpochGateWait();  // Deflected by a draining checkpoint.
      } else if (!fs->rlock.TryLockExclusive(off, n)) {
        ExitRangeWrite();
        gated = false;
      }
      whole = !gated;
    }
    const uint64_t lock_off = whole ? 0 : off;
    const uint64_t lock_len = whole ? RangeLock::kWholeFile : n;
    if (!gated) {
      fs->rlock.LockExclusive(lock_off, lock_len);
    }
    bool defunct;
    bool shrunk;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      defunct = fs->defunct;
      shrunk = !whole && off + n > fs->size;
    }
    ssize_t rc;
    if (defunct) {
      rc = -EBADF;  // Unlinked while we queued for the lock.
    } else if (shrunk) {
      rc = kRangeWriteRetry;  // Truncate won the race to the lock: re-classify.
    } else {
      RangeWriteCtx range{off, n};
      rc = WriteAt(fs, buf, n, off, gated ? &range : nullptr);
    }
    fs->rlock.UnlockExclusive(lock_off, lock_len);
    if (gated) {
      ExitRangeWrite();
    }
    if (rc != kRangeWriteRetry) {
      return rc;
    }
    // Shrunk, or a gated write raced a checkpoint/truncate mid-log: the replay is
    // idempotent.
  }
}

ssize_t SplitFs::ReadAt(FileState* fs, void* buf, uint64_t n, uint64_t off) {
  ctx_->ChargeCpu(ctx_->model.usplit_data_op_cpu_ns);
  uint64_t size;
  bool sequential;
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    size = fs->size;
    sequential = off == fs->last_read_end && off != 0;
  }
  if (off >= size || n == 0) {
    return 0;
  }
  uint64_t end = std::min(off + n, size);
  auto* dst = static_cast<uint8_t*>(buf);
  uint64_t cur = off;
  pmem::Device* dev = kfs_->device();

  while (cur < end) {
    // 1. Staged data wins: "later reads to the appended region are routed to the
    //    staging block" (Figure 2). Look up under the metadata mutex and copy the
    //    range descriptor out; the bytes themselves are stable — our shared range
    //    lock excludes writers of this range.
    std::optional<StagedRange> covering;
    uint64_t seg_end = end;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      StagedLookup at = FindStaged(fs, cur);
      if (at.covering != nullptr) {
        covering = *at.covering;
      } else {
        seg_end = std::min(end, at.next_start);
      }
    }
    if (covering) {
      uint64_t delta = cur - covering->file_off;
      uint64_t span = std::min(end - cur, covering->alloc.len - delta);
      dev->Load(covering->alloc.dev_off + delta, dst, span, sequential,
                sim::PmReadKind::kUserData);
      sequential = true;
      dst += span;
      cur += span;
      continue;
    }

    // 2. Unstaged segment up to the next staged range: serve from the collection of
    //    mmaps, creating the surrounding region on first touch.
    auto hit = mmaps_.Translate(fs->ino, cur);
    if (!hit) {
      mmaps_.EnsureRegion(fs->ino, fs->kernel_fd, cur);
      hit = mmaps_.Translate(fs->ino, cur);
    }
    if (hit) {
      uint64_t span = std::min(seg_end - cur, hit->len);
      dev->Load(hit->dev_off, dst, span, sequential, sim::PmReadKind::kUserData);
      sequential = true;
      dst += span;
      cur += span;
      continue;
    }
    // 3. Hole (sparse file): reads as zeroes, one block quantum at a time.
    uint64_t span = std::min(seg_end - cur, kBlockSize - cur % kBlockSize);
    std::memset(dst, 0, span);
    ctx_->ChargeCpu(ctx_->model.user_work_ns);
    dst += span;
    cur += span;
  }
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    fs->last_read_end = end;
  }
  return static_cast<ssize_t>(end - off);
}

uint64_t SplitFs::OverwriteStagedOverlap(FileState* fs, const uint8_t* buf, uint64_t n,
                                         uint64_t off) {
  uint64_t store_dev = 0;
  uint64_t span = 0;
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    const StagedRange* r = FindStaged(fs, off).covering;
    if (r == nullptr) {
      return 0;
    }
    uint64_t delta = off - r->file_off;
    span = std::min(n, r->alloc.len - delta);
    store_dev = r->alloc.dev_off + delta;
  }
  // Update the staged bytes in place: they are not yet published, so this stays
  // atomic with the eventual relink. The caller's range lock covers these bytes.
  kfs_->device()->StoreNt(store_dev, buf, span, sim::PmWriteKind::kUserData);
  // The file's next durability point (fsync/close) acknowledges these bytes.
  analysis::AddDep(kfs_->device(), fs->ino, store_dev, span);
  return span;
}

ssize_t SplitFs::OverwriteInPlace(FileState* fs, const uint8_t* buf, uint64_t n,
                                  uint64_t off) {
  pmem::Device* dev = kfs_->device();
  uint64_t cur = off;
  uint64_t end = off + n;
  const uint8_t* src = buf;
  while (cur < end) {
    auto hit = mmaps_.Translate(fs->ino, cur);
    if (!hit) {
      mmaps_.EnsureRegion(fs->ino, fs->kernel_fd, cur);
      hit = mmaps_.Translate(fs->ino, cur);
    }
    if (!hit) {
      // Hole inside the file (sparse): let the kernel allocate and write.
      uint64_t span = std::min(end - cur, kBlockSize - cur % kBlockSize);
      ssize_t rc = kfs_->Pwrite(fs->kernel_fd, src, span, cur);
      if (rc < 0) {
        return rc;
      }
      mmaps_.InvalidateRange(fs->ino, common::AlignDown(cur, opts_.mmap_size),
                             opts_.mmap_size);
      src += span;
      cur += span;
      continue;
    }
    uint64_t span = std::min(end - cur, hit->len);
    dev->StoreNt(hit->dev_off, src, span, sim::PmWriteKind::kUserData);
    src += span;
    cur += span;
  }
  dev->Fence();  // Overwrites are synchronous in every mode (§3.2).
  return static_cast<ssize_t>(n);
}

ssize_t SplitFs::AppendStaged(FileState* fs, const uint8_t* buf, uint64_t n, uint64_t off,
                              bool is_overwrite, const RangeWriteCtx* range) {
  pmem::Device* dev = kfs_->device();

  // Try to extend the most recent staged range: sequential appends stay physically
  // contiguous, which is what lets fsync publish them with a single relink.
  {
    bool extended = false;
    uint64_t store_dev = 0;
    StagingAlloc piece;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      if (!fs->staged.empty()) {
        auto& [start, last] = *std::prev(fs->staged.end());
        if (!last.is_overwrite && !is_overwrite &&
            last.file_off + last.alloc.len == off &&
            staging_->ExtendInPlace(&last.alloc, n)) {
          extended = true;
          store_dev = last.alloc.dev_off + (last.alloc.len - n);
          piece = last.alloc;
          piece.staging_off += piece.len - n;
          piece.dev_off += piece.len - n;
          piece.len = n;
          fs->size = std::max(fs->size, off + n);
        }
      }
    }
    if (extended) {
      dev->StoreNt(store_dev, buf, n, sim::PmWriteKind::kUserData);
      analysis::AddDep(dev, fs->ino, store_dev, n);
      if (opts_.mode == Mode::kStrict) {
        // The op-log entry is the record over these staged bytes; both persist at
        // the entry's single fence (lax cover, sealed inside OpLog::Append).
        analysis::CoverPayload(dev, store_dev, n);
        LogDataOp(LogOp::kAppend, fs, off, piece);
      } else if (opts_.mode == Mode::kSync) {
        dev->Fence();
      }
      return static_cast<ssize_t>(n);
    }
  }

  std::vector<StagingAlloc> allocs;
  if (!staging_->Allocate(n, off % kBlockSize, &allocs)) {
    return -ENOSPC;
  }
  const uint8_t* src = buf;
  uint64_t cur = off;
  for (size_t i = 0; i < allocs.size(); ++i) {
    const StagingAlloc& a = allocs[i];
    dev->StoreNt(a.dev_off, src, a.len, sim::PmWriteKind::kUserData);
    analysis::AddDep(dev, fs->ino, a.dev_off, a.len);
    StagedRange r;
    r.file_off = cur;
    r.alloc = a;
    r.is_overwrite = is_overwrite;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      if (fs->staged.empty()) {
        dirty_files_.fetch_add(1, std::memory_order_release);
      }
      fs->staged[cur] = r;
    }
    if (opts_.mode == Mode::kStrict) {
      analysis::CoverPayload(dev, a.dev_off, a.len);
      if (!LogDataOp(is_overwrite ? LogOp::kOverwrite : LogOp::kAppend, fs, cur, a,
                     range)) {
        // The run was consumed by a whole-file restructuring mid-back-out; its
        // entry never sealed, so the open cover must not leak into the next op.
        analysis::AbandonCover(dev);
        // Per-range moot: a log-full back-out let a whole-file restructuring
        // (checkpoint publish / truncate / unlink) consume this run — its bytes are
        // durable or gone, never re-logged. Not-yet-inserted pieces go back to the
        // pool; the already-inserted ones were released by whoever consumed them.
        bool defunct;
        {
          std::lock_guard<std::mutex> meta(fs->meta_mu);
          defunct = fs->defunct;
        }
        if (staging_) {
          for (size_t j = i + 1; j < allocs.size(); ++j) {
            staging_->Release(allocs[j]);
          }
        }
        return defunct ? -EBADF : kRangeWriteRetry;
      }
    }
    src += a.len;
    cur += a.len;
  }
  if (opts_.mode == Mode::kSync) {
    dev->Fence();  // Sync mode persists the staged bytes synchronously.
  }
  if (range == nullptr) {
    // Per-range writes are size-preserving by construction; skipping the update
    // also keeps a log-full back-out from resurrecting a size a concurrent
    // truncate shrank.
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    fs->size = std::max(fs->size, off + n);
  }
  return static_cast<ssize_t>(n);
}

ssize_t SplitFs::WriteAt(FileState* fs, const void* buf, uint64_t n, uint64_t off,
                         const RangeWriteCtx* range) {
  if (n == 0) {
    return 0;
  }
  const auto* src = static_cast<const uint8_t*>(buf);
  auto size_of = [fs] {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    return fs->size;
  };

  // Ablation configuration (Figure 3 "split" bar): no staging — every write goes to
  // the kernel, appends included.
  if (!opts_.enable_staging) {
    ctx_->ChargeCpu(ctx_->model.usplit_data_op_cpu_ns);
    if (off + n <= fs->kernel_size) {
      return OverwriteInPlace(fs, src, n, off);  // Overwrites still served in user space.
    }
    return WriteThrough(fs, src, n, off);
  }

  // Writing past EOF with a gap: rare; delegate to the kernel for correctness.
  if (off > size_of()) {
    int prc = PublishStaged(fs);
    if (prc != 0) {
      return prc;
    }
    return WriteThrough(fs, src, n, off);
  }

  uint64_t size = size_of();
  uint64_t overwrite_len = off + n <= size ? n : size - off;
  uint64_t cur = off;
  uint64_t ow_end = off + overwrite_len;

  if (overwrite_len > 0) {
    ctx_->ChargeCpu(ctx_->model.usplit_data_op_cpu_ns);
  }
  bool staged_updated = false;
  while (cur < ow_end) {
    // Bytes already staged (appended or COW-overwritten earlier) are updated in place
    // in the staging file.
    uint64_t staged_span = OverwriteStagedOverlap(fs, src, ow_end - cur, cur);
    if (staged_span > 0) {
      staged_updated = true;
      src += staged_span;
      cur += staged_span;
      continue;
    }
    // Segment until the next staged range.
    uint64_t next_staged;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      next_staged = FindStaged(fs, cur).next_start;
    }
    uint64_t span = std::min(ow_end, next_staged) - cur;
    if (opts_.mode == Mode::kStrict) {
      // Strict: copy-on-write via staging + op log; published atomically on fsync.
      ctx_->ChargeCpu(ctx_->model.usplit_append_cpu_ns);
      ssize_t rc = AppendStaged(fs, src, span, cur, /*is_overwrite=*/true, range);
      if (rc < 0) {
        return rc;  // Includes kRangeWriteRetry: propagate to LockedWrite.
      }
    } else {
      ssize_t rc = OverwriteInPlace(fs, src, span, cur);
      if (rc < 0) {
        return rc;
      }
    }
    src += span;
    cur += span;
  }
  if (staged_updated && (opts_.mode == Mode::kStrict || opts_.async_relink)) {
    // The updated staging bytes are already covered by an earlier op-log entry, so no
    // new entry is needed — but strict mode acknowledges only durable data, and these
    // stores would otherwise stay un-fenced until the next publish. Async relink
    // fences here too: a fenced intent may already point at these bytes, and replay
    // must never publish a torn block.
    kfs_->device()->Fence();
  }

  // Append tail.
  if (off + n > size_of()) {
    uint64_t append_off = std::max(off, size_of());
    uint64_t append_len = off + n - append_off;
    ctx_->ChargeCpu(ctx_->model.usplit_append_cpu_ns);
    ssize_t rc = AppendStaged(fs, src, append_len, append_off, /*is_overwrite=*/false);
    if (rc < 0) {
      return rc;
    }
  }
  return static_cast<ssize_t>(n);
}

ssize_t SplitFs::WriteThrough(FileState* fs, const uint8_t* src, uint64_t n,
                              uint64_t off) {
  ssize_t rc = kfs_->Pwrite(fs->kernel_fd, src, n, off);
  if (rc > 0) {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    fs->kernel_size = std::max(fs->kernel_size, off + static_cast<uint64_t>(rc));
    fs->size = std::max(fs->size, fs->kernel_size);
    // The grown size sits in K-Split's running transaction: the next fsync must
    // commit it, or the acknowledged bytes vanish at a crash.
    fs->metadata_dirty = true;
  }
  return rc;
}

// --- Publishing staged data (relink) --------------------------------------------------------

int SplitFs::RelinkRun(FileState* fs, uint64_t file_off, const StagedRange& r) {
  // Deadlock-freedom: the caller holds this file's whole-file range lock (a U-Split
  // lock); the relink ioctl below takes the kernel's two inode locks by ascending
  // ino internally and returns with none held. Concurrent publishers relinking out
  // of a shared staging file therefore order the same {staging, target} pairs
  // identically, and no U-Split lock is ever acquired under a K-Split lock.
  const uint64_t end = file_off + r.alloc.len;
  const RunLayout lay = LayOutRun(file_off, r.alloc.len, r.alloc.staging_off,
                                  r.is_overwrite, [fs] { return fs->kernel_size; });
  // Copies [from, to) of the run from its staging bytes through the kernel.
  auto copy = [&](uint64_t from, uint64_t to) -> int {
    if (from == to) {
      return 0;
    }
    SPLITFS_CHECK(to - from <= g_scratch.size());
    kfs_->device()->Load(r.alloc.dev_off + (from - file_off), g_scratch.data(), to - from,
                         /*sequential=*/true, sim::PmReadKind::kStaging);
    ssize_t rc = kfs_->Pwrite(fs->kernel_fd, g_scratch.data(), to - from, from);
    return rc < 0 ? static_cast<int>(rc) : 0;
  };
  int rc = copy(file_off, lay.head_end);
  if (rc != 0) {
    return rc;
  }
  if (lay.core_len > 0) {
    rc = kfs_->SwapExtentsForRelink(r.alloc.staging_fd, lay.core_src, fs->kernel_fd,
                                    lay.head_end, lay.core_len, /*new_dst_size=*/end,
                                    /*defer_commit=*/true);
    if (rc != 0) {
      return rc;
    }
    relinks_.fetch_add(1, std::memory_order_relaxed);
    // Retain the memory mapping: the physical blocks didn't move, so the staging
    // region's mapping becomes the target file's mapping at zero cost (Figure 2).
    mmaps_.ReplaceRange(fs->ino, lay.head_end,
                        r.alloc.dev_off + (lay.head_end - file_off), lay.core_len);
    // The tail block moved whole: the pool must not hand out its remainder.
    if (staging_) {
      staging_->MarkRelinked(r.alloc.staging_ino, r.alloc.staging_off + r.alloc.len);
    }
  }
  return copy(lay.core_end, end);
}

int SplitFs::CopyStagedRun(FileState* fs, const StagedRange& r) {
  // Figure 3 "+staging without relink" ablation: publish by copying staged bytes into
  // the target through the kernel — the double write the relink primitive eliminates.
  pmem::Device* dev = kfs_->device();
  uint64_t copied = 0;
  std::vector<uint8_t> buf(std::min<uint64_t>(r.alloc.len, 64 * common::kKiB));
  while (copied < r.alloc.len) {
    uint64_t span = std::min<uint64_t>(buf.size(), r.alloc.len - copied);
    dev->Load(r.alloc.dev_off + copied, buf.data(), span, /*sequential=*/true,
              sim::PmReadKind::kStaging);
    ssize_t rc = kfs_->Pwrite(fs->kernel_fd, buf.data(), span, r.file_off + copied);
    if (rc < 0) {
      return static_cast<int>(rc);
    }
    copied += span;
  }
  return 0;
}

int SplitFs::PublishStaged(FileState* fs, bool log_done) {
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    if (fs->staged.empty()) {
      return 0;
    }
  }
  int rc = RelinkStaged(fs, log_done);
  if (rc != 0) {
    return rc;
  }
  SealPublished(fs, log_done);
  return 0;
}

int SplitFs::RelinkStaged(FileState* fs, bool log_done) {
  obs::ScopedSpan span(opts_.tracing ? &ctx_->obs.tracer : nullptr, &ctx_->clock,
                       "publish", "splitfs.publish", "ino", fs->ino);
  analysis::ScopedLintSite lint("splitfs.publish");
  if (opts_.mode != Mode::kStrict || !log_done) {
    // Drain pending non-temporal stores before making the data reachable. A normal
    // strict publish skips this: every staged run it can see is already durable —
    // fenced by its op-log entry, the staged-update fence in WriteAt, or the
    // per-range back-out fence in LogDataOp — so the fence here was always empty
    // (the checker's empty-fence lint found it). Checkpoint publishes
    // (log_done=false) keep it: a whole-file writer that hits a full log enters
    // CheckpointForFull with its own run stored but its entry unappended and
    // unfenced, and the checkpoint publishes that run (the checker's rule (a)
    // caught the skip).
    kfs_->device()->Fence();
  }
  // Each range is erased as it publishes: a mid-publish failure must leave only the
  // unpublished remainder staged, or the retry would relink — and Release — the
  // already-published ranges a second time (double-releasing could retire a staging
  // file other files still reference).
  for (;;) {
    uint64_t file_off;
    StagedRange r;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      auto it = fs->staged.begin();
      if (it == fs->staged.end()) {
        break;
      }
      file_off = it->first;
      r = it->second;
    }
    // Publish hazard (rule (a)): relink makes these staged bytes reachable and
    // the operation will be acknowledged — they must already be durable.
    analysis::RequireDurable(kfs_->device(), r.alloc.dev_off, r.alloc.len,
                             "splitfs.publish");
    int rc = opts_.enable_relink ? RelinkRun(fs, file_off, r) : CopyStagedRun(fs, r);
    if (rc != 0) {
      return rc;
    }
    {
      // kernel_size only changes under the whole-file lock (held here), but fork/exec
      // snapshots read it under meta_mu alone.
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      fs->kernel_size = std::max(fs->kernel_size, file_off + r.alloc.len);
    }
    if (staging_) {
      staging_->Release(r.alloc);  // Published: the pool may retire consumed files.
    }
    // Published bytes leave the fsync contract; the staging pool may hand the
    // device range to another file, whose pending stores must not be charged to
    // this ino's next durability point.
    analysis::DropDeps(kfs_->device(), fs->ino, r.alloc.dev_off, r.alloc.len);
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      fs->staged.erase(file_off);
    }
  }
  return 0;
}

void SplitFs::SealPublished(FileState* fs, bool log_done) {
  // One journal commit covers every relink of the file (jbd2 batches handles) — and,
  // with the Figure 3 copy ablation, the size growth its kernel writes left in the
  // running transaction. Each deferred relink released its inode locks and journal
  // handle before returning, so this commit — whose seal takes the journal barrier
  // exclusively and waits out in-flight handles — can never deadlock against our own
  // relinks; by the time CommitJournal returns, the sealed tid has fully written out.
  kfs_->CommitJournal(/*fsync_barrier=*/false, tag_.c_str());
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    fs->metadata_dirty = false;  // The commit covered the running transaction too.
  }
  // The dirty count drops before the kRelinkDone append: a done append against a
  // full log recurses into CheckpointForFull, which spins until the count reaches
  // zero.
  dirty_files_.fetch_sub(1, std::memory_order_release);
  if (!log_done || !opts_.async_relink || oplog_ == nullptr) {
    return;
  }
  // Seal the publish while the caller still holds the file's lock, so no new intent
  // for the ino can precede its done record: every data entry of the inode at or
  // below this seq is relinked and committed, and replay skips it. Without the seal,
  // a stale intent could resurrect bytes a later unlogged in-place overwrite
  // replaced.
  LogMetaOp(LogOp::kRelinkDone, fs->ino, 0, fs);
}

// --- Async relink publication ---------------------------------------------------------

int SplitFs::PublishOrIntend(FileState* fs) {
  if (!opts_.async_relink) {
    TakeJournalCredit();  // Sync publish commits the journal on the caller.
    return PublishStaged(fs);
  }
  // The fsync contract covers the file's metadata too: a create/truncate still
  // sitting in the running kernel transaction could roll back at a crash, and
  // intent replay cannot resurrect a file whose creation was lost. Commit it now
  // (non-barrier, once per dirty window); the relinks themselves stay deferred.
  bool metadata_dirty;
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    metadata_dirty = fs->metadata_dirty;
  }
  if (metadata_dirty) {
    TakeJournalCredit();
    kfs_->CommitJournal(/*fsync_barrier=*/false, tag_.c_str());
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    fs->metadata_dirty = false;
  }
  int rc = LogRelinkIntents(fs);
  if (rc != 0) {
    return rc;
  }
  // The publish really happens here — same store and fence sequence every run,
  // which the crash matrix depends on — but its cost is rewound off the foreground
  // clock, modeling a background publisher.
  sim::ScopedOffClock off(&ctx_->clock);
  rc = PublishStaged(fs);
  if (rc == 0) {
    async_publishes_.fetch_add(1, std::memory_order_relaxed);
  }
  return rc;
}

int SplitFs::LogRelinkIntents(FileState* fs) {
  if (opts_.mode == Mode::kStrict) {
    return 0;  // Every staged run was already logged (and fenced) at write time.
  }
  analysis::ScopedLintSite lint("splitfs.intent");
  // One pass over the staged map collects every uncovered run tail; the whole-file
  // lock (held by the caller) keeps the set stable while the entries are appended
  // below, outside meta_mu.
  struct IntentDelta {
    uint64_t file_off;
    StagingAlloc alloc;
    bool is_overwrite;
  };
  std::vector<IntentDelta> deltas;
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    for (auto& [off, r] : fs->staged) {
      if (r.alloc.len > r.intent_len) {
        // Log only the uncovered tail; recovery's run coalescing merges the
        // contiguous intent entries back into one relink.
        StagingAlloc delta = r.alloc;
        delta.staging_off += r.intent_len;
        delta.dev_off += r.intent_len;
        delta.len -= r.intent_len;
        deltas.push_back({off + r.intent_len, delta, r.is_overwrite});
        r.intent_len = r.alloc.len;
      }
    }
  }
  if (deltas.empty()) {
    // Every staged byte is already intent-covered, and was fenced when its intent
    // was first logged (runs only grow, and growth produces a delta) — the old
    // unconditional fence here was empty on this path, the checker's lint found it.
    return 0;
  }
  // The intents claim the staged bytes are recoverable: drain pending non-temporal
  // stores first (POSIX-mode appends stream unfenced; the op log's own fence per
  // appended entry only covers the entry).
  kfs_->device()->Fence();
  for (const IntentDelta& d : deltas) {
    // Rule (b): each intent entry is a publication record over its staged run
    // (sealed lax inside Append — the fence above already persisted the run).
    analysis::CoverPayload(kfs_->device(), d.alloc.dev_off, d.alloc.len);
    LogEntry e;
    e.op = d.is_overwrite ? LogOp::kRelinkIntentOverwrite : LogOp::kRelinkIntent;
    e.target_ino = fs->ino;
    e.file_off = d.file_off;
    e.staging_ino = d.alloc.staging_ino;
    e.staging_off = d.alloc.staging_off;
    e.len = d.alloc.len;
    if (!oplog_->Append(e)) {
      analysis::AbandonCover(kfs_->device());  // Entry never stored; don't leak the cover.
      // Log full. The checkpoint publishes every staged run of this file first (it
      // holds our whole-file lock through `held`), so the remaining intents are
      // moot — and must NOT be retried into the fresh log: an intent for an
      // already-published run is never sealed by a kRelinkDone (later publishes
      // early-return on the empty staged set), and its replay after a crash would
      // resurrect the staged bytes over any later unlogged in-place overwrite.
      CheckpointForFull(fs);
      return 0;
    }
  }
  // Once the intents are fenced the caller's fsync/close may return: rule (a)
  // ack point for the async-relink path.
  analysis::DurabilityPoint(kfs_->device(), fs->ino, "splitfs.intent");
  return 0;
}

void SplitFs::TakeJournalCredit() {
  if (services_.journal_credits == nullptr) {
    return;
  }
  uint64_t throttled = services_.journal_credits->Take(&ctx_->clock);
  obs::ReportWait(&ctx_->obs, &ctx_->clock, journal_qos_resource_.c_str(), throttled);
}

int SplitFs::Fsync(int fd) {
  OpScope op_scope(this, OpKind::kFsync);
  ctx_->ChargeCpu(ctx_->model.usplit_fsync_cpu_ns);
  FileRef fs = StateOf(fd);
  if (fs == nullptr) {
    return -EBADF;
  }
  int rc = 0;
  {
    RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
    bool staged;
    bool metadata_dirty;
    {
      std::lock_guard<std::mutex> meta(fs->meta_mu);
      // Records the range_lock -> file_meta edge for the witness.
      analysis::ScopedLockNote mn(analysis::LockWitness::Global(), MetaMuSite());
      if (fs->defunct) {
        return -EBADF;
      }
      staged = !fs->staged.empty();
      metadata_dirty = fs->metadata_dirty;
    }
    if (staged) {
      // Relink path: no fsync barrier (Table 6). With async relink the intent fence
      // is the ack; the publish after it runs off the caller's clock.
      rc = PublishOrIntend(fs.get());
      if (rc == 0) {
        // fsync() return acks durability of all staged data published above.
        analysis::DurabilityPoint(kfs_->device(), fs->ino, "splitfs.fsync");
      }
    } else if (metadata_dirty) {
      TakeJournalCredit();
      rc = kfs_->Fsync(fs->kernel_fd, tag_.c_str());
      if (rc == 0) {
        std::lock_guard<std::mutex> meta(fs->meta_mu);
        fs->metadata_dirty = false;
      }
    } else {
      // Nothing staged, nothing dirty: in-place overwrites were already persisted by
      // their non-temporal stores; the trap still happens.
      ctx_->ChargeSyscall();
    }
  }
  return rc;
}

int SplitFs::Ftruncate(int fd, uint64_t size) {
  OpScope op_scope(this, OpKind::kFtruncate);
  ctx_->ChargeCpu(ctx_->model.user_work_ns);
  FileRef fs = StateOf(fd);
  if (fs == nullptr) {
    return -EBADF;
  }
  RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
  if (IsDefunct(fs.get())) {
    return -EBADF;
  }
  return TruncateLocked(fs.get(), size);
}

int SplitFs::TruncateLocked(FileState* fs, uint64_t size) {
  // Publish-then-truncate: simply discarding the staged ranges would leave their
  // op-log append entries valid and the staged blocks in place, so strict-mode crash
  // recovery would resurrect the truncated data. Publishing first turns those
  // staging ranges into holes replay skips.
  int rc = PublishStaged(fs);
  if (rc != 0) {
    return rc;
  }
  rc = kfs_->Ftruncate(fs->kernel_fd, size);
  if (rc != 0) {
    return rc;
  }
  uint64_t old_size;
  {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    old_size = fs->size;
    fs->size = size;
    fs->kernel_size = size;
    fs->metadata_dirty = true;
  }
  if (size < old_size) {
    // Drop the mappings of exactly the blocks K-Split frees: those past the new
    // size's block end, up to the old size's. A mapping left over any of them would
    // route a later in-place overwrite into a freed block. The block holding the new
    // size stays allocated, so its mapping stays valid.
    uint64_t freed_from = common::AlignUp(size, kBlockSize);
    mmaps_.InvalidateRange(fs->ino, freed_from,
                           common::AlignUp(old_size, kBlockSize) - freed_from);
  }
  if (oplog_ != nullptr) {
    // Logged in strict mode *and* async configurations: replay must know the
    // truncate ordered after any intent entries, or their partial-block head
    // copies would resurrect truncated bytes.
    LogMetaOp(LogOp::kTruncate, fs->ino, size, fs);
  }
  MakeMetadataSynchronous(fs);
  return 0;
}

int SplitFs::Fallocate(int fd, uint64_t off, uint64_t len, bool keep_size) {
  OpScope op_scope(this, OpKind::kFallocate, len);
  FileRef fs = StateOf(fd);
  if (fs == nullptr) {
    return -EBADF;
  }
  RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
  if (IsDefunct(fs.get())) {
    return -EBADF;
  }
  int rc = kfs_->Fallocate(fs->kernel_fd, off, len, keep_size);
  if (rc == 0 && !keep_size) {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    fs->size = std::max(fs->size, off + len);
    fs->kernel_size = std::max(fs->kernel_size, off + len);
    fs->metadata_dirty = true;
  }
  return rc;
}

// --- Op log ---------------------------------------------------------------------------------

bool SplitFs::LogDataOp(LogOp op, FileState* held, uint64_t file_off,
                        const StagingAlloc& a, const RangeWriteCtx* range) {
  if (!oplog_) {
    return true;
  }
  LogEntry e;
  e.op = op;
  e.target_ino = held->ino;
  e.file_off = file_off;
  e.staging_ino = a.staging_ino;
  e.staging_off = a.staging_off;
  e.len = a.len;
  if (range == nullptr) {
    // Whole-file holder: on a full log the checkpoint publishes `held` itself, this
    // run included, so the run is durable without its entry and is not re-logged
    // (the rule of the per-range path below). A fresh entry would outlive the
    // publish, and its replay would copy the run's partial blocks from staging
    // blocks the publish relinked away: zeros over acknowledged bytes.
    if (!oplog_->Append(e)) {
      analysis::AbandonCover(kfs_->device());  // Entry never stored.
      CheckpointForFull(held);
    }
    return true;
  }
  // Per-range logger. On a full log the range lock and the epoch-gate registration
  // must both drop before the checkpoint runs — it drains the gate and whole-file
  // try-locks the dirty files, ours included. Afterwards the range is reacquired
  // (try-only while registered: the gate-drain invariant) and the append retries
  // only while the staged run is still the same un-published run. A run the
  // checkpoint published is already durable — strict semantics hold without the
  // entry — and MUST NOT be re-logged: the fresh entry would outlive the publish
  // and a post-crash replay could resurrect the staged bytes over later overwrites.
  while (!oplog_->Append(e)) {
    // Persist the run before dropping the lock. The back-out leaves it staged with
    // no appended entry, and once the range lock is free a concurrent fsync/close
    // can publish it — a normal strict publish does not fence (every run it sees
    // is supposed to be durable already), so an unfenced run here would be
    // relinked and acknowledged while still volatile. The persistence checker's
    // rule (a) caught this window racing a whole-file publisher.
    kfs_->device()->Fence();
    held->rlock.UnlockExclusive(range->off, range->len);
    ExitRangeWrite();
    CheckpointForFull(nullptr);
    for (;;) {
      EnterRangeWrite();
      if (held->rlock.TryLockExclusive(range->off, range->len)) {
        break;
      }
      ExitRangeWrite();
      std::this_thread::yield();
    }
    if (!StagedRunStillOurs(held, file_off, a)) {
      return false;  // Lock + gate re-held; the caller unwinds through its normal path.
    }
  }
  return true;
}

bool SplitFs::StagedRunStillOurs(FileState* fs, uint64_t file_off,
                                 const StagingAlloc& a) {
  std::lock_guard<std::mutex> meta(fs->meta_mu);
  const StagedRange* r = fs->defunct ? nullptr : FindStaged(fs, file_off).covering;
  if (r == nullptr) {
    return false;
  }
  // Identity, not just coverage: the run must still be backed by the same staging
  // bytes (a publish + re-stage cycle could cover the offsets with fresh blocks).
  uint64_t delta = file_off - r->file_off;
  return r->alloc.staging_ino == a.staging_ino &&
         r->alloc.staging_off + delta == a.staging_off && delta + a.len <= r->alloc.len;
}

SplitFs::StagedLookup SplitFs::FindStaged(FileState* fs, uint64_t off) {
  auto next = fs->staged.upper_bound(off);
  if (next != fs->staged.begin()) {
    StagedRange& prev = std::prev(next)->second;
    if (off < prev.file_off + prev.alloc.len) {
      return {&prev, UINT64_MAX};
    }
  }
  return {nullptr, next == fs->staged.end() ? UINT64_MAX : next->first};
}

bool SplitFs::TryEnterRangeWrite() {
  std::lock_guard<std::mutex> el(epoch_mu_);
  analysis::ScopedLockNote gate(analysis::LockWitness::Global(), EpochGateSite());
  if ((range_epoch_ & 1) != 0) {
    return false;  // A checkpoint is draining; the caller takes the whole file.
  }
  ++range_writers_;
  return true;
}

void SplitFs::EnterRangeWrite() {
  bool waited;
  {
    std::unique_lock<std::mutex> el(epoch_mu_);
    analysis::ScopedLockNote gate(analysis::LockWitness::Global(), EpochGateSite());
    waited = (range_epoch_ & 1) != 0;
    epoch_cv_.wait(el, [this] { return (range_epoch_ & 1) == 0; });
    ++range_writers_;
  }
  if (waited) {
    ChargeEpochGateWait();
  }
}

void SplitFs::ExitRangeWrite() {
  std::lock_guard<std::mutex> el(epoch_mu_);
  analysis::ScopedLockNote gate(analysis::LockWitness::Global(), EpochGateSite());
  if (--range_writers_ == 0) {
    epoch_cv_.notify_all();
  }
}

void SplitFs::ChargeEpochGateWait() {
  uint64_t waited = strict_epoch_stamp_.AcquireShared(&ctx_->clock);
  obs::ReportWait(&ctx_->obs, &ctx_->clock, "splitfs.strict_range_log", waited);
}

void SplitFs::LogMetaOp(LogOp op, Ino target, uint64_t aux, FileState* held) {
  if (!oplog_) {
    return;
  }
  LogEntry e;
  e.op = op;
  e.target_ino = target;
  e.file_off = aux;
  while (!oplog_->Append(e)) {
    CheckpointForFull(held);
  }
}

void SplitFs::CheckpointForFull(FileState* held) {
  // Log full (§3.3): relink every file with staged data, then reuse the log. The reset
  // writes one header whose floor retires every entry so far; nothing is re-zeroed.
  //
  // Concurrent protocol: publish the file we hold first (its entries are then dead
  // and it leaves the dirty set), take the single-flight checkpoint mutex, and sweep
  // the remaining dirty files with *try*-lock only — a writer that holds its file and
  // is itself blocked right here has already published it, so spinning until the
  // dirty count reaches zero always terminates and never deadlocks.
  ctx_->ChargeCpu(ctx_->model.usplit_log_checkpoint_cpu_ns);
  obs::ScopedSpan span(opts_.tracing ? &ctx_->obs.tracer : nullptr, &ctx_->clock,
                       "checkpoint", "splitfs.checkpoint");
  uint64_t epoch = oplog_->ResetEpoch();
  if (held != nullptr) {
    // log_done=false: the reset below retires every intent wholesale, and a done
    // append against the still-full log would recurse back into this checkpoint.
    SPLITFS_CHECK_OK(PublishStaged(held, /*log_done=*/false));
  }
  std::lock_guard<std::mutex> cl(checkpoint_mu_);
  analysis::ScopedLockNote cp_note(analysis::LockWitness::Global(), CheckpointSite());
  if (oplog_->ResetEpoch() != epoch) {
    return;  // Another thread already recycled the log; just retry the append.
  }
  auto sweep_and_reset = [this, held] {
    for (;;) {
      // A fresh snapshot every pass: a file that turned dirty since the last one may
      // belong to a writer whose op-log lane still has pre-claimed slots — it can
      // keep appending without ever noticing the log is full, so only the sweep can
      // clean its file.
      for (const FileRef& f : SnapshotFiles()) {
        if (f.get() == held) {
          continue;
        }
        bool dirty;
        {
          std::lock_guard<std::mutex> meta(f->meta_mu);
          analysis::ScopedLockNote mn(analysis::LockWitness::Global(), MetaMuSite());
          dirty = !f->staged.empty();
        }
        if (!dirty) {
          continue;
        }
        if (f->rlock.TryLockExclusive(0, RangeLock::kWholeFile)) {
          SPLITFS_CHECK_OK(PublishStaged(f.get(), /*log_done=*/false));
          f->rlock.UnlockExclusive(0, RangeLock::kWholeFile);
        }
      }
      // The reset must re-verify quiescence under the op log's exclusive lock: an
      // append satisfied from leftover lane slots can slip in between our sweep and
      // the lock acquisition, and retiring its entry would lose the only record of
      // unpublished staged data.
      if (dirty_files_.load(std::memory_order_acquire) == 0 &&
          oplog_->ResetIfQuiesced(
              [this] { return dirty_files_.load(std::memory_order_acquire) == 0; })) {
        break;
      }
      std::this_thread::yield();  // A writer still holds a dirty file; it will finish
                                  // its operation or publish and line up behind us.
    }
  };
  if (opts_.mode == Mode::kStrict) {
    // Epoch'd quiescence: close the gate so per-range writers drain (they never
    // block on a range lock while registered, so this terminates) and new ones
    // deflect to the whole-file path, where the try-lock sweep handles them like
    // any other whole-file writer. The drain + sweep window is the checkpoint's
    // service time: deflected writers wait behind strict_epoch_stamp_.
    sim::ScopedResourceTime epoch_time(&strict_epoch_stamp_, &ctx_->clock);
    {
      std::unique_lock<std::mutex> el(epoch_mu_);
      analysis::ScopedLockNote gate(analysis::LockWitness::Global(), EpochGateSite());
      ++range_epoch_;  // Odd: closed.
      epoch_cv_.wait(el, [this] { return range_writers_ == 0; });
    }
    sweep_and_reset();
    {
      std::lock_guard<std::mutex> el(epoch_mu_);
      analysis::ScopedLockNote gate(analysis::LockWitness::Global(), EpochGateSite());
      ++range_epoch_;  // Even: open.
      epoch_cv_.notify_all();
    }
  } else {
    sweep_and_reset();
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
}

// --- Recovery -------------------------------------------------------------------------------

int SplitFs::Recover() {
  OpScope op_scope(this, OpKind::kRecover);
  // A crash wiped the process: every piece of DRAM state is rebuilt from scratch.
  // Recovery runs before the instance serves new operations (single-threaded, as a
  // real restart would be).
  for (FileShard& shard : file_shards_) {
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    for (auto& [ino, fs] : shard.map) {
      if (fs->kernel_fd >= 0) {
        kfs_->Close(fs->kernel_fd);
      }
    }
    shard.map.clear();
  }
  for (PathShard& shard : path_shards_) {
    std::lock_guard<std::shared_mutex> lock(shard.mu);
    shard.map.clear();
  }
  dirty_files_.store(0, std::memory_order_relaxed);
  mmaps_.Clear();

  if (oplog_ == nullptr) {
    // POSIX / sync without async relink: nothing beyond K-Split's own journal
    // recovery (§5.3).
    return 0;
  }

  // Replay every live log entry on top of ext4 recovery: strict-mode data ops and
  // async-relink intents alike. Replay is idempotent — a relink whose source range
  // is already a hole is skipped.
  std::vector<LogEntry> runs = oplog_->ScanForRecovery();
  // Per returned entry: its checksum check, its place in the seq sort and its
  // coalescing, one unit of DRAM bookkeeping each.
  ctx_->ChargeCpu(ctx_->model.user_work_ns * runs.size());
  CoalesceForReplay(&runs);
  // Replay opens files by ino (log entries carry no paths) and re-issues the relink
  // ioctl, which applies the same ascending-ino two-inode lock order as the live
  // path. OpenByIno also pins the inode: a deferred reclamation racing the replay
  // (a logged target displaced by a committed rename) backs off while we hold the
  // descriptor instead of freeing the file under us. A descriptor stays open while
  // consecutive runs name the same inode; a failed open is kept too, since replay
  // creates no inodes.
  struct ReplayFd {
    vfs::Ino ino = vfs::kInvalidIno;
    int fd = -1;
  };
  ReplayFd src, dst;
  auto open_ino = [this](ReplayFd* f, vfs::Ino ino) {
    if (f->ino != ino) {
      if (f->fd >= 0) {
        kfs_->Close(f->fd);
      }
      f->ino = ino;
      f->fd = kfs_->OpenByIno(ino, vfs::kRdWr);
    }
    return f->fd;
  };
  int err = 0;
  for (const LogEntry& e : runs) {
    // A staging file retired or a target unlinked after logging: nothing to do. The
    // staging side is checked first, so a run it rules out opens no target.
    const int src_fd = open_ino(&src, e.staging_ino);
    if (src_fd < 0) {
      continue;
    }
    // The checksum authenticated the 64 bytes of the entry, not the world it points
    // at: never trust the recorded offsets/length beyond the staging file's actual
    // bounds (a replay past EOF would relink unallocated blocks into the target).
    // Overflow-safe form — these are exactly the fields an adversarial or
    // bug-produced entry would wrap.
    vfs::StatBuf src_st;
    if (e.len == 0 || kfs_->Fstat(src_fd, &src_st) != 0 || e.len > src_st.size ||
        e.staging_off > src_st.size - e.len || e.file_off + e.len < e.file_off) {
      continue;
    }
    const int dst_fd = open_ino(&dst, e.target_ino);
    if (dst_fd < 0) {
      continue;
    }
    const uint64_t end = e.file_off + e.len;
    const bool is_overwrite =
        e.op == LogOp::kOverwrite || e.op == LogOp::kRelinkIntentOverwrite;
    const RunLayout lay = LayOutRun(e.file_off, e.len, e.staging_off, is_overwrite, [&] {
      vfs::StatBuf dst_st;
      return kfs_->Fstat(dst_fd, &dst_st) == 0 ? dst_st.size : 0;
    });
    // Partial blocks are copied from the staging file through the kernel.
    auto copy = [&](uint64_t from, uint64_t to) -> int {
      if (from == to) {
        return 0;
      }
      std::vector<uint8_t> buf(to - from);
      const auto want = static_cast<ssize_t>(buf.size());
      ssize_t n = kfs_->Pread(src_fd, buf.data(), buf.size(),
                              e.staging_off + (from - e.file_off));
      if (n == want) {
        n = kfs_->Pwrite(dst_fd, buf.data(), buf.size(), from);
      }
      return n == want ? 0 : n < 0 ? static_cast<int>(n) : -EIO;
    };
    err = copy(e.file_off, lay.head_end);
    if (err == 0 && lay.core_len > 0) {
      err = kfs_->SwapExtentsForRelink(src_fd, lay.core_src, dst_fd, lay.head_end,
                                       lay.core_len, /*new_dst_size=*/end);
      if (err == -EINVAL) {
        err = 0;  // Already relinked before the crash: idempotent skip.
      }
    }
    if (err == 0) {
      err = copy(lay.core_end, end);
    }
    if (err != 0) {
      break;
    }
  }
  for (const ReplayFd* f : {&src, &dst}) {
    if (f->fd >= 0) {
      kfs_->Close(f->fd);
    }
  }
  if (err != 0) {
    // A run is missing bytes acknowledged as durable (ENOSPC, EIO). Keep the log: a
    // later Recover replays it again, and replay is idempotent.
    return err;
  }
  oplog_->Reset();

  // Fresh staging files for the new epoch (unrelinked blocks in old staging files are
  // garbage-collected out of band, as a real restart would clean its runtime dir).
  if (opts_.enable_staging) {
    static std::atomic<uint64_t> recover_epoch{0};
    int status = 0;
    auto pool = std::make_unique<StagingPool>(
        kfs_, &mmaps_, opts_, tag_ + "-r" + std::to_string(recover_epoch.fetch_add(1)),
        services_, &status);
    if (status != 0) {
      return status;  // Out of space. Replay is done, so a retry only builds the pool.
    }
    staging_ = std::move(pool);
  }
  return 0;
}

// --- fork/exec plumbing ----------------------------------------------------------------------

std::unique_ptr<SplitFs> SplitFs::CloneForFork(const std::string& child_tag) const {
  // fork() copies the address space: the child arrives with U-Split and its caches
  // intact (§3.5). Kernel descriptors are shared across fork, so they carry over.
  auto child = std::make_unique<SplitFs>(kfs_, opts_, child_tag);
  for (FileShard& shard : file_shards_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (const auto& [ino, fs] : shard.map) {
      auto copy = std::make_shared<FileState>(&ctx_->clock, &ctx_->obs);
      {
        std::lock_guard<std::mutex> meta(fs->meta_mu);
        copy->ino = fs->ino;
        copy->kernel_fd = fs->kernel_fd;
        copy->path = fs->path;
        copy->size = fs->size;
        copy->kernel_size = fs->kernel_size;
        copy->metadata_dirty = fs->metadata_dirty;
        copy->staged = fs->staged;
        copy->open_count = fs->open_count;
        copy->last_read_end = fs->last_read_end;
      }
      if (!copy->staged.empty()) {
        child->dirty_files_.fetch_add(1, std::memory_order_relaxed);
      }
      child->FileShardOf(ino).map[ino] = copy;
      child->PathShardOf(copy->path).map[copy->path] = ino;
    }
  }
  return child;
}

std::vector<uint8_t> SplitFs::SaveForExec() {
  // exec() discards the address space and every staged run with it, so each staged
  // file is published under its whole-file lock first, as Close does: the blob then
  // records sizes whose bytes are all on K-Split.
  std::vector<FileRef> files = SnapshotFiles();
  for (const FileRef& fs : files) {
    RangeWriteGuard guard(&fs->rlock, 0, RangeLock::kWholeFile);
    if (!IsDefunct(fs.get())) {
      SPLITFS_CHECK_OK(PublishStaged(fs.get()));
    }
  }
  // Serialize open-file state to the shm blob (§3.5: file named by pid on /dev/shm).
  // Layout per record: ino, size, kernel_size, path.
  std::vector<uint8_t> blob;
  auto put64 = [&blob](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      blob.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put64(files.size());
  for (const FileRef& fs : files) {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    put64(fs->ino);
    put64(fs->size);
    put64(fs->kernel_size);
    put64(fs->path.size());
    blob.insert(blob.end(), fs->path.begin(), fs->path.end());
  }
  return blob;
}

std::unique_ptr<SplitFs> SplitFs::RestoreAfterExec(ext4sim::Ext4Dax* kfs, Options opts,
                                                   const std::string& instance_tag,
                                                   const std::vector<uint8_t>& blob) {
  auto inst = std::make_unique<SplitFs>(kfs, opts, instance_tag);
  size_t pos = 0;
  auto get64 = [&blob, &pos]() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(blob[pos++]) << (8 * i);
    }
    return v;
  };
  uint64_t count = get64();
  for (uint64_t i = 0; i < count; ++i) {
    Ino ino = get64();
    uint64_t size = get64();
    uint64_t kernel_size = get64();
    uint64_t path_len = get64();
    std::string path(blob.begin() + pos, blob.begin() + pos + path_len);
    pos += path_len;
    int kfd = kfs->OpenByIno(ino, vfs::kRdWr);
    if (kfd < 0) {
      continue;
    }
    auto fs = std::make_shared<FileState>(&kfs->context()->clock, &kfs->context()->obs);
    fs->ino = ino;
    fs->kernel_fd = kfd;
    fs->path = path;
    fs->size = size;
    fs->kernel_size = kernel_size;
    inst->FileShardOf(ino).map[ino] = fs;
    inst->PathShardOf(path).map[path] = ino;
  }
  return inst;
}

// --- Introspection ---------------------------------------------------------------------------

uint64_t SplitFs::StagedBytes() const {
  uint64_t total = 0;
  for (const FileRef& fs : SnapshotFiles()) {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    for (const auto& [off, r] : fs->staged) {
      total += r.alloc.len;
    }
  }
  return total;
}

uint64_t SplitFs::MemoryUsageBytes() const {
  uint64_t total = sizeof(*this) + mmaps_.MemoryUsageBytes();
  if (staging_) {
    total += staging_->MemoryUsageBytes();
  }
  for (const FileRef& fs : SnapshotFiles()) {
    std::lock_guard<std::mutex> meta(fs->meta_mu);
    total += sizeof(*fs) + fs->path.size() +
             fs->staged.size() * (sizeof(StagedRange) + 48);
    total += fs->path.size() + sizeof(Ino) + 48;  // Path-cache entry.
  }
  if (oplog_) {
    total += 64;  // DRAM tail + bookkeeping; the log itself lives on PM.
  }
  return total;
}

}  // namespace splitfs
