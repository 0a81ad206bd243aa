#include "src/core/oplog.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "src/analysis/annotations.h"
#include "src/analysis/persist_checker.h"
#include "src/common/bytes.h"
#include "src/common/checksum.h"
#include "src/common/threading.h"

namespace splitfs {

using common::kCacheLineSize;

void LogEntry::Seal() {
  seq = seq == 0 ? 1 : seq;  // Valid entries are always nonzero in the seq field.
  checksum = common::Crc32c(reinterpret_cast<const uint8_t*>(this) + 4, 60);
}

bool LogEntry::ChecksumMatches() const {
  return checksum == common::Crc32c(reinterpret_cast<const uint8_t*>(this) + 4, 60);
}

bool LogEntry::ValidSealed() const {
  // Structural validation first: recovery must never act on a slot whose fields it
  // cannot trust, even if the checksum happens to collide. The checksum is the
  // authority on tearing — a 64 B entry whose store only partially drained fails it.
  if (seq == 0 || op == LogOp::kInvalid || op > kMaxLogOp) {
    return false;
  }
  return ChecksumMatches();
}

bool LogEntry::ValidHeader() const {
  return seq != 0 && op == LogOp::kLogHeader && ChecksumMatches();
}

OpLog::OpLog(ext4sim::Ext4Dax* kfs, const std::string& path, uint64_t bytes)
    : kfs_(kfs), ctx_(kfs->context()), capacity_(bytes / kCacheLineSize - 2) {
  // Whole blocks: the two header slots then share the last one, so the scan reads
  // both with one load.
  SPLITFS_CHECK(bytes >= common::kBlockSize && bytes % common::kBlockSize == 0);
  fd_ = kfs_->Open(path, vfs::kRdWr | vfs::kCreate | vfs::kTrunc);
  SPLITFS_CHECK(fd_ >= 0);
  SPLITFS_CHECK_OK(kfs_->Fallocate(fd_, 0, bytes, /*keep_size=*/false));
  ino_ = kfs_->InoOf(fd_);
  SPLITFS_CHECK_OK(kfs_->DaxMap(fd_, 0, bytes, &mappings_));
  uint64_t mapped = 0;
  for (const auto& m : mappings_) {
    mapped += m.len;
  }
  SPLITFS_CHECK(mapped == bytes);
  ZeroLogArea();
}

OpLog::~OpLog() {
  if (fd_ >= 0) {
    kfs_->Close(fd_);
  }
}

uint64_t OpLog::SlotDevOffset(uint64_t slot) const {
  uint64_t file_off = slot * kCacheLineSize;
  for (const auto& m : mappings_) {
    if (file_off >= m.file_off && file_off < m.file_off + m.len) {
      return m.dev_off + (file_off - m.file_off);
    }
  }
  SPLITFS_CHECK(false && "log slot outside mapped area");
  return 0;
}

void OpLog::ZeroLogArea() {
  static const std::vector<uint8_t> zeros(common::kBlockSize, 0);
  pmem::Device* dev = kfs_->device();
  for (const auto& m : mappings_) {
    for (uint64_t off = 0; off < m.len; off += zeros.size()) {
      uint64_t n = std::min<uint64_t>(zeros.size(), m.len - off);
      dev->StoreNt(m.dev_off + off, zeros.data(), n, sim::PmWriteKind::kLog);
    }
  }
  dev->Fence();
}

bool OpLog::Append(LogEntry entry) {
  // Compose the entry (DRAM), reserve a slot in this thread's lane, nt-store the
  // line, one fence. The fence is core-local and the slot is lane-private, so
  // concurrent strict-mode threads only share the (rare) chunk-claim fetch-add and
  // the seq counter.
  ctx_->ChargeCpu(ctx_->model.user_work_ns + ctx_->model.cas_ns);
  std::shared_lock<std::shared_mutex> no_reset(reset_mu_);
  Lane& lane = lanes_[common::ThreadLaneIndex(kLanes)];
  // Held until the entry is durable: the lane invariant the recovery scan relies on.
  std::lock_guard<std::mutex> lm(lane.mu);
  if (lane.next == lane.end) {
    uint64_t start = tail_.fetch_add(kLaneChunkSlots, std::memory_order_relaxed);
    if (start >= capacity_) {
      tail_.fetch_sub(kLaneChunkSlots, std::memory_order_relaxed);
      return false;  // Full: the caller checkpoints and retries.
    }
    lane.next = start;
    lane.end = std::min(start + kLaneChunkSlots, capacity_);
  }
  const uint64_t slot = lane.next++;
  entry.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  entry.Seal();
  pmem::Device* dev = kfs_->device();
  uint64_t entry_off = SlotDevOffset(slot);
  analysis::ScopedLintSite lint("oplog.append");
  dev->StoreNt(entry_off, &entry, kCacheLineSize, sim::PmWriteKind::kLog);
  // Rule (b), non-strict: the entry is the record over whatever payload the
  // caller declared (a strict data op's staged bytes); entry and payload
  // persisting at the SAME fence is the §3.3 design, so strict=false.
  analysis::SealCover(dev, entry_off, kCacheLineSize, /*strict=*/false,
                      "oplog.append");
  if (!skip_fence_for_test_) {
    dev->Fence();  // THE single fence per logged operation.
  }
  // Rule (a): the operation acks durability of its log entry the moment Append
  // returns — with the fence mutation-dropped above, this fires.
  analysis::RequireDurable(dev, entry_off, kCacheLineSize, "oplog.entry");
  ctx_->stats.AddLogEntry();
  return true;
}

bool OpLog::ResetIfQuiesced(const std::function<bool()>& quiesced) {
  std::lock_guard<std::shared_mutex> exclusive(reset_mu_);
  // Any append that already wrote an entry has released the shared lock, so its
  // effects (including the caller's dirty-state bookkeeping preceding the append)
  // are visible to the predicate here; an append that has not yet started will land
  // in the fresh log.
  if (quiesced && !quiesced()) {
    return false;
  }
  WriteHeader();
  for (Lane& lane : lanes_) {
    std::lock_guard<std::mutex> lm(lane.mu);
    lane.next = 0;
    lane.end = 0;
  }
  tail_.store(0, std::memory_order_relaxed);
  reset_epoch_.fetch_add(1, std::memory_order_release);
  return true;
}

void OpLog::WriteHeader() {
  LogEntry header;
  header.op = LogOp::kLogHeader;
  // The new epoch's first seq: every entry appended so far is at or below the floor.
  header.seq = seq_.load(std::memory_order_relaxed) + 1;
  header.Seal();
  pmem::Device* dev = kfs_->device();
  const uint64_t off = SlotDevOffset(capacity_ + next_header_);
  dev->StoreNt(off, &header, kCacheLineSize, sim::PmWriteKind::kLog);
  dev->Fence();
  analysis::RequireDurable(dev, off, kCacheLineSize, "oplog.header");
  next_header_ ^= 1;
}

std::vector<LogEntry> OpLog::ScanForRecovery() {
  static_assert(kScanWindowBytes % kCacheLineSize == 0, "windows hold whole slots");
  std::lock_guard<std::shared_mutex> exclusive(reset_mu_);
  pmem::Device* dev = kfs_->device();
  std::array<LogEntry, 2> headers;
  dev->Load(SlotDevOffset(capacity_), headers.data(), sizeof(headers),
            /*sequential=*/false, sim::PmReadKind::kLog);
  int newest = -1;  // The valid header with the larger seq; the other slot is next.
  for (int i = 0; i < 2; ++i) {
    if (headers[i].ValidHeader() && (newest < 0 || headers[i].seq > headers[newest].seq)) {
      newest = i;
    }
  }
  const uint64_t floor = newest < 0 ? 0 : headers[newest].seq - 1;
  next_header_ = newest == 0 ? 1 : 0;

  std::vector<LogEntry> out;
  std::vector<LogEntry> window(kScanWindowBytes / kCacheLineSize);
  const uint64_t entry_bytes = capacity_ * kCacheLineSize;
  uint64_t dead = 0;  // Dead slots in a row.
  // The mappings tile the log in file order, so slots are visited 0, 1, 2, ... and
  // each window is one sequential read.
  for (const auto& m : mappings_) {
    for (uint64_t off = 0; off < m.len && m.file_off + off < entry_bytes &&
                           dead <= kMaxDeadRun;
         off += kScanWindowBytes) {
      uint64_t n = std::min({kScanWindowBytes, m.len - off, entry_bytes - m.file_off - off});
      dev->Load(m.dev_off + off, window.data(), n, /*sequential=*/true,
                sim::PmReadKind::kLog);
      for (uint64_t i = 0; i < n / kCacheLineSize && dead <= kMaxDeadRun; ++i) {
        // Dead: zero, torn (§3.3), structurally invalid, or from a closed epoch.
        if (window[i].ValidSealed() && window[i].seq > floor) {
          out.push_back(window[i]);
          dead = 0;
        } else {
          ++dead;
        }
      }
    }
  }
  // Stable sort: if corruption ever produces two checksum-valid entries with equal
  // seq, the one in the earlier log slot deterministically wins on every platform.
  std::stable_sort(out.begin(), out.end(),
                   [](const LogEntry& a, const LogEntry& b) { return a.seq < b.seq; });
  // The log writes each sequence number exactly once; a duplicate is corruption that
  // slipped past the checksum (or a bug) and must not be replayed twice.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const LogEntry& a, const LogEntry& b) { return a.seq == b.seq; }),
            out.end());
  return out;
}

namespace {

// Where a staged run ends in its staging file and its target file, or where an
// entry starts: an entry extends a run exactly when the two are equal.
struct RunEdge {
  uint64_t staging_ino;
  uint64_t target_ino;
  uint64_t staging_off;
  uint64_t file_off;
  LogOp op;

  bool operator==(const RunEdge& o) const {
    return staging_ino == o.staging_ino && target_ino == o.target_ino &&
           staging_off == o.staging_off && file_off == o.file_off && op == o.op;
  }
};

RunEdge StartOf(const LogEntry& e) {
  return {e.staging_ino, e.target_ino, e.staging_off, e.file_off, e.op};
}

RunEdge EndOf(const LogEntry& run) {
  return {run.staging_ino, run.target_ino, run.staging_off + run.len,
          run.file_off + run.len, run.op};
}

// The runs being built, indexed by the edge each ends at: an open-addressing table
// (linear probing, at most half full) with one slot per run. A slot packs a 32-bit
// hash of the edge, which also picks its home slot, above the run index + 1
// (0 = empty), so probing and growing read only the table; a run is read only to
// confirm a hash match.
class RunEnds {
 public:
  static constexpr size_t kNone = SIZE_MAX;

  explicit RunEnds(const std::vector<LogEntry>* runs) : runs_(*runs), slots_(1024) {}

  // Unindexes and returns the newest run (highest index) ending at `edge`, or
  // kNone. Runs ending at one edge all sit between its home slot and the next
  // empty slot.
  size_t TakeNewest(const RunEdge& edge) {
    const uint64_t tag = Tag(edge);
    const size_t mask = slots_.size() - 1;
    size_t newest = kNone;
    for (size_t i = tag & mask; slots_[i] != 0; i = (i + 1) & mask) {
      if ((slots_[i] >> 32) == tag && EndOf(runs_[RunOf(slots_[i])]) == edge &&
          (newest == kNone || slots_[i] > slots_[newest])) {
        newest = i;  // Same tag: the larger slot holds the larger run index.
      }
    }
    if (newest == kNone) {
      return kNone;
    }
    const size_t run = RunOf(slots_[newest]);
    Erase(newest);
    return run;
  }

  // Indexes `run` (new, or just taken and extended) under the edge it now ends at.
  void Add(size_t run) {
    Place((Tag(EndOf(runs_[run])) << 32) | (run + 1));
    if (++used_ * 2 > slots_.size()) {
      std::vector<uint64_t> old(slots_.size() * 2);
      old.swap(slots_);
      for (uint64_t s : old) {
        if (s != 0) {
          Place(s);
        }
      }
    }
  }

 private:
  static uint64_t Tag(const RunEdge& k) {
    uint64_t h = static_cast<uint64_t>(k.op);
    for (uint64_t v : {k.staging_ino, k.target_ino, k.staging_off, k.file_off}) {
      h = (h ^ v) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
    }
    return h >> 32;
  }
  static size_t RunOf(uint64_t slot) { return (slot & 0xFFFFFFFFu) - 1; }
  size_t Home(uint64_t slot) const { return (slot >> 32) & (slots_.size() - 1); }

  void Place(uint64_t slot) {
    size_t i = Home(slot);
    while (slots_[i] != 0) {
      i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i] = slot;
  }

  // Backward-shift deletion: each later slot of the cluster whose home is not
  // between the hole and itself moves into the hole, so no probe crosses a gap.
  void Erase(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = (hole + 1) & mask; slots_[i] != 0; i = (i + 1) & mask) {
      if (((i - Home(slots_[i])) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = 0;
    --used_;
  }

  const std::vector<LogEntry>& runs_;
  std::vector<uint64_t> slots_;  // Power-of-two size.
  size_t used_ = 0;
};

}  // namespace

void CoalesceForReplay(std::vector<LogEntry>* entries) {
  std::vector<LogEntry>& v = *entries;
  SPLITFS_CHECK(v.size() < UINT32_MAX);  // Run indices fit a table slot.
  // Per target inode, the seq of its last truncate or done record; data entries
  // older than that are dropped.
  //  * Truncates are logged after publishing, so every data entry that precedes one
  //    is already committed (or legitimately gone). Its core relink would skip on
  //    holes, but the partial-block head copy would not — replaying it would
  //    resurrect bytes the truncate removed.
  //  * kRelinkDone seals a publish: every data entry of that inode with a smaller seq
  //    was relinked and journal-committed before the crash. Skipping them is what
  //    keeps a stale intent from resurrecting bytes a later unlogged in-place
  //    overwrite (POSIX/sync) replaced.
  std::unordered_map<vfs::Ino, uint64_t> settled_seq;
  for (const LogEntry& e : v) {
    if (e.op == LogOp::kTruncate || e.op == LogOp::kRelinkDone) {
      uint64_t& seq = settled_seq[e.target_ino];
      seq = std::max(seq, e.seq);
    }
  }
  // Runs are compacted into v[0, runs): each kept entry extends the newest run
  // ending where it starts, or opens a new run.
  RunEnds ends(&v);
  size_t runs = 0;
  for (size_t r = 0; r < v.size(); ++r) {
    const LogEntry e = v[r];
    if (e.op != LogOp::kAppend && e.op != LogOp::kOverwrite &&
        e.op != LogOp::kRelinkIntent && e.op != LogOp::kRelinkIntentOverwrite) {
      continue;  // Metadata ops were made durable by the kernel journal.
    }
    auto settled = settled_seq.find(e.target_ino);
    if (settled != settled_seq.end() && settled->second > e.seq) {
      continue;
    }
    size_t run = ends.TakeNewest(StartOf(e));
    if (run == RunEnds::kNone) {
      run = runs++;
      v[run] = e;
    } else {
      v[run].len += e.len;
    }
    ends.Add(run);
  }
  v.resize(runs);
}

}  // namespace splitfs
