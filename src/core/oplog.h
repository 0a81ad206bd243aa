// Optimized operation log (§3.3).
//
// In strict mode every operation is made atomic + synchronous by logical redo logging:
//   * one cache-line (64 B) entry per common operation, written with non-temporal
//     stores and made persistent with a single memory fence;
//   * a 4 B transactional CRC32C checksum inside the entry distinguishes valid from
//     torn entries, halving the fences NOVA needs (one instead of two);
//   * the tail lives only in DRAM and is advanced with compare-and-swap by concurrent
//     threads — it is reconstructed from checksums at recovery, never persisted;
//   * the log file is zeroed at initialization; recovery treats any nonzero, checksum-
//     valid 64 B slot as a (potentially replayable) entry. Replay is idempotent.
//   * entries do not carry file data — they point at the staging file holding it.
#ifndef SRC_CORE_OPLOG_H_
#define SRC_CORE_OPLOG_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/ext4/ext4_dax.h"

namespace splitfs {

enum class LogOp : uint8_t {
  kInvalid = 0,
  kAppend = 1,     // Staged append: relink staging->target at replay.
  kOverwrite = 2,  // Staged (COW) overwrite: same replay as append.
  kCreate = 3,     // Metadata ops: kernel journaling already makes them atomic;
  kUnlink = 4,     //   logged so recovery can cross-check, replayed as no-ops.
  kTruncate = 5,
  kRenameFrom = 6,  // Rename needs two entries (the paper's "uncommon multi-entry op").
  kRenameTo = 7,
  // Async relink publication. An intent records one staged run an acknowledged
  // fsync()/close() has promised to publish; replay treats it exactly like kAppend
  // (kOverwrite for the staged-overwrite variant — replay must know a run is an
  // overwrite, or it would relink its partial tail block whole and clobber settled
  // bytes past the run). A done record (target_ino + seq) marks every earlier data
  // entry of that inode as published-and-committed, so replay skips them — without
  // it, a stale intent could resurrect bytes a later unlogged in-place overwrite
  // (POSIX/sync modes) replaced.
  kRelinkIntent = 8,
  kRelinkDone = 9,
  kRelinkIntentOverwrite = 10,
};

// Recovery-scan structural validation rejects any op code above this: a checksum
// collision must never make replay act on fields it cannot interpret. Keep in sync
// with the last enumerator.
inline constexpr LogOp kMaxLogOp = LogOp::kRelinkIntentOverwrite;

// Exactly one cache line *by size* — the fields pack to 64 bytes and the
// static_assert holds the layout. Deliberately not alignas(64): entries live in
// the log at slot offsets (alignment of the in-memory copy is irrelevant to the
// device image), and over-alignment is UB through std::stable_sort's temporary
// buffer, which allocates without honoring extended alignment (UBSan caught the
// misaligned stores in ScanForRecovery). The checksum covers bytes [4, 64).
struct LogEntry {
  uint32_t checksum = 0;
  LogOp op = LogOp::kInvalid;
  uint8_t pad[3] = {0, 0, 0};
  uint64_t seq = 0;  // Monotonic, nonzero for valid entries.
  uint64_t target_ino = 0;
  uint64_t file_off = 0;
  uint64_t staging_ino = 0;
  uint64_t staging_off = 0;
  uint64_t len = 0;
  uint8_t reserved[8] = {};

  void Seal();            // Computes and stores the checksum.
  bool ValidSealed() const;  // Nonzero seq + checksum matches.
};
static_assert(sizeof(LogEntry) == 64, "log entry must be one cache line");

class OpLog {
 public:
  // Creates (or truncates) the log file at `path` on K-Split, `bytes` long, zeroes it,
  // and maps it. Charged to the caller: this is instance startup, off the hot path.
  OpLog(ext4sim::Ext4Dax* kfs, const std::string& path, uint64_t bytes);
  ~OpLog();

  OpLog(const OpLog&) = delete;
  OpLog& operator=(const OpLog&) = delete;

  // Appends one entry: compose (user work) + slot reservation + 64 B nt-store + one
  // fence. Returns false when the log is full — caller must Checkpoint() and retry.
  //
  // Concurrency (§3.3 "the tail is advanced with compare-and-swap by concurrent
  // threads"): each thread owns a lane that claims *chunks* of consecutive slots from
  // the shared tail with one fetch-add, then bump-allocates within its chunk with no
  // shared traffic; the per-entry `seq` comes from a global atomic, so recovery's
  // seq-sorted replay stitches the lanes back into one total order. A single-threaded
  // process fills slots 0,1,2,... exactly as before (one lane, consecutive chunks),
  // keeping the crash matrix byte-identical.
  bool Append(LogEntry entry);

  // Zeroes the log and resets the tail + every lane. The caller has already relinked
  // all staged data (checkpoint, §3.3). Excludes in-flight Appends (they hold the
  // reset lock shared), and bumps ResetEpoch() so a caller that lost the race to
  // checkpoint can tell the log was already recycled.
  void Reset() { ResetIfQuiesced(nullptr); }

  // Reset guarded by a predicate evaluated *after* in-flight appends have drained
  // (under the exclusive reset lock): the checkpoint passes "no file has unpublished
  // staged data". Needed because per-thread lanes can satisfy an Append from
  // leftover chunk slots even once the log looks full — without the re-check, a
  // reset could zero an entry appended between the checkpoint's last sweep and the
  // lock acquisition, losing the only record of unpublished staged data. Returns
  // false (log untouched) when the predicate fails.
  bool ResetIfQuiesced(const std::function<bool()>& quiesced);

  uint64_t ResetEpoch() const { return reset_epoch_.load(std::memory_order_acquire); }

  uint64_t EntriesLogged() const { return seq_.load(std::memory_order_relaxed); }
  uint64_t Capacity() const { return capacity_; }
  // Slots reserved since the last reset, clamped to capacity (fill-fraction gauge;
  // the tail over-reserves in lane chunks, so this is the pessimistic fill).
  uint64_t SlotsReserved() const {
    return std::min(tail_.load(std::memory_order_acquire), capacity_);
  }
  vfs::Ino ino() const { return ino_; }

  // Recovery: scans the whole log area for checksum-valid entries, sorted by seq.
  // Works purely from the device contents — DRAM state is assumed lost. The scan is
  // one sequential pass: each mapping of the log file is read in file order, one
  // Device::Load of at most kScanWindowBytes per window, so it pays the first-line
  // latency once per window rather than once per slot.
  std::vector<LogEntry> ScanForRecovery() const;
  static constexpr uint64_t kScanWindowBytes = 64 * 1024;

  // Test-only mutation hook (analysis self-tests): drop THE single fence after
  // the entry store, so the PersistChecker's rule-(a) check on the entry fires.
  void set_skip_fence_for_test(bool skip) { skip_fence_for_test_ = skip; }

 private:
  // Slots claimed per tail fetch-add. Any value preserves the single-threaded slot
  // layout (one lane consumes its chunk fully before claiming the next).
  static constexpr uint64_t kLaneChunkSlots = 32;
  static constexpr size_t kLanes = 16;

  struct alignas(64) Lane {
    std::mutex mu;       // Uncontended in steady state (threads hash onto lanes).
    uint64_t next = 0;   // Next slot within the claimed chunk.
    uint64_t end = 0;    // One past the chunk; next == end means claim a new chunk.
  };

  uint64_t SlotDevOffset(uint64_t slot) const;
  void ZeroLogArea();

  ext4sim::Ext4Dax* kfs_;
  sim::Context* ctx_;
  int fd_ = -1;
  vfs::Ino ino_ = vfs::kInvalidIno;
  uint64_t capacity_ = 0;  // Slots.
  std::vector<ext4sim::Ext4Dax::DaxMapping> mappings_;
  // Appenders hold this shared; Reset holds it exclusive so it never zeroes a slot
  // mid-store.
  mutable std::shared_mutex reset_mu_;
  std::array<Lane, kLanes> lanes_;
  std::atomic<uint64_t> tail_{0};  // DRAM-only slot reservation; never persisted.
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> reset_epoch_{0};
  bool skip_fence_for_test_ = false;
};

// Recovery: turns ScanForRecovery's seq-sorted entries, in place, into the staged
// runs to replay. Keeps only data entries (append, overwrite, relink intents) that
// are newer than their target's last truncate and last done record, then merges
// each one into the latest earlier run of the same staging file, target and op
// that ends where the entry starts (in staging file and target file alike).
// Consecutive appends that extended one staged run were logged one entry per
// operation but share staging blocks; replaying them separately would let an
// earlier entry's whole-block relink turn a later entry's staging range into a
// hole. Runs keep the order of their first entry. Expected O(entries).
void CoalesceForReplay(std::vector<LogEntry>* entries);

}  // namespace splitfs

#endif  // SRC_CORE_OPLOG_H_
