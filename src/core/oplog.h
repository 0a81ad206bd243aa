// Optimized operation log (§3.3).
//
// In strict mode every operation is made atomic + synchronous by logical redo logging:
//   * one cache-line (64 B) entry per common operation, written with non-temporal
//     stores and made persistent with a single memory fence;
//   * a 4 B transactional CRC32C checksum inside the entry distinguishes valid from
//     torn entries, halving the fences NOVA needs (one instead of two);
//   * the tail lives only in DRAM and is advanced with compare-and-swap by concurrent
//     threads — it is reconstructed from checksums at recovery, never persisted;
//   * the log file is zeroed once, at creation. A checkpoint does not re-zero it: it
//     writes one 64 B header recording the floor, the last seq of the epoch it
//     closes (jbd2's superblock likewise records where its live log begins). An
//     entry is live when it is checksum-valid and its seq is above the floor;
//     recovery reads entry slots from slot 0 and stops once more dead slots follow
//     in a row than the lanes can leave unwritten below the tail. Replay is
//     idempotent.
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
  // Not an entry: the record a checkpoint writes into one of the two header slots
  // past the entry slots. Its `seq` is the first seq of the epoch it opens, so the
  // floor is seq - 1 (a floor of 0 still seals with a nonzero seq).
  kLogHeader = 11,
};

// Recovery-scan structural validation rejects any entry op code above this: a
// checksum collision must never make replay act on fields it cannot interpret, and a
// header is never an entry. Keep in sync with the last entry enumerator.
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

  void Seal();               // Computes and stores the checksum.
  bool ValidSealed() const;  // An entry: nonzero seq, entry op code, checksum matches.
  bool ValidHeader() const;  // A header: nonzero seq, kLogHeader, checksum matches.

 private:
  bool ChecksumMatches() const;
};
static_assert(sizeof(LogEntry) == 64, "log entry must be one cache line");

class OpLog {
 public:
  // Creates (or truncates) the log file at `path` on K-Split, `bytes` long, zeroes it,
  // and maps it. Charged to the caller: this is instance startup, off the hot path.
  // The last two 64 B slots are the header slots; the rest hold entries. Zeroing is
  // what makes a new log safe: its seq restarts at 1, so recycled blocks must not
  // hold sealed entries or headers.
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
  //
  // Lane invariant: the entry is stored and fenced while the lane's mutex is held, so
  // a lane hands out its next slot only once the previous one is durable. Below the
  // tail, only the unused rest of each lane's current chunk is ever unwritten — at
  // most kMaxDeadRun slots — which is what lets the recovery scan stop early.
  bool Append(LogEntry entry);

  // Ends the epoch: writes a header whose floor is the current seq (one 64 B nt-store
  // and one fence, whatever the log's size) and resets the tail + every lane. Every
  // entry on media now has seq <= floor and is dead, so nothing is zeroed. The
  // header goes to the slot that does not hold the newest valid header: a torn
  // header write leaves the previous one, and recovery falls back to its floor, which
  // replays at most the epoch this reset closed. The caller has already relinked all
  // staged data (checkpoint, §3.3). Excludes in-flight Appends (they hold the reset
  // lock shared), and bumps ResetEpoch() so a caller that lost the race to checkpoint
  // can tell the log was already recycled.
  void Reset() { ResetIfQuiesced(nullptr); }

  // Reset guarded by a predicate evaluated *after* in-flight appends have drained
  // (under the exclusive reset lock): the checkpoint passes "no file has unpublished
  // staged data". Needed because per-thread lanes can satisfy an Append from
  // leftover chunk slots even once the log looks full — without the re-check, a
  // reset could retire an entry appended between the checkpoint's last sweep and the
  // lock acquisition, losing the only record of unpublished staged data. Returns
  // false (log untouched) when the predicate fails.
  bool ResetIfQuiesced(const std::function<bool()>& quiesced);

  uint64_t ResetEpoch() const { return reset_epoch_.load(std::memory_order_acquire); }

  uint64_t EntriesLogged() const { return seq_.load(std::memory_order_relaxed); }
  uint64_t Capacity() const { return capacity_; }  // Entry slots (header slots excluded).
  // Slots reserved since the last reset, clamped to capacity (fill-fraction gauge;
  // the tail over-reserves in lane chunks, so this is the pessimistic fill).
  uint64_t SlotsReserved() const {
    return std::min(tail_.load(std::memory_order_acquire), capacity_);
  }
  vfs::Ino ino() const { return ino_; }

  // Recovery: returns the live entries, sorted by seq. Works purely from the device
  // contents — DRAM state is assumed lost. It loads both header slots and takes the
  // floor from the newest valid header (0 if neither is valid). Then it reads entry
  // slots from slot 0 in file order, one sequential Device::Load of at most
  // kScanWindowBytes per window, so the first-line latency is paid once per window.
  // A slot is dead when it is zero, torn, structurally invalid or at or below the
  // floor; the scan stops after more than kMaxDeadRun dead slots in a row, so it
  // reads the live part of the log plus at most one window, not the whole capacity.
  // It also aims the next Reset at the slot that does not hold the newest valid
  // header, so a header that survived a cut is never overwritten. Recovery is
  // single-threaded; the scan excludes Append and Reset anyway.
  std::vector<LogEntry> ScanForRecovery();
  static constexpr uint64_t kScanWindowBytes = 64 * 1024;
  // The most slots below the tail that can be unwritten (see Append): every lane's
  // current chunk. A longer run of dead slots lies past the live end of the log.
  static constexpr uint64_t kMaxDeadRun = 512;

  // Test-only mutation hook (analysis self-tests): drop THE single fence after
  // the entry store, so the PersistChecker's rule-(a) check on the entry fires.
  void set_skip_fence_for_test(bool skip) { skip_fence_for_test_ = skip; }

 private:
  // Slots claimed per tail fetch-add. Any value preserves the single-threaded slot
  // layout (one lane consumes its chunk fully before claiming the next).
  static constexpr uint64_t kLaneChunkSlots = 32;
  static constexpr size_t kLanes = 16;
  static_assert(kMaxDeadRun == kLanes * kLaneChunkSlots,
                "the scan may stop only past every lane's current chunk");

  struct alignas(64) Lane {
    std::mutex mu;       // Uncontended in steady state (threads hash onto lanes).
    uint64_t next = 0;   // Next slot within the claimed chunk.
    uint64_t end = 0;    // One past the chunk; next == end means claim a new chunk.
  };

  uint64_t SlotDevOffset(uint64_t slot) const;
  void ZeroLogArea();
  void WriteHeader();

  ext4sim::Ext4Dax* kfs_;
  sim::Context* ctx_;
  int fd_ = -1;
  vfs::Ino ino_ = vfs::kInvalidIno;
  uint64_t capacity_ = 0;  // Entry slots.
  std::vector<ext4sim::Ext4Dax::DaxMapping> mappings_;
  // Appenders hold this shared; Reset holds it exclusive so no entry is appended to
  // the epoch its header closes.
  std::shared_mutex reset_mu_;
  std::array<Lane, kLanes> lanes_;
  std::atomic<uint64_t> tail_{0};  // DRAM-only slot reservation; never persisted.
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> reset_epoch_{0};
  uint64_t next_header_ = 0;  // Header slot (0 or 1) the next Reset writes.
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
