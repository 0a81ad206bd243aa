// KvLsm: a LevelDB-shaped LSM key-value store over the VFS interface.
//
// Substitutes for LevelDB in the paper's YCSB evaluation (§5.2, Table 5/7, Figure 6).
// It reproduces LevelDB's file-system footprint — the part that matters for a file-
// system benchmark:
//   * every write appends a record to a write-ahead log, optionally fsync'd;
//   * a sorted memtable flushes to an immutable SSTable (CRC-protected blocks) when it
//     exceeds its budget, then the WAL is truncated;
//   * tiered compaction merges level-0 tables when too many accumulate, rewriting
//     their contents to a new table (bulk sequential reads + writes);
//   * point reads consult memtable, then tables newest-first via a DRAM index;
//   * range scans merge across memtable and all tables (YCSB workload E).
#ifndef SRC_APPS_KV_LSM_H_
#define SRC_APPS_KV_LSM_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/vfs/file_system.h"

namespace apps {

struct KvLsmOptions {
  uint64_t memtable_bytes = 4 * 1024 * 1024;  // Flush threshold.
  uint64_t sstable_block_bytes = 4096;        // Data block size.
  int l0_compaction_trigger = 4;  // Merge when this many L0 tables exist.
  // fsync the WAL after every write. LevelDB's default (and the configuration the
  // paper's YCSB throughput implies) is false: appends stream into the WAL and
  // durability comes from memtable-flush fsyncs.
  bool sync_writes = false;
  // Application-side CPU per operation (key comparison, memtable skiplist, iterator
  // setup...). The paper observes LevelDB spends 60-80% of its time in POSIX calls on
  // PM file systems (§4); this models the remaining application share. Charged to
  // `clock` when provided.
  sim::Clock* clock = nullptr;
  uint64_t app_cpu_ns = 1500;
};

class KvLsm {
 public:
  // Creates or reopens a store rooted at `dir` (recovers from WAL + tables on open).
  KvLsm(vfs::FileSystem* fs, std::string dir, KvLsmOptions opts = {});
  ~KvLsm();

  KvLsm(const KvLsm&) = delete;
  KvLsm& operator=(const KvLsm&) = delete;

  int Put(const std::string& key, const std::string& value);
  int Delete(const std::string& key);
  std::optional<std::string> Get(const std::string& key);
  // Up to `limit` key/value pairs with key >= start, in key order.
  std::vector<std::pair<std::string, std::string>> Scan(const std::string& start,
                                                        size_t limit);

  // Introspection.
  uint64_t Flushes() const { return flushes_; }
  uint64_t Compactions() const { return compactions_; }

 private:
  struct TableEntry {
    std::string path;
    int fd = -1;  // Cached open descriptor, as LevelDB's table cache keeps.
    // Sparse DRAM index: first key of each block -> (file offset, block length).
    std::map<std::string, std::pair<uint64_t, uint32_t>> index;
    uint64_t seq = 0;  // Newer tables shadow older ones.
  };

  void ChargeAppCpu();
  int WalAppend(uint8_t op, const std::string& key, const std::string& value);
  int FlushMemtable();
  int MaybeCompact();
  int WriteTable(const std::map<std::string, std::string>& entries, TableEntry* out);
  bool LookupInTable(TableEntry& t, const std::string& key, std::string* value,
                     bool* deleted);
  void LoadTableForScan(const TableEntry& t, std::map<std::string, std::string>* into,
                        std::map<std::string, bool>* tombstones);
  int RecoverFromDisk();

  vfs::FileSystem* fs_;
  std::string dir_;
  KvLsmOptions opts_;
  std::map<std::string, std::string> memtable_;  // value "" + tombstone flag below.
  std::map<std::string, bool> tombstones_;       // Keys deleted in the memtable.
  uint64_t memtable_bytes_ = 0;
  int wal_fd_ = -1;
  uint64_t next_table_ = 0;
  uint64_t next_wal_ = 0;
  std::vector<TableEntry> tables_;  // Sorted by seq ascending.
  uint64_t flushes_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace apps

#endif  // SRC_APPS_KV_LSM_H_
