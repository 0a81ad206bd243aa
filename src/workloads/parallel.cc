#include "src/workloads/parallel.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/apps/kv_lsm.h"
#include "src/common/random.h"
#include "src/common/threading.h"

namespace wl {

namespace {

// Deterministic per-(thread, offset) payload byte, so verification needs no side
// buffer.
inline uint8_t PayloadByte(int thread, uint64_t off) {
  return static_cast<uint8_t>(0x5A ^ (thread * 131) ^ (off * 13 >> 3));
}

// Runs `body(thread_index)` on `threads` real threads, each with a bound clock lane;
// returns the slowest worker's lane delta. Each worker pins its index as its
// structure-lane (staging pool, op log): thread-id hashes vary run to run, and
// which workers collided on a lane used to perturb reported virtual time.
template <typename Body>
uint64_t RunWorkers(sim::Clock* clock, int threads, const Body& body) {
  std::vector<uint64_t> lane_ns(static_cast<size_t>(threads), 0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([clock, t, &lane_ns, &body] {
      common::ScopedThreadLane pin(static_cast<size_t>(t));
      sim::Clock::Lane lane(clock);
      uint64_t t0 = lane.Now();
      body(t);
      lane_ns[static_cast<size_t>(t)] = lane.Now() - t0;
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  uint64_t elapsed = 0;
  for (uint64_t ns : lane_ns) {
    elapsed = std::max(elapsed, ns);
  }
  return elapsed;
}

}  // namespace

ParallelResult RunParallelAppend(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                                 const std::string& dir, uint64_t bytes_per_thread,
                                 uint64_t op_bytes, uint64_t fsync_every) {
  fs->Mkdir(dir);
  ParallelResult res;
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> errors{0};
  std::vector<obs::LatencyHistogram> hists(static_cast<size_t>(threads));

  res.elapsed_ns = RunWorkers(clock, threads, [&](int t) {
    obs::LatencyHistogram& hist = hists[static_cast<size_t>(t)];
    std::string path = dir + "/append-" + std::to_string(t);
    int fd = fs->Open(path, vfs::kRdWr | vfs::kCreate);
    if (fd < 0) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    std::vector<uint8_t> buf(op_bytes);
    uint64_t off = 0;
    uint64_t my_ops = 0;
    while (off < bytes_per_thread) {
      for (uint64_t i = 0; i < op_bytes; ++i) {
        buf[i] = PayloadByte(t, off + i);
      }
      // One latency sample covers the write plus the fsync it triggers (if any):
      // the unit of work a caller observes per counted op.
      uint64_t op_t0 = clock->Now();
      if (fs->Pwrite(fd, buf.data(), op_bytes, off) != static_cast<ssize_t>(op_bytes)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      off += op_bytes;
      ++my_ops;
      if (fsync_every != 0 && my_ops % fsync_every == 0 && fs->Fsync(fd) != 0) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      hist.Record(clock->Now() - op_t0);
    }
    if (fs->Fsync(fd) != 0) {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
    vfs::StatBuf st;
    if (fs->Fstat(fd, &st) != 0 || st.size != off) {
      errors.fetch_add(1, std::memory_order_relaxed);
    }
    fs->Close(fd);
    ops.fetch_add(my_ops, std::memory_order_relaxed);
  });

  res.ops = ops.load();
  res.bytes = res.ops * op_bytes;
  res.errors = errors.load();
  for (const obs::LatencyHistogram& h : hists) {
    res.latency.MergeFrom(h);
  }
  return res;
}

ParallelResult RunParallelRead(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                               const std::string& dir, uint64_t file_bytes,
                               uint64_t op_bytes, uint64_t ops_per_thread,
                               uint64_t seed) {
  fs->Mkdir(dir);
  // Prepare one file per thread (sequential, not timed).
  for (int t = 0; t < threads; ++t) {
    std::string path = dir + "/read-" + std::to_string(t);
    int fd = fs->Open(path, vfs::kRdWr | vfs::kCreate);
    SPLITFS_CHECK(fd >= 0);
    std::vector<uint8_t> buf(64 * 1024);
    for (uint64_t off = 0; off < file_bytes; off += buf.size()) {
      uint64_t span = std::min<uint64_t>(buf.size(), file_bytes - off);
      for (uint64_t i = 0; i < span; ++i) {
        buf[i] = PayloadByte(t, off + i);
      }
      SPLITFS_CHECK(fs->Pwrite(fd, buf.data(), span, off) == static_cast<ssize_t>(span));
    }
    SPLITFS_CHECK_OK(fs->Fsync(fd));
    SPLITFS_CHECK_OK(fs->Close(fd));
  }

  ParallelResult res;
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> errors{0};
  std::vector<obs::LatencyHistogram> hists(static_cast<size_t>(threads));
  res.elapsed_ns = RunWorkers(clock, threads, [&](int t) {
    obs::LatencyHistogram& hist = hists[static_cast<size_t>(t)];
    std::string path = dir + "/read-" + std::to_string(t);
    int fd = fs->Open(path, vfs::kRdOnly);
    if (fd < 0) {
      errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    common::Rng rng(seed + static_cast<uint64_t>(t) * 0x9E37ull);
    std::vector<uint8_t> buf(op_bytes);
    uint64_t my_ops = 0;
    uint64_t slots = file_bytes / op_bytes;
    for (uint64_t i = 0; i < ops_per_thread; ++i) {
      uint64_t off = rng.Uniform(slots) * op_bytes;
      uint64_t op_t0 = clock->Now();
      if (fs->Pread(fd, buf.data(), op_bytes, off) != static_cast<ssize_t>(op_bytes)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      hist.Record(clock->Now() - op_t0);
      // Spot-check first/last byte of every read.
      if (buf[0] != PayloadByte(t, off) ||
          buf[op_bytes - 1] != PayloadByte(t, off + op_bytes - 1)) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      ++my_ops;
    }
    fs->Close(fd);
    ops.fetch_add(my_ops, std::memory_order_relaxed);
  });

  res.ops = ops.load();
  res.bytes = res.ops * op_bytes;
  res.errors = errors.load();
  for (const obs::LatencyHistogram& h : hists) {
    res.latency.MergeFrom(h);
  }
  return res;
}

ParallelResult RunParallelSharedHotFile(vfs::FileSystem* fs, sim::Clock* clock,
                                        int threads, const std::string& dir,
                                        uint64_t bytes_per_thread, uint64_t op_bytes) {
  fs->Mkdir(dir);
  const std::string path = dir + "/hot";
  const uint64_t file_bytes = static_cast<uint64_t>(threads) * bytes_per_thread;
  const uint64_t slots_per_thread = bytes_per_thread / op_bytes;
  // Untimed prepare, all on the caller's thread: create and size the one shared
  // file so every timed write is size-preserving (in-size overwrites take only
  // their byte range; a growing write would need whole-file exclusive), then warm
  // the mmap translation with a read sweep. Without the sweep, which worker wins
  // each region-mapping race — and so which lane the mmap and huge-page-fault
  // charges land on — varies with OS scheduling, perturbing the reported cells.
  int fd = fs->Open(path, vfs::kRdWr | vfs::kCreate);
  SPLITFS_CHECK(fd >= 0);
  SPLITFS_CHECK_OK(fs->Fallocate(fd, 0, file_bytes, /*keep_size=*/false));
  SPLITFS_CHECK_OK(fs->Fsync(fd));
  {
    std::vector<uint8_t> warm(64 * 1024);
    for (uint64_t off = 0; off < file_bytes; off += warm.size()) {
      uint64_t span = std::min<uint64_t>(warm.size(), file_bytes - off);
      SPLITFS_CHECK(fs->Pread(fd, warm.data(), span, off) ==
                    static_cast<ssize_t>(span));
    }
  }

  // Timed phase: pure in-size data writes through ONE shared open file — the path
  // the range-granular locks parallelize. No per-thread fsync/close inside the
  // phase: fsync and close publish under a whole-file guard, so an early finisher
  // would convoy the still-writing threads behind its exclusive waiter, and the
  // convoy's shape (pure OS scheduling) would leak into the virtual-time cells.
  // Publication is driven once, below, on the caller's thread.
  ParallelResult res;
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> errors{0};
  std::vector<obs::LatencyHistogram> hists(static_cast<size_t>(threads));
  res.elapsed_ns = RunWorkers(clock, threads, [&](int t) {
    obs::LatencyHistogram& hist = hists[static_cast<size_t>(t)];
    std::vector<uint8_t> buf(op_bytes);
    uint64_t my_ops = 0;
    // Thread t owns slots t, t+threads, t+2*threads, ... — disjoint op_bytes
    // strides interleaved across the file, so neighbours hammer adjacent ranges.
    for (uint64_t i = 0; i < slots_per_thread; ++i) {
      uint64_t off = (i * static_cast<uint64_t>(threads) + static_cast<uint64_t>(t)) *
                     op_bytes;
      for (uint64_t b = 0; b < op_bytes; ++b) {
        buf[b] = PayloadByte(t, off + b);
      }
      uint64_t op_t0 = clock->Now();
      if (fs->Pwrite(fd, buf.data(), op_bytes, off) != static_cast<ssize_t>(op_bytes)) {
        errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      hist.Record(clock->Now() - op_t0);
      ++my_ops;
    }
    ops.fetch_add(my_ops, std::memory_order_relaxed);
  });

  // Publish + verify on the caller's thread: every slot carries its owning
  // thread's payload, and the size never moved.
  if (fs->Fsync(fd) != 0) {
    ++res.errors;
  }
  vfs::StatBuf st;
  if (fs->Fstat(fd, &st) != 0 || st.size != file_bytes) {
    ++res.errors;
  }
  {
    std::vector<uint8_t> buf(op_bytes);
    for (int t = 0; t < threads; ++t) {
      for (uint64_t i = 0; i < slots_per_thread; ++i) {
        uint64_t off = (i * static_cast<uint64_t>(threads) +
                        static_cast<uint64_t>(t)) * op_bytes;
        if (fs->Pread(fd, buf.data(), op_bytes, off) !=
            static_cast<ssize_t>(op_bytes)) {
          ++res.errors;
          break;
        }
        if (buf[0] != PayloadByte(t, off) ||
            buf[op_bytes - 1] != PayloadByte(t, off + op_bytes - 1)) {
          ++res.errors;
        }
      }
    }
  }
  fs->Close(fd);

  res.ops = ops.load();
  res.bytes = res.ops * op_bytes;
  res.errors += errors.load();
  for (const obs::LatencyHistogram& h : hists) {
    res.latency.MergeFrom(h);
  }
  return res;
}

ParallelResult RunParallelYcsbA(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                                const std::string& dir, uint64_t records_per_thread,
                                uint64_t ops_per_thread, uint64_t seed) {
  fs->Mkdir(dir);
  ParallelResult res;
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> errors{0};
  constexpr uint32_t kValueBytes = 1024;  // YCSB standard 10 fields x 100 B, rounded.
  std::vector<obs::LatencyHistogram> hists(static_cast<size_t>(threads));

  res.elapsed_ns = RunWorkers(clock, threads, [&](int t) {
    obs::LatencyHistogram& hist = hists[static_cast<size_t>(t)];
    // One LevelDB-shaped store per application thread, all over the shared U-Split
    // instance (the paper's multi-application scenario, §3.2).
    apps::KvLsmOptions kopts;
    kopts.clock = clock;
    apps::KvLsm store(fs, dir + "/ycsb-" + std::to_string(t), kopts);
    auto key_for = [t](uint64_t k) {
      return "user" + std::to_string(t) + "-" + std::to_string(k);
    };
    std::string value(kValueBytes, static_cast<char>('a' + t % 26));
    for (uint64_t k = 0; k < records_per_thread; ++k) {
      if (store.Put(key_for(k), value) != 0) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    common::Rng rng(seed + static_cast<uint64_t>(t) * 77);
    common::ZipfianGenerator zipf(records_per_thread, 0.99,
                                  seed + static_cast<uint64_t>(t) * 31 + 1);
    uint64_t my_ops = 0;
    uint64_t my_bytes = 0;
    for (uint64_t i = 0; i < ops_per_thread; ++i) {
      uint64_t k = zipf.NextScrambled();
      uint64_t op_t0 = clock->Now();
      if (rng.OneIn(2)) {
        auto got = store.Get(key_for(k));
        if (!got.has_value()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          my_bytes += got->size();
        }
      } else {
        if (store.Put(key_for(k), value) != 0) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        my_bytes += kValueBytes;
      }
      hist.Record(clock->Now() - op_t0);
      ++my_ops;
    }
    ops.fetch_add(my_ops, std::memory_order_relaxed);
    bytes.fetch_add(my_bytes, std::memory_order_relaxed);
  });

  res.ops = ops.load();
  res.bytes = bytes.load();
  res.errors = errors.load();
  for (const obs::LatencyHistogram& h : hists) {
    res.latency.MergeFrom(h);
  }
  return res;
}

ParallelResult RunParallelYcsbC(vfs::FileSystem* fs, sim::Clock* clock, int threads,
                                const std::string& dir, uint64_t records_per_thread,
                                uint64_t ops_per_thread, uint64_t seed) {
  fs->Mkdir(dir);
  constexpr uint32_t kValueBytes = 1024;
  // Load phase (untimed, caller's thread): a small memtable budget forces flushes,
  // so the timed gets walk SSTables through U-Split preads instead of returning
  // straight from DRAM.
  std::vector<std::unique_ptr<apps::KvLsm>> stores;
  stores.reserve(static_cast<size_t>(threads));
  auto key_for = [](int t, uint64_t k) {
    return "user" + std::to_string(t) + "-" + std::to_string(k);
  };
  for (int t = 0; t < threads; ++t) {
    apps::KvLsmOptions kopts;
    kopts.clock = clock;
    kopts.memtable_bytes = 256 * 1024;
    stores.push_back(std::make_unique<apps::KvLsm>(
        fs, dir + "/ycsbc-" + std::to_string(t), kopts));
    std::string value(kValueBytes, static_cast<char>('a' + t % 26));
    for (uint64_t k = 0; k < records_per_thread; ++k) {
      SPLITFS_CHECK_OK(stores.back()->Put(key_for(t, k), value));
    }
  }

  ParallelResult res;
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> errors{0};
  std::vector<obs::LatencyHistogram> hists(static_cast<size_t>(threads));
  res.elapsed_ns = RunWorkers(clock, threads, [&](int t) {
    obs::LatencyHistogram& hist = hists[static_cast<size_t>(t)];
    apps::KvLsm& store = *stores[static_cast<size_t>(t)];
    common::ZipfianGenerator zipf(records_per_thread, 0.99,
                                  seed + static_cast<uint64_t>(t) * 131 + 7);
    char expect = static_cast<char>('a' + t % 26);
    uint64_t my_ops = 0;
    uint64_t my_bytes = 0;
    for (uint64_t i = 0; i < ops_per_thread; ++i) {
      uint64_t k = zipf.NextScrambled();
      uint64_t op_t0 = clock->Now();
      auto got = store.Get(key_for(t, k));
      if (!got.has_value() || got->size() != kValueBytes || (*got)[0] != expect) {
        errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        my_bytes += got->size();
      }
      hist.Record(clock->Now() - op_t0);
      ++my_ops;
    }
    ops.fetch_add(my_ops, std::memory_order_relaxed);
    bytes.fetch_add(my_bytes, std::memory_order_relaxed);
  });

  res.ops = ops.load();
  res.bytes = bytes.load();
  res.errors = errors.load();
  for (const obs::LatencyHistogram& h : hists) {
    res.latency.MergeFrom(h);
  }
  return res;
}

}  // namespace wl
