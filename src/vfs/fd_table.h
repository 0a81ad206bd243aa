// Reusable open-file-description table.
//
// POSIX separates file *descriptors* (small ints, per-process) from open file
// *descriptions* (offset + flags, shared after dup()). SplitFS §3.5 specifically
// handles dup() by keeping a single offset per open file and pointing descriptors at
// it; this table implements exactly that structure so every FS in the repo (and
// U-Split itself) gets correct dup()/lseek() interaction for free.
//
// Concurrency: the table is sharded by descriptor number, with one shared_mutex per
// shard — threads operating on different descriptors never touch the same shard line,
// and Get() (the data-path lookup) takes only a reader lock. Descriptor numbers come
// from a single atomic counter, so allocation order stays sequential (0/1/2 reserved,
// as in a real process) and single-threaded numbering is unchanged. dup()/close()
// races resolve the way the kernel's file table resolves them: close() removes
// exactly one descriptor, a concurrent dup() of that descriptor either observes it
// (and shares the description) or returns EBADF — never a dangling description.
#ifndef SRC_VFS_FD_TABLE_H_
#define SRC_VFS_FD_TABLE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "src/common/status.h"
#include "src/vfs/types.h"

namespace vfs {

// One open file description; shared between dup'ed descriptors.
struct OpenFile {
  Ino ino = kInvalidIno;
  int flags = 0;
  uint64_t offset = 0;  // Guarded by mu for multi-threaded cursor updates.
  std::mutex mu;
};

class FdTable {
 public:
  FdTable() = default;

  // Allocates a new fd bound to a fresh description.
  int Allocate(Ino ino, int flags) {
    int fd = next_fd_.fetch_add(1, std::memory_order_relaxed);
    auto of = std::make_shared<OpenFile>();
    of->ino = ino;
    of->flags = flags;
    Shard& s = ShardOf(fd);
    std::lock_guard<std::shared_mutex> lock(s.mu);
    s.map[fd] = std::move(of);
    return fd;
  }

  // dup(): a new fd sharing the existing description (offset included).
  int Dup(int fd) {
    std::shared_ptr<OpenFile> of = Get(fd);
    if (of == nullptr) {
      return -EBADF;
    }
    int nfd = next_fd_.fetch_add(1, std::memory_order_relaxed);
    Shard& s = ShardOf(nfd);
    std::lock_guard<std::shared_mutex> lock(s.mu);
    s.map[nfd] = std::move(of);
    return nfd;
  }

  std::shared_ptr<OpenFile> Get(int fd) const {
    if (fd < 0) {
      return nullptr;
    }
    const Shard& s = ShardOf(fd);
    std::shared_lock<std::shared_mutex> lock(s.mu);
    auto it = s.map.find(fd);
    return it == s.map.end() ? nullptr : it->second;
  }

  int Release(int fd) {
    if (fd < 0) {
      return -EBADF;
    }
    Shard& s = ShardOf(fd);
    std::lock_guard<std::shared_mutex> lock(s.mu);
    return s.map.erase(fd) == 1 ? 0 : -EBADF;
  }

  // Number of live descriptors (not descriptions).
  size_t Count() const {
    size_t n = 0;
    for (const Shard& s : shards_) {
      std::shared_lock<std::shared_mutex> lock(s.mu);
      n += s.map.size();
    }
    return n;
  }


 private:
  static constexpr size_t kShards = 8;

  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<int, std::shared_ptr<OpenFile>> map;
  };

  Shard& ShardOf(int fd) { return shards_[static_cast<size_t>(fd) % kShards]; }
  const Shard& ShardOf(int fd) const { return shards_[static_cast<size_t>(fd) % kShards]; }

  std::atomic<int> next_fd_{3};  // 0/1/2 reserved, as in a real process.
  std::array<Shard, kShards> shards_;
};

}  // namespace vfs

#endif  // SRC_VFS_FD_TABLE_H_
