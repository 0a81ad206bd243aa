// NOVA baseline (Xu & Swanson, FAST'16), modeled.
//
// Design reproduced: per-inode logs on PM holding one entry per operation, per-CPU
// free-list allocation (near pointer-bump), DRAM radix tree for block lookup, and the
// two flavors the paper compares against (§3.2):
//   * NOVA-strict: copy-on-write data updates -> atomic + synchronous everything;
//   * NOVA-relaxed: in-place data updates (still logging the inode log entry first),
//     checksums off -> the PMFS-equivalent "sync" guarantee level.
// NOVA's logging writes at least two cache lines (log entry + tail pointer) and issues
// two fences per operation — the pattern SplitFS's single-line/single-fence op log is
// benchmarked against (§3.3).
#ifndef SRC_NOVA_NOVA_H_
#define SRC_NOVA_NOVA_H_

#include "src/vfs/pm_fs_base.h"

namespace novasim {

class Nova : public vfs::PmFsBase {
 public:
  // strict=true -> NOVA-strict (COW), strict=false -> NOVA-relaxed (in-place).
  Nova(pmem::Device* dev, bool strict);

  std::string Name() const override { return strict_ ? "NOVA-strict" : "NOVA-relaxed"; }
  bool strict() const { return strict_; }

 protected:
  ssize_t WriteData(BaseInode* inode, const void* buf, uint64_t n, uint64_t off) override;
  ssize_t ReadData(BaseInode* inode, void* buf, uint64_t n, uint64_t off) override;
  int SyncFile(BaseInode* inode) override;
  void OnMetadataOp(BaseInode* inode, const char* what) override;
  uint64_t OpenPathCost() const override { return ctx_->model.nova_open_path_ns; }
  uint64_t DirOpCost() const override { return ctx_->model.nova_dir_op_cpu_ns; }

 private:
  // Appends one entry to the inode's log: entry line + tail line, two fences.
  void AppendLogEntry();
  // COW write covering whole blocks; merges partial head/tail blocks from old data
  // into freshly allocated blocks. Fills `fresh_out` but does NOT install the new
  // mapping: the caller adopts it with InstallCow only after the data has persisted
  // (NOVA orders data durability before the log entry commits the new mapping).
  ssize_t WriteCow(BaseInode* inode, const void* buf, uint64_t n, uint64_t off,
                   std::vector<ext4sim::PhysExtent>* fresh_out);
  // Swaps the covered range over to `fresh`, freeing the displaced blocks.
  void InstallCow(BaseInode* inode, uint64_t off, uint64_t n,
                  const std::vector<ext4sim::PhysExtent>& fresh);

  bool strict_;
  uint64_t log_cursor_ = 0;
};

}  // namespace novasim

#endif  // SRC_NOVA_NOVA_H_
