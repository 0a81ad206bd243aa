#include "src/core/posix_api.h"

#include <cerrno>
#include <cstring>

namespace splitfs {

namespace {
constexpr size_t kStdioBufBytes = 4096;

void SetErrno(int negated_errno) { errno = -negated_errno; }
}  // namespace

int Posix::TranslateFlags(int oflag) {
  int flags = 0;
  switch (oflag & O_ACCMODE) {
    case O_RDONLY:
      flags |= vfs::kRdOnly;
      break;
    case O_WRONLY:
      flags |= vfs::kWrOnly;
      break;
    case O_RDWR:
      flags |= vfs::kRdWr;
      break;
    default:
      return -1;
  }
  if (oflag & O_CREAT) {
    flags |= vfs::kCreate;
  }
  if (oflag & O_EXCL) {
    flags |= vfs::kExcl;
  }
  if (oflag & O_TRUNC) {
    flags |= vfs::kTrunc;
  }
  if (oflag & O_APPEND) {
    flags |= vfs::kAppend;
  }
  return flags;
}

int Posix::open(const char* path, int oflag, mode_t /*mode*/) {
  int flags = TranslateFlags(oflag);
  if (flags < 0) {
    errno = EINVAL;
    return -1;
  }
  if (oflag & O_DIRECTORY) {
    // Directory handle: remember the path for *at() resolution.
    vfs::StatBuf st;
    int rc = fs_->Stat(path, &st);
    if (rc != 0) {
      SetErrno(rc);
      return -1;
    }
    if (st.type != vfs::FileType::kDirectory) {
      errno = ENOTDIR;
      return -1;
    }
    std::lock_guard<std::mutex> lock(mu_);
    int fd = next_dir_fd_++;
    dir_fds_[fd] = path;
    return fd;
  }
  int fd = fs_->Open(path, flags);
  if (fd < 0) {
    SetErrno(fd);
    return -1;
  }
  return fd;
}

int Posix::openat(int dirfd, const char* path, int oflag, mode_t mode) {
  if (path[0] == '/' || dirfd == AT_FDCWD) {
    return open(path, oflag, mode);
  }
  std::string base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dir_fds_.find(dirfd);
    if (it == dir_fds_.end()) {
      errno = EBADF;
      return -1;
    }
    base = it->second;
  }
  return open((base + "/" + path).c_str(), oflag, mode);
}

int Posix::close(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dir_fds_.erase(fd) == 1) {
      return 0;
    }
  }
  int rc = fs_->Close(fd);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

int Posix::dup(int fd) {
  int rc = fs_->Dup(fd);
  if (rc < 0) {
    SetErrno(rc);
    return -1;
  }
  return rc;
}

ssize_t Posix::read(int fd, void* buf, size_t n) {
  ssize_t rc = fs_->Read(fd, buf, n);
  if (rc < 0) {
    SetErrno(static_cast<int>(rc));
    return -1;
  }
  return rc;
}

ssize_t Posix::write(int fd, const void* buf, size_t n) {
  ssize_t rc = fs_->Write(fd, buf, n);
  if (rc < 0) {
    SetErrno(static_cast<int>(rc));
    return -1;
  }
  return rc;
}

ssize_t Posix::pread(int fd, void* buf, size_t n, off_t off) {
  if (off < 0) {
    errno = EINVAL;
    return -1;
  }
  ssize_t rc = fs_->Pread(fd, buf, n, static_cast<uint64_t>(off));
  if (rc < 0) {
    SetErrno(static_cast<int>(rc));
    return -1;
  }
  return rc;
}

ssize_t Posix::pwrite(int fd, const void* buf, size_t n, off_t off) {
  if (off < 0) {
    errno = EINVAL;
    return -1;
  }
  ssize_t rc = fs_->Pwrite(fd, buf, n, static_cast<uint64_t>(off));
  if (rc < 0) {
    SetErrno(static_cast<int>(rc));
    return -1;
  }
  return rc;
}

ssize_t Posix::readv(int fd, const struct iovec* iov, int iovcnt) {
  ssize_t total = 0;
  for (int i = 0; i < iovcnt; ++i) {
    ssize_t rc = read(fd, iov[i].iov_base, iov[i].iov_len);
    if (rc < 0) {
      return total > 0 ? total : -1;
    }
    total += rc;
    if (static_cast<size_t>(rc) < iov[i].iov_len) {
      break;  // Short read: EOF.
    }
  }
  return total;
}

ssize_t Posix::writev(int fd, const struct iovec* iov, int iovcnt) {
  ssize_t total = 0;
  for (int i = 0; i < iovcnt; ++i) {
    ssize_t rc = write(fd, iov[i].iov_base, iov[i].iov_len);
    if (rc < 0) {
      return total > 0 ? total : -1;
    }
    total += rc;
  }
  return total;
}

off_t Posix::lseek(int fd, off_t off, int whence) {
  vfs::Whence w;
  switch (whence) {
    case SEEK_SET:
      w = vfs::Whence::kSet;
      break;
    case SEEK_CUR:
      w = vfs::Whence::kCur;
      break;
    case SEEK_END:
      w = vfs::Whence::kEnd;
      break;
    default:
      errno = EINVAL;
      return -1;
  }
  int64_t rc = fs_->Lseek(fd, off, w);
  if (rc < 0) {
    SetErrno(static_cast<int>(rc));
    return -1;
  }
  return static_cast<off_t>(rc);
}

int Posix::fsync(int fd) {
  int rc = fs_->Fsync(fd);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

int Posix::ftruncate(int fd, off_t length) {
  if (length < 0) {
    errno = EINVAL;
    return -1;
  }
  int rc = fs_->Ftruncate(fd, static_cast<uint64_t>(length));
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

int Posix::fallocate(int fd, int mode, off_t off, off_t len) {
  if (off < 0 || len <= 0) {
    errno = EINVAL;
    return -1;
  }
  bool keep_size = (mode & 0x01) != 0;  // FALLOC_FL_KEEP_SIZE.
  int rc = fs_->Fallocate(fd, static_cast<uint64_t>(off), static_cast<uint64_t>(len),
                          keep_size);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

namespace {
void FillStat(const vfs::StatBuf& in, struct stat* st) {
  std::memset(st, 0, sizeof(*st));
  st->st_ino = in.ino;
  st->st_size = static_cast<off_t>(in.size);
  st->st_blocks = static_cast<blkcnt_t>(in.blocks * 8);  // 512 B units.
  st->st_blksize = 4096;
  st->st_nlink = in.nlink;
  st->st_mode = (in.type == vfs::FileType::kDirectory ? S_IFDIR : S_IFREG) | in.mode;
}
}  // namespace

int Posix::fstat(int fd, struct stat* st) {
  vfs::StatBuf sb;
  int rc = fs_->Fstat(fd, &sb);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  FillStat(sb, st);
  return 0;
}

int Posix::stat(const char* path, struct stat* st) {
  vfs::StatBuf sb;
  int rc = fs_->Stat(path, &sb);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  FillStat(sb, st);
  return 0;
}

int Posix::access(const char* path, int /*amode*/) {
  vfs::StatBuf sb;
  int rc = fs_->Stat(path, &sb);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;  // Single-user model: existence implies access.
}

int Posix::unlink(const char* path) {
  int rc = fs_->Unlink(path);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

int Posix::unlinkat(int dirfd, const char* path, int flags) {
  std::string full = path;
  if (path[0] != '/' && dirfd != AT_FDCWD) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = dir_fds_.find(dirfd);
    if (it == dir_fds_.end()) {
      errno = EBADF;
      return -1;
    }
    full = it->second + "/" + path;
  }
  int rc = (flags & AT_REMOVEDIR) != 0 ? fs_->Rmdir(full) : fs_->Unlink(full);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

int Posix::rename(const char* from, const char* to) {
  int rc = fs_->Rename(from, to);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

int Posix::mkdir(const char* path, mode_t /*mode*/) {
  int rc = fs_->Mkdir(path);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

int Posix::rmdir(const char* path) {
  int rc = fs_->Rmdir(path);
  if (rc != 0) {
    SetErrno(rc);
    return -1;
  }
  return 0;
}

// --- stdio-style streams ---------------------------------------------------------------

PosixFile* Posix::fopen(const char* path, const char* mode) {
  int oflag;
  bool writable, append = false;
  if (std::strcmp(mode, "r") == 0 || std::strcmp(mode, "rb") == 0) {
    oflag = O_RDONLY;
    writable = false;
  } else if (std::strcmp(mode, "r+") == 0 || std::strcmp(mode, "rb+") == 0 ||
             std::strcmp(mode, "r+b") == 0) {
    oflag = O_RDWR;
    writable = true;
  } else if (std::strcmp(mode, "w") == 0 || std::strcmp(mode, "wb") == 0) {
    oflag = O_RDWR | O_CREAT | O_TRUNC;
    writable = true;
  } else if (std::strcmp(mode, "a") == 0 || std::strcmp(mode, "ab") == 0) {
    oflag = O_RDWR | O_CREAT | O_APPEND;
    writable = true;
    append = true;
  } else {
    errno = EINVAL;
    return nullptr;
  }
  int fd = open(path, oflag);
  if (fd < 0) {
    return nullptr;
  }
  auto stream = std::make_unique<PosixFile>();
  stream->owner = this;
  stream->fd = fd;
  stream->writable = writable;
  stream->append = append;
  stream->wbuf.reserve(kStdioBufBytes);
  PosixFile* raw = stream.get();
  std::lock_guard<std::mutex> lock(mu_);
  streams_.push_back(std::move(stream));
  return raw;
}

size_t Posix::fwrite(const void* ptr, size_t size, size_t nmemb, PosixFile* stream) {
  if (stream == nullptr || !stream->writable) {
    return 0;
  }
  std::lock_guard<std::mutex> slock(stream->mu);
  size_t bytes = size * nmemb;
  const auto* src = static_cast<const uint8_t*>(ptr);
  // Block-buffered: flush whenever the buffer fills (stdio semantics).
  size_t written = 0;
  while (written < bytes) {
    size_t room = kStdioBufBytes - stream->wbuf.size();
    size_t take = std::min(room, bytes - written);
    stream->wbuf.insert(stream->wbuf.end(), src + written, src + written + take);
    written += take;
    if (stream->wbuf.size() == kStdioBufBytes) {
      if (FlushLocked(stream) != 0) {
        return written / size;
      }
    }
  }
  return nmemb;
}

size_t Posix::fread(void* ptr, size_t size, size_t nmemb, PosixFile* stream) {
  if (stream == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> slock(stream->mu);
  if (FlushLocked(stream) != 0) {  // Write-then-read consistency.
    return 0;
  }
  ssize_t rc = read(stream->fd, ptr, size * nmemb);
  if (rc < 0) {
    stream->failed = true;
    return 0;
  }
  return static_cast<size_t>(rc) / size;
}

int Posix::FlushLocked(PosixFile* stream) {
  if (stream->wbuf.empty()) {
    return 0;
  }
  ssize_t rc = write(stream->fd, stream->wbuf.data(), stream->wbuf.size());
  if (rc != static_cast<ssize_t>(stream->wbuf.size())) {
    stream->failed = true;
    return EOF;
  }
  stream->wbuf.clear();
  return 0;
}

int Posix::fflush(PosixFile* stream) {
  if (stream == nullptr) {
    return 0;
  }
  std::lock_guard<std::mutex> slock(stream->mu);
  return FlushLocked(stream);
}

int Posix::fseek(PosixFile* stream, long off, int whence) {
  if (stream == nullptr) {
    return -1;
  }
  std::lock_guard<std::mutex> slock(stream->mu);
  if (FlushLocked(stream) != 0) {
    return -1;
  }
  return lseek(stream->fd, off, whence) < 0 ? -1 : 0;
}

long Posix::ftell(PosixFile* stream) {
  if (stream == nullptr) {
    return -1;
  }
  std::lock_guard<std::mutex> slock(stream->mu);
  off_t pos = lseek(stream->fd, 0, SEEK_CUR);
  if (pos < 0) {
    return -1;
  }
  return static_cast<long>(pos) + static_cast<long>(stream->wbuf.size());
}

int Posix::fileno(PosixFile* stream) { return stream == nullptr ? -1 : stream->fd; }

int Posix::fclose(PosixFile* stream) {
  if (stream == nullptr) {
    return EOF;
  }
  int rc;
  int crc;
  {
    std::lock_guard<std::mutex> slock(stream->mu);
    rc = FlushLocked(stream);
    crc = close(stream->fd);
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(streams_, [stream](const auto& s) { return s.get() == stream; });
  return rc != 0 || crc != 0 ? EOF : 0;
}

}  // namespace splitfs
