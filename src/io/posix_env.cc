#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>

#include "io/aligned_read.h"
#include "io/env.h"
#include "obs/perf_context.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

// The leaf Env doing real syscalls feeds both halves of the calling
// thread's IOStatsContext: call/byte counts (perf level >= kCounts) and
// syscall wall time (>= kCountsAndTime). write_calls counts write(2) calls,
// not Appends (see PosixWritableFile). Don't stack CountingEnv on top of
// this one — the call counts would double.

namespace monkeydb {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) return Status::NotFound(context);
  return Status::IoError(context + ": " + strerror(err));
}

class PosixSequentialFile : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ssize_t r = ::read(fd_, scratch, n);
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, static_cast<size_t>(r));
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, static_cast<off_t>(n), SEEK_CUR) == -1) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  std::string fname_;
  int fd_;
};

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, uint64_t file_size,
                        bool direct)
      : fname_(std::move(fname)),
        fd_(fd),
        file_size_(file_size),
        direct_(direct) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    PerfTimer timer(&GetIOStatsContext()->read_nanos);
    Status s = direct_ ? DirectRead(offset, n, result, scratch)
                       : BufferedRead(offset, n, result, scratch);
    if (s.ok() && PerfCountsEnabled()) {
      IOStatsContext* io = GetIOStatsContext();
      io->read_calls++;
      io->bytes_read += result->size();
    }
    return s;
  }

  // WILLNEED hints are advisory, so issuing one twice only wastes a
  // syscall — but deep scan readahead re-hints the same window on every
  // slot refill, and past EOF the kernel just ignores the range. Clamp to
  // the file size and skip windows already fully covered by a prior hint.
  void ReadAhead(uint64_t offset, size_t n) const override {
    // Direct mode bypasses the page cache; there is nothing to stage.
    if (direct_) return;
#ifdef POSIX_FADV_WILLNEED
    if (offset >= file_size_ || n == 0) return;
    const uint64_t avail = file_size_ - offset;
    uint64_t start = offset;
    uint64_t end = offset + (n < avail ? n : avail);
    {
      MutexLock lock(hint_mu_);
      // Merge with every hinted window touching [start, end); if one of
      // them already contains it, the hint is a duplicate.
      auto it = hinted_.upper_bound(start);
      if (it != hinted_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= end) return;  // Fully covered.
        if (prev->second >= start) {
          start = prev->first;
          it = hinted_.erase(prev);
        }
      }
      while (it != hinted_.end() && it->first <= end) {
        if (it->second > end) end = it->second;
        it = hinted_.erase(it);
      }
      // Unbounded scans would otherwise grow the window map for the life
      // of the file; resetting just allows an occasional re-hint.
      if (hinted_.size() >= kMaxHintWindows) hinted_.clear();
      hinted_.emplace(start, end);
    }
    ::posix_fadvise(fd_, static_cast<off_t>(start),
                    static_cast<off_t>(end - start), POSIX_FADV_WILLNEED);
#else
    (void)offset;
    (void)n;
#endif
  }

 private:
  static constexpr size_t kMaxHintWindows = 1024;

  Status BufferedRead(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const {
    ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) return PosixError(fname_, errno);
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  // O_DIRECT read: fetch the smallest aligned window enclosing the range
  // into a bounce buffer, then copy the range out. Result is byte-identical
  // to a buffered read, including short reads at the tail.
  Status DirectRead(uint64_t offset, size_t n, Slice* result,
                    char* scratch) const {
    if (offset >= file_size_ || n == 0) {
      *result = Slice(scratch, 0);
      return Status::OK();
    }
    const uint64_t astart = AlignDown(offset);
    uint64_t window = AlignUp(offset + n) - astart;
    if (astart + window > AlignUp(file_size_)) {
      window = AlignUp(file_size_) - astart;
    }
    AlignedBufferPtr buf = AllocAligned(static_cast<size_t>(window));
    if (buf == nullptr) {
      return Status::IoError("out of memory for aligned read");
    }
    size_t filled = 0;
    while (filled < window) {
      ssize_t r = ::pread(fd_, buf.get() + filled, window - filled,
                          static_cast<off_t>(astart + filled));
      if (r < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      if (r == 0) break;  // EOF.
      filled += static_cast<size_t>(r);
    }
    const uint64_t lead = offset - astart;
    const size_t avail = filled > lead ? filled - lead : 0;
    const size_t to_copy = n < avail ? n : avail;
    memcpy(scratch, buf.get() + lead, to_copy);
    *result = Slice(scratch, to_copy);
    return Status::OK();
  }

  std::string fname_;
  int fd_;
  uint64_t file_size_;
  bool direct_;
  // Coalesced [start, end) windows already hinted via posix_fadvise.
  mutable Mutex hint_mu_;
  mutable std::map<uint64_t, uint64_t> hinted_ GUARDED_BY(hint_mu_);
};

// Appends collect in a 64 KiB user-space buffer (LevelDB's
// kWritableFileBufferSize) that reaches the kernel in one write(2) when it
// fills: an SST is appended a 4 KiB page at a time (payload, then trailer
// and padding), and a syscall per page would dominate a flush's CPU. An Append that does not fit after
// topping up the buffer goes straight to the file. Appended bytes become
// visible to readers, and survive a process exit, only after Flush, Sync or
// Close.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd)
      : fname_(std::move(fname)), fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ < 0) return;
    // monkey-lint: status-sink — best-effort flush of a file its owner
    // never closed; every caller that needs the bytes calls Flush first.
    FlushBuffer().IgnoreError();
    ::close(fd_);
  }

  Status Append(const Slice& data) override {
    const char* p = data.data();
    size_t n = data.size();
    const size_t copy = std::min(n, kBufferSize - pos_);
    memcpy(buf_ + pos_, p, copy);
    p += copy;
    n -= copy;
    pos_ += copy;
    if (n == 0) return Status::OK();

    MONKEYDB_RETURN_IF_ERROR(FlushBuffer());
    if (n < kBufferSize) {
      memcpy(buf_, p, n);
      pos_ = n;
      return Status::OK();
    }
    return WriteUnbuffered(p, n);
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    MONKEYDB_RETURN_IF_ERROR(FlushBuffer());
    PerfTimer timer(&GetIOStatsContext()->fsync_nanos);
    if (PerfCountsEnabled()) GetIOStatsContext()->fsync_calls++;
    if (::fsync(fd_) != 0) return PosixError(fname_, errno);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    Status s = FlushBuffer();
    if (::close(fd_) != 0 && s.ok()) s = PosixError(fname_, errno);
    fd_ = -1;
    return s;
  }

 private:
  static constexpr size_t kBufferSize = 64 << 10;

  Status FlushBuffer() {
    const size_t n = pos_;
    pos_ = 0;
    return WriteUnbuffered(buf_, n);
  }

  Status WriteUnbuffered(const char* p, size_t n) {
    if (n == 0) return Status::OK();
    PerfTimer timer(&GetIOStatsContext()->write_nanos);
    const bool counts = PerfCountsEnabled();
    while (n > 0) {
      ssize_t w = ::write(fd_, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return PosixError(fname_, errno);
      }
      if (counts) {
        IOStatsContext* io = GetIOStatsContext();
        io->write_calls++;
        io->bytes_written += static_cast<uint64_t>(w);
      }
      p += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  std::string fname_;
  int fd_;
  size_t pos_ = 0;  // Bytes of buf_ not yet handed to the kernel.
  char buf_[kBufferSize];
};

class PosixEnv : public Env {
 public:
  PosixEnv() = default;
  explicit PosixEnv(const EnvOptions& options) : options_(options) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixSequentialFile>(fname, fd);
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    bool direct = options_.use_direct_io;
    int flags = O_RDONLY;
#ifdef O_DIRECT
    if (direct) flags |= O_DIRECT;
#else
    direct = false;
#endif
    int fd = ::open(fname.c_str(), flags);
#ifdef O_DIRECT
    if (fd < 0 && direct && (errno == EINVAL || errno == EOPNOTSUPP)) {
      // Filesystem without O_DIRECT support (tmpfs and friends): degrade
      // to buffered reads for this file.
      direct = false;
      fd = ::open(fname.c_str(), O_RDONLY);
    }
#endif
    if (fd < 0) return PosixError(fname, errno);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      return PosixError(fname, err);
    }
    *result = std::make_unique<PosixRandomAccessFile>(
        fname, fd, static_cast<uint64_t>(st.st_size), direct);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return PosixError(fname, errno);
    *result = std::make_unique<PosixWritableFile>(fname, fd);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return PosixError(dir, errno);
    struct dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") result->push_back(name);
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) return PosixError(fname, errno);
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (::stat(fname.c_str(), &st) != 0) return PosixError(fname, errno);
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

 private:
  EnvOptions options_;
};

}  // namespace

Env* GetPosixEnv() {
  static PosixEnv* env = new PosixEnv;
  return env;
}

std::unique_ptr<Env> NewPosixEnv(const EnvOptions& options) {
  return std::make_unique<PosixEnv>(options);
}

}  // namespace monkeydb
