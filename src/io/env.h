// Env: the storage-environment abstraction.
//
// All file access in MonkeyDB flows through an Env so experiments can run on
// (a) the real filesystem (PosixEnv), (b) a deterministic in-memory
// filesystem (MemEnv), or (c) an instrumented decorator (CountingEnv, see
// counting_env.h) that measures disk I/Os at page granularity — the unit the
// paper's cost models are expressed in.

#ifndef MONKEYDB_IO_ENV_H_
#define MONKEYDB_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace monkeydb {

// Sequential read-only file (WAL/manifest recovery).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  // Reads up to n bytes. *result points into scratch (which must have room
  // for n bytes) or into internal storage. Short reads indicate EOF.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;

  virtual Status Skip(uint64_t n) = 0;
};

// One element of a batched random-access read. The caller owns scratch
// (which must have room for n bytes); on completion result points into
// scratch and status holds the per-request outcome. Short results indicate
// EOF, exactly as with RandomAccessFile::Read.
struct ReadRequest {
  uint64_t offset = 0;
  size_t n = 0;
  char* scratch = nullptr;
  Slice result;
  Status status;
};

// Random-access read-only file (SSTables).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  // Reads up to n bytes starting at offset. Thread-safe.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  // Batched read: completes every request before returning, filling each
  // request's result and status. The default implementation is a loop of
  // Read() calls — one syscall (or simulated device access) per request —
  // so every file supports the interface; backends that can hand the whole
  // batch to the device at once (UringEnv: one io_uring_enter for the
  // entire span) override it and return true from SupportsReadBatch().
  // Thread-safe; requests may target overlapping ranges.
  virtual Status ReadBatch(ReadRequest* reqs, size_t count) const {
    for (size_t i = 0; i < count; i++) {
      reqs[i].status =
          Read(reqs[i].offset, reqs[i].n, &reqs[i].result, reqs[i].scratch);
    }
    return Status::OK();
  }

  // True iff ReadBatch submits the batch as one unit (amortizing one
  // syscall over the span) rather than looping over Read. Callers use this
  // to decide between the batched fetch plan and per-block fan-out, and
  // instrumentation layers (CountingEnv) use it to count syscalls
  // faithfully.
  virtual bool SupportsReadBatch() const { return false; }

  // Asynchronous-read hint: [offset, offset + n) will be read soon, so the
  // device can start the transfer now and overlap it with whatever the
  // caller does in the meantime (an NVMe queue at depth > 1). Thread-safe,
  // fire-and-forget, never fails; a subsequent Read of the range returns
  // the data as usual, just (on devices that honor the hint) with the
  // already-elapsed transfer time deducted from its latency. Default:
  // no-op. PosixEnv forwards to posix_fadvise(WILLNEED) — clamped to the
  // file size and deduplicated against already-hinted windows; LatencyEnv
  // timestamps the hint and charges only the remaining latency.
  virtual void ReadAhead(uint64_t offset, size_t n) const {}
};

// Append-only writable file (SSTable building, WAL, manifest). Append may
// buffer in user space: appended bytes are visible to readers, and survive
// a process exit, only after Flush, Sync or Close. Sync also makes them
// durable against power loss.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  // Fills *result with the names (not paths) of the children of dir.
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;
};

// Which real-filesystem I/O backend a DB opened without an explicit Env
// uses (DbOptions::io_backend). kUring falls back to kPosix automatically
// when io_uring is unavailable at runtime.
enum class IoBackend { kPosix, kUring };

// Backend construction knobs shared by PosixEnv and UringEnv factories.
struct EnvOptions {
  // Open SSTable (random-access) files with O_DIRECT and perform aligned
  // reads, bypassing the OS page cache so the BlockCache is the cache
  // being measured. Filesystems that reject O_DIRECT (tmpfs) fall back to
  // buffered reads per file, counted in the backend's stats.
  bool use_direct_io = false;
};

// Process-wide POSIX environment singleton. Do not delete.
Env* GetPosixEnv();

// A PosixEnv with non-default options (use_direct_io). The caller owns it.
std::unique_ptr<Env> NewPosixEnv(const EnvOptions& options);

// Creates a fresh, empty in-memory environment. Deterministic and fast;
// the default substrate for tests and I/O-count experiments.
std::unique_ptr<Env> NewMemEnv();

}  // namespace monkeydb

#endif  // MONKEYDB_IO_ENV_H_
