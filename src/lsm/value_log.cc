#include "lsm/value_log.h"

#include <cstdlib>
#include <memory>
#include <vector>

#include "util/hash.h"

namespace monkeydb {

std::string ValueLog::FileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/vlog-%06llu.data",
           static_cast<unsigned long long>(number));
  return dir_ + buf;
}

// monkey-lint: io-under-mutex(fn) — pre-publication init: the log object
// escapes only on success, so mu_ is uncontended and held for the
// GUARDED_BY contracts alone.
Status ValueLog::Open(Env* env, const std::string& dbname,
                      std::unique_ptr<ValueLog>* log) {
  auto vlog = std::unique_ptr<ValueLog>(new ValueLog(env, dbname));

  // Continue numbering above any existing log files (their contents stay
  // readable via the handles already persisted in the tree).
  std::vector<std::string> children;
  // monkey-lint: status-sink — a fresh directory has nothing to list;
  // numbering then simply restarts at 1, which is correct.
  env->GetChildren(dbname, &children).IgnoreError();
  uint64_t max_number = 0;
  for (const std::string& child : children) {
    unsigned long long number;
    if (sscanf(child.c_str(), "vlog-%llu.data", &number) == 1) {
      max_number = std::max<uint64_t>(max_number, number);
    }
  }
  {
    // Pre-publication init; the lock is uncontended but keeps the
    // GUARDED_BY contract checkable.
    MutexLock lock(vlog->mu_);
    vlog->active_number_ = max_number + 1;
    MONKEYDB_RETURN_IF_ERROR(env->NewWritableFile(
        vlog->FileName(vlog->active_number_), &vlog->active_));
  }
  *log = std::move(vlog);
  return Status::OK();
}

// monkey-lint: io-under-mutex(fn) — the value log is a single append-only
// file: mu_ is what orders records and makes handle offsets correct, so
// the append (and requested sync) happen under it by design. Concurrency
// comes from the group-commit layer above, and ReaderFor keeps reads off
// this lock.
Status ValueLog::Add(const Slice& value, bool sync, ValueHandle* handle) {
  MutexLock lock(mu_);
  char header[8];
  EncodeFixed32(header, MaskCrc(Crc32c(value.data(), value.size())));
  EncodeFixed32(header + 4, static_cast<uint32_t>(value.size()));

  handle->file_number = active_number_;
  handle->offset = active_offset_;
  handle->size = static_cast<uint32_t>(value.size());

  MONKEYDB_RETURN_IF_ERROR(active_->Append(Slice(header, sizeof(header))));
  MONKEYDB_RETURN_IF_ERROR(active_->Append(value));
  // Get preads the active file through its own descriptor, so the record
  // must be in the kernel before its handle is handed out.
  // monkey-lint: lock-order — WritableFile::Flush takes no lock; by name
  // alone the call graph also reaches DB::Flush, which takes DB::mu_.
  MONKEYDB_RETURN_IF_ERROR(active_->Flush());
  if (sync) MONKEYDB_RETURN_IF_ERROR(active_->Sync());
  active_offset_ += sizeof(header) + value.size();
  bytes_appended_ += sizeof(header) + value.size();
  return Status::OK();
}

Status ValueLog::ReaderFor(uint64_t number,
                           std::shared_ptr<RandomAccessFile>* reader) {
  {
    MutexLock lock(mu_);
    auto it = readers_.find(number);
    if (it != readers_.end()) {
      *reader = it->second;
      return Status::OK();
    }
  }
  // Cache miss: open with mu_ released. The open is a syscall, and mu_ is
  // the append lock — holding it here would park every writer (and, worse,
  // every Add's fsync would park this reader) behind a file open. Racing
  // misses both open the file; the first to re-acquire wins and the loser
  // adopts the cached reader, dropping its own.
  std::unique_ptr<RandomAccessFile> file;
  MONKEYDB_RETURN_IF_ERROR(env_->NewRandomAccessFile(FileName(number),
                                                     &file));
  auto shared = std::shared_ptr<RandomAccessFile>(std::move(file));
  MutexLock lock(mu_);
  auto inserted = readers_.emplace(number, shared);
  *reader = inserted.second ? shared : inserted.first->second;
  return Status::OK();
}

Status ValueLog::Get(const ValueHandle& handle, std::string* value) {
  std::shared_ptr<RandomAccessFile> reader;
  // Reading from the active file requires its appended bytes to be
  // visible; Add flushes every record before returning its handle.
  MONKEYDB_RETURN_IF_ERROR(ReaderFor(handle.file_number, &reader));

  const size_t n = 8 + handle.size;
  auto scratch = std::make_unique<char[]>(n);
  Slice result;
  MONKEYDB_RETURN_IF_ERROR(
      reader->Read(handle.offset, n, &result, scratch.get()));
  if (result.size() != n) {
    return Status::Corruption("short value-log read");
  }
  const uint32_t expected_crc = UnmaskCrc(DecodeFixed32(result.data()));
  const uint32_t stored_size = DecodeFixed32(result.data() + 4);
  if (stored_size != handle.size) {
    return Status::Corruption("value-log size mismatch");
  }
  if (Crc32c(result.data() + 8, handle.size) != expected_crc) {
    return Status::Corruption("value-log checksum mismatch");
  }
  value->assign(result.data() + 8, handle.size);
  return Status::OK();
}

}  // namespace monkeydb
