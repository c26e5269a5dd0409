// Write-ahead log: every update is appended here before entering the
// memtable, so the buffer's contents survive a crash (paper Sec. 2 buffers
// all updates in memory; the WAL is the standard durability companion).
//
// Record format (one record per *write group*: the group-commit leader
// coalesces every batch in its group into a single record, so a crash
// preserves whole groups — a superset of per-batch atomicity):
//   fixed32 masked_crc(payload) | fixed32 payload_length | payload
// Payload format:
//   fixed64 first_sequence | varint32 count |
//   count x { type byte | key (length-prefixed) | value (length-prefixed,
//             puts only) }

#ifndef MONKEYDB_LSM_WAL_H_
#define MONKEYDB_LSM_WAL_H_

#include <functional>
#include <memory>
#include <string>

#include "io/env.h"
#include "lsm/internal_key.h"
#include "util/slice.h"
#include "util/status.h"

namespace monkeydb {

class MetricsRegistry;

class WalWriter {
 public:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  // Routes the fsync portion of synchronous appends into
  // Hist::kWalSyncLatency (null = no histogram; the DB only sets this on
  // the WAL proper, not the manifest, so manifest syncs are not
  // misattributed).
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  // Appends one record and flushes it to the file. If sync, fsyncs after.
  Status AddRecord(const Slice& payload, bool sync);

  Status Close() { return file_->Close(); }

 private:
  std::unique_ptr<WritableFile> file_;
  MetricsRegistry* metrics_ = nullptr;
};

class WalReader {
 public:
  explicit WalReader(std::unique_ptr<SequentialFile> file)
      : file_(std::move(file)) {}

  // Reads the next record into *payload (backed by *scratch). Returns false
  // at clean EOF or on a torn/corrupt tail (recovery stops there).
  bool ReadRecord(std::string* scratch, Slice* payload);

 private:
  std::unique_ptr<SequentialFile> file_;
};

// --- Batch payload encoding helpers ---

class WalBatch {
 public:
  explicit WalBatch(SequenceNumber first_sequence);

  void Put(const Slice& key, const Slice& value);
  void Delete(const Slice& key);
  // Records a key whose value lives in the value log; handle_encoding is
  // the serialized ValueHandle.
  void PutHandle(const Slice& key, const Slice& handle_encoding);
  // Generic form of the three above (value is ignored for deletions); the
  // group-commit leader uses it to merge heterogeneous batches.
  void Add(ValueType type, const Slice& key, const Slice& value);

  uint32_t count() const { return count_; }
  Slice payload() const { return Slice(rep_); }

  // Decodes a batch payload, invoking apply(seq, type, key, value) for each
  // entry in order. Returns Corruption on malformed payloads.
  static Status Iterate(
      const Slice& payload,
      const std::function<void(SequenceNumber, ValueType, const Slice&,
                               const Slice&)>& apply);

 private:
  std::string rep_;
  uint32_t count_ = 0;
  size_t count_offset_;
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_WAL_H_
