#include "lsm/wal.h"

#include "obs/metrics.h"
#include "obs/perf_context.h"
#include "util/coding.h"
#include "util/hash.h"

namespace monkeydb {

Status WalWriter::AddRecord(const Slice& payload, bool sync) {
  char header[8];
  EncodeFixed32(header, MaskCrc(Crc32c(payload.data(), payload.size())));
  EncodeFixed32(header + 4, static_cast<uint32_t>(payload.size()));
  MONKEYDB_RETURN_IF_ERROR(file_->Append(Slice(header, sizeof(header))));
  MONKEYDB_RETURN_IF_ERROR(file_->Append(payload));
  // Every record reaches the kernel before it is acknowledged, so a
  // process exit never loses it and the buffer is empty between records.
  MONKEYDB_RETURN_IF_ERROR(file_->Flush());
  if (sync) {
    StopWatch watch(metrics_, Hist::kWalSyncLatency);
    PerfTimer timer(&GetPerfContext()->wal_sync_nanos);
    return file_->Sync();
  }
  return Status::OK();
}

bool WalReader::ReadRecord(std::string* scratch, Slice* payload) {
  char header[8];
  Slice header_slice;
  if (!file_->Read(8, &header_slice, header).ok() ||
      header_slice.size() < 8) {
    return false;  // Clean EOF (or torn header: stop recovery here).
  }
  const uint32_t expected_crc = UnmaskCrc(DecodeFixed32(header_slice.data()));
  const uint32_t length = DecodeFixed32(header_slice.data() + 4);
  // A garbage header can claim a multi-GB record; bound the allocation so a
  // torn tail is detected cheaply. No legitimate record approaches this.
  constexpr uint32_t kMaxRecordBytes = 256u << 20;
  if (length > kMaxRecordBytes) return false;

  scratch->resize(length);
  Slice body;
  if (!file_->Read(length, &body, scratch->data()).ok() ||
      body.size() < length) {
    return false;  // Torn record.
  }
  if (Crc32c(body.data(), body.size()) != expected_crc) {
    return false;  // Corrupt tail.
  }
  *payload = body;
  return true;
}

WalBatch::WalBatch(SequenceNumber first_sequence) {
  PutFixed64(&rep_, first_sequence);
  count_offset_ = rep_.size();
  PutFixed32(&rep_, 0);  // Patched by count updates below.
}

void WalBatch::Put(const Slice& key, const Slice& value) {
  rep_.push_back(static_cast<char>(ValueType::kValue));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
  count_++;
  EncodeFixed32(rep_.data() + count_offset_, count_);
}

void WalBatch::PutHandle(const Slice& key, const Slice& handle_encoding) {
  rep_.push_back(static_cast<char>(ValueType::kValueHandle));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, handle_encoding);
  count_++;
  EncodeFixed32(rep_.data() + count_offset_, count_);
}

void WalBatch::Delete(const Slice& key) {
  rep_.push_back(static_cast<char>(ValueType::kDeletion));
  PutLengthPrefixedSlice(&rep_, key);
  count_++;
  EncodeFixed32(rep_.data() + count_offset_, count_);
}

void WalBatch::Add(ValueType type, const Slice& key, const Slice& value) {
  switch (type) {
    case ValueType::kValue:
      Put(key, value);
      break;
    case ValueType::kValueHandle:
      PutHandle(key, value);
      break;
    case ValueType::kDeletion:
      Delete(key);
      break;
  }
}

Status WalBatch::Iterate(
    const Slice& payload,
    const std::function<void(SequenceNumber, ValueType, const Slice&,
                             const Slice&)>& apply) {
  Slice input = payload;
  if (input.size() < 12) return Status::Corruption("wal batch too short");
  const SequenceNumber first_seq = DecodeFixed64(input.data());
  input.remove_prefix(8);
  const uint32_t count = DecodeFixed32(input.data());
  input.remove_prefix(4);

  for (uint32_t i = 0; i < count; i++) {
    if (input.empty()) return Status::Corruption("wal batch truncated");
    const uint8_t type_byte = static_cast<uint8_t>(input[0]);
    input.remove_prefix(1);
    if (type_byte > static_cast<uint8_t>(ValueType::kValueHandle)) {
      return Status::Corruption("bad wal entry type");
    }
    const ValueType type = static_cast<ValueType>(type_byte);
    Slice key, value;
    if (!GetLengthPrefixedSlice(&input, &key)) {
      return Status::Corruption("bad wal key");
    }
    if (type != ValueType::kDeletion &&
        !GetLengthPrefixedSlice(&input, &value)) {
      return Status::Corruption("bad wal value");
    }
    apply(first_seq + i, type, key, value);
  }
  if (!input.empty()) return Status::Corruption("trailing wal bytes");
  return Status::OK();
}

}  // namespace monkeydb
