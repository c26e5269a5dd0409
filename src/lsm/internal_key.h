// Internal key format (LevelDB-style).
//
// Every entry in the memtable and SSTables is keyed by an *internal key*:
//   user_key | trailer(8 bytes, little-endian): (sequence << 8) | type
// Ordering: user key ascending, then sequence *descending* (so the newest
// version of a key sorts first), then type descending. Deletes are entries
// with type kTypeDeletion — the paper's "flag attached to each entry to
// indicate if it is a delete" (Sec. 2).

#ifndef MONKEYDB_LSM_INTERNAL_KEY_H_
#define MONKEYDB_LSM_INTERNAL_KEY_H_

#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/slice.h"

namespace monkeydb {

using SequenceNumber = uint64_t;

// Max sequence: 56 bits (8 reserved for the type tag).
inline constexpr SequenceNumber kMaxSequenceNumber = ((1ull << 56) - 1);

enum class ValueType : uint8_t {
  kDeletion = 0x0,
  kValue = 0x1,
  // The value field holds a ValueHandle into the value log (WiscKey-style
  // key-value separation; see lsm/value_log.h).
  kValueHandle = 0x2,
};

// Largest tag value; used when building lookup keys so the probe sorts
// before every entry of the same user key with sequence <= snapshot.
inline constexpr ValueType kValueTypeForSeek = ValueType::kValueHandle;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | static_cast<uint64_t>(t);
}

// Appends internal key (user_key + trailer) to *result.
inline void AppendInternalKey(std::string* result, const Slice& user_key,
                              SequenceNumber seq, ValueType t) {
  result->append(user_key.data(), user_key.size());
  PutFixed64(result, PackSequenceAndType(seq, t));
}

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence;
  ValueType type;
};

// Returns false if internal_key is too short to carry a trailer.
inline bool ParseInternalKey(const Slice& internal_key,
                             ParsedInternalKey* result) {
  if (internal_key.size() < 8) return false;
  const uint64_t tag = DecodeFixed64(internal_key.data() +
                                     internal_key.size() - 8);
  result->user_key = Slice(internal_key.data(), internal_key.size() - 8);
  result->sequence = tag >> 8;
  const uint8_t type_byte = static_cast<uint8_t>(tag & 0xff);
  if (type_byte > static_cast<uint8_t>(ValueType::kValueHandle)) return false;
  result->type = static_cast<ValueType>(type_byte);
  return true;
}

inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

// The engine's one key order, compiled in: user key ascending
// (unsigned-bytewise, Slice::compare), then tag (sequence|type) descending,
// so that for equal user keys the newest entry comes first. Memtables,
// blocks, fence pointers and merges all sort by it; SSTs on disk are
// written in it.
inline int CompareInternalKeys(const Slice& a, const Slice& b) {
  const int r = ExtractUserKey(a).compare(ExtractUserKey(b));
  if (r != 0) return r;
  const uint64_t atag = DecodeFixed64(a.data() + a.size() - 8);
  const uint64_t btag = DecodeFixed64(b.data() + b.size() - 8);
  return atag > btag ? -1 : (atag < btag ? +1 : 0);
}

// A lookup key: the internal key for (user_key, snapshot sequence) that
// sorts before all entries visible at that snapshot.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence) {
    AppendInternalKey(&rep_, user_key, sequence, kValueTypeForSeek);
  }

  Slice internal_key() const { return Slice(rep_); }
  Slice user_key() const { return Slice(rep_.data(), rep_.size() - 8); }

 private:
  std::string rep_;
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_INTERNAL_KEY_H_
