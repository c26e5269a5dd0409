// WriteBatch: a group of updates applied atomically — they share one WAL
// record, so after a crash either all of them or none of them survive.
//
// Every op's key and value bytes are appended to one string, and an index
// records each op's type and where its bytes start, so adding an op costs
// no allocation beyond the amortized growth of those two buffers.

#ifndef MONKEYDB_LSM_WRITE_BATCH_H_
#define MONKEYDB_LSM_WRITE_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/internal_key.h"
#include "util/slice.h"

namespace monkeydb {

class WriteBatch {
 public:
  WriteBatch() = default;

  void Put(const Slice& key, const Slice& value) {
    Add(ValueType::kValue, key, value);
  }

  void Delete(const Slice& key) { Add(ValueType::kDeletion, key, Slice()); }

  void Clear() {
    rep_.clear();
    index_.clear();
  }

  size_t count() const { return index_.size(); }

  // Rough WAL payload footprint of this batch; the group-commit leader uses
  // it to cap how many follower batches join one write group.
  size_t approximate_bytes() const {
    return rep_.size() + index_.size() * kPerOpOverhead;
  }

  // Internal: the i-th recorded operation, in order. The slices point into
  // the batch and stay valid until it is next modified or destroyed.
  ValueType type(size_t i) const { return index_[i].type; }
  Slice key(size_t i) const {
    return Slice(rep_.data() + index_[i].offset, index_[i].key_size);
  }
  Slice value(size_t i) const {
    const Entry& e = index_[i];
    return Slice(rep_.data() + e.offset + e.key_size, e.value_size);
  }

 private:
  // Type byte plus two varint length prefixes, conservatively.
  static constexpr size_t kPerOpOverhead = 8;

  struct Entry {
    size_t offset;  // Of the key in rep_; the value follows it.
    size_t key_size;
    size_t value_size;
    ValueType type;
  };

  void Add(ValueType type, const Slice& key, const Slice& value) {
    index_.push_back(Entry{rep_.size(), key.size(), value.size(), type});
    rep_.append(key.data(), key.size());
    rep_.append(value.data(), value.size());
  }

  std::string rep_;
  std::vector<Entry> index_;
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_WRITE_BATCH_H_
