#include "sstable/block.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "lsm/internal_key.h"
#include "util/coding.h"

namespace monkeydb {

// --- BlockBuilder ---

BlockBuilder::BlockBuilder(int restart_interval)
    : restart_interval_(restart_interval) {
  assert(restart_interval_ >= 1);
  restarts_.push_back(0);
}

void BlockBuilder::Reset() {
  buffer_.clear();
  restarts_.clear();
  restarts_.push_back(0);
  counter_ = 0;
  finished_ = false;
  last_key_.clear();
}

size_t BlockBuilder::CurrentSizeEstimate() const {
  return buffer_.size() + restarts_.size() * sizeof(uint32_t) +
         sizeof(uint32_t);
}

namespace {

// Length of the common prefix of a and b, compared a word at a time.
size_t SharedPrefixLength(const Slice& a, const Slice& b) {
  const size_t min_length = std::min(a.size(), b.size());
  const char* x = a.data();
  const char* y = b.data();
  size_t shared = 0;
  for (; shared + 8 <= min_length; shared += 8) {
    uint64_t wx, wy;
    memcpy(&wx, x + shared, 8);
    memcpy(&wy, y + shared, 8);
    if (wx != wy) {
      const uint64_t diff = wx ^ wy;
      // The first differing byte is the lowest-addressed one.
      if constexpr (std::endian::native == std::endian::little) {
        return shared + static_cast<size_t>(__builtin_ctzll(diff)) / 8;
      } else {
        return shared + static_cast<size_t>(__builtin_clzll(diff)) / 8;
      }
    }
  }
  while (shared < min_length && x[shared] == y[shared]) shared++;
  return shared;
}

}  // namespace

void BlockBuilder::Add(const Slice& key, const Slice& value) {
  assert(!finished_);
  size_t shared = 0;
  if (counter_ < restart_interval_) {
    shared = SharedPrefixLength(Slice(last_key_), key);
  } else {
    restarts_.push_back(static_cast<uint32_t>(buffer_.size()));
    counter_ = 0;
  }
  const size_t non_shared = key.size() - shared;

  // The three varint32 lengths go out in one append (at most 5 bytes each).
  char header[15];
  char* p = EncodeVarint32(header, static_cast<uint32_t>(shared));
  p = EncodeVarint32(p, static_cast<uint32_t>(non_shared));
  p = EncodeVarint32(p, static_cast<uint32_t>(value.size()));
  buffer_.append(header, static_cast<size_t>(p - header));
  buffer_.append(key.data() + shared, non_shared);
  buffer_.append(value.data(), value.size());

  last_key_.resize(shared);
  last_key_.append(key.data() + shared, non_shared);
  counter_++;
}

Slice BlockBuilder::Finish() {
  for (uint32_t restart : restarts_) {
    PutFixed32(&buffer_, restart);
  }
  PutFixed32(&buffer_, static_cast<uint32_t>(restarts_.size()));
  finished_ = true;
  return Slice(buffer_);
}

// --- Block ---

Block::Block(std::shared_ptr<const std::string> contents)
    : contents_(std::move(contents)) {
  const std::string& c = *contents_;
  if (c.size() < sizeof(uint32_t)) return;
  num_restarts_ = DecodeFixed32(c.data() + c.size() - sizeof(uint32_t));
  const size_t restart_array_bytes =
      (static_cast<size_t>(num_restarts_) + 1) * sizeof(uint32_t);
  if (restart_array_bytes > c.size()) return;
  data_ = c.data();
  data_size_ = c.size() - restart_array_bytes;
  restarts_ = c.data() + data_size_;
  // The builder always writes at least one restart. Entries without one
  // cannot be sought or walked backwards (Prev would start at restart
  // num_restarts_ - 1), so such a block is corrupt.
  ok_ = num_restarts_ > 0 || data_size_ == 0;
}

namespace {

class BlockIterator : public Iterator {
 public:
  BlockIterator(const char* data, size_t data_size, const char* restarts,
                uint32_t num_restarts,
                std::shared_ptr<const std::string> owner)
      : data_(data),
        data_size_(data_size),
        restarts_(restarts),
        num_restarts_(num_restarts),
        owner_(std::move(owner)),
        current_(data_size) {}

  bool Valid() const override { return current_ < data_size_; }

  void SeekToFirst() override {
    SeekToRestartPoint(0);
    ParseNextKey();
  }

  void SeekToLast() override {
    SeekToRestartPoint(num_restarts_ == 0 ? 0 : num_restarts_ - 1);
    while (ParseNextKey() && next_offset_ < data_size_) {
      // Keep advancing to the last entry.
    }
  }

  void Seek(const Slice& target) override {
    // Binary search over restart points: find the last restart whose key is
    // < target, then scan forward.
    uint32_t left = 0;
    uint32_t right = (num_restarts_ == 0) ? 0 : num_restarts_ - 1;
    while (left < right) {
      const uint32_t mid = (left + right + 1) / 2;
      Slice mid_key;
      if (!KeyAtRestart(mid, &mid_key)) {
        Corrupt();
        return;
      }
      if (CompareInternalKeys(mid_key, target) < 0) {
        left = mid;
      } else {
        right = mid - 1;
      }
    }
    SeekToRestartPoint(left);
    while (ParseNextKey()) {
      if (CompareInternalKeys(Slice(key_), target) >= 0) return;
    }
  }

  void Next() override {
    assert(Valid());
    ParseNextKey();
  }

  void Prev() override {
    assert(Valid());
    // Find the restart point strictly before current_, then scan to the
    // entry preceding current_.
    const size_t original = current_;
    uint32_t restart_index = num_restarts_ - 1;
    while (restart_index > 0 && RestartOffset(restart_index) >= original) {
      restart_index--;
    }
    if (RestartOffset(restart_index) >= original) {
      current_ = data_size_;  // Before the first entry: invalidate.
      key_.clear();
      return;
    }
    SeekToRestartPoint(restart_index);
    while (true) {
      const size_t entry_start = next_offset_;
      if (!ParseNextKey()) return;
      if (next_offset_ >= original) {
        current_ = entry_start;
        return;
      }
    }
  }

  Slice key() const override {
    assert(Valid());
    return Slice(key_);
  }

  Slice value() const override {
    assert(Valid());
    return value_;
  }

  Status status() const override { return status_; }

 private:
  size_t RestartOffset(uint32_t index) const {
    return DecodeFixed32(restarts_ + index * sizeof(uint32_t));
  }

  void SeekToRestartPoint(uint32_t index) {
    key_.clear();
    next_offset_ = (num_restarts_ == 0) ? 0 : RestartOffset(index);
    current_ = data_size_;
    value_ = Slice();
  }

  // Decodes a full key at a restart point without disturbing the cursor.
  bool KeyAtRestart(uint32_t index, Slice* out) {
    const char* p = data_ + RestartOffset(index);
    const char* limit = data_ + data_size_;
    uint32_t shared, non_shared, value_len;
    p = GetVarint32Ptr(p, limit, &shared);
    if (p == nullptr || shared != 0) return false;
    p = GetVarint32Ptr(p, limit, &non_shared);
    if (p == nullptr) return false;
    p = GetVarint32Ptr(p, limit, &value_len);
    if (p == nullptr || p + non_shared > limit) return false;
    *out = Slice(p, non_shared);
    return true;
  }

  // Parses the entry at next_offset_ into key_/value_ and advances. Returns
  // false (and invalidates) at end of block or on corruption.
  bool ParseNextKey() {
    current_ = next_offset_;
    if (current_ >= data_size_) {
      key_.clear();
      value_ = Slice();
      current_ = data_size_;
      return false;
    }
    const char* p = data_ + current_;
    const char* limit = data_ + data_size_;
    uint32_t shared, non_shared, value_len;
    p = GetVarint32Ptr(p, limit, &shared);
    if (p) p = GetVarint32Ptr(p, limit, &non_shared);
    if (p) p = GetVarint32Ptr(p, limit, &value_len);
    if (p == nullptr || p + non_shared + value_len > limit ||
        shared > key_.size()) {
      Corrupt();
      return false;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_len);
    next_offset_ = (p + non_shared + value_len) - data_;
    return true;
  }

  void Corrupt() {
    status_ = Status::Corruption("malformed block entry");
    current_ = data_size_;
    key_.clear();
  }

  const char* data_;
  size_t data_size_;
  const char* restarts_;
  uint32_t num_restarts_;
  std::shared_ptr<const std::string> owner_;  // Keeps the payload alive.

  size_t current_;       // Offset of current entry (data_size_ = invalid).
  size_t next_offset_ = 0;
  std::string key_;
  Slice value_;
  Status status_;
};

class ErrorIterator : public Iterator {
 public:
  explicit ErrorIterator(Status s) : status_(std::move(s)) {}
  bool Valid() const override { return false; }
  void SeekToFirst() override {}
  void SeekToLast() override {}
  void Seek(const Slice&) override {}
  void Next() override {}
  void Prev() override {}
  Slice key() const override { return Slice(); }
  Slice value() const override { return Slice(); }
  Status status() const override { return status_; }

 private:
  Status status_;
};

}  // namespace

std::unique_ptr<Iterator> Block::NewIterator() const {
  if (!ok_) {
    return std::make_unique<ErrorIterator>(
        Status::Corruption("malformed block"));
  }
  return std::make_unique<BlockIterator>(data_, data_size_, restarts_,
                                         num_restarts_, contents_);
}

}  // namespace monkeydb
