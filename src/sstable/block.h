// Data/index block format with prefix compression and restart points
// (LevelDB-style):
//
//   entry:   varint32 shared | varint32 non_shared | varint32 value_len
//            | key delta bytes | value bytes
//   trailer: fixed32 restart_offset[num_restarts] | fixed32 num_restarts
//
// Every kRestartInterval-th entry stores the full key; Seek binary-searches
// the restart array then scans forward.

#ifndef MONKEYDB_SSTABLE_BLOCK_H_
#define MONKEYDB_SSTABLE_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/iterator.h"
#include "util/slice.h"

namespace monkeydb {

class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval = 16);

  BlockBuilder(const BlockBuilder&) = delete;
  BlockBuilder& operator=(const BlockBuilder&) = delete;

  // Adds an entry. REQUIRES: key > all previously added keys.
  void Add(const Slice& key, const Slice& value);

  // Returns the finished block payload and leaves the builder unusable
  // until Reset().
  Slice Finish();

  void Reset();

  // Estimated size of the block being built (including trailer).
  size_t CurrentSizeEstimate() const;

  bool empty() const { return buffer_.empty(); }

 private:
  const int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_ = 0;          // Entries since last restart.
  bool finished_ = false;
  std::string last_key_;
};

// An immutable, parsed block supporting iteration. The block owns its
// contents (or shares them via shared_ptr with a block cache).
class Block {
 public:
  // Takes shared ownership of the payload bytes.
  explicit Block(std::shared_ptr<const std::string> contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return data_size_; }
  bool ok() const { return ok_; }

  // Iterates the block's internal keys, which are in CompareInternalKeys
  // order. A block that failed to parse yields an iterator that reports
  // Corruption.
  std::unique_ptr<Iterator> NewIterator() const;

 private:
  std::shared_ptr<const std::string> contents_;
  const char* data_ = nullptr;
  size_t data_size_ = 0;      // Bytes before the restart array.
  uint32_t num_restarts_ = 0;
  const char* restarts_ = nullptr;
  bool ok_ = false;
};

}  // namespace monkeydb

#endif  // MONKEYDB_SSTABLE_BLOCK_H_
