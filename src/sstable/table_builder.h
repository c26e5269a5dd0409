// TableBuilder: streams sorted internal-key entries into an SSTable file.
//
// Data blocks are padded to exactly one disk page each so that a fence-
// pointer probe costs exactly one page I/O (the paper's cost unit). The
// Bloom filter covers user keys and is sized by a per-table FPR chosen by
// the FPR allocation policy (uniform baseline or Monkey).

#ifndef MONKEYDB_SSTABLE_TABLE_BUILDER_H_
#define MONKEYDB_SSTABLE_TABLE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "bloom/bloom_filter.h"
#include "io/env.h"
#include "lsm/internal_key.h"
#include "sstable/block.h"
#include "sstable/format.h"
#include "util/slice.h"
#include "util/status.h"

namespace monkeydb {

struct TableBuilderOptions {
  // Disk page size; one data block occupies exactly one page.
  size_t block_size = 4096;
  int restart_interval = 16;
  // Target false positive rate for this table's Bloom filter. 1.0 disables
  // the filter (Monkey's unfiltered deep levels).
  double filter_fpr = 0.01;
  // Upper bound on the entries the table will hold, when the caller knows
  // one (a compaction does). The filter's hash buffer — 8 bytes per entry,
  // the builder's largest allocation — is then sized once up front instead
  // of regrown by doubling, which would briefly keep the old and the new
  // buffer live together. 0 means unknown: the buffer grows as needed.
  uint64_t expected_entries = 0;
};

class TableBuilder {
 public:
  // file must outlive the builder and be freshly opened.
  TableBuilder(const TableBuilderOptions& options, WritableFile* file);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // Adds an entry. REQUIRES: internal_key > all previously added keys.
  void Add(const Slice& internal_key, const Slice& value);

  // Finishes the table: flushes the last block, writes the filter block,
  // index block, and footer. Does not Close() the file.
  Status Finish();

  uint64_t num_entries() const { return num_entries_; }
  // Bytes written so far (file size after Finish()).
  uint64_t file_size() const { return offset_; }
  uint64_t num_data_blocks() const { return num_data_blocks_; }
  // Size in bits of the built filter (valid after Finish()).
  uint64_t filter_size_bits() const { return filter_size_bits_; }

  Status status() const { return status_; }

  Slice smallest_key() const { return Slice(smallest_key_); }
  Slice largest_key() const { return Slice(largest_key_); }

  // The filter builder, whose hash buffer Finish() releases.
  const BloomFilterBuilder& filter_builder() const { return filter_builder_; }

 private:
  void FlushDataBlock();
  Status WriteRawBlock(const Slice& payload, BlockHandle* handle,
                       bool pad_to_page);

  TableBuilderOptions options_;
  WritableFile* file_;
  uint64_t offset_ = 0;
  Status status_;

  BlockBuilder data_block_;
  BlockBuilder index_block_;
  BloomFilterBuilder filter_builder_;

  std::string trailer_;  // Trailer plus page padding (see WriteRawBlock).
  std::string last_internal_key_;
  std::string smallest_key_;
  std::string largest_key_;
  uint64_t num_entries_ = 0;
  uint64_t num_data_blocks_ = 0;
  uint64_t filter_size_bits_ = 0;
  bool finished_ = false;
};

}  // namespace monkeydb

#endif  // MONKEYDB_SSTABLE_TABLE_BUILDER_H_
