// TableReader: read-side of an SSTable (a sorted run).
//
// The fence-pointer index and the Bloom filter are loaded into main memory
// at Open (the paper keeps both resident: M_pointers and M_filters). A point
// lookup consults the filter, binary-searches the fence pointers, and reads
// exactly one page-aligned data block from the environment (or the block
// cache).
//
// Scans can pipeline their I/O: NewIterator accepts TableScanOptions with a
// readahead depth and an optional thread pool. Whenever the iterator enters
// data block k it schedules asynchronous fetches of blocks k+1..k+readahead
// (an async-read hint to the file plus, when a pool is given, a background
// fetch into the block cache), so by the time the scan crosses a block
// boundary the next block is already resident or in flight. Prefetched
// blocks enter the cache at low priority (the LRU midpoint) so a long scan
// cannot evict the point-lookup working set.

#ifndef MONKEYDB_SSTABLE_TABLE_READER_H_
#define MONKEYDB_SSTABLE_TABLE_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/block_cache.h"
#include "io/env.h"
#include "lsm/internal_key.h"
#include "obs/metrics.h"
#include "sstable/block.h"
#include "sstable/format.h"
#include "util/iterator.h"

namespace monkeydb {

class ThreadPool;

struct TableReaderOptions {
  BlockCache* block_cache = nullptr;  // Optional.
  // Identifies this file in the block cache; must be unique per table.
  uint64_t cache_file_id = 0;
  // Histogram sink for cache-lookup/block-read latencies (null = no
  // recording, not even a clock read).
  MetricsRegistry* metrics = nullptr;
};

// Per-iterator scan configuration. The defaults (no readahead, no pool)
// reproduce the unpipelined scan exactly: one synchronous block read at
// each block boundary and high-priority cache inserts.
struct TableScanOptions {
  // How many data blocks beyond the current one to keep in flight. 0
  // disables readahead.
  int readahead_blocks = 0;
  // Pool that executes background fetches. With readahead_blocks > 0 but no
  // pool, the iterator still issues async-read hints to the file (letting a
  // latency-modelling Env start the "transfer" early) and performs the read
  // itself on arrival.
  ThreadPool* pool = nullptr;
};

// Result of a point lookup within one table.
enum class TableLookupResult {
  kFound,       // Newest visible entry is a value; *value filled.
  kDeleted,     // Newest visible entry is a tombstone.
  kNotPresent,  // No entry for this user key (possibly after a false
                // positive block read).
  kFilteredOut, // Bloom filter says definitely absent; no I/O issued.
};

class TableReader {
 public:
  // Opens a table. file is owned by the reader afterwards.
  static Status Open(const TableReaderOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size,
                     std::unique_ptr<TableReader>* table);

  TableReader(const TableReader&) = delete;
  TableReader& operator=(const TableReader&) = delete;

  // Point lookup for lookup.user_key() at snapshot lookup sequence. On
  // kFound fills *value (and *type when non-null, so callers can resolve
  // value-log handles).
  Status Get(const LookupKey& lookup, std::string* value,
             TableLookupResult* result, ValueType* type = nullptr);

  // Outcome of the in-memory half of a point lookup (Bloom filter + fence
  // pointers — no I/O).
  enum class ProbeState {
    kFilteredOut,  // Bloom filter says definitely absent.
    kNoBlock,      // Past the last fence pointer: not in this table.
    kBlockNeeded,  // *handle names the one data block that may hold it.
  };

  // The no-I/O half of Get. The DB's lookup core calls it run by run until
  // a key needs a block, fetches the blocks a round of keys needs
  // together, then resolves each key with SearchBlock. The outcome counts
  // (filter negatives, false positives) are the caller's to record.
  Status FindBlockHandle(const LookupKey& lookup, BlockHandle* handle,
                         ProbeState* state) const;

  // Resolves a lookup inside raw block contents previously fetched for the
  // handle FindBlockHandle produced (same semantics as the tail of Get).
  Status SearchBlock(const std::shared_ptr<const std::string>& contents,
                     const LookupKey& lookup, std::string* value,
                     TableLookupResult* result,
                     ValueType* type = nullptr) const;

  // Reads the raw block payload at handle, consulting the cache first and
  // inserting on a miss at the given priority. Thread-safe.
  Status ReadBlockShared(const BlockHandle& handle,
                         BlockCache::InsertPriority priority,
                         std::shared_ptr<const std::string>* contents) const;

  // Batched ReadBlockShared: resolves `count` handles at once. Cache hits
  // are served in place; all misses are submitted to the file as ONE
  // ReadBatch (one device access on batch-capable backends), verified, and
  // inserted into the cache. contents[i]/statuses[i] hold each block's
  // outcome; the return value reports only whole-batch failures.
  // Thread-safe. Falls back to a loop of ReadBlockShared when the file
  // cannot batch.
  Status ReadBlocksShared(const BlockHandle* handles, size_t count,
                          BlockCache::InsertPriority priority,
                          std::shared_ptr<const std::string>* contents,
                          Status* statuses) const;

  // True iff the underlying file turns ReadBlocksShared misses into one
  // batched submission. Callers use it to pick between the batched fetch
  // plan and per-block fan-out across read_io_threads.
  bool SupportsBatchReads() const;

  // Async-read hint for the block at handle: tells the file's device the
  // bytes will be read soon so the transfer overlaps with other work.
  void HintBlock(const BlockHandle& handle) const;

  // Iterates over all entries (internal keys) in the table. With readahead
  // configured in scan, the iterator pipelines block fetches ahead of the
  // scan position; the key/value sequence is identical either way. The
  // returned iterator must not outlive this table or scan.pool.
  std::unique_ptr<Iterator> NewIterator(
      const TableScanOptions& scan = TableScanOptions()) const;

  // True iff the filter admits the key (or there is no filter). Exposed for
  // instrumentation and tests.
  bool FilterMayContain(const Slice& user_key) const;

  uint64_t filter_size_bits() const;
  uint64_t num_data_blocks() const;

  // Appends the user key of every fence pointer (the largest key of each
  // data block) to *out. These are natural split candidates for
  // range-partitioned subcompactions: all the data below a fence lives in
  // earlier pages. No I/O — the index block is resident.
  void AppendBoundaryUserKeys(std::vector<std::string>* out) const;

 private:
  TableReader(const TableReaderOptions& options,
              std::unique_ptr<RandomAccessFile> file);

  // Reads (or fetches from cache) the data block at handle. priority is the
  // cache insert position on a miss: point lookups use kHigh (MRU),
  // scans/readahead use kLow (midpoint) so they cannot flush the cache.
  Status ReadDataBlock(const BlockHandle& handle,
                       std::shared_ptr<const Block>* block,
                       BlockCache::InsertPriority priority =
                           BlockCache::InsertPriority::kHigh) const;

  TableReaderOptions options_;
  std::unique_ptr<RandomAccessFile> file_;
  std::string filter_;                  // Serialized Bloom filter (in RAM).
  std::unique_ptr<Block> index_block_;  // Fence pointers (in RAM).

  friend class TableIterator;
};

}  // namespace monkeydb

#endif  // MONKEYDB_SSTABLE_TABLE_READER_H_
