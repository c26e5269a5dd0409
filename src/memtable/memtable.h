// MemTable: the in-memory write buffer (the paper's Level 0 / M_buffer).
//
// Updates, inserts, and deletes land here first; when ApproximateMemoryUsage
// exceeds the configured buffer budget the LSM engine sorts the contents
// (already sorted via the skiplist) and flushes them to Level 1 as a run.

#ifndef MONKEYDB_MEMTABLE_MEMTABLE_H_
#define MONKEYDB_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "lsm/internal_key.h"
#include "memtable/skiplist.h"
#include "util/arena.h"
#include "util/concurrent_arena.h"
#include "util/iterator.h"

namespace monkeydb {

struct MemTableOptions {
  // Allow concurrent Add calls (the parallel write-group application
  // path). Switches the backing allocator from the single-threaded Arena
  // to the sharded, hugepage-backed ConcurrentArena and routes every Add
  // through the skiplist's lock-free CAS insert with an inline-key node
  // layout. Off = the classic single-writer memtable, byte-identical in
  // behavior and accounting to the original.
  bool concurrent_inserts = false;

  // Arena block size; 0 = Arena::kDefaultBlockSize (4096) for the classic
  // path, 2 MiB (one hugepage) for the concurrent path. Blocks of at
  // least 2 MiB are eligible for hugepage backing on the concurrent path.
  size_t arena_block_size = 0;
};

// Concurrency: Add requires external writer serialization (the engine's
// writer lock) unless MemTableOptions::concurrent_inserts is set, in which
// case any number of threads may Add simultaneously (distinct sequence
// numbers per entry). Get, NewIterator, num_entries, and
// ApproximateMemoryUsage are safe to call concurrently with the writer(s)
// and never block (the skiplist publishes nodes with release/acquire
// links in both regimes).
class MemTable {
 public:
  explicit MemTable(const MemTableOptions& options = MemTableOptions());
  ~MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Adds an entry keyed by (key, seq, type). For type kDeletion, value is
  // ignored (a tombstone is stored).
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  // If the memtable contains a visible entry for key:
  //   value entry   -> sets *value, returns OK
  //   tombstone     -> returns NotFound with found_tombstone=true semantics
  // If no entry exists, returns NotFound and sets *found_entry = false.
  // If type != nullptr, receives the found entry's ValueType (so callers
  // can resolve value-log handles).
  Status Get(const LookupKey& lookup, std::string* value, bool* found_entry,
             ValueType* type = nullptr) const;

  // Bytes of memory used (allocator footprint) — the live M_buffer
  // occupancy.
  size_t ApproximateMemoryUsage() const { return alloc_->MemoryUsage(); }

  // Number of entries added.
  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  bool concurrent_inserts() const { return concurrent_arena_ != nullptr; }

  // Allocator-contention and hugepage-backing counters. All zero for the
  // classic single-writer memtable (its Arena has no contention to count).
  ConcurrentArena::StatsSnapshot arena_stats() const {
    return concurrent_arena_ != nullptr ? concurrent_arena_->Stats()
                                        : ConcurrentArena::StatsSnapshot();
  }

  // Failed skiplist splice CASes (concurrent inserts only).
  uint64_t skiplist_cas_retries() const { return table_.cas_retries(); }

  // Iterates over internal keys in sorted order. key() returns the internal
  // key; value() the user value (empty for tombstones).
  std::unique_ptr<Iterator> NewIterator() const;

  // Exposed for the iterator implementation; not part of the public API.
  struct KeyComparator {
    // Entries are length-prefixed internal keys, ordered by
    // CompareInternalKeys.
    int operator()(const char* a, const char* b) const;
  };

 private:
  using Table = SkipList<const char*, KeyComparator>;

  // Encodes (key, seq, type, value) into buf; buf must hold encoded_len
  // bytes as computed in Add.
  static void EncodeEntry(char* buf, size_t encoded_len, SequenceNumber seq,
                          ValueType type, const Slice& key,
                          const Slice& value);

  // Non-null iff this memtable was built for concurrent inserts (same
  // object alloc_ owns; kept for stats access without a dynamic_cast).
  // Declared before alloc_: MakeAllocator fills it in while alloc_ is
  // being initialized, so it must not be default-initialized afterwards.
  ConcurrentArena* concurrent_arena_ = nullptr;
  std::unique_ptr<Allocator> alloc_;
  Table table_;
  std::atomic<uint64_t> num_entries_{0};
};

}  // namespace monkeydb

#endif  // MONKEYDB_MEMTABLE_MEMTABLE_H_
