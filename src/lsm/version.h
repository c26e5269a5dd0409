// Version: the current set of disk-resident runs, organized into levels of
// exponentially increasing capacity (paper Fig. 2), plus the manifest that
// makes this state recoverable.
//
// Level 0 is the in-memory buffer (the memtable); levels 1..L hold runs.
// With leveling a level holds at most one run; with tiering up to T-1 runs
// ordered newest-first.

#ifndef MONKEYDB_LSM_VERSION_H_
#define MONKEYDB_LSM_VERSION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/env.h"
#include "lsm/internal_key.h"
#include "memtable/memtable.h"
#include "sstable/table_reader.h"
#include "util/status.h"

namespace monkeydb {

// Metadata + open reader for one immutable sorted run.
struct RunMetadata {
  uint64_t file_number = 0;
  uint64_t file_size = 0;
  uint64_t num_entries = 0;
  uint64_t sequence = 0;  // Creation order; larger = newer.
  std::string smallest;   // Internal keys.
  std::string largest;
  std::shared_ptr<TableReader> table;  // Open reader (always set in memory).
};

using RunPtr = std::shared_ptr<RunMetadata>;

// The levels of the tree. levels()[0] corresponds to Level 1 in the paper's
// numbering (index i holds Level i+1).
//
// Concurrency: the engine keeps one master Version that is only mutated
// under the writer/compaction locks, and publishes immutable copies to
// readers via ReadView (below). Copying is cheap — levels hold shared_ptrs
// to immutable runs, so a copy shares every run and TableReader.
class Version {
 public:
  const std::vector<std::vector<RunPtr>>& levels() const { return levels_; }
  std::vector<std::vector<RunPtr>>* mutable_levels() { return &levels_; }

  // Ensures the vector has at least `level` levels (1-based).
  void EnsureLevel(int level) {
    if (static_cast<int>(levels_.size()) < level) levels_.resize(level);
  }

  // Runs at a 1-based level, newest first.
  const std::vector<RunPtr>& RunsAt(int level) const {
    static const std::vector<RunPtr> kEmpty;
    if (level < 1 || level > static_cast<int>(levels_.size())) return kEmpty;
    return levels_[level - 1];
  }

  int NumLevels() const { return static_cast<int>(levels_.size()); }

  // Deepest level with at least one run (0 if the tree is empty on disk).
  int DeepestNonEmptyLevel() const;

  // Total entries at a 1-based level. A level normally holds whole runs,
  // but after a range-partitioned subcompaction it may hold several
  // disjoint fragments of one logical run — capacity checks must sum them.
  uint64_t EntriesAt(int level) const;

  // Runs at a 1-based level as a zero-result lookup counts them: a leveled
  // level holding one logical run (see RunsToProbe) counts once.
  uint64_t LogicalRunsAt(int level, bool leveled) const;

  uint64_t TotalEntries() const;
  uint64_t TotalRuns() const;
  uint64_t TotalFilterBits() const;

 private:
  std::vector<std::vector<RunPtr>> levels_;
};

// The runs of one level a point lookup of user_key probes, newest first.
// A leveled level holds one logical run: a single run or, after a
// range-partitioned merge, key-disjoint fragments in key order. There only
// the fragment whose range can hold the key is probed (the last if none
// can), so a logical run costs one probe however it is cut. Everywhere
// else — tiering, lazy leveling, or a leveled level still holding the
// overlapping runs a DB wrote under another policy — every run is probed.
std::span<const RunPtr> RunsToProbe(const std::vector<RunPtr>& runs,
                                    bool leveled, const Slice& user_key);

// A consistent, immutable snapshot of the whole tree as seen by the read
// path: the active memtable, any frozen (immutable) memtables awaiting a
// background flush (newest first), and the disk-resident runs. The engine
// publishes a new ReadView (a pointer swap under a dedicated micro-mutex,
// never held across I/O) after every structural change;
// Get/NewIterator/GetStats copy the pointer once and then probe
// filters and read blocks without holding any lock. Every component is
// reference-counted, so a view stays valid (and its run files readable —
// Envs keep removed-but-open files alive, POSIX unlink semantics) even
// after compactions replace the tree underneath it.
struct ReadView {
  std::shared_ptr<MemTable> mem;
  std::vector<std::shared_ptr<MemTable>> imm;  // Newest first.
  std::shared_ptr<const Version> version;

  // Entries buffered in memory (active + immutable memtables).
  uint64_t MemEntries() const;

  // Every memtable in probe order: active first, then frozen newest-first.
  std::vector<const MemTable*> MemTables() const;
};

// --- Manifest: a log of version edits for recovery ---

// One edit record: files added to levels and file numbers deleted.
struct VersionEdit {
  struct AddedRun {
    int level = 1;
    uint64_t file_number = 0;
    uint64_t file_size = 0;
    uint64_t num_entries = 0;
    uint64_t sequence = 0;
    std::string smallest;
    std::string largest;
  };

  std::vector<AddedRun> added;
  std::vector<uint64_t> deleted_files;
  uint64_t last_sequence = 0;
  uint64_t next_file_number = 0;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_VERSION_H_
