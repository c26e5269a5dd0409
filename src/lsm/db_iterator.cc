// DbIterator: merges the memtable and every disk run into a forward
// iterator over live user keys — the engine's range-lookup path (the
// paper's Q: one cursor per run, sort-merge, skip superseded entries).

#include <cassert>

#include "lsm/db.h"
#include "lsm/merging_iterator.h"

namespace monkeydb {

class DbIterator : public Iterator {
 public:
  DbIterator(const DB* db, std::unique_ptr<Iterator> internal_iter,
             SequenceNumber sequence,
             std::shared_ptr<const ReadView> pinned_view)
      : db_(db),
        pinned_view_(std::move(pinned_view)),
        iter_(std::move(internal_iter)),
        sequence_(sequence) {}

  bool Valid() const override { return valid_; }

  void SeekToFirst() override {
    StopWatch watch(db_->metrics_.get(), Hist::kIterSeekLatency);
    iter_->SeekToFirst();
    FindNextUserEntry();
  }

  void Seek(const Slice& target) override {
    StopWatch watch(db_->metrics_.get(), Hist::kIterSeekLatency);
    // Seek to the newest version of target visible at the read sequence.
    LookupKey lookup(target, sequence_);
    iter_->Seek(lookup.internal_key());
    FindNextUserEntry();
  }

  void Next() override {
    assert(valid_);
    StopWatch watch(db_->metrics_.get(), Hist::kIterNextLatency);
    iter_->Next();
    FindNextUserEntry();
  }

  // Backward iteration is intentionally unsupported: the paper's range
  // lookups are forward scans (Sec. 4.2, Q).
  void SeekToLast() override { valid_ = false; }
  void Prev() override { valid_ = false; }

  Slice key() const override {
    assert(valid_);
    return Slice(saved_key_);
  }

  Slice value() const override {
    assert(valid_);
    return Slice(saved_value_);
  }

  Status status() const override {
    if (!status_.ok()) return status_;
    return iter_->status();
  }

 private:
  // Advances iter_ to the next visible, live user entry: the newest version
  // of each user key wins; tombstones hide all older versions.
  void FindNextUserEntry() {
    valid_ = false;
    while (iter_->Valid()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(iter_->key(), &parsed)) {
        iter_->Next();
        continue;
      }
      if (parsed.sequence > sequence_) {
        iter_->Next();  // Written after the read snapshot.
        continue;
      }
      const bool same_as_skipped =
          has_skip_ && parsed.user_key.compare(Slice(skip_key_)) == 0;
      if (same_as_skipped) {
        iter_->Next();
        continue;
      }
      // Newest version of a fresh user key.
      if (parsed.type == ValueType::kDeletion) {
        skip_key_.assign(parsed.user_key.data(), parsed.user_key.size());
        has_skip_ = true;
        iter_->Next();
        continue;
      }
      // A live value: emit it, and skip its older versions.
      saved_key_.assign(parsed.user_key.data(), parsed.user_key.size());
      saved_value_.assign(iter_->value().data(), iter_->value().size());
      if (parsed.type == ValueType::kValueHandle) {
        status_ = db_->ResolveHandle(&saved_value_);
        if (!status_.ok()) return;  // Invalid; surfaced via status().
      }
      skip_key_ = saved_key_;
      has_skip_ = true;
      valid_ = true;
      return;
    }
  }

  const DB* db_;
  // Keeps every memtable and TableReader under iter_ alive, even after
  // compactions replace the tree. Declared before iter_ so it is destroyed
  // after it: iter_'s table cursors drain their in-flight readahead reads,
  // which use the TableReader, in their destructors.
  std::shared_ptr<const ReadView> pinned_view_;
  std::unique_ptr<Iterator> iter_;
  SequenceNumber sequence_;
  Status status_;

  bool valid_ = false;
  bool has_skip_ = false;
  std::string skip_key_;
  std::string saved_key_;
  std::string saved_value_;
};

std::unique_ptr<Iterator> DB::NewIterator(const ReadOptions& options) {
  // Lock-free: pin a published ReadView, then load the sequence (the order
  // matters; see DB::Get).
  std::shared_ptr<const ReadView> view = CurrentView();
  const SequenceNumber read_seq =
      options.snapshot != nullptr
          ? options.snapshot->sequence()
          : last_sequence_.load(std::memory_order_acquire);
  std::vector<std::unique_ptr<Iterator>> children;
  for (const MemTable* mem : view->MemTables()) {
    children.push_back(mem->NewIterator());
  }
  // Scan pipelining: each table cursor prefetches its own upcoming blocks
  // (ReadOptions overrides the DB-wide depth; -1 inherits it). With depth 0
  // this is exactly the classic synchronous scan.
  TableScanOptions scan;
  scan.readahead_blocks = options.readahead_blocks >= 0
                              ? options.readahead_blocks
                              : options_.scan_readahead_blocks;
  scan.pool = read_pool_.get();
  const Version& version = *view->version;
  for (int level = 1; level <= version.NumLevels(); level++) {
    for (const RunPtr& run : version.RunsAt(level)) {
      children.push_back(run->table->NewIterator(scan));
    }
  }
  return std::make_unique<DbIterator>(
      this, NewMergingIterator(std::move(children)), read_seq,
      std::move(view));
}

}  // namespace monkeydb
