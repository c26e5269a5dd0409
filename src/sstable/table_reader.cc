#include "sstable/table_reader.h"

#include <cassert>
#include <unordered_map>

#include "bloom/bloom_filter.h"
#include "obs/perf_context.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace monkeydb {

TableReader::TableReader(const TableReaderOptions& options,
                         std::unique_ptr<RandomAccessFile> file)
    : options_(options), file_(std::move(file)) {}

Status TableReader::Open(const TableReaderOptions& options,
                         std::unique_ptr<RandomAccessFile> file,
                         uint64_t file_size,
                         std::unique_ptr<TableReader>* table) {
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file too short to be a table");
  }

  char footer_buf[Footer::kEncodedLength];
  Slice footer_slice;
  MONKEYDB_RETURN_IF_ERROR(file->Read(file_size - Footer::kEncodedLength,
                                      Footer::kEncodedLength, &footer_slice,
                                      footer_buf));
  Footer footer;
  MONKEYDB_RETURN_IF_ERROR(footer.DecodeFrom(footer_slice));

  auto reader =
      std::unique_ptr<TableReader>(new TableReader(options, std::move(file)));

  // Filter and fence pointers live in main memory from here on.
  MONKEYDB_RETURN_IF_ERROR(ReadBlockContents(
      reader->file_.get(), footer.filter_handle, &reader->filter_));

  std::string index_contents;
  MONKEYDB_RETURN_IF_ERROR(ReadBlockContents(
      reader->file_.get(), footer.index_handle, &index_contents));
  reader->index_block_ = std::make_unique<Block>(
      std::make_shared<const std::string>(std::move(index_contents)));
  if (!reader->index_block_->ok()) {
    return Status::Corruption("malformed index block");
  }

  *table = std::move(reader);
  return Status::OK();
}

bool TableReader::FilterMayContain(const Slice& user_key) const {
  return BloomFilterReader::MayContain(Slice(filter_), user_key);
}

uint64_t TableReader::filter_size_bits() const {
  return BloomFilterReader::SizeBits(Slice(filter_));
}

uint64_t TableReader::num_data_blocks() const {
  uint64_t n = 0;
  auto it = index_block_->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  return n;
}

// monkey-lint: io-under-mutex(fn) — walks the resident index block only;
// the iterator here is Block::Iter (pure memory), which the lint's
// simple-name resolution cannot tell apart from I/O-capable iterators.
void TableReader::AppendBoundaryUserKeys(std::vector<std::string>* out) const {
  auto it = index_block_->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const Slice user_key = ExtractUserKey(it->key());
    out->emplace_back(user_key.data(), user_key.size());
  }
}

Status TableReader::ReadBlockShared(
    const BlockHandle& handle, BlockCache::InsertPriority priority,
    std::shared_ptr<const std::string>* contents) const {
  // block_read_nanos spans the whole fetch: cache lookup + any disk read.
  PerfTimer read_timer(&GetPerfContext()->block_read_nanos);
  TraceSpan fetch_span(TraceName::kBlockFetch);
  BlockCache::Key cache_key{options_.cache_file_id, handle.offset};
  if (options_.block_cache != nullptr) {
    bool was_prefetched = false;
    std::shared_ptr<const std::string> cached;
    {
      StopWatch watch(options_.metrics, Hist::kBlockCacheLookupLatency);
      cached = options_.block_cache->Lookup(cache_key, &was_prefetched);
    }
    if (cached != nullptr) {
      if (PerfCountsEnabled()) {
        PerfContext* perf = GetPerfContext();
        perf->blocks_read_from_cache++;
        if (was_prefetched) perf->blocks_read_from_prefetch++;
        perf->block_bytes_read += cached->size();
      }
      if (fetch_span.armed()) {
        fetch_span.set_args(1, static_cast<int64_t>(cached->size()));
      }
      *contents = std::move(cached);
      return Status::OK();
    }
  }

  std::string raw;
  {
    StopWatch watch(options_.metrics, Hist::kBlockReadLatency);
    MONKEYDB_RETURN_IF_ERROR(ReadBlockContents(file_.get(), handle, &raw));
  }
  if (PerfCountsEnabled()) {
    PerfContext* perf = GetPerfContext();
    perf->blocks_read_from_disk++;
    perf->block_bytes_read += raw.size();
  }
  if (fetch_span.armed()) {
    fetch_span.set_args(0, static_cast<int64_t>(raw.size()));
  }
  auto shared_contents = std::make_shared<const std::string>(std::move(raw));
  if (options_.block_cache != nullptr) {
    options_.block_cache->Insert(cache_key, shared_contents, priority);
  }
  *contents = std::move(shared_contents);
  return Status::OK();
}

bool TableReader::SupportsBatchReads() const {
  return file_->SupportsReadBatch();
}

Status TableReader::ReadBlocksShared(
    const BlockHandle* handles, size_t count,
    BlockCache::InsertPriority priority,
    std::shared_ptr<const std::string>* contents, Status* statuses) const {
  // Pass 1: serve cache hits, collect misses.
  std::vector<size_t> misses;
  misses.reserve(count);
  for (size_t i = 0; i < count; i++) {
    statuses[i] = Status::OK();
    contents[i] = nullptr;
    if (options_.block_cache == nullptr) {
      misses.push_back(i);
      continue;
    }
    PerfTimer read_timer(&GetPerfContext()->block_read_nanos);
    bool was_prefetched = false;
    std::shared_ptr<const std::string> cached;
    {
      StopWatch watch(options_.metrics, Hist::kBlockCacheLookupLatency);
      cached = options_.block_cache->Lookup(
          {options_.cache_file_id, handles[i].offset}, &was_prefetched);
    }
    if (cached != nullptr) {
      if (PerfCountsEnabled()) {
        PerfContext* perf = GetPerfContext();
        perf->blocks_read_from_cache++;
        if (was_prefetched) perf->blocks_read_from_prefetch++;
        perf->block_bytes_read += cached->size();
      }
      contents[i] = std::move(cached);
    } else {
      misses.push_back(i);
    }
  }
  if (misses.empty()) return Status::OK();

  if (!file_->SupportsReadBatch()) {
    for (size_t i : misses) {
      statuses[i] = ReadBlockShared(handles[i], priority, &contents[i]);
    }
    return Status::OK();
  }

  // Pass 2: one batched submission for every miss, straight into each
  // block's final string storage (zero intermediate copy, as in
  // ReadBlockContents).
  PerfTimer read_timer(&GetPerfContext()->block_read_nanos);
  TraceSpan fetch_span(TraceName::kBlockFetch);
  std::vector<std::string> raws(misses.size());
  std::vector<ReadRequest> reqs(misses.size());
  int64_t miss_bytes = 0;
  for (size_t m = 0; m < misses.size(); m++) {
    const BlockHandle& handle = handles[misses[m]];
    raws[m].resize(handle.size + kBlockTrailerSize);
    reqs[m].offset = handle.offset;
    reqs[m].n = raws[m].size();
    reqs[m].scratch = raws[m].data();
    miss_bytes += static_cast<int64_t>(raws[m].size());
  }
  if (fetch_span.armed()) fetch_span.set_args(0, miss_bytes);
  {
    StopWatch watch(options_.metrics, Hist::kBlockReadLatency);
    Status s = file_->ReadBatch(reqs.data(), reqs.size());
    if (!s.ok()) {
      for (size_t i : misses) statuses[i] = s;
      return s;
    }
  }
  for (size_t m = 0; m < misses.size(); m++) {
    const size_t i = misses[m];
    const BlockHandle& handle = handles[i];
    if (!reqs[m].status.ok()) {
      statuses[i] = reqs[m].status;
      continue;
    }
    if (reqs[m].result.size() != raws[m].size()) {
      statuses[i] = Status::Corruption("truncated block read");
      continue;
    }
    if (reqs[m].result.data() != raws[m].data()) {
      raws[m].assign(reqs[m].result.data(), reqs[m].result.size());
    }
    statuses[i] = VerifyAndStripBlockTrailer(handle, &raws[m]);
    if (!statuses[i].ok()) continue;
    if (PerfCountsEnabled()) {
      PerfContext* perf = GetPerfContext();
      perf->blocks_read_from_disk++;
      perf->block_bytes_read += raws[m].size();
    }
    auto shared =
        std::make_shared<const std::string>(std::move(raws[m]));
    if (options_.block_cache != nullptr) {
      options_.block_cache->Insert({options_.cache_file_id, handle.offset},
                                   shared, priority);
    }
    contents[i] = std::move(shared);
  }
  return Status::OK();
}

Status TableReader::ReadDataBlock(const BlockHandle& handle,
                                  std::shared_ptr<const Block>* block,
                                  BlockCache::InsertPriority priority) const {
  std::shared_ptr<const std::string> contents;
  MONKEYDB_RETURN_IF_ERROR(ReadBlockShared(handle, priority, &contents));
  *block = std::make_shared<const Block>(std::move(contents));
  if (!(*block)->ok()) return Status::Corruption("malformed data block");
  return Status::OK();
}

Status TableReader::FindBlockHandle(const LookupKey& lookup,
                                    BlockHandle* handle,
                                    ProbeState* state) const {
  const bool perf = PerfCountsEnabled();
  // 1. Bloom filter (in memory, no I/O).
  if (perf) GetPerfContext()->filter_probes++;
  bool may_contain;
  {
    PerfTimer timer(&GetPerfContext()->filter_probe_nanos);
    TraceSpan filter_span(TraceName::kFilterProbe);
    may_contain = FilterMayContain(lookup.user_key());
    if (filter_span.armed()) filter_span.set_args(may_contain ? 1 : 0);
  }
  if (!may_contain) {
    *state = ProbeState::kFilteredOut;
    return Status::OK();
  }

  // 2. Fence pointers (in memory): find the first page whose largest key is
  // >= the lookup internal key.
  if (perf) GetPerfContext()->fence_seeks++;
  TraceSpan fence_span(TraceName::kFenceSeek);
  auto index_iter = index_block_->NewIterator();
  index_iter->Seek(lookup.internal_key());
  if (!index_iter->Valid()) {
    *state = ProbeState::kNoBlock;
    return index_iter->status();
  }

  Slice handle_value = index_iter->value();
  MONKEYDB_RETURN_IF_ERROR(handle->DecodeFrom(&handle_value));
  *state = ProbeState::kBlockNeeded;
  if (fence_span.armed()) fence_span.set_args(1);
  return Status::OK();
}

Status TableReader::SearchBlock(
    const std::shared_ptr<const std::string>& contents,
    const LookupKey& lookup, std::string* value, TableLookupResult* result,
    ValueType* type) const {
  auto block = std::make_shared<const Block>(contents);
  if (!block->ok()) return Status::Corruption("malformed data block");
  auto block_iter = block->NewIterator();
  block_iter->Seek(lookup.internal_key());
  if (!block_iter->Valid()) {
    *result = TableLookupResult::kNotPresent;
    return block_iter->status();
  }

  ParsedInternalKey parsed;
  if (!ParseInternalKey(block_iter->key(), &parsed)) {
    return Status::Corruption("malformed internal key in data block");
  }
  if (parsed.user_key.compare(lookup.user_key()) != 0) {
    *result = TableLookupResult::kNotPresent;  // Bloom false positive.
    return Status::OK();
  }
  if (type != nullptr) *type = parsed.type;
  if (parsed.type == ValueType::kDeletion) {
    *result = TableLookupResult::kDeleted;
    return Status::OK();
  }
  value->assign(block_iter->value().data(), block_iter->value().size());
  *result = TableLookupResult::kFound;
  return Status::OK();
}

void TableReader::HintBlock(const BlockHandle& handle) const {
  file_->ReadAhead(handle.offset, handle.size + kBlockTrailerSize);
}

Status TableReader::Get(const LookupKey& lookup, std::string* value,
                        TableLookupResult* result, ValueType* type) {
  ProbeState state;
  BlockHandle handle;
  MONKEYDB_RETURN_IF_ERROR(FindBlockHandle(lookup, &handle, &state));
  if (state == ProbeState::kFilteredOut) {
    *result = TableLookupResult::kFilteredOut;
    return Status::OK();
  }
  if (state == ProbeState::kNoBlock) {
    *result = TableLookupResult::kNotPresent;
    return Status::OK();
  }

  // 3. One data-page I/O.
  std::shared_ptr<const std::string> contents;
  MONKEYDB_RETURN_IF_ERROR(ReadBlockShared(
      handle, BlockCache::InsertPriority::kHigh, &contents));
  return SearchBlock(contents, lookup, value, result, type);
}

namespace {

// State shared between a TableIterator and its in-flight background
// fetches. The iterator holds one live generation at a time; Seek and the
// destructor retire the generation by setting cancelled and draining reads
// that have already started. Pool tasks that were queued but never started
// observe cancelled (or their erased slot) and exit without touching the
// table, so the table and pool only need to outlive the iterator, not the
// queue.
struct PrefetchSet {
  struct Slot {
    bool started = false;  // A thread has claimed the read.
    bool done = false;     // status/contents are filled in.
    Status status;
    std::shared_ptr<const std::string> contents;
  };

  Mutex mu;
  CondVar cv{&mu};
  bool cancelled GUARDED_BY(mu) = false;
  // Keyed by block offset.
  std::unordered_map<uint64_t, Slot> slots GUARDED_BY(mu);
};

}  // namespace

// Two-level iterator: walks the fence-pointer index and lazily opens data
// blocks. At namespace scope (not anonymous) so the friend declaration in
// TableReader applies.
//
// With readahead enabled, entering data block k schedules asynchronous
// fetches of blocks k+1..k+readahead: an async-read hint to the file plus,
// when a pool is available, a background read into the block cache. The
// block boundary crossing then consumes the prefetched bytes (waiting for
// an in-flight read if necessary) instead of stalling on a cold read.
class TableIterator : public Iterator {
 public:
  TableIterator(const TableReader* table, const TableScanOptions& scan)
      : table_(table),
        scan_(scan),
        index_iter_(table->index_block_->NewIterator()) {}

  ~TableIterator() override { CancelPrefetch(); }

  bool Valid() const override {
    return block_iter_ != nullptr && block_iter_->Valid();
  }

  void SeekToFirst() override {
    CancelPrefetch();
    index_iter_->SeekToFirst();
    InitDataBlock(/*seek_to_first=*/true);
    SkipEmptyBlocksForward();
    ScheduleReadahead();
  }

  void SeekToLast() override {
    CancelPrefetch();
    index_iter_->SeekToLast();
    InitDataBlock(/*seek_to_first=*/false);
    if (block_iter_ != nullptr) block_iter_->SeekToLast();
    SkipEmptyBlocksBackward();
  }

  void Seek(const Slice& target) override {
    CancelPrefetch();
    index_iter_->Seek(target);
    InitDataBlock(/*seek_to_first=*/false);
    if (block_iter_ != nullptr) block_iter_->Seek(target);
    SkipEmptyBlocksForward();
    ScheduleReadahead();
  }

  void Next() override {
    assert(Valid());
    block_iter_->Next();
    if (block_iter_->Valid()) return;
    SkipEmptyBlocksForward();
    ScheduleReadahead();
  }

  void Prev() override {
    assert(Valid());
    block_iter_->Prev();
    SkipEmptyBlocksBackward();
  }

  Slice key() const override { return block_iter_->key(); }
  Slice value() const override { return block_iter_->value(); }

  Status status() const override {
    if (!status_.ok()) return status_;
    if (!index_iter_->status().ok()) return index_iter_->status();
    if (block_iter_ != nullptr) return block_iter_->status();
    return Status::OK();
  }

 private:
  void InitDataBlock(bool seek_to_first) {
    block_iter_.reset();
    block_.reset();
    if (!index_iter_->Valid()) return;
    BlockHandle handle;
    Slice handle_value = index_iter_->value();
    Status s = handle.DecodeFrom(&handle_value);
    if (!s.ok()) {
      status_ = s;
      return;
    }
    // Scan reads enter the cache at low priority once readahead is on, so
    // a pipelined scan stays out of the point-lookup working set; with
    // readahead off the behavior is byte-identical to the classic path.
    const auto priority = scan_.readahead_blocks > 0
                              ? BlockCache::InsertPriority::kLow
                              : BlockCache::InsertPriority::kHigh;
    std::shared_ptr<const std::string> contents;
    if (TryConsumePrefetch(handle.offset, &contents, &s)) {
      if (s.ok()) {
        auto blk = std::make_shared<const Block>(std::move(contents));
        if (blk->ok()) {
          block_ = std::move(blk);
        } else {
          s = Status::Corruption("malformed data block");
        }
      }
    } else {
      s = table_->ReadDataBlock(handle, &block_, priority);
    }
    if (!s.ok()) {
      status_ = s;
      return;
    }
    block_iter_ = block_->NewIterator();
    if (seek_to_first) block_iter_->SeekToFirst();
  }

  // Schedules background fetches for the readahead window after the
  // current block. No-op when readahead is off or the scan is at the end.
  // On a batch-capable file with a pool, the whole window becomes ONE
  // background task submitting one ReadBatch; otherwise each block gets an
  // async-read hint plus (with a pool) its own background read.
  void ScheduleReadahead() {
    if (scan_.readahead_blocks <= 0 || !index_iter_->Valid()) return;
    // Walk a private copy of the (in-memory) fence-pointer index forward
    // from the current position.
    auto ahead = table_->index_block_->NewIterator();
    ahead->Seek(index_iter_->key());
    if (!ahead->Valid()) return;
    if (prefetch_ == nullptr) prefetch_ = std::make_shared<PrefetchSet>();
    std::vector<BlockHandle> window;
    for (int i = 0; i < scan_.readahead_blocks; i++) {
      ahead->Next();
      if (!ahead->Valid()) break;
      BlockHandle handle;
      Slice handle_value = ahead->value();
      if (!handle.DecodeFrom(&handle_value).ok()) break;
      if (ClaimPrefetchSlot(handle)) window.push_back(handle);
    }
    if (window.empty()) return;
    if (scan_.pool != nullptr && table_->SupportsBatchReads() &&
        window.size() > 1) {
      SchedulePrefetchBatch(std::move(window));
      return;
    }
    for (const BlockHandle& handle : window) SchedulePrefetch(handle);
  }

  // Registers a slot for the block unless it is already cached, scheduled,
  // or in flight. Returns true iff the caller now owns scheduling it.
  bool ClaimPrefetchSlot(const BlockHandle& handle) {
    BlockCache* cache = table_->options_.block_cache;
    if (cache != nullptr &&
        cache->Contains({table_->options_.cache_file_id, handle.offset})) {
      return false;  // Already resident; the scan will hit the cache.
    }
    MutexLock lock(prefetch_->mu);
    return prefetch_->slots.emplace(handle.offset, PrefetchSet::Slot{})
        .second;
  }

  void SchedulePrefetch(const BlockHandle& handle) {
    // Hint the device before anything else: a latency-modelling Env starts
    // the transfer clock at the hint, so the eventual read — from a pool
    // thread or inline at the boundary crossing — only pays the latency
    // that has not already elapsed.
    table_->HintBlock(handle);
    if (scan_.pool == nullptr) return;
    auto set = prefetch_;
    const TableReader* table = table_;
    const BlockHandle h = handle;
    scan_.pool->Submit([set, table, h] {
      {
        MutexLock lock(set->mu);
        auto it = set->slots.find(h.offset);
        if (set->cancelled || it == set->slots.end() || it->second.started) {
          return;  // Retired generation or claimed by the foreground.
        }
        it->second.started = true;
      }
      std::shared_ptr<const std::string> contents;
      Status s = table->ReadBlockShared(
          h, BlockCache::InsertPriority::kLow, &contents);
      MutexLock lock(set->mu);
      auto it = set->slots.find(h.offset);
      if (it != set->slots.end()) {
        it->second.status = s;
        it->second.contents = std::move(contents);
        it->second.done = true;
      }
      set->cv.SignalAll();
    });
  }

  // One background task for the whole readahead window: claims every slot
  // the foreground has not stolen yet, submits the claimed blocks as one
  // ReadBatch, and publishes each result. No per-block hints — the batch
  // submission itself is the overlap mechanism on batch-capable backends.
  void SchedulePrefetchBatch(std::vector<BlockHandle> window) {
    auto set = prefetch_;
    const TableReader* table = table_;
    scan_.pool->Submit([set, table, window = std::move(window)] {
      std::vector<BlockHandle> claimed;
      claimed.reserve(window.size());
      {
        MutexLock lock(set->mu);
        if (set->cancelled) return;
        for (const BlockHandle& h : window) {
          auto it = set->slots.find(h.offset);
          if (it == set->slots.end() || it->second.started) continue;
          it->second.started = true;
          claimed.push_back(h);
        }
      }
      if (claimed.empty()) return;
      std::vector<std::shared_ptr<const std::string>> contents(
          claimed.size());
      std::vector<Status> statuses(claimed.size());
      Status batch = table->ReadBlocksShared(
          claimed.data(), claimed.size(), BlockCache::InsertPriority::kLow,
          contents.data(), statuses.data());
      MutexLock lock(set->mu);
      for (size_t i = 0; i < claimed.size(); i++) {
        auto it = set->slots.find(claimed[i].offset);
        if (it == set->slots.end()) continue;
        it->second.status = batch.ok() ? statuses[i] : batch;
        it->second.contents = std::move(contents[i]);
        it->second.done = true;
      }
      set->cv.SignalAll();
    });
  }

  // Consumes the prefetch slot for offset if one exists: waits for an
  // in-flight read, or — when no pool thread picked the slot up yet —
  // erases it and tells the caller to read inline (the hint already fired,
  // so a latency-modelling Env charges only the remaining latency).
  bool TryConsumePrefetch(uint64_t offset,
                          std::shared_ptr<const std::string>* contents,
                          Status* status) {
    if (prefetch_ == nullptr) return false;
    MutexLock lock(prefetch_->mu);
    auto it = prefetch_->slots.find(offset);
    if (it == prefetch_->slots.end()) return false;
    if (!it->second.started) {
      // Claim it from the queue; a late-starting pool task finds the slot
      // gone and exits.
      prefetch_->slots.erase(it);
      return false;
    }
    // Only this thread inserts into slots, so `it` survives the wait.
    while (!it->second.done) prefetch_->cv.Wait();
    *status = it->second.status;
    *contents = std::move(it->second.contents);
    prefetch_->slots.erase(it);
    return true;
  }

  // Retires the current prefetch generation: marks it cancelled and drains
  // reads that already started (they hold a raw table pointer). Queued
  // tasks that never started exit later through their shared_ptr copy.
  void CancelPrefetch() {
    if (prefetch_ == nullptr) return;
    {
      MutexLock lock(prefetch_->mu);
      prefetch_->cancelled = true;
      for (;;) {
        bool in_flight = false;
        for (const auto& [offset, slot] : prefetch_->slots) {
          if (slot.started && !slot.done) {
            in_flight = true;
            break;
          }
        }
        if (!in_flight) break;
        prefetch_->cv.Wait();
      }
    }
    prefetch_ = nullptr;
  }

  void SkipEmptyBlocksForward() {
    while ((block_iter_ == nullptr || !block_iter_->Valid()) &&
           index_iter_->Valid() && status_.ok()) {
      index_iter_->Next();
      if (!index_iter_->Valid()) {
        block_iter_.reset();
        return;
      }
      InitDataBlock(/*seek_to_first=*/true);
    }
  }

  void SkipEmptyBlocksBackward() {
    while ((block_iter_ == nullptr || !block_iter_->Valid()) &&
           index_iter_->Valid() && status_.ok()) {
      index_iter_->Prev();
      if (!index_iter_->Valid()) {
        block_iter_.reset();
        return;
      }
      InitDataBlock(/*seek_to_first=*/false);
      if (block_iter_ != nullptr) block_iter_->SeekToLast();
    }
  }

  const TableReader* table_;
  TableScanOptions scan_;
  std::unique_ptr<Iterator> index_iter_;
  std::shared_ptr<const Block> block_;
  std::unique_ptr<Iterator> block_iter_;
  std::shared_ptr<PrefetchSet> prefetch_;  // Live readahead generation.
  Status status_;
};

std::unique_ptr<Iterator> TableReader::NewIterator(
    const TableScanOptions& scan) const {
  return std::make_unique<TableIterator>(this, scan);
}

}  // namespace monkeydb
