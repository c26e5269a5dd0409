#include "lsm/db.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <map>
#include <set>
#include <thread>

#include "io/uring_env.h"
#include "lsm/merging_iterator.h"
#include "obs/exposition.h"
#include "obs/perf_context.h"
#include "obs/trace.h"
#include "sstable/table_builder.h"
#include "util/coding.h"

namespace monkeydb {

namespace {

const FprAllocationPolicy* DefaultFprPolicy() {
  static const UniformFprPolicy* policy = new UniformFprPolicy;
  return policy;
}

std::string MakeTableFileName(const std::string& dbname, uint64_t number) {
  char buf[32];
  snprintf(buf, sizeof(buf), "/%06llu.sst",
           static_cast<unsigned long long>(number));
  return dbname + buf;
}

// Wall-clock timer that reads the clock only when enabled — used where a
// duration feeds both a histogram and an event struct, so the
// metrics-off/no-listeners path stays free of clock calls.
class OptionalTimer {
 public:
  explicit OptionalTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  uint64_t ElapsedMicros() const {
    if (!enabled_) return 0;
    // monkey-lint: io-under-mutex — metrics clock read: a vDSO call with
    // no syscall or blocking, deliberately charged to the covered
    // operation wherever it ends, including under mu_.
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};

// Memtable configuration derived from the DB's knobs. The classic path
// keeps arena_block_size = 0 (Arena's historical 4 KiB default — flush
// accounting granularity the figure benches depend on). The concurrent
// path defaults to 2 MiB blocks (one hugepage) but halves down to at most
// buffer_size/2 (floor 64 KiB) so a small write buffer is not blown past
// its flush threshold by a single block.
MemTableOptions MemTableOptionsFromDb(const DbOptions& options) {
  MemTableOptions mopts;
  mopts.concurrent_inserts = options.allow_concurrent_memtable_write;
  mopts.arena_block_size = options.arena_block_size;
  if (mopts.concurrent_inserts && mopts.arena_block_size == 0) {
    size_t block = ConcurrentArena::kHugePageSize;
    while (block > (64u << 10) && block > options.buffer_size_bytes / 2) {
      block /= 2;
    }
    mopts.arena_block_size = block;
  }
  return mopts;
}

VersionEdit::AddedRun AddedRunOf(int level, const RunMetadata& run) {
  VersionEdit::AddedRun added;
  added.level = level;
  added.file_number = run.file_number;
  added.file_size = run.file_size;
  added.num_entries = run.num_entries;
  added.sequence = run.sequence;
  added.smallest = run.smallest;
  added.largest = run.largest;
  return added;
}

}  // namespace

// Windowed (ring-of-epochs) views advanced once per DumpMetrics scrape;
// the fpr window tracks the three per-level probe counters the measured-FPR
// gauges are derived from, laid out [runs_probed | filter_negatives |
// false_positives] x kMaxLevels. The get-latency window exists only with
// metrics on: nothing would ever feed it otherwise.
struct DB::WindowState {
  explicit WindowState(bool with_get_latency)
      : fpr(3 * Counters::kMaxLevels) {
    if (with_get_latency) get_latency.emplace();
  }
  EpochWindow fpr;
  std::optional<WindowedHistogram> get_latency;
};

DB::DB(const DbOptions& options, std::string name)
    : options_(options),
      name_(std::move(name)),
      mem_(std::make_shared<MemTable>(MemTableOptionsFromDb(options))),
      metrics_(options.enable_metrics ? new MetricsRegistry : nullptr) {}

DB::~DB() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  bg_work_cv_.SignalAll();
  bg_done_cv_.SignalAll();
  if (bg_thread_.joinable()) bg_thread_.join();
  // Only after the worker is gone is it safe to tear down wal_/manifest_
  // (and for the caller to destroy the Env). Uncontended by now, but
  // holding mu_ keeps the GUARDED_BY contract checkable.
  MutexLock lock(mu_);
  DrainObsoleteFilesLocked();
  // monkey-lint: io-under-mutex, status-sink — shutdown path: the worker
  // is joined and mu_ uncontended; a failed close loses nothing the WAL
  // protocol has not already made durable.
  if (wal_ != nullptr) wal_->Close().IgnoreError();
  if (manifest_ != nullptr) manifest_->Close().IgnoreError();
}

std::string DB::TableFileName(uint64_t number) const {
  return MakeTableFileName(name_, number);
}

std::string DB::WalFileName(uint64_t number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "/wal-%06llu.log",
           static_cast<unsigned long long>(number));
  return name_ + buf;
}

Status DB::Open(const DbOptions& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  // No explicit Env: construct (and own) the real-filesystem backend named
  // by io_backend/use_direct_io. kUring probes at runtime and falls back
  // to the posix backend automatically, with a log line and a fallback-
  // counter bump, so the same binary runs on kernels without io_uring.
  DbOptions resolved = options;
  std::unique_ptr<Env> owned_env;
  UringEnv* uring_env = nullptr;
  if (resolved.env == nullptr) {
    IoBackend backend = resolved.io_backend;
    if (const char* override_name = getenv("MONKEYDB_IO_BACKEND")) {
      if (strcmp(override_name, "uring") == 0) {
        backend = IoBackend::kUring;
      } else if (strcmp(override_name, "posix") == 0) {
        backend = IoBackend::kPosix;
      }
    }
    if (backend == IoBackend::kUring) {
      UringEnvOptions uring_options;
      uring_options.use_direct_io = resolved.use_direct_io;
      Status uring_status;
      auto env = NewUringEnv(uring_options, &uring_status);
      if (env != nullptr) {
        uring_env = env.get();
        owned_env = std::move(env);
        if (resolved.info_log != nullptr) {
          resolved.info_log->Info("io backend: uring (direct_io=%d)",
                                  resolved.use_direct_io ? 1 : 0);
        }
      } else {
        RecordUringFallbackEvent();
        if (resolved.info_log != nullptr) {
          resolved.info_log->Warn(
              "io_uring unavailable (%s); falling back to posix backend",
              uring_status.ToString().c_str());
        }
      }
    }
    if (owned_env == nullptr) {
      EnvOptions env_options;
      env_options.use_direct_io = resolved.use_direct_io;
      owned_env = NewPosixEnv(env_options);
    }
    resolved.env = owned_env.get();
  }
  // Same override idiom for the concurrent-memtable write path: CI sweeps
  // both modes over the full test suite without rebuilding.
  if (const char* concurrent = getenv("MONKEYDB_CONCURRENT_MEMTABLE")) {
    if (strcmp(concurrent, "1") == 0) {
      resolved.allow_concurrent_memtable_write = true;
    } else if (strcmp(concurrent, "0") == 0) {
      resolved.allow_concurrent_memtable_write = false;
    }
  }
  if (resolved.size_ratio < 2.0) {
    return Status::InvalidArgument("size_ratio must be >= 2");
  }
  if (resolved.max_immutable_memtables < 1) {
    return Status::InvalidArgument("max_immutable_memtables must be >= 1");
  }
  if (resolved.compaction_threads < 1) {
    return Status::InvalidArgument("compaction_threads must be >= 1");
  }
  if (resolved.scan_readahead_blocks < 0) {
    return Status::InvalidArgument("scan_readahead_blocks must be >= 0");
  }
  if (resolved.read_io_threads < 0) {
    return Status::InvalidArgument("read_io_threads must be >= 0");
  }
  MONKEYDB_RETURN_IF_ERROR(resolved.env->CreateDir(name));

  auto db = std::unique_ptr<DB>(new DB(resolved, name));
  db->owned_env_ = std::move(owned_env);
  db->uring_env_ = uring_env;
  if (resolved.read_io_threads > 0) {
    db->read_pool_ = std::make_unique<ThreadPool>(resolved.read_io_threads);
  }
  MONKEYDB_RETURN_IF_ERROR(db->Recover());
  *dbptr = std::move(db);
  return Status::OK();
}

Status DB::OpenTable(RunPtr run) {
  std::unique_ptr<RandomAccessFile> file;
  const std::string fname = TableFileName(run->file_number);
  MONKEYDB_RETURN_IF_ERROR(options_.env->NewRandomAccessFile(fname, &file));
  TableReaderOptions topts;
  topts.block_cache = options_.block_cache;
  topts.cache_file_id = run->file_number;
  topts.metrics = metrics_.get();
  std::unique_ptr<TableReader> table;
  MONKEYDB_RETURN_IF_ERROR(
      TableReader::Open(topts, std::move(file), run->file_size, &table));
  run->table = std::move(table);
  return Status::OK();
}

// monkey-lint: io-under-mutex(fn) — recovery runs before the DB is
// published: no reader or writer exists yet, so mu_ is uncontended and
// held only to keep the GUARDED_BY contracts checkable.
Status DB::Recover() {
  MutexLock lock(mu_);
  const std::string manifest_path = name_ + "/MANIFEST";

  if (options_.value_separation_threshold > 0) {
    MONKEYDB_RETURN_IF_ERROR(ValueLog::Open(options_.env, name_, &vlog_));
  }

  if (options_.env->FileExists(manifest_path)) {
    // Replay version edits (metadata only).
    std::unique_ptr<SequentialFile> file;
    MONKEYDB_RETURN_IF_ERROR(
        options_.env->NewSequentialFile(manifest_path, &file));
    WalReader reader(std::move(file));
    std::string scratch;
    Slice record;
    const bool leveled = options_.merge_policy == MergePolicy::kLeveling;
    while (reader.ReadRecord(&scratch, &record)) {
      VersionEdit edit;
      MONKEYDB_RETURN_IF_ERROR(edit.DecodeFrom(record));
      // Apply: deletes first, then adds.
      for (uint64_t fn : edit.deleted_files) {
        for (auto& level : *current_.mutable_levels()) {
          level.erase(std::remove_if(level.begin(), level.end(),
                                     [fn](const RunPtr& r) {
                                       return r->file_number == fn;
                                     }),
                      level.end());
        }
      }
      for (const VersionEdit::AddedRun& added : edit.added) {
        auto run = std::make_shared<RunMetadata>();
        run->file_number = added.file_number;
        run->file_size = added.file_size;
        run->num_entries = added.num_entries;
        run->sequence = added.sequence;
        run->smallest = added.smallest;
        run->largest = added.largest;
        current_.EnsureLevel(added.level);
        auto& level_runs = (*current_.mutable_levels())[added.level - 1];
        level_runs.push_back(std::move(run));
        // Newest first. Runs share a sequence when no write landed between
        // their jobs: the fragments of one leveling merge, which go in key
        // order, or back-to-back flushes and merges, which go newest (the
        // higher file number) first.
        std::sort(level_runs.begin(), level_runs.end(),
                  [leveled](const RunPtr& a, const RunPtr& b) {
                    if (a->sequence != b->sequence) {
                      return a->sequence > b->sequence;
                    }
                    if (leveled) {
                      return CompareInternalKeys(Slice(a->smallest),
                                                 Slice(b->smallest)) < 0;
                    }
                    return a->file_number > b->file_number;
                  });
      }
      if (edit.last_sequence > last_sequence_.load(std::memory_order_relaxed)) {
        last_sequence_.store(edit.last_sequence, std::memory_order_relaxed);
      }
      if (edit.next_file_number > next_file_number_) {
        next_file_number_ = edit.next_file_number;
      }
    }

    // Open tables for all surviving runs; remove orphaned files.
    std::set<uint64_t> live;
    for (auto& level : *current_.mutable_levels()) {
      for (auto& run : level) {
        MONKEYDB_RETURN_IF_ERROR(OpenTable(run));
        live.insert(run->file_number);
      }
    }
    std::vector<std::string> children;
    if (options_.env->GetChildren(name_, &children).ok()) {
      for (const std::string& child : children) {
        if (child.size() > 4 &&
            child.compare(child.size() - 4, 4, ".sst") == 0) {
          const uint64_t fn = strtoull(child.c_str(), nullptr, 10);
          if (live.count(fn) == 0) {
            // monkey-lint: status-sink — best-effort orphan sweep; a file
            // that survives is retried on the next Recover.
            options_.env->RemoveFile(name_ + "/" + child).IgnoreError();
          }
        }
      }
    }
  }

  // Replay WALs into the memtable: the legacy single "wal.log" (pre-rotation
  // layout) first, then numbered wal-*.log files in creation order.
  std::vector<std::string> old_wals;
  const std::string legacy_wal = name_ + "/wal.log";
  if (options_.env->FileExists(legacy_wal)) {
    MONKEYDB_RETURN_IF_ERROR(ReplayWal(legacy_wal));
    old_wals.push_back(legacy_wal);
  }
  {
    std::vector<std::string> children;
    std::vector<uint64_t> wal_numbers;
    if (options_.env->GetChildren(name_, &children).ok()) {
      for (const std::string& child : children) {
        if (child.rfind("wal-", 0) == 0 && child.size() > 8 &&
            child.compare(child.size() - 4, 4, ".log") == 0) {
          wal_numbers.push_back(strtoull(child.c_str() + 4, nullptr, 10));
        }
      }
    }
    std::sort(wal_numbers.begin(), wal_numbers.end());
    for (uint64_t number : wal_numbers) {
      MONKEYDB_RETURN_IF_ERROR(ReplayWal(WalFileName(number)));
      old_wals.push_back(WalFileName(number));
      if (number > wal_number_) wal_number_ = number;
    }
  }

  // Rewrite a fresh manifest snapshot.
  {
    std::unique_ptr<WritableFile> mfile;
    MONKEYDB_RETURN_IF_ERROR(
        options_.env->NewWritableFile(manifest_path + ".tmp", &mfile));
    manifest_ = std::make_unique<WalWriter>(std::move(mfile));
    VersionEdit snapshot;
    for (int level = 1; level <= current_.NumLevels(); level++) {
      for (const RunPtr& run : current_.RunsAt(level)) {
        snapshot.added.push_back(AddedRunOf(level, *run));
      }
    }
    snapshot.last_sequence = last_sequence_.load(std::memory_order_relaxed);
    snapshot.next_file_number = next_file_number_;
    std::string encoded;
    snapshot.EncodeTo(&encoded);
    MONKEYDB_RETURN_IF_ERROR(
        manifest_->AddRecord(encoded, options_.sync_writes));
    MONKEYDB_RETURN_IF_ERROR(
        options_.env->RenameFile(manifest_path + ".tmp", manifest_path));
  }

  // Merge threads must exist before the replay flush below so its cascades
  // can already partition (and so synchronous mode gets parallelism too).
  if (options_.compaction_threads > 1) {
    compaction_pool_ =
        std::make_unique<ThreadPool>(options_.compaction_threads - 1);
  }

  // If WAL replay left entries in the memtable, persist them now (before the
  // replayed logs are discarded).
  if (mem_->num_entries() > 0) {
    MONKEYDB_RETURN_IF_ERROR(FlushMemTable(mem_, /*io_unlock=*/false));
    MONKEYDB_RETURN_IF_ERROR(Cascade(/*io_unlock=*/false));
  }
  for (const std::string& wal : old_wals) {
    // monkey-lint: status-sink — best-effort retirement of replayed WALs;
    // a leftover is replayed again (idempotent) and re-retired next Open.
    options_.env->RemoveFile(wal).IgnoreError();
  }
  MONKEYDB_RETURN_IF_ERROR(NewWalLocked());
  DrainObsoleteFilesLocked();

  PublishViewLocked();
  if (options_.background_compaction) {
    bg_thread_ = std::thread(&DB::BackgroundMain, this);
  }
  return Status::OK();
}

// monkey-lint: io-under-mutex(fn) — recovery-only: called from Recover
// before the DB is published, where mu_ is uncontended (see Recover).
Status DB::ReplayWal(const std::string& wal_path) {
  std::unique_ptr<SequentialFile> file;
  MONKEYDB_RETURN_IF_ERROR(options_.env->NewSequentialFile(wal_path, &file));
  WalReader reader(std::move(file));
  std::string scratch;
  Slice record;
  // The lambda body is analyzed without this function's lock set, so hand
  // it the memtable pointer directly instead of reading mem_ inside it.
  MemTable* const mem = mem_.get();
  while (reader.ReadRecord(&scratch, &record)) {
    Status s = WalBatch::Iterate(
        record, [this, mem](SequenceNumber seq, ValueType type,
                            const Slice& key, const Slice& value) {
          mem->Add(seq, type, key, value);
          if (seq > last_sequence_.load(std::memory_order_relaxed)) {
            last_sequence_.store(seq, std::memory_order_relaxed);
          }
        });
    MONKEYDB_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

// monkey-lint: io-under-mutex(fn) — WAL rotation must be atomic with the
// memtable swap it accompanies: a commit between the swap and the new WAL
// would write into a log already slated for retirement. The close is a
// buffered-file teardown and the open a single create; both are the
// LevelDB-lineage rotation cost, paid under mu_ by design.
Status DB::NewWalLocked() {
  const uint64_t retired = wal_ != nullptr ? wal_number_ : 0;
  // monkey-lint: status-sink — the WAL being closed is already fully
  // synced by every committed group; close failure loses nothing.
  if (wal_ != nullptr) wal_->Close().IgnoreError();
  wal_number_++;
  std::unique_ptr<WritableFile> file;
  MONKEYDB_RETURN_IF_ERROR(
      options_.env->NewWritableFile(WalFileName(wal_number_), &file));
  wal_ = std::make_unique<WalWriter>(std::move(file));
  wal_->SetMetrics(metrics_.get());
  counters_.wal_rotations.fetch_add(1, std::memory_order_relaxed);
  if (HasObservers()) {
    WalRotationInfo info;
    info.retired_file_number = retired;
    info.new_file_number = wal_number_;
    if (options_.info_log != nullptr) {
      options_.info_log->Info("wal rotation: %llu -> %llu",
                              static_cast<unsigned long long>(retired),
                              static_cast<unsigned long long>(wal_number_));
    }
    NotifyListeners(
        [&info](EventListener* l) { l->OnWalRotation(info); });
  }
  return Status::OK();
}

// --- Read-view publication ---

void DB::PublishViewLocked() {
  auto view = std::make_shared<ReadView>();
  view->mem = mem_;
  view->imm.reserve(imm_.size());
  for (const ImmEntry& entry : imm_) view->imm.push_back(entry.mem);
  view->version = std::make_shared<const Version>(current_);
  MutexLock view_lock(view_mu_);
  view_ = std::move(view);
}

// --- Write path ---

Status DB::Put(const WriteOptions& options, const Slice& key,
               const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, batch);
}

Status DB::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, batch);
}

Status DB::Write(const WriteOptions& options, const WriteBatch& batch) {
  if (batch.count() == 0) return Status::OK();
  counters_.writes.fetch_add(1, std::memory_order_relaxed);
  StopWatch write_watch(metrics_.get(), Hist::kWriteLatency);
  if (PerfCountsEnabled()) GetPerfContext()->write_count++;
  TraceArmer trace_armer(options.trace || TraceSampleHead());
  TraceSpan write_span(TraceName::kDbWrite,
                       static_cast<int64_t>(batch.approximate_bytes()));
  Writer w(&batch, options.sync || options_.sync_writes, &mu_);
  MutexLock lock(mu_);
  writers_.push_back(&w);
  {
    // Queue wait: time parked behind the group-commit queue (zero for an
    // uncontended writer, which immediately becomes leader).
    StopWatch queue_watch(metrics_.get(), Hist::kWriteQueueWait);
    PerfTimer queue_timer(&GetPerfContext()->write_queue_wait_nanos);
    TraceSpan queue_span(TraceName::kWriteQueueWait);
    while (!w.done && &w != writers_.front()) {
      if (w.apply_assigned) {
        // Parallel group apply: the leader made this batch durable in the
        // group's WAL record and handed us its memtable insertion. Do it
        // (mu_ is released inside), then park again until the leader
        // publishes the group and marks us done.
        ApplyParallelWriter(&w);
        continue;
      }
      w.cv.Wait();
    }
    if (queue_span.armed()) queue_span.set_args(w.done ? 0 : 1);
  }
  if (w.done) {
    // A previous leader committed this batch.
    if (PerfCountsEnabled()) GetPerfContext()->write_groups_joined++;
    return w.status;
  }
  if (PerfCountsEnabled()) GetPerfContext()->write_groups_led++;

  // This thread is the group leader: it commits a prefix of the queue —
  // every batch that fits under max_write_group_bytes (its own always
  // does) — in one WAL append, then wakes the followers.
  std::vector<Writer*> group;
  size_t group_bytes = 0;
  for (Writer* writer : writers_) {
    if (!group.empty() &&
        group_bytes + writer->batch->approximate_bytes() >
            options_.max_write_group_bytes) {
      break;
    }
    group.push_back(writer);
    group_bytes += writer->batch->approximate_bytes();
  }
  counters_.write_groups.fetch_add(1, std::memory_order_relaxed);
  counters_.write_group_batches.fetch_add(group.size(),
                                          std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->Record(Hist::kWriteGroupSize, group.size());
  }

  Status status;
  if (!bg_error_.ok()) {
    status = bg_error_;
    for (Writer* writer : group) writer->status = status;
  } else {
    status = CommitGroupLocked(group);
  }

  // Trigger a flush before handing leadership over: MaybeCompactBuffer may
  // release mu_ (backpressure, synchronous compaction I/O), and keeping
  // this thread at the queue front for its duration stops a new leader
  // from committing into a memtable that is being swapped out. The flush
  // outcome is the leader's alone — the followers' batches are already
  // durably committed.
  if (status.ok()) {
    status = MaybeCompactBuffer();
  }

  // Pop the group and wake its members with their individual statuses.
  Writer* last_writer = group.back();
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) break;
  }
  if (!writers_.empty()) writers_.front()->cv.Signal();
  return status;
}

Status DB::CommitGroupLocked(const std::vector<Writer*>& group) {
  const SequenceNumber first_seq =
      last_sequence_.load(std::memory_order_relaxed) + 1;
  // The vlog/WAL appends and memtable inserts run with mu_ released so
  // enqueueing writers and the background worker proceed. mem_, wal_, and
  // vlog_ stay stable meanwhile: only the queue front commits, and every
  // maintenance path that swaps them first waits for commit_in_flight_ to
  // clear (holding mu_, which also blocks the next leader).
  commit_in_flight_ = true;

  // Hoisted out of the unlock window: the parallel-apply path reuses the
  // per-member resolutions after mu_ is reacquired, and the leader's
  // `resolved` vector must outlive the followers' insertions (they hold
  // raw pointers into it via Writer::apply_ops). It is flat across the
  // group: member i's ops start at first_op[i]. Values are slices into
  // the members' batches; only value-log handles need storage of their
  // own, in `handles`, reserved up front so no slice ever moves.
  std::vector<char> included(group.size(), 1);
  std::vector<size_t> first_op(group.size() + 1, 0);
  for (size_t i = 0; i < group.size(); i++) {
    first_op[i + 1] = first_op[i] + group[i]->batch->count();
  }
  std::vector<ResolvedOp> resolved(first_op.back());
  std::vector<std::string> handles;
  size_t included_members = 0;
  bool parallel_apply = false;
  {
    // The window: mem_/wal_/vlog_ are accessed with mu_ released, covered
    // by the commit_in_flight_ interlock described above (ScopedUnlock
    // hides the release from the thread-safety analysis by design).
    ScopedUnlock window(&mu_);

    // Key-value separation, resolved per member: large values go to the
    // value log first (so a WAL record's handle is durable only after its
    // value is). A member whose value-log append fails is excluded from the
    // group with its own error; the others still commit.
    if (vlog_ != nullptr) handles.reserve(resolved.size());
    for (size_t i = 0; i < group.size(); i++) {
      Writer* writer = group[i];
      const WriteBatch& batch = *writer->batch;
      ResolvedOp* ops = resolved.data() + first_op[i];
      Status member_status;
      for (size_t j = 0; j < batch.count(); j++) {
        const Slice value = batch.value(j);
        if (batch.type(j) == ValueType::kValue && vlog_ != nullptr &&
            value.size() >= options_.value_separation_threshold) {
          ValueHandle handle;
          member_status = vlog_->Add(value, writer->sync, &handle);
          if (!member_status.ok()) break;
          counters_.value_log_writes.fetch_add(1, std::memory_order_relaxed);
          counters_.value_log_bytes.fetch_add(value.size(),
                                              std::memory_order_relaxed);
          handles.emplace_back();
          handle.EncodeTo(&handles.back());
          ops[j] = ResolvedOp{ValueType::kValueHandle, Slice(handles.back())};
        } else {
          ops[j] = ResolvedOp{batch.type(j), value};
        }
      }
      if (!member_status.ok()) {
        included[i] = 0;
        writer->status = member_status;
      }
    }

    // One WAL record for the whole group; one fsync if any member asked.
    WalBatch wal_batch(first_seq);
    bool group_sync = false;
    size_t included_ops = 0;
    for (size_t i = 0; i < group.size(); i++) {
      if (!included[i]) continue;
      const WriteBatch& batch = *group[i]->batch;
      const ResolvedOp* ops = resolved.data() + first_op[i];
      for (size_t j = 0; j < batch.count(); j++) {
        wal_batch.Add(ops[j].type, batch.key(j), ops[j].value);
      }
      included_ops += batch.count();
      included_members++;
      if (group[i]->sync) group_sync = true;
    }

    if (included_ops > 0) {
      Status append_status;
      {
        // kWalWriteLatency covers the whole AddRecord (the fsync portion
        // is additionally broken out as kWalSyncLatency inside WalWriter).
        StopWatch wal_watch(metrics_.get(), Hist::kWalWriteLatency);
        PerfTimer wal_timer(&GetPerfContext()->wal_write_nanos);
        TraceSpan wal_span(
            TraceName::kWalAppend,
            static_cast<int64_t>(wal_batch.payload().size()),
            group_sync ? 1 : 0);
        append_status = wal_->AddRecord(wal_batch.payload(), group_sync);
      }
      counters_.wal_appends.fetch_add(1, std::memory_order_relaxed);
      if (group_sync) {
        counters_.wal_syncs.fetch_add(1, std::memory_order_relaxed);
      }
      if (append_status.ok() && options_.allow_concurrent_memtable_write &&
          mem_->concurrent_inserts() && included_members > 1) {
        // The record is durable and more than one writer contributed:
        // apply it in parallel instead. The assignment must happen under
        // mu_ (it signals the followers' queue cvs), so just mark the
        // decision here and fall through past the window.
        parallel_apply = true;
      } else if (append_status.ok()) {
        // Apply with contiguous sequence numbers in queue order. Published
        // once at the end: readers filter by last_sequence_, so no prefix of
        // the group (or of any batch) ever becomes visible.
        StopWatch apply_watch(metrics_.get(), Hist::kMemtableApplyLatency);
        PerfTimer apply_timer(&GetPerfContext()->memtable_apply_nanos);
        TraceSpan apply_span(TraceName::kMemtableApply,
                             static_cast<int64_t>(included_members));
        SequenceNumber seq = first_seq;
        for (size_t i = 0; i < group.size(); i++) {
          if (!included[i]) continue;
          ApplyResolved(mem_.get(), seq, *group[i]->batch,
                        resolved.data() + first_op[i]);
          seq += group[i]->batch->count();
          group[i]->status = Status::OK();
        }
        last_sequence_.store(seq - 1, std::memory_order_release);
      } else {
        // Not applied and possibly not durable: every included member fails.
        for (size_t i = 0; i < group.size(); i++) {
          if (included[i]) group[i]->status = append_status;
        }
      }
    }

  }

  if (parallel_apply) {
    // Parallel group application (allow_concurrent_memtable_write). With
    // mu_ held, hand every included follower a contiguous sequence chunk
    // (queue order — the exact assignment the serial path would make) and
    // wake it; each inserts its own batch into the memtable concurrently
    // via the skiplist's lock-free splices. commit_in_flight_ keeps mem_
    // stable for the raw pointers while mu_ is released.
    MemTable* mem_raw = mem_.get();
    const bool leader_included = included[0] != 0;
    ParallelApplyState state(static_cast<int>(included_members) -
                             (leader_included ? 1 : 0));
    SequenceNumber seq = first_seq;
    SequenceNumber leader_seq = 0;
    for (size_t i = 0; i < group.size(); i++) {
      if (!included[i]) continue;
      Writer* writer = group[i];
      const SequenceNumber member_first = seq;
      seq += writer->batch->count();
      if (i == 0) {
        leader_seq = member_first;
        continue;  // The leader applies its own batch itself, below.
      }
      writer->apply_first_seq = member_first;
      writer->apply_ops = resolved.data() + first_op[i];
      writer->apply_state = &state;
      writer->apply_mem = mem_raw;
      writer->apply_assigned = true;
      writer->cv.Signal();
    }
    const SequenceNumber end_seq = seq - 1;
    counters_.memtable_parallel_groups.fetch_add(1,
                                                 std::memory_order_relaxed);
    counters_.memtable_parallel_batches.fetch_add(
        included_members, std::memory_order_relaxed);
    if (metrics_ != nullptr) {
      metrics_->Record(Hist::kParallelApplyFanout, included_members);
    }
    {
      ScopedUnlock window(&mu_);
      StopWatch apply_watch(metrics_.get(), Hist::kMemtableApplyLatency);
      PerfTimer apply_timer(&GetPerfContext()->memtable_apply_nanos);
      TraceSpan apply_span(TraceName::kMemtableApply,
                           static_cast<int64_t>(included_members));
      if (leader_included) {
        ApplyResolved(mem_raw, leader_seq, *group[0]->batch, resolved.data());
        group[0]->status = Status::OK();
      }
      // Last-writer-out barrier: wait for every follower's insertions
      // before publishing the group's sequence, so readers never observe
      // a half-applied group. The followers' release decrements pair with
      // this acquire load, ordering their Adds (and their Status writes)
      // before the store below.
      {
        MutexLock barrier(state.mu);
        while (state.remaining.load(std::memory_order_acquire) > 0) {
          state.cv.Wait();
        }
      }
      last_sequence_.store(end_seq, std::memory_order_release);
    }
  }

  commit_in_flight_ = false;
  commit_cv_.SignalAll();
  return group[0]->status;
}

void DB::ApplyParallelWriter(Writer* w) {
  ParallelApplyState* state = w->apply_state;
  {
    // Same interlock story as the leader's window: the group's leader set
    // commit_in_flight_ and cannot clear it until this writer decrements
    // `remaining`, so apply_mem and apply_ops stay alive and stable.
    ScopedUnlock window(&mu_);
    PerfTimer apply_timer(&GetPerfContext()->memtable_apply_nanos);
    ApplyResolved(w->apply_mem, w->apply_first_seq, *w->batch, w->apply_ops);
    w->status = Status::OK();
    // Release decrement: publishes this writer's Adds and status to the
    // leader's acquire load. Decrement and signal under the barrier mutex:
    // the leader destroys `state` as soon as it reads zero under that
    // mutex, so the last writer must be done with it before the leader can
    // look (and the leader's check and wait cannot miss the decrement).
    MutexLock barrier(state->mu);
    if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      state->cv.Signal();
    }
  }
  // Back under mu_; `state` may be gone already (the leader only waits
  // for the decrement), so only this writer's own fields are touched.
  w->apply_assigned = false;
  w->apply_ops = nullptr;
  w->apply_state = nullptr;
  w->apply_mem = nullptr;
}

void DB::ApplyResolved(MemTable* mem, SequenceNumber first_seq,
                       const WriteBatch& batch, const ResolvedOp* ops) {
  for (size_t j = 0; j < batch.count(); j++) {
    mem->Add(first_seq + j, ops[j].type, batch.key(j), ops[j].value);
  }
}

void DB::AccumulateMemTableStats(const MemTable& mem) {
  if (!mem.concurrent_inserts()) return;
  const ConcurrentArena::StatsSnapshot s = mem.arena_stats();
  counters_.arena_cas_retries.fetch_add(s.cas_retries,
                                        std::memory_order_relaxed);
  counters_.arena_slow_allocs.fetch_add(s.slow_allocs,
                                        std::memory_order_relaxed);
  counters_.arena_shard_refills.fetch_add(s.shard_refills,
                                          std::memory_order_relaxed);
  counters_.arena_hugetlb_blocks.fetch_add(s.hugetlb_blocks,
                                           std::memory_order_relaxed);
  counters_.arena_thp_blocks.fetch_add(s.thp_blocks,
                                       std::memory_order_relaxed);
  counters_.arena_plain_blocks.fetch_add(s.plain_blocks,
                                         std::memory_order_relaxed);
  counters_.skiplist_cas_retries.fetch_add(mem.skiplist_cas_retries(),
                                           std::memory_order_relaxed);
}

Status DB::MaybeCompactBuffer() {
  if (mem_->ApproximateMemoryUsage() < options_.buffer_size_bytes) {
    return Status::OK();
  }
  if (options_.background_compaction) return SwitchMemTable();
  Status s = FlushActiveMemTableLocked();
  DrainObsoleteFilesLocked();
  return s;
}

Status DB::SwitchMemTable() {
  // Soft backpressure: one queue slot left — slow this writer down to give
  // the worker a head start before the hard stall.
  if (options_.max_immutable_memtables >= 2 &&
      static_cast<int>(imm_.size()) == options_.max_immutable_memtables - 1) {
    counters_.write_slowdowns.fetch_add(1, std::memory_order_relaxed);
    SetStallCondition(WriteStallInfo::Condition::kSlowdown);
    mu_.Unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mu_.Lock();
  }
  while (static_cast<int>(imm_.size()) >= options_.max_immutable_memtables &&
         bg_error_.ok() && !shutting_down_) {
    counters_.write_stalls.fetch_add(1, std::memory_order_relaxed);
    SetStallCondition(WriteStallInfo::Condition::kStalled);
    bg_done_cv_.Wait();
  }
  SetStallCondition(WriteStallInfo::Condition::kNormal);
  if (!bg_error_.ok()) return bg_error_;
  if (shutting_down_) return Status::IoError("shutting down");

  // Never swap mem_/wal_ out from under a group-commit leader working
  // outside mu_ (this caller may not be the leader: Flush() and the stall
  // wait above release mu_, so a commit can be in flight here).
  while (commit_in_flight_) commit_cv_.Wait();

  // The frozen memtable takes no more Adds (the commit wait above), so
  // its contention counters are final: fold them into the DB aggregates.
  AccumulateMemTableStats(*mem_);
  imm_.insert(imm_.begin(), ImmEntry{mem_, wal_number_});
  MONKEYDB_RETURN_IF_ERROR(NewWalLocked());
  mem_ = std::make_shared<MemTable>(MemTableOptionsFromDb(options_));
  PublishViewLocked();
  bg_work_cv_.Signal();
  return Status::OK();
}

Status DB::FlushActiveMemTableLocked() {
  // A group-commit leader may be mid-commit outside mu_ when an external
  // Flush()/CompactAll() lands here; wait it out before touching mem_/wal_.
  // (The caller holds mu_ from here on, so no new commit can start.)
  while (commit_in_flight_) commit_cv_.Wait();
  if (mem_->num_entries() == 0) return Status::OK();
  MONKEYDB_RETURN_IF_ERROR(FlushMemTable(mem_, /*io_unlock=*/false));
  MONKEYDB_RETURN_IF_ERROR(Cascade(/*io_unlock=*/false));
  // The flushed entries are durable as a run; retire their WAL. The
  // unlink is queued — every caller drains right after this returns.
  const uint64_t old_wal = wal_number_;
  MONKEYDB_RETURN_IF_ERROR(NewWalLocked());
  obsolete_files_.push_back(WalFileName(old_wal));
  return Status::OK();
}

// --- Background worker ---

void DB::BackgroundMain() {
  MutexLock lock(mu_);
  while (true) {
    while (!(shutting_down_ ||
             (bg_error_.ok() &&
              (!imm_.empty() || PickCompactionLocked().has_value())))) {
      bg_work_cv_.Wait();
    }
    // Pending frozen memtables stay durable in their WALs and are replayed
    // on the next Open.
    if (shutting_down_) break;
    worker_busy_ = true;
    // Flushes outrank merges: a cascade abandoned mid-way (its early-exit
    // fires when a frozen memtable arrives) leaves a step to pick, so the
    // loop comes back to it once the queue is drained.
    Status s = !imm_.empty() ? FlushOldestImmutable()
                             : Cascade(/*io_unlock=*/true);
    // Unlink retired files before clearing worker_busy_: WaitForDrain
    // returns once the worker idles, and "drained" includes the disk
    // reflecting the new tree.
    DrainObsoleteFilesLocked();
    worker_busy_ = false;
    if (!s.ok() && bg_error_.ok()) bg_error_ = s;
    bg_done_cv_.SignalAll();
  }
}

Status DB::FlushOldestImmutable() {
  ImmEntry entry = imm_.back();
  MONKEYDB_RETURN_IF_ERROR(FlushMemTable(entry.mem, /*io_unlock=*/true));
  // Retire the frozen memtable and the WAL that kept it durable. The pop
  // happens after its run is published, so readers always see the entries
  // in at least one place (briefly in both — duplicates at equal sequence
  // numbers resolve identically). It also happens BEFORE the cascades, so
  // their flush-priority early-exit only triggers for newly frozen
  // memtables, not the one whose entries were just persisted.
  imm_.pop_back();
  PublishViewLocked();
  obsolete_files_.push_back(WalFileName(entry.wal_number));
  return Cascade(/*io_unlock=*/true);
}

Status DB::WaitForDrain() {
  // The worker is awake whenever work exists (it only sleeps at a true
  // fixpoint), but nudge it anyway in case this caller created work
  // without a notification.
  bg_work_cv_.Signal();
  while ((!imm_.empty() || worker_busy_ ||
          PickCompactionLocked().has_value()) &&
         bg_error_.ok() && !shutting_down_) {
    bg_done_cv_.Wait();
  }
  return bg_error_;
}

const Snapshot* DB::GetSnapshot() {
  MutexLock lock(mu_);
  const SequenceNumber seq = last_sequence_.load(std::memory_order_relaxed);
  snapshots_.insert(seq);
  return new Snapshot(seq);
}

void DB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) return;
  {
    MutexLock lock(mu_);
    auto it = snapshots_.find(snapshot->sequence());
    if (it != snapshots_.end()) snapshots_.erase(it);
  }
  delete snapshot;
}

SequenceNumber DB::SmallestSnapshotLocked() const {
  return snapshots_.empty() ? last_sequence_.load(std::memory_order_relaxed)
                            : *snapshots_.begin();
}

// RAII around one merge: bumps the merge counter on entry, fires
// OnCompactionBegin immediately, and on destruction records
// Hist::kMergeLatency and fires OnCompactionCompleted — with ok=false
// unless Completed() ran, so early error returns report the failure.
class DB::CompactionScope {
 public:
  CompactionScope(DB* db, CompactionJobInfo info)
      : db_(db),
        info_(info),
        timer_(db->metrics_ != nullptr || db->HasObservers()) {
    db_->counters_.merges.fetch_add(1, std::memory_order_relaxed);
    if (!db_->HasObservers()) return;
    if (db_->options_.info_log != nullptr) {
      db_->options_.info_log->Info(
          "compaction begin: L%d -> L%d (%llu runs, %llu entries)",
          info_.input_level, info_.output_level,
          static_cast<unsigned long long>(info_.input_runs),
          static_cast<unsigned long long>(info_.input_entries));
    }
    db_->NotifyListeners(
        [this](EventListener* l) { l->OnCompactionBegin(info_); });
  }

  // Success epilogue. subcompactions is the number of output runs the
  // merge produced in parallel (1 for unpartitioned merges).
  void Completed(uint64_t output_entries, uint64_t subcompactions) {
    info_.output_entries = output_entries;
    info_.subcompactions = subcompactions > 0 ? subcompactions : 1;
    ok_ = true;
  }

  ~CompactionScope() {
    info_.micros = timer_.ElapsedMicros();
    info_.ok = ok_;
    if (db_->metrics_ != nullptr) {
      db_->metrics_->Record(Hist::kMergeLatency, info_.micros);
    }
    if (!db_->HasObservers()) return;
    if (db_->options_.info_log != nullptr) {
      db_->options_.info_log->Log(
          ok_ ? LogLevel::kInfo : LogLevel::kError,
          "compaction end: L%d -> L%d, %llu entries out, %llu us%s",
          info_.input_level, info_.output_level,
          static_cast<unsigned long long>(info_.output_entries),
          static_cast<unsigned long long>(info_.micros),
          ok_ ? "" : " (failed)");
    }
    db_->NotifyListeners(
        [this](EventListener* l) { l->OnCompactionCompleted(info_); });
  }

  CompactionScope(const CompactionScope&) = delete;
  CompactionScope& operator=(const CompactionScope&) = delete;

 private:
  DB* db_;
  CompactionJobInfo info_;
  OptionalTimer timer_;
  bool ok_ = false;
};

Status DB::Flush() {
  MutexLock lock(mu_);
  if (options_.background_compaction) {
    if (!bg_error_.ok()) return bg_error_;
    if (mem_->num_entries() > 0) {
      MONKEYDB_RETURN_IF_ERROR(SwitchMemTable());
    }
    return WaitForDrain();
  }
  Status s = FlushActiveMemTableLocked();
  DrainObsoleteFilesLocked();
  return s;
}

Status DB::CompactAll() {
  MutexLock lock(mu_);
  if (options_.background_compaction) {
    if (!bg_error_.ok()) return bg_error_;
    if (mem_->num_entries() > 0) {
      MONKEYDB_RETURN_IF_ERROR(SwitchMemTable());
    }
    MONKEYDB_RETURN_IF_ERROR(WaitForDrain());
    // The worker is idle and the queue empty; mu_ is held for the rest of
    // the merge, so the tree is stable (writers block — CompactAll is a
    // stop-the-world maintenance operation).
  } else {
    MONKEYDB_RETURN_IF_ERROR(FlushActiveMemTableLocked());
  }
  const int target = std::max(1, current_.DeepestNonEmptyLevel());

  VersionEdit edit;
  std::vector<std::unique_ptr<Iterator>> children;
  for (int level = 1; level <= current_.NumLevels(); level++) {
    for (const RunPtr& run : current_.RunsAt(level)) {
      children.push_back(run->table->NewIterator());
      edit.deleted_files.push_back(run->file_number);
    }
  }
  if (children.empty()) return Status::OK();
  CompactionJobInfo cinfo;
  cinfo.input_level = 1;
  cinfo.output_level = target;
  cinfo.input_runs = children.size();
  cinfo.input_entries = current_.TotalEntries();
  CompactionScope scope(this, cinfo);

  auto merged = NewMergingIterator(std::move(children));
  RunPtr out;
  MONKEYDB_RETURN_IF_ERROR(BuildRun(merged.get(), target,
                                    /*drop_tombstones=*/true,
                                    current_.TotalEntries(), &out,
                                    /*io_unlock=*/false));
  scope.Completed(out != nullptr ? out->num_entries : 0, 1);
  if (out != nullptr) {
    edit.added.push_back(AddedRunOf(target, *out));
  }
  for (auto& level : *current_.mutable_levels()) level.clear();
  if (out != nullptr) {
    (*current_.mutable_levels())[target - 1].push_back(out);
  }
  Status s = LogAndApply(edit);
  // The merge is published; the stop-the-world window can end, so the
  // unlinks run with writers admitted again.
  DrainObsoleteFilesLocked();
  return s;
}

// --- Read path ---

Status DB::Get(const ReadOptions& options, const Slice& key,
               std::string* value) {
  counters_.gets.fetch_add(1, std::memory_order_relaxed);
  StopWatch get_watch(metrics_.get(), Hist::kGetLatency);
  PerfTimer get_timer(&GetPerfContext()->get_nanos);
  if (PerfCountsEnabled()) GetPerfContext()->get_count++;
  TraceArmer trace_armer(options.trace || TraceSampleHead());
  TraceSpan get_span(TraceName::kDbGet);

  // Pin the view BEFORE loading the read sequence. Each run in the view was
  // built by a job whose smallest_snapshot was at most the sequence when
  // the job started, so the newest version of a key at or below a sequence
  // loaded now survived in it. (Loading the sequence first would let a
  // flush publish in between and drop that version, hiding the key.) Every
  // write acknowledged before this call is in one of the view's memtables.
  const std::shared_ptr<const ReadView> view = CurrentView();
  const SequenceNumber read_seq =
      options.snapshot != nullptr
          ? options.snapshot->sequence()
          : last_sequence_.load(std::memory_order_acquire);
  LookupKey lookup(key, read_seq);

  // 1. The buffer (Level 0): active memtable, then frozen ones newest-first.
  {
    PerfTimer mem_timer(&GetPerfContext()->memtable_lookup_nanos);
    TraceSpan mem_span(TraceName::kMemtableProbe);
    bool found_entry = false;
    ValueType type = ValueType::kValue;
    int memtables_probed = 0;
    for (const MemTable* mem : view->MemTables()) {
      memtables_probed++;
      Status s = mem->Get(lookup, value, &found_entry, &type);
      if (found_entry) {
        if (PerfCountsEnabled()) GetPerfContext()->memtable_hits++;
        if (mem_span.armed()) mem_span.set_args(memtables_probed, 1);
        if (get_span.armed()) get_span.set_args(1);
        if (s.ok() && type == ValueType::kValueHandle) {
          return ResolveHandle(value);
        }
        return s;
      }
    }
    if (mem_span.armed()) mem_span.set_args(memtables_probed, 0);
  }

  // 2. Disk levels, shallowest to deepest; runs newest to oldest.
  const Version& version = *view->version;
  const bool perf = PerfCountsEnabled();
  // Predicted per-level FPR for kRunProbe annotations (the allocator's
  // Eq. 5/6 plan, in parts-per-billion so the arg stays integral).
  // Computed once, and only for armed requests.
  const bool traced = get_span.armed();
  LsmShape trace_shape;
  const FprAllocationPolicy* trace_policy = nullptr;
  if (traced) {
    trace_shape = CurrentShape();
    trace_policy = options_.fpr_policy != nullptr ? options_.fpr_policy.get()
                                                  : DefaultFprPolicy();
  }
  const bool leveled = options_.merge_policy == MergePolicy::kLeveling;
  for (int level = 1; level <= version.NumLevels(); level++) {
    // Stats index the first on-disk level as 0 and clamp at the array end.
    const int sl = StatLevel(level - 1);
    for (const RunPtr& run :
         RunsToProbe(version.RunsAt(level), leveled, key)) {
      TableLookupResult result;
      ValueType type = ValueType::kValue;
      TraceSpan run_span(TraceName::kRunProbe, level);
      MONKEYDB_RETURN_IF_ERROR(
          run->table->Get(lookup, value, &result, &type));
      if (run_span.armed()) {
        run_span.set_args(
            level, static_cast<int64_t>(result),
            static_cast<int64_t>(trace_policy->RunFpr(trace_shape, level) *
                                 1e9));
      }
      switch (result) {
        case TableLookupResult::kFound:
          counters_.runs_probed.fetch_add(1, std::memory_order_relaxed);
          counters_.runs_probed_per_level[sl].fetch_add(
              1, std::memory_order_relaxed);
          if (perf) {
            GetPerfContext()->runs_probed++;
            GetPerfContext()->runs_probed_per_level[sl]++;
          }
          if (get_span.armed()) get_span.set_args(1);
          if (type == ValueType::kValueHandle) return ResolveHandle(value);
          return Status::OK();
        case TableLookupResult::kDeleted:
          counters_.runs_probed.fetch_add(1, std::memory_order_relaxed);
          counters_.runs_probed_per_level[sl].fetch_add(
              1, std::memory_order_relaxed);
          if (perf) {
            GetPerfContext()->runs_probed++;
            GetPerfContext()->runs_probed_per_level[sl]++;
          }
          return Status::NotFound("deleted");
        case TableLookupResult::kNotPresent:
          counters_.runs_probed.fetch_add(1, std::memory_order_relaxed);
          counters_.runs_probed_per_level[sl].fetch_add(
              1, std::memory_order_relaxed);
          counters_.false_positives.fetch_add(1, std::memory_order_relaxed);
          counters_.false_positives_per_level[sl].fetch_add(
              1, std::memory_order_relaxed);
          if (perf) {
            GetPerfContext()->runs_probed++;
            GetPerfContext()->runs_probed_per_level[sl]++;
            GetPerfContext()->bloom_false_positives++;
            GetPerfContext()->false_positives_per_level[sl]++;
          }
          break;
        case TableLookupResult::kFilteredOut:
          counters_.filter_negatives.fetch_add(1, std::memory_order_relaxed);
          counters_.filter_negatives_per_level[sl].fetch_add(
              1, std::memory_order_relaxed);
          if (perf) {
            GetPerfContext()->filter_negatives_per_level[sl]++;
          }
          break;
      }
    }
  }
  // A bare NotFound is the paper's zero-result lookup: every disk access it
  // performed was a Bloom false positive (measured R in DumpMetrics).
  counters_.gets_not_found.fetch_add(1, std::memory_order_relaxed);
  return Status::NotFound();
}

std::vector<Status> DB::MultiGet(const ReadOptions& options,
                                 const std::vector<Slice>& keys,
                                 std::vector<std::string>* values) {
  counters_.multigets.fetch_add(1, std::memory_order_relaxed);
  counters_.gets.fetch_add(keys.size(), std::memory_order_relaxed);
  StopWatch batch_watch(metrics_.get(), Hist::kMultiGetLatency);
  TraceArmer trace_armer(options.trace || TraceSampleHead());
  TraceSpan batch_span(TraceName::kDbMultiGet,
                       static_cast<int64_t>(keys.size()));

  values->assign(keys.size(), std::string());
  std::vector<Status> statuses(keys.size(), Status::OK());
  if (keys.empty()) return statuses;

  // One snapshot for the whole batch (view before sequence, as in Get).
  const std::shared_ptr<const ReadView> view = CurrentView();
  const SequenceNumber read_seq =
      options.snapshot != nullptr
          ? options.snapshot->sequence()
          : last_sequence_.load(std::memory_order_acquire);

  std::vector<LookupKey> lookups;
  lookups.reserve(keys.size());
  for (const Slice& key : keys) lookups.emplace_back(key, read_seq);

  // Stage 1: the buffer (Level 0) — no I/O. Keys resolved here never reach
  // the disk stages.
  std::vector<bool> resolved(keys.size(), false);
  size_t unresolved = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    bool found_entry = false;
    ValueType type = ValueType::kValue;
    for (const MemTable* mem : view->MemTables()) {
      Status s = mem->Get(lookups[i], &(*values)[i], &found_entry, &type);
      if (found_entry) {
        if (s.ok() && type == ValueType::kValueHandle) {
          s = ResolveHandle(&(*values)[i]);
        }
        statuses[i] = s;
        resolved[i] = true;
        break;
      }
    }
    if (!resolved[i]) unresolved++;
  }

  if (unresolved == 0) return statuses;

  // Stage 2: plan the disk probes — every (key, run) Bloom-filter and
  // fence-pointer probe up front, still no I/O. Each surviving probe names
  // exactly one data block.
  const Version& version = *view->version;
  struct Probe {
    const TableReader* table;
    BlockHandle handle;
    uint64_t file_number;
    int stat_level;  // StatLevel(level - 1) of the run that planned it.
  };
  // Per key, in run order (shallowest level first, runs newest first) —
  // the runs Get would probe, in the order it would probe them.
  const bool leveled = options_.merge_policy == MergePolicy::kLeveling;
  std::vector<std::vector<Probe>> probes(keys.size());
  for (int level = 1; level <= version.NumLevels(); level++) {
    const int sl = StatLevel(level - 1);
    for (size_t i = 0; i < keys.size(); i++) {
      if (resolved[i]) continue;
      for (const RunPtr& run :
           RunsToProbe(version.RunsAt(level), leveled, keys[i])) {
        TableReader::ProbeState state;
        BlockHandle handle;
        Status s = run->table->FindBlockHandle(lookups[i], &handle, &state);
        if (!s.ok()) {
          statuses[i] = s;
          resolved[i] = true;
          break;
        }
        switch (state) {
          case TableReader::ProbeState::kBlockNeeded:
            probes[i].push_back(Probe{run->table.get(), handle,
                                      run->file_number, sl});
            break;
          case TableReader::ProbeState::kFilteredOut:
            counters_.filter_negatives.fetch_add(1,
                                                 std::memory_order_relaxed);
            counters_.filter_negatives_per_level[sl].fetch_add(
                1, std::memory_order_relaxed);
            if (PerfCountsEnabled()) {
              GetPerfContext()->filter_negatives_per_level[sl]++;
            }
            break;
          case TableReader::ProbeState::kNoBlock:
            break;
        }
      }
    }
  }

  // Stage 3: fetch the surviving blocks together. Dedup (several keys can
  // share a block) and order by (file, offset) — one sorted pass over the
  // devices. Hints go out for every block before the first read, so the
  // reads overlap; the pool then fans them out when available.
  struct BlockFetch {
    const TableReader* table;
    BlockHandle handle;
    Status status;
    std::shared_ptr<const std::string> contents;
  };
  std::map<std::pair<uint64_t, uint64_t>, size_t> fetch_index;
  std::vector<BlockFetch> fetches;
  for (size_t i = 0; i < keys.size(); i++) {
    for (const Probe& probe : probes[i]) {
      fetch_index.emplace(
          std::make_pair(probe.file_number, probe.handle.offset),
          fetch_index.size());
    }
  }
  fetches.resize(fetch_index.size());
  for (size_t i = 0; i < keys.size(); i++) {
    for (const Probe& probe : probes[i]) {
      const size_t fi = fetch_index.at(
          std::make_pair(probe.file_number, probe.handle.offset));
      fetches[fi].table = probe.table;
      fetches[fi].handle = probe.handle;
    }
  }
  // fetch_index iterates in (file, offset) order.
  std::vector<size_t> fetch_order;
  fetch_order.reserve(fetches.size());
  for (const auto& [key, fi] : fetch_index) fetch_order.push_back(fi);

  // Partition the (sorted, hence per-table contiguous) plan: multi-block
  // groups on batch-capable tables are submitted to the device as ONE
  // ReadBatch each — the whole per-table fetch plan in one io_uring_enter
  // on the uring backend. Everything else keeps the classic path: an
  // async-read hint per block, then per-block fan-out.
  struct BatchGroup {
    const TableReader* table;
    std::vector<size_t> fis;
  };
  std::vector<BatchGroup> groups;
  std::vector<size_t> singles;
  for (size_t pos = 0; pos < fetch_order.size();) {
    const TableReader* table = fetches[fetch_order[pos]].table;
    size_t end = pos;
    while (end < fetch_order.size() &&
           fetches[fetch_order[end]].table == table) {
      end++;
    }
    if (table->SupportsBatchReads() && end - pos > 1) {
      groups.push_back(BatchGroup{
          table, std::vector<size_t>(fetch_order.begin() + pos,
                                     fetch_order.begin() + end)});
    } else {
      for (size_t k = pos; k < end; k++) singles.push_back(fetch_order[k]);
    }
    pos = end;
  }
  // Hints go out for every classic-path block before the first read, so
  // those reads overlap. Batched groups need no hints: the single
  // submission is the overlap mechanism.
  for (size_t fi : singles) {
    fetches[fi].table->HintBlock(fetches[fi].handle);
  }
  auto fetch_one = [&fetches](size_t fi) {
    BlockFetch& f = fetches[fi];
    f.status = f.table->ReadBlockShared(
        f.handle, BlockCache::InsertPriority::kHigh, &f.contents);
  };
  auto fetch_group = [&fetches](const BatchGroup& g) {
    std::vector<BlockHandle> handles(g.fis.size());
    std::vector<std::shared_ptr<const std::string>> contents(g.fis.size());
    std::vector<Status> statuses(g.fis.size());
    for (size_t k = 0; k < g.fis.size(); k++) {
      handles[k] = fetches[g.fis[k]].handle;
    }
    Status batch = g.table->ReadBlocksShared(
        handles.data(), handles.size(), BlockCache::InsertPriority::kHigh,
        contents.data(), statuses.data());
    for (size_t k = 0; k < g.fis.size(); k++) {
      BlockFetch& f = fetches[g.fis[k]];
      f.status = batch.ok() ? statuses[k] : batch;
      f.contents = std::move(contents[k]);
    }
  };
  const size_t num_tasks = singles.size() + groups.size();
  if (read_pool_ != nullptr && num_tasks > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_tasks);
    for (size_t fi : singles) {
      tasks.push_back([&fetch_one, fi] { fetch_one(fi); });
    }
    for (const BatchGroup& g : groups) {
      tasks.push_back([&fetch_group, &g] { fetch_group(g); });
    }
    read_pool_->RunBatch(std::move(tasks));
  } else {
    for (size_t fi : singles) fetch_one(fi);
    for (const BatchGroup& g : groups) fetch_group(g);
  }

  // Stage 4: resolve each key against its blocks in run order (newest
  // first), matching Get's shadowing semantics. Blocks fetched beyond a
  // key's resolution point are speculative I/O already done; they are not
  // counted as probes.
  for (size_t i = 0; i < keys.size(); i++) {
    if (resolved[i]) continue;
    statuses[i] = Status::NotFound();
    bool decided = false;
    for (const Probe& probe : probes[i]) {
      const BlockFetch& f = fetches[fetch_index.at(
          std::make_pair(probe.file_number, probe.handle.offset))];
      if (!f.status.ok()) {
        statuses[i] = f.status;
        decided = true;
        break;
      }
      TableLookupResult result;
      ValueType type = ValueType::kValue;
      Status s = probe.table->SearchBlock(f.contents, lookups[i],
                                          &(*values)[i], &result, &type);
      if (!s.ok()) {
        statuses[i] = s;
        decided = true;
        break;
      }
      counters_.runs_probed.fetch_add(1, std::memory_order_relaxed);
      counters_.runs_probed_per_level[probe.stat_level].fetch_add(
          1, std::memory_order_relaxed);
      if (PerfCountsEnabled()) {
        GetPerfContext()->runs_probed++;
        GetPerfContext()->runs_probed_per_level[probe.stat_level]++;
      }
      if (result == TableLookupResult::kFound) {
        statuses[i] = type == ValueType::kValueHandle
                          ? ResolveHandle(&(*values)[i])
                          : Status::OK();
        decided = true;
        break;
      }
      if (result == TableLookupResult::kDeleted) {
        statuses[i] = Status::NotFound("deleted");
        decided = true;
        break;
      }
      // kNotPresent: Bloom false positive; keep going.
      counters_.false_positives.fetch_add(1, std::memory_order_relaxed);
      counters_.false_positives_per_level[probe.stat_level].fetch_add(
          1, std::memory_order_relaxed);
      if (PerfCountsEnabled()) {
        GetPerfContext()->bloom_false_positives++;
        GetPerfContext()->false_positives_per_level[probe.stat_level]++;
      }
    }
    if (!decided) {
      // Ran out of candidate blocks: a zero-result lookup.
      counters_.gets_not_found.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return statuses;
}

// Replaces *value (an encoded ValueHandle) with the value it points at.
Status DB::ResolveHandle(std::string* value) const {
  if (vlog_ == nullptr) {
    return Status::Corruption("value handle found but no value log open");
  }
  ValueHandle handle;
  Slice input(*value);
  if (!handle.DecodeFrom(&input)) {
    return Status::Corruption("malformed value handle");
  }
  counters_.value_log_reads.fetch_add(1, std::memory_order_relaxed);
  if (PerfCountsEnabled()) GetPerfContext()->value_log_reads++;
  PerfTimer timer(&GetPerfContext()->value_log_read_nanos);
  return vlog_->Get(handle, value);
}

// --- Flush & compaction ---

uint64_t DB::LevelCapacityEntries(int level) const {
  // Paper Fig. 2: Level i holds up to B·P·T^i entries.
  const double cap =
      static_cast<double>(buffer_entries_.load(std::memory_order_relaxed)) *
      std::pow(options_.size_ratio, level);
  return static_cast<uint64_t>(cap);
}

bool DB::CanDropTombstones(int output_level) const {
  for (int level = output_level + 1; level <= current_.NumLevels(); level++) {
    if (!current_.RunsAt(level).empty()) return false;
  }
  return true;
}

DB::CompactionJob DB::PrepareJobLocked(int target_level,
                                       bool drop_tombstones,
                                       uint64_t estimated_entries) {
  // Size the filter for this run via the allocation policy, handing it the
  // tree's capacity geometry.
  const FprAllocationPolicy* policy = options_.fpr_policy != nullptr
                                          ? options_.fpr_policy.get()
                                          : DefaultFprPolicy();
  uint64_t pending_mem_entries = mem_->num_entries();
  for (const ImmEntry& entry : imm_) {
    pending_mem_entries += entry.mem->num_entries();
  }
  const uint64_t buffer_entries =
      buffer_entries_.load(std::memory_order_relaxed);
  LsmShape shape;
  shape.total_entries =
      std::max(current_.TotalEntries() + pending_mem_entries,
               options_.expected_entries);
  shape.buffer_entries =
      buffer_entries > 0 ? buffer_entries : mem_->num_entries();
  shape.size_ratio = options_.size_ratio;
  shape.num_levels = std::max(current_.DeepestNonEmptyLevel(), target_level);
  shape.merge_policy = options_.merge_policy;
  shape.bits_per_entry_budget = options_.bits_per_entry;

  CompactionJob job;
  job.target_level = target_level;
  job.drop_tombstones = drop_tombstones;
  job.fpr = policy->RunFpr(shape, target_level);
  job.entry_bound = estimated_entries;
  job.file_number = next_file_number_++;
  job.smallest_snapshot = SmallestSnapshotLocked();
  job.run_sequence = last_sequence_.load(std::memory_order_relaxed);

  // Surface Monkey's per-level allocation decisions: fire whenever the
  // policy assigns this level a different FPR than the last run built there.
  const int sl = StatLevel(target_level - 1);
  const double prev_fpr = last_fpr_per_level_[sl];
  if (job.fpr != prev_fpr) {
    last_fpr_per_level_[sl] = job.fpr;
    if (HasObservers()) {
      FilterAllocationInfo finfo;
      finfo.level = target_level;
      finfo.previous_fpr = prev_fpr;
      finfo.fpr = job.fpr;
      finfo.run_entries = std::max<uint64_t>(estimated_entries, 1);
      if (options_.info_log != nullptr) {
        options_.info_log->Info(
            "filter allocation: L%d fpr %.6g -> %.6g (%llu entries)",
            finfo.level, finfo.previous_fpr, finfo.fpr,
            static_cast<unsigned long long>(finfo.run_entries));
      }
      NotifyListeners(
          [&finfo](EventListener* l) { l->OnFilterAllocation(finfo); });
    }
  }
  return job;
}

Status DB::BuildRunFromJob(Iterator* iter, const CompactionJob& job,
                           RunPtr* out) {
  const std::string fname = TableFileName(job.file_number);
  std::unique_ptr<WritableFile> file;
  MONKEYDB_RETURN_IF_ERROR(options_.env->NewWritableFile(fname, &file));

  TableBuilderOptions topts;
  topts.block_size = options_.page_size;
  topts.filter_fpr = job.fpr;
  topts.expected_entries = job.entry_bound;
  TableBuilder builder(topts, file.get());

  // Version retention: internal-key order puts the newest version of each
  // user key first. A version can be dropped once a newer version of the
  // same key with sequence <= the smallest active snapshot has been seen
  // (nothing can observe past it). Tombstones additionally need
  // drop_tombstones (no older data below the output level).
  std::string prev_user_key;
  bool has_prev = false;
  bool hide_older_versions = false;
  uint64_t entries_compacted = 0;
  // Subcompaction bounds: emit only [start_key, end_key). Both bounds sit
  // at (user_key, kMaxSequenceNumber), before every real version of that
  // user key, so the version-dropping state below never straddles a
  // fragment boundary.
  if (job.start_key.empty()) {
    iter->SeekToFirst();
  } else {
    iter->Seek(Slice(job.start_key));
  }
  for (; iter->Valid(); iter->Next()) {
    if (!job.end_key.empty() &&
        CompareInternalKeys(iter->key(), Slice(job.end_key)) >= 0) {
      break;
    }
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("malformed key during compaction");
    }
    const bool same_key =
        has_prev && parsed.user_key.compare(Slice(prev_user_key)) == 0;
    if (!same_key) {
      prev_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_prev = true;
      hide_older_versions = false;
    } else if (hide_older_versions) {
      continue;  // Superseded below every active snapshot.
    }
    if (parsed.sequence <= job.smallest_snapshot) {
      hide_older_versions = true;  // Everything older is unobservable.
    }

    if (job.drop_tombstones && parsed.type == ValueType::kDeletion &&
        parsed.sequence <= job.smallest_snapshot) {
      continue;  // Nothing older exists: the tombstone has done its job.
    }
    builder.Add(iter->key(), iter->value());
    entries_compacted++;
  }
  counters_.entries_compacted.fetch_add(entries_compacted,
                                        std::memory_order_relaxed);
  MONKEYDB_RETURN_IF_ERROR(iter->status());
  MONKEYDB_RETURN_IF_ERROR(builder.Finish());
  MONKEYDB_RETURN_IF_ERROR(file->Close());

  if (builder.num_entries() == 0) {
    // monkey-lint: status-sink — best-effort cleanup of an output every
    // entry of which was dropped; it never entered the manifest, so a
    // leftover is swept by the next Recover.
    options_.env->RemoveFile(fname).IgnoreError();
    return Status::OK();  // *out stays null: everything was dropped.
  }

  auto run = std::make_shared<RunMetadata>();
  run->file_number = job.file_number;
  run->file_size = builder.file_size();
  run->num_entries = builder.num_entries();
  run->sequence = job.run_sequence;
  run->smallest = builder.smallest_key().ToString();
  run->largest = builder.largest_key().ToString();
  MONKEYDB_RETURN_IF_ERROR(OpenTable(run));
  *out = std::move(run);
  return Status::OK();
}

Status DB::BuildRun(Iterator* iter, int target_level, bool drop_tombstones,
                    uint64_t estimated_entries, RunPtr* out,
                    bool io_unlock) {
  out->reset();
  const CompactionJob job =
      PrepareJobLocked(target_level, drop_tombstones, estimated_entries);
  // Background mode (io_unlock): all the I/O happens with mu_ released, so
  // writers and readers proceed. The tree itself stays stable — only this
  // worker makes structural changes, which is the protocol that covers the
  // window.
  ScopedUnlock window(&mu_, io_unlock);
  return BuildRunFromJob(iter, job, out);
}

Status DB::BuildMergeOutputs(const std::vector<RunPtr>& inputs,
                             const std::shared_ptr<MemTable>& mem,
                             int target_level, bool drop_tombstones,
                             uint64_t estimated_entries,
                             std::vector<RunPtr>* outputs,
                             bool io_unlock) {
  auto make_iter = [&]() {
    std::vector<std::unique_ptr<Iterator>> children;
    if (mem != nullptr) children.push_back(mem->NewIterator());
    for (const RunPtr& run : inputs) {
      children.push_back(run->table->NewIterator());
    }
    return NewMergingIterator(std::move(children));
  };

  // Pick the partitioning. Only leveling merges are split: tiering and
  // lazy leveling count runs per level, and fragments would distort that
  // geometry (lazy leveling's single-run-at-the-deepest-level invariant
  // would even re-fragment forever).
  int want = 1;
  if (compaction_pool_ != nullptr &&
      options_.merge_policy == MergePolicy::kLeveling) {
    want = compaction_pool_->num_threads() + 1;
  }
  std::vector<std::string> boundaries;  // K-1 boundary *user* keys.
  if (want > 1) {
    // Candidate split points: the fence-pointer (per-data-block largest)
    // user keys of every input run — all in memory, no I/O. Splitting at
    // fences keeps each fragment's input a whole number of pages.
    std::vector<std::string> candidates;
    for (const RunPtr& run : inputs) {
      if (run->table != nullptr) {
        run->table->AppendBoundaryUserKeys(&candidates);
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const std::string& a, const std::string& b) {
                return Slice(a).compare(Slice(b)) < 0;
              });
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (static_cast<int>(candidates.size()) + 1 < want) {
      want = static_cast<int>(candidates.size()) + 1;
    }
    for (int i = 1; i < want; i++) {
      boundaries.push_back(candidates[i * candidates.size() / want]);
    }
  }

  if (boundaries.empty()) {
    // Single-threaded path — exactly the original merge (bit-identical
    // with compaction_threads == 1).
    auto merged = make_iter();
    RunPtr out;
    MONKEYDB_RETURN_IF_ERROR(BuildRun(merged.get(), target_level,
                                      drop_tombstones, estimated_entries,
                                      &out, io_unlock));
    if (out != nullptr) outputs->push_back(std::move(out));
    return Status::OK();
  }

  // One shared decision (FPR, smallest snapshot, run sequence) for all
  // fragments — they are pieces of one logical run — then a private file
  // number and key range per fragment. Boundary internal keys use
  // (user_key, kMaxSequenceNumber, kValueTypeForSeek), which sorts before
  // every real version of that user key: no key's versions straddle a
  // fragment, so a lookup probing one fragment sees all of them.
  const CompactionJob base =
      PrepareJobLocked(target_level, drop_tombstones, estimated_entries);
  const int parts = static_cast<int>(boundaries.size()) + 1;
  std::vector<CompactionJob> jobs(parts, base);
  for (int i = 0; i < parts; i++) {
    // A fragment's share of the entries is unknown up front: its filter's
    // hash buffer grows as it fills.
    jobs[i].entry_bound = 0;
    if (i > 0) {
      jobs[i].file_number = next_file_number_++;
      AppendInternalKey(&jobs[i].start_key, Slice(boundaries[i - 1]),
                        kMaxSequenceNumber, kValueTypeForSeek);
    }
    if (i < parts - 1) {
      AppendInternalKey(&jobs[i].end_key, Slice(boundaries[i]),
                        kMaxSequenceNumber, kValueTypeForSeek);
    }
  }

  // Merge the fragments in parallel, each through its own merging iterator
  // over the full input set (the per-fragment Seek skips to its range).
  // Everything below touches no mu_-guarded state, so in background mode
  // mu_ is released for the duration.
  std::vector<RunPtr> outs(parts);
  std::vector<Status> statuses(parts);
  {
    ScopedUnlock window(&mu_, io_unlock);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(parts);
    for (int i = 0; i < parts; i++) {
      tasks.push_back([this, &make_iter, &jobs, &outs, &statuses, i] {
        StopWatch watch(metrics_.get(), Hist::kSubcompactionLatency);
        auto iter = make_iter();
        statuses[i] = BuildRunFromJob(iter.get(), jobs[i], &outs[i]);
      });
    }
    compaction_pool_->RunBatch(std::move(tasks));
  }

  // First failure wins; any orphaned output files from sibling fragments
  // are swept by the next Recover (they never enter the manifest).
  for (const Status& s : statuses) MONKEYDB_RETURN_IF_ERROR(s);
  for (auto& out : outs) {
    if (out != nullptr) outputs->push_back(std::move(out));
  }
  return Status::OK();
}

Status DB::LogAndApply(const VersionEdit& edit) {
  VersionEdit full = edit;
  full.last_sequence = last_sequence_.load(std::memory_order_relaxed);
  full.next_file_number = next_file_number_;
  std::string encoded;
  full.EncodeTo(&encoded);
  // monkey-lint: io-under-mutex — the manifest append IS the version
  // commit point: mu_ serializes version edits, and releasing it between
  // the append and PublishViewLocked would let a second edit commit
  // against a tree the manifest no longer describes.
  MONKEYDB_RETURN_IF_ERROR(
      manifest_->AddRecord(encoded, options_.sync_writes));

  // Make the new tree visible before removing replaced files. Views already
  // taken keep the old files readable through their open TableReaders
  // (removal only unlinks the name).
  PublishViewLocked();

  // Queue physical deletion for files not re-added by the same edit. The
  // unlink itself is deferred to DrainObsoleteFilesLocked: this function
  // runs under mu_, and an unlink is a metadata-write syscall that would
  // stall every writer and reader behind it. Cache eviction stays here —
  // it is pure memory work and must not outlive the file's retirement.
  std::set<uint64_t> readded;
  for (const auto& added : edit.added) readded.insert(added.file_number);
  for (uint64_t fn : edit.deleted_files) {
    if (readded.count(fn) == 0) {
      obsolete_files_.push_back(TableFileName(fn));
      if (options_.block_cache != nullptr) {
        options_.block_cache->EraseFile(fn);
      }
    }
  }
  return Status::OK();
}

void DB::DrainObsoleteFilesLocked() {
  while (!obsolete_files_.empty()) {
    std::vector<std::string> doomed;
    doomed.swap(obsolete_files_);
    // The names left every published view when they were queued; open
    // TableReaders keep the data readable past the unlink, so no protocol
    // beyond the swap above is needed for the window.
    ScopedUnlock window(&mu_);
    for (const std::string& name : doomed) {
      // monkey-lint: status-sink — best-effort unlink; an orphan is swept
      // by the next Recover.
      options_.env->RemoveFile(name).IgnoreError();
    }
  }
}

Status DB::FlushMemTable(std::shared_ptr<MemTable> mem, bool io_unlock) {
  if (mem->num_entries() == 0) return Status::OK();
  // Every level capacity scales from B·P, so only a full buffer may fix
  // it: a partial flush (an explicit Flush(), or Recover's replayed WAL
  // tail) would shrink the whole tree for the rest of the incarnation.
  if (buffer_entries_.load(std::memory_order_relaxed) == 0 &&
      mem->ApproximateMemoryUsage() >= options_.buffer_size_bytes) {
    buffer_entries_.store(mem->num_entries(), std::memory_order_relaxed);
  }
  counters_.flushes.fetch_add(1, std::memory_order_relaxed);

  // Under leveling the flush merges with the Level-1 run in one pass
  // (paper Fig. 3); otherwise it lands at Level 1 as a new run and the
  // picker takes it from there.
  CompactionStep step;
  step.mem = std::move(mem);
  if (options_.merge_policy == MergePolicy::kLeveling) {
    step.inputs = current_.RunsAt(1);
  }

  FlushJobInfo info;
  info.entries = step.mem->num_entries();
  info.triggered_merge = !step.inputs.empty();
  if (HasObservers()) {
    if (options_.info_log != nullptr) {
      options_.info_log->Info("flush begin: %llu entries%s",
                              static_cast<unsigned long long>(info.entries),
                              info.triggered_merge ? " (merge into L1)" : "");
    }
    NotifyListeners([&info](EventListener* l) { l->OnFlushBegin(info); });
  }
  OptionalTimer timer(metrics_ != nullptr || HasObservers());
  Status s = RunCompactionStepLocked(step, io_unlock);
  info.micros = timer.ElapsedMicros();
  info.ok = s.ok();
  if (metrics_ != nullptr) {
    metrics_->Record(Hist::kFlushLatency, info.micros);
  }
  if (HasObservers()) {
    if (options_.info_log != nullptr) {
      options_.info_log->Log(
          s.ok() ? LogLevel::kInfo : LogLevel::kError,
          "flush end: %llu entries in %llu us%s",
          static_cast<unsigned long long>(info.entries),
          static_cast<unsigned long long>(info.micros),
          s.ok() ? "" : " (failed)");
    }
    NotifyListeners([&info](EventListener* l) { l->OnFlushCompleted(info); });
  }
  return s;
}

std::optional<DB::CompactionStep> DB::PickCompactionLocked() const {
  const MergePolicy policy = options_.merge_policy;
  // Tiering's run bound: a level merges when its T-th run arrives.
  const size_t trigger = static_cast<size_t>(
      std::max(2, static_cast<int>(std::llround(options_.size_ratio))));
  const int deepest = current_.DeepestNonEmptyLevel();
  auto leveled = [policy, deepest](int level) {
    return policy == MergePolicy::kLeveling ||
           (policy == MergePolicy::kLazyLeveling && level == deepest);
  };
  // Capacities are meaningless until B·P is known (they would all read 0).
  const bool capacity_known =
      buffer_entries_.load(std::memory_order_relaxed) > 0;

  for (int level = 1; level <= current_.NumLevels(); level++) {
    const std::vector<RunPtr>& runs = current_.RunsAt(level);
    const std::vector<RunPtr>& next = current_.RunsAt(level + 1);
    CompactionStep step;
    step.input_level = level;
    step.output_level = level + 1;
    bool absorb_next = true;
    if (runs.empty()) {
      continue;
    } else if (!leveled(level)) {
      if (runs.size() < trigger) continue;
      // A tiered l+1 keeps its runs; the merged run goes in front of them.
      absorb_next = leveled(level + 1);
    } else if (policy == MergePolicy::kLazyLeveling && runs.size() > 1) {
      step.output_level = level;  // Collapse in place.
      absorb_next = false;
    } else if (!capacity_known ||
               current_.EntriesAt(level) <= LevelCapacityEntries(level)) {
      continue;
    } else {
      // Over capacity: the level moves down, every fragment with it.
      step.trivial_move = next.empty();
    }
    step.inputs = runs;
    if (absorb_next) {
      step.inputs.insert(step.inputs.end(), next.begin(), next.end());
    }
    return step;
  }
  return std::nullopt;
}

Status DB::RunCompactionStepLocked(const CompactionStep& step,
                                   bool io_unlock) {
  const int level = step.output_level;
  current_.EnsureLevel(level);
  VersionEdit edit;
  std::set<uint64_t> replaced;
  uint64_t estimate = step.mem != nullptr ? step.mem->num_entries() : 0;
  for (const RunPtr& run : step.inputs) {
    edit.deleted_files.push_back(run->file_number);
    replaced.insert(run->file_number);
    estimate += run->num_entries;
  }

  // Reports merges; a flush reports through FlushMemTable and a trivial
  // move is not a merge.
  std::optional<CompactionScope> scope;
  std::vector<RunPtr> outs;
  if (step.trivial_move) {
    // Metadata-only (keeps the existing filters, like LevelDB's
    // non-overlapping move; see DESIGN.md).
    outs = step.inputs;
  } else {
    if (step.mem == nullptr) {
      CompactionJobInfo cinfo;
      cinfo.input_level = step.input_level;
      cinfo.output_level = level;
      cinfo.input_runs = step.inputs.size();
      cinfo.input_entries = estimate;
      scope.emplace(this, cinfo);
    }
    // Tombstones may go only if no older run survives the step: none
    // below the output level, and none left in place at it.
    bool drop_tombstones = CanDropTombstones(level);
    for (const RunPtr& run : current_.RunsAt(level)) {
      if (replaced.count(run->file_number) == 0) drop_tombstones = false;
    }
    MONKEYDB_RETURN_IF_ERROR(BuildMergeOutputs(step.inputs, step.mem, level,
                                               drop_tombstones, estimate,
                                               &outs, io_unlock));
  }

  uint64_t out_entries = 0;
  for (const RunPtr& out : outs) {
    edit.added.push_back(AddedRunOf(level, *out));
    out_entries += out->num_entries;
  }
  if (step.mem != nullptr && step.mem == mem_) {
    AccumulateMemTableStats(*mem_);
    mem_ = std::make_shared<MemTable>(MemTableOptionsFromDb(options_));
  }
  // The inputs leave their levels; the outputs go in front of the output
  // level's surviving (older) runs. LogAndApply publishes the view only
  // now, so no reader sees the fresh memtable without the flushed run.
  for (std::vector<RunPtr>& runs : *current_.mutable_levels()) {
    runs.erase(std::remove_if(runs.begin(), runs.end(),
                              [&replaced](const RunPtr& r) {
                                return replaced.count(r->file_number) > 0;
                              }),
               runs.end());
  }
  std::vector<RunPtr>& target = (*current_.mutable_levels())[level - 1];
  target.insert(target.begin(), outs.begin(), outs.end());
  MONKEYDB_RETURN_IF_ERROR(LogAndApply(edit));
  if (scope.has_value()) scope->Completed(out_entries, outs.size());
  return Status::OK();
}

Status DB::Cascade(bool io_unlock) {
  while (true) {
    // Flush priority: yield between steps whenever a frozen memtable is
    // waiting; BackgroundMain comes back while PickCompactionLocked finds
    // work.
    if (io_unlock && !imm_.empty()) return Status::OK();
    const std::optional<CompactionStep> step = PickCompactionLocked();
    if (!step.has_value()) return Status::OK();
    MONKEYDB_RETURN_IF_ERROR(RunCompactionStepLocked(*step, io_unlock));
  }
}

// --- Stats ---

DbStats DB::GetStats() const {
  const std::shared_ptr<const ReadView> view = CurrentView();
  const Version& version = *view->version;

  DbStats stats;
  stats.gets = counters_.gets.load(std::memory_order_relaxed);
  stats.runs_probed = counters_.runs_probed.load(std::memory_order_relaxed);
  stats.filter_negatives =
      counters_.filter_negatives.load(std::memory_order_relaxed);
  stats.false_positives =
      counters_.false_positives.load(std::memory_order_relaxed);
  stats.flushes = counters_.flushes.load(std::memory_order_relaxed);
  stats.merges = counters_.merges.load(std::memory_order_relaxed);
  stats.entries_compacted =
      counters_.entries_compacted.load(std::memory_order_relaxed);
  stats.write_slowdowns =
      counters_.write_slowdowns.load(std::memory_order_relaxed);
  stats.write_stalls = counters_.write_stalls.load(std::memory_order_relaxed);
  stats.multigets = counters_.multigets.load(std::memory_order_relaxed);
  stats.gets_not_found =
      counters_.gets_not_found.load(std::memory_order_relaxed);
  stats.writes = counters_.writes.load(std::memory_order_relaxed);
  stats.write_groups =
      counters_.write_groups.load(std::memory_order_relaxed);
  stats.write_group_batches =
      counters_.write_group_batches.load(std::memory_order_relaxed);
  stats.wal_appends = counters_.wal_appends.load(std::memory_order_relaxed);
  stats.wal_syncs = counters_.wal_syncs.load(std::memory_order_relaxed);
  stats.wal_rotations =
      counters_.wal_rotations.load(std::memory_order_relaxed);
  stats.value_log_writes =
      counters_.value_log_writes.load(std::memory_order_relaxed);
  stats.value_log_bytes =
      counters_.value_log_bytes.load(std::memory_order_relaxed);
  stats.value_log_reads =
      counters_.value_log_reads.load(std::memory_order_relaxed);
  // Concurrent-memtable aggregates: retired memtables' totals live in
  // counters_ (folded in at swap time); the live memtable contributes its
  // current values on top. All zero with the feature off.
  stats.memtable_parallel_groups =
      counters_.memtable_parallel_groups.load(std::memory_order_relaxed);
  stats.memtable_parallel_batches =
      counters_.memtable_parallel_batches.load(std::memory_order_relaxed);
  const ConcurrentArena::StatsSnapshot arena = view->mem->arena_stats();
  stats.arena_cas_retries =
      counters_.arena_cas_retries.load(std::memory_order_relaxed) +
      arena.cas_retries;
  stats.arena_slow_allocs =
      counters_.arena_slow_allocs.load(std::memory_order_relaxed) +
      arena.slow_allocs;
  stats.arena_shard_refills =
      counters_.arena_shard_refills.load(std::memory_order_relaxed) +
      arena.shard_refills;
  stats.arena_hugetlb_blocks =
      counters_.arena_hugetlb_blocks.load(std::memory_order_relaxed) +
      arena.hugetlb_blocks;
  stats.arena_thp_blocks =
      counters_.arena_thp_blocks.load(std::memory_order_relaxed) +
      arena.thp_blocks;
  stats.arena_plain_blocks =
      counters_.arena_plain_blocks.load(std::memory_order_relaxed) +
      arena.plain_blocks;
  stats.arena_backing = ConcurrentArena::BackingName(arena.backing);
  stats.skiplist_cas_retries =
      counters_.skiplist_cas_retries.load(std::memory_order_relaxed) +
      view->mem->skiplist_cas_retries();
  // Per-level probe attribution, truncated at the deepest level that saw
  // any traffic.
  int deepest_traffic = 0;
  for (int l = 0; l < Counters::kMaxLevels; l++) {
    if (counters_.runs_probed_per_level[l].load(std::memory_order_relaxed) +
            counters_.filter_negatives_per_level[l].load(
                std::memory_order_relaxed) +
            counters_.false_positives_per_level[l].load(
                std::memory_order_relaxed) >
        0) {
      deepest_traffic = l + 1;
    }
  }
  for (int l = 0; l < deepest_traffic; l++) {
    stats.runs_probed_per_level.push_back(
        counters_.runs_probed_per_level[l].load(std::memory_order_relaxed));
    stats.filter_negatives_per_level.push_back(
        counters_.filter_negatives_per_level[l].load(
            std::memory_order_relaxed));
    stats.false_positives_per_level.push_back(
        counters_.false_positives_per_level[l].load(
            std::memory_order_relaxed));
  }
  if (options_.block_cache != nullptr) {
    stats.block_cache_hits = options_.block_cache->hits();
    stats.block_cache_misses = options_.block_cache->misses();
    stats.block_cache_prefetch_hits = options_.block_cache->prefetch_hits();
    stats.block_cache_scan_inserts = options_.block_cache->scan_inserts();
  }

  stats.memtable_entries = view->MemEntries();
  stats.total_disk_entries = version.TotalEntries();
  stats.total_runs = version.TotalRuns();
  stats.deepest_level = version.DeepestNonEmptyLevel();
  stats.filter_bits_total = version.TotalFilterBits();
  for (int level = 1; level <= version.NumLevels(); level++) {
    uint64_t entries = 0, bits = 0;
    for (const RunPtr& run : version.RunsAt(level)) {
      entries += run->num_entries;
      if (run->table != nullptr) bits += run->table->filter_size_bits();
    }
    stats.entries_per_level.push_back(entries);
    stats.runs_per_level.push_back(version.RunsAt(level).size());
    stats.filter_bits_per_level.push_back(bits);
  }
  return stats;
}

std::string DB::DebugString() const {
  const DbStats stats = GetStats();
  std::string out;
  char line[160];
  snprintf(line, sizeof(line),
           "LSM-tree: %s, T=%.0f, buffer=%zu B, %.1f bits/entry budget\n",
           options_.merge_policy == MergePolicy::kLeveling ? "leveling"
           : options_.merge_policy == MergePolicy::kTiering
               ? "tiering"
               : "lazy-leveling",
           options_.size_ratio, options_.buffer_size_bytes,
           options_.bits_per_entry);
  out += line;
  snprintf(line, sizeof(line),
           "memtable: %llu entries | disk: %llu entries in %llu runs\n",
           static_cast<unsigned long long>(stats.memtable_entries),
           static_cast<unsigned long long>(stats.total_disk_entries),
           static_cast<unsigned long long>(stats.total_runs));
  out += line;
  for (size_t level = 0; level < stats.entries_per_level.size(); level++) {
    if (stats.runs_per_level[level] == 0) continue;
    const double bpe =
        stats.entries_per_level[level] > 0
            ? static_cast<double>(stats.filter_bits_per_level[level]) /
                  static_cast<double>(stats.entries_per_level[level])
            : 0.0;
    snprintf(line, sizeof(line),
             "  level %zu: %llu run(s), %llu entries, %.2f bits/entry\n",
             level + 1,
             static_cast<unsigned long long>(stats.runs_per_level[level]),
             static_cast<unsigned long long>(stats.entries_per_level[level]),
             bpe);
    out += line;
  }
  snprintf(line, sizeof(line),
           "lookups: %llu (filtered %llu, false-positive %llu) | "
           "flushes %llu, merges %llu\n",
           static_cast<unsigned long long>(stats.gets),
           static_cast<unsigned long long>(stats.filter_negatives),
           static_cast<unsigned long long>(stats.false_positives),
           static_cast<unsigned long long>(stats.flushes),
           static_cast<unsigned long long>(stats.merges));
  out += line;
  return out;
}

void DB::ResetStats() {
  counters_.gets.store(0, std::memory_order_relaxed);
  counters_.gets_not_found.store(0, std::memory_order_relaxed);
  counters_.multigets.store(0, std::memory_order_relaxed);
  counters_.runs_probed.store(0, std::memory_order_relaxed);
  counters_.filter_negatives.store(0, std::memory_order_relaxed);
  counters_.false_positives.store(0, std::memory_order_relaxed);
  counters_.flushes.store(0, std::memory_order_relaxed);
  counters_.merges.store(0, std::memory_order_relaxed);
  counters_.entries_compacted.store(0, std::memory_order_relaxed);
  counters_.write_slowdowns.store(0, std::memory_order_relaxed);
  counters_.write_stalls.store(0, std::memory_order_relaxed);
  counters_.writes.store(0, std::memory_order_relaxed);
  counters_.write_groups.store(0, std::memory_order_relaxed);
  counters_.write_group_batches.store(0, std::memory_order_relaxed);
  counters_.wal_appends.store(0, std::memory_order_relaxed);
  counters_.wal_syncs.store(0, std::memory_order_relaxed);
  counters_.wal_rotations.store(0, std::memory_order_relaxed);
  counters_.value_log_writes.store(0, std::memory_order_relaxed);
  counters_.value_log_bytes.store(0, std::memory_order_relaxed);
  counters_.value_log_reads.store(0, std::memory_order_relaxed);
  for (int l = 0; l < Counters::kMaxLevels; l++) {
    counters_.runs_probed_per_level[l].store(0, std::memory_order_relaxed);
    counters_.filter_negatives_per_level[l].store(0,
                                                  std::memory_order_relaxed);
    counters_.false_positives_per_level[l].store(0,
                                                 std::memory_order_relaxed);
  }
  if (metrics_ != nullptr) metrics_->Reset();
  if (options_.block_cache != nullptr) options_.block_cache->ResetCounters();
}

std::string DB::DumpStats() const {
  const DbStats stats = GetStats();
  std::string out = DebugString();
  char line[192];
  snprintf(line, sizeof(line),
           "reads: gets %llu (not-found %llu), multigets %llu, "
           "runs probed %llu, vlog reads %llu\n",
           static_cast<unsigned long long>(stats.gets),
           static_cast<unsigned long long>(stats.gets_not_found),
           static_cast<unsigned long long>(stats.multigets),
           static_cast<unsigned long long>(stats.runs_probed),
           static_cast<unsigned long long>(stats.value_log_reads));
  out += line;
  for (size_t l = 0; l < stats.runs_probed_per_level.size(); l++) {
    const uint64_t probes = stats.false_positives_per_level[l] +
                            stats.filter_negatives_per_level[l];
    snprintf(line, sizeof(line),
             "  level %zu probes: %llu data reads, %llu filtered, "
             "%llu false-positive (fpr %.6f)\n",
             l + 1,
             static_cast<unsigned long long>(stats.runs_probed_per_level[l]),
             static_cast<unsigned long long>(
                 stats.filter_negatives_per_level[l]),
             static_cast<unsigned long long>(
                 stats.false_positives_per_level[l]),
             probes > 0 ? static_cast<double>(
                              stats.false_positives_per_level[l]) /
                              static_cast<double>(probes)
                        : 0.0);
    out += line;
  }
  snprintf(line, sizeof(line),
           "writes: %llu in %llu groups (%llu batches) | wal: %llu appends, "
           "%llu syncs, %llu rotations\n",
           static_cast<unsigned long long>(stats.writes),
           static_cast<unsigned long long>(stats.write_groups),
           static_cast<unsigned long long>(stats.write_group_batches),
           static_cast<unsigned long long>(stats.wal_appends),
           static_cast<unsigned long long>(stats.wal_syncs),
           static_cast<unsigned long long>(stats.wal_rotations));
  out += line;
  if (options_.allow_concurrent_memtable_write) {
    snprintf(line, sizeof(line),
             "concurrent memtable: %llu parallel groups (%llu batches) | "
             "arena[%s]: %llu cas retries, %llu slow allocs, %llu refills | "
             "skiplist: %llu cas retries\n",
             static_cast<unsigned long long>(stats.memtable_parallel_groups),
             static_cast<unsigned long long>(stats.memtable_parallel_batches),
             stats.arena_backing.c_str(),
             static_cast<unsigned long long>(stats.arena_cas_retries),
             static_cast<unsigned long long>(stats.arena_slow_allocs),
             static_cast<unsigned long long>(stats.arena_shard_refills),
             static_cast<unsigned long long>(stats.skiplist_cas_retries));
    out += line;
  }
  snprintf(line, sizeof(line),
           "value log: %llu writes (%llu bytes) | backpressure: %llu "
           "slowdowns, %llu stalls\n",
           static_cast<unsigned long long>(stats.value_log_writes),
           static_cast<unsigned long long>(stats.value_log_bytes),
           static_cast<unsigned long long>(stats.write_slowdowns),
           static_cast<unsigned long long>(stats.write_stalls));
  out += line;
  snprintf(line, sizeof(line),
           "compaction: %llu entries rewritten | block cache: %llu hits, "
           "%llu misses, %llu prefetch hits\n",
           static_cast<unsigned long long>(stats.entries_compacted),
           static_cast<unsigned long long>(stats.block_cache_hits),
           static_cast<unsigned long long>(stats.block_cache_misses),
           static_cast<unsigned long long>(stats.block_cache_prefetch_hits));
  out += line;
  return out;
}

bool DB::GetUringStats(UringStatsSnapshot* out) const {
  if (uring_env_ == nullptr) return false;
  *out = uring_env_->Stats();
  return true;
}

std::string DB::DumpTrace() const { return DumpTraceJson(0); }

std::string DB::DumpMetrics(MetricsFormat format) const {
  const DbStats stats = GetStats();
  const std::shared_ptr<const ReadView> view = CurrentView();
  const Version& version = *view->version;

  // The allocator's plan for the current geometry (paper Eqs. 4-8): ask
  // the configured policy what FPR it assigns each level right now, and
  // fold per-level logical run counts into the predicted zero-result
  // lookup cost R = sum over runs of their FPR (Eq. 3). A lookup probes one
  // fragment of a fragmented run, so fragments count once.
  LsmShape shape;
  shape.total_entries = version.TotalEntries() + view->MemEntries();
  shape.buffer_entries = buffer_entries_.load(std::memory_order_relaxed);
  shape.size_ratio = options_.size_ratio;
  shape.num_levels = std::max(1, version.DeepestNonEmptyLevel());
  shape.merge_policy = options_.merge_policy;
  shape.bits_per_entry_budget = options_.bits_per_entry;
  const FprAllocationPolicy* policy = options_.fpr_policy != nullptr
                                          ? options_.fpr_policy.get()
                                          : DefaultFprPolicy();
  const int levels = shape.num_levels;
  std::vector<double> predicted_fpr(levels, 0.0);
  std::vector<double> measured_fpr(levels, 0.0);
  std::vector<uint64_t> runs_at(levels, 0);
  double predicted_r = 0.0;
  for (int l = 1; l <= levels; l++) {
    predicted_fpr[l - 1] = policy->RunFpr(shape, l);
    runs_at[l - 1] = version.LogicalRunsAt(
        l, options_.merge_policy == MergePolicy::kLeveling);
    predicted_r +=
        predicted_fpr[l - 1] * static_cast<double>(runs_at[l - 1]);
  }
  for (size_t l = 0;
       l < static_cast<size_t>(levels) &&
       l < stats.false_positives_per_level.size();
       l++) {
    const uint64_t probes = stats.false_positives_per_level[l] +
                            stats.filter_negatives_per_level[l];
    if (probes > 0) {
      measured_fpr[l] =
          static_cast<double>(stats.false_positives_per_level[l]) /
          static_cast<double>(probes);
    }
  }
  const double measured_r =
      stats.gets_not_found > 0
          ? static_cast<double>(stats.false_positives) /
                static_cast<double>(stats.gets_not_found)
          : 0.0;

  // Windowed view: advance the epoch ring with this scrape's cumulative
  // counters, then report the per-level measured FPR over (roughly) the
  // last minute — the drift signal an online tuner consumes. A histogram
  // window of Get latency rides along when metrics are enabled.
  constexpr uint64_t kWindowSecs = 60;
  std::vector<double> measured_fpr_1m(levels, 0.0);
  uint64_t fpr_window_secs = 0;
  HistogramData get_latency_1m;
  bool have_get_latency_1m = false;
  {
    const uint64_t now_secs = TraceNowNanos() / 1000000000ull;
    const size_t n = Counters::kMaxLevels;
    std::vector<uint64_t> cum(3 * n, 0);
    for (size_t l = 0; l < n; l++) {
      if (l < stats.runs_probed_per_level.size()) {
        cum[l] = stats.runs_probed_per_level[l];
      }
      if (l < stats.filter_negatives_per_level.size()) {
        cum[n + l] = stats.filter_negatives_per_level[l];
      }
      if (l < stats.false_positives_per_level.size()) {
        cum[2 * n + l] = stats.false_positives_per_level[l];
      }
    }
    // Merge the sharded histogram before taking window_mu_: the merge
    // walks every registry shard and needs no window state.
    HistogramMerger merged;
    if (metrics_ != nullptr) {
      metrics_->MergeHistogram(Hist::kGetLatency, &merged);
    }
    MutexLock window_lock(window_mu_);
    if (window_ == nullptr) {
      window_ = std::make_unique<WindowState>(metrics_ != nullptr);
    }
    window_->fpr.Advance(now_secs, cum);
    std::vector<uint64_t> delta;
    if (window_->fpr.Delta(kWindowSecs, &delta, &fpr_window_secs)) {
      for (int l = 0; l < levels && l < static_cast<int>(n); l++) {
        const uint64_t fp = delta[2 * n + l];
        const uint64_t probes = fp + delta[n + l];
        if (probes > 0) {
          measured_fpr_1m[l] =
              static_cast<double>(fp) / static_cast<double>(probes);
        }
      }
    }
    if (window_->get_latency.has_value()) {
      window_->get_latency->Advance(now_secs, merged);
      have_get_latency_1m =
          window_->get_latency->SnapshotWindow(kWindowSecs, &get_latency_1m);
    }
  }

  if (format == MetricsFormat::kJson) {
    JsonWriter w;
    w.BeginObject("counters");
    w.Field("gets", stats.gets);
    w.Field("gets_not_found", stats.gets_not_found);
    w.Field("multigets", stats.multigets);
    w.Field("runs_probed", stats.runs_probed);
    w.Field("filter_negatives", stats.filter_negatives);
    w.Field("false_positives", stats.false_positives);
    w.Field("flushes", stats.flushes);
    w.Field("merges", stats.merges);
    w.Field("entries_compacted", stats.entries_compacted);
    w.Field("write_slowdowns", stats.write_slowdowns);
    w.Field("write_stalls", stats.write_stalls);
    w.Field("writes", stats.writes);
    w.Field("write_groups", stats.write_groups);
    w.Field("write_group_batches", stats.write_group_batches);
    w.Field("wal_appends", stats.wal_appends);
    w.Field("wal_syncs", stats.wal_syncs);
    w.Field("wal_rotations", stats.wal_rotations);
    w.Field("value_log_writes", stats.value_log_writes);
    w.Field("value_log_bytes", stats.value_log_bytes);
    w.Field("value_log_reads", stats.value_log_reads);
    w.Field("block_cache_hits", stats.block_cache_hits);
    w.Field("block_cache_misses", stats.block_cache_misses);
    w.Field("block_cache_prefetch_hits", stats.block_cache_prefetch_hits);
    w.Field("block_cache_scan_inserts", stats.block_cache_scan_inserts);
    if (metrics_ != nullptr) {
      for (int t = 0; t < static_cast<int>(Tick::kNumTicks); t++) {
        w.Field(TickName(static_cast<Tick>(t)),
                metrics_->TickTotal(static_cast<Tick>(t)));
      }
    }
    w.EndObject();
    w.BeginObject("tree");
    w.Field("memtable_entries", stats.memtable_entries);
    w.Field("disk_entries", stats.total_disk_entries);
    w.Field("runs", stats.total_runs);
    w.Field("deepest_level", static_cast<uint64_t>(stats.deepest_level));
    w.Field("filter_bits", stats.filter_bits_total);
    w.EndObject();
    if (uring_env_ != nullptr) {
      const UringStatsSnapshot io = uring_env_->Stats();
      w.BeginObject("io_uring");
      w.Field("sqes_submitted", io.sqes_submitted);
      w.Field("batch_submits", io.batch_submits);
      w.Field("batched_requests", io.batched_requests);
      w.Field("batched_per_syscall", io.BatchedPerSyscall());
      w.Field("short_read_retries", io.short_read_retries);
      w.Field("fixed_file_reads", io.fixed_file_reads);
      w.Field("fixed_buffer_reads", io.fixed_buffer_reads);
      w.Field("direct_io_fallbacks", io.direct_io_fallbacks);
      w.Field("bounce_copies", io.bounce_copies);
      w.Field("probe_fallback_events", UringFallbackEvents());
      w.EndObject();
    }
    w.BeginObject("fpr");
    w.Field("predicted_lookup_cost", predicted_r);
    w.Field("measured_lookup_cost", measured_r);
    w.Field("window_secs", fpr_window_secs);
    for (int l = 0; l < levels; l++) {
      char key[32];
      snprintf(key, sizeof(key), "L%d", l + 1);
      w.BeginObject(key);
      w.Field("predicted", predicted_fpr[l]);
      w.Field("measured", measured_fpr[l]);
      w.Field("measured_1m", measured_fpr_1m[l]);
      w.Field("runs", runs_at[l]);
      w.EndObject();
    }
    w.EndObject();
    if (metrics_ != nullptr) {
      w.BeginObject("histograms");
      for (int h = 0; h < static_cast<int>(Hist::kNumHistograms); h++) {
        w.Histogram(HistName(static_cast<Hist>(h)),
                    metrics_->SnapshotHistogram(static_cast<Hist>(h)));
      }
      if (have_get_latency_1m) {
        w.Histogram("get_latency_us_1m", get_latency_1m);
      }
      w.EndObject();
    }
    return w.Finish();
  }

  PrometheusWriter w;
  w.Counter("monkeydb_gets_total", "Point lookups",
            static_cast<double>(stats.gets));
  w.Counter("monkeydb_gets_not_found_total",
            "Zero-result lookups (no tombstone hit)",
            static_cast<double>(stats.gets_not_found));
  w.Counter("monkeydb_multigets_total", "MultiGet batches",
            static_cast<double>(stats.multigets));
  w.Counter("monkeydb_runs_probed_total", "Runs whose data page was read",
            static_cast<double>(stats.runs_probed));
  w.Counter("monkeydb_filter_negatives_total",
            "Probes answered by a Bloom filter",
            static_cast<double>(stats.filter_negatives));
  w.Counter("monkeydb_bloom_false_positives_total",
            "Data page reads that found nothing",
            static_cast<double>(stats.false_positives));
  w.Counter("monkeydb_flushes_total", "Memtable flushes",
            static_cast<double>(stats.flushes));
  w.Counter("monkeydb_merges_total", "Compaction merges",
            static_cast<double>(stats.merges));
  w.Counter("monkeydb_entries_compacted_total",
            "Entries rewritten by compaction",
            static_cast<double>(stats.entries_compacted));
  w.Counter("monkeydb_write_slowdowns_total", "Writer slowdown episodes",
            static_cast<double>(stats.write_slowdowns));
  w.Counter("monkeydb_write_stalls_total", "Writer stall episodes",
            static_cast<double>(stats.write_stalls));
  w.Counter("monkeydb_writes_total", "Write calls",
            static_cast<double>(stats.writes));
  w.Counter("monkeydb_write_groups_total", "Group commits",
            static_cast<double>(stats.write_groups));
  w.Counter("monkeydb_write_group_batches_total",
            "Batches coalesced into commit groups",
            static_cast<double>(stats.write_group_batches));
  w.Counter("monkeydb_wal_appends_total", "WAL records written",
            static_cast<double>(stats.wal_appends));
  w.Counter("monkeydb_wal_syncs_total", "WAL fsyncs",
            static_cast<double>(stats.wal_syncs));
  w.Counter("monkeydb_wal_rotations_total", "WAL file rotations",
            static_cast<double>(stats.wal_rotations));
  w.Counter("monkeydb_value_log_writes_total",
            "Values separated into the value log",
            static_cast<double>(stats.value_log_writes));
  w.Counter("monkeydb_value_log_bytes_total",
            "Payload bytes appended to the value log",
            static_cast<double>(stats.value_log_bytes));
  w.Counter("monkeydb_value_log_reads_total",
            "Value-handle resolutions on the read path",
            static_cast<double>(stats.value_log_reads));
  w.Counter("monkeydb_block_cache_hits_total", "Block cache hits",
            static_cast<double>(stats.block_cache_hits));
  w.Counter("monkeydb_block_cache_misses_total", "Block cache misses",
            static_cast<double>(stats.block_cache_misses));
  w.Counter("monkeydb_block_cache_prefetch_hits_total",
            "Cache hits served by readahead before first demand reference",
            static_cast<double>(stats.block_cache_prefetch_hits));
  w.Gauge("monkeydb_memtable_entries", "Entries buffered in memtables",
          static_cast<double>(stats.memtable_entries));
  w.Gauge("monkeydb_disk_entries", "Entries across all on-disk runs",
          static_cast<double>(stats.total_disk_entries));
  w.Gauge("monkeydb_runs", "On-disk runs",
          static_cast<double>(stats.total_runs));
  w.Gauge("monkeydb_deepest_level", "Deepest non-empty level",
          static_cast<double>(stats.deepest_level));
  w.Gauge("monkeydb_filter_bits", "Total Bloom filter bits",
          static_cast<double>(stats.filter_bits_total));
  if (uring_env_ != nullptr) {
    const UringStatsSnapshot io = uring_env_->Stats();
    w.Counter("monkeydb_uring_sqes_submitted_total",
              "Read SQEs pushed into the io_uring",
              static_cast<double>(io.sqes_submitted));
    w.Counter("monkeydb_uring_batch_submits_total",
              "io_uring_enter calls for batched reads",
              static_cast<double>(io.batch_submits));
    w.Counter("monkeydb_uring_batched_requests_total",
              "Read requests carried by batched submissions",
              static_cast<double>(io.batched_requests));
    w.Gauge("monkeydb_uring_batched_per_syscall",
            "Mean read requests per batched io_uring_enter",
            io.BatchedPerSyscall());
    w.Counter("monkeydb_uring_short_read_retries_total",
              "Re-submitted partial/EAGAIN reads",
              static_cast<double>(io.short_read_retries));
    w.Counter("monkeydb_uring_direct_io_fallbacks_total",
              "O_DIRECT opens rejected by the filesystem",
              static_cast<double>(io.direct_io_fallbacks));
    w.Counter("monkeydb_uring_probe_fallbacks_total",
              "kUring -> kPosix fallbacks (probe failed)",
              static_cast<double>(UringFallbackEvents()));
  }

  w.DeclareGauge("monkey_predicted_fpr",
                 "Per-level run FPR assigned by the allocation policy for "
                 "the current geometry");
  for (int l = 0; l < levels; l++) {
    char label[16];
    snprintf(label, sizeof(label), "%d", l + 1);
    w.LabeledSample("monkey_predicted_fpr", {{"level", label}},
                    predicted_fpr[l]);
  }
  w.DeclareGauge("monkey_measured_fpr",
                 "Observed per-level false-positive rate: false positives "
                 "over filter probes that reached the level");
  for (int l = 0; l < levels; l++) {
    char label[16];
    snprintf(label, sizeof(label), "%d", l + 1);
    w.LabeledSample("monkey_measured_fpr", {{"level", label}},
                    measured_fpr[l]);
  }
  w.DeclareGauge("monkey_measured_fpr_1m",
                 "Windowed per-level false-positive rate over roughly the "
                 "last minute of scrapes (0 until two scrapes exist)");
  for (int l = 0; l < levels; l++) {
    char label[16];
    snprintf(label, sizeof(label), "%d", l + 1);
    w.LabeledSample("monkey_measured_fpr_1m", {{"level", label}},
                    measured_fpr_1m[l]);
  }
  w.Gauge("monkey_fpr_window_secs",
          "Span actually covered by the windowed FPR gauges",
          static_cast<double>(fpr_window_secs));
  w.Gauge("monkey_predicted_lookup_cost",
          "Predicted zero-result lookup I/Os R: sum of run FPRs (Eq. 3)",
          predicted_r);
  w.Gauge("monkey_measured_lookup_cost",
          "Measured zero-result lookup I/Os: false positives per "
          "zero-result lookup",
          measured_r);

  if (metrics_ != nullptr) {
    for (int h = 0; h < static_cast<int>(Hist::kNumHistograms); h++) {
      w.Summary(std::string("monkeydb_") + HistName(static_cast<Hist>(h)),
                "Latency histogram (microseconds unless the name says "
                "otherwise)",
                metrics_->SnapshotHistogram(static_cast<Hist>(h)));
    }
    if (have_get_latency_1m) {
      w.Summary("monkeydb_get_latency_us_1m",
                "Get latency over roughly the last minute of scrapes",
                get_latency_1m);
    }
    for (int t = 0; t < static_cast<int>(Tick::kNumTicks); t++) {
      w.Counter(std::string("monkeydb_") + TickName(static_cast<Tick>(t)) +
                    "_total",
                "Observability-internal counter",
                static_cast<double>(
                    metrics_->TickTotal(static_cast<Tick>(t))));
    }
  }
  return w.str();
}

void DB::SetStallCondition(WriteStallInfo::Condition next) {
  if (next == stall_condition_) return;
  WriteStallInfo info;
  info.previous = stall_condition_;
  info.current = next;
  info.immutable_memtables = imm_.size();
  stall_condition_ = next;
  if (!HasObservers()) return;
  if (options_.info_log != nullptr) {
    options_.info_log->Log(
        next == WriteStallInfo::Condition::kNormal ? LogLevel::kInfo
                                                   : LogLevel::kWarn,
        "write stall state: %s -> %s (%llu frozen memtables)",
        ToString(info.previous), ToString(info.current),
        static_cast<unsigned long long>(info.immutable_memtables));
  }
  NotifyListeners(
      [&info](EventListener* l) { l->OnWriteStallChange(info); });
}

uint64_t DB::ApproximateSize(const Slice& start, const Slice& limit) const {
  if (start.compare(limit) >= 0) return 0;
  const std::shared_ptr<const ReadView> view = CurrentView();
  const Version& version = *view->version;
  uint64_t total = 0;
  for (int level = 1; level <= version.NumLevels(); level++) {
    for (const RunPtr& run : version.RunsAt(level)) {
      const Slice run_smallest = ExtractUserKey(Slice(run->smallest));
      const Slice run_largest = ExtractUserKey(Slice(run->largest));
      if (limit.compare(run_smallest) <= 0 ||
          start.compare(run_largest) > 0) {
        continue;  // Disjoint.
      }
      // Fraction of the run's data blocks whose fence range intersects
      // [start, limit): estimated by index-block iteration (in memory).
      if (run->table == nullptr) continue;
      const uint64_t blocks = run->table->num_data_blocks();
      if (blocks == 0) continue;
      // Walk fence pointers via a table iterator over the index granularity
      // would read data pages; instead interpolate: assume keys uniform
      // between smallest and largest and scale by entry overlap share.
      // This is the standard metadata-only estimate (no I/O).
      const double run_bytes = static_cast<double>(run->file_size);
      // Compare as strings for a crude interpolation anchor.
      auto frac = [&](const Slice& key) {
        if (key.compare(run_smallest) <= 0) return 0.0;
        if (key.compare(run_largest) >= 0) return 1.0;
        // Interpolate on the first 8 bytes.
        auto prefix_value = [](const Slice& s) {
          uint64_t v = 0;
          for (int i = 0; i < 8; i++) {
            v = (v << 8) |
                (i < static_cast<int>(s.size())
                     ? static_cast<unsigned char>(s[i])
                     : 0);
          }
          return static_cast<double>(v);
        };
        const double lo = prefix_value(run_smallest);
        const double hi = prefix_value(run_largest);
        if (hi <= lo) return 0.5;
        return std::min(
            1.0, std::max(0.0, (prefix_value(key) - lo) / (hi - lo)));
      };
      total += static_cast<uint64_t>(run_bytes *
                                     (frac(limit) - frac(start)));
    }
  }
  return total;
}

// monkey-lint: io-under-mutex(fn) — Checkpoint is a stop-the-world admin
// operation: the copied manifest, runs, and WAL must describe one
// consistent tree, so mu_ stays held across the whole copy by design.
// Writers stall for its duration; that is the documented cost.
Status DB::Checkpoint(const std::string& target_dir) {
  MutexLock lock(mu_);
  if (options_.background_compaction) {
    // Drain frozen memtables so the copy includes every buffer that has
    // left the active memtable (and so the worker cannot swap files
    // underneath the copy loop).
    MONKEYDB_RETURN_IF_ERROR(WaitForDrain());
  }
  MONKEYDB_RETURN_IF_ERROR(options_.env->CreateDir(target_dir));

  auto copy_file = [&](const std::string& from,
                       const std::string& to) -> Status {
    std::unique_ptr<SequentialFile> src;
    MONKEYDB_RETURN_IF_ERROR(options_.env->NewSequentialFile(from, &src));
    std::unique_ptr<WritableFile> dst;
    MONKEYDB_RETURN_IF_ERROR(options_.env->NewWritableFile(to, &dst));
    char buf[64 << 10];
    while (true) {
      Slice chunk;
      MONKEYDB_RETURN_IF_ERROR(src->Read(sizeof(buf), &chunk, buf));
      if (chunk.empty()) break;
      MONKEYDB_RETURN_IF_ERROR(dst->Append(chunk));
    }
    return dst->Close();
  };

  // 1. Copy every live run and collect the snapshot edit.
  VersionEdit snapshot;
  for (int level = 1; level <= current_.NumLevels(); level++) {
    for (const RunPtr& run : current_.RunsAt(level)) {
      char name[32];
      snprintf(name, sizeof(name), "/%06llu.sst",
               static_cast<unsigned long long>(run->file_number));
      MONKEYDB_RETURN_IF_ERROR(
          copy_file(name_ + name, target_dir + name));
      snapshot.added.push_back(AddedRunOf(level, *run));
    }
  }
  snapshot.last_sequence = last_sequence_.load(std::memory_order_relaxed);
  snapshot.next_file_number = next_file_number_;

  // 2. Copy value-log segments (handles in the runs reference them).
  std::vector<std::string> children;
  if (options_.env->GetChildren(name_, &children).ok()) {
    for (const std::string& child : children) {
      if (child.rfind("vlog-", 0) == 0) {
        MONKEYDB_RETURN_IF_ERROR(
            copy_file(name_ + "/" + child, target_dir + "/" + child));
      }
    }
  }

  // 3. Write the manifest snapshot. The active memtable is NOT included:
  // the checkpoint captures everything up to the last flush (call Flush()
  // first for an up-to-the-write checkpoint).
  std::unique_ptr<WritableFile> mfile;
  MONKEYDB_RETURN_IF_ERROR(
      options_.env->NewWritableFile(target_dir + "/MANIFEST", &mfile));
  WalWriter manifest(std::move(mfile));
  std::string encoded;
  snapshot.EncodeTo(&encoded);
  MONKEYDB_RETURN_IF_ERROR(manifest.AddRecord(encoded, true));
  return manifest.Close();
}

LsmShape DB::CurrentShape() const {
  const std::shared_ptr<const ReadView> view = CurrentView();
  LsmShape shape;
  shape.total_entries = view->version->TotalEntries() + view->MemEntries();
  shape.buffer_entries = buffer_entries_.load(std::memory_order_relaxed);
  shape.size_ratio = options_.size_ratio;
  shape.num_levels = std::max(1, view->version->DeepestNonEmptyLevel());
  shape.merge_policy = options_.merge_policy;
  shape.bits_per_entry_budget = options_.bits_per_entry;
  return shape;
}

}  // namespace monkeydb
