// DB: the public key-value store API over the LSM-tree engine.
//
// Threading model (full discussion in DESIGN.md "Threading"):
//  - The read path (Get, NewIterator, GetStats, DebugString,
//    ApproximateSize, CurrentShape) never blocks on the writer mutex or on
//    in-flight compactions: it snapshots an immutable, reference-counted
//    ReadView (memtable + frozen memtables + runs) — the only shared state
//    touched is a pointer copy under a dedicated micro-mutex — and performs
//    every filter probe and block read with no lock held at all.
//  - Writers commit through a group-commit queue (LevelDB's JoinBatchGroup
//    scheme): each writer enqueues its batch and waits; the writer at the
//    front becomes the leader, coalesces the queued batches (up to
//    DbOptions::max_write_group_bytes) into ONE WAL record with ONE fsync
//    (when any member asked for sync), applies the merged batch to the
//    memtable with contiguous sequence numbers, and wakes the followers
//    with their individual statuses. Concurrent writers therefore pay one
//    WAL append + fsync per *group*, not per batch.
//  - With background_compaction=false (the default), flushes and cascading
//    merges run synchronously inside the writing thread, exactly like the
//    amortized model in the paper.
//  - With background_compaction=true, a full memtable is frozen onto an
//    immutable-memtable queue and flushed (plus cascades) by a background
//    worker; writers experience slowdown/stall backpressure only when the
//    queue fills. Flushes take priority over cascading merges: a cascade
//    in progress yields between merge steps when a frozen memtable is
//    waiting.
//  - With compaction_threads > 1, large leveling merges are split at
//    fence-pointer boundaries into disjoint key ranges and merged in
//    parallel by a thread pool, producing multiple disjoint output runs
//    installed atomically as one version edit.
// The engine supports leveling, tiering and lazy leveling, any size
// ratio T >= 2, any buffer size, and pluggable Bloom-filter memory
// allocation (uniform vs Monkey).

#ifndef MONKEYDB_LSM_DB_H_
#define MONKEYDB_LSM_DB_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lsm/internal_key.h"
#include "lsm/options.h"
#include "lsm/snapshot.h"
#include "lsm/version.h"
#include "lsm/value_log.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "memtable/memtable.h"
#include "obs/event_listener.h"
#include "obs/metrics.h"
#include "util/iterator.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace monkeydb {

class UringEnv;
struct UringStatsSnapshot;

// Aggregate statistics for experiments and debugging.
struct DbStats {
  uint64_t memtable_entries = 0;  // Active + frozen memtables.
  uint64_t total_disk_entries = 0;
  uint64_t total_runs = 0;
  int deepest_level = 0;
  std::vector<uint64_t> entries_per_level;   // Index 0 = Level 1.
  std::vector<uint64_t> runs_per_level;
  std::vector<uint64_t> filter_bits_per_level;
  uint64_t filter_bits_total = 0;

  // Lookup-path counters since Open (or the last ResetStats).
  uint64_t gets = 0;
  uint64_t gets_not_found = 0;    // Zero-result lookups (no tombstone hit).
  uint64_t runs_probed = 0;       // Runs whose data page was read.
  uint64_t filter_negatives = 0;  // Probes skipped by a Bloom filter.
  uint64_t false_positives = 0;   // Page reads that found nothing.
  uint64_t multigets = 0;         // MultiGet batches (not keys).

  // The same probe events attributed to on-disk levels (index 0 = Level
  // 1), truncated at the deepest level that saw traffic. measured FPR at
  // level l = false_positives / (filter_negatives + false_positives) —
  // DumpMetrics() exports this next to the allocator's predicted FPR.
  std::vector<uint64_t> runs_probed_per_level;
  std::vector<uint64_t> filter_negatives_per_level;
  std::vector<uint64_t> false_positives_per_level;

  // Block cache counters since Open (all zero when no cache is
  // configured). prefetch_hits are lookups served by a readahead/scan
  // block before its first demand reference; scan_inserts are the
  // low-priority (LRU midpoint) inserts those fetches performed.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_prefetch_hits = 0;
  uint64_t block_cache_scan_inserts = 0;

  // Compaction counters since Open.
  uint64_t flushes = 0;
  uint64_t merges = 0;
  uint64_t entries_compacted = 0;

  // Writer-backpressure counters since Open (background mode only).
  uint64_t write_slowdowns = 0;
  uint64_t write_stalls = 0;

  // Write-path counters (PR 2/3 machinery that GetStats never surfaced).
  uint64_t writes = 0;              // Put/Delete/Write calls.
  uint64_t write_groups = 0;        // Commit groups (leader commits).
  uint64_t write_group_batches = 0; // Batches coalesced into those groups.
  uint64_t wal_appends = 0;         // WAL records written.
  uint64_t wal_syncs = 0;           // WAL fsyncs issued.
  uint64_t wal_rotations = 0;
  uint64_t value_log_writes = 0;    // Values separated into the log.
  uint64_t value_log_bytes = 0;     // Payload bytes appended to the log.
  uint64_t value_log_reads = 0;     // Handle resolutions on the read path.

  // Concurrent-memtable counters (all zero unless
  // allow_concurrent_memtable_write is on; see DESIGN.md "Write path II").
  // Arena/skiplist numbers aggregate every memtable since Open: retired
  // (flushed) memtables fold their totals in when they are swapped out,
  // and the live memtable's current values are added on top.
  uint64_t memtable_parallel_groups = 0;   // Groups applied in parallel.
  uint64_t memtable_parallel_batches = 0;  // Batches across those groups.
  uint64_t arena_cas_retries = 0;     // Failed bump-pointer CASes.
  uint64_t arena_slow_allocs = 0;     // Allocations through the shard lock.
  uint64_t arena_shard_refills = 0;   // Shard chunk refills.
  uint64_t arena_hugetlb_blocks = 0;  // Blocks by backing tier.
  uint64_t arena_thp_blocks = 0;
  uint64_t arena_plain_blocks = 0;
  // Backing tier of the live memtable's most recent block:
  // "hugetlb", "thp", "plain", or "none" (classic arena / no blocks yet).
  std::string arena_backing = "none";
  uint64_t skiplist_cas_retries = 0;  // Failed splice CASes.
};

class DB {
 public:
  // Opens (creating if needed) the database at `name`. Recovers from the
  // manifest and WAL if they exist.
  static Status Open(const DbOptions& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  ~DB();

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) EXCLUDES(mu_);
  Status Delete(const WriteOptions& options, const Slice& key)
      EXCLUDES(mu_);

  // Applies every operation in the batch atomically (one WAL record:
  // after a crash, all of them or none of them survive).
  Status Write(const WriteOptions& options, const WriteBatch& batch)
      EXCLUDES(mu_);

  // Pins the current state for consistent reads via
  // ReadOptions::snapshot. Must be released with ReleaseSnapshot.
  const Snapshot* GetSnapshot() EXCLUDES(mu_);
  void ReleaseSnapshot(const Snapshot* snapshot) EXCLUDES(mu_);

  // Point lookup. Returns NotFound if the key does not exist or was
  // deleted. Never blocks on the writer mutex or in-flight compactions.
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value);

  // Batched point lookup: resolves every key against ONE consistent
  // snapshot and pipelines the disk probes. The batch first probes the
  // memtables and every run's Bloom filter + fence pointers (no I/O),
  // dedups the surviving data blocks, sorts them by (file, offset), and
  // fetches them together — hinting all of them to the device up front and
  // reading through the shared read pool when one exists — before
  // resolving each key in run order. Results land in (*values)[i] with the
  // per-key outcome in the returned vector ((*values) is resized; order
  // matches keys). Unlike N sequential Gets, a run deeper than a key's
  // resolution may be probed speculatively; the extra reads are bounded by
  // the Bloom false-positive rate.
  [[nodiscard]] std::vector<Status> MultiGet(
      const ReadOptions& options, const std::vector<Slice>& keys,
      std::vector<std::string>* values);

  // Forward iteration over live user keys (newest visible version, no
  // tombstones). SeekToLast/Prev are not supported. The iterator reads a
  // pinned snapshot of the tree and never blocks writers or compactions.
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options);

  // Forces the memtable to disk (flush + cascading merges per policy). In
  // background mode this drains the whole immutable-memtable queue before
  // returning.
  Status Flush() EXCLUDES(mu_);

  // Full compaction: merges the memtable and every run into a single run at
  // the deepest occupied level, purging tombstones and superseded versions.
  Status CompactAll() EXCLUDES(mu_);

  DbStats GetStats() const;

  // Zeroes every operation counter (DbStats' mutable half), the metrics
  // registry's histograms, and the block cache's hit/miss counters, so
  // benches can measure per-phase deltas instead of lifetime totals.
  // Structural fields (levels, runs, filter bits) are derived from the
  // tree and are unaffected. If the block cache is shared between DBs its
  // counters reset for all of them.
  void ResetStats();

  // Human-readable summary of the tree: per-level runs, entries, and
  // realized filter bits/entry (LevelDB's GetProperty-style report).
  std::string DebugString() const;

  // DebugString plus every DbStats counter (read path, write path,
  // compaction, backpressure), routed through the same GetStats snapshot
  // the tests assert against.
  std::string DumpStats() const;

  // Metrics exposition (DESIGN.md "Observability"). Includes the
  // paper-specific series monkey_predicted_fpr{level} (the allocator's
  // Eq. 5/6 plan for the current geometry) vs monkey_measured_fpr{level}
  // (observed false-positive rate), and predicted zero-result lookup cost
  // R (Eq. 3: sum of per-level run FPRs) vs the measured average.
  // Histograms appear only when enable_metrics is true; counters and the
  // FPR gauges are always present.
  enum class MetricsFormat { kPrometheus, kJson };
  std::string DumpMetrics(MetricsFormat format) const;

  // Chrome/Perfetto trace-event JSON of every span retained in the
  // process-wide flight recorder (obs/trace.h; DESIGN.md §16). Spans are
  // recorded only for armed requests — ReadOptions/WriteOptions::trace or
  // head sampling — so with tracing off this returns an empty event list.
  // Load the output in https://ui.perfetto.dev, or pretty-print it with
  // tools/trace_view.py.
  std::string DumpTrace() const;

  // io_uring backend counters, when this DB owns a UringEnv (env == null
  // and io_backend resolved to kUring). Returns false — leaving *out
  // untouched — on every other backend. Lets out-of-process surfaces (the
  // RESP server's INFO reply) report the I/O substrate without parsing
  // DumpMetrics.
  bool GetUringStats(UringStatsSnapshot* out) const;

  // The registry behind DumpMetrics (null unless enable_metrics). Exposed
  // for benches/tests that want HistogramData snapshots directly.
  MetricsRegistry* metrics() const { return metrics_.get(); }

  // Approximate on-disk bytes of entries in [start, limit), estimated from
  // run metadata and fence pointers (no data I/O).
  uint64_t ApproximateSize(const Slice& start, const Slice& limit) const;

  // Writes a consistent copy of the database (runs + manifest snapshot +
  // value-log segments) into `target_dir` on the same Env. The copy can be
  // opened as an independent database. In background mode the immutable-
  // memtable queue is drained first so the copy includes every frozen
  // buffer.
  Status Checkpoint(const std::string& target_dir) EXCLUDES(mu_);

  // The current tree geometry, as fed to the FPR allocation policy.
  LsmShape CurrentShape() const;

  const DbOptions& options() const { return options_; }

 private:
  DB(const DbOptions& options, std::string name);

  // A frozen memtable awaiting a background flush, plus the WAL file that
  // makes it durable until the flush completes.
  struct ImmEntry {
    std::shared_ptr<MemTable> mem;
    uint64_t wal_number = 0;
  };

  // Everything BuildRunFromJob needs, captured under mu_ so the actual run
  // construction (all the I/O) can run with mu_ released.
  struct CompactionJob {
    int target_level = 1;
    bool drop_tombstones = false;
    uint64_t file_number = 0;
    double fpr = 1.0;
    // Upper bound on the entries this job emits; sizes the output table's
    // filter hash buffer once (see TableBuilderOptions::expected_entries).
    // 0 = unknown, as for a subcompaction fragment.
    uint64_t entry_bound = 0;
    SequenceNumber smallest_snapshot = 0;
    SequenceNumber run_sequence = 0;
    // Subcompaction bounds (internal keys; empty = unbounded). The merge
    // emits only entries in [start_key, end_key). Boundaries always sit at
    // (user_key, kMaxSequenceNumber) so no user key's versions straddle a
    // split (see BuildMergeOutputs).
    std::string start_key;
    std::string end_key;
  };

  // One queued writer in the group-commit protocol (LevelDB's Writer).
  // Lives on the caller's stack; the deque holds non-owning pointers.
  // done/status are deliberately NOT GUARDED_BY(mu_): the queue protocol
  // covers them — `done` is only written by a leader holding mu_ and only
  // read by the owning thread (under mu_, or after it observed done under
  // mu_), and `status` is written inside the leader's commit window (mu_
  // released, commit_in_flight_ set) before `done` publishes it.
  // Shared state of one parallel-apply group (lives on the leader's
  // stack for the duration of the group; see CommitGroupLocked).
  // `remaining` counts writers that have not finished inserting their
  // batch; the last one out signals `cv` to release the leader, which is
  // the only waiter. Its mutex is private to the group — never held
  // together with mu_.
  struct ParallelApplyState {
    explicit ParallelApplyState(int n) : remaining(n) {}
    std::atomic<int> remaining;
    Mutex mu;
    CondVar cv{&mu};
  };

  // One batch op after key-value separation: the op's own type and value,
  // or kValueHandle and the encoded handle of a value moved to the log.
  // The value points into the batch or into the leader's handle storage.
  struct ResolvedOp {
    ValueType type;
    Slice value;
  };

  struct Writer {
    Writer(const WriteBatch* b, bool s, Mutex* mu)
        : batch(b), sync(s), cv(mu) {}
    const WriteBatch* batch;
    bool sync;
    bool done = false;   // Set by the leader that committed (or failed) us.
    Status status;       // Valid once done.
    CondVar cv;          // Bound to mu_; signaled with mu_ held.

    // Parallel-apply assignment (set by the leader under mu_ after the
    // group's WAL record is durable, cleared by the owning thread under
    // mu_ once its insertion is done). While apply_assigned is true the
    // pointers below are kept alive by the leader, which cannot finish
    // the group until every member decrements apply_state->remaining.
    bool apply_assigned = false;
    SequenceNumber apply_first_seq = 0;
    // This writer's vlog-resolved operations, one per batch op; a span
    // of the leader's `resolved` vector.
    const ResolvedOp* apply_ops = nullptr;
    ParallelApplyState* apply_state = nullptr;
    MemTable* apply_mem = nullptr;
  };

  Status Recover() EXCLUDES(mu_);
  Status ReplayWal(const std::string& wal_path) REQUIRES(mu_);

  // Rotates to a fresh numbered WAL file. Does not delete the previous one
  // (its memtable may still be in flight).
  Status NewWalLocked() REQUIRES(mu_);
  std::string WalFileName(uint64_t number) const;

  // Commits `group` (a prefix of writers_) as its leader: resolves
  // value-log separation per member, builds one merged WAL record, appends
  // it (one fsync if any member wants sync), and applies it to the
  // memtable with contiguous sequence numbers. mu_ is released during the
  // vlog/WAL/memtable work (commit_in_flight_ keeps maintenance ops out)
  // and reacquired before returning. Each member's individual outcome is
  // written to its Writer::status: a member whose batch was not applied
  // never sees ok(). Returns the leader's own status. REQUIRES:
  // group[0] == writers_.front() is the calling thread.
  Status CommitGroupLocked(const std::vector<Writer*>& group)
      REQUIRES(mu_);

  // Inserts `w`'s assigned sub-batch into the memtable as part of a
  // parallel apply group (allow_concurrent_memtable_write). Runs with mu_
  // released (the group's WAL record is already durable; commit_in_flight_
  // keeps the memtable stable); reacquires mu_ and clears the assignment
  // before returning. Called by follower threads from DB::Write's wait
  // loop when the leader hands them their assignment.
  void ApplyParallelWriter(Writer* w) REQUIRES(mu_);

  // Inserts one member's resolved ops into `mem` with sequence numbers
  // first_seq, first_seq + 1, ...
  static void ApplyResolved(MemTable* mem, SequenceNumber first_seq,
                            const WriteBatch& batch, const ResolvedOp* ops);

  // Folds a retiring memtable's arena/skiplist counters into counters_ so
  // DbStats aggregates survive the flush. Called wherever mem_ is swapped.
  void AccumulateMemTableStats(const MemTable& mem);

  // Memtable-full handling shared by Put/Delete/Write. Synchronous mode
  // flushes inline; background mode freezes the memtable (with
  // backpressure) and wakes the worker. May release and reacquire mu_.
  Status MaybeCompactBuffer() REQUIRES(mu_);

  // Freezes the active memtable onto the immutable queue, rotating the WAL
  // and applying slowdown/stall backpressure when the queue is full. May
  // release and reacquire mu_.
  Status SwitchMemTable() REQUIRES(mu_);

  // One flush or merge: the unit the picker chooses and the step executor
  // runs. `inputs` lists every run the step consumes, newest first: all of
  // input_level's runs, then any of output_level's runs the merge absorbs.
  // A flush (input_level 0) has `mem` as its newest input.
  struct CompactionStep {
    int input_level = 0;
    int output_level = 1;
    std::vector<RunPtr> inputs;
    std::shared_ptr<MemTable> mem;
    bool trivial_move = false;  // Relink `inputs` at output_level; no I/O.
  };

  // Flushes `mem` to Level 1: under leveling it merges with Level 1's runs
  // (paper Fig. 3); otherwise it lands there as a new run. Callers run
  // Cascade() afterwards — separately, so the background worker can retire
  // the frozen memtable from imm_ first and the flush-priority yield sees
  // only *other* pending flushes. Flushing the active memtable (mem ==
  // mem_, synchronous mode) replaces it with a fresh one once its run is
  // built. With io_unlock, mu_ is released around the run build
  // (background mode) so writers and readers proceed during the I/O. The
  // first flush of a full buffer fixes B·P for this incarnation.
  Status FlushMemTable(std::shared_ptr<MemTable> mem, bool io_unlock)
      REQUIRES(mu_);

  // RAII around one merge (defined in db.cc): bumps the merge counter,
  // fires OnCompactionBegin/Completed with timing, and records
  // Hist::kMergeLatency. Reports failure unless Completed() was called.
  class CompactionScope;

  // Synchronous-mode flush of the active memtable (with cascades) + WAL
  // rotation. Waits out any in-flight group commit first. mu_ is kept held
  // through all the I/O — synchronous mode.
  Status FlushActiveMemTableLocked() REQUIRES(mu_);

  // The merge policy as one per-level rule, and the only code that reads
  // it to decide a merge. Scans from Level 1 and returns the first step
  // that restores a level's invariant, or nullopt at the fixpoint. A level
  // is leveled under leveling, and at the largest level under lazy
  // leveling; every other level is tiered.
  //  - A leveled level over its capacity B·P·T^l moves to l+1: a trivial
  //    move if l+1 is empty, else a merge absorbing l+1's runs. Skipped
  //    until B·P is known.
  //  - Lazy leveling: a leveled level holding several runs collapses in
  //    place.
  //  - A tiered level holding T runs merges them into one run at l+1,
  //    absorbing l+1's runs only when l+1 is leveled.
  std::optional<CompactionStep> PickCompactionLocked() const REQUIRES(mu_);

  // Runs one step: the trivial move, or the merge through
  // BuildMergeOutputs (mu_ released around the build with io_unlock). Then
  // installs the outputs in front of output_level's surviving runs and
  // logs the edit.
  Status RunCompactionStepLocked(const CompactionStep& step, bool io_unlock)
      REQUIRES(mu_);

  // Runs picked steps until the fixpoint. With io_unlock it yields between
  // steps whenever a frozen memtable is waiting (flushes take priority);
  // BackgroundMain comes back while PickCompactionLocked finds work.
  Status Cascade(bool io_unlock) REQUIRES(mu_);

  // Captures the tree geometry, resolves the FPR for the output run, and
  // allocates its file number.
  CompactionJob PrepareJobLocked(int target_level, bool drop_tombstones,
                                 uint64_t estimated_entries) REQUIRES(mu_);

  // Builds a new on-disk run from iter (which yields internal keys in
  // order) according to job. Touches no mu_-guarded state: callers may
  // drop mu_ around it.
  Status BuildRunFromJob(Iterator* iter, const CompactionJob& job,
                         RunPtr* out);

  // PrepareJobLocked + BuildRunFromJob. estimated_entries is an upper
  // bound on the output size; it sizes the filter's hash buffer. With
  // io_unlock, mu_ is released during the build.
  Status BuildRun(Iterator* iter, int target_level, bool drop_tombstones,
                  uint64_t estimated_entries, RunPtr* out,
                  bool io_unlock) REQUIRES(mu_);

  // Merges `inputs` (plus `mem`, when non-null) into the target level,
  // possibly as several parallel range-partitioned subcompactions when a
  // compaction pool exists and the policy is leveling: the key space is
  // split at fence-pointer boundaries (always between user keys, never
  // between versions of one key) into disjoint ranges, each merged by its
  // own thread into its own output run, all sharing one FPR/sequence/
  // snapshot decision. Appends the non-empty outputs to *outputs in key
  // order; with compaction_threads == 1 this is byte-identical to the
  // single BuildRun path. With io_unlock, mu_ is released during the
  // builds.
  Status BuildMergeOutputs(const std::vector<RunPtr>& inputs,
                           const std::shared_ptr<MemTable>& mem,
                           int target_level, bool drop_tombstones,
                           uint64_t estimated_entries,
                           std::vector<RunPtr>* outputs,
                           bool io_unlock) REQUIRES(mu_);

  // True iff nothing older than output_level exists, so tombstones and all
  // superseded entries can be dropped.
  bool CanDropTombstones(int output_level) const REQUIRES(mu_);

  // Appends edit to the manifest, applies it to current_, and publishes a
  // new ReadView. Files the edit retires are queued on obsolete_files_ for
  // DrainObsoleteFilesLocked — never unlinked here, where mu_ is held.
  Status LogAndApply(const VersionEdit& edit) REQUIRES(mu_);

  // Unlinks everything queued on obsolete_files_ with mu_ released (the
  // names left every published view when they were queued, so nothing can
  // reach them). Re-checks the queue after re-acquiring in case more files
  // were retired during the window. Called from the background worker
  // after each work item and from the synchronous flush/compaction paths
  // before they return.
  void DrainObsoleteFilesLocked() REQUIRES(mu_);

  uint64_t LevelCapacityEntries(int level) const;

  // Replaces *value (an encoded ValueHandle) with the logged value.
  Status ResolveHandle(std::string* value) const;

  std::string TableFileName(uint64_t number) const;
  Status OpenTable(RunPtr run);

  // --- Read-path snapshot publication ---

  // Rebuilds the published ReadView from mem_/imm_/current_.
  void PublishViewLocked() REQUIRES(mu_) EXCLUDES(view_mu_);
  std::shared_ptr<const ReadView> CurrentView() const EXCLUDES(view_mu_) {
    // view_mu_ is held only for this pointer copy (it is NOT mu_ — the
    // read path still never waits on writers or compactions).
    // std::atomic<std::shared_ptr> would express this directly, but
    // libstdc++ 12's _Sp_atomic::load unlocks its spinlock with a relaxed
    // fetch_sub, which TSan (correctly, per the memory model) flags as a
    // data race against the next store's pointer write.
    MutexLock lock(view_mu_);
    return view_;
  }

  // --- Background worker ---

  void BackgroundMain() EXCLUDES(mu_);
  // Flushes the oldest frozen memtable (releasing the lock during I/O),
  // then retires it and its WAL.
  Status FlushOldestImmutable() REQUIRES(mu_);
  // Blocks until the immutable queue is empty and the worker is idle.
  Status WaitForDrain() REQUIRES(mu_);

  // Backend Env constructed by Open when DbOptions::env was null. Declared
  // first so it is destroyed last — every table file, WAL, and manifest
  // below was created by it.
  std::unique_ptr<Env> owned_env_;
  // Non-null iff owned_env_ is the io_uring backend; exposes its counters
  // (sqes submitted, batched-per-syscall ratio, retries) to DumpMetrics.
  UringEnv* uring_env_ = nullptr;

  const DbOptions options_;
  const std::string name_;

  // Smallest sequence pinned by an active snapshot (or last_sequence_ if
  // none). Compactions must keep versions visible at this point.
  SequenceNumber SmallestSnapshotLocked() const REQUIRES(mu_);

  // Writer/metadata mutex. Guards mem_/imm_ membership, snapshots_,
  // next_file_number_, wal_/manifest_ appends, and every structural change
  // to current_. The read path never takes it.
  mutable Mutex mu_;
  // mem_ and wal_ are GUARDED_BY(mu_) for their swaps; the group-commit
  // leader also accesses them through CommitGroupLocked's ScopedUnlock
  // window, where the commit_in_flight_ interlock (not mu_) keeps them
  // stable — see that function.
  std::shared_ptr<MemTable> mem_ GUARDED_BY(mu_);
  std::vector<ImmEntry> imm_ GUARDED_BY(mu_);  // Newest first.

  // Group-commit writer queue. front() is the leader; it commits a prefix
  // of the queue and pops it. commit_in_flight_ is true while the leader
  // works outside mu_; maintenance operations that swap mem_ or the WAL
  // (Flush, CompactAll, Checkpoint, GetSnapshot) wait on commit_cv_ for it
  // to clear so they never observe a half-applied group.
  std::deque<Writer*> writers_ GUARDED_BY(mu_);
  bool commit_in_flight_ GUARDED_BY(mu_) = false;
  CondVar commit_cv_{&mu_};
  std::multiset<SequenceNumber> snapshots_ GUARDED_BY(mu_);
  std::atomic<SequenceNumber> last_sequence_{0};
  uint64_t next_file_number_ GUARDED_BY(mu_) = 1;
  uint64_t wal_number_ GUARDED_BY(mu_) = 0;
  // Files retired from every published view, awaiting unlink outside mu_.
  std::vector<std::string> obsolete_files_ GUARDED_BY(mu_);
  std::atomic<uint64_t> buffer_entries_{0};  // B·P: set by a full flush.

  // Master tree state, mutated only under mu_ by the thread performing
  // structural work (in background mode, only the worker or a drained
  // maintenance op — so it is stable across the worker's unlock windows).
  Version current_ GUARDED_BY(mu_);
  // Immutable snapshot for the read path; replaced on every structural
  // change. view_mu_ guards only the pointer swap itself and is never held
  // across probes, merges, or I/O (see CurrentView for why this is not an
  // std::atomic<std::shared_ptr>).
  mutable Mutex view_mu_;
  std::shared_ptr<const ReadView> view_ GUARDED_BY(view_mu_);

  // Set once in Recover (before any concurrency) and internally
  // synchronized; the read path calls vlog_->Get with no lock held.
  std::unique_ptr<ValueLog> vlog_;  // Non-null iff separation is enabled.
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mu_);
  std::unique_ptr<WalWriter> manifest_ GUARDED_BY(mu_);

  // Background flush/compaction state (background mode only). Shutdown
  // ordering: ~DB sets shutting_down_ under mu_, wakes both cvs, joins the
  // worker, and only then tears members down, so the worker never touches
  // a dead Env or Version.
  std::thread bg_thread_;
  // Extra merge threads for range-partitioned subcompactions; non-null iff
  // compaction_threads > 1 (holds compaction_threads - 1 threads — the
  // dispatching thread works too). Destroyed after bg_thread_ joins.
  std::unique_ptr<ThreadPool> compaction_pool_;
  // Read-path pool executing scan readahead and MultiGet block fetches;
  // non-null iff read_io_threads > 0. Idle unless those features are used.
  // Iterators hand it to TableIterator, so they must not outlive the DB
  // (already the contract — they hold a raw DB pointer).
  std::unique_ptr<ThreadPool> read_pool_;
  CondVar bg_work_cv_{&mu_};  // Signals the worker: work/shutdown.
  CondVar bg_done_cv_{&mu_};  // Signals writers: progress made.
  bool worker_busy_ GUARDED_BY(mu_) = false;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  Status bg_error_ GUARDED_BY(mu_);  // Sticky; surfaced on writes.

  // Lock-free operation counters (the mutable pieces of DbStats).
  struct Counters {
    // Deep enough for any geometry the benches build; probes on deeper
    // levels clamp into the last slot.
    static constexpr int kMaxLevels = 24;

    std::atomic<uint64_t> gets{0};
    std::atomic<uint64_t> gets_not_found{0};
    std::atomic<uint64_t> multigets{0};
    std::atomic<uint64_t> runs_probed{0};
    std::atomic<uint64_t> filter_negatives{0};
    std::atomic<uint64_t> false_positives{0};
    std::atomic<uint64_t> flushes{0};
    std::atomic<uint64_t> merges{0};
    std::atomic<uint64_t> entries_compacted{0};
    std::atomic<uint64_t> write_slowdowns{0};
    std::atomic<uint64_t> write_stalls{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> write_groups{0};
    std::atomic<uint64_t> write_group_batches{0};
    std::atomic<uint64_t> wal_appends{0};
    std::atomic<uint64_t> wal_syncs{0};
    std::atomic<uint64_t> wal_rotations{0};
    std::atomic<uint64_t> value_log_writes{0};
    std::atomic<uint64_t> value_log_bytes{0};
    std::atomic<uint64_t> value_log_reads{0};

    // Concurrent-memtable path. The group counters are bumped per commit;
    // the arena/skiplist counters accumulate retired memtables' totals
    // (AccumulateMemTableStats) — GetStats adds the live memtable on top.
    std::atomic<uint64_t> memtable_parallel_groups{0};
    std::atomic<uint64_t> memtable_parallel_batches{0};
    std::atomic<uint64_t> arena_cas_retries{0};
    std::atomic<uint64_t> arena_slow_allocs{0};
    std::atomic<uint64_t> arena_shard_refills{0};
    std::atomic<uint64_t> arena_hugetlb_blocks{0};
    std::atomic<uint64_t> arena_thp_blocks{0};
    std::atomic<uint64_t> arena_plain_blocks{0};
    std::atomic<uint64_t> skiplist_cas_retries{0};

    // Per-level probe attribution (index 0 = Level 1); feeds the
    // measured-FPR gauges in DumpMetrics.
    std::atomic<uint64_t> runs_probed_per_level[kMaxLevels] = {};
    std::atomic<uint64_t> filter_negatives_per_level[kMaxLevels] = {};
    std::atomic<uint64_t> false_positives_per_level[kMaxLevels] = {};
  };
  mutable Counters counters_;

  // Clamps a 0-based on-disk level index into the per-level counter range.
  static int StatLevel(int level) {
    return level < 0 ? 0
                     : (level >= Counters::kMaxLevels
                            ? Counters::kMaxLevels - 1
                            : level);
  }

  // Non-null iff options_.enable_metrics; every StopWatch site takes this
  // pointer, so the disabled configuration skips even the clock reads.
  std::unique_ptr<MetricsRegistry> metrics_;

  // Windowed (ring-of-epochs) views advanced on each DumpMetrics() scrape:
  // per-level {runs_probed, filter_negatives, false_positives} deltas feed
  // the monkey_measured_fpr_1m{level} gauges, and a windowed get-latency
  // histogram rides along when metrics are enabled. Scrape-driven: the
  // request path never touches them, and each ring grows one epoch per
  // scrape. Guarded by window_mu_ (scrapes can race each other; nothing
  // else contends).
  struct WindowState;
  mutable Mutex window_mu_;
  mutable std::unique_ptr<WindowState> window_ GUARDED_BY(window_mu_);

  // Delivers an event to every listener, swallowing (but counting and
  // logging) exceptions so a faulty listener cannot take down a writer or
  // the background worker. Several call sites hold mu_ — part of the
  // listener contract (obs/event_listener.h).
  template <typename Fn>
  void NotifyListeners(Fn&& fn) const {
    for (const auto& listener : options_.listeners) {
      try {
        if (metrics_ != nullptr) metrics_->Tick1(Tick::kListenerCallbacks);
        fn(listener.get());
      } catch (...) {
        if (metrics_ != nullptr) metrics_->Tick1(Tick::kListenerFailures);
        if (options_.info_log != nullptr) {
          options_.info_log->Warn("event listener threw; ignored");
        }
      }
    }
  }

  bool HasObservers() const {
    return !options_.listeners.empty() || options_.info_log != nullptr;
  }

  // Stall-state edge detection for OnWriteStallChange (writer thread(s),
  // serialized by mu_ at every transition site).
  WriteStallInfo::Condition stall_condition_ GUARDED_BY(mu_) =
      WriteStallInfo::Condition::kNormal;
  // Publishes a stall-condition transition (no-op if unchanged).
  void SetStallCondition(WriteStallInfo::Condition next) REQUIRES(mu_);

  // Last FPR the allocator assigned per target level, for
  // OnFilterAllocation change detection (written under mu_ in
  // PrepareJobLocked).
  double last_fpr_per_level_[Counters::kMaxLevels] GUARDED_BY(mu_) = {};

  friend class DbIterator;
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_DB_H_
