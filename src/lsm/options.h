// DbOptions: the tuning knobs of the LSM engine — exactly the design knobs
// the paper identifies (Sec. 4): merge policy, size ratio T, buffer size
// M_buffer, filter memory M_filters (as bits per entry) and its allocation
// policy.

#ifndef MONKEYDB_LSM_OPTIONS_H_
#define MONKEYDB_LSM_OPTIONS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "io/block_cache.h"
#include "io/env.h"
#include "lsm/fpr_policy.h"
#include "obs/event_listener.h"
#include "obs/logger.h"

namespace monkeydb {

struct DbOptions {
  // Storage environment (use NewMemEnv() or GetPosixEnv(), optionally
  // wrapped in a CountingEnv). Null = the DB constructs and owns a
  // real-filesystem backend chosen by io_backend/use_direct_io below.
  Env* env = nullptr;

  // --- I/O substrate (consulted only when env == nullptr; see DESIGN.md
  // §12 "I/O substrate") ---

  // Which real-filesystem backend to build. kUring submits the batched
  // read plans (MultiGet stage 3, scan readahead windows) to the kernel as
  // one io_uring_enter each; it probes for io_uring at Open and falls back
  // to kPosix automatically — with a log line and a fallback-counter bump
  // — on kernels/containers without it. The MONKEYDB_IO_BACKEND
  // environment variable ("posix"/"uring") overrides this knob, so CI can
  // sweep backends without rebuilding.
  IoBackend io_backend = IoBackend::kPosix;

  // Open SSTables with O_DIRECT and read via aligned windows, bypassing
  // the OS page cache so block_cache is the only cache in the experiment.
  // Filesystems that reject O_DIRECT (tmpfs) degrade to buffered reads per
  // file. Adds exactly one aligned bounce copy per block read; the default
  // buffered path reads straight into the block's final storage.
  bool use_direct_io = false;

  // --- LSM design knobs (paper Sec. 4, "Design Knobs") ---

  MergePolicy merge_policy = MergePolicy::kLeveling;

  // T: capacity ratio between adjacent levels. Must be >= 2.
  double size_ratio = 2.0;

  // M_buffer in bytes: flush the memtable once it reaches this size.
  size_t buffer_size_bytes = 1 << 20;  // 1 MB, the paper's default setup.

  // M_filters expressed as bits per entry. 0 disables filters entirely.
  double bits_per_entry = 5.0;  // The paper's default experimental setup.

  // How the filter memory is divided among levels. Null = uniform baseline.
  std::shared_ptr<const FprAllocationPolicy> fpr_policy;

  // --- Physical parameters ---

  // Disk page size; data blocks are page-aligned so one probe = one I/O.
  size_t page_size = 4096;

  // Optional block cache (paper Appendix F). Null = no cache.
  BlockCache* block_cache = nullptr;

  // Durability: fsync WAL appends. Off by default (experiments measure
  // steady-state I/O, not fsync latency).
  bool sync_writes = false;

  // WiscKey-style key-value separation: values of at least this many bytes
  // are stored in the value log and the tree keeps only a handle, so merges
  // move keys without their values (Sec. 6 "Reducing Merge Overheads").
  // 0 disables separation.
  size_t value_separation_threshold = 0;

  // Expected total number of entries (N). When set, filter-allocation
  // planning targets the final tree geometry instead of adapting to the
  // current fill level — this is how the paper's experiments configure
  // Monkey. 0 = adapt dynamically as the tree grows.
  uint64_t expected_entries = 0;

  // --- Threading (see DESIGN.md "Threading") ---

  // Run flushes and cascading merges on a background worker thread. A full
  // memtable is frozen into an immutable-memtable queue and the writer
  // continues into a fresh memtable; writers slow down and then stall only
  // when the queue reaches max_immutable_memtables. Off by default: the
  // synchronous mode keeps compactions on the writing thread with a
  // deterministic per-operation I/O schedule, which the model-validation
  // tests and figure benches rely on.
  bool background_compaction = false;

  // Capacity of the immutable-memtable queue (frozen memtables awaiting a
  // background flush). The writer is briefly slowed once the queue is one
  // short of full and stalls while it is full. Only used when
  // background_compaction is true. Must be >= 1.
  int max_immutable_memtables = 2;

  // Group commit: concurrent writers enqueue behind a writer queue; the
  // front writer (the leader) coalesces every pending batch — up to this
  // many payload bytes — into a single WAL record with one fsync (issued
  // when any group member asked for sync), applies the merged batch to the
  // memtable once, and wakes the followers with their individual statuses.
  // The leader's own batch always commits regardless of this cap. A single
  // uncontended writer forms a group of one, which is byte- and
  // I/O-identical to the pre-group-commit write path.
  size_t max_write_group_bytes = 1 << 20;

  // Number of threads executing merge work. 1 (the default) runs every
  // flush and merge single-threaded, exactly like the original engine
  // (bit-identical per-operation I/O schedule). Values > 1 create a pool
  // of compaction_threads - 1 extra workers and split large leveling
  // merges into that many disjoint key ranges at fence-pointer boundaries
  // (range-partitioned subcompactions): the ranges are merged in parallel
  // into separate output runs with disjoint user-key spans and installed
  // atomically as one version edit. Only leveling merges are partitioned
  // (tiering counts runs per level, so fragmenting a run would distort its
  // geometry); other policies ignore values > 1. Must be >= 1.
  int compaction_threads = 1;

  // Parallel write-group application (see DESIGN.md "Write path II").
  // With this on, the group-commit leader still assigns contiguous
  // sequence numbers and writes/fsyncs ONE WAL record for the whole
  // group, but instead of applying every batch itself it wakes the
  // followers and each writer inserts its own batch into the memtable
  // concurrently (lock-free CAS skiplist splices over a sharded,
  // hugepage-backed ConcurrentArena). The group's sequence is published
  // only after the last writer finishes, so reads never observe a
  // half-applied group. Off (the default) keeps the classic serial
  // leader-applies-all path, byte-identical to previous builds. The
  // MONKEYDB_CONCURRENT_MEMTABLE environment variable ("0"/"1")
  // overrides this knob, so CI can sweep both modes without rebuilding.
  // Hugepage backing for the arena is controlled independently by
  // MONKEYDB_ARENA_HUGEPAGE ("auto"/"thp"/"never"; see README).
  bool allow_concurrent_memtable_write = false;

  // Memtable arena block size in bytes; 0 picks a default: 4 KiB for the
  // classic single-writer arena (the historical value — flush-boundary
  // accounting depends on it, so the figure benches stay byte-identical),
  // and for the concurrent arena 2 MiB (one hugepage) clamped down to
  // buffer_size_bytes/2 (floor 64 KiB) so small write buffers do not
  // overshoot their flush threshold by a whole block.
  size_t arena_block_size = 0;

  // --- Read pipelining (see DESIGN.md "Read path") ---

  // Scan readahead depth: while a range scan is consuming data block k of
  // a run, the iterator keeps the next scan_readahead_blocks blocks of
  // that run in flight (an async-read hint to the Env plus, when
  // read_io_threads > 0, a background fetch into the block cache), so
  // crossing a block boundary does not stall on a cold read. 0 (the
  // default) disables readahead entirely: scans issue exactly the same
  // sequence of synchronous reads as the classic engine. Overridable per
  // iterator via ReadOptions::readahead_blocks.
  int scan_readahead_blocks = 0;

  // Threads in the shared read-path pool that executes scan readahead and
  // batched (MultiGet) block fetches. 0 disables the pool: readahead then
  // degrades to hint-only pipelining and MultiGet fetches its blocks
  // sequentially (both still correct, just less overlapped). The pool is
  // idle unless readahead or MultiGet is actually used.
  int read_io_threads = 4;

  // --- Observability (see DESIGN.md "Observability") ---

  // Maintain the MetricsRegistry: latency histograms (Get, MultiGet,
  // Write queue-wait/WAL-sync/memtable-apply, iterator Seek/Next, flush,
  // merge, subcompaction, block-cache lookup, WAL fsync) exported by
  // DB::DumpMetrics() in Prometheus or JSON form. Off by default: the
  // disabled path records nothing and never reads the clock, keeping the
  // figure benches' I/O and output byte-identical to a build without the
  // metrics layer. (Thread-local PerfContext breakdowns are independent of
  // this switch — see obs/perf_context.h.)
  bool enable_metrics = false;

  // Listeners receive flush/compaction/stall/WAL-rotation/filter-
  // allocation callbacks (contract in obs/event_listener.h). Callbacks may
  // fire with internal locks held: keep them fast and never call back into
  // the DB. Exceptions are caught and counted, never propagated.
  std::vector<std::shared_ptr<EventListener>> listeners;

  // Destination for the engine's info log (LevelDB's LOG file; create one
  // with NewFileLogger). Null = no logging. Events delivered to listeners
  // are also logged here.
  std::shared_ptr<Logger> info_log;
};

class Snapshot;

struct ReadOptions {
  bool fill_block_cache = true;
  // Read at this snapshot instead of the latest state. Not owned; must
  // stay unreleased for the duration of the read (nullptr = latest).
  const Snapshot* snapshot = nullptr;
  // Per-iterator scan readahead depth: -1 (the default) inherits
  // DbOptions::scan_readahead_blocks, 0 disables readahead for this
  // iterator, > 0 overrides the depth. Lets one DB serve pipelined and
  // classic scans side by side (benchmarks sweep this without reopening).
  int readahead_blocks = -1;
  // Force-arm request tracing for this read regardless of the global
  // sample rate: the call records a span tree (obs/trace.h) into the
  // flight recorder, retrievable via DB::DumpTrace(). Default off — a
  // non-traced read never touches the trace clock.
  bool trace = false;
};

struct WriteOptions {
  bool sync = false;
  // Force-arm request tracing for this write (see ReadOptions::trace).
  bool trace = false;
};

// ServerOptions: knobs of the RESP serving layer (src/server; DESIGN.md
// §14 "Serving layer"). The server is a separate binary (monkey_server)
// layered strictly on top of the DB API — none of these knobs affects an
// embedded DB, and DbOptions defaults are untouched.
struct ServerOptions {
  // Address/port the listener set binds. Port 0 binds an ephemeral port
  // (MonkeyServer::port() reports the one actually bound — tests use it).
  std::string server_bind = "127.0.0.1";
  int server_port = 6380;

  // Number of independent DB instances the keyspace is hash-partitioned
  // across. Each shard owns its own event-loop thread and its own
  // SO_REUSEPORT listener on server_port (the kernel spreads incoming
  // connections across them), so shards share no engine state at all:
  // separate memtables, WALs, compaction workers, block caches. Commands
  // route per key (XxHash64 % shards); MGET/MSET/DEL spanning shards are
  // split per shard and reassembled in request order. Must be >= 1.
  int server_shards = 1;

  // listen(2) backlog per shard listener.
  int server_backlog = 511;

  // Disable Nagle on accepted sockets; pipelined request/response traffic
  // wants its replies on the wire immediately.
  bool server_tcp_nodelay = true;

  // Pipelining cap: at most this many parsed-but-unanswered commands are
  // coalesced per connection per event-loop tick. Commands beyond the cap
  // stay buffered and feed the next tick. Bounds the per-tick batch fed
  // into MultiGet/the group-commit writer and the reply burst a single
  // connection can generate.
  int server_max_pipeline = 1024;

  // Slow-client backpressure (bounded output queue). When a connection's
  // unflushed reply bytes exceed the soft limit the server stops reading
  // from it (EPOLLIN dropped) until the backlog drains below half the
  // limit; past the hard limit the connection is closed outright. A
  // pipelined reply burst can overshoot the soft limit by at most one
  // tick's replies; the hard limit is the true bound.
  size_t server_output_soft_limit_bytes = 8u << 20;
  size_t server_output_hard_limit_bytes = 64u << 20;

  // Protocol limits, RESP frames violating them get an -ERR "Protocol
  // error" reply and the connection is closed (never a crash): max bytes
  // of one bulk argument, max elements of one multibulk command, and max
  // bytes of one inline command line.
  size_t server_max_bulk_bytes = 64u << 20;
  size_t server_max_multibulk = 1u << 20;
  size_t server_max_inline_bytes = 64u << 10;

  // Tracing / SLOWLOG (DESIGN.md §16). trace_sample_rate head-samples
  // incoming commands into the flight recorder: each command run is armed
  // with this probability and its spans land in the per-thread trace
  // rings, served back via `TRACE`, `SLOWLOG GET`, and HTTP /trace. The
  // MONKEYDB_TRACE_SAMPLE environment variable, when set, overrides this
  // knob (same contract as MONKEYDB_IO_BACKEND). 0.0 (the default) keeps
  // the request path free of clock reads entirely.
  double trace_sample_rate = 0.0;

  // Tail capture: a command run slower than this threshold is recorded in
  // the server's SLOWLOG ring together with its span tree (runs are
  // always armed for tracing while the threshold is active, so the tree
  // exists even for un-sampled requests). 0 (the default) disables the
  // slowlog and its per-run clock reads. slowlog_max_len bounds the ring;
  // oldest entries fall off.
  uint64_t slowlog_threshold_us = 0;
  size_t slowlog_max_len = 128;

  // Maintain the server's own MetricsRegistry: per-command latency
  // summaries (server_get/set/del/mget/mset/scan_latency_us), the
  // pipeline-depth histogram, and connection/protocol/backpressure
  // counters. Independent of db_options.enable_metrics (the per-shard
  // engine registries). On by default — observability is the point of a
  // server; turn it off to shave the clock reads.
  bool server_enable_metrics = true;

  // Template DbOptions every shard DB is opened with (shard i lives in
  // <data_dir>/shard-<i>). env must be null or a thread-safe Env shared
  // by all shards (tests pass one MemEnv); when null each shard builds
  // and owns its own backend per io_backend/use_direct_io, so io_uring
  // rings are per shard. enable_metrics here governs the engine
  // histograms that /metrics exports per shard.
  DbOptions db_options;
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_OPTIONS_H_
