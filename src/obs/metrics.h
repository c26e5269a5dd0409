// MetricsRegistry: the engine-wide home for latency histograms, counters,
// and gauges (RocksDB's Statistics, sized for this engine).
//
// Hot-path recording must not contend: the registry stripes threads over
// kNumShards cache-line-padded shards, each holding one Histogram per Hist
// enumerator and one relaxed atomic per Tick enumerator. A thread picks its
// shard slot once (round-robin thread_local assignment) and then records
// with plain relaxed atomics — no locks, no false sharing between
// concurrent readers and writers. Snapshots fold all shards into
// per-metric totals.
//
// Memory is paid per recording thread, not per registry: a slot stays
// null until the first Record/Tick1 from a thread striped onto it installs
// its shard by CAS (~49 KiB each). A registry that one thread records into
// holds one shard; one that nobody records into holds none.
//
// An engine registry only exists when DbOptions::enable_metrics is true;
// every engine call site holds a MetricsRegistry* that is null by default,
// and the StopWatch helper does not even read the clock when the pointer
// is null.

#ifndef MONKEYDB_OBS_METRICS_H_
#define MONKEYDB_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/histogram.h"

namespace monkeydb {

// Latency histograms (microseconds unless noted otherwise).
enum class Hist : int {
  kGetLatency = 0,
  kMultiGetLatency,
  kWriteLatency,            // Whole DB::Write call, queue wait included.
  kWriteQueueWait,          // Time parked in the group-commit writer queue.
  kWalWriteLatency,         // WalWriter::AddRecord (header+payload appends).
  kWalSyncLatency,          // The fsync portion of a synchronous commit.
  kMemtableApplyLatency,    // Applying one commit group to the memtable.
  kIterSeekLatency,
  kIterNextLatency,
  kFlushLatency,
  kMergeLatency,            // One whole merge (all subcompactions).
  kSubcompactionLatency,    // One range-partitioned merge task.
  kBlockCacheLookupLatency,
  kBlockReadLatency,        // Block fetches that miss the cache.
  kWriteGroupSize,          // Unit: writers per commit group, not time.
  kParallelApplyFanout,     // Unit: writers applying a group in parallel.

  // RESP serving layer (src/server; recorded on the server's own
  // registry, so an embedded DB's histograms stay untouched). The
  // latency histograms measure command dispatch -> reply bytes
  // buffered, i.e. the engine batch the command rode in on; pipelined
  // commands coalesced into one engine call therefore share one
  // measurement each.
  kServerGetLatency,
  kServerSetLatency,
  kServerDelLatency,
  kServerMGetLatency,
  kServerMSetLatency,
  kServerScanLatency,
  kServerOtherLatency,      // PING/INFO/CONFIG/... (admin commands).
  kServerPipelineDepth,     // Unit: parsed commands coalesced per tick.
  kNumHistograms,
};

// Counters that only exist with metrics enabled (engine-lifetime counters
// that benches already depend on live in DB::Counters instead).
enum class Tick : int {
  kListenerCallbacks = 0,
  kListenerFailures,        // Listener callbacks that threw.
  kLoggerRotations,

  // RESP serving layer (server registry only; see Hist above).
  kServerConnectionsAccepted,
  kServerConnectionsClosed,
  kServerCommands,           // Commands answered (pipelined ones included).
  kServerProtocolErrors,     // Malformed frames (connection closed after).
  kServerBackpressurePauses, // Reads paused: output backlog > soft limit.
  kServerOverlimitCloses,    // Connections dropped: backlog > hard limit.
  kServerHttpRequests,       // HTTP requests served (/metrics etc).
  kNumTicks,
};

const char* HistName(Hist h);
const char* TickName(Tick t);

class MetricsRegistry {
 public:
  static constexpr int kNumShards = 16;

  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void Record(Hist h, uint64_t value) {
    Shard().hists[static_cast<int>(h)].Record(value);
  }
  void Tick1(Tick t) {
    Shard().ticks[static_cast<int>(t)].fetch_add(
        1, std::memory_order_relaxed);
  }

  HistogramData SnapshotHistogram(Hist h) const;
  // Folds all shards of `h` into *merger without computing percentiles —
  // the cumulative input WindowedHistogram::Advance wants at scrape time.
  void MergeHistogram(Hist h, HistogramMerger* merger) const;
  uint64_t TickTotal(Tick t) const;

  // Zeroes every installed shard. Concurrent recorders may land increments
  // on either side of the sweep; reset is a bench/test convenience, not a
  // fence. Installed shards stay installed.
  void Reset();

  // Shards installed so far: at most min(recording threads, kNumShards).
  int MaterializedShards() const;

 private:
  struct alignas(64) ShardData {
    Histogram hists[static_cast<int>(Hist::kNumHistograms)];
    std::atomic<uint64_t> ticks[static_cast<int>(Tick::kNumTicks)] = {};
  };

  ShardData& Shard() {
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
    ShardData* shard = shards_[idx].load(std::memory_order_acquire);
    if (shard == nullptr) [[unlikely]] shard = InstallShard(idx);
    return *shard;
  }

  // Installs slot idx's shard, or returns the one a racing thread won with.
  ShardData* InstallShard(uint32_t idx);

  std::atomic<ShardData*> shards_[kNumShards] = {};
};

// RAII latency recorder. Costs nothing (not even a clock read) when the
// registry pointer is null, which is the enable_metrics=false case.
class StopWatch {
 public:
  StopWatch(MetricsRegistry* metrics, Hist hist)
      : metrics_(metrics), hist_(hist) {
    if (metrics_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~StopWatch() {
    if (metrics_ != nullptr) {
      metrics_->Record(hist_, ElapsedMicros());
    }
  }

  uint64_t ElapsedMicros() const {
    // monkey-lint: io-under-mutex — metrics clock read: a vDSO call with
    // no syscall or blocking; safe wherever the watch stops.
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
  }

  StopWatch(const StopWatch&) = delete;
  StopWatch& operator=(const StopWatch&) = delete;

 private:
  MetricsRegistry* metrics_;
  Hist hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace monkeydb

#endif  // MONKEYDB_OBS_METRICS_H_
