// Log-bucketed latency histogram (HdrHistogram-lite).
//
// Values are bucketed into 64 octaves x 4 linear sub-buckets = 256 buckets,
// covering the full uint64 range with a worst-case relative error of 25%
// per recorded value (a value lands in a bucket whose width is 1/4 of its
// lower bound). Recording is a single relaxed fetch_add, so a histogram can
// be hammered from many threads without coordination; MetricsRegistry keeps
// one histogram per shard and merges them at snapshot time.
//
// Snapshots report count / sum / avg / max plus interpolated p50 / p90 /
// p99 / p99.9, which is what the bench harness and DumpMetrics() export.

#ifndef MONKEYDB_OBS_HISTOGRAM_H_
#define MONKEYDB_OBS_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace monkeydb {

// Aggregated view of one histogram (merged across shards).
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  double avg = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  // "count=12 avg=3.1us p50=2 p90=6 p99=14 p99.9=14 max=15"
  std::string ToString() const;
};

class Histogram {
 public:
  static constexpr int kSubBucketBits = 2;                    // 4 per octave
  static constexpr int kNumBuckets = 64 << kSubBucketBits;    // 256

  // Bucket index for a value: octave from the bit width, sub-bucket from
  // the two bits below the leading bit. Values 0..3 map to buckets 0..3
  // exactly (their octave has no sub-bits to spare).
  static constexpr int BucketFor(uint64_t value) {
    if (value < 4) return static_cast<int>(value);
    const int octave = std::bit_width(value) - 1;              // >= 2
    const int sub =
        static_cast<int>((value >> (octave - kSubBucketBits)) & 3);
    return (octave << kSubBucketBits) | sub;
  }

  // Inclusive lower bound of a bucket (the smallest value mapping to it).
  static constexpr uint64_t BucketLowerBound(int bucket) {
    if (bucket < 4) return static_cast<uint64_t>(bucket);
    const int octave = bucket >> kSubBucketBits;
    const uint64_t sub = static_cast<uint64_t>(bucket & 3);
    return (uint64_t{4} + sub) << (octave - kSubBucketBits);
  }

  void Record(uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  // Adds this histogram's buckets into *merged (used by the registry to
  // fold per-thread shards into one HistogramMerger).
  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

// Accumulates one or more Histogram shards and computes percentiles.
class HistogramMerger {
 public:
  void Add(const Histogram& h);
  HistogramData Snapshot() const;

  // Folded-bucket accessors for windowed deltas (WindowedHistogram stores
  // cumulative merges and subtracts them epoch-to-epoch).
  uint64_t bucket(int i) const { return buckets_[i]; }
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }

 private:
  uint64_t buckets_[Histogram::kNumBuckets] = {};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// --- Windowed (ring-of-epochs) snapshots ------------------------------------
//
// Cumulative counters answer "since process start"; the self-tuning signals
// (measured FPR drift, rolling latency) need "over the last minute". Both
// classes below keep a small ring of *cumulative* snapshots stamped at
// scrape time and report the delta between the newest epoch and the oldest
// epoch still inside the requested window. They are externally
// synchronized: callers advance and read them under their own lock (the DB
// advances on each DumpMetrics() scrape).

// Ring of timestamped cumulative counter vectors; Delta() reports how much
// each counter grew over roughly the last N seconds. The ring grows by one
// epoch per Advance up to max_epochs and then wraps, so a window that is
// never scraped holds no epochs at all.
class EpochWindow {
 public:
  static constexpr size_t kDefaultEpochs = 64;

  explicit EpochWindow(size_t num_counters,
                       size_t max_epochs = kDefaultEpochs);

  // Records the current cumulative counter values at `now_secs`
  // (monotonic). A repeat call within the same second overwrites the
  // newest epoch instead of consuming a slot.
  void Advance(uint64_t now_secs, const std::vector<uint64_t>& cumulative);

  // Growth of each counter between the newest epoch and the oldest
  // retained epoch at most `last_n_secs` older. False until two epochs
  // exist; *span_secs reports the span actually covered (it can be shorter
  // than requested early in life, or longer by one scrape interval).
  bool Delta(uint64_t last_n_secs, std::vector<uint64_t>* delta,
             uint64_t* span_secs) const;

 private:
  struct Epoch {
    uint64_t ts_secs = 0;
    std::vector<uint64_t> cum;
  };

  const size_t num_counters_;
  const size_t max_epochs_;
  std::vector<Epoch> ring_;
  size_t head_ = 0;  // Next slot to write once the ring is full.
};

// Same epoch scheme over a full histogram: stores cumulative merged
// buckets per epoch and reports percentile snapshots of the windowed
// delta. The window's `max` is approximated by the cumulative max (a true
// windowed max is not recoverable from cumulative counters); percentiles
// come from the delta'd buckets and are exact to bucket resolution. Grows
// per Advance like EpochWindow.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(size_t max_epochs = EpochWindow::kDefaultEpochs);

  void Advance(uint64_t now_secs, const HistogramMerger& cumulative);
  bool SnapshotWindow(uint64_t last_n_secs, HistogramData* out,
                      uint64_t* span_secs = nullptr) const;

 private:
  struct Epoch {
    uint64_t ts_secs = 0;
    uint64_t buckets[Histogram::kNumBuckets] = {};
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
  };

  const size_t max_epochs_;
  std::vector<Epoch> ring_;
  size_t head_ = 0;
};

// Percentile snapshot of a raw folded-bucket array (shared by
// HistogramMerger::Snapshot and WindowedHistogram's delta path).
HistogramData SnapshotFromBuckets(const uint64_t* buckets, uint64_t count,
                                  uint64_t sum, uint64_t max);

}  // namespace monkeydb

#endif  // MONKEYDB_OBS_HISTOGRAM_H_
