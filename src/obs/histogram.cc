#include "obs/histogram.h"

#include <algorithm>
#include <cstdio>

namespace monkeydb {

std::string HistogramData::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu avg=%.1f p50=%.0f p90=%.0f p99=%.0f "
                "p99.9=%.0f max=%llu",
                static_cast<unsigned long long>(count), avg, p50, p90, p99,
                p999, static_cast<unsigned long long>(max));
  return buf;
}

void HistogramMerger::Add(const Histogram& h) {
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets_[i] += h.bucket(i);
  }
  count_ += h.count();
  sum_ += h.sum();
  max_ = std::max(max_, h.max());
}

namespace {

double PercentileFromBuckets(const uint64_t* buckets, uint64_t count,
                             uint64_t max, double fraction) {
  if (count == 0) return 0.0;
  // Rank of the requested percentile, 1-based; clamp into [1, count].
  const uint64_t rank = std::min<uint64_t>(
      count, std::max<uint64_t>(1, static_cast<uint64_t>(
                                       fraction * count + 0.5)));
  uint64_t seen = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (seen + buckets[i] >= rank) {
      // Interpolate linearly inside the bucket. The upper edge of the last
      // octave would overflow, so cap the width at the lower bound / 4
      // (exact for every non-degenerate bucket).
      const uint64_t lo = Histogram::BucketLowerBound(i);
      const uint64_t width = i < 4 ? 1 : lo / 4;
      const double within =
          static_cast<double>(rank - seen) / buckets[i];
      return std::min(static_cast<double>(lo) + width * within,
                      static_cast<double>(max));
    }
    seen += buckets[i];
  }
  return static_cast<double>(max);
}

}  // namespace

HistogramData SnapshotFromBuckets(const uint64_t* buckets, uint64_t count,
                                  uint64_t sum, uint64_t max) {
  HistogramData d;
  d.count = count;
  d.sum = sum;
  d.max = max;
  d.avg = count == 0 ? 0.0 : static_cast<double>(sum) / count;
  d.p50 = PercentileFromBuckets(buckets, count, max, 0.50);
  d.p90 = PercentileFromBuckets(buckets, count, max, 0.90);
  d.p99 = PercentileFromBuckets(buckets, count, max, 0.99);
  d.p999 = PercentileFromBuckets(buckets, count, max, 0.999);
  return d;
}

HistogramData HistogramMerger::Snapshot() const {
  return SnapshotFromBuckets(buckets_, count_, sum_, max_);
}

// --- Epoch rings -----------------------------------------------------------

namespace {

// The slot Advance fills at `now_secs`: the newest epoch again on a
// same-second scrape burst (so a burst cannot eat the ring), else a new
// epoch appended while the ring is below max_epochs, else the oldest one.
template <typename Epoch>
Epoch* AdvanceSlot(std::vector<Epoch>* ring, size_t* head, size_t max_epochs,
                   uint64_t now_secs) {
  if (!ring->empty()) {
    Epoch& newest = (*ring)[(*head + ring->size() - 1) % ring->size()];
    if (newest.ts_secs == now_secs) return &newest;
  }
  Epoch* e = ring->size() < max_epochs ? &ring->emplace_back()
                                       : &(*ring)[*head];
  *head = (*head + 1) % max_epochs;
  e->ts_secs = now_secs;
  return e;
}

// Newest epoch, and the oldest retained epoch no more than `last_n_secs`
// older, falling back to the second-newest so the delta is never empty.
// False until two epochs exist.
template <typename Epoch>
bool Bracket(const std::vector<Epoch>& ring, size_t head,
             uint64_t last_n_secs, const Epoch** oldest,
             const Epoch** newest) {
  const size_t n = ring.size();
  if (n < 2) return false;
  const Epoch& last = ring[(head + n - 1) % n];
  size_t i = 0;  // Walks from the oldest retained epoch toward the newest.
  while (i + 2 < n && last.ts_secs - ring[(head + i) % n].ts_secs >
                          last_n_secs) {
    ++i;
  }
  *oldest = &ring[(head + i) % n];
  *newest = &last;
  return true;
}

// Growth of a cumulative counter. Counters are monotone; guard anyway so a
// reset between epochs cannot underflow.
uint64_t Grown(uint64_t newer, uint64_t older) {
  return newer >= older ? newer - older : newer;
}

}  // namespace

// --- EpochWindow ------------------------------------------------------------

EpochWindow::EpochWindow(size_t num_counters, size_t max_epochs)
    : num_counters_(num_counters),
      max_epochs_(std::max<size_t>(2, max_epochs)) {}

void EpochWindow::Advance(uint64_t now_secs,
                          const std::vector<uint64_t>& cumulative) {
  AdvanceSlot(&ring_, &head_, max_epochs_, now_secs)->cum = cumulative;
}

bool EpochWindow::Delta(uint64_t last_n_secs, std::vector<uint64_t>* delta,
                        uint64_t* span_secs) const {
  const Epoch* oldest = nullptr;
  const Epoch* newest = nullptr;
  if (!Bracket(ring_, head_, last_n_secs, &oldest, &newest)) return false;
  delta->assign(num_counters_, 0);
  for (size_t c = 0; c < num_counters_; ++c) {
    (*delta)[c] = Grown(newest->cum[c], oldest->cum[c]);
  }
  if (span_secs != nullptr) {
    *span_secs = newest->ts_secs - oldest->ts_secs;
  }
  return true;
}

// --- WindowedHistogram ------------------------------------------------------

WindowedHistogram::WindowedHistogram(size_t max_epochs)
    : max_epochs_(std::max<size_t>(2, max_epochs)) {}

void WindowedHistogram::Advance(uint64_t now_secs,
                                const HistogramMerger& cumulative) {
  Epoch* e = AdvanceSlot(&ring_, &head_, max_epochs_, now_secs);
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    e->buckets[i] = cumulative.bucket(i);
  }
  e->count = cumulative.count();
  e->sum = cumulative.sum();
  e->max = cumulative.max();
}

bool WindowedHistogram::SnapshotWindow(uint64_t last_n_secs,
                                       HistogramData* out,
                                       uint64_t* span_secs) const {
  const Epoch* oldest = nullptr;
  const Epoch* newest = nullptr;
  if (!Bracket(ring_, head_, last_n_secs, &oldest, &newest)) return false;
  uint64_t buckets[Histogram::kNumBuckets];
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] = Grown(newest->buckets[i], oldest->buckets[i]);
  }
  *out = SnapshotFromBuckets(buckets, Grown(newest->count, oldest->count),
                             Grown(newest->sum, oldest->sum), newest->max);
  if (span_secs != nullptr) {
    *span_secs = newest->ts_secs - oldest->ts_secs;
  }
  return true;
}

}  // namespace monkeydb
