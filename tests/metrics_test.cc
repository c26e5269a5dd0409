// Observability: histogram bucketing/percentiles, the sharded registry
// under concurrent recording (also exercised by the TSan CI job), reset
// semantics, and the DumpMetrics()/DumpStats()/ResetStats() exposition
// surface.

#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "lsm/db.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace monkeydb {
namespace {

TEST(Histogram, SmallValuesAreExact) {
  // Values 0..3 get their own buckets, so tiny latencies do not smear.
  for (uint64_t v = 0; v < 4; v++) {
    EXPECT_EQ(Histogram::BucketFor(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::BucketLowerBound(static_cast<int>(v)), v);
  }
}

TEST(Histogram, BucketBoundsBracketEveryValue) {
  for (uint64_t v : {uint64_t{5}, uint64_t{100}, uint64_t{4096},
                     uint64_t{123456789}, uint64_t{1} << 40}) {
    const int b = Histogram::BucketFor(v);
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << v;
    EXPECT_GT(Histogram::BucketLowerBound(b + 1), v) << v;
    // The documented worst-case relative error: a bucket is 1/4 of its
    // lower bound wide.
    EXPECT_LE(Histogram::BucketLowerBound(b + 1) -
                  Histogram::BucketLowerBound(b),
              Histogram::BucketLowerBound(b) / 4 + 1)
        << v;
  }
}

TEST(Histogram, PercentilesWithinBucketError) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; v++) h.Record(v);
  HistogramMerger merger;
  merger.Add(h);
  const HistogramData d = merger.Snapshot();
  EXPECT_EQ(d.count, 1000u);
  EXPECT_EQ(d.sum, 500500u);
  EXPECT_EQ(d.max, 1000u);
  EXPECT_NEAR(d.avg, 500.5, 0.001);
  // A uniform 1..1000 distribution: each percentile must land within the
  // histogram's 25% bucket error of the exact answer.
  EXPECT_NEAR(d.p50, 500.0, 150.0);
  EXPECT_NEAR(d.p90, 900.0, 250.0);
  EXPECT_NEAR(d.p99, 990.0, 260.0);
  EXPECT_LE(d.p999, static_cast<double>(d.max) * 1.26);
}

TEST(Histogram, MergeAcrossShards) {
  // Two shards each holding half the samples must snapshot like one
  // histogram holding all of them.
  Histogram a, b;
  for (uint64_t v = 1; v <= 500; v++) a.Record(v);
  for (uint64_t v = 501; v <= 1000; v++) b.Record(v);
  HistogramMerger merger;
  merger.Add(a);
  merger.Add(b);
  const HistogramData d = merger.Snapshot();
  EXPECT_EQ(d.count, 1000u);
  EXPECT_EQ(d.sum, 500500u);
  EXPECT_EQ(d.max, 1000u);
}

// --- Windowed (ring-of-epochs) views ---------------------------------------

uint64_t WindowDelta(const EpochWindow& w, uint64_t last_n_secs,
                     uint64_t* span_secs) {
  std::vector<uint64_t> delta;
  EXPECT_TRUE(w.Delta(last_n_secs, &delta, span_secs));
  EXPECT_EQ(delta.size(), 1u);
  return delta.empty() ? 0 : delta[0];
}

TEST(EpochWindow, SameSecondAdvanceRestampsTheNewestEpoch) {
  EpochWindow w(1);
  w.Advance(10, {1});
  w.Advance(10, {5});  // Overwrites, so there is still one epoch.
  std::vector<uint64_t> delta;
  uint64_t span = 0;
  EXPECT_FALSE(w.Delta(60, &delta, &span));
  w.Advance(11, {7});
  EXPECT_EQ(WindowDelta(w, 60, &span), 2u);  // 7 - 5, not 7 - 1.
  EXPECT_EQ(span, 1u);
}

TEST(EpochWindow, BracketPicksTheOldestEpochInsideTheWindow) {
  EpochWindow w(1);
  w.Advance(0, {0});
  w.Advance(10, {10});
  w.Advance(20, {30});
  w.Advance(30, {60});
  uint64_t span = 0;
  EXPECT_EQ(WindowDelta(w, 20, &span), 50u);  // Against t=10.
  EXPECT_EQ(span, 20u);
  EXPECT_EQ(WindowDelta(w, 1000, &span), 60u);  // Against t=0.
  EXPECT_EQ(span, 30u);
}

TEST(EpochWindow, FallsBackToTheSecondNewestEpoch) {
  EpochWindow w(1);
  w.Advance(0, {0});
  w.Advance(10, {10});
  w.Advance(20, {30});
  w.Advance(30, {60});
  // No epoch is within 5s of the newest: the delta still covers one
  // scrape interval rather than coming back empty.
  uint64_t span = 0;
  EXPECT_EQ(WindowDelta(w, 5, &span), 30u);  // Against t=20.
  EXPECT_EQ(span, 10u);
}

TEST(EpochWindow, WraparoundKeepsTheNewestEpochs) {
  EpochWindow w(1, /*max_epochs=*/4);
  for (uint64_t t = 0; t < 10; t++) w.Advance(t, {t * t});
  // Epochs 6..9 remain: the widest window reaches back to t=6 only.
  uint64_t span = 0;
  EXPECT_EQ(WindowDelta(w, 1000, &span), 81u - 36u);
  EXPECT_EQ(span, 3u);
  EXPECT_EQ(WindowDelta(w, 1, &span), 81u - 64u);
  EXPECT_EQ(span, 1u);
}

TEST(EpochWindow, CounterGoingBackwardsDoesNotUnderflow) {
  EpochWindow w(2);
  w.Advance(0, {100, 5});
  w.Advance(1, {30, 9});  // Counter 0 was reset between scrapes.
  std::vector<uint64_t> delta;
  uint64_t span = 0;
  ASSERT_TRUE(w.Delta(60, &delta, &span));
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[0], 30u);  // The newest value, not 2^64 - 70.
  EXPECT_EQ(delta[1], 4u);
}

// Cumulative merged view of `h`, the input WindowedHistogram::Advance takes.
HistogramMerger Cumulative(const Histogram& h) {
  HistogramMerger merger;
  merger.Add(h);
  return merger;
}

HistogramData WindowSnapshot(const WindowedHistogram& w,
                             uint64_t last_n_secs, uint64_t* span_secs) {
  HistogramData d;
  EXPECT_TRUE(w.SnapshotWindow(last_n_secs, &d, span_secs));
  return d;
}

TEST(WindowedHistogram, SameSecondAdvanceRestampsTheNewestEpoch) {
  Histogram h;
  WindowedHistogram w;
  h.Record(1);
  w.Advance(10, Cumulative(h));
  h.Record(2);
  w.Advance(10, Cumulative(h));  // Overwrites: still one epoch.
  HistogramData d;
  EXPECT_FALSE(w.SnapshotWindow(60, &d));
  h.Record(100);
  w.Advance(11, Cumulative(h));
  uint64_t span = 0;
  d = WindowSnapshot(w, 60, &span);
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.sum, 100u);
  EXPECT_EQ(span, 1u);
}

TEST(WindowedHistogram, BracketAndFallbackPickTheRightEpoch) {
  Histogram h;
  WindowedHistogram w;
  for (uint64_t t = 0; t <= 30; t += 10) {
    for (uint64_t i = 0; i <= t; i += 10) h.Record(t + 1);
    w.Advance(t, Cumulative(h));
  }
  // Per epoch: t=0 adds 1 sample, t=10 adds 2, t=20 adds 3, t=30 adds 4.
  uint64_t span = 0;
  HistogramData d = WindowSnapshot(w, 20, &span);  // Against t=10.
  EXPECT_EQ(d.count, 3u + 4u);
  EXPECT_EQ(d.sum, 3u * 21u + 4u * 31u);
  EXPECT_EQ(span, 20u);
  d = WindowSnapshot(w, 1000, &span);  // Against t=0.
  EXPECT_EQ(d.count, 2u + 3u + 4u);
  EXPECT_EQ(span, 30u);
  d = WindowSnapshot(w, 5, &span);  // Fallback: the second-newest, t=20.
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum, 4u * 31u);
  EXPECT_EQ(d.p50, 31.0);
  EXPECT_EQ(span, 10u);
}

TEST(WindowedHistogram, WraparoundKeepsTheNewestEpochs) {
  Histogram h;
  WindowedHistogram w(/*max_epochs=*/3);
  for (uint64_t t = 0; t < 8; t++) {
    h.Record(t);
    w.Advance(t, Cumulative(h));
  }
  // Epochs 5..7 remain: the widest window holds the samples of 6 and 7.
  uint64_t span = 0;
  const HistogramData d = WindowSnapshot(w, 1000, &span);
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.sum, 6u + 7u);
  EXPECT_EQ(span, 2u);
}

TEST(WindowedHistogram, CountGoingBackwardsDoesNotUnderflow) {
  Histogram h;
  WindowedHistogram w;
  for (int i = 0; i < 10; i++) h.Record(8);
  w.Advance(0, Cumulative(h));
  h.Reset();  // The registry was reset between scrapes.
  h.Record(3);
  w.Advance(1, Cumulative(h));
  uint64_t span = 0;
  const HistogramData d = WindowSnapshot(w, 60, &span);
  EXPECT_EQ(d.count, 1u);  // The newest count, not 2^64 - 9.
  EXPECT_EQ(d.sum, 3u);
  EXPECT_EQ(d.p50, 3.0);
}

TEST(MetricsRegistry, ConcurrentRecordingMergesExactly) {
  // Hammer one histogram and one tick from many threads; the snapshot must
  // account for every sample (the per-thread shards make the recording
  // race-free — TSan verifies that claim in CI).
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; i++) {
        registry.Record(Hist::kGetLatency,
                        static_cast<uint64_t>(i % 128));
        registry.Tick1(Tick::kListenerCallbacks);
      }
    });
  }
  for (auto& t : threads) t.join();

  uint64_t expected_sum = 0;
  for (int i = 0; i < kPerThread; i++) expected_sum += i % 128;
  expected_sum *= kThreads;

  const HistogramData d = registry.SnapshotHistogram(Hist::kGetLatency);
  EXPECT_EQ(d.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(d.sum, expected_sum);
  EXPECT_EQ(d.max, 127u);
  EXPECT_EQ(registry.TickTotal(Tick::kListenerCallbacks),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Untouched metrics stay empty.
  EXPECT_EQ(registry.SnapshotHistogram(Hist::kFlushLatency).count, 0u);
  EXPECT_EQ(registry.TickTotal(Tick::kListenerFailures), 0u);
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  MetricsRegistry registry;
  registry.Record(Hist::kWriteLatency, 42);
  registry.Tick1(Tick::kLoggerRotations);
  ASSERT_EQ(registry.SnapshotHistogram(Hist::kWriteLatency).count, 1u);
  registry.Reset();
  const HistogramData d = registry.SnapshotHistogram(Hist::kWriteLatency);
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sum, 0u);
  EXPECT_EQ(d.max, 0u);
  EXPECT_EQ(registry.TickTotal(Tick::kLoggerRotations), 0u);
}

TEST(MetricsRegistry, FreshRegistryHoldsNoShard) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.MaterializedShards(), 0);
  // Reading an empty registry installs nothing.
  EXPECT_EQ(registry.SnapshotHistogram(Hist::kGetLatency).count, 0u);
  EXPECT_EQ(registry.TickTotal(Tick::kServerCommands), 0u);
  registry.Reset();
  EXPECT_EQ(registry.MaterializedShards(), 0);
}

TEST(MetricsRegistry, RecordingThreadsInstallAtMostOneShardEach) {
  MetricsRegistry registry;
  registry.Record(Hist::kGetLatency, 1);
  registry.Tick1(Tick::kServerCommands);
  EXPECT_EQ(registry.MaterializedShards(), 1);
  for (int k = 1; k <= 3; k++) {
    std::thread([&registry] {
      registry.Record(Hist::kWriteLatency, 2);
      registry.Tick1(Tick::kServerCommands);
    }).join();
    EXPECT_LE(registry.MaterializedShards(), 1 + k);
  }
  EXPECT_EQ(registry.TickTotal(Tick::kServerCommands), 4u);
  EXPECT_EQ(registry.SnapshotHistogram(Hist::kWriteLatency).count, 3u);
}

TEST(MetricsRegistry, RacingFirstRecordsYieldExactTotals) {
  // 32 threads over 16 slots: pairs of threads race to install the same
  // shard, and every thread's first Record lands while others install.
  MetricsRegistry registry;
  constexpr int kThreads = 32;
  constexpr int kPerThread = 1000;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry, &start, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kPerThread; i++) {
        registry.Record(Hist::kServerGetLatency, static_cast<uint64_t>(t));
        registry.Tick1(Tick::kServerCommands);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(registry.MaterializedShards(), MetricsRegistry::kNumShards);
  const HistogramData d = registry.SnapshotHistogram(Hist::kServerGetLatency);
  EXPECT_EQ(d.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(d.sum, static_cast<uint64_t>(kPerThread) * (kThreads - 1) *
                       kThreads / 2);
  EXPECT_EQ(d.max, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(registry.TickTotal(Tick::kServerCommands),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, PartlyMaterializedRegistrySnapshotsAndResets) {
  MetricsRegistry registry;
  for (int t = 0; t < 2; t++) {
    std::thread([&registry] {
      for (uint64_t v = 1; v <= 100; v++) {
        registry.Record(Hist::kFlushLatency, v);
      }
      registry.Tick1(Tick::kLoggerRotations);
    }).join();
  }
  ASSERT_GE(registry.MaterializedShards(), 1);
  ASSERT_LT(registry.MaterializedShards(), MetricsRegistry::kNumShards);
  HistogramData d = registry.SnapshotHistogram(Hist::kFlushLatency);
  EXPECT_EQ(d.count, 200u);
  EXPECT_EQ(d.sum, 2u * 5050u);
  EXPECT_EQ(d.max, 100u);
  EXPECT_NEAR(d.p50, 50.0, 50.0 * 0.25);
  EXPECT_EQ(registry.TickTotal(Tick::kLoggerRotations), 2u);
  EXPECT_EQ(registry.TickTotal(Tick::kListenerFailures), 0u);

  const int installed = registry.MaterializedShards();
  registry.Reset();
  EXPECT_EQ(registry.MaterializedShards(), installed);
  d = registry.SnapshotHistogram(Hist::kFlushLatency);
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sum, 0u);
  EXPECT_EQ(d.max, 0u);
  EXPECT_EQ(registry.TickTotal(Tick::kLoggerRotations), 0u);

  // Recording after the reset sees only the new samples.
  registry.Record(Hist::kFlushLatency, 7);
  d = registry.SnapshotHistogram(Hist::kFlushLatency);
  EXPECT_EQ(d.count, 1u);
  EXPECT_EQ(d.max, 7u);
}

TEST(MetricsRegistry, StopWatchRecordsOnlyWithRegistry) {
  // The null-registry form is the enable_metrics=false fast path; it must
  // be safe and record nothing anywhere.
  { StopWatch watch(nullptr, Hist::kGetLatency); }
  MetricsRegistry registry;
  { StopWatch watch(&registry, Hist::kGetLatency); }
  EXPECT_EQ(registry.SnapshotHistogram(Hist::kGetLatency).count, 1u);
}

// --- DB-level exposition ---------------------------------------------------

class MetricsDbTest : public ::testing::Test {
 protected:
  MetricsDbTest() : env_(NewMemEnv()) {}

  DbOptions MakeOptions(bool enable_metrics) {
    DbOptions options;
    options.env = env_.get();
    options.buffer_size_bytes = 16 << 10;
    options.expected_entries = kNumKeys;
    options.enable_metrics = enable_metrics;
    return options;
  }

  // Fills the DB and runs enough zero-result lookups that every level
  // accumulates filter-probe traffic.
  void FillAndProbe(DB* db) {
    WriteOptions wo;
    const std::string value(64, 'v');
    for (int i = 0; i < kNumKeys; i++) {
      const std::string key = Key(i);
      ASSERT_TRUE(db->Put(wo, key, value).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ReadOptions ro;
    std::string out;
    for (int i = 0; i < 500; i++) {
      const std::string key = Key(i) + "x";
      EXPECT_TRUE(db->Get(ro, key, &out).IsNotFound());
    }
  }

  static std::string Key(int i) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%08d", i);
    return buf;
  }

  static constexpr int kNumKeys = 3000;
  std::unique_ptr<Env> env_;
};

TEST_F(MetricsDbTest, MetricsDisabledByDefault) {
  std::unique_ptr<DB> db;
  DbOptions options;
  options.env = env_.get();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  EXPECT_EQ(db->metrics(), nullptr);
}

TEST_F(MetricsDbTest, DumpMetricsPrometheusExposesFprGauges) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(true), "/db", &db).ok());
  ASSERT_NE(db->metrics(), nullptr);
  FillAndProbe(db.get());

  const std::string text = db->DumpMetrics(DB::MetricsFormat::kPrometheus);
  // Lifetime counters and the paper-specific predicted-vs-measured gauges.
  EXPECT_NE(text.find("monkeydb_gets_total 500"), std::string::npos) << text;
  EXPECT_NE(text.find("monkey_predicted_fpr{level=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("monkey_measured_fpr{level=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("monkey_predicted_lookup_cost"), std::string::npos);
  EXPECT_NE(text.find("monkey_measured_lookup_cost"), std::string::npos);
  // Histograms only exist with metrics on; Get latency saw traffic.
  EXPECT_NE(text.find("get_latency_us_count 500"), std::string::npos);
  // Every metric is declared before it is sampled.
  EXPECT_NE(text.find("# TYPE monkeydb_gets_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE monkey_predicted_fpr gauge"),
            std::string::npos);
}

TEST_F(MetricsDbTest, DumpMetricsPrometheusWorksWithMetricsOff) {
  // Counters and FPR gauges come from the always-on DB::Counters; only the
  // histogram summaries require enable_metrics.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(false), "/db", &db).ok());
  FillAndProbe(db.get());
  const std::string text = db->DumpMetrics(DB::MetricsFormat::kPrometheus);
  EXPECT_NE(text.find("monkeydb_gets_total 500"), std::string::npos);
  EXPECT_NE(text.find("monkey_predicted_fpr{level=\"1\"}"),
            std::string::npos);
  EXPECT_EQ(text.find("get_latency_us_count"), std::string::npos);
}

TEST_F(MetricsDbTest, DumpMetricsJsonIsWellFormed) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(true), "/db", &db).ok());
  FillAndProbe(db.get());

  const std::string json = db->DumpMetrics(DB::MetricsFormat::kJson);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"tree\""), std::string::npos);
  EXPECT_NE(json.find("\"fpr\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"gets\":500"), std::string::npos) << json;
  // Braces balance and nothing after the root object closes.
  int depth = 0;
  size_t close_at = std::string::npos;
  for (size_t i = 0; i < json.size(); i++) {
    if (json[i] == '{') depth++;
    if (json[i] == '}') {
      depth--;
      if (depth == 0) close_at = i;
    }
    EXPECT_GE(depth, 0) << "unbalanced at offset " << i;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.find_first_not_of(" \n", close_at + 1), std::string::npos);
}

TEST_F(MetricsDbTest, DumpStatsReportsWritePathCounters) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(false), "/db", &db).ok());
  FillAndProbe(db.get());
  const std::string text = db->DumpStats();
  // The PR 2/3 write-path machinery GetStats never used to surface.
  EXPECT_NE(text.find("reads: gets 500 (not-found 500)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("writes: "), std::string::npos);
  EXPECT_NE(text.find("wal: "), std::string::npos);
  EXPECT_NE(text.find("backpressure: "), std::string::npos);
  EXPECT_NE(text.find("level 1 probes:"), std::string::npos);
}

TEST_F(MetricsDbTest, ResetStatsZeroesCountersAndHistograms) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(true), "/db", &db).ok());
  FillAndProbe(db.get());

  DbStats stats = db->GetStats();
  ASSERT_EQ(stats.gets, 500u);
  ASSERT_GT(stats.writes, 0u);
  ASSERT_GT(db->metrics()->SnapshotHistogram(Hist::kGetLatency).count, 0u);

  db->ResetStats();
  stats = db->GetStats();
  EXPECT_EQ(stats.gets, 0u);
  EXPECT_EQ(stats.gets_not_found, 0u);
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.wal_appends, 0u);
  EXPECT_EQ(stats.false_positives, 0u);
  EXPECT_EQ(db->metrics()->SnapshotHistogram(Hist::kGetLatency).count, 0u);
  // Tree shape is state, not a counter: it survives the reset.
  EXPECT_GT(stats.total_disk_entries, 0u);

  // Per-phase measurement: deltas after the reset only see new traffic.
  ReadOptions ro;
  std::string out;
  for (int i = 0; i < 25; i++) {
    const std::string key = Key(i) + "x";
    EXPECT_TRUE(db->Get(ro, key, &out).IsNotFound());
  }
  stats = db->GetStats();
  EXPECT_EQ(stats.gets, 25u);
  EXPECT_EQ(stats.gets_not_found, 25u);
}

}  // namespace
}  // namespace monkeydb
