// Read-pipelining tests: the prefetching table iterator must be a pure
// performance change — byte-identical key/value sequences at every
// readahead depth, safe cancellation mid-pipeline, and robust against the
// file disappearing underneath an in-flight prefetch (compaction deletes
// inputs while pinned iterators still scan them). DB::MultiGet must match
// an equivalent loop of Gets under one shared snapshot, including while
// writers run concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/block_cache.h"
#include "io/counting_env.h"
#include "io/env.h"
#include "lsm/db.h"
#include "sstable/table_builder.h"
#include "sstable/table_reader.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace monkeydb {
namespace {

// --- Table-level: the prefetch pipeline inside TableIterator ---

class TablePrefetchTest : public ::testing::Test {
 protected:
  TablePrefetchTest()
      : env_(NewMemEnv()),
        cache_(256 << 10),
        pool_(4) {}

  // Builds /t.sst with n sequential entries and opens a reader backed by
  // the shared block cache.
  std::unique_ptr<TableReader> BuildTable(int n) {
    TableBuilderOptions opts;
    opts.block_size = 4096;
    opts.filter_fpr = 0.01;

    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_->NewWritableFile("/t.sst", &file).ok());
    TableBuilder builder(opts, file.get());
    for (int i = 0; i < n; i++) {
      std::string key;
      const std::string user_key = UserKey(i);
      AppendInternalKey(&key, user_key, 100, ValueType::kValue);
      const std::string val = Value(i);
      builder.Add(key, val);
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE(file->Close().ok());

    std::unique_ptr<RandomAccessFile> read_file;
    EXPECT_TRUE(env_->NewRandomAccessFile("/t.sst", &read_file).ok());
    TableReaderOptions ropts;
    ropts.block_cache = &cache_;
    ropts.cache_file_id = 7;
    std::unique_ptr<TableReader> table;
    EXPECT_TRUE(TableReader::Open(ropts, std::move(read_file),
                                  builder.file_size(), &table)
                    .ok());
    return table;
  }

  static std::string UserKey(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  static std::string Value(int i) {
    return "value-" + std::to_string(i) + "-" + std::string(40, 'v');
  }

  // Full forward scan from start_key (empty = SeekToFirst), collecting
  // (key, value) bytes.
  static std::vector<std::pair<std::string, std::string>> Collect(
      const TableReader& table, const TableScanOptions& scan,
      const std::string& start_key = std::string()) {
    std::vector<std::pair<std::string, std::string>> out;
    auto iter = table.NewIterator(scan);
    if (start_key.empty()) {
      iter->SeekToFirst();
    } else {
      std::string internal;
      AppendInternalKey(&internal, start_key, kMaxSequenceNumber,
                        ValueType::kValue);
      iter->Seek(internal);
    }
    for (; iter->Valid(); iter->Next()) {
      out.emplace_back(iter->key().ToString(), iter->value().ToString());
    }
    EXPECT_TRUE(iter->status().ok());
    return out;
  }

  std::unique_ptr<Env> env_;
  BlockCache cache_;
  ThreadPool pool_;
};

TEST_F(TablePrefetchTest, ByteIdenticalAtEveryDepth) {
  auto table = BuildTable(6000);
  const auto baseline = Collect(*table, TableScanOptions());
  ASSERT_EQ(baseline.size(), 6000u);

  for (int depth : {1, 2, 4, 8}) {
    TableScanOptions scan;
    scan.readahead_blocks = depth;
    scan.pool = &pool_;
    EXPECT_EQ(Collect(*table, scan), baseline) << "depth " << depth;
  }
}

TEST_F(TablePrefetchTest, ByteIdenticalWithoutPool) {
  // readahead_blocks > 0 with no pool: hint-only mode. The iterator issues
  // async-read hints but performs every read itself.
  auto table = BuildTable(4000);
  const auto baseline = Collect(*table, TableScanOptions());

  TableScanOptions scan;
  scan.readahead_blocks = 4;
  scan.pool = nullptr;
  EXPECT_EQ(Collect(*table, scan), baseline);
}

TEST_F(TablePrefetchTest, SeekMatchesAfterPipelineRestart) {
  // Seek cancels any in-flight prefetch and restarts the pipeline; the
  // tail of the scan must still be byte-identical.
  auto table = BuildTable(6000);
  TableScanOptions scan;
  scan.readahead_blocks = 4;
  scan.pool = &pool_;

  Random rng(42);
  for (int trial = 0; trial < 10; trial++) {
    const int start = static_cast<int>(rng.Uniform(6000));
    const auto expected =
        Collect(*table, TableScanOptions(), UserKey(start));
    EXPECT_EQ(Collect(*table, scan, UserKey(start)), expected)
        << "start " << start;
  }
}

TEST_F(TablePrefetchTest, DestructionMidPipeline) {
  // Destroying the iterator with prefetches in flight must block until
  // started reads finish and must not leak or touch freed state (ASan /
  // TSan verify the latter).
  auto table = BuildTable(6000);
  Random rng(7);
  for (int trial = 0; trial < 50; trial++) {
    TableScanOptions scan;
    scan.readahead_blocks = 8;
    scan.pool = &pool_;
    auto iter = table->NewIterator(scan);
    std::string internal;
    const std::string user_key = UserKey(static_cast<int>(rng.Uniform(5000)));
    AppendInternalKey(&internal, user_key,
                      kMaxSequenceNumber, ValueType::kValue);
    iter->Seek(internal);
    for (int i = 0; i < static_cast<int>(rng.Uniform(3)); i++) {
      if (iter->Valid()) iter->Next();
    }
    // iter destroyed here, mid-pipeline.
  }
}

TEST_F(TablePrefetchTest, SurvivesFileRemovalMidScan) {
  // Compaction deletes input files while pinned iterators still scan them;
  // the environment keeps deleted-but-open files readable (POSIX unlink
  // semantics). A scan with prefetches in flight must complete unchanged
  // even after RemoveFile + BlockCache::EraseFile.
  auto table = BuildTable(6000);
  const auto baseline = Collect(*table, TableScanOptions());

  TableScanOptions scan;
  scan.readahead_blocks = 8;
  scan.pool = &pool_;
  auto iter = table->NewIterator(scan);
  std::vector<std::pair<std::string, std::string>> got;
  iter->SeekToFirst();
  for (int i = 0; i < 1000 && iter->Valid(); i++, iter->Next()) {
    got.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  // "Compaction" deletes the file and purges its cache entries while the
  // pipeline is live.
  ASSERT_TRUE(env_->RemoveFile("/t.sst").ok());
  cache_.EraseFile(7);
  for (; iter->Valid(); iter->Next()) {
    got.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(got, baseline);
}

// --- DB-level: readahead through ReadOptions, and MultiGet ---

struct TestDb {
  std::unique_ptr<Env> base_env;
  std::unique_ptr<IoStats> io = std::make_unique<IoStats>();
  std::unique_ptr<Env> env;  // Counts base_env's I/O into io.
  std::unique_ptr<BlockCache> cache;
  std::unique_ptr<DB> db;
};

TestDb OpenDb(MergePolicy policy, int num_keys, double bits_per_entry = 5.0,
              bool block_cache = true) {
  TestDb t;
  t.base_env = NewMemEnv();
  t.env = std::make_unique<CountingEnv>(t.base_env.get(), t.io.get());
  DbOptions options;
  options.env = t.env.get();
  options.merge_policy = policy;
  options.buffer_size_bytes = 16 << 10;
  options.bits_per_entry = bits_per_entry;
  if (block_cache) {
    t.cache = std::make_unique<BlockCache>(128 << 10);
    options.block_cache = t.cache.get();
  }
  EXPECT_TRUE(DB::Open(options, "/db", &t.db).ok());

  // Keys go in permuted (7919 is prime), so runs overlap in key range and
  // a lookup meets candidate runs below the one that resolves it.
  WriteOptions wo;
  for (int n = 0; n < num_keys; n++) {
    const int i = static_cast<int>((int64_t{n} * 7919) % num_keys);
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    const std::string key = "v" + std::to_string(i);
    EXPECT_TRUE(t.db->Put(wo, buf, key).ok());
  }
  // A few deletes so scans also cross tombstones.
  for (int i = 0; i < num_keys; i += 97) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    EXPECT_TRUE(t.db->Delete(wo, buf).ok());
  }
  EXPECT_TRUE(t.db->Flush().ok());
  return t;
}

std::vector<std::pair<std::string, std::string>> CollectDb(
    DB* db, int readahead, const std::string& start = std::string()) {
  ReadOptions ro;
  ro.readahead_blocks = readahead;
  std::vector<std::pair<std::string, std::string>> out;
  auto iter = db->NewIterator(ro);
  if (start.empty()) {
    iter->SeekToFirst();
  } else {
    iter->Seek(start);
  }
  for (; iter->Valid(); iter->Next()) {
    out.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  EXPECT_TRUE(iter->status().ok());
  return out;
}

TEST(DbPrefetch, ScanMatchesNoReadahead) {
  for (MergePolicy policy :
       {MergePolicy::kLeveling, MergePolicy::kTiering,
        MergePolicy::kLazyLeveling}) {
    TestDb t = OpenDb(policy, 8000);
    const auto baseline = CollectDb(t.db.get(), 0);
    ASSERT_FALSE(baseline.empty());
    for (int depth : {2, 4, 8}) {
      EXPECT_EQ(CollectDb(t.db.get(), depth), baseline) << "depth " << depth;
    }
    EXPECT_EQ(CollectDb(t.db.get(), 4, "key004321"),
              CollectDb(t.db.get(), 0, "key004321"));
  }
}

TEST(DbPrefetch, ScanAcrossCompaction) {
  // An iterator pins its ReadView; a full compaction underneath it deletes
  // every input file (and purges their cache blocks) while its prefetch
  // pipeline is live. The scan must still return the pinned view's data.
  TestDb t = OpenDb(MergePolicy::kTiering, 8000);
  const auto baseline = CollectDb(t.db.get(), 0);

  ReadOptions ro;
  ro.readahead_blocks = 8;
  auto iter = t.db->NewIterator(ro);
  std::vector<std::pair<std::string, std::string>> got;
  iter->SeekToFirst();
  for (int i = 0; i < 500 && iter->Valid(); i++, iter->Next()) {
    got.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  ASSERT_TRUE(t.db->CompactAll().ok());
  for (; iter->Valid(); iter->Next()) {
    got.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(got, baseline);
}

TEST(DbPrefetch, IteratorDestructionUnderWriters) {
  TestDb t = OpenDb(MergePolicy::kLeveling, 6000);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    WriteOptions wo;
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%06d", i++ % 6000);
      ASSERT_TRUE(t.db->Put(wo, buf, "rewrite").ok());
    }
  });
  Random rng(3);
  for (int trial = 0; trial < 100; trial++) {
    ReadOptions ro;
    ro.readahead_blocks = 8;
    auto iter = t.db->NewIterator(ro);
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d",
             static_cast<int>(rng.Uniform(6000)));
    iter->Seek(buf);
    for (int i = 0; i < 5 && iter->Valid(); i++) iter->Next();
    // Destroyed mid-pipeline, possibly while a flush retires the view.
  }
  stop.store(true);
  writer.join();
}

// Per-level probe counts (runs probed, filter negatives, false positives)
// since `before`, flattened level by level.
std::vector<uint64_t> ProbesSince(const DbStats& before, const DbStats& after) {
  std::vector<uint64_t> out;
  for (size_t l = 0; l < after.runs_probed_per_level.size(); l++) {
    auto delta = [&](const std::vector<uint64_t>& b,
                     const std::vector<uint64_t>& a) {
      return a[l] - (l < b.size() ? b[l] : 0);
    };
    out.push_back(delta(before.runs_probed_per_level,
                        after.runs_probed_per_level));
    out.push_back(delta(before.filter_negatives_per_level,
                        after.filter_negatives_per_level));
    out.push_back(delta(before.false_positives_per_level,
                        after.false_positives_per_level));
  }
  return out;
}

// A batch answers, counts and reads what a loop of Gets over its keys
// does: the same results, the same per-level probe counts, and — for a
// one-key batch — the same blocks read.
TEST(MultiGet, MatchesGetLoop) {
  for (double bits : {1.0, 5.0}) {
    for (MergePolicy policy :
         {MergePolicy::kLeveling, MergePolicy::kTiering,
          MergePolicy::kLazyLeveling}) {
      SCOPED_TRACE("bits " + std::to_string(bits) + ", policy " +
                   std::to_string(static_cast<int>(policy)));
      // No block cache: every block read reaches t.io.
      TestDb t = OpenDb(policy, 8000, bits, /*block_cache=*/false);
      Random rng(11);
      ReadOptions ro;
      std::vector<std::string> looked_up;
      for (int batch = 0; batch < 20; batch++) {
        std::vector<std::string> storage;
        for (int i = 0; i < 32; i++) {
          const int k = static_cast<int>(rng.Uniform(10000));  // Some absent.
          char buf[16];
          snprintf(buf, sizeof(buf), "key%06d", k);
          storage.push_back(buf);
        }
        storage.push_back(storage.front());  // Duplicate key in one batch.
        std::vector<Slice> keys(storage.begin(), storage.end());

        const DbStats before = t.db->GetStats();
        std::vector<std::string> values;
        std::vector<Status> statuses = t.db->MultiGet(ro, keys, &values);
        const DbStats after_batch = t.db->GetStats();
        ASSERT_EQ(statuses.size(), keys.size());
        ASSERT_EQ(values.size(), keys.size());
        for (size_t i = 0; i < keys.size(); i++) {
          std::string expected;
          const Status s = t.db->Get(ro, keys[i], &expected);
          EXPECT_EQ(statuses[i].ok(), s.ok()) << storage[i];
          EXPECT_EQ(statuses[i].IsNotFound(), s.IsNotFound()) << storage[i];
          if (s.ok()) {
            EXPECT_EQ(values[i], expected) << storage[i];
          }
        }
        EXPECT_EQ(ProbesSince(before, after_batch),
                  ProbesSince(after_batch, t.db->GetStats()))
            << "batch " << batch;
        looked_up.insert(looked_up.end(), storage.begin(), storage.end());
      }
      EXPECT_EQ(t.db->GetStats().multigets, 20u);

      for (const std::string& key : looked_up) {
        std::string value;
        const IoStatsSnapshot before = t.io->Snapshot();
        (void)t.db->Get(ro, key, &value);
        const IoStatsSnapshot after_get = t.io->Snapshot();
        std::vector<std::string> values;
        (void)t.db->MultiGet(ro, {Slice(key)}, &values);
        const IoStatsSnapshot get_io = after_get - before;
        const IoStatsSnapshot multiget_io = t.io->Snapshot() - after_get;
        EXPECT_EQ(multiget_io.read_calls, get_io.read_calls) << key;
        EXPECT_EQ(multiget_io.read_ios, get_io.read_ios) << key;
      }
    }
  }
}

TEST(MultiGet, EmptyBatch) {
  TestDb t = OpenDb(MergePolicy::kLeveling, 100);
  std::vector<std::string> values{"stale"};
  EXPECT_TRUE(t.db->MultiGet(ReadOptions(), {}, &values).empty());
  EXPECT_TRUE(values.empty());
}

TEST(MultiGet, SharedSnapshotUnderConcurrentWriters) {
  TestDb t = OpenDb(MergePolicy::kLazyLeveling, 4000);
  const Snapshot* snapshot = t.db->GetSnapshot();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      WriteOptions wo;
      Random rng(100 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(rng.Uniform(4000));
        char buf[16];
        snprintf(buf, sizeof(buf), "key%06d", k);
        ASSERT_TRUE(t.db->Put(wo, buf, "overwritten").ok());
      }
    });
  }

  ReadOptions ro;
  ro.snapshot = snapshot;
  Random rng(5);
  for (int batch = 0; batch < 30; batch++) {
    std::vector<std::string> storage;
    for (int i = 0; i < 16; i++) {
      char buf[16];
      snprintf(buf, sizeof(buf), "key%06d",
               static_cast<int>(rng.Uniform(4000)));
      storage.push_back(buf);
    }
    std::vector<Slice> keys(storage.begin(), storage.end());
    std::vector<std::string> values;
    std::vector<Status> statuses = t.db->MultiGet(ro, keys, &values);
    for (size_t i = 0; i < keys.size(); i++) {
      // Both paths read at the shared snapshot: never an overwrite, and
      // identical to a Get at the same snapshot.
      std::string expected;
      const Status s = t.db->Get(ro, keys[i], &expected);
      EXPECT_EQ(statuses[i].ok(), s.ok()) << storage[i];
      if (s.ok()) {
        EXPECT_EQ(values[i], expected) << storage[i];
        EXPECT_NE(values[i], "overwritten") << storage[i];
      }
    }
  }

  stop.store(true);
  for (auto& w : writers) w.join();
  t.db->ReleaseSnapshot(snapshot);
}

}  // namespace
}  // namespace monkeydb
