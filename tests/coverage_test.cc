// Coverage-widening tests: version-edit round trips, backward table
// iteration, Zipfian distribution, expected_entries planning, CompactAll
// persistence, and DB shape reporting.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "io/env.h"
#include "lsm/db.h"
#include "lsm/version.h"
#include "monkey/monkey_db.h"
#include "sstable/table_builder.h"
#include "sstable/table_reader.h"
#include "util/random.h"

namespace monkeydb {
namespace {

TEST(VersionEdit, EncodeDecodeRoundTrip) {
  VersionEdit edit;
  VersionEdit::AddedRun run;
  run.level = 3;
  run.file_number = 42;
  run.file_size = 123456;
  run.num_entries = 999;
  run.sequence = 777;
  run.smallest = std::string("a\0b", 3);  // Binary-safe.
  run.largest = "zzzz";
  edit.added.push_back(run);
  edit.deleted_files = {7, 8, 9};
  edit.last_sequence = 1000;
  edit.next_file_number = 43;

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Slice(encoded)).ok());
  ASSERT_EQ(decoded.added.size(), 1u);
  EXPECT_EQ(decoded.added[0].level, 3);
  EXPECT_EQ(decoded.added[0].file_number, 42u);
  EXPECT_EQ(decoded.added[0].file_size, 123456u);
  EXPECT_EQ(decoded.added[0].num_entries, 999u);
  EXPECT_EQ(decoded.added[0].sequence, 777u);
  EXPECT_EQ(decoded.added[0].smallest, run.smallest);
  EXPECT_EQ(decoded.added[0].largest, "zzzz");
  EXPECT_EQ(decoded.deleted_files, (std::vector<uint64_t>{7, 8, 9}));
  EXPECT_EQ(decoded.last_sequence, 1000u);
  EXPECT_EQ(decoded.next_file_number, 43u);
}

TEST(VersionEdit, RejectsGarbage) {
  VersionEdit edit;
  EXPECT_FALSE(edit.DecodeFrom(Slice("\x63garbage###")).ok());
}

TEST(Version, AggregatesAcrossLevels) {
  Version v;
  v.EnsureLevel(3);
  auto run1 = std::make_shared<RunMetadata>();
  run1->num_entries = 100;
  auto run2 = std::make_shared<RunMetadata>();
  run2->num_entries = 400;
  (*v.mutable_levels())[0].push_back(run1);
  (*v.mutable_levels())[2].push_back(run2);
  EXPECT_EQ(v.TotalEntries(), 500u);
  EXPECT_EQ(v.TotalRuns(), 2u);
  EXPECT_EQ(v.DeepestNonEmptyLevel(), 3);
  EXPECT_EQ(v.RunsAt(2).size(), 0u);
  EXPECT_EQ(v.RunsAt(99).size(), 0u);  // Out of range: empty, no crash.
}

TEST(TableIterator, BackwardScanAcrossBlocks) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/t.sst", &file).ok());
  TableBuilderOptions opts;
  opts.block_size = 512;  // Small blocks: force many.
  TableBuilder builder(opts, file.get());
  const int n = 500;
  for (int i = 0; i < n; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05d", i);
    std::string ikey;
    AppendInternalKey(&ikey, buf, 1, ValueType::kValue);
    const std::string key = "value" + std::to_string(i);
    builder.Add(ikey, key);
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());
  ASSERT_GT(builder.num_data_blocks(), 5u);

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(env->NewRandomAccessFile("/t.sst", &rfile).ok());
  TableReaderOptions ropts;
  std::unique_ptr<TableReader> table;
  ASSERT_TRUE(TableReader::Open(ropts, std::move(rfile),
                                builder.file_size(), &table)
                  .ok());

  // Walk the whole table backwards.
  auto iter = table->NewIterator();
  iter->SeekToLast();
  for (int i = n - 1; i >= 0; i--) {
    ASSERT_TRUE(iter->Valid()) << i;
    EXPECT_EQ(iter->value().ToString(), "value" + std::to_string(i));
    iter->Prev();
  }
  EXPECT_FALSE(iter->Valid());

  // Seek then walk backwards across a block boundary.
  std::string seek_key;
  AppendInternalKey(&seek_key, "key00250", kMaxSequenceNumber,
                    kValueTypeForSeek);
  iter->Seek(seek_key);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "value250");
  for (int i = 249; i >= 240; i--) {
    iter->Prev();
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->value().ToString(), "value" + std::to_string(i));
  }
}

TEST(Zipfian, SkewedTowardLowRanks) {
  Random rng(42);
  ZipfianGenerator zipf(10000, 0.99);
  std::map<uint64_t, int> counts;
  const int trials = 100000;
  for (int i = 0; i < trials; i++) counts[zipf.Next(&rng)]++;

  // The most popular item gets far more than uniform share.
  EXPECT_GT(counts[0], trials / 10000 * 20);
  // Top-10 ranks take a large chunk of the mass.
  int top10 = 0;
  for (uint64_t r = 0; r < 10; r++) top10 += counts[r];
  EXPECT_GT(static_cast<double>(top10) / trials, 0.15);
  // All draws within range.
  EXPECT_LT(counts.rbegin()->first, 10000u);
  // Monotone-ish decay: rank 0 >= rank 100 >= rank 5000 (with slack).
  EXPECT_GT(counts[0], counts[100]);
}

TEST(ExpectedEntries, PlansForFinalGeometry) {
  // With expected_entries set, even the very first runs get FPRs planned
  // for the final tree, so early shallow runs get strong filters.
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;
  options.bits_per_entry = 5.0;
  options.expected_entries = 1 << 20;  // Plan for ~1M entries.
  options.fpr_policy = monkey::NewMonkeyFprPolicy();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 2000; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  const DbStats stats = db->GetStats();
  // The shallow run was planned as a tiny level of a large tree -> its
  // bits/entry should far exceed the 5-bit average.
  const double bpe = static_cast<double>(stats.filter_bits_total) /
                     stats.total_disk_entries;
  EXPECT_GT(bpe, 8.0);
}

TEST(CompactAll, SurvivesReopen) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    const std::string key = "key" + std::to_string(i % 500);
    const std::string val = "v" + std::to_string(i);
    ASSERT_TRUE(
        db->Put(wo, key, val)
            .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  const DbStats before = db->GetStats();
  EXPECT_EQ(before.total_runs, 1u);
  EXPECT_EQ(before.total_disk_entries, 500u);  // Dedup to live keys.

  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const DbStats after = db->GetStats();
  EXPECT_EQ(after.total_runs, 1u);
  EXPECT_EQ(after.total_disk_entries, 500u);
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key250", &value).ok());
  EXPECT_EQ(value, "v4750");
}

TEST(DebugString, SummarizesTheTree) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;
  options.fpr_policy = monkey::NewMonkeyFprPolicy();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 4000; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }
  std::string value;
  db->Get(ReadOptions(), "absent", &value).ok();
  const std::string report = db->DebugString();
  EXPECT_NE(report.find("LSM-tree: leveling"), std::string::npos) << report;
  EXPECT_NE(report.find("level 1"), std::string::npos) << report;
  EXPECT_NE(report.find("lookups: 1"), std::string::npos) << report;
}

TEST(CurrentShape, ReflectsOptions) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.merge_policy = MergePolicy::kTiering;
  options.size_ratio = 6.0;
  options.buffer_size_bytes = 8 << 10;
  options.bits_per_entry = 7.5;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 3000; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }
  const LsmShape shape = db->CurrentShape();
  EXPECT_EQ(shape.merge_policy, MergePolicy::kTiering);
  EXPECT_DOUBLE_EQ(shape.size_ratio, 6.0);
  EXPECT_DOUBLE_EQ(shape.bits_per_entry_budget, 7.5);
  EXPECT_GT(shape.total_entries, 0u);
  EXPECT_GE(shape.num_levels, 1);
}

}  // namespace
}  // namespace monkeydb
