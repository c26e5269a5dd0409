// Range-partitioned subcompactions: a leveling merge split across a worker
// pool must produce output equivalent to the single-threaded merge — same
// surviving entries per level, same scans, same point lookups — because the
// partitions only change where run fragments are cut, never which entries
// survive. Also covers boundary edge cases (few distinct keys) and the
// background worker pool under concurrent writers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/env.h"
#include "lsm/db.h"
#include "obs/perf_context.h"

namespace monkeydb {
namespace {

std::string Key(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "key%05d", i);
  return buf;
}

DbOptions SmallTreeOptions(Env* env, int compaction_threads) {
  DbOptions options;
  options.env = env;
  options.merge_policy = MergePolicy::kLeveling;
  options.size_ratio = 3.0;
  options.buffer_size_bytes = 8 << 10;  // Small: many flushes and merges.
  options.compaction_threads = compaction_threads;
  return options;
}

// Overwrites and deletes across several generations, so merges must both
// drop superseded versions and purge tombstones.
void ApplyWorkload(DB* db, int num_keys, int generations) {
  WriteOptions wo;
  for (int gen = 0; gen < generations; gen++) {
    for (int i = 0; i < num_keys; i++) {
      const std::string key = Key(i);
      const std::string val = "g" + std::to_string(gen) + "_" + key;
      ASSERT_TRUE(db->Put(wo, key, val).ok());
    }
    for (int i = gen; i < num_keys; i += 5) {
      const std::string key = Key(i);
      ASSERT_TRUE(db->Delete(wo, key).ok());
    }
  }
  ASSERT_TRUE(db->Flush().ok());
}

std::vector<std::pair<std::string, std::string>> FullScan(DB* db) {
  std::vector<std::pair<std::string, std::string>> out;
  auto iter = db->NewIterator(ReadOptions());
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    out.emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  return out;
}

TEST(Subcompaction, ParallelMergeMatchesSingleThreaded) {
  constexpr int kNumKeys = 1500;
  constexpr int kGenerations = 3;

  auto env1 = NewMemEnv();
  auto env4 = NewMemEnv();
  std::unique_ptr<DB> db1, db4;
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env1.get(), 1), "/db", &db1).ok());
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env4.get(), 4), "/db", &db4).ok());

  ApplyWorkload(db1.get(), kNumKeys, kGenerations);
  ApplyWorkload(db4.get(), kNumKeys, kGenerations);

  // Same merge decisions, so the same entries survive at each level; only
  // the fragmentation into runs may differ.
  const DbStats s1 = db1->GetStats();
  const DbStats s4 = db4->GetStats();
  EXPECT_EQ(s1.total_disk_entries, s4.total_disk_entries);
  EXPECT_EQ(s1.deepest_level, s4.deepest_level);
  ASSERT_EQ(s1.entries_per_level.size(), s4.entries_per_level.size());
  for (size_t i = 0; i < s1.entries_per_level.size(); i++) {
    EXPECT_EQ(s1.entries_per_level[i], s4.entries_per_level[i])
        << "level " << i + 1;
  }
  EXPECT_GT(s4.merges, 0u);

  EXPECT_EQ(FullScan(db1.get()), FullScan(db4.get()));

  // Spot-check lookups: last generation's deletes hit keys = gen-1 mod 5
  // onwards; every key deleted in the final generation must be NotFound in
  // both, survivors must agree.
  ReadOptions ro;
  std::string v1, v4;
  for (int i = 0; i < kNumKeys; i += 7) {
    const std::string key = Key(i);
    const Status g1 = db1->Get(ro, key, &v1);
    const Status g4 = db4->Get(ro, key, &v4);
    EXPECT_EQ(g1.ok(), g4.ok()) << key;
    EXPECT_EQ(g1.IsNotFound(), g4.IsNotFound()) << key;
    if (g1.ok() && g4.ok()) {
      EXPECT_EQ(v1, v4) << key;
    }
  }
}

TEST(Subcompaction, CompactAllMatchesSingleThreaded) {
  auto env1 = NewMemEnv();
  auto env4 = NewMemEnv();
  std::unique_ptr<DB> db1, db4;
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env1.get(), 1), "/db", &db1).ok());
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env4.get(), 4), "/db", &db4).ok());

  ApplyWorkload(db1.get(), 1000, 2);
  ApplyWorkload(db4.get(), 1000, 2);
  ASSERT_TRUE(db1->CompactAll().ok());
  ASSERT_TRUE(db4->CompactAll().ok());

  EXPECT_EQ(db1->GetStats().total_disk_entries,
            db4->GetStats().total_disk_entries);
  EXPECT_EQ(FullScan(db1.get()), FullScan(db4.get()));
}

// With only a handful of distinct user keys, there are fewer fence-pointer
// boundaries than workers. The partitioner must clamp (never split between
// versions of one user key) and still converge to the right final state.
TEST(Subcompaction, FewDistinctKeysManyOverwrites) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env.get(), 4), "/db", &db).ok());

  WriteOptions wo;
  constexpr int kDistinct = 5;
  constexpr int kOverwrites = 2000;
  for (int i = 0; i < kOverwrites; i++) {
    for (int k = 0; k < kDistinct; k++) {
      const std::string key = "hot" + std::to_string(k);
      const std::string payload = std::string(48, 'a' + (i + k) % 26) + std::to_string(i);
      ASSERT_TRUE(
          db->Put(wo, key,
                  payload)
              .ok());
    }
  }
  ASSERT_TRUE(db->Flush().ok());

  ReadOptions ro;
  std::string value;
  for (int k = 0; k < kDistinct; k++) {
    const std::string key = "hot" + std::to_string(k);
    ASSERT_TRUE(db->Get(ro, key, &value).ok()) << k;
    EXPECT_EQ(value,
              std::string(48, 'a' + (kOverwrites - 1 + k) % 26) +
                  std::to_string(kOverwrites - 1))
        << k;
  }
  EXPECT_EQ(FullScan(db.get()).size(), static_cast<size_t>(kDistinct));
}

// A single-key database exercises the most degenerate partitioning input.
TEST(Subcompaction, SingleKeyTree) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env.get(), 4), "/db", &db).ok());

  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    const std::string payload = std::string(40, 'x') + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, "only", payload)
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  ReadOptions ro;
  std::string value;
  ASSERT_TRUE(db->Get(ro, "only", &value).ok());
  EXPECT_EQ(value, std::string(40, 'x') + "4999");
  EXPECT_LE(db->GetStats().total_disk_entries, 2u);
}

// Worker pool + background mode + concurrent writers: flushes must keep
// priority over merges and everything must drain cleanly on Flush().
TEST(Subcompaction, BackgroundPoolStress) {
  auto env = NewMemEnv();
  DbOptions options = SmallTreeOptions(env.get(), 4);
  options.background_compaction = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 1500;
  std::atomic<int> write_errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; i < kWritesPerThread; i++) {
        const std::string key =
            "t" + std::to_string(t) + "_" + Key(i % 500);
        const std::string val = "v" + std::to_string(i);
        if (!db->Put(wo, key, val).ok()) {
          write_errors.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_EQ(write_errors.load(), 0);
  ASSERT_TRUE(db->Flush().ok());

  ReadOptions ro;
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < 500; i += 13) {
      const std::string key = "t" + std::to_string(t) + "_" + Key(i);
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << key;
      // Last overwrite of slot i was at iteration i + 500*k for the
      // largest k with i + 500*k < kWritesPerThread.
      const int last = i + 500 * ((kWritesPerThread - 1 - i) / 500);
      EXPECT_EQ(value, "v" + std::to_string(last)) << key;
    }
  }
  EXPECT_EQ(FullScan(db.get()).size(),
            static_cast<size_t>(kThreads) * 500);
}

// Snapshots pinned across parallel merges must keep their versions: the
// shared PrepareJobLocked decision (including the snapshot floor) applies
// to every fragment.
TEST(Subcompaction, SnapshotSurvivesParallelMerges) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env.get(), 4), "/db", &db).ok());

  WriteOptions wo;
  for (int i = 0; i < 300; i++) {
    const std::string key = Key(i);
    ASSERT_TRUE(db->Put(wo, key, "old").ok());
  }
  const Snapshot* snap = db->GetSnapshot();
  for (int gen = 0; gen < 10; gen++) {
    for (int i = 0; i < 300; i++) {
      const std::string key = Key(i);
      const std::string val = "new" + std::to_string(gen);
      ASSERT_TRUE(db->Put(wo, key, val).ok());
    }
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_GT(db->GetStats().merges, 0u);

  ReadOptions snap_ro;
  snap_ro.snapshot = snap;
  std::string value;
  for (int i = 0; i < 300; i += 11) {
    const std::string key = Key(i);
    ASSERT_TRUE(db->Get(snap_ro, key, &value).ok()) << i;
    EXPECT_EQ(value, "old") << i;
  }
  db->ReleaseSnapshot(snap);
}

// Filter probes per level (negatives plus false positives) since `before`.
std::vector<uint64_t> FilterProbesSince(const DbStats& before,
                                        const DbStats& after) {
  std::vector<uint64_t> probes(after.filter_negatives_per_level.size(), 0);
  for (size_t l = 0; l < probes.size(); l++) {
    probes[l] = after.filter_negatives_per_level[l] +
                after.false_positives_per_level[l];
    if (l < before.filter_negatives_per_level.size()) {
      probes[l] -= before.filter_negatives_per_level[l] +
                   before.false_positives_per_level[l];
    }
  }
  return probes;
}

// A leveling level cut into fragments still holds one logical run: a
// zero-result lookup probes one filter per level (the fragment whose range
// can hold the key), through Get and MultiGet, before and after a reopen.
TEST(Subcompaction, ZeroResultLookupProbesOneFragmentPerLevel) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(SmallTreeOptions(env.get(), 4), "/db", &db).ok());
  ApplyWorkload(db.get(), 1500, 3);

  for (int pass = 0; pass < 2; pass++) {
    SCOPED_TRACE(pass == 0 ? "open" : "reopened");
    const DbStats shape = db->GetStats();
    uint64_t fragmented_levels = 0;
    for (uint64_t runs : shape.runs_per_level) {
      if (runs > 1) fragmented_levels++;
    }
    ASSERT_GT(fragmented_levels, 0u) << "no level holds fragments";
    for (uint64_t entries : shape.entries_per_level) {
      ASSERT_GT(entries, 0u) << "an empty level would need no probe";
    }

    // Absent keys inside, below and above the key range.
    std::vector<std::string> absent;
    for (int i = 0; i < 1500; i += 3) absent.push_back(Key(i) + "x");
    absent.push_back("a");
    absent.push_back("zzz");
    // Every lookup runs one filter probe per level, whatever the outcome.
    const uint64_t want_filter_probes =
        absent.size() * shape.runs_per_level.size();
    ReadOptions ro;
    std::string value;
    SetPerfLevel(PerfLevel::kCounts);
    GetPerfContext()->Reset();
    const DbStats before = db->GetStats();
    for (const std::string& key : absent) {
      ASSERT_TRUE(db->Get(ro, key, &value).IsNotFound()) << key;
    }
    EXPECT_EQ(GetPerfContext()->filter_probes, want_filter_probes) << "Get";
    const DbStats after_get = db->GetStats();

    GetPerfContext()->Reset();
    std::vector<Slice> keys(absent.begin(), absent.end());
    std::vector<std::string> values;
    for (const Status& s : db->MultiGet(ro, keys, &values)) {
      EXPECT_TRUE(s.IsNotFound());
    }
    EXPECT_EQ(GetPerfContext()->filter_probes, want_filter_probes)
        << "MultiGet";
    SetPerfLevel(PerfLevel::kDisabled);

    // Get and MultiGet count the same probes, level by level.
    const std::vector<uint64_t> probes = FilterProbesSince(before, after_get);
    EXPECT_EQ(probes, FilterProbesSince(after_get, db->GetStats()));
    for (size_t l = 0; l < shape.runs_per_level.size(); l++) {
      // A filter pass past a level's last fence reads no block and counts
      // as no probe, hence the slack below absent.size().
      EXPECT_LE(probes[l], absent.size()) << "level " << l + 1;
      EXPECT_GE(probes[l], absent.size() - 2) << "level " << l + 1;
    }

    // Every surviving key is still found in its fragment.
    const auto scan = FullScan(db.get());
    ASSERT_FALSE(scan.empty());
    for (const auto& [key, expected] : scan) {
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << key;
      EXPECT_EQ(value, expected) << key;
    }

    db.reset();
    ASSERT_TRUE(DB::Open(SmallTreeOptions(env.get(), 4), "/db", &db).ok());
  }
}

}  // namespace
}  // namespace monkeydb
