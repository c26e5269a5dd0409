// Stress tests for the decoupled read path and the background flush
// pipeline: readers and iterators must see consistent snapshots while the
// worker churns the tree underneath them, acked writes must never be lost
// (including across an abrupt close), and drain/shutdown must be clean.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "lsm/db.h"
#include "monkey/monkey_db.h"
#include "util/random.h"

namespace monkeydb {
namespace {

DbOptions BackgroundOptions(Env* env) {
  DbOptions options;
  options.env = env;
  options.buffer_size_bytes = 8 << 10;
  options.background_compaction = true;
  options.max_immutable_memtables = 2;
  return options;
}

// A writer updates two keys atomically in a WriteBatch while readers check,
// through snapshots and through iterators, that they never observe the keys
// at different generations (no torn multi-key writes, no inconsistent
// views mid-compaction), and that a plain Get never misses a key that
// exists, even when a flush publishes while the Get is starting.
TEST(ConcurrentStress, AtomicBatchesStayConsistentUnderChurn) {
  auto env = NewMemEnv();
  DbOptions options = BackgroundOptions(env.get());
  options.fpr_policy = monkey::NewMonkeyFprPolicy();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  WriteOptions wo;
  {
    WriteBatch batch;
    batch.Put("pair_a", "gen00000000");
    batch.Put("pair_b", "gen00000000");
    ASSERT_TRUE(db->Write(wo, batch).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread snapshot_reader([&] {
    std::string a, b;
    while (!stop.load(std::memory_order_relaxed)) {
      const Snapshot* snap = db->GetSnapshot();
      ReadOptions ro;
      ro.snapshot = snap;
      const bool ok_a = db->Get(ro, "pair_a", &a).ok();
      const bool ok_b = db->Get(ro, "pair_b", &b).ok();
      if (!ok_a || !ok_b || a != b) torn.fetch_add(1);
      db->ReleaseSnapshot(snap);
    }
  });

  std::atomic<int> get_missing{0};
  std::thread plain_reader([&] {
    std::string a;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!db->Get(ReadOptions(), "pair_a", &a).ok()) get_missing.fetch_add(1);
    }
  });

  std::thread iterator_reader([&] {
    std::string a, b;
    while (!stop.load(std::memory_order_relaxed)) {
      auto iter = db->NewIterator(ReadOptions());
      iter->Seek("pair_a");
      if (!iter->Valid() || iter->key() != Slice("pair_a")) {
        torn.fetch_add(1);
        continue;
      }
      a.assign(iter->value().data(), iter->value().size());
      iter->Seek("pair_b");
      if (!iter->Valid() || iter->key() != Slice("pair_b")) {
        torn.fetch_add(1);
        continue;
      }
      b.assign(iter->value().data(), iter->value().size());
      if (a != b) torn.fetch_add(1);
    }
  });

  // Churn filler keys to force memtable switches and background merges
  // while the pair keeps changing generation.
  char value[16];
  for (int gen = 1; gen <= 400; gen++) {
    snprintf(value, sizeof(value), "gen%08d", gen);
    WriteBatch batch;
    batch.Put("pair_a", value);
    batch.Put("pair_b", value);
    ASSERT_TRUE(db->Write(wo, batch).ok());
    for (int i = 0; i < 20; i++) {
      const std::string key =
          "fill" + std::to_string(gen) + "_" + std::to_string(i);
      const std::string payload(64, 'f');
      ASSERT_TRUE(db->Put(wo, key, payload).ok());
    }
  }
  stop.store(true);
  snapshot_reader.join();
  plain_reader.join();
  iterator_reader.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(get_missing.load(), 0);
}

// Every acked write must be readable after the writers finish, and the
// accounting must balance once the pipeline is drained.
TEST(ConcurrentStress, NoLostAckedWritesUnderBackgroundFlushes) {
  auto env = NewMemEnv();
  DbOptions options = BackgroundOptions(env.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2500;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; i < kPerThread; i++) {
        const std::string key =
            "w" + std::to_string(t) + "_" + std::to_string(i);
        const std::string val = "v" + std::to_string(i);
        if (!db->Put(wo, key, val).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_EQ(failures.load(), 0);
  ASSERT_TRUE(db->Flush().ok());  // Drain the immutable-memtable queue.

  ReadOptions ro;
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i += 41) {
      const std::string key =
          "w" + std::to_string(t) + "_" + std::to_string(i);
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << key;
      EXPECT_EQ(value, "v" + std::to_string(i));
    }
  }
  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.memtable_entries, 0u);
  EXPECT_EQ(stats.total_disk_entries,
            static_cast<uint64_t>(kThreads * kPerThread));
}

// Destroying the DB while the background worker is mid-flush must shut down
// cleanly, and every acked write must survive reopen (frozen memtables stay
// durable in their WALs).
TEST(ConcurrentStress, OpenCloseUnderLoadLosesNothing) {
  auto env = NewMemEnv();
  constexpr int kRounds = 3;
  constexpr int kPerRound = 2000;
  for (int round = 0; round < kRounds; round++) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/db", &db).ok());
    WriteOptions wo;
    for (int i = 0; i < kPerRound; i++) {
      const std::string key =
          "r" + std::to_string(round) + "_" + std::to_string(i);
      const std::string payload = std::string(40, 'a' + round);
      ASSERT_TRUE(db->Put(wo, key, payload).ok());
    }
    db.reset();  // No drain: the worker may be holding frozen memtables.
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/db", &db).ok());
  ReadOptions ro;
  std::string value;
  for (int round = 0; round < kRounds; round++) {
    for (int i = 0; i < kPerRound; i += 37) {
      const std::string key =
          "r" + std::to_string(round) + "_" + std::to_string(i);
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << key;
      EXPECT_EQ(value, std::string(40, 'a' + round));
    }
  }
}

// Flush drains the whole pipeline; CompactAll and Checkpoint quiesce the
// worker before restructuring or copying the tree.
TEST(ConcurrentStress, MaintenanceOpsDrainTheWorker) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/db", &db).ok());

  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->GetStats().memtable_entries, 0u);

  ASSERT_TRUE(db->CompactAll().ok());
  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.total_runs, 1u);
  EXPECT_EQ(stats.total_disk_entries, 5000u);

  // Checkpoint under concurrent writes: the copy must open consistently.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    WriteOptions wo2;
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string key = "extra" + std::to_string(i++);
      db->Put(wo2, key, "x").ok();
    }
  });
  ASSERT_TRUE(db->Checkpoint("/ckpt").ok());
  stop.store(true);
  writer.join();

  DbOptions copy_options;
  copy_options.env = env.get();
  std::unique_ptr<DB> copy;
  ASSERT_TRUE(DB::Open(copy_options, "/ckpt", &copy).ok());
  ReadOptions ro;
  std::string value;
  ASSERT_TRUE(copy->Get(ro, "k100", &value).ok());
  EXPECT_EQ(value, "v");
}

}  // namespace
}  // namespace monkeydb
