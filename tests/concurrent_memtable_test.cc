// Concurrent memtable write path: ConcurrentArena backing tiers and
// parallel-allocation safety, lock-free skiplist inserts under N-thread
// fuzz, parallel write-group application through the DB, flushed-SST
// byte-identity between the serial and concurrent modes, and the
// accounting invariants GetStats builds on. Runs under TSan/ASan/UBSan
// in CI, with MONKEYDB_CONCURRENT_MEMTABLE/MONKEYDB_ARENA_HUGEPAGE legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "lsm/db.h"
#include "lsm/internal_key.h"
#include "memtable/memtable.h"
#include "util/concurrent_arena.h"

namespace monkeydb {
namespace {

constexpr int kThreads = 8;

// --- ConcurrentArena ---

TEST(ConcurrentArena, AlignmentAndUsage) {
  ConcurrentArena arena;
  EXPECT_EQ(arena.MemoryUsage(), 0u);
  char* a = arena.Allocate(10);
  memset(a, 0xAB, 10);
  EXPECT_GE(arena.MemoryUsage(), 10u);

  for (int i = 0; i < 200; i++) {
    arena.Allocate(1 + (i % 7));  // Misalign the bump pointer.
    char* p = arena.AllocateAligned(24, Allocator::kCacheLineSize);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Allocator::kCacheLineSize,
              0u);
  }
  // MemoryUsage counts bytes handed out; the mapped reservation is at
  // least that large (blocks are pre-mapped in coarse granules).
  EXPECT_GE(arena.MappedBytes(), arena.MemoryUsage());
  EXPECT_EQ(static_cast<unsigned char>(a[9]), 0xAB);
}

TEST(ConcurrentArena, OversizedAllocationsGetTheirOwnCarve) {
  ConcurrentArena::Options options;
  options.chunk_size = 64 << 10;
  ConcurrentArena arena(options);
  // Far bigger than a shard chunk: must still succeed and be writable.
  char* big = arena.Allocate(512 << 10);
  ASSERT_NE(big, nullptr);
  memset(big, 0xCD, 512 << 10);
  EXPECT_GE(arena.MemoryUsage(), 512u << 10);
  const ConcurrentArena::StatsSnapshot stats = arena.Stats();
  EXPECT_GE(stats.slow_allocs, 1u);
}

// N threads allocate concurrently and stamp every byte of each allocation
// with a thread-unique pattern; any overlap between two allocations (a
// lost CAS validity bug) corrupts someone's pattern.
TEST(ConcurrentArena, ParallelAllocationsNeverOverlap) {
  ConcurrentArena arena;
  constexpr int kAllocsPerThread = 4000;
  std::vector<std::vector<char*>> ptrs(kThreads);
  std::vector<std::vector<size_t>> sizes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAllocsPerThread; i++) {
        const size_t n = 1 + ((t * 31 + i * 7) % 120);
        char* p = (i % 3 == 0)
                      ? arena.AllocateAligned(n, Allocator::kCacheLineSize)
                      : arena.Allocate(n);
        ASSERT_NE(p, nullptr);
        memset(p, t + 1, n);
        ptrs[t].push_back(p);
        sizes[t].push_back(n);
      }
    });
  }
  for (auto& th : threads) th.join();

  size_t total = 0;
  for (int t = 0; t < kThreads; t++) {
    for (size_t i = 0; i < ptrs[t].size(); i++) {
      total += sizes[t][i];
      for (size_t b = 0; b < sizes[t][i]; b++) {
        ASSERT_EQ(ptrs[t][i][b], static_cast<char>(t + 1))
            << "allocation overlap, thread " << t << " alloc " << i;
      }
    }
  }
  EXPECT_GE(arena.MemoryUsage(), total);
  EXPECT_GE(arena.Stats().blocks, 1u);
}

// Scoped env-var override (the arena reads MONKEYDB_ARENA_HUGEPAGE at
// construction). Restores the previous value on destruction so CI legs
// that set the variable for the whole suite are not disturbed.
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    setenv(name, value, 1);
  }
  ~ScopedEnvVar() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

// Each backing tier can be forced and is reported truthfully. kNever must
// always produce plain pages; the hugepage tiers may legitimately fall
// back (no reservations / THP disabled), but whatever the arena reports
// must match its per-tier block counters.
TEST(ConcurrentArena, HugepageTiersReportTheirBacking) {
  struct Case {
    const char* env;
    ConcurrentArena::HugepageMode mode;
  };
  const Case cases[] = {
      {"never", ConcurrentArena::HugepageMode::kNever},
      {"thp", ConcurrentArena::HugepageMode::kTransparentOnly},
      {"auto", ConcurrentArena::HugepageMode::kAuto},
  };
  for (const Case& c : cases) {
    ScopedEnvVar guard("MONKEYDB_ARENA_HUGEPAGE", c.env);
    ConcurrentArena arena;  // Mode comes from the env override.
    char* p = arena.Allocate(1024);
    ASSERT_NE(p, nullptr);
    memset(p, 0x5A, 1024);
    const ConcurrentArena::StatsSnapshot stats = arena.Stats();
    ASSERT_GE(stats.blocks, 1u);
    EXPECT_EQ(stats.hugetlb_blocks + stats.thp_blocks + stats.plain_blocks,
              stats.blocks);
    switch (stats.backing) {
      case ConcurrentArena::Backing::kHugeTlb:
        EXPECT_EQ(c.mode, ConcurrentArena::HugepageMode::kAuto);
        EXPECT_GE(stats.hugetlb_blocks, 1u);
        break;
      case ConcurrentArena::Backing::kTransparentHugePage:
        EXPECT_NE(c.mode, ConcurrentArena::HugepageMode::kNever);
        EXPECT_GE(stats.thp_blocks, 1u);
        break;
      case ConcurrentArena::Backing::kPlain:
        EXPECT_GE(stats.plain_blocks, 1u);
        break;
      case ConcurrentArena::Backing::kNone:
        FAIL() << "a block was allocated but backing is none";
    }
    if (c.mode == ConcurrentArena::HugepageMode::kNever) {
      EXPECT_EQ(stats.backing, ConcurrentArena::Backing::kPlain);
      EXPECT_EQ(stats.hugetlb_blocks, 0u);
      EXPECT_EQ(stats.thp_blocks, 0u);
    }
    EXPECT_STRNE(ConcurrentArena::BackingName(stats.backing), "unknown");
  }
}

// --- Concurrent MemTable inserts ---

MemTableOptions ConcurrentMemTableOptions() {
  MemTableOptions options;
  options.concurrent_inserts = true;
  return options;
}

std::string FuzzKey(int t, int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%02d_%06d", t, i);
  return buf;
}

// N threads insert disjoint keys with distinct sequence numbers, while a
// reader thread continuously checks the accounting invariants. Afterwards
// every entry must be present, the iteration order strictly sorted, and
// num_entries/ApproximateMemoryUsage consistent with what was inserted.
TEST(ConcurrentMemTable, MultiThreadedInsertFuzz) {
  MemTable mem(ConcurrentMemTableOptions());
  ASSERT_TRUE(mem.concurrent_inserts());

  constexpr int kPerThread = 5000;
  std::atomic<uint64_t> next_seq{1};
  std::atomic<bool> done{false};

  // Invariant checker: both counters must be monotone while writers run
  // (relaxed atomics, no tearing) and Get must never crash mid-insert.
  std::thread checker([&] {
    uint64_t last_entries = 0;
    size_t last_usage = 0;
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t entries = mem.num_entries();
      const size_t usage = mem.ApproximateMemoryUsage();
      EXPECT_GE(entries, last_entries);
      EXPECT_GE(usage, last_usage);
      last_entries = entries;
      last_usage = usage;
      std::string value;
      bool found = false;
      const std::string key = FuzzKey(0, 0);
      LookupKey lookup(key, kMaxSequenceNumber);
      mem.Get(lookup, &value, &found).IgnoreError();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        const uint64_t seq =
            next_seq.fetch_add(1, std::memory_order_relaxed);
        if (i % 97 == 13) {
          const std::string key = FuzzKey(t, i);
          mem.Add(seq, ValueType::kDeletion, key, "");
        } else {
          const std::string key = FuzzKey(t, i);
          const std::string val =
              "v" + std::to_string(t) + "_" + std::to_string(i);
          mem.Add(seq, ValueType::kValue, key, val);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  checker.join();

  EXPECT_EQ(mem.num_entries(),
            static_cast<uint64_t>(kThreads) * kPerThread);

  // Every key resolves to its value (or tombstone) at the latest view.
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      std::string value;
      bool found = false;
      const std::string key = FuzzKey(t, i);
      LookupKey lookup(key, kMaxSequenceNumber);
      Status s = mem.Get(lookup, &value, &found);
      ASSERT_TRUE(found) << "missing " << FuzzKey(t, i);
      if (i % 97 == 13) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(value, "v" + std::to_string(t) + "_" + std::to_string(i));
      }
    }
  }

  // Iteration: strictly sorted internal keys, exactly N entries.
  auto iter = mem.NewIterator();
  uint64_t count = 0;
  std::string prev_user_key;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    const std::string user_key(parsed.user_key.data(),
                               parsed.user_key.size());
    if (count > 0) {
      EXPECT_LT(prev_user_key, user_key);  // Disjoint keys: strict order.
    }
    prev_user_key = user_key;
    count++;
  }
  EXPECT_EQ(count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(mem.ApproximateMemoryUsage(), count * 16);
}

// --- DB-level parallel write-group application ---

DbOptions ConcurrentDbOptions(Env* env) {
  DbOptions options;
  options.env = env;
  options.allow_concurrent_memtable_write = true;
  return options;
}

TEST(ConcurrentWritePath, ParallelGroupsApplyEveryBatch) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ConcurrentDbOptions(env.get()), "/db", &db).ok());

  constexpr int kPerThread = 400;
  // Group formation is timing-dependent (a group only forms when writers
  // queue behind a leader), so on a loaded machine one round of writes may
  // serialize entirely. Repeat the round — idempotent: same keys, same
  // values — until a multi-member group has gone down the parallel path.
  uint64_t rounds = 0;
  for (int attempt = 0; attempt < 50; attempt++) {
    rounds++;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        WriteOptions wo;
        for (int i = 0; i < kPerThread; i++) {
          WriteBatch batch;
          const std::string key = FuzzKey(t, i);
          const std::string val = "v" + std::to_string(t * kPerThread + i);
          batch.Put(key, val);
          const std::string shared_key = "shared_" + FuzzKey(t, i);
          batch.Put(shared_key, "s");
          ASSERT_TRUE(db->Write(wo, batch).ok());
        }
      });
    }
    for (auto& th : threads) th.join();
    if (db->GetStats().memtable_parallel_groups > 0) break;
  }

  ReadOptions ro;
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      const std::string key = FuzzKey(t, i);
      ASSERT_TRUE(db->Get(ro, key, &value).ok()) << "missing " << key;
      EXPECT_EQ(value, "v" + std::to_string(t * kPerThread + i));
      const std::string shared_key = "shared_" + FuzzKey(t, i);
      ASSERT_TRUE(db->Get(ro, shared_key, &value).ok());
    }
  }

  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.writes, rounds * kThreads * kPerThread);
  EXPECT_GT(stats.memtable_parallel_groups, 0u);
  // Every parallel group has at least two member batches by construction.
  EXPECT_GE(stats.memtable_parallel_batches,
            2 * stats.memtable_parallel_groups);
  EXPECT_NE(stats.arena_backing, "none");
}

// Sequence numbers assigned across parallel groups must stay contiguous
// and per-batch atomic: a snapshot taken at any moment sees either all
// ops of a batch or none.
TEST(ConcurrentWritePath, BatchesStayAtomicUnderSnapshots) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ConcurrentDbOptions(env.get()), "/db", &db).ok());

  constexpr int kSlots = 4;
  constexpr int kGenerations = 300;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    ReadOptions ro;
    while (!stop.load(std::memory_order_acquire)) {
      const Snapshot* snap = db->GetSnapshot();
      ReadOptions snap_ro;
      snap_ro.snapshot = snap;
      std::string first;
      if (db->Get(snap_ro, "slot_0", &first).ok()) {
        for (int s = 1; s < kSlots; s++) {
          std::string v;
          const std::string key = "slot_" + std::to_string(s);
          ASSERT_TRUE(db->Get(snap_ro, key, &v).ok());
          ASSERT_EQ(v, first) << "torn batch at slot " << s;
        }
      }
      db->ReleaseSnapshot(snap);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int g = 0; g < kGenerations; g++) {
        WriteBatch batch;
        const std::string gen =
            "g" + std::to_string(t) + "_" + std::to_string(g);
        for (int s = 0; s < kSlots; s++) {
          const std::string key = "slot_" + std::to_string(s);
          batch.Put(key, gen);
        }
        ASSERT_TRUE(db->Write(wo, batch).ok());
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Final state: one complete generation.
  ReadOptions ro;
  std::string first;
  ASSERT_TRUE(db->Get(ro, "slot_0", &first).ok());
  for (int s = 1; s < kSlots; s++) {
    std::string v;
    const std::string key = "slot_" + std::to_string(s);
    ASSERT_TRUE(db->Get(ro, key, &v).ok());
    EXPECT_EQ(v, first);
  }
}

// --- Flushed-SST byte identity ---

std::string ReadWholeFile(Env* env, const std::string& path) {
  std::unique_ptr<RandomAccessFile> file;
  EXPECT_TRUE(env->NewRandomAccessFile(path, &file).ok()) << path;
  uint64_t size = 0;
  EXPECT_TRUE(env->GetFileSize(path, &size).ok());
  std::string contents(size, '\0');
  Slice result;
  EXPECT_TRUE(file->Read(0, size, &result, contents.data()).ok());
  return std::string(result.data(), result.size());
}

// The same single-threaded op sequence, flushed explicitly, must produce
// byte-identical SSTs whether the memtable was serial or concurrent: the
// flush path only sees the skiplist's sorted iteration, which both
// regimes define identically. (Explicit Flush with a large buffer, so
// flush boundaries cannot depend on the two allocators' different
// accounting granularities.)
TEST(ConcurrentWritePath, FlushedSstBytesIdenticalOnVsOff) {
  auto run = [](bool concurrent, std::unique_ptr<Env>* env_out) {
    *env_out = NewMemEnv();
    DbOptions options;
    options.env = env_out->get();
    options.allow_concurrent_memtable_write = concurrent;
    options.buffer_size_bytes = 64 << 20;  // Never auto-flush.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    WriteOptions wo;
    for (int i = 0; i < 3000; i++) {
      const std::string key = FuzzKey(i % 7, i);
      if (i % 31 == 5) {
        ASSERT_TRUE(db->Delete(wo, key).ok());
      } else {
        const std::string val = "value_" + std::to_string(i);
        ASSERT_TRUE(db->Put(wo, key, val).ok());
      }
    }
    ASSERT_TRUE(db->Flush().ok());
  };

  std::unique_ptr<Env> env_off;
  std::unique_ptr<Env> env_on;
  run(false, &env_off);
  run(true, &env_on);

  auto tables = [](Env* env) {
    std::vector<std::string> children;
    EXPECT_TRUE(env->GetChildren("/db", &children).ok());
    std::vector<std::string> result;
    for (const std::string& name : children) {
      if (name.find(".sst") != std::string::npos) result.push_back(name);
    }
    std::sort(result.begin(), result.end());
    return result;
  };

  const std::vector<std::string> off_tables = tables(env_off.get());
  const std::vector<std::string> on_tables = tables(env_on.get());
  ASSERT_FALSE(off_tables.empty());
  ASSERT_EQ(off_tables, on_tables);
  for (size_t i = 0; i < off_tables.size(); i++) {
    const std::string off_bytes =
        ReadWholeFile(env_off.get(), "/db/" + off_tables[i]);
    const std::string on_bytes =
        ReadWholeFile(env_on.get(), "/db/" + on_tables[i]);
    ASSERT_EQ(off_bytes.size(), on_bytes.size()) << off_tables[i];
    ASSERT_EQ(off_bytes, on_bytes) << off_tables[i];
  }
}

// DB-level backing surface: forcing plain pages must be visible in
// DbStats::arena_backing, and the block counters must account for every
// block. (Forced via the same env override CI's fallback leg uses.)
TEST(ConcurrentWritePath, ForcedPlainBackingIsReported) {
  ScopedEnvVar guard("MONKEYDB_ARENA_HUGEPAGE", "never");
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ConcurrentDbOptions(env.get()), "/db", &db).ok());
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "a", "1").ok());
  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.arena_backing, "plain");
  EXPECT_EQ(stats.arena_hugetlb_blocks, 0u);
  EXPECT_EQ(stats.arena_thp_blocks, 0u);
  EXPECT_GE(stats.arena_plain_blocks, 1u);
}

// Recovery: entries written through parallel groups replay from the WAL
// (one record per group) into a fresh memtable on reopen.
TEST(ConcurrentWritePath, RecoversFromWalAfterParallelWrites) {
  auto env = NewMemEnv();
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(ConcurrentDbOptions(env.get()), "/db", &db).ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
      threads.emplace_back([&, t] {
        WriteOptions wo;
        for (int i = 0; i < 200; i++) {
          const std::string key = FuzzKey(t, i);
          const std::string val = "r" + std::to_string(i);
          ASSERT_TRUE(
              db->Put(wo, key, val).ok());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ConcurrentDbOptions(env.get()), "/db", &db).ok());
  ReadOptions ro;
  std::string value;
  for (int t = 0; t < 4; t++) {
    for (int i = 0; i < 200; i++) {
      const std::string key = FuzzKey(t, i);
      const std::string val = FuzzKey(t, i);
      ASSERT_TRUE(db->Get(ro, key, &value).ok())
          << "lost after reopen: " << val;
      EXPECT_EQ(value, "r" + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace monkeydb
