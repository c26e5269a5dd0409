// End-to-end DB engine tests: randomized cross-checks against a reference
// model, structural invariants of both merge policies, range scans, crash
// recovery, and durability across a process exit on the real filesystem.

#include "lsm/db.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "io/counting_env.h"
#include "io/env.h"
#include "monkey/monkey_db.h"
#include "util/random.h"

namespace monkeydb {
namespace {

struct DbTestParam {
  MergePolicy policy;
  double size_ratio;
  bool monkey_filters;
};

std::string ParamName(const ::testing::TestParamInfo<DbTestParam>& info) {
  std::string name;
  switch (info.param.policy) {
    case MergePolicy::kLeveling:
      name = "Leveling";
      break;
    case MergePolicy::kTiering:
      name = "Tiering";
      break;
    case MergePolicy::kLazyLeveling:
      name = "LazyLeveling";
      break;
  }
  name += "T" + std::to_string(static_cast<int>(info.param.size_ratio));
  name += info.param.monkey_filters ? "Monkey" : "Uniform";
  return name;
}

class DbTest : public ::testing::TestWithParam<DbTestParam> {
 protected:
  DbTest() : env_(NewMemEnv()) {}

  DbOptions MakeOptions() {
    DbOptions options;
    options.env = env_.get();
    options.merge_policy = GetParam().policy;
    options.size_ratio = GetParam().size_ratio;
    options.buffer_size_bytes = 8 << 10;  // Small: force many levels.
    options.bits_per_entry = 5.0;
    if (GetParam().monkey_filters) {
      options.fpr_policy = monkey::NewMonkeyFprPolicy();
    }
    return options;
  }

  std::unique_ptr<Env> env_;
};

TEST_P(DbTest, RandomizedAgainstReferenceModel) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());

  // Reference: user key -> live value (nullopt = deleted).
  std::map<std::string, std::optional<std::string>> model;
  Random rng(GetParam().policy == MergePolicy::kLeveling ? 11 : 22);
  WriteOptions wo;
  ReadOptions ro;

  for (int op = 0; op < 8000; op++) {
    const std::string key = "key" + std::to_string(rng.Uniform(1500));
    if (rng.Bernoulli(0.75)) {
      const std::string value = "val" + std::to_string(op);
      ASSERT_TRUE(db->Put(wo, key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(db->Delete(wo, key).ok());
      model[key] = std::nullopt;
    }

    // Spot-check a random key every few ops.
    if (op % 7 == 0) {
      const std::string probe = "key" + std::to_string(rng.Uniform(1500));
      std::string value;
      Status s = db->Get(ro, probe, &value);
      auto it = model.find(probe);
      if (it == model.end() || !it->second.has_value()) {
        EXPECT_TRUE(s.IsNotFound()) << probe << " op=" << op;
      } else {
        ASSERT_TRUE(s.ok()) << probe << " op=" << op << " " << s.ToString();
        EXPECT_EQ(value, *it->second) << probe;
      }
    }
  }

  // Exhaustive final check.
  for (const auto& [key, expected] : model) {
    std::string value;
    Status s = db->Get(ro, key, &value);
    if (expected.has_value()) {
      ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
      EXPECT_EQ(value, *expected);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key;
    }
  }
}

TEST_P(DbTest, StructuralInvariants) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  WriteOptions wo;
  Random rng(5);
  for (int i = 0; i < 20000; i++) {
    const std::string key = "k" + std::to_string(rng.Next());
    const std::string payload = std::string(32, 'v');
    ASSERT_TRUE(db->Put(wo, key,
                        payload)
                    .ok());
  }
  const DbStats stats = db->GetStats();
  const int trigger = static_cast<int>(GetParam().size_ratio);
  for (size_t level = 0; level < stats.runs_per_level.size(); level++) {
    switch (GetParam().policy) {
      case MergePolicy::kLeveling:
        EXPECT_LE(stats.runs_per_level[level], 1u) << "level " << level + 1;
        break;
      case MergePolicy::kTiering:
        // Fewer than T runs after cascades settle.
        EXPECT_LT(stats.runs_per_level[level],
                  static_cast<uint64_t>(trigger))
            << "level " << level + 1;
        break;
      case MergePolicy::kLazyLeveling:
        if (static_cast<int>(level) + 1 == stats.deepest_level) {
          EXPECT_EQ(stats.runs_per_level[level], 1u)
              << "largest level " << level + 1;
        } else {
          EXPECT_LT(stats.runs_per_level[level],
                    static_cast<uint64_t>(trigger))
              << "level " << level + 1;
        }
        break;
    }
  }
  EXPECT_GE(stats.deepest_level, 2);  // Data actually cascaded.
  EXPECT_GT(stats.flushes, 0u);
}

TEST_P(DbTest, RangeScanMatchesModel) {
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(MakeOptions(), "/db", &db).ok());
  std::map<std::string, std::optional<std::string>> model;
  Random rng(99);
  WriteOptions wo;
  for (int op = 0; op < 6000; op++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%05llu",
             static_cast<unsigned long long>(rng.Uniform(2000)));
    if (rng.Bernoulli(0.8)) {
      const std::string value = "v" + std::to_string(op);
      ASSERT_TRUE(db->Put(wo, buf, value).ok());
      model[buf] = value;
    } else {
      ASSERT_TRUE(db->Delete(wo, buf).ok());
      model[buf] = std::nullopt;
    }
  }

  // Full scan.
  auto iter = db->NewIterator(ReadOptions());
  auto model_it = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    while (model_it != model.end() && !model_it->second.has_value()) {
      ++model_it;
    }
    ASSERT_NE(model_it, model.end());
    EXPECT_EQ(iter->key().ToString(), model_it->first);
    EXPECT_EQ(iter->value().ToString(), *model_it->second);
    ++model_it;
  }
  while (model_it != model.end() && !model_it->second.has_value()) {
    ++model_it;
  }
  EXPECT_EQ(model_it, model.end());

  // Bounded scan from a random start.
  iter = db->NewIterator(ReadOptions());
  iter->Seek("key01000");
  int count = 0;
  for (; iter->Valid() && count < 50; iter->Next(), count++) {
    EXPECT_GE(iter->key().ToString(), std::string("key01000"));
  }
}

TEST_P(DbTest, ReopenRecoversEverything) {
  auto options = MakeOptions();
  std::map<std::string, std::string> expected;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    WriteOptions wo;
    Random rng(31);
    for (int i = 0; i < 5000; i++) {
      const std::string key = "key" + std::to_string(i);
      const std::string value = "value" + std::to_string(rng.Next() % 100);
      ASSERT_TRUE(db->Put(wo, key, value).ok());
      expected[key] = value;
    }
    // Note: no explicit Flush — recovery must replay the WAL tail too.
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ReadOptions ro;
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE(db->Get(ro, key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
  }
  // Deletions survive recovery too.
  WriteOptions wo;
  ASSERT_TRUE(db->Delete(wo, "key100").ok());
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::string got;
  EXPECT_TRUE(db->Get(ro, "key100", &got).IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DbTest,
    ::testing::Values(
        DbTestParam{MergePolicy::kLeveling, 2.0, false},
        DbTestParam{MergePolicy::kLeveling, 2.0, true},
        DbTestParam{MergePolicy::kLeveling, 4.0, true},
        DbTestParam{MergePolicy::kLeveling, 8.0, false},
        DbTestParam{MergePolicy::kTiering, 2.0, true},
        DbTestParam{MergePolicy::kTiering, 3.0, false},
        DbTestParam{MergePolicy::kTiering, 4.0, true},
        DbTestParam{MergePolicy::kTiering, 8.0, true},
        DbTestParam{MergePolicy::kLazyLeveling, 3.0, true},
        DbTestParam{MergePolicy::kLazyLeveling, 4.0, false}),
    ParamName);

// --- Non-parameterized engine tests ---

TEST(DbBasics, RejectsBadOptions) {
  std::unique_ptr<DB> db;
  // A null env is no longer an error: Open constructs the real-filesystem
  // backend named by io_backend. An unwritable path surfaces as the
  // backend's I/O error instead.
  DbOptions no_env;
  const Status no_env_status =
      DB::Open(no_env, "/proc/monkeydb-cannot-create", &db);
  EXPECT_FALSE(no_env_status.ok());
  EXPECT_FALSE(no_env_status.IsInvalidArgument());

  auto env = NewMemEnv();
  DbOptions bad_ratio;
  bad_ratio.env = env.get();
  bad_ratio.size_ratio = 1.5;
  EXPECT_TRUE(DB::Open(bad_ratio, "/db", &db).IsInvalidArgument());
}

TEST(DbBasics, OverwriteSameKeyManyTimes) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 4 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    const std::string key = "v" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, "hot_key", key).ok());
  }
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "hot_key", &value).ok());
  EXPECT_EQ(value, "v4999");
  // Compaction collapses duplicates: total disk entries stay small.
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_LE(db->GetStats().total_disk_entries, 16u);
}

TEST(DbBasics, EmptyDbBehaves) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "nothing", &value).IsNotFound());
  auto iter = db->NewIterator(ReadOptions());
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  ASSERT_TRUE(db->Flush().ok());  // Flush of empty memtable is a no-op.
  EXPECT_EQ(db->GetStats().total_disk_entries, 0u);
}

TEST(DbBasics, LargeValuesSpanBlocks) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 256 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  // Values near the page size each get their own data block.
  for (int i = 0; i < 100; i++) {
    const std::string key = "key" + std::to_string(i);
    const std::string payload = std::string(3500, 'a' + (i % 26));
    ASSERT_TRUE(db->Put(wo, key,
                        payload)
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "key42", &value).ok());
  EXPECT_EQ(value, std::string(3500, 'a' + (42 % 26)));
}

TEST(DbBasics, TombstonesPurgedAtBottomLevel) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 4 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 1000; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }
  for (int i = 0; i < 1000; i++) {
    const std::string key = "k" + std::to_string(i);
    ASSERT_TRUE(db->Delete(wo, key).ok());
  }
  // Deletes do not eagerly reach the bottom; a full compaction purges
  // every tombstone and superseded version.
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->GetStats().total_disk_entries, 0u);
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "k500", &value).IsNotFound());
}

TEST(DbBasics, StatsCountersAdvance) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;
  options.bits_per_entry = 10.0;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 4000; i++) {
    const std::string key = "key" + std::to_string(i);
    const std::string payload = std::string(24, 'x');
    ASSERT_TRUE(
        db->Put(wo, key, payload).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  std::string value;
  for (int i = 0; i < 200; i++) {
    // NotFound is the point of the probe; only the counters matter here.
    const std::string key = "absent" + std::to_string(i);
    db->Get(ReadOptions(), key, &value)
        .IgnoreError();
  }
  const DbStats stats = db->GetStats();
  EXPECT_EQ(stats.gets, 200u);
  // With 10 bits/key nearly all zero-result probes are filtered out.
  EXPECT_GT(stats.filter_negatives, 0u);
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.filter_bits_total, 0u);
}

std::set<std::string> WalFilesOnDisk(Env* env) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren("/db", &children).ok());
  std::set<std::string> out;
  for (const std::string& child : children) {
    if (child.rfind("wal-", 0) == 0) out.insert(child);
  }
  return out;
}

std::set<std::string> SstFilesOnDisk(Env* env) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren("/db", &children).ok());
  std::set<std::string> out;
  for (const std::string& child : children) {
    if (child.size() > 4 &&
        child.compare(child.size() - 4, 4, ".sst") == 0) {
      out.insert(child);
    }
  }
  return out;
}

// Regression: flush and compaction queue retired files on obsolete_files_
// instead of unlinking under mu_ — but the queue must actually drain
// before the operation returns. A retired WAL or compaction input still
// on disk afterwards means the deferral leaked the file.
TEST(DbBasics, DeferredObsoleteFilesAreUnlinked) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 4 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 512; i++) {
    const std::string key = "a" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // The WAL retired by the flush is unlinked by the time Flush returns,
  // leaving only the fresh active log.
  EXPECT_EQ(WalFilesOnDisk(env.get()).size(), 1u);

  const std::set<std::string> before = SstFilesOnDisk(env.get());
  ASSERT_FALSE(before.empty());
  for (int i = 0; i < 512; i++) {
    const std::string key = "a" + std::to_string(i);
    const std::string value = "w" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());
  const std::set<std::string> after = SstFilesOnDisk(env.get());
  ASSERT_FALSE(after.empty());
  // Every pre-compaction run fed the full merge: its file must be gone
  // from the disk, not just from the manifest.
  for (const std::string& name : before) {
    EXPECT_EQ(after.count(name), 0u) << name << " still on disk";
  }
  // And the merged data survived its inputs' deletion.
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "a1", &value).ok());
  EXPECT_EQ(value, "w1");
}

// Same contract on the background path: WaitForDrain means the disk
// reflects the new tree, so the worker unlinks retired files before it
// reports idle.
TEST(DbBasics, BackgroundWorkerDrainsObsoleteFiles) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 4 << 10;
  options.background_compaction = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  for (int i = 0; i < 2048; i++) {
    const std::string key = "b" + std::to_string(i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());  // Switch + WaitForDrain.
  EXPECT_EQ(WalFilesOnDisk(env.get()).size(), 1u);
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "b2047", &value).ok());
  EXPECT_EQ(value, "v2047");
}

// Parks the first append to a file whose name contains `name_part` after
// Arm() until Release(): on "MANIFEST", a test can read the DB while a flush
// sits at its commit point; on ".sst", the background worker stalls inside
// a flush with mu_ released.
class AppendLatchEnv : public Env {
 public:
  AppendLatchEnv(Env* base, std::string name_part)
      : base_(base), name_part_(std::move(name_part)) {}

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void WaitUntilParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    cv_.notify_all();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    std::unique_ptr<WritableFile> file;
    MONKEYDB_RETURN_IF_ERROR(base_->NewWritableFile(fname, &file));
    if (fname.find(name_part_) != std::string::npos) {
      *result = std::make_unique<LatchedFile>(this, std::move(file));
    } else {
      *result = std::move(file);
    }
    return Status::OK();
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  class LatchedFile : public WritableFile {
   public:
    LatchedFile(AppendLatchEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(const Slice& data) override {
      env_->ParkIfArmed();
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    AppendLatchEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  void ParkIfArmed() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return;
    parked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !armed_; });
  }

  Env* base_;
  const std::string name_part_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool parked_ = false;
};

// Regression: a synchronous tiering or lazy-leveling flush published the
// swapped-in empty memtable before its run was in the tree. Readers take
// the view without mu_, so during the manifest append a Get of a key
// acknowledged before the flush returned NotFound.
TEST(DbBasics, FlushNeverPublishesAViewMissingData) {
  for (MergePolicy policy :
       {MergePolicy::kTiering, MergePolicy::kLazyLeveling}) {
    auto base = NewMemEnv();
    AppendLatchEnv env(base.get(), "MANIFEST");
    DbOptions options;
    options.env = &env;
    options.merge_policy = policy;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());

    env.Arm();
    std::thread flusher([&db] { EXPECT_TRUE(db->Flush().ok()); });
    env.WaitUntilParked();
    std::string value;
    const Status s = db->Get(ReadOptions(), "k", &value);
    env.Release();
    flusher.join();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(value, "v");
  }
}

// Regression: two frozen memtables flushed back to back, with no write
// between the two jobs, give two tiering runs the same sequence number.
// Equal sequences do not make them fragments of one run: Get and MultiGet
// must probe both, newer first, and a reopen must keep that order.
TEST(DbBasics, BackToBackFlushesSharingASequenceStayDistinctRuns) {
  auto base = NewMemEnv();
  AppendLatchEnv env(base.get(), ".sst");
  DbOptions options;
  options.env = &env;
  options.merge_policy = MergePolicy::kTiering;
  options.size_ratio = 10.0;  // Three Level-1 runs stay unmerged.
  options.background_compaction = true;
  options.max_immutable_memtables = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;

  // Run A: the worker parks inside its flush...
  ASSERT_TRUE(db->Put(wo, "a", "a").ok());
  env.Arm();
  std::thread flush_a([&db] { EXPECT_TRUE(db->Flush().ok()); });
  env.WaitUntilParked();

  // ...while B is written and frozen behind it, then C is written.
  std::map<std::string, std::string> expected = {{"a", "a"}};
  for (int i = 0; i < 100; i++) {
    char key[8];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(db->Put(wo, key, "b").ok());
    expected[key] = "b";
  }
  const uint64_t rotations = db->GetStats().wal_rotations;
  std::thread flush_b([&db] { EXPECT_TRUE(db->Flush().ok()); });
  while (db->GetStats().wal_rotations == rotations) {
    std::this_thread::yield();
  }
  // C overwrites one of B's keys; its range ends below most of B's keys.
  ASSERT_TRUE(db->Put(wo, "k050", "c").ok());
  expected["k050"] = "c";

  // No write from here on, so B's and C's flush jobs read the same last
  // sequence.
  env.Release();
  ASSERT_TRUE(db->Flush().ok());
  flush_a.join();
  flush_b.join();
  ASSERT_EQ(db->GetStats().runs_per_level.at(0), 3u);

  for (int pass = 0; pass < 2; pass++) {
    SCOPED_TRACE(pass == 0 ? "open" : "reopened");
    std::vector<Slice> keys;
    for (const auto& [key, value] : expected) {
      std::string got;
      ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
      EXPECT_EQ(got, value) << key;
      keys.emplace_back(key);
    }
    std::vector<std::string> values;
    const std::vector<Status> statuses =
        db->MultiGet(ReadOptions(), keys, &values);
    size_t i = 0;
    for (const auto& [key, value] : expected) {
      ASSERT_TRUE(statuses[i].ok()) << key;
      EXPECT_EQ(values[i], value) << key;
      i++;
    }
    db.reset();
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  }
}

// The merge policy is an open-time option, so a leveled DB can open runs
// written under tiering. Until they merge, Level 1 holds overlapping runs
// that are not fragments of one run: a lookup must probe every one.
TEST(DbBasics, LeveledOpenOfTieredRunsProbesEveryRun) {
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.merge_policy = MergePolicy::kTiering;
  options.size_ratio = 10.0;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 100; i++) {
    char key[8];
    snprintf(key, sizeof(key), "k%03d", i);
    ASSERT_TRUE(db->Put(WriteOptions(), key, "old").ok());
    expected[key] = "old";
  }
  ASSERT_TRUE(db->Flush().ok());
  // The newer run's range ends below most of the older run's keys.
  ASSERT_TRUE(db->Put(WriteOptions(), "k050", "new").ok());
  expected["k050"] = "new";
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  options.merge_policy = MergePolicy::kLeveling;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  ASSERT_EQ(db->GetStats().runs_per_level.at(0), 2u);
  std::vector<Slice> keys;
  for (const auto& [key, value] : expected) {
    std::string got;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key;
    keys.emplace_back(key);
  }
  std::vector<std::string> values;
  const std::vector<Status> statuses =
      db->MultiGet(ReadOptions(), keys, &values);
  size_t i = 0;
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(statuses[i].ok()) << key;
    EXPECT_EQ(values[i], value) << key;
    i++;
  }
}

// Regression: Get counted a filter pass that the fence pointers then
// pruned (a key above a run's last key, so no block is read) as a run
// probe and a false positive. A probe is counted only where a block is
// searched, so both counts must equal the blocks read.
TEST(DbBasics, GetAboveEveryKeyCountsNoPhantomProbe) {
  auto base_env = NewMemEnv();
  IoStats io;
  CountingEnv env(base_env.get(), &io);
  DbOptions options;
  options.env = &env;
  options.buffer_size_bytes = 16 << 10;
  options.bits_per_entry = 0;  // Every filter passes: only fences prune.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const std::string value(48, 'v');
  for (int i = 0; i < 20000; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%08d", (i * 7919) % 20000);
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
  ASSERT_GT(db->GetStats().total_runs, 1u);

  const DbStats before = db->GetStats();
  const IoStatsSnapshot io_before = io.Snapshot();
  std::string got;
  for (const char* key : {"zzz0", "zzz1", "zzz2"}) {
    EXPECT_TRUE(db->Get(ReadOptions(), key, &got).IsNotFound()) << key;
  }
  const DbStats after = db->GetStats();
  const uint64_t reads = (io.Snapshot() - io_before).read_ios;
  EXPECT_EQ(after.runs_probed - before.runs_probed, reads);
  EXPECT_EQ(after.false_positives - before.false_positives, reads);
  EXPECT_EQ(after.gets_not_found - before.gets_not_found, 3u);
}

// Regression: B·P, the entries of one buffer, was fixed by the first flush
// of an incarnation whatever its size. A partial first flush (an explicit
// Flush() of a few keys, or Open's flush of a replayed WAL tail) shrank
// every level capacity: a fresh tree grew far too deep, and a reopen
// rewrote the whole tree during Open.
DbOptions PartialFlushOptions(Env* env) {
  DbOptions options;
  options.env = env;
  options.merge_policy = MergePolicy::kLeveling;
  options.size_ratio = 2.0;
  options.buffer_size_bytes = 16 << 10;
  return options;
}

void LoadUserKeys(DB* db) {
  const std::string value(48, 'v');
  for (int i = 0; i < 20000; i++) {
    char key[24];
    snprintf(key, sizeof(key), "user%012d", i);
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
}

void WriteThreeKeys(DB* db) {
  for (const char* key : {"early0", "early1", "early2"}) {
    ASSERT_TRUE(db->Put(WriteOptions(), key, "v").ok());
  }
}

// A fresh DB whose first flush holds 3 keys grows the same tree.
TEST(DbBasics, PartialFirstFlushDoesNotSetBufferEntries) {
  auto env = NewMemEnv();
  const DbOptions options = PartialFlushOptions(env.get());
  std::unique_ptr<DB> reference;
  ASSERT_TRUE(DB::Open(options, "/reference", &reference).ok());
  LoadUserKeys(reference.get());
  const DbStats want = reference->GetStats();
  const uint64_t want_buffer = reference->CurrentShape().buffer_entries;
  ASSERT_GT(want_buffer, 3u);

  std::unique_ptr<DB> early;
  ASSERT_TRUE(DB::Open(options, "/early", &early).ok());
  WriteThreeKeys(early.get());
  ASSERT_TRUE(early->Flush().ok());
  LoadUserKeys(early.get());
  EXPECT_EQ(early->CurrentShape().buffer_entries, want_buffer);
  EXPECT_EQ(early->GetStats().deepest_level, want.deepest_level);
}

// A reopen whose WAL tail holds 3 keys keeps the tree below Level 1.
TEST(DbBasics, ReplayedWalTailDoesNotSetBufferEntries) {
  auto env = NewMemEnv();
  const DbOptions options = PartialFlushOptions(env.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  LoadUserKeys(db.get());
  ASSERT_TRUE(db->Flush().ok());
  const DbStats flushed = db->GetStats();
  ASSERT_GE(flushed.deepest_level, 2);
  WriteThreeKeys(db.get());
  db.reset();
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  const DbStats reopened = db->GetStats();
  EXPECT_EQ(reopened.merges, 0u);
  ASSERT_EQ(reopened.deepest_level, flushed.deepest_level);
  for (int level = 2; level <= flushed.deepest_level; level++) {
    EXPECT_EQ(reopened.entries_per_level[level - 1],
              flushed.entries_per_level[level - 1])
        << "level " << level;
  }
}

// Every WAL, manifest and value-log record reaches the kernel before its
// write is acknowledged, so a process that exits without closing its DB
// loses nothing it acknowledged (real POSIX env, sync_writes off).
TEST(DbBasics, AcknowledgedWritesSurviveProcessExit) {
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("monkeydb_exit_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  DbOptions options;
  options.env = GetPosixEnv();
  options.sync_writes = false;
  options.buffer_size_bytes = 64 << 10;  // A few flushes, then a WAL tail.
  options.value_separation_threshold = 512;
  constexpr int kPuts = 3000;
  auto key_of = [](int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  };
  auto value_of = [](int i) {
    // Every third value is large enough to go to the value log.
    return std::string(i % 3 == 0 ? 1024 : 32, static_cast<char>('a' + i % 26)) +
           std::to_string(i);
  };

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::unique_ptr<DB> db;
    if (!DB::Open(options, dir, &db).ok()) _exit(2);
    for (int i = 0; i < kPuts; i++) {
      const std::string key = key_of(i);
      const std::string value = value_of(i);
      if (!db->Put(WriteOptions(), key, value).ok()) _exit(3);
    }
    _exit(0);  // The DB and its open files are abandoned, never closed.
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  // The child left all three kinds of file behind: flushed runs, a WAL
  // tail and a value log.
  int ssts = 0, wals = 0, vlogs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".sst") != std::string::npos) ssts++;
    if (name.rfind("wal-", 0) == 0) wals++;
    if (name.rfind("vlog-", 0) == 0) vlogs++;
  }
  EXPECT_GT(ssts, 0);
  EXPECT_GT(wals, 0);
  EXPECT_GT(vlogs, 0);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (int i = 0; i < kPuts; i++) {
    const std::string key = key_of(i);
    std::string value;
    ASSERT_TRUE(db->Get(ReadOptions(), key, &value).ok()) << key;
    ASSERT_EQ(value, value_of(i)) << key;
  }
  db.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace monkeydb
