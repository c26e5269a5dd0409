// SSTable builder/reader tests: round trips, fence-pointer probe costs
// (exactly one page I/O per probe), filter behaviour, page alignment,
// corruption detection.

#include <gtest/gtest.h>

#include <map>

#include "io/counting_env.h"
#include "io/env.h"
#include "sstable/table_builder.h"
#include "sstable/table_reader.h"
#include "util/random.h"

namespace monkeydb {
namespace {

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : env_(NewMemEnv()),
        counting_env_(env_.get(), &stats_, kPageSize) {}

  static constexpr size_t kPageSize = 4096;

  // Builds a table with n sequential entries. Returns its reader.
  std::unique_ptr<TableReader> BuildTable(int n, double fpr,
                                          int value_size = 64) {
    TableBuilderOptions opts;
    opts.block_size = kPageSize;
    opts.filter_fpr = fpr;

    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(counting_env_.NewWritableFile("/t.sst", &file).ok());
    TableBuilder builder(opts, file.get());
    for (int i = 0; i < n; i++) {
      std::string key;
      const std::string user_key = UserKey(i);
      AppendInternalKey(&key, user_key, 100, ValueType::kValue);
      const std::string payload = std::string(value_size, 'v');
      builder.Add(key, payload);
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE(file->Close().ok());
    file_size_ = builder.file_size();
    num_blocks_ = builder.num_data_blocks();

    std::unique_ptr<RandomAccessFile> read_file;
    EXPECT_TRUE(
        counting_env_.NewRandomAccessFile("/t.sst", &read_file).ok());
    TableReaderOptions ropts;
    std::unique_ptr<TableReader> table;
    EXPECT_TRUE(TableReader::Open(ropts, std::move(read_file), file_size_,
                                  &table)
                    .ok());
    return table;
  }

  static std::string UserKey(int i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  std::unique_ptr<Env> env_;
  IoStats stats_;
  CountingEnv counting_env_;
  uint64_t file_size_ = 0;
  uint64_t num_blocks_ = 0;
};

TEST_F(TableTest, RoundTripViaIterator) {
  auto table = BuildTable(5000, 0.01);
  auto iter = table->NewIterator();
  int i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), UserKey(i));
  }
  EXPECT_EQ(i, 5000);
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableTest, GetFoundAndAbsent) {
  auto table = BuildTable(5000, 0.01);
  std::string value;
  TableLookupResult result;

  const std::string user_key = UserKey(1234);
  LookupKey present(user_key, kMaxSequenceNumber);
  ASSERT_TRUE(table->Get(present, &value, &result).ok());
  EXPECT_EQ(result, TableLookupResult::kFound);
  EXPECT_EQ(value.size(), 64u);

  LookupKey absent("nosuchkey", kMaxSequenceNumber);
  ASSERT_TRUE(table->Get(absent, &value, &result).ok());
  EXPECT_TRUE(result == TableLookupResult::kFilteredOut ||
              result == TableLookupResult::kNotPresent);
}

TEST_F(TableTest, DataBlocksArePageAligned) {
  BuildTable(5000, 0.01);
  // All data blocks occupy [0, num_blocks * page); the data region size is
  // an exact multiple of the page size.
  EXPECT_GT(num_blocks_, 1u);
  EXPECT_GE(file_size_, num_blocks_ * kPageSize);
}

TEST_F(TableTest, PointProbeCostsExactlyOnePageRead) {
  auto table = BuildTable(20000, /*fpr=*/1.0);  // No filter: always probes.
  Random rng(1);
  for (int trial = 0; trial < 50; trial++) {
    const int target = static_cast<int>(rng.Uniform(20000));
    const std::string user_key = UserKey(target);
    LookupKey lookup(user_key, kMaxSequenceNumber);
    std::string value;
    TableLookupResult result;
    const auto before = stats_.Snapshot();
    ASSERT_TRUE(table->Get(lookup, &value, &result).ok());
    const auto delta = stats_.Snapshot() - before;
    EXPECT_EQ(result, TableLookupResult::kFound);
    // The fence-pointer guarantee (paper Sec. 2): exactly one page I/O.
    EXPECT_EQ(delta.read_ios, 1u) << "target=" << target;
  }
}

TEST_F(TableTest, FilteredProbeCostsZeroIo) {
  auto table = BuildTable(20000, /*fpr=*/0.001);
  int zero_io_lookups = 0;
  const int trials = 200;
  for (int i = 0; i < trials; i++) {
    const std::string key = "absent" + std::to_string(i);
    LookupKey lookup(key, kMaxSequenceNumber);
    std::string value;
    TableLookupResult result;
    const auto before = stats_.Snapshot();
    ASSERT_TRUE(table->Get(lookup, &value, &result).ok());
    const auto delta = stats_.Snapshot() - before;
    if (result == TableLookupResult::kFilteredOut) {
      EXPECT_EQ(delta.read_ios, 0u);
      zero_io_lookups++;
    }
  }
  // At FPR 0.1% essentially all zero-result lookups are filtered.
  EXPECT_GE(zero_io_lookups, trials - 5);
}

TEST_F(TableTest, TombstonesSurfaceAsDeleted) {
  TableBuilderOptions opts;
  opts.block_size = kPageSize;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(counting_env_.NewWritableFile("/t.sst", &file).ok());
  TableBuilder builder(opts, file.get());
  std::string k1, k2;
  AppendInternalKey(&k1, "alive", 10, ValueType::kValue);
  AppendInternalKey(&k2, "dead", 10, ValueType::kDeletion);
  builder.Add(k1, "v");
  builder.Add(k2, "");
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());

  std::unique_ptr<RandomAccessFile> rfile;
  ASSERT_TRUE(counting_env_.NewRandomAccessFile("/t.sst", &rfile).ok());
  TableReaderOptions ropts;
  std::unique_ptr<TableReader> table;
  ASSERT_TRUE(TableReader::Open(ropts, std::move(rfile),
                                builder.file_size(), &table)
                  .ok());

  std::string value;
  TableLookupResult result;
  LookupKey dead("dead", kMaxSequenceNumber);
  ASSERT_TRUE(table->Get(dead, &value, &result).ok());
  EXPECT_EQ(result, TableLookupResult::kDeleted);
  LookupKey alive("alive", kMaxSequenceNumber);
  ASSERT_TRUE(table->Get(alive, &value, &result).ok());
  EXPECT_EQ(result, TableLookupResult::kFound);
}

TEST_F(TableTest, SeekWithinIterator) {
  auto table = BuildTable(10000, 0.01);
  auto iter = table->NewIterator();
  std::string seek_key;
  const std::string user_key = UserKey(7777);
  AppendInternalKey(&seek_key, user_key, kMaxSequenceNumber,
                    kValueTypeForSeek);
  iter->Seek(seek_key);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), UserKey(7777));
  iter->Next();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), UserKey(7778));
}

TEST_F(TableTest, CorruptedFileRejected) {
  BuildTable(100, 0.01);
  // Flip a byte in the footer region.
  std::unique_ptr<RandomAccessFile> rfile;
  char scratch[8192];
  Slice contents;
  ASSERT_TRUE(env_->NewRandomAccessFile("/t.sst", &rfile).ok());
  ASSERT_TRUE(rfile->Read(0, sizeof(scratch), &contents, scratch).ok());

  std::string corrupted(contents.data(), contents.size());
  uint64_t full_size;
  ASSERT_TRUE(env_->GetFileSize("/t.sst", &full_size).ok());
  // Rewrite with a truncated/garbled copy.
  std::unique_ptr<WritableFile> wfile;
  ASSERT_TRUE(env_->NewWritableFile("/bad.sst", &wfile).ok());
  corrupted[100] ^= 0xFF;
  ASSERT_TRUE(wfile->Append(corrupted).ok());
  ASSERT_TRUE(wfile->Close().ok());

  std::unique_ptr<RandomAccessFile> bad;
  ASSERT_TRUE(env_->NewRandomAccessFile("/bad.sst", &bad).ok());
  TableReaderOptions ropts;
  std::unique_ptr<TableReader> table;
  Status s = TableReader::Open(ropts, std::move(bad), corrupted.size(),
                               &table);
  // Either the footer is unreadable (truncated) or a block CRC fails later;
  // opening must not succeed silently with garbage.
  if (s.ok()) {
    // Data byte 100 was corrupted: reading block 0 must fail the CRC.
    LookupKey lookup("key000000", kMaxSequenceNumber);
    std::string value;
    TableLookupResult result;
    Status get_status = table->Get(lookup, &value, &result);
    EXPECT_FALSE(get_status.ok());
  } else {
    EXPECT_TRUE(s.IsCorruption());
  }
}

TEST_F(TableTest, FilterSizeTracksFprBudget) {
  auto strict = BuildTable(10000, 0.001);
  const uint64_t strict_bits = strict->filter_size_bits();
  auto loose = BuildTable(10000, 0.1);
  const uint64_t loose_bits = loose->filter_size_bits();
  auto none = BuildTable(10000, 1.0);
  EXPECT_GT(strict_bits, loose_bits);
  EXPECT_EQ(none->filter_size_bits(), 0u);
}

TEST_F(TableTest, FilterHashBufferSizedOnceAndReleased) {
  // Given an entry bound, the filter's hash buffer is allocated once at
  // construction: adds up to the bound never move it. Finish releases it.
  constexpr int kBound = 5000;
  for (int n : {1, kBound / 2, kBound}) {
    TableBuilderOptions opts;
    opts.block_size = kPageSize;
    opts.filter_fpr = 0.01;
    opts.expected_entries = kBound;
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/hash.sst", &file).ok());
    TableBuilder builder(opts, file.get());
    const uint64_t* buffer = builder.filter_builder().hash_data();
    ASSERT_NE(buffer, nullptr);
    EXPECT_GE(builder.filter_builder().hash_capacity(),
              static_cast<size_t>(kBound));
    for (int i = 0; i < n; i++) {
      std::string key;
      const std::string user_key = UserKey(i);
      AppendInternalKey(&key, user_key, 100, ValueType::kValue);
      builder.Add(key, "value");
      ASSERT_EQ(builder.filter_builder().hash_data(), buffer)
          << "moved at add " << i << " of " << n;
    }
    ASSERT_TRUE(builder.Finish().ok());
    EXPECT_EQ(builder.filter_builder().hash_capacity(), 0u) << "n=" << n;
    EXPECT_GT(builder.filter_size_bits(), 0u);
    ASSERT_TRUE(file->Close().ok());
  }
}

TEST_F(TableTest, FilterHashBufferReleasedWithoutBound) {
  TableBuilderOptions opts;
  opts.block_size = kPageSize;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile("/grow.sst", &file).ok());
  TableBuilder builder(opts, file.get());
  EXPECT_EQ(builder.filter_builder().hash_capacity(), 0u);
  for (int i = 0; i < 1000; i++) {
    std::string key;
    const std::string user_key = UserKey(i);
    AppendInternalKey(&key, user_key, 100, ValueType::kValue);
    builder.Add(key, "value");
  }
  EXPECT_GE(builder.filter_builder().hash_capacity(), 1000u);
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.filter_builder().hash_capacity(), 0u);
  ASSERT_TRUE(file->Close().ok());
}

}  // namespace
}  // namespace monkeydb
