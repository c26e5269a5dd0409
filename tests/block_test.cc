// Data-block builder/iterator tests (prefix compression, restarts, seeks,
// corruption handling).

#include "sstable/block.h"

#include <gtest/gtest.h>

#include <map>

#include "lsm/internal_key.h"
#include "util/coding.h"
#include "util/random.h"

namespace monkeydb {
namespace {

// Helper: internal keys for plain string user keys with fixed sequence.
std::string IKey(const std::string& user_key, uint64_t seq = 100) {
  std::string k;
  AppendInternalKey(&k, user_key, seq, ValueType::kValue);
  return k;
}

class BlockTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Block> Build(
      const std::vector<std::pair<std::string, std::string>>& entries) {
    BlockBuilder builder(GetParam());
    for (const auto& [key, value] : entries) builder.Add(key, value);
    Slice payload = builder.Finish();
    return std::make_unique<Block>(
        std::make_shared<const std::string>(payload.ToString()));
  }
};

TEST_P(BlockTest, RoundTripInOrder) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    entries.push_back({IKey(buf), "value" + std::to_string(i)});
  }
  auto block = Build(entries);
  ASSERT_TRUE(block->ok());

  auto iter = block->NewIterator();
  size_t i = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
    ASSERT_LT(i, entries.size());
    EXPECT_EQ(iter->key().ToString(), entries[i].first);
    EXPECT_EQ(iter->value().ToString(), entries[i].second);
  }
  EXPECT_EQ(i, entries.size());
  EXPECT_TRUE(iter->status().ok());
}

TEST_P(BlockTest, SeekFindsFirstGreaterOrEqual) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; i += 2) {  // Even keys only.
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    entries.push_back({IKey(buf), std::to_string(i)});
  }
  auto block = Build(entries);
  auto iter = block->NewIterator();

  // Seek to a present key.
  const std::string present = IKey("key0042");
  iter->Seek(present);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "42");

  // Seek to an absent (odd) key lands on the next even key.
  const std::string absent = IKey("key0041");
  iter->Seek(absent);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "42");

  // Seek before the first.
  const std::string before_first = IKey("aaa");
  iter->Seek(before_first);
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "0");

  // Seek past the last.
  const std::string past_last = IKey("zzz");
  iter->Seek(past_last);
  EXPECT_FALSE(iter->Valid());
}

TEST_P(BlockTest, SeekToLastAndPrev) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 37; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%03d", i);
    entries.push_back({IKey(buf), std::to_string(i)});
  }
  auto block = Build(entries);
  auto iter = block->NewIterator();

  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "36");

  // Walk the whole block backwards.
  for (int i = 35; i >= 0; i--) {
    iter->Prev();
    ASSERT_TRUE(iter->Valid()) << i;
    EXPECT_EQ(iter->value().ToString(), std::to_string(i));
  }
  iter->Prev();
  EXPECT_FALSE(iter->Valid());
}

TEST_P(BlockTest, EmptyBlock) {
  auto block = Build({});
  ASSERT_TRUE(block->ok());
  auto iter = block->NewIterator();
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  const std::string ikey = IKey("x");
  iter->Seek(ikey);
  EXPECT_FALSE(iter->Valid());
}

TEST_P(BlockTest, PrefixCompressionSavesSpace) {
  // Keys sharing long prefixes should compress well when the restart
  // interval allows sharing.
  BlockBuilder with_sharing(16);
  BlockBuilder no_sharing(1);
  for (int i = 0; i < 64; i++) {
    char buf[64];
    snprintf(buf, sizeof(buf), "a_very_long_common_prefix_%04d", i);
    std::string key = IKey(buf);
    with_sharing.Add(key, "v");
    no_sharing.Add(key, "v");
  }
  EXPECT_LT(with_sharing.Finish().size(), no_sharing.Finish().size());
}

TEST_P(BlockTest, CorruptedBlockReportsError) {
  auto block = std::make_unique<Block>(
      std::make_shared<const std::string>("not a block"));
  // Either the block parses as malformed or its iterator errors.
  if (block->ok()) {
    auto iter = block->NewIterator();
    iter->SeekToFirst();
    // A garbage block must not yield entries silently *and* report OK with
    // valid state beyond its data.
    while (iter->Valid()) iter->Next();
    SUCCEED();
  } else {
    auto iter = block->NewIterator();
    EXPECT_FALSE(iter->Valid());
    EXPECT_FALSE(iter->status().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(RestartIntervals, BlockTest,
                         ::testing::Values(1, 2, 16, 128));

// Two well-formed entries followed by a restart count of 0. The builder
// always writes at least one restart, so this block is corrupt; walking it
// must not reach Prev's restart search (restart num_restarts - 1 would be
// index UINT32_MAX).
TEST(BlockRestarts, ZeroRestartCountWithEntriesIsCorrupt) {
  std::string contents;
  for (const char* user_key : {"a", "b"}) {
    const std::string key = IKey(user_key);
    PutVarint32(&contents, 0);  // shared
    PutVarint32(&contents, static_cast<uint32_t>(key.size()));
    PutVarint32(&contents, 1);  // value length
    contents += key;
    contents += 'v';
  }
  PutFixed32(&contents, 0);  // num_restarts
  Block block(std::make_shared<const std::string>(contents));
  EXPECT_FALSE(block.ok());

  auto iter = block.NewIterator();
  iter->SeekToFirst();
  if (iter->Valid()) iter->Next();
  if (iter->Valid()) iter->Prev();
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().IsCorruption());
}

}  // namespace
}  // namespace monkeydb
