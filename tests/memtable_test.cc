// SkipList and MemTable tests, including a randomized cross-check against
// std::map.

#include "memtable/memtable.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "memtable/skiplist.h"
#include "util/random.h"

namespace monkeydb {
namespace {

struct IntPtrCmp {
  int operator()(const char* a, const char* b) const {
    const int ia = *reinterpret_cast<const int*>(a);
    const int ib = *reinterpret_cast<const int*>(b);
    return (ia < ib) ? -1 : (ia > ib) ? 1 : 0;
  }
};

TEST(SkipList, InsertContainsIterate) {
  Arena arena;
  SkipList<const char*, IntPtrCmp> list(IntPtrCmp{}, &arena);

  std::vector<int> keys = {5, 1, 9, 3, 7, 2, 8, 0, 6, 4};
  std::vector<std::unique_ptr<int>> storage;
  for (int k : keys) {
    storage.push_back(std::make_unique<int>(k));
    list.Insert(reinterpret_cast<const char*>(storage.back().get()));
  }
  for (int k : keys) {
    int probe = k;
    EXPECT_TRUE(list.Contains(reinterpret_cast<const char*>(&probe)));
  }
  int absent = 42;
  EXPECT_FALSE(list.Contains(reinterpret_cast<const char*>(&absent)));

  // In-order iteration.
  SkipList<const char*, IntPtrCmp>::Iterator it(&list);
  int expected = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), expected++);
  }
  EXPECT_EQ(expected, 10);

  // Seek.
  int target = 6;
  it.Seek(reinterpret_cast<const char*>(&target));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), 6);

  // SeekToLast and Prev.
  it.SeekToLast();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), 9);
  it.Prev();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(*reinterpret_cast<const int*>(it.key()), 8);
}

class MemTableTest : public ::testing::Test {
 protected:
  Status Get(const std::string& key, std::string* value, bool* found) {
    LookupKey lookup(key, kMaxSequenceNumber);
    return mem_.Get(lookup, value, found);
  }

  MemTable mem_;
};

TEST_F(MemTableTest, AddGet) {
  mem_.Add(1, ValueType::kValue, "apple", "red");
  mem_.Add(2, ValueType::kValue, "banana", "yellow");

  std::string value;
  bool found;
  ASSERT_TRUE(Get("apple", &value, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(value, "red");

  EXPECT_TRUE(Get("cherry", &value, &found).IsNotFound());
  EXPECT_FALSE(found);
}

TEST_F(MemTableTest, NewestVersionWins) {
  mem_.Add(1, ValueType::kValue, "k", "v1");
  mem_.Add(5, ValueType::kValue, "k", "v5");
  mem_.Add(3, ValueType::kValue, "k", "v3");

  std::string value;
  bool found;
  ASSERT_TRUE(Get("k", &value, &found).ok());
  EXPECT_EQ(value, "v5");
}

TEST_F(MemTableTest, TombstoneHidesValue) {
  mem_.Add(1, ValueType::kValue, "k", "v");
  mem_.Add(2, ValueType::kDeletion, "k", "");
  std::string value;
  bool found;
  Status s = Get("k", &value, &found);
  EXPECT_TRUE(found);  // The tombstone is an entry...
  EXPECT_TRUE(s.IsNotFound());  // ...but the key reads as absent.
}

TEST_F(MemTableTest, SnapshotVisibility) {
  mem_.Add(10, ValueType::kValue, "k", "new");
  // A lookup at sequence 5 must not see the sequence-10 write.
  LookupKey old_lookup("k", 5);
  std::string value;
  bool found;
  Status s = mem_.Get(old_lookup, &value, &found);
  EXPECT_FALSE(found);
  EXPECT_TRUE(s.IsNotFound());
}

TEST_F(MemTableTest, IteratorYieldsInternalOrder) {
  mem_.Add(1, ValueType::kValue, "b", "1");
  mem_.Add(2, ValueType::kValue, "a", "2");
  mem_.Add(3, ValueType::kValue, "b", "3");  // Newer "b".

  auto iter = mem_.NewIterator();
  std::vector<std::pair<std::string, uint64_t>> seen;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(iter->key(), &parsed));
    seen.push_back({parsed.user_key.ToString(), parsed.sequence});
  }
  // "a" first; then "b" newest-first (seq 3 before seq 1).
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::string, uint64_t>{"a", 2}));
  EXPECT_EQ(seen[1], (std::pair<std::string, uint64_t>{"b", 3}));
  EXPECT_EQ(seen[2], (std::pair<std::string, uint64_t>{"b", 1}));
}

TEST_F(MemTableTest, MemoryUsageGrows) {
  const size_t before = mem_.ApproximateMemoryUsage();
  for (int i = 0; i < 1000; i++) {
    const std::string key = "key" + std::to_string(i);
    const std::string payload = std::string(100, 'v');
    mem_.Add(i + 1, ValueType::kValue, key,
             payload);
  }
  EXPECT_GT(mem_.ApproximateMemoryUsage(), before + 100 * 1000);
  EXPECT_EQ(mem_.num_entries(), 1000u);
}

TEST_F(MemTableTest, RandomizedAgainstStdMap) {
  Random rng(2024);
  std::map<std::string, std::pair<uint64_t, std::string>> model;  // key -> (seq, value)
  SequenceNumber seq = 0;
  for (int i = 0; i < 5000; i++) {
    const std::string key = "k" + std::to_string(rng.Uniform(500));
    seq++;
    if (rng.Bernoulli(0.8)) {
      const std::string value = "v" + std::to_string(rng.Next() % 1000);
      mem_.Add(seq, ValueType::kValue, key, value);
      model[key] = {seq, value};
    } else {
      mem_.Add(seq, ValueType::kDeletion, key, "");
      model[key] = {seq, ""};  // Empty marks deletion in the model.
    }
  }
  for (int i = 0; i < 500; i++) {
    const std::string key = "k" + std::to_string(i);
    std::string value;
    bool found;
    Status s = Get(key, &value, &found);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_FALSE(found) << key;
    } else if (it->second.second.empty()) {
      EXPECT_TRUE(found) << key;
      EXPECT_TRUE(s.IsNotFound()) << key;
    } else {
      EXPECT_TRUE(found) << key;
      ASSERT_TRUE(s.ok()) << key;
      EXPECT_EQ(value, it->second.second) << key;
    }
  }
}

}  // namespace
}  // namespace monkeydb
