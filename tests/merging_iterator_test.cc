// MergingIterator tests against a reference sorted union.

#include "lsm/merging_iterator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/random.h"

namespace monkeydb {
namespace {

// A trivial in-memory iterator over pre-sorted internal keys.
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(
      std::vector<std::pair<std::string, std::string>> entries)
      : entries_(std::move(entries)), pos_(entries_.size()) {}

  bool Valid() const override { return pos_ < entries_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void SeekToLast() override {
    pos_ = entries_.empty() ? 0 : entries_.size() - 1;
    if (entries_.empty()) pos_ = entries_.size();
  }
  void Seek(const Slice& target) override {
    pos_ = 0;
    while (pos_ < entries_.size() &&
           CompareInternalKeys(Slice(entries_[pos_].first), target) < 0) {
      pos_++;
    }
  }
  void Next() override { pos_++; }
  void Prev() override {
    if (pos_ == 0) {
      pos_ = entries_.size();
    } else {
      pos_--;
    }
  }
  Slice key() const override { return Slice(entries_[pos_].first); }
  Slice value() const override { return Slice(entries_[pos_].second); }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
  size_t pos_;
};

std::string IKey(const std::string& user_key, uint64_t seq) {
  std::string k;
  AppendInternalKey(&k, user_key, seq, ValueType::kValue);
  return k;
}

TEST(MergingIteratorTest, MergesSortedChildren) {
  Random rng(3);
  std::vector<std::string> all_keys;
  std::vector<std::unique_ptr<Iterator>> children;
  for (int child = 0; child < 5; child++) {
    std::vector<std::pair<std::string, std::string>> entries;
    for (int i = 0; i < 200; i++) {
      const std::string ik =
          IKey("k" + std::to_string(rng.Uniform(100000)), rng.Next() >> 10);
      entries.push_back({ik, "v"});
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return CompareInternalKeys(Slice(a.first), Slice(b.first)) < 0;
              });
    for (const auto& [k, v] : entries) all_keys.push_back(k);
    children.push_back(std::make_unique<VectorIterator>(std::move(entries)));
  }
  std::sort(all_keys.begin(), all_keys.end(),
            [](const std::string& a, const std::string& b) {
              return CompareInternalKeys(Slice(a), Slice(b)) < 0;
            });

  auto merged = NewMergingIterator(std::move(children));
  size_t i = 0;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next(), i++) {
    ASSERT_LT(i, all_keys.size());
    EXPECT_EQ(merged->key().ToString(), all_keys[i]);
  }
  EXPECT_EQ(i, all_keys.size());
}

TEST(MergingIteratorTest, SeekPositionsAcrossChildren) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{
          {IKey("a", 1), "1"}, {IKey("e", 1), "2"}}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{
          {IKey("c", 1), "3"}, {IKey("g", 1), "4"}}));

  auto merged = NewMergingIterator(std::move(children));
  const std::string ikey = IKey("b", kMaxSequenceNumber);
  merged->Seek(ikey);
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), "c");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(ExtractUserKey(merged->key()).ToString(), "e");
}

TEST(MergingIteratorTest, EmptyChildrenYieldEmptyIterator) {
  auto merged = NewMergingIterator({});
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());

  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{}));
  auto merged2 = NewMergingIterator(std::move(children));
  merged2->SeekToFirst();
  EXPECT_FALSE(merged2->Valid());
}

TEST(MergingIteratorTest, SingleChildPassesThrough) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{
          {IKey("a", 1), "1"}}));
  auto merged = NewMergingIterator(std::move(children));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "1");
}

TEST(MergingIteratorTest, NewerVersionComesFirst) {
  // Same user key in two children with different sequences: the newer
  // (higher seq) must be yielded first.
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{
          {IKey("k", 5), "old"}}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{
          {IKey("k", 9), "new"}}));
  auto merged = NewMergingIterator(std::move(children));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "new");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "old");
  merged->Next();
  EXPECT_FALSE(merged->Valid());
}

}  // namespace
}  // namespace monkeydb
