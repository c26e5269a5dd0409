#include "lsm/merging_iterator.h"

#include <cassert>

namespace monkeydb {

namespace {

class MergingIterator : public Iterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<Iterator>> children)
      : children_(std::move(children)),
        current_(nullptr) {}

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    for (auto& child : children_) child->SeekToFirst();
    direction_ = kForward;
    FindSmallest();
  }

  void SeekToLast() override {
    for (auto& child : children_) child->SeekToLast();
    direction_ = kBackward;
    FindLargest();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) child->Seek(target);
    direction_ = kForward;
    FindSmallest();
  }

  void Next() override {
    assert(Valid());
    if (direction_ != kForward) {
      // Reposition all non-current children after the current key.
      const std::string key = current_->key().ToString();
      for (auto& child : children_) {
        if (child.get() == current_) continue;
        child->Seek(Slice(key));
        if (child->Valid() &&
            CompareInternalKeys(child->key(), Slice(key)) == 0) {
          child->Next();
        }
      }
      direction_ = kForward;
    }
    current_->Next();
    FindSmallest();
  }

  void Prev() override {
    assert(Valid());
    if (direction_ != kBackward) {
      const std::string key = current_->key().ToString();
      for (auto& child : children_) {
        if (child.get() == current_) continue;
        child->Seek(Slice(key));
        if (child->Valid()) {
          child->Prev();  // First entry < key.
        } else {
          child->SeekToLast();  // All entries < key.
        }
      }
      direction_ = kBackward;
    }
    current_->Prev();
    FindLargest();
  }

  Slice key() const override {
    assert(Valid());
    return current_->key();
  }

  Slice value() const override {
    assert(Valid());
    return current_->value();
  }

  Status status() const override {
    for (const auto& child : children_) {
      MONKEYDB_RETURN_IF_ERROR(child->status());
    }
    return Status::OK();
  }

 private:
  enum Direction { kForward, kBackward };

  void FindSmallest() {
    Iterator* smallest = nullptr;
    for (auto& child : children_) {
      if (!child->Valid()) continue;
      if (smallest == nullptr ||
          CompareInternalKeys(child->key(), smallest->key()) < 0) {
        smallest = child.get();
      }
    }
    current_ = smallest;
  }

  void FindLargest() {
    Iterator* largest = nullptr;
    for (auto& child : children_) {
      if (!child->Valid()) continue;
      if (largest == nullptr ||
          CompareInternalKeys(child->key(), largest->key()) > 0) {
        largest = child.get();
      }
    }
    current_ = largest;
  }

  std::vector<std::unique_ptr<Iterator>> children_;
  Iterator* current_;
  Direction direction_ = kForward;
};

class EmptyIterator : public Iterator {
 public:
  bool Valid() const override { return false; }
  void SeekToFirst() override {}
  void SeekToLast() override {}
  void Seek(const Slice&) override {}
  void Next() override {}
  void Prev() override {}
  Slice key() const override { return Slice(); }
  Slice value() const override { return Slice(); }
  Status status() const override { return Status::OK(); }
};

}  // namespace

std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children) {
  if (children.empty()) return std::make_unique<EmptyIterator>();
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<MergingIterator>(std::move(children));
}

}  // namespace monkeydb
