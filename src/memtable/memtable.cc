#include "memtable/memtable.h"

#include "util/coding.h"

namespace monkeydb {

// Entry layout in the arena:
//   varint32 internal_key_len | internal_key bytes | varint32 val_len | value

namespace {

// Every skiplist compare decodes two of these prefixes, so a one-byte
// prefix (an internal key under 128 bytes, i.e. a user key under 120) is
// decoded here inline; only longer ones pay the out-of-line GetVarint32Ptr
// call. Keeping this local measured faster than inlining the fast path
// into GetVarint32Ptr for every decoder.
inline Slice GetLengthPrefixed(const char* data) {
  const auto first = static_cast<unsigned char>(data[0]);
  if (first < 128) return Slice(data + 1, first);
  uint32_t len;
  const char* p = GetVarint32Ptr(data, data + 5, &len);
  return Slice(p, len);
}

std::unique_ptr<Allocator> MakeAllocator(const MemTableOptions& options,
                                         ConcurrentArena** concurrent_out) {
  *concurrent_out = nullptr;
  if (!options.concurrent_inserts) {
    return std::make_unique<Arena>(options.arena_block_size == 0
                                       ? Arena::kDefaultBlockSize
                                       : options.arena_block_size);
  }
  ConcurrentArena::Options copts;
  if (options.arena_block_size != 0) {
    copts.block_size = options.arena_block_size;
  }
  auto arena = std::make_unique<ConcurrentArena>(copts);
  *concurrent_out = arena.get();
  return arena;
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* a, const char* b) const {
  return CompareInternalKeys(GetLengthPrefixed(a), GetLengthPrefixed(b));
}

MemTable::MemTable(const MemTableOptions& options)
    : alloc_(MakeAllocator(options, &concurrent_arena_)),
      table_(KeyComparator(), alloc_.get()) {}

MemTable::~MemTable() = default;

void MemTable::EncodeEntry(char* buf, size_t encoded_len, SequenceNumber seq,
                           ValueType type, const Slice& key,
                           const Slice& value) {
  const size_t internal_key_size = key.size() + 8;
  char* p = buf;

  // internal key
  p = EncodeVarint32(p, static_cast<uint32_t>(internal_key_size));
  memcpy(p, key.data(), key.size());
  p += key.size();
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;

  // value
  p = EncodeVarint32(p, static_cast<uint32_t>(value.size()));
  memcpy(p, value.data(), value.size());
  p += value.size();

  assert(p == buf + encoded_len);
  (void)encoded_len;
}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value) {
  const size_t internal_key_size = key.size() + 8;
  const Slice stored_value = (type == ValueType::kDeletion) ? Slice() : value;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size +
                             VarintLength(stored_value.size()) +
                             stored_value.size();
  if (concurrent_arena_ != nullptr) {
    // Lock-free path: node and entry share one cache-line-aligned
    // allocation (the skiplist's inline-key layout), inserted with CAS
    // splices. Safe for any number of concurrent Adds.
    Table::InlineHandle handle = table_.AllocateInline(encoded_len);
    EncodeEntry(handle.buf, encoded_len, seq, type, key, stored_value);
    table_.InsertConcurrently(handle);
  } else {
    char* buf = alloc_->Allocate(encoded_len);
    EncodeEntry(buf, encoded_len, seq, type, key, stored_value);
    table_.Insert(buf);
  }
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

Status MemTable::Get(const LookupKey& lookup, std::string* value,
                     bool* found_entry, ValueType* type) const {
  *found_entry = false;
  // Build a seek key in the memtable's encoded format.
  std::string seek_key;
  PutVarint32(&seek_key,
              static_cast<uint32_t>(lookup.internal_key().size()));
  seek_key.append(lookup.internal_key().data(), lookup.internal_key().size());

  Table::Iterator iter(&table_);
  iter.Seek(seek_key.data());
  if (!iter.Valid()) return Status::NotFound();

  // The iterator is at the first entry >= lookup key. Because internal keys
  // order equal user keys newest-first, this is the newest visible version
  // iff the user keys match.
  const char* entry = iter.key();
  Slice internal_key = GetLengthPrefixed(entry);
  ParsedInternalKey parsed;
  if (!ParseInternalKey(internal_key, &parsed)) {
    return Status::Corruption("malformed memtable entry");
  }
  if (parsed.user_key.compare(lookup.user_key()) != 0) {
    return Status::NotFound();
  }

  *found_entry = true;
  if (type != nullptr) *type = parsed.type;
  if (parsed.type == ValueType::kDeletion) {
    return Status::NotFound("deleted");
  }
  const char* value_pos = internal_key.data() + internal_key.size();
  Slice v = GetLengthPrefixed(value_pos);
  value->assign(v.data(), v.size());
  return Status::OK();
}

namespace {

class MemTableIterator : public Iterator {
 public:
  explicit MemTableIterator(
      const SkipList<const char*, MemTable::KeyComparator>* table)
      : iter_(table) {}

  bool Valid() const override { return iter_.Valid(); }
  void SeekToFirst() override { iter_.SeekToFirst(); }
  void SeekToLast() override { iter_.SeekToLast(); }

  void Seek(const Slice& target) override {
    seek_buf_.clear();
    PutVarint32(&seek_buf_, static_cast<uint32_t>(target.size()));
    seek_buf_.append(target.data(), target.size());
    iter_.Seek(seek_buf_.data());
  }

  void Next() override { iter_.Next(); }
  void Prev() override { iter_.Prev(); }

  Slice key() const override { return GetLengthPrefixed(iter_.key()); }

  Slice value() const override {
    Slice k = GetLengthPrefixed(iter_.key());
    return GetLengthPrefixed(k.data() + k.size());
  }

  Status status() const override { return Status::OK(); }

 private:
  SkipList<const char*, MemTable::KeyComparator>::Iterator iter_;
  std::string seek_buf_;
};

}  // namespace

std::unique_ptr<Iterator> MemTable::NewIterator() const {
  return std::make_unique<MemTableIterator>(&table_);
}

}  // namespace monkeydb
