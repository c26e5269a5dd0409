// BloomFilter: a standard bit-array Bloom filter with double hashing,
// serializable into SSTable filter blocks.
//
// Monkey's contribution is *how many bits* each run's filter gets, so the
// filter itself is deliberately the textbook structure the paper assumes:
// optimal k = (bits/n)·ln 2 hash functions over a flat bit array, giving
// FPR = e^{-(bits/n)·ln(2)^2} (Eq. 2).
//
// Serialized format:
//   [bit array bytes][num_probes: 1 byte]
// An empty serialization (0 bytes) represents the "no filter" case (FPR = 1,
// MayContain always true) used for Monkey's unfiltered deep levels.

#ifndef MONKEYDB_BLOOM_BLOOM_FILTER_H_
#define MONKEYDB_BLOOM_BLOOM_FILTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"

namespace monkeydb {

class BloomFilterBuilder {
 public:
  BloomFilterBuilder() = default;

  // Registers a key to be included when the filter is built.
  void AddKey(const Slice& key);

  size_t num_keys() const { return hashes_.size(); }

  // Sizes the hash buffer (8 bytes per key) for up to n keys in one
  // allocation, so adding them never regrows it.
  void Reserve(size_t n) { hashes_.reserve(n); }

  // The hash buffer's storage, for tests of its allocation behaviour.
  const uint64_t* hash_data() const { return hashes_.data(); }
  size_t hash_capacity() const { return hashes_.capacity(); }

  // Builds a filter sized for the given bits-per-key budget (fractional
  // budgets are honoured by rounding the *total* size, so e.g. 0.5 bits/key
  // over 1M keys still yields a useful filter). A budget <= 0 produces the
  // empty (always-positive) filter. Resets the builder and releases its
  // hash buffer.
  std::string Finish(double bits_per_key);

  // Builds a filter that targets the given false positive rate (Eq. 2
  // inverted). fpr >= 1 produces the empty filter.
  std::string FinishForFpr(double fpr);

  void Reset() { hashes_.clear(); }

 private:
  std::string BuildFromHashes(double total_bits);

  std::vector<uint64_t> hashes_;
};

// Stateless queries against a serialized filter.
class BloomFilterReader {
 public:
  // Returns false only if the key is definitely absent.
  static bool MayContain(const Slice& filter, const Slice& key);

  // Size in bits of the filter's bit array (0 for the empty filter).
  static uint64_t SizeBits(const Slice& filter);
};

}  // namespace monkeydb

#endif  // MONKEYDB_BLOOM_BLOOM_FILTER_H_
