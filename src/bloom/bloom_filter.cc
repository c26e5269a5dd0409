#include "bloom/bloom_filter.h"

#include <cmath>

#include "bloom/bloom_math.h"
#include "util/hash.h"

namespace monkeydb {

namespace {

// Double hashing (Kirsch-Mitzenmacher): probe_i = (h1 + i·h2) mod bits.
// One 64-bit hash split into two 32-bit halves gives independent-enough
// h1/h2. The probes step by modular addition — reduce h1 and h2 once, then
// add and wrap — which yields exactly the bits of the textbook formula
// (both addends are below `bits`, so one subtraction wraps) without a
// 64-bit division per probe.
struct ProbeSequence {
  uint64_t bits;
  uint64_t bit;
  uint64_t step;

  ProbeSequence(uint64_t h, uint64_t num_bits)
      : bits(num_bits),
        bit(static_cast<uint32_t>(h) % num_bits),
        step((static_cast<uint32_t>(h >> 32) | 1) % num_bits) {}  // h2 odd.

  void Next() {
    bit += step;
    if (bit >= bits) bit -= bits;
  }
};

}  // namespace

void BloomFilterBuilder::AddKey(const Slice& key) {
  hashes_.push_back(XxHash64(key, /*seed=*/0xB10053ED));
}

std::string BloomFilterBuilder::Finish(double bits_per_key) {
  const double total_bits = bits_per_key * static_cast<double>(hashes_.size());
  return BuildFromHashes(total_bits);
}

std::string BloomFilterBuilder::FinishForFpr(double fpr) {
  const double total_bits =
      bloom::BitsForFpr(fpr, static_cast<double>(hashes_.size()));
  return BuildFromHashes(total_bits);
}

std::string BloomFilterBuilder::BuildFromHashes(double total_bits) {
  std::string result;
  // The hashes are dead once the bits are set: hand the buffer back rather
  // than keep its capacity alive for the builder's lifetime.
  std::vector<uint64_t> hashes;
  hashes.swap(hashes_);
  if (total_bits < 1.0 || hashes.empty()) {
    return result;  // Empty filter: MayContain always true.
  }

  uint64_t bits = static_cast<uint64_t>(std::llround(total_bits));
  if (bits < 64) bits = 64;  // Floor so tiny runs still filter something.
  const uint64_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  const double bits_per_entry =
      static_cast<double>(bits) / static_cast<double>(hashes.size());
  const int k = bloom::OptimalNumProbes(bits_per_entry);

  result.resize(bytes, 0);
  char* array = result.data();
  for (uint64_t h : hashes) {
    ProbeSequence probe(h, bits);
    for (int i = 0; i < k; i++, probe.Next()) {
      array[probe.bit / 8] |= static_cast<char>(1 << (probe.bit % 8));
    }
  }
  result.push_back(static_cast<char>(k));
  return result;
}

bool BloomFilterReader::MayContain(const Slice& filter, const Slice& key) {
  if (filter.size() < 2) return true;  // Empty / degenerate filter.
  const size_t array_bytes = filter.size() - 1;
  const int k = static_cast<unsigned char>(filter[filter.size() - 1]);
  if (k > 30) return true;  // Reserved encodings: treat as always-positive.
  const uint64_t bits = array_bytes * 8;

  ProbeSequence probe(XxHash64(key, /*seed=*/0xB10053ED), bits);
  const char* array = filter.data();
  for (int i = 0; i < k; i++, probe.Next()) {
    if ((array[probe.bit / 8] & (1 << (probe.bit % 8))) == 0) return false;
  }
  return true;
}

uint64_t BloomFilterReader::SizeBits(const Slice& filter) {
  if (filter.size() < 2) return 0;
  return (filter.size() - 1) * 8;
}

}  // namespace monkeydb
