// Bloom filter tests: no false negatives (ever), empirical FPR tracking the
// Eq. 2 prediction across a parameterized bits-per-key sweep, and the
// FPR <-> bits math.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/bloom_math.h"
#include "util/hash.h"
#include "util/random.h"

namespace monkeydb {
namespace {

std::string Key(int i) { return "key_" + std::to_string(i); }

TEST(BloomMath, Equation2RoundTrip) {
  // FPR(bits_per_entry) and its inverse must compose to identity.
  for (double fpr : {0.5, 0.1, 0.01, 0.001, 1e-6}) {
    const double bpe = bloom::BitsPerEntryForFpr(fpr);
    EXPECT_NEAR(bloom::FalsePositiveRate(bpe), fpr, fpr * 1e-9);
  }
  EXPECT_DOUBLE_EQ(bloom::FalsePositiveRate(0.0), 1.0);
  EXPECT_DOUBLE_EQ(bloom::BitsPerEntryForFpr(1.0), 0.0);
}

TEST(BloomMath, TenBitsIsAboutOnePercent) {
  // The paper: "All implementations use 10 bits per entry ... the
  // corresponding false positive rate is ~1%".
  EXPECT_NEAR(bloom::FalsePositiveRate(10.0), 0.0082, 0.001);
}

TEST(BloomMath, OptimalProbes) {
  EXPECT_EQ(bloom::OptimalNumProbes(10.0), 7);  // 10·ln2 ≈ 6.93.
  EXPECT_EQ(bloom::OptimalNumProbes(1.0), 1);
  EXPECT_EQ(bloom::OptimalNumProbes(100.0), 30);  // Clamped.
}

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilterBuilder builder;
  const int n = 10000;
  for (int i = 0; i < n; i++) {
    const std::string key = Key(i);
    builder.AddKey(key);
  }
  const std::string filter = builder.Finish(8.0);
  for (int i = 0; i < n; i++) {
    const std::string key = Key(i);
    EXPECT_TRUE(BloomFilterReader::MayContain(filter, key)) << i;
  }
}

TEST(BloomFilter, EmptyFilterAlwaysPositive) {
  BloomFilterBuilder builder;
  for (int i = 0; i < 100; i++) {
    const std::string key = Key(i);
    builder.AddKey(key);
  }
  const std::string filter = builder.Finish(0.0);
  EXPECT_TRUE(filter.empty());
  EXPECT_TRUE(BloomFilterReader::MayContain(filter, "anything"));
  EXPECT_EQ(BloomFilterReader::SizeBits(filter), 0u);
}

TEST(BloomFilter, NoKeysProducesEmptyFilter) {
  BloomFilterBuilder builder;
  const std::string filter = builder.Finish(10.0);
  EXPECT_TRUE(BloomFilterReader::MayContain(filter, "x"));
}

TEST(BloomFilter, SizeMatchesBudget) {
  BloomFilterBuilder builder;
  const int n = 4096;
  for (int i = 0; i < n; i++) {
    const std::string key = Key(i);
    builder.AddKey(key);
  }
  const std::string filter = builder.Finish(10.0);
  const uint64_t bits = BloomFilterReader::SizeBits(filter);
  EXPECT_NEAR(static_cast<double>(bits), 10.0 * n, 8.0);  // Byte rounding.
}

// Parameterized sweep: the empirical FPR must track Eq. 2 within sampling
// noise across the bits-per-key range the paper explores (Fig. 11C).
class BloomFprSweep : public ::testing::TestWithParam<double> {};

TEST_P(BloomFprSweep, EmpiricalFprMatchesTheory) {
  const double bits_per_key = GetParam();
  BloomFilterBuilder builder;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    const std::string key = Key(i);
    builder.AddKey(key);
  }
  const std::string filter = builder.Finish(bits_per_key);

  int false_positives = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; i++) {
    const std::string key = Key(n + i);
    if (BloomFilterReader::MayContain(filter, key)) false_positives++;
  }
  const double empirical = static_cast<double>(false_positives) / probes;
  const double theoretical = bloom::FalsePositiveRate(bits_per_key);
  // Double hashing + integer k costs a little accuracy vs the ideal; allow
  // 40% relative + absolute sampling slack.
  EXPECT_LE(std::abs(empirical - theoretical),
            0.4 * theoretical + 0.004)
      << "bits/key=" << bits_per_key << " empirical=" << empirical
      << " theoretical=" << theoretical;
}

INSTANTIATE_TEST_SUITE_P(BitsPerKey, BloomFprSweep,
                         ::testing::Values(2.0, 4.0, 5.0, 8.0, 10.0, 14.0));

TEST(BloomFilter, FinishForFprHitsTarget) {
  for (double target : {0.5, 0.1, 0.01}) {
    BloomFilterBuilder builder;
    const int n = 20000;
    for (int i = 0; i < n; i++) {
      const std::string key = Key(i);
      builder.AddKey(key);
    }
    const std::string filter = builder.FinishForFpr(target);

    int fp = 0;
    const int probes = 20000;
    for (int i = 0; i < probes; i++) {
      const std::string key = Key(n + i);
      if (BloomFilterReader::MayContain(filter, key)) fp++;
    }
    const double empirical = static_cast<double>(fp) / probes;
    EXPECT_LE(std::abs(empirical - target), 0.4 * target + 0.004)
        << "target=" << target;
  }
}

TEST(BloomFilter, FprOneMeansNoFilter) {
  BloomFilterBuilder builder;
  for (int i = 0; i < 100; i++) {
    const std::string key = Key(i);
    builder.AddKey(key);
  }
  EXPECT_TRUE(builder.FinishForFpr(1.0).empty());
}

TEST(BloomFilter, TinyRunStillGetsFloorFilter) {
  BloomFilterBuilder builder;
  builder.AddKey("only_key");
  const std::string filter = builder.Finish(5.0);
  // 5 bits would be useless; the builder floors at 64 bits.
  EXPECT_GE(BloomFilterReader::SizeBits(filter), 64u);
  EXPECT_TRUE(BloomFilterReader::MayContain(filter, "only_key"));
  EXPECT_FALSE(BloomFilterReader::MayContain(filter, "other_key"));
}

// The textbook double-hashing filter the builder must match bit for bit:
// probe_i = (h1 + i·h2) mod bits, one 64-bit division per probe.
constexpr uint64_t kBloomSeed = 0xB10053ED;

std::string ReferenceFilter(const std::vector<std::string>& keys,
                            uint64_t bits, int k) {
  std::string array(bits / 8, '\0');
  for (const std::string& key : keys) {
    const uint64_t h = XxHash64(key, kBloomSeed);
    const uint32_t h1 = static_cast<uint32_t>(h);
    const uint32_t h2 = static_cast<uint32_t>(h >> 32) | 1;
    for (int i = 0; i < k; i++) {
      const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % bits;
      array[bit / 8] |= static_cast<char>(1 << (bit % 8));
    }
  }
  array.push_back(static_cast<char>(k));
  return array;
}

bool ReferenceMayContain(const std::string& filter, const std::string& key) {
  const uint64_t bits = (filter.size() - 1) * 8;
  const int k = static_cast<unsigned char>(filter.back());
  const uint64_t h = XxHash64(key, kBloomSeed);
  const uint32_t h1 = static_cast<uint32_t>(h);
  const uint32_t h2 = static_cast<uint32_t>(h >> 32) | 1;
  for (int i = 0; i < k; i++) {
    const uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % bits;
    if ((filter[bit / 8] & (1 << (bit % 8))) == 0) return false;
  }
  return true;
}

TEST(BloomFilter, BitIdenticalToTextbookDoubleHashing) {
  // Every probe count from 1 to the maximum, each over a bit array whose
  // size is not a power of two, plus FPR-sized filters as the engine
  // builds them. The bytes must equal the textbook construction, and
  // MayContain must agree with the textbook query on 100k probes.
  struct Case {
    int n;
    double bits_per_key;  // <= 0: size by fpr instead.
    double fpr;
  };
  std::vector<Case> cases;
  const int max_k = bloom::OptimalNumProbes(1e9);
  for (int k = 1; k <= max_k; k++) {
    cases.push_back({997 + 31 * k, k / bloom::kLn2, 0.0});
  }
  for (double fpr : {0.5, 0.2, 0.0316, 0.01, 1e-4}) {
    cases.push_back({4093, 0.0, fpr});
    cases.push_back({25013, 0.0, fpr});
  }

  const int probes_per_case = 100000 / static_cast<int>(cases.size()) + 1;
  int probes = 0;
  int seen_k_max = 0;
  for (const Case& c : cases) {
    std::vector<std::string> keys;
    BloomFilterBuilder builder;
    for (int i = 0; i < c.n; i++) {
      keys.push_back(Key(i));
      builder.AddKey(keys.back());
    }
    const std::string filter = c.bits_per_key > 0
                                   ? builder.Finish(c.bits_per_key)
                                   : builder.FinishForFpr(c.fpr);
    ASSERT_GE(filter.size(), 2u);
    const uint64_t bits = BloomFilterReader::SizeBits(filter);
    const int k = static_cast<unsigned char>(filter.back());
    ASSERT_NE(bits & (bits - 1), 0u) << "bits=" << bits << " is a power of 2";
    seen_k_max = std::max(seen_k_max, k);
    ASSERT_EQ(filter, ReferenceFilter(keys, bits, k))
        << "n=" << c.n << " k=" << k << " bits=" << bits;

    for (int i = 0; i < probes_per_case; i++, probes++) {
      const std::string key = Key(c.n + i * 7 - probes_per_case);
      ASSERT_EQ(BloomFilterReader::MayContain(filter, key),
                ReferenceMayContain(filter, key))
          << key << " n=" << c.n << " k=" << k;
    }
  }
  EXPECT_EQ(seen_k_max, max_k);
  EXPECT_GE(probes, 100000);
}

TEST(BloomFilter, BuilderResetsAfterFinish) {
  BloomFilterBuilder builder;
  builder.AddKey("a");
  builder.Finish(10.0);
  EXPECT_EQ(builder.num_keys(), 0u);
  builder.AddKey("b");
  const std::string filter = builder.Finish(10.0);
  EXPECT_TRUE(BloomFilterReader::MayContain(filter, "b"));
}

}  // namespace
}  // namespace monkeydb
