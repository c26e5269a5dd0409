// Tests for Slice, Status, Arena, hashing, RNG, and the key order.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "lsm/internal_key.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace monkeydb {
namespace {

TEST(Slice, BasicOps) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);

  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");

  Slice t = s;
  t.remove_prefix(2);
  EXPECT_EQ(t.ToString(), "llo");
  EXPECT_EQ(s.ToString(), "hello");  // Unaffected.

  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("hello!"));
}

TEST(Slice, CompareOrdering) {
  EXPECT_LT(Slice("a").compare("b"), 0);
  EXPECT_GT(Slice("b").compare("a"), 0);
  EXPECT_EQ(Slice("abc").compare("abc"), 0);
  // Prefix sorts before its extension.
  EXPECT_LT(Slice("ab").compare("abc"), 0);
  // Bytewise: 0xFF sorts after everything printable.
  EXPECT_GT(Slice("\xff").compare("z"), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");

  Status nf = Status::NotFound("missing key");
  EXPECT_TRUE(nf.IsNotFound());
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ(nf.ToString(), "NotFound: missing key");

  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IoError("x").IsIoError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
}

TEST(Arena, AllocateAndUsage) {
  Arena arena;
  EXPECT_EQ(arena.MemoryUsage(), 0u);
  char* small = arena.Allocate(10);
  memset(small, 0xAB, 10);
  EXPECT_GT(arena.MemoryUsage(), 0u);

  // Large allocations get dedicated blocks.
  char* big = arena.Allocate(64 << 10);
  memset(big, 0xCD, 64 << 10);
  EXPECT_GE(arena.MemoryUsage(), (64u << 10));
  // The small allocation still holds its bytes.
  EXPECT_EQ(static_cast<unsigned char>(small[9]), 0xAB);
}

TEST(Arena, AlignedAllocationIsAligned) {
  Arena arena;
  for (int i = 0; i < 100; i++) {
    arena.Allocate(1 + (i % 7));  // Misalign the bump pointer.
    char* p = arena.AllocateAligned(24);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
  }
}

TEST(Arena, ExplicitBlockSizeIsHonored) {
  // A custom block size changes the mapping granularity but not the
  // handed-out accounting: one small allocation from a 64 KiB-block arena
  // still reports only what the caller consumed (plus block overhead),
  // and a second small allocation reuses the same block.
  Arena arena(64 << 10);
  char* a = arena.Allocate(100);
  memset(a, 0x11, 100);
  const size_t after_first = arena.MemoryUsage();
  EXPECT_GE(after_first, (64u << 10));  // One block mapped.
  char* b = arena.Allocate(100);
  memset(b, 0x22, 100);
  EXPECT_EQ(arena.MemoryUsage(), after_first);  // Same block reused.
}

TEST(Arena, CacheLineAlignedAllocation) {
  Arena arena;
  for (int i = 0; i < 100; i++) {
    arena.Allocate(1 + (i % 7));  // Misalign the bump pointer.
    char* p = arena.AllocateAligned(24, Allocator::kCacheLineSize);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Allocator::kCacheLineSize,
              0u);
  }
}

TEST(Hash, XxHashDeterministicAndSeeded) {
  const uint64_t h1 = XxHash64("monkey", 6);
  EXPECT_EQ(h1, XxHash64("monkey", 6));
  EXPECT_NE(h1, XxHash64("monkey", 6, /*seed=*/1));
  EXPECT_NE(h1, XxHash64("monkez", 6));
  // Long input exercising the 32-byte stripe loop.
  std::string long_input(1000, 'a');
  long_input[500] = 'b';
  std::string long_input2 = long_input;
  long_input2[500] = 'c';
  EXPECT_NE(XxHash64(long_input.data(), long_input.size()),
            XxHash64(long_input2.data(), long_input2.size()));
}

TEST(Hash, XxHashAvalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  const uint64_t a = XxHash64("abcdefgh", 8);
  const uint64_t b = XxHash64("abcdefgi", 8);
  const int flipped = __builtin_popcountll(a ^ b);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(Hash, Crc32cKnownVector) {
  // Standard CRC32C test vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32cPortable("123456789", 9), 0xE3069283u);
}

TEST(Hash, Crc32cDispatchMatchesPortable) {
  // The dispatched implementation (possibly hardware CRC32C) must be
  // bit-identical to the portable one at every length and alignment —
  // on-disk checksums written by one must verify under the other. Lengths
  // run to three pages so every lane configuration of the hardware path
  // (long chunks, short chunks, single-lane tail) is crossed.
  constexpr size_t kMaxLen = 12288;
  Random rng(17);
  std::string data;
  for (size_t i = 0; i < kMaxLen + 8; i++) {
    data.push_back(static_cast<char>(rng.Uniform(256)));
  }
  for (size_t off : {0u, 1u, 5u}) {
    for (size_t len = 0; len <= kMaxLen; len++) {
      ASSERT_EQ(Crc32c(data.data() + off, len),
                Crc32cPortable(data.data() + off, len))
          << "len=" << len << " off=" << off
          << " impl=" << Crc32cImplName();
    }
  }
}

TEST(Hash, Crc32cExtendConcatenates) {
  // Crc32cExtend(Crc32c(a), b) == Crc32c(a‖b), for the dispatched and the
  // portable implementation, at split points inside and across lanes.
  Random rng(29);
  std::string data;
  for (int i = 0; i < 9000; i++) {
    data.push_back(static_cast<char>(rng.Uniform(256)));
  }
  const uint32_t whole = Crc32cPortable(data.data(), data.size());
  for (size_t split : {0u, 1u, 7u, 8u, 383u, 384u, 1000u, 3072u, 4091u,
                       4096u, 8999u, 9000u}) {
    const char* b = data.data() + split;
    const size_t b_len = data.size() - split;
    EXPECT_EQ(Crc32cExtend(Crc32c(data.data(), split), b, b_len), whole)
        << "split=" << split << " impl=" << Crc32cImplName();
    EXPECT_EQ(
        Crc32cPortableExtend(Crc32cPortable(data.data(), split), b, b_len),
        whole)
        << "split=" << split;
  }
  EXPECT_EQ(Crc32cExtend(Crc32c("1234", 4), "56789", 5), 0xE3069283u);
}

TEST(Hash, CrcMaskRoundTrip) {
  const uint32_t crc = Crc32c("some data", 9);
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

TEST(Random, DeterministicForSeed) {
  Random a(123), b(123), c(124);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Random a2(123);
  for (int i = 0; i < 100; i++) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Random, UniformCoversRange) {
  Random rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Uniform(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // All buckets hit in 1000 draws.
}

TEST(Random, NextDoubleInUnitInterval) {
  Random rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

// Temporal locality (paper Sec. 5): c of the most recent entries receive
// (1-c) of the lookups.
TEST(Random, TemporalLocalitySkew) {
  Random rng(77);
  const uint64_t n = 1000;
  const double c = 0.1;  // 10% most-recent entries get 90% of lookups.
  TemporalLocalityGenerator gen(c, n);
  uint64_t hot_hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; i++) {
    if (gen.NextRank(&rng) < static_cast<uint64_t>(c * n)) hot_hits++;
  }
  EXPECT_NEAR(static_cast<double>(hot_hits) / trials, 1.0 - c, 0.02);
}

TEST(Random, TemporalLocalityUniformAtHalf) {
  Random rng(78);
  const uint64_t n = 10;
  TemporalLocalityGenerator gen(0.5, n);
  std::map<uint64_t, int> counts;
  const int trials = 50000;
  for (int i = 0; i < trials; i++) counts[gen.NextRank(&rng)]++;
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count) / trials, 0.1, 0.02) << rank;
  }
}

int Sign(int v) { return (v > 0) - (v < 0); }

// The compiled-in key order against a reference: std::string_view::compare
// (unsigned bytewise) for user keys, then tag descending. Keys are 0-40
// bytes. Most pairs share a prefix of 7, 8, 9, 15, 16 or 17 bytes, so the
// first difference lands on either side of Slice::compare's 8-byte word
// boundaries and in its leftover bytes; every byte is 0x00, 0x7F, 0x80 or
// 0xFF, so signed and unsigned byte order disagree. An eighth of the pairs
// repeat the user key under a different tag.
TEST(KeyOrder, InlineCompareMatchesReference) {
  Random rng(1017);
  const char kBytes[] = {'\x00', '\x7f', '\x80', '\xff'};
  const size_t kShared[] = {0, 7, 8, 9, 15, 16, 17};
  constexpr size_t kMaxLen = 40;
  auto append_random = [&](std::string* key, size_t n) {
    for (size_t j = 0; j < n; j++) *key += kBytes[rng.Uniform(4)];
  };
  for (int i = 0; i < 100000; i++) {
    std::string a;
    append_random(&a, kShared[rng.Uniform(7)]);
    std::string b = a;
    append_random(&a, rng.Uniform(kMaxLen - a.size() + 1));
    if (rng.Uniform(8) == 0) {
      b = a;
    } else {
      append_random(&b, rng.Uniform(kMaxLen - b.size() + 1));
    }
    const int want_user = Sign(std::string_view(a).compare(b));
    ASSERT_EQ(Sign(Slice(a).compare(Slice(b))), want_user) << "pair " << i;

    const uint64_t seq_a = rng.Uniform(1000);
    const uint64_t seq_b = rng.Uniform(1000);
    const auto type_a = static_cast<ValueType>(rng.Uniform(3));
    const auto type_b = static_cast<ValueType>(rng.Uniform(3));
    std::string ia, ib;
    AppendInternalKey(&ia, a, seq_a, type_a);
    AppendInternalKey(&ib, b, seq_b, type_b);
    const uint64_t tag_a = PackSequenceAndType(seq_a, type_a);
    const uint64_t tag_b = PackSequenceAndType(seq_b, type_b);
    const int want =
        want_user != 0 ? want_user : (tag_a < tag_b) - (tag_a > tag_b);
    ASSERT_EQ(Sign(CompareInternalKeys(ia, ib)), want) << "pair " << i;
  }
}

}  // namespace
}  // namespace monkeydb
