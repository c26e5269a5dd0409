// Hash functions: a 64-bit xxHash64 implementation for Bloom filters and
// hash-partitioned caches, and CRC32C for on-disk integrity checks.

#ifndef MONKEYDB_UTIL_HASH_H_
#define MONKEYDB_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

#include "util/slice.h"

namespace monkeydb {

// xxHash64 over [data, data+len) with the given seed.
uint64_t XxHash64(const void* data, size_t len, uint64_t seed = 0);

inline uint64_t XxHash64(const Slice& s, uint64_t seed = 0) {
  return XxHash64(s.data(), s.size(), seed);
}

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) over [data,
// data+len). Dispatches once per process to the fastest available
// implementation: the SSE4.2 / ARMv8 CRC32C instructions when the CPU has
// them, else portable slicing-by-8. The hardware path runs three
// independent lanes per chunk (hiding the instruction's latency) and folds
// them with a precomputed shift table. All implementations are
// bit-identical — hardware CRC32C computes the same polynomial — so files
// written on one machine verify on any other.
//
// Crc32cExtend continues a checksum: Crc32cExtend(Crc32c(a), b) equals
// Crc32c(a‖b), so a record split across buffers is checksummed in place.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

inline uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

inline uint32_t Crc32c(const Slice& s) { return Crc32c(s.data(), s.size()); }

// The portable slicing-by-8 implementation, always available regardless of
// CPU. Exposed as the reference that tests check the dispatched path
// against, and so the micro bench can measure the dispatch speedup.
uint32_t Crc32cPortableExtend(uint32_t crc, const void* data, size_t len);

inline uint32_t Crc32cPortable(const void* data, size_t len) {
  return Crc32cPortableExtend(0, data, len);
}

// Name of the implementation Crc32c() dispatches to on this machine:
// "sse4.2", "armv8-crc", or "portable-slicing8".
const char* Crc32cImplName();

// Masks a CRC so that a CRC of data that itself embeds CRCs stays robust
// (same trick as LevelDB).
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace monkeydb

#endif  // MONKEYDB_UTIL_HASH_H_
