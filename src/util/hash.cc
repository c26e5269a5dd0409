#include "util/hash.h"

#include <cstring>

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#endif

namespace monkeydb {

namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

inline uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl64(acc, 31);
  acc *= kPrime1;
  return acc;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  val = Round(0, val);
  acc ^= val;
  acc = acc * kPrime1 + kPrime4;
  return acc;
}

}  // namespace

uint64_t XxHash64(const void* data, size_t len, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* end = p + len;
  uint64_t h;

  if (len >= 32) {
    const unsigned char* limit = end - 32;
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed + 0;
    uint64_t v4 = seed - kPrime1;
    do {
      v1 = Round(v1, Read64(p));
      p += 8;
      v2 = Round(v2, Read64(p));
      p += 8;
      v3 = Round(v3, Read64(p));
      p += 8;
      v4 = Round(v4, Read64(p));
      p += 8;
    } while (p <= limit);

    h = Rotl64(v1, 1) + Rotl64(v2, 7) + Rotl64(v3, 12) + Rotl64(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<uint64_t>(len);

  while (p + 8 <= end) {
    h ^= Round(0, Read64(p));
    h = Rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(Read32(p)) * kPrime1;
    h = Rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= (*p) * kPrime5;
    h = Rotl64(h, 11) * kPrime1;
    p++;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

// --- CRC32C ----------------------------------------------------------------
//
// One runtime dispatch per process: Crc32cExtend() resolves to the
// hardware CRC32C instructions (SSE4.2 crc32q / ARMv8 crc32cx) when the CPU
// supports them and to portable slicing-by-8 otherwise. The hardware
// instructions implement the same reflected Castagnoli polynomial, so
// every implementation here is bit-identical on all inputs (checked by
// util_test and the micro bench).
//
// Each implementation takes and returns a finished CRC (the register
// inverted on the way in and out), so a finished CRC can be extended and
// the dispatched call is a tail call.

namespace {

constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

// An entry of the classic byte-at-a-time table: the register with low
// byte b, advanced through that byte's eight bits.
constexpr uint32_t Crc32cByteStep(uint32_t b) {
  for (int j = 0; j < 8; j++) {
    b = (b >> 1) ^ ((b & 1) ? kCrc32cPoly : 0);
  }
  return b;
}

// Lazily built slicing-by-8 tables: t[0] is the byte table; t[k][b]
// advances byte b through k additional zero bytes, letting the loop fold
// 8 input bytes per iteration with 8 independent loads.
struct Crc32cTables {
  uint32_t t[8][256];
  Crc32cTables() {
    for (uint32_t i = 0; i < 256; i++) t[0][i] = Crc32cByteStep(i);
    for (int k = 1; k < 8; k++) {
      for (uint32_t i = 0; i < 256; i++) {
        t[k][i] = t[0][t[k - 1][i] & 0xFF] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};

uint32_t Crc32cSlicing8(uint32_t crc, const unsigned char* p, size_t len) {
  static const Crc32cTables tables;
  const auto* t = tables.t;
  while (len >= 8) {
    uint64_t chunk;
    memcpy(&chunk, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    chunk ^= crc;
    crc = t[7][chunk & 0xFF] ^ t[6][(chunk >> 8) & 0xFF] ^
          t[5][(chunk >> 16) & 0xFF] ^ t[4][(chunk >> 24) & 0xFF] ^
          t[3][(chunk >> 32) & 0xFF] ^ t[2][(chunk >> 40) & 0xFF] ^
          t[1][(chunk >> 48) & 0xFF] ^ t[0][(chunk >> 56) & 0xFF];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MONKEYDB_CRC32C_HW 1
#define MONKEYDB_CRC32C_TARGET __attribute__((target("sse4.2")))

// The register is carried as 64 bits: crc32q reads and writes the full
// register, and narrowing it every step would put a move on the chain.
MONKEYDB_CRC32C_TARGET inline uint64_t Crc32cHw8(uint64_t crc,
                                                 const unsigned char* p) {
  uint64_t chunk;
  memcpy(&chunk, p, 8);
  return __builtin_ia32_crc32di(crc, chunk);
}

MONKEYDB_CRC32C_TARGET inline uint64_t Crc32cHw1(uint64_t crc,
                                                 unsigned char b) {
  return __builtin_ia32_crc32qi(static_cast<uint32_t>(crc), b);
}

bool Crc32cHardwareSupported() { return __builtin_cpu_supports("sse4.2"); }
const char* kCrc32cHardwareName = "sse4.2";

#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define MONKEYDB_CRC32C_HW 1
#define MONKEYDB_CRC32C_TARGET __attribute__((target("+crc")))

MONKEYDB_CRC32C_TARGET inline uint64_t Crc32cHw8(uint64_t crc,
                                                 const unsigned char* p) {
  uint64_t chunk;
  memcpy(&chunk, p, 8);
  return __builtin_aarch64_crc32cx(static_cast<uint32_t>(crc), chunk);
}

MONKEYDB_CRC32C_TARGET inline uint64_t Crc32cHw1(uint64_t crc,
                                                 unsigned char b) {
  return __builtin_aarch64_crc32cb(static_cast<uint32_t>(crc), b);
}

bool Crc32cHardwareSupported() {
#if defined(__linux__)
  // HWCAP_CRC32 == (1 << 7) on aarch64 Linux.
  return (getauxval(AT_HWCAP) & (1ul << 7)) != 0;
#else
  return false;
#endif
}
const char* kCrc32cHardwareName = "armv8-crc";

#endif

#if defined(MONKEYDB_CRC32C_HW)

// Three-lane interleaving. One CRC instruction has a latency of about three
// cycles but issues every cycle, so a single dependency chain runs at a
// third of the unit's throughput. A chunk of 3·L bytes is therefore split
// into three lanes of L bytes, each checksummed from its own register in
// the same loop; the lane results are then folded together. The register
// is linear over GF(2) in (state, data), so
//   crc(s, A‖B) = shift_L(crc(s, A)) ^ crc(0, B)     with |B| = L,
// where shift_L advances a state through L zero bytes. shift_L is itself
// linear, so a 4×256 table turns it into four lookups. One lane length
// serves every buffer: with 256-byte lanes, under 768 bytes of any buffer
// are left for the single-lane tail, so a page payload gets the lanes
// whatever its fill.
constexpr size_t kLane = 256;

struct Crc32cShiftTable {
  uint32_t t[4][256];

  // Built at compile time, so the first checksum pays no set-up.
  constexpr Crc32cShiftTable() : t{} {
    uint32_t zero_step[256] = {};
    for (uint32_t i = 0; i < 256; i++) zero_step[i] = Crc32cByteStep(i);
    uint32_t basis[32] = {};  // shift_L of each single-bit state.
    for (int bit = 0; bit < 32; bit++) {
      uint32_t crc = 1u << bit;
      for (size_t i = 0; i < kLane; i++) {
        crc = zero_step[crc & 0xFF] ^ (crc >> 8);
      }
      basis[bit] = crc;
    }
    // t[byte][v] is the XOR of the basis vectors of v's set bits; peel off
    // the lowest one to reuse the entry already built for the rest.
    for (int byte = 0; byte < 4; byte++) {
      for (uint32_t v = 1; v < 256; v++) {
        int low = 0;
        while (((v >> low) & 1) == 0) low++;
        t[byte][v] = t[byte][v & (v - 1)] ^ basis[8 * byte + low];
      }
    }
  }

  uint64_t Shift(uint64_t crc) const {
    return t[0][crc & 0xFF] ^ t[1][(crc >> 8) & 0xFF] ^
           t[2][(crc >> 16) & 0xFF] ^ t[3][(crc >> 24) & 0xFF];
  }
};

constexpr Crc32cShiftTable kLaneShift;

// One lane, 8 bytes per step, then the byte tail.
MONKEYDB_CRC32C_TARGET inline uint64_t Crc32cOneLane(uint64_t crc,
                                                     const unsigned char* p,
                                                     size_t len) {
  while (len >= 8) {
    crc = Crc32cHw8(crc, p);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = Crc32cHw1(crc, *p++);
  }
  return crc;
}

// Folds every whole chunk of three lanes into crc, then the rest on one
// lane. Kept out of line so short inputs, which never reach it, pay
// nothing for the lane loop's register pressure.
MONKEYDB_CRC32C_TARGET __attribute__((noinline)) uint64_t Crc32cLanes(
    uint64_t crc, const unsigned char* p, size_t len) {
  while (len >= 3 * kLane) {
    uint64_t ca = crc, cb = 0, cc = 0;
    for (size_t i = 0; i < kLane; i += 8) {
      ca = Crc32cHw8(ca, p + i);
      cb = Crc32cHw8(cb, p + kLane + i);
      cc = Crc32cHw8(cc, p + 2 * kLane + i);
    }
    crc = kLaneShift.Shift(kLaneShift.Shift(ca) ^ cb) ^ cc;
    p += 3 * kLane;
    len -= 3 * kLane;
  }
  return Crc32cOneLane(crc, p, len);
}

MONKEYDB_CRC32C_TARGET uint32_t Crc32cHardwareImpl(uint32_t crc,
                                                   const void* data,
                                                   size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const uint64_t reg = ~crc;
  return ~static_cast<uint32_t>(len >= 3 * kLane
                                    ? Crc32cLanes(reg, p, len)
                                    : Crc32cOneLane(reg, p, len));
}

#endif  // MONKEYDB_CRC32C_HW

using Crc32cFn = uint32_t (*)(uint32_t, const void*, size_t);

struct Crc32cDispatch {
  Crc32cFn fn;
  const char* name;
};

Crc32cDispatch ResolveCrc32c() {
#if defined(MONKEYDB_CRC32C_HW)
  if (Crc32cHardwareSupported()) {
    return {&Crc32cHardwareImpl, kCrc32cHardwareName};
  }
#endif
  return {&Crc32cPortableExtend, "portable-slicing8"};
}

const Crc32cDispatch& GetCrc32cDispatch() {
  static const Crc32cDispatch dispatch = ResolveCrc32c();
  return dispatch;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return GetCrc32cDispatch().fn(crc, data, len);
}

uint32_t Crc32cPortableExtend(uint32_t crc, const void* data, size_t len) {
  return ~Crc32cSlicing8(~crc, static_cast<const unsigned char*>(data), len);
}

const char* Crc32cImplName() { return GetCrc32cDispatch().name; }

}  // namespace monkeydb
