// FprAllocationPolicy: decides the false positive rate of the Bloom filter
// built for a run at a given level.
//
// This is the seam where Monkey plugs into the engine: the baseline policy
// assigns the same bits-per-entry everywhere (like LevelDB/RocksDB); the
// Monkey policy (src/monkey/fpr_allocator.h) assigns exponentially smaller
// FPRs to shallower levels per Eqs. 5/6 of the paper.

#ifndef MONKEYDB_LSM_FPR_POLICY_H_
#define MONKEYDB_LSM_FPR_POLICY_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace monkeydb {

enum class MergePolicy {
  kLeveling,      // One run per level; eager merges (read-optimized).
  kTiering,       // Up to T-1 runs per level; lazy merges (write-optimized).
  // Extension (the paper's follow-up design, "lazy leveling"): tiering at
  // levels 1..L-1 and leveling at the largest level — cheap updates with
  // leveled lookup cost at the level that holds most of the data.
  kLazyLeveling,
};

// A snapshot of the tree geometry, passed to the policy so it can size
// filters for the *current* data volume.
struct LsmShape {
  uint64_t total_entries = 0;      // N: entries across all runs.
  uint64_t buffer_entries = 0;     // B·P: entries that fit in the buffer.
  double size_ratio = 2.0;         // T.
  int num_levels = 1;              // L (>= 1).
  MergePolicy merge_policy = MergePolicy::kLeveling;
  // Overall filter budget expressed as bits per entry (M_filters / N).
  double bits_per_entry_budget = 10.0;
};

class FprAllocationPolicy {
 public:
  virtual ~FprAllocationPolicy() = default;

  // False positive rate for a run at `level` (1-based; level L is the
  // largest). Must be in (0, 1].
  virtual double RunFpr(const LsmShape& shape, int level) const = 0;

  virtual const char* Name() const = 0;
};

// The state-of-the-art baseline: every filter gets the same bits-per-entry,
// hence the same FPR (Eq. 2 with the per-entry budget).
class UniformFprPolicy : public FprAllocationPolicy {
 public:
  double RunFpr(const LsmShape& shape, int level) const override;
  const char* Name() const override { return "uniform"; }
};

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_FPR_POLICY_H_
