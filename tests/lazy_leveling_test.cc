// Tests for the merge policies and the lazy-leveling extension (hybrid
// merge policy): every policy's engine fixpoint, lazy leveling's
// correctness against a reference model, and the generalized numeric FPR
// allocation that supports it.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <tuple>

#include "io/counting_env.h"
#include "io/env.h"
#include "lsm/db.h"
#include "monkey/cost_model.h"
#include "monkey/fpr_allocator.h"
#include "monkey/monkey_db.h"
#include "util/random.h"

namespace monkeydb {
namespace {

DbOptions LazyOptions(Env* env, double t = 4.0) {
  DbOptions options;
  options.env = env;
  options.merge_policy = MergePolicy::kLazyLeveling;
  options.size_ratio = t;
  options.buffer_size_bytes = 8 << 10;
  options.bits_per_entry = 5.0;
  options.fpr_policy = monkey::NewMonkeyFprPolicy();
  return options;
}

// Each policy's fixpoint, in synchronous and background compaction: once
// Flush() returns, every level satisfies the invariant its policy defines.
class PolicyFixpoint
    : public ::testing::TestWithParam<std::tuple<MergePolicy, bool>> {};

TEST_P(PolicyFixpoint, StructuralInvariant) {
  const auto [policy, background] = GetParam();
  auto env = NewMemEnv();
  DbOptions options = LazyOptions(env.get());
  options.merge_policy = policy;
  options.background_compaction = background;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  WriteOptions wo;
  Random rng(1);
  for (int i = 0; i < 30000; i++) {
    const std::string key = "k" + std::to_string(rng.Next());
    const std::string payload = std::string(32, 'v');
    ASSERT_TRUE(db->Put(wo, key, payload).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  const DbStats stats = db->GetStats();
  const uint64_t buffer_entries = db->CurrentShape().buffer_entries;
  ASSERT_GE(stats.deepest_level, 3);
  ASSERT_GT(buffer_entries, 0u);
  const uint64_t t = static_cast<uint64_t>(options.size_ratio);
  for (int level = 1; level <= stats.deepest_level; level++) {
    const uint64_t runs = stats.runs_per_level[level - 1];
    switch (policy) {
      case MergePolicy::kLeveling:
        // Level l holds at most B·P·T^l entries.
        EXPECT_LE(stats.entries_per_level[level - 1],
                  static_cast<uint64_t>(static_cast<double>(buffer_entries) *
                                        std::pow(options.size_ratio, level)))
            << "level " << level;
        break;
      case MergePolicy::kTiering:
        EXPECT_LT(runs, t) << "level " << level;
        break;
      case MergePolicy::kLazyLeveling:
        // Largest level: exactly one run. Shallower levels: < T runs each.
        if (level == stats.deepest_level) {
          EXPECT_EQ(runs, 1u) << "largest level must hold a single run";
        } else {
          EXPECT_LT(runs, t) << "level " << level;
        }
        break;
    }
  }
}

std::string FixpointName(
    const ::testing::TestParamInfo<PolicyFixpoint::ParamType>& info) {
  static const char* const kPolicies[] = {"Leveling", "Tiering",
                                          "LazyLeveling"};
  return std::string(kPolicies[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) ? "Background" : "Synchronous");
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyFixpoint,
    ::testing::Combine(::testing::Values(MergePolicy::kLeveling,
                                         MergePolicy::kTiering,
                                         MergePolicy::kLazyLeveling),
                       ::testing::Bool()),
    FixpointName);

// Writes one fresh key and flushes it as its own run.
void FlushOneKey(DB* db, int n) {
  const std::string key = "key" + std::to_string(n);
  ASSERT_TRUE(db->Put(WriteOptions(), key, "v").ok());
  ASSERT_TRUE(db->Flush().ok());
}

// Runs at `level` (1-based), 0 past the deepest level.
uint64_t RunsAt(const DbStats& stats, int level) {
  return static_cast<size_t>(level) <= stats.runs_per_level.size()
             ? stats.runs_per_level[level - 1]
             : 0;
}

// Under tiering a level merges into one run at l+1 when its T-th run
// arrives, and the merged run joins l+1's runs instead of absorbing them.
// With one run per flush, the runs per level count the flushes in base T.
TEST(MergePolicies, TieredRunsPerLevelAreTheBaseTDigitsOfTheFlushCount) {
  auto env = NewMemEnv();
  DbOptions options = LazyOptions(env.get(), 3.0);
  options.merge_policy = MergePolicy::kTiering;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int n = 1; n <= 30; n++) {
    FlushOneKey(db.get(), n);
    const DbStats stats = db->GetStats();
    int digits = n;
    for (int level = 1; level <= 4; level++, digits /= 3) {
      EXPECT_EQ(RunsAt(stats, level), static_cast<uint64_t>(digits % 3))
          << "after " << n << " flushes, level " << level;
    }
    EXPECT_EQ(stats.total_disk_entries, static_cast<uint64_t>(n));
  }
}

// Lazy leveling keeps its largest level at one run: runs that a tiered
// incarnation left there collapse in place at the next cascade, and the
// shallower levels are left alone.
TEST(LazyLeveling, ReopenOfTieredRunsCollapsesTheLargestLevel) {
  auto env = NewMemEnv();
  DbOptions options = LazyOptions(env.get(), 3.0);
  options.merge_policy = MergePolicy::kTiering;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  // 2·3² + 1 flushes: two runs at Level 3, one at Level 1.
  for (int n = 1; n <= 19; n++) FlushOneKey(db.get(), n);
  const DbStats tiered = db->GetStats();
  ASSERT_EQ(tiered.deepest_level, 3);
  ASSERT_EQ(RunsAt(tiered, 1), 1u);
  ASSERT_EQ(RunsAt(tiered, 3), 2u);
  db.reset();

  options.merge_policy = MergePolicy::kLazyLeveling;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  FlushOneKey(db.get(), 20);
  const DbStats lazy = db->GetStats();
  ASSERT_EQ(lazy.deepest_level, 3);
  EXPECT_EQ(RunsAt(lazy, 1), 2u);
  EXPECT_EQ(RunsAt(lazy, 2), 0u);
  EXPECT_EQ(RunsAt(lazy, 3), 1u);
  EXPECT_EQ(lazy.entries_per_level[2], 18u);
  EXPECT_EQ(lazy.merges, 1u);
  std::string value;
  for (int n = 1; n <= 20; n++) {
    const std::string key = "key" + std::to_string(n);
    EXPECT_TRUE(db->Get(ReadOptions(), key, &value).ok()) << key;
  }
}

TEST(LazyLeveling, RandomizedAgainstReferenceModel) {
  auto env = NewMemEnv();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(LazyOptions(env.get(), 3.0), "/db", &db).ok());
  std::map<std::string, std::optional<std::string>> model;
  Random rng(77);
  WriteOptions wo;
  ReadOptions ro;
  for (int op = 0; op < 6000; op++) {
    const std::string key = "key" + std::to_string(rng.Uniform(1200));
    if (rng.Bernoulli(0.75)) {
      const std::string value = "v" + std::to_string(op);
      ASSERT_TRUE(db->Put(wo, key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(db->Delete(wo, key).ok());
      model[key] = std::nullopt;
    }
  }
  for (const auto& [key, expected] : model) {
    std::string value;
    Status s = db->Get(ro, key, &value);
    if (expected.has_value()) {
      ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
      EXPECT_EQ(value, *expected);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key;
    }
  }
  // Recovery too.
  db.reset();
  ASSERT_TRUE(DB::Open(LazyOptions(env.get(), 3.0), "/db", &db).ok());
  std::string value;
  for (const auto& [key, expected] : model) {
    Status s = db->Get(ro, key, &value);
    EXPECT_EQ(s.ok(), expected.has_value()) << key;
  }
}

TEST(LazyLeveling, WritesCheaperThanLevelingLookupsCheaperThanTiering) {
  // The hybrid's raison d'etre: W close to tiering, R close to leveling.
  auto measure = [](MergePolicy policy) {
    auto base = NewMemEnv();
    IoStats stats;
    CountingEnv env(base.get(), &stats, 4096);
    DbOptions options;
    options.env = &env;
    options.merge_policy = policy;
    options.size_ratio = 4.0;
    options.buffer_size_bytes = 16 << 10;
    options.bits_per_entry = 5.0;
    options.expected_entries = 40000;
    options.fpr_policy = monkey::NewMonkeyFprPolicy();
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, "/db", &db).ok());
    WriteOptions wo;
    for (int i = 0; i < 40000; i++) {
      char key[24];
      snprintf(key, sizeof(key), "user%012d", i);
      const std::string payload = std::string(48, 'v');
      EXPECT_TRUE(db->Put(wo, key, payload).ok());
    }
    EXPECT_TRUE(db->Flush().ok());
    const double write_ios = static_cast<double>(
        stats.Snapshot().write_ios);

    ReadOptions ro;
    Random rng(5);
    std::string value;
    const auto before = stats.Snapshot();
    for (int i = 0; i < 3000; i++) {
      char key[28];
      snprintf(key, sizeof(key), "user%012llux",
               static_cast<unsigned long long>(rng.Uniform(40000)));
      db->Get(ro, key, &value).ok();
    }
    const double read_ios =
        static_cast<double>((stats.Snapshot() - before).read_ios) / 3000;
    return std::pair<double, double>(write_ios, read_ios);
  };

  const auto [lev_w, lev_r] = measure(MergePolicy::kLeveling);
  const auto [tier_w, tier_r] = measure(MergePolicy::kTiering);
  const auto [lazy_w, lazy_r] = measure(MergePolicy::kLazyLeveling);

  EXPECT_LT(lazy_w, lev_w) << "lazy leveling must write less than leveling";
  EXPECT_LE(lazy_r, tier_r + 0.02)
      << "lazy leveling lookups must not exceed tiering's";
}

// --- Generalized numeric allocation ---

TEST(GeometryAllocation, MatchesClosedFormForPureLeveling) {
  const double n = 1e7;
  const int levels = 5;
  const double t = 4.0;
  const double budget = 5.0 * n;
  const auto geometry =
      monkey::CapacityGeometry(MergePolicy::kLeveling, t, levels, n);
  const monkey::FprVector numeric =
      monkey::OptimalFprsForGeometry(geometry, budget);
  const monkey::FprVector closed = monkey::OptimalFprsForMemory(
      MergePolicy::kLeveling, t, levels, n, budget);
  // Same cost within a few percent (the closed form uses the infinite-
  // series approximation).
  const double numeric_r =
      monkey::LookupCostForGeometry(geometry, numeric);
  const double closed_r =
      monkey::LookupCostForFprs(MergePolicy::kLeveling, t, closed);
  EXPECT_NEAR(numeric_r, closed_r, closed_r * 0.10 + 1e-6);
  // FPRs geometric in the level capacities.
  for (int i = 0; i + 1 < levels; i++) {
    EXPECT_NEAR(numeric[i + 1] / numeric[i], t, t * 0.01);
  }
}

TEST(GeometryAllocation, SpendsTheBudget) {
  const double n = 1e6;
  for (MergePolicy policy :
       {MergePolicy::kLeveling, MergePolicy::kTiering,
        MergePolicy::kLazyLeveling}) {
    const auto geometry = monkey::CapacityGeometry(policy, 4.0, 5, n);
    const double budget = 6.0 * n;
    const auto fprs = monkey::OptimalFprsForGeometry(geometry, budget);
    double memory = 0;
    for (size_t i = 0; i < geometry.size(); i++) {
      memory += -geometry[i].entries * std::log(fprs[i]) /
                0.4804530139182014;
    }
    EXPECT_NEAR(memory, budget, budget * 0.01)
        << "policy " << static_cast<int>(policy);
  }
}

TEST(GeometryAllocation, ZeroBudgetMeansNoFilters) {
  const auto geometry =
      monkey::CapacityGeometry(MergePolicy::kLazyLeveling, 4.0, 4, 1e6);
  const auto fprs = monkey::OptimalFprsForGeometry(geometry, 0.0);
  for (double p : fprs) EXPECT_DOUBLE_EQ(p, 1.0);
}

// --- Lazy-leveling cost model ---

TEST(LazyLevelingModel, SitsBetweenLevelingAndTiering) {
  monkey::DesignPoint d;
  d.size_ratio = 6.0;
  d.num_entries = 1e8;
  d.entry_size_bits = 128 * 8;
  d.buffer_bits = 2.0 * (1 << 20) * 8;
  d.filter_bits = 8.0 * d.num_entries;
  d.entries_per_page = 32;

  monkey::DesignPoint lev = d, tier = d, lazy = d;
  lev.policy = MergePolicy::kLeveling;
  tier.policy = MergePolicy::kTiering;
  lazy.policy = MergePolicy::kLazyLeveling;

  // Updates: lazy between tiering (cheapest) and leveling.
  EXPECT_LT(monkey::UpdateCost(tier), monkey::UpdateCost(lazy));
  EXPECT_LT(monkey::UpdateCost(lazy), monkey::UpdateCost(lev));

  // Zero-result lookups with Monkey filters: lazy close to leveling, far
  // below tiering.
  const double r_lev = monkey::ZeroResultLookupCost(lev);
  const double r_tier = monkey::ZeroResultLookupCost(tier);
  const double r_lazy = monkey::ZeroResultLookupCost(lazy);
  EXPECT_LT(r_lazy, r_tier);
  EXPECT_LT(r_lazy, r_lev * 3.0);

  // Monkey dominates uniform for the hybrid too.
  EXPECT_LE(r_lazy, monkey::BaselineZeroResultLookupCost(lazy) + 1e-9);
}

TEST(LazyLevelingModel, DegeneratesAtOneLevel) {
  monkey::DesignPoint d;
  d.policy = MergePolicy::kLazyLeveling;
  d.size_ratio = 4.0;
  d.num_entries = 1000;
  d.entry_size_bits = 8;
  d.buffer_bits = 1e6;  // Everything fits in the buffer's first level.
  d.filter_bits = 5000;
  d.entries_per_page = 32;
  ASSERT_EQ(monkey::NumLevels(d), 1);
  // One level: identical to leveling.
  monkey::DesignPoint lev = d;
  lev.policy = MergePolicy::kLeveling;
  EXPECT_NEAR(monkey::UpdateCost(d), monkey::UpdateCost(lev), 1e-12);
  EXPECT_NEAR(monkey::MaxRuns(d), monkey::MaxRuns(lev), 1e-12);
}

}  // namespace
}  // namespace monkeydb
