// MonkeyDb: convenience wiring from a tuning to a running DB.
//
// "Fixed Monkey" = the paper's default setup with only the filter
// allocation swapped to the optimal one; "Navigable Monkey" = the full
// system that first runs the tuner over (policy, T, memory split) and then
// opens the engine with that tuning (Sec. 5, Fig. 11(F)).

#ifndef MONKEYDB_MONKEY_MONKEY_DB_H_
#define MONKEYDB_MONKEY_MONKEY_DB_H_

#include <memory>
#include <string>

#include "lsm/db.h"
#include "monkey/fpr_allocator.h"
#include "monkey/tuner.h"

namespace monkeydb {
namespace monkey {

// Returns a shared Monkey FPR policy instance for DbOptions::fpr_policy.
std::shared_ptr<const FprAllocationPolicy> NewMonkeyFprPolicy();

// Applies a Tuning produced by the tuner onto engine options (merge policy,
// size ratio, buffer size, filter bits-per-entry, Monkey allocation).
void ApplyTuning(const Tuning& tuning, double num_entries,
                 DbOptions* options);

// One-call "Navigable Monkey": tunes for (env, workload) and opens a DB at
// `name` with the resulting options. base_options supplies env/cache;
// its design knobs are overwritten by the tuning.
Status OpenNavigableMonkey(const Environment& env, const Workload& workload,
                           const DbOptions& base_options,
                           const std::string& name, Tuning* chosen,
                           std::unique_ptr<DB>* db);

}  // namespace monkey
}  // namespace monkeydb

#endif  // MONKEYDB_MONKEY_MONKEY_DB_H_
