// MergingIterator: k-way merge over sorted child iterators, ordered by
// CompareInternalKeys. Ties (same internal key) cannot occur because
// sequence numbers are unique; for robustness, earlier children win.

#ifndef MONKEYDB_LSM_MERGING_ITERATOR_H_
#define MONKEYDB_LSM_MERGING_ITERATOR_H_

#include <memory>
#include <vector>

#include "lsm/internal_key.h"
#include "util/iterator.h"

namespace monkeydb {

// Takes ownership of the children.
std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children);

}  // namespace monkeydb

#endif  // MONKEYDB_LSM_MERGING_ITERATOR_H_
