#include "lsm/version.h"

#include "util/coding.h"

namespace monkeydb {

int Version::DeepestNonEmptyLevel() const {
  for (int level = NumLevels(); level >= 1; level--) {
    if (!RunsAt(level).empty()) return level;
  }
  return 0;
}

uint64_t Version::EntriesAt(int level) const {
  uint64_t total = 0;
  for (const RunPtr& run : RunsAt(level)) total += run->num_entries;
  return total;
}

namespace {

// True when runs are key-disjoint and in key order, as the fragments of one
// range-partitioned merge are. No key's versions straddle two fragments,
// so neighbours never share a user key.
bool KeyDisjoint(const std::vector<RunPtr>& runs) {
  for (size_t i = 1; i < runs.size(); i++) {
    if (ExtractUserKey(Slice(runs[i - 1]->largest))
            .compare(ExtractUserKey(Slice(runs[i]->smallest))) >= 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t Version::LogicalRunsAt(int level, bool leveled) const {
  const std::vector<RunPtr>& runs = RunsAt(level);
  return leveled && !runs.empty() && KeyDisjoint(runs) ? 1 : runs.size();
}

uint64_t Version::TotalEntries() const {
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level) total += run->num_entries;
  }
  return total;
}

uint64_t Version::TotalRuns() const {
  uint64_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

uint64_t Version::TotalFilterBits() const {
  uint64_t total = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level) {
      if (run->table != nullptr) total += run->table->filter_size_bits();
    }
  }
  return total;
}

uint64_t ReadView::MemEntries() const {
  uint64_t total = mem != nullptr ? mem->num_entries() : 0;
  for (const auto& m : imm) total += m->num_entries();
  return total;
}

std::vector<const MemTable*> ReadView::MemTables() const {
  std::vector<const MemTable*> tables;
  tables.reserve(1 + imm.size());
  if (mem != nullptr) tables.push_back(mem.get());
  for (const auto& m : imm) tables.push_back(m.get());
  return tables;
}

// Edit record tags.
namespace {
constexpr uint32_t kTagAddedRun = 1;
constexpr uint32_t kTagDeletedFile = 2;
constexpr uint32_t kTagLastSequence = 3;
constexpr uint32_t kTagNextFileNumber = 4;
}  // namespace

void VersionEdit::EncodeTo(std::string* dst) const {
  for (const AddedRun& run : added) {
    PutVarint32(dst, kTagAddedRun);
    PutVarint32(dst, static_cast<uint32_t>(run.level));
    PutVarint64(dst, run.file_number);
    PutVarint64(dst, run.file_size);
    PutVarint64(dst, run.num_entries);
    PutVarint64(dst, run.sequence);
    PutLengthPrefixedSlice(dst, Slice(run.smallest));
    PutLengthPrefixedSlice(dst, Slice(run.largest));
  }
  for (uint64_t file_number : deleted_files) {
    PutVarint32(dst, kTagDeletedFile);
    PutVarint64(dst, file_number);
  }
  PutVarint32(dst, kTagLastSequence);
  PutVarint64(dst, last_sequence);
  PutVarint32(dst, kTagNextFileNumber);
  PutVarint64(dst, next_file_number);
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  added.clear();
  deleted_files.clear();
  Slice input = src;
  uint32_t tag;
  while (GetVarint32(&input, &tag)) {
    switch (tag) {
      case kTagAddedRun: {
        AddedRun run;
        uint32_t level;
        Slice smallest, largest;
        if (!GetVarint32(&input, &level) ||
            !GetVarint64(&input, &run.file_number) ||
            !GetVarint64(&input, &run.file_size) ||
            !GetVarint64(&input, &run.num_entries) ||
            !GetVarint64(&input, &run.sequence) ||
            !GetLengthPrefixedSlice(&input, &smallest) ||
            !GetLengthPrefixedSlice(&input, &largest)) {
          return Status::Corruption("bad AddedRun record");
        }
        run.level = static_cast<int>(level);
        run.smallest = smallest.ToString();
        run.largest = largest.ToString();
        added.push_back(std::move(run));
        break;
      }
      case kTagDeletedFile: {
        uint64_t file_number;
        if (!GetVarint64(&input, &file_number)) {
          return Status::Corruption("bad DeletedFile record");
        }
        deleted_files.push_back(file_number);
        break;
      }
      case kTagLastSequence:
        if (!GetVarint64(&input, &last_sequence)) {
          return Status::Corruption("bad LastSequence record");
        }
        break;
      case kTagNextFileNumber:
        if (!GetVarint64(&input, &next_file_number)) {
          return Status::Corruption("bad NextFileNumber record");
        }
        break;
      default:
        return Status::Corruption("unknown version edit tag");
    }
  }
  return Status::OK();
}

std::span<const RunPtr> RunsToProbe(const std::vector<RunPtr>& runs,
                                    bool leveled, const Slice& user_key) {
  if (!leveled || runs.size() < 2 || !KeyDisjoint(runs)) return runs;
  size_t i = 0;
  while (i + 1 < runs.size() &&
         ExtractUserKey(Slice(runs[i]->largest)).compare(user_key) < 0) {
    i++;
  }
  return {&runs[i], 1};
}

}  // namespace monkeydb
