// monkeydb_dump: offline inspection of a MonkeyDB database directory —
// manifest edits, SSTable contents/filters, value-log segments, and the
// tree summary. Useful for debugging and for verifying the on-disk format
// documented in docs/FORMAT.md.
//
// Usage:
//   monkeydb_dump <db_path>                 # summary + manifest
//   monkeydb_dump <db_path> sst <N>         # dump table N's entries
//   monkeydb_dump <db_path> tree            # open the DB, print DebugString

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "io/env.h"
#include "lsm/db.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "sstable/table_reader.h"

using namespace monkeydb;

namespace {

int DumpManifest(Env* env, const std::string& path) {
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(path + "/MANIFEST", &file);
  if (!s.ok()) {
    fprintf(stderr, "no manifest: %s\n", s.ToString().c_str());
    return 1;
  }
  WalReader reader(std::move(file));
  std::string scratch;
  Slice record;
  int edit_index = 0;
  while (reader.ReadRecord(&scratch, &record)) {
    VersionEdit edit;
    if (!edit.DecodeFrom(record).ok()) {
      printf("edit %d: <corrupt>\n", edit_index++);
      continue;
    }
    printf("edit %d: last_seq=%llu next_file=%llu\n", edit_index++,
           static_cast<unsigned long long>(edit.last_sequence),
           static_cast<unsigned long long>(edit.next_file_number));
    for (const auto& run : edit.added) {
      printf("  + level %d file %06llu (%llu entries, %llu bytes)\n",
             run.level, static_cast<unsigned long long>(run.file_number),
             static_cast<unsigned long long>(run.num_entries),
             static_cast<unsigned long long>(run.file_size));
    }
    for (uint64_t fn : edit.deleted_files) {
      printf("  - file %06llu\n", static_cast<unsigned long long>(fn));
    }
  }
  return 0;
}

int DumpTable(Env* env, const std::string& path, uint64_t number) {
  char fname[32];
  snprintf(fname, sizeof(fname), "/%06llu.sst",
           static_cast<unsigned long long>(number));
  const std::string full = path + fname;
  uint64_t size;
  Status s = env->GetFileSize(full, &size);
  if (!s.ok()) {
    fprintf(stderr, "%s: %s\n", full.c_str(), s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<RandomAccessFile> file;
  if (!env->NewRandomAccessFile(full, &file).ok()) return 1;

  TableReaderOptions opts;
  std::unique_ptr<TableReader> table;
  s = TableReader::Open(opts, std::move(file), size, &table);
  if (!s.ok()) {
    fprintf(stderr, "open table: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("table %06llu: %llu data blocks, filter %llu bits\n",
         static_cast<unsigned long long>(number),
         static_cast<unsigned long long>(table->num_data_blocks()),
         static_cast<unsigned long long>(table->filter_size_bits()));
  auto iter = table->NewIterator();
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), count++) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) continue;
    const char* kind = parsed.type == ValueType::kDeletion ? "DEL"
                       : parsed.type == ValueType::kValueHandle ? "HDL"
                                                                : "VAL";
    if (count < 50) {
      printf("  %s seq=%llu %s -> %zu bytes\n", kind,
             static_cast<unsigned long long>(parsed.sequence),
             parsed.user_key.ToString().c_str(), iter->value().size());
    }
  }
  if (count >= 50) printf("  ... (%d entries total)\n", count);
  return iter->status().ok() ? 0 : 1;
}

int DumpTree(const std::string& path) {
  DbOptions options;
  options.env = GetPosixEnv();
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, path, &db);
  if (!s.ok()) {
    fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  printf("%s", db->DebugString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    fprintf(stderr,
            "usage: %s <db_path> [sst <number> | tree]\n", argv[0]);
    return 1;
  }
  const std::string path = argv[1];
  Env* env = GetPosixEnv();

  if (argc >= 4 && strcmp(argv[2], "sst") == 0) {
    return DumpTable(env, path, strtoull(argv[3], nullptr, 10));
  }
  if (argc >= 3 && strcmp(argv[2], "tree") == 0) {
    return DumpTree(path);
  }

  printf("=== files ===\n");
  std::vector<std::string> children;
  if (env->GetChildren(path, &children).ok()) {
    for (const std::string& child : children) {
      uint64_t size = 0;
      env->GetFileSize(path + "/" + child, &size).ok();
      printf("  %-24s %10llu bytes\n", child.c_str(),
             static_cast<unsigned long long>(size));
    }
  }
  printf("=== manifest ===\n");
  return DumpManifest(env, path);
}
