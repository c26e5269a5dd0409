// Tests for MemEnv, PosixEnv (including its buffered writer),
// CountingEnv (page-granular I/O accounting), and the DeviceModel.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "io/counting_env.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "lsm/internal_key.h"
#include "obs/perf_context.h"
#include "sstable/table_builder.h"

namespace monkeydb {
namespace {

void ExerciseEnv(Env* env, const std::string& dir) {
  ASSERT_TRUE(env->CreateDir(dir).ok());
  const std::string fname = dir + "/file1";

  // Write.
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
    ASSERT_TRUE(file->Append("hello ").ok());
    ASSERT_TRUE(file->Append("world").ok());
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
  }
  EXPECT_TRUE(env->FileExists(fname));
  uint64_t size = 0;
  ASSERT_TRUE(env->GetFileSize(fname, &size).ok());
  EXPECT_EQ(size, 11u);

  // Random access.
  {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
    char scratch[16];
    Slice result;
    ASSERT_TRUE(file->Read(6, 5, &result, scratch).ok());
    EXPECT_EQ(result.ToString(), "world");
    // Read past EOF returns a short read.
    ASSERT_TRUE(file->Read(9, 10, &result, scratch).ok());
    EXPECT_EQ(result.ToString(), "ld");
  }

  // Sequential.
  {
    std::unique_ptr<SequentialFile> file;
    ASSERT_TRUE(env->NewSequentialFile(fname, &file).ok());
    char scratch[16];
    Slice result;
    ASSERT_TRUE(file->Read(5, &result, scratch).ok());
    EXPECT_EQ(result.ToString(), "hello");
    ASSERT_TRUE(file->Skip(1).ok());
    ASSERT_TRUE(file->Read(16, &result, scratch).ok());
    EXPECT_EQ(result.ToString(), "world");
  }

  // Children, rename, remove.
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren(dir, &children).ok());
  EXPECT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0], "file1");

  ASSERT_TRUE(env->RenameFile(fname, dir + "/file2").ok());
  EXPECT_FALSE(env->FileExists(fname));
  EXPECT_TRUE(env->FileExists(dir + "/file2"));
  ASSERT_TRUE(env->RemoveFile(dir + "/file2").ok());
  EXPECT_FALSE(env->FileExists(dir + "/file2"));
  EXPECT_TRUE(env->RemoveFile(dir + "/file2").IsNotFound());
}

TEST(MemEnv, FullSurface) {
  auto env = NewMemEnv();
  ExerciseEnv(env.get(), "/test");
}

TEST(MemEnv, MissingFileIsNotFound) {
  auto env = NewMemEnv();
  std::unique_ptr<RandomAccessFile> file;
  EXPECT_TRUE(env->NewRandomAccessFile("/nope", &file).IsNotFound());
  uint64_t size;
  EXPECT_TRUE(env->GetFileSize("/nope", &size).IsNotFound());
}

TEST(MemEnv, TruncatesOnRewrite) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/f", &file).ok());
  ASSERT_TRUE(file->Append("0123456789").ok());
  ASSERT_TRUE(env->NewWritableFile("/f", &file).ok());
  ASSERT_TRUE(file->Append("ab").ok());
  uint64_t size;
  ASSERT_TRUE(env->GetFileSize("/f", &size).ok());
  EXPECT_EQ(size, 2u);
}

TEST(PosixEnv, FullSurface) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("monkeydb_env_test_" + std::to_string(::getpid()));
  ExerciseEnv(GetPosixEnv(), dir);
  std::filesystem::remove_all(dir);
}

// A fresh per-test directory for the PosixWritableFile buffering tests.
std::string PosixTestDir(const std::string& tag) {
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("monkeydb_env_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(GetPosixEnv()->CreateDir(dir).ok());
  return dir;
}

uint64_t FileSize(Env* env, const std::string& fname) {
  uint64_t size = 0;
  EXPECT_TRUE(env->GetFileSize(fname, &size).ok());
  return size;
}

std::string ReadAll(Env* env, const std::string& fname) {
  const uint64_t size = FileSize(env, fname);
  std::unique_ptr<RandomAccessFile> file;
  EXPECT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
  std::string scratch(size, '\0');
  Slice result;
  EXPECT_TRUE(file->Read(0, size, &result, scratch.data()).ok());
  return result.ToString();
}

// Appends stay in the writer's user-space buffer: the file does not grow
// until Flush, Sync, Close or the destructor hands them to the kernel, and
// a reader opened earlier sees them from then on.
TEST(PosixEnv, BufferedAppendsBecomeVisibleOnFlushSyncCloseAndDestruction) {
  Env* env = GetPosixEnv();
  const std::string dir = PosixTestDir("visibility");
  const std::string fname = dir + "/f";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(env->NewRandomAccessFile(fname, &reader).ok());
  char scratch[64];
  Slice result;

  ASSERT_TRUE(file->Append("flush.").ok());
  EXPECT_EQ(FileSize(env, fname), 0u);
  ASSERT_TRUE(file->Flush().ok());
  EXPECT_EQ(FileSize(env, fname), 6u);
  ASSERT_TRUE(reader->Read(0, sizeof(scratch), &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "flush.");

  ASSERT_TRUE(file->Append("sync.").ok());
  EXPECT_EQ(FileSize(env, fname), 6u);
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(FileSize(env, fname), 11u);

  ASSERT_TRUE(file->Append("close.").ok());
  EXPECT_EQ(FileSize(env, fname), 11u);
  ASSERT_TRUE(file->Close().ok());
  ASSERT_TRUE(reader->Read(0, sizeof(scratch), &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "flush.sync.close.");

  // An owner that never closes still gets its bytes out on destruction.
  const std::string dropped = dir + "/dropped";
  ASSERT_TRUE(env->NewWritableFile(dropped, &file).ok());
  ASSERT_TRUE(file->Append("dtor.").ok());
  EXPECT_EQ(FileSize(env, dropped), 0u);
  file.reset();
  EXPECT_EQ(ReadAll(env, dropped), "dtor.");
  std::filesystem::remove_all(dir);
}

// Appends that straddle or exceed the 64 KiB buffer: the prefix tops the
// buffer up, an oversized remainder goes straight to the file, and a
// smaller one starts the next buffer. The bytes land whole and in order.
TEST(PosixEnv, AppendLargerThanTheBufferLandsWholeAndInOrder) {
  Env* env = GetPosixEnv();
  const std::string dir = PosixTestDir("large");
  const std::string fname = dir + "/f";
  auto pattern = [](size_t n, int seed) {
    std::string s(n, '\0');
    for (size_t i = 0; i < n; i++) {
      s[i] = static_cast<char>((i * 131 + static_cast<size_t>(seed)) % 251);
    }
    return s;
  };
  const std::string parts[] = {"head", pattern(200 << 10, 1), "tail",
                               pattern(70 << 10, 2), pattern(64 << 10, 3)};
  std::string expected;
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(fname, &file).ok());
  for (const std::string& part : parts) {
    ASSERT_TRUE(file->Append(part).ok());
    expected += part;
  }
  ASSERT_TRUE(file->Close().ok());
  EXPECT_TRUE(ReadAll(env, fname) == expected);
  std::filesystem::remove_all(dir);
}

// A count gate, not a timing: the builder appends one image per page and
// the buffer turns P pages into at most ceil(P * 4096 / 65536) + 1
// write(2) calls (one per full buffer, plus the tail at Close).
TEST(PosixEnv, SstBuildCostsOneWriteCallPerBufferOfPages) {
  Env* env = GetPosixEnv();
  const std::string dir = PosixTestDir("sst");
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile(dir + "/t.sst", &file).ok());
  SetPerfLevel(PerfLevel::kCounts);
  GetIOStatsContext()->Reset();
  TableBuilderOptions options;
  TableBuilder builder(options, file.get());
  const std::string value(100, 'v');
  for (int i = 0; i < 20000; i++) {
    char user_key[16];
    snprintf(user_key, sizeof(user_key), "key%08d", i);
    std::string key;
    AppendInternalKey(&key, user_key, 1, ValueType::kValue);
    builder.Add(key, value);
  }
  ASSERT_TRUE(builder.Finish().ok());
  ASSERT_TRUE(file->Close().ok());
  const IOStatsContext io = *GetIOStatsContext();
  SetPerfLevel(PerfLevel::kDisabled);

  const uint64_t pages = (builder.file_size() + 4095) / 4096;
  ASSERT_GT(pages, 500u);
  EXPECT_LE(io.write_calls, (pages * 4096 + 65535) / 65536 + 1);
  EXPECT_EQ(io.bytes_written, builder.file_size());
  std::filesystem::remove_all(dir);
}

TEST(CountingEnv, ChargesReadsByPagesTouched) {
  auto base = NewMemEnv();
  IoStats stats;
  CountingEnv env(base.get(), &stats, /*page_size_bytes=*/100);

  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());
    const std::string payload = std::string(1000, 'x');
    ASSERT_TRUE(file->Append(payload).ok());
    ASSERT_TRUE(file->Close().ok());
  }
  // 1000 bytes at 100-byte pages = exactly 10 write I/Os.
  EXPECT_EQ(stats.Snapshot().write_ios, 10u);

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env.NewRandomAccessFile("/f", &file).ok());
  char scratch[300];
  Slice result;

  auto before = stats.Snapshot();
  // Within one page.
  ASSERT_TRUE(file->Read(10, 50, &result, scratch).ok());
  EXPECT_EQ((stats.Snapshot() - before).read_ios, 1u);

  before = stats.Snapshot();
  // Crosses one page boundary -> 2 pages.
  ASSERT_TRUE(file->Read(90, 20, &result, scratch).ok());
  EXPECT_EQ((stats.Snapshot() - before).read_ios, 2u);

  before = stats.Snapshot();
  // Exactly page-aligned read of one page.
  ASSERT_TRUE(file->Read(200, 100, &result, scratch).ok());
  EXPECT_EQ((stats.Snapshot() - before).read_ios, 1u);

  before = stats.Snapshot();
  // [99, 301) touches pages 0..3 -> 4 pages.
  ASSERT_TRUE(file->Read(99, 202, &result, scratch).ok());
  EXPECT_EQ((stats.Snapshot() - before).read_ios, 4u);
}

TEST(CountingEnv, ChargesPartialPageOnClose) {
  auto base = NewMemEnv();
  IoStats stats;
  CountingEnv env(base.get(), &stats, 100);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());
  const std::string payload = std::string(150, 'x');
  ASSERT_TRUE(file->Append(payload).ok());
  EXPECT_EQ(stats.Snapshot().write_ios, 1u);  // One full page so far.
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(stats.Snapshot().write_ios, 2u);  // Tail charged at close.
}

TEST(CountingEnv, SnapshotDelta) {
  IoStats stats;
  stats.AddRead(3, 300);
  auto a = stats.Snapshot();
  stats.AddRead(2, 200);
  stats.AddWrite(1, 100);
  auto d = stats.Snapshot() - a;
  EXPECT_EQ(d.read_ios, 2u);
  EXPECT_EQ(d.write_ios, 1u);
  EXPECT_EQ(d.bytes_read, 200u);
  EXPECT_EQ(d.bytes_written, 100u);
}

TEST(DeviceModel, SimulatedLatency) {
  IoStatsSnapshot s;
  s.read_ios = 10;
  s.write_ios = 5;
  DeviceModel hdd = DeviceModel::Hdd();  // 10ms, phi=1.
  EXPECT_DOUBLE_EQ(hdd.SimulatedSeconds(s), 0.15);
  DeviceModel flash = DeviceModel::Flash();  // 100us, phi=2.
  EXPECT_DOUBLE_EQ(flash.SimulatedSeconds(s), 10 * 100e-6 + 5 * 200e-6);
}

}  // namespace
}  // namespace monkeydb
