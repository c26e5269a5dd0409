// Component microbenchmarks (google-benchmark): hashing, Bloom filters,
// memtable, block, table probe, and the closed-form models/tuner.
//
// With --json, additionally runs a small instrumented end-to-end workload
// (fill + zero-result + existing-key lookups with enable_metrics on) and
// dumps the engine's histogram snapshot — plus the request-tracing
// overhead smoke (sampling off vs sampling enabled-but-unsampled; CI
// asserts the ratio stays within 3%) — to BENCH_obs.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "harness.h"

#include "bloom/bloom_filter.h"
#include "io/env.h"
#include "lsm/internal_key.h"
#include "memtable/memtable.h"
#include "monkey/fpr_allocator.h"
#include "monkey/tuner.h"
#include "obs/trace.h"
#include "sstable/block.h"
#include "sstable/table_builder.h"
#include "sstable/table_reader.h"
#include "util/hash.h"
#include "util/random.h"

namespace monkeydb {
namespace {

void BM_XxHash64(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(XxHash64(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_XxHash64)->Arg(16)->Arg(256)->Arg(4096);

// Before-vs-after for the CRC32C dispatch: BM_Crc32cPortable is the
// slicing-by-8 software baseline ("before"); BM_Crc32c is whatever the
// runtime dispatch picked on this machine ("after" — see the crc_impl
// label; identical to portable when no CRC instructions exist). The
// bytes/cycle ratio between the two is the hardware speedup.
void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
  state.SetLabel(std::string("crc_impl=") + Crc32cImplName());
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32cPortable(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cPortable(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
  state.SetLabel("crc_impl=portable-slicing8");
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(4096)->Arg(65536);

// The compaction kernel's checksum: one full data page's payload plus its
// type byte (a 4 KiB page minus the 4-byte CRC), at an unaligned start as
// the block builder's buffer may be. Arg 0 = dispatched, 1 = portable.
void BM_Crc32cPage(benchmark::State& state) {
  constexpr size_t kChecksummed = 4096 - sizeof(uint32_t);
  std::string page(kChecksummed + 1, '\0');
  Random rng(4);
  for (char& c : page) c = static_cast<char>(rng.Uniform(256));
  const bool portable = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        portable ? Crc32cPortable(page.data() + 1, kChecksummed)
                 : Crc32c(page.data() + 1, kChecksummed));
  }
  state.SetBytesProcessed(state.iterations() * kChecksummed);
  state.SetLabel(std::string("crc_impl=") +
                 (portable ? "portable-slicing8" : Crc32cImplName()));
}
BENCHMARK(BM_Crc32cPage)->Arg(0)->Arg(1);

// Per-entry cost of BlockBuilder::Add with the ledger's shape: 16-byte user
// keys as internal keys (24 bytes, sequential so prefixes are shared) and
// 100-byte values, one page-sized block at a time.
void BM_BlockBuilderAdd(benchmark::State& state) {
  constexpr int kEntriesPerBlock = 32;  // ~4 KiB of 124-byte entries.
  std::vector<std::string> keys(kEntriesPerBlock);
  for (int i = 0; i < kEntriesPerBlock; i++) {
    char user_key[32];
    snprintf(user_key, sizeof(user_key), "user%012d", 1000000 + i);
    AppendInternalKey(&keys[i], user_key, 7, ValueType::kValue);
  }
  const std::string value(100, 'v');
  BlockBuilder builder(16);
  for (auto _ : state) {
    for (const std::string& key : keys) builder.Add(key, value);
    benchmark::DoNotOptimize(builder.Finish().data());
    builder.Reset();
  }
  state.SetItemsProcessed(state.iterations() * kEntriesPerBlock);
}
BENCHMARK(BM_BlockBuilderAdd);

void BM_BloomBuild(benchmark::State& state) {
  const int n = state.range(0);
  for (auto _ : state) {
    BloomFilterBuilder builder;
    for (int i = 0; i < n; i++) {
      const std::string key = "key" + std::to_string(i);
      builder.AddKey(key);
    }
    benchmark::DoNotOptimize(builder.Finish(10.0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BloomBuild)->Arg(10000);

void BM_BloomQuery(benchmark::State& state) {
  BloomFilterBuilder builder;
  for (int i = 0; i < 100000; i++) {
    const std::string key = "key" + std::to_string(i);
    builder.AddKey(key);
  }
  const std::string filter = builder.Finish(10.0);
  Random rng(1);
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(rng.Uniform(200000));
    benchmark::DoNotOptimize(BloomFilterReader::MayContain(filter, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomQuery);

void BM_MemTableInsert(benchmark::State& state) {
  auto mem = std::make_unique<MemTable>();
  SequenceNumber seq = 0;
  Random rng(2);
  const std::string value(64, 'v');
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(rng.Next());
    mem->Add(++seq, ValueType::kValue, key,
             value);
    if (mem->ApproximateMemoryUsage() > (64 << 20)) {
      state.PauseTiming();
      mem = std::make_unique<MemTable>();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableInsert);

void BM_MemTableGet(benchmark::State& state) {
  MemTable mem;
  for (int i = 0; i < 100000; i++) {
    const std::string key = "key" + std::to_string(i);
    mem.Add(i + 1, ValueType::kValue, key, "value");
  }
  Random rng(3);
  std::string value;
  for (auto _ : state) {
    const std::string key = "key" + std::to_string(rng.Uniform(100000));
    LookupKey lookup(key,
                     kMaxSequenceNumber);
    bool found;
    benchmark::DoNotOptimize(mem.Get(lookup, &value, &found));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableGet);

void BM_TableProbe(benchmark::State& state) {
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> file;
  env->NewWritableFile("/t.sst", &file).ok();
  TableBuilderOptions opts;
  TableBuilder builder(opts, file.get());
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%09d", i);
    std::string ikey;
    AppendInternalKey(&ikey, buf, 1, ValueType::kValue);
    const std::string payload = std::string(32, 'v');
    builder.Add(ikey, payload);
  }
  builder.Finish().ok();
  file->Close().ok();

  std::unique_ptr<RandomAccessFile> rfile;
  env->NewRandomAccessFile("/t.sst", &rfile).ok();
  TableReaderOptions ropts;
  std::unique_ptr<TableReader> table;
  TableReader::Open(ropts, std::move(rfile), builder.file_size(), &table)
      .ok();

  Random rng(4);
  std::string value;
  for (auto _ : state) {
    char buf[24];
    snprintf(buf, sizeof(buf), "key%09llu",
             static_cast<unsigned long long>(rng.Uniform(n)));
    LookupKey lookup(buf, kMaxSequenceNumber);
    TableLookupResult result;
    benchmark::DoNotOptimize(table->Get(lookup, &value, &result));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableProbe);

void BM_OptimalFprAllocation(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(monkey::OptimalFprsForMemory(
        MergePolicy::kLeveling, 4.0, 8, 1e9, 5e9));
  }
}
BENCHMARK(BM_OptimalFprAllocation);

void BM_AutotuneFilters(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<monkey::RunFilterInfo> runs;
    uint64_t entries = 1000;
    for (int i = 0; i < 8; i++) {
      runs.push_back({entries, 0});
      entries *= 4;
    }
    benchmark::DoNotOptimize(monkey::AutotuneFilters(1e8, &runs));
  }
}
BENCHMARK(BM_AutotuneFilters);

void BM_TunerSearch(benchmark::State& state) {
  monkey::Environment env;
  env.num_entries = 1e9;
  env.entry_size_bits = 1024;
  env.total_memory_bits = 1.2e10;
  monkey::Workload w;
  w.zero_result_lookups = 0.5;
  w.updates = 0.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monkey::AutotuneSizeRatioAndPolicy(env, w));
  }
}
BENCHMARK(BM_TunerSearch);

// Tracing overhead smoke: ns per zero-result Get with head sampling off
// (threshold 0 — disarmed spans cost one relaxed load, no RNG) vs with
// sampling enabled at a vanishing rate (the per-request RNG draw runs but
// ~never arms). CI's release leg asserts the ratio stays <= 1.03.
// Interleaved min-of-rounds so frequency drift hits both arms equally.
struct TraceOverhead {
  double baseline_ns_per_get = 0;
  double traced_unsampled_ns_per_get = 0;
};

TraceOverhead MeasureTraceOverhead(bench::TestDb* t) {
  ReadOptions ro;
  std::string value;
  Random rng(31337);
  auto measure = [&](int lookups) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < lookups; i++) {
      const std::string key =
          bench::MakeMissingKey(rng.Uniform(t->num_keys));
      t->db->Get(ro, key, &value).ok();
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                   .count()) /
           lookups;
  };
  constexpr int kLookups = 3000;
  measure(kLookups);  // Warm caches before either arm is timed.
  TraceOverhead r;
  double base = 1e300;
  double traced = 1e300;
  for (int round = 0; round < 5; ++round) {
    SetTraceSampleRate(0.0);
    base = std::min(base, measure(kLookups));
    SetTraceSampleRate(1e-9);
    traced = std::min(traced, measure(kLookups));
  }
  SetTraceSampleRate(0.0);
  r.baseline_ns_per_get = base;
  r.traced_unsampled_ns_per_get = traced;
  return r;
}

// The --json end-to-end pass: every histogram DumpMetrics exports needs
// traffic, so drive writes, point/batch lookups, and a short scan through an
// instrumented DB, then snapshot.
void EmitObsJson() {
  bench::FillSpec spec;
  spec.num_keys = 20000;
  spec.monkey_filters = true;
  spec.enable_metrics = true;
  bench::TestDb t = bench::Fill(spec);
  bench::MeasureZeroResultLookups(&t, 4000);
  bench::MeasureNonZeroResultLookups(&t, 4000, /*locality_c=*/0.0);
  {
    ReadOptions ro;
    std::vector<std::string> key_storage;
    for (int i = 0; i < 64; i++) key_storage.push_back(bench::MakeKey(i));
    std::vector<Slice> keys(key_storage.begin(), key_storage.end());
    std::vector<std::string> values;
    (void)t.db->MultiGet(ro, keys, &values);
    auto it = t.db->NewIterator(ro);
    int scanned = 0;
    for (it->SeekToFirst(); it->Valid() && scanned < 1000; it->Next()) {
      scanned++;
    }
  }
  const TraceOverhead overhead = MeasureTraceOverhead(&t);

  bench::BenchJsonWriter w("micro_components");
  w.Config("num_keys", spec.num_keys);
  w.Config("lookups", 4000);
  w.RawField("metrics", t.db->DumpMetrics(DB::MetricsFormat::kJson));
  w.BeginObject("trace_overhead");
  w.Field("baseline_ns_per_get", overhead.baseline_ns_per_get);
  w.Field("traced_unsampled_ns_per_get",
          overhead.traced_unsampled_ns_per_get);
  w.Field("ratio", overhead.baseline_ns_per_get > 0
                       ? overhead.traced_unsampled_ns_per_get /
                             overhead.baseline_ns_per_get
                       : 0.0);
  w.EndObject();
  w.WriteFile("BENCH_obs.json");
}

}  // namespace
}  // namespace monkeydb

int main(int argc, char** argv) {
  const bool emit_json = monkeydb::bench::ConsumeJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (emit_json) monkeydb::EmitObsJson();
  return 0;
}
