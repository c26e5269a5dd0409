// Request-tracing tests (DESIGN.md §16): the flight recorder's seqlock
// rings under concurrent writers, the disarmed-path overhead contract
// (one relaxed load, zero clock reads), reconciliation of a traced Get's
// and MultiGet's per-level kRunProbe spans against the Eq. 3 PerfContext
// accounting,
// SLOWLOG capture through a real server socket, and a round trip of the
// Chrome-JSON dump through tools/trace_view.py --check.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "lsm/db.h"
#include "monkey/monkey_db.h"
#include "obs/flight_recorder.h"
#include "obs/perf_context.h"
#include "server/resp_client.h"
#include "server/server.h"
#include "util/random.h"

namespace monkeydb {
namespace {

// 8 writers hammer a tiny ring (forcing constant wraparound) while a
// reader snapshots continuously. Every event a snapshot returns must be
// internally consistent — the writers encode a checksum across the
// payload words, so a torn slot (mixed old/new words) fails the check.
// Under TSan this also proves the seqlock publishes race-free.
TEST(FlightRecorderTest, WraparoundSnapshotsNeverTear) {
  FlightRecorder recorder;
  recorder.SetRingCapacityForTest(64);

  constexpr int kWriters = 8;
  constexpr int kEventsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<TraceEvent> events = recorder.Snapshot();
      uint64_t prev_ts = 0;
      for (const TraceEvent& e : events) {
        // Writer invariant: args[1] == args[0] * 3, args[2] == args[0] ^
        // request_id. Any mix of two events breaks it.
        if (e.args[1] != e.args[0] * 3 ||
            e.args[2] != (e.args[0] ^ static_cast<int64_t>(e.request_id))) {
          torn.fetch_add(1);
        }
        if (e.ts_nanos < prev_ts) torn.fetch_add(1);  // Must be sorted.
        prev_ts = e.ts_nanos;
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kEventsPerWriter; i++) {
        TraceEvent e;
        e.ts_nanos = TraceNowNanos();
        e.request_id = static_cast<uint64_t>(w + 1);
        e.args[0] = i;
        e.args[1] = static_cast<int64_t>(i) * 3;
        e.args[2] = i ^ static_cast<int64_t>(w + 1);
        e.name = TraceName::kRunProbe;
        e.phase = 'I';
        recorder.Record(e);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  // The rings wrapped many times; what remains is at most the last
  // capacity's worth per writer, and every survivor is intact.
  std::vector<TraceEvent> final_events = recorder.Snapshot();
  EXPECT_GT(final_events.size(), 0u);
  EXPECT_LE(final_events.size(), size_t{kWriters} * 64);
  for (const TraceEvent& e : final_events) {
    EXPECT_EQ(e.args[1], e.args[0] * 3);
    EXPECT_EQ(e.args[2], e.args[0] ^ static_cast<int64_t>(e.request_id));
  }
}

// The overhead contract for disabled tracing: with the sample rate at 0
// and nothing force-armed, a full read workload records no spans and
// performs not a single trace-clock read — TraceClockReads() is the
// proof that TraceSpan's disarmed path never reaches the clock.
TEST(TraceTest, DisarmedPathRecordsNothingAndNeverReadsClock) {
  SetTraceSampleRate(0.0);
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  WriteOptions wo;
  ReadOptions ro;
  std::string value;
  for (int i = 0; i < 500; i++) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }

  FlightRecorder::Global()->Clear();  // One clock read, before the mark.
  const uint64_t clock_before = TraceClockReads();
  for (int i = 0; i < 500; i++) {
    const std::string present = "key" + std::to_string(i);
    const std::string missing = "missing" + std::to_string(i);
    (void)db->Get(ro, present, &value);
    (void)db->Get(ro, missing, &value);
  }
  EXPECT_EQ(TraceClockReads(), clock_before);
  EXPECT_TRUE(FlightRecorder::Global()->Snapshot().empty());
}

// A traced zero-result lookup probes every run exactly once, and each
// kRunProbe span's recorded outcome must reconcile with the Eq. 3
// bookkeeping PerfContext does independently: every probe is counted in
// runs_probed unless the filter pruned it (filter_negatives), and a
// kNotPresent outcome is precisely a Bloom false positive. A one-key Get
// and a MultiGet batch run one lookup core, so both trace it alike.
TEST(TraceTest, TracedGetSpansReconcileWithEq3Counters) {
  SetTraceSampleRate(0.0);
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;  // Small: force multiple levels.
  options.bits_per_entry = 5.0;
  options.fpr_policy = monkey::NewMonkeyFprPolicy();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  WriteOptions wo;
  Random rng(301);
  const std::string fill_value(40, 'v');
  for (int i = 0; i < 4000; i++) {
    const std::string key = "key" + std::to_string(rng.Uniform(3000));
    ASSERT_TRUE(db->Put(wo, key, fill_value).ok());
  }

  ReadOptions traced;
  traced.trace = true;
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "MultiGet" : "Get");
    SetPerfLevel(PerfLevel::kCounts);
    uint64_t probes = 0;
    // Zero-result lookups until at least one traced request probed a run
    // (the tree may answer a given key from the memtable alone).
    for (int i = 0; i < 200 && probes == 0; i++) {
      FlightRecorder::Global()->Clear();
      GetPerfContext()->Reset();
      const std::string absent = "absent" + std::to_string(i);
      if (batch) {
        std::vector<std::string> storage;
        for (int k = 0; k < 8; k++) {
          storage.push_back(absent + "_" + std::to_string(k));
        }
        std::vector<Slice> keys(storage.begin(), storage.end());
        std::vector<std::string> values;
        for (const Status& s : db->MultiGet(traced, keys, &values)) {
          ASSERT_TRUE(s.IsNotFound() || s.ok());
        }
      } else {
        std::string value;
        const Status s = db->Get(traced, absent, &value);
        ASSERT_TRUE(s.IsNotFound() || s.ok());
      }
      probes =
          GetPerfContext()->runs_probed + GetPerfContext()->filter_negatives;
    }
    ASSERT_GT(probes, 0u) << "no lookup ever reached a disk run";
    const PerfContext perf = *GetPerfContext();
    SetPerfLevel(PerfLevel::kDisabled);

    const uint64_t request_id = TraceLastRequestId();
    ASSERT_NE(request_id, 0u);
    std::vector<TraceEvent> events = FlightRecorder::Global()->Snapshot();
    const TraceName top = batch ? TraceName::kDbMultiGet : TraceName::kDbGet;
    uint64_t runs_probed = 0, filtered_out = 0, false_positives = 0;
    uint64_t top_spans = 0, memtable_spans = 0, filter_spans = 0;
    for (const TraceEvent& e : events) {
      if (e.request_id != request_id) continue;
      // Span end events carry the final outcome; a run probe is an instant.
      if (e.phase != (e.name == TraceName::kRunProbe ? 'I' : 'E')) continue;
      if (e.name == top) top_spans++;
      switch (e.name) {
        case TraceName::kMemtableProbe:
          memtable_spans++;
          break;
        case TraceName::kFilterProbe:
          filter_spans++;
          break;
        case TraceName::kRunProbe:
          switch (e.args[1]) {
            case kTraceProbeFilteredOut:
              filtered_out++;
              break;
            case kTraceProbeNotPresent:
              false_positives++;
              runs_probed++;
              break;
            case kTraceProbeFound:
            case kTraceProbeDeleted:
              runs_probed++;
              break;
            default:
              ADD_FAILURE() << "unknown probe outcome " << e.args[1];
          }
          // Predicted FPR annotation (Eq. 5/6 plan, ppb): present and sane
          // for every probed run.
          EXPECT_GE(e.args[2], 0);
          EXPECT_LE(e.args[2], 1000000000);
          break;
        default:
          break;
      }
    }

    // The span tree covers the whole vertical slice of the read path...
    EXPECT_EQ(top_spans, 1u);
    EXPECT_EQ(memtable_spans, 1u);
    // ...and each run probe ran exactly one filter probe.
    EXPECT_EQ(filter_spans, runs_probed + filtered_out);
    // Eq. 3 reconciliation: the spans' outcomes are the PerfContext counts.
    EXPECT_EQ(runs_probed, perf.runs_probed);
    EXPECT_EQ(filtered_out, perf.filter_negatives);
    EXPECT_EQ(false_positives, perf.bloom_false_positives);
  }
}

// SLOWLOG through a real server: with a 1µs threshold everything is
// "slow", so a round of commands must land in the log with duration,
// argv, and a non-empty span tree; RESET empties it.
TEST(SlowlogTest, CapturesSlowCommandsWithSpanTree) {
  ServerOptions opts;
  opts.server_port = 0;
  opts.slowlog_threshold_us = 1;
  auto env = NewMemEnv();
  opts.db_options.env = env.get();
  std::unique_ptr<MonkeyServer> server;
  ASSERT_TRUE(MonkeyServer::Start(opts, "/server", &server).ok());

  RespClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server->port()).ok());
  RespReply r;
  // Fat payloads so each run reliably crosses the 1µs threshold.
  const std::string fat(16384, 'x');
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(c.Command({"SET", "slow" + std::to_string(i), fat}, &r).ok());
    ASSERT_TRUE(c.Command({"GET", "slow" + std::to_string(i)}, &r).ok());
  }

  ASSERT_TRUE(c.Command({"SLOWLOG", "LEN"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kInteger);
  ASSERT_GT(r.integer, 0);

  ASSERT_TRUE(c.Command({"SLOWLOG", "GET", "5"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kArray);
  ASSERT_GT(r.elements.size(), 0u);
  bool saw_command_span = false;
  for (const RespReply& entry : r.elements) {
    ASSERT_EQ(entry.type, RespReply::Type::kArray);
    ASSERT_EQ(entry.elements.size(), 5u);
    EXPECT_EQ(entry.elements[0].type, RespReply::Type::kInteger);  // id
    EXPECT_GT(entry.elements[1].integer, 0);  // unix timestamp
    EXPECT_GE(entry.elements[2].integer, 1);  // duration_us >= threshold
    EXPECT_EQ(entry.elements[3].type, RespReply::Type::kArray);
    ASSERT_GT(entry.elements[3].elements.size(), 0u);
    // The captured span tree names the command span that timed this run.
    if (entry.elements[4].str.find("server.command") != std::string::npos) {
      saw_command_span = true;
    }
  }
  EXPECT_TRUE(saw_command_span);

  ASSERT_TRUE(c.Command({"SLOWLOG", "RESET"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kSimple);
  // With a 1µs threshold the RESET run itself is slow and re-enters the
  // (just-emptied) log, so "empty" here means at most that one entry.
  ASSERT_TRUE(c.Command({"SLOWLOG", "LEN"}, &r).ok());
  EXPECT_LE(r.integer, 1);

  server->Stop();
}

// DumpTrace's Chrome JSON must survive the external tooling unchanged:
// tools/trace_view.py --check parses it, rebuilds the span forest, and
// exits nonzero on any nesting violation (unmatched end, mismatched
// names, unclosed begin). A traced MultiGet + Write make a trace with
// real nesting across read and write paths.
TEST(TraceTest, DumpTraceRoundTripsThroughTraceView) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }

  SetTraceSampleRate(0.0);
  auto env = NewMemEnv();
  DbOptions options;
  options.env = env.get();
  options.buffer_size_bytes = 8 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());

  WriteOptions wo;
  for (int i = 0; i < 1000; i++) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }

  FlightRecorder::Global()->Clear();
  WriteOptions traced_write;
  traced_write.trace = true;
  ASSERT_TRUE(db->Put(traced_write, "traced", "v").ok());
  ReadOptions traced_read;
  traced_read.trace = true;
  std::string value;
  (void)db->Get(traced_read, "key1", &value);
  std::vector<Slice> keys = {"key2", "absent", "key3"};
  std::vector<std::string> values;
  (void)db->MultiGet(traced_read, keys, &values);

  const std::string json = db->DumpTrace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("db.get"), std::string::npos);

  const std::string path = "trace_roundtrip.json";  // Test's working dir.
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << json;
  }
  const std::string cmd = "python3 " MONKEYDB_SOURCE_DIR
                          "/tools/trace_view.py --check " +
                          path + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "trace_view.py rejected DumpTrace output";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace monkeydb
