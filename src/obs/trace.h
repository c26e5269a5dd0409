// Per-request tracing (DESIGN.md §16 "Tracing & flight recorder").
//
// A TraceContext is thread-local, like PerfContext: a request boundary
// (DB::Get / DB::Write / a server command run) *arms* it — head-sampled at
// the global sample rate, forced by ReadOptions/WriteOptions::trace, or
// armed by the server for SLOWLOG tail capture — and every instrumented
// site below it on the same thread records scoped TraceSpans into the
// thread's flight-recorder ring (obs/flight_recorder.h).
//
// Overhead contract: when the context is disarmed (the default), a span
// costs exactly one relaxed atomic load and never reads the clock —
// trace_test.cc asserts both, via TraceClockReads(). Armed spans read the
// clock twice (begin/end) and write fixed-size events into a preallocated
// per-thread ring: no allocation, no locks, no syscalls on the hot path.
//
// Sampling: SetTraceSampleRate() sets the global head-sampling rate; the
// MONKEYDB_TRACE_SAMPLE environment variable provides the *initial* rate
// (so CI can run the whole suite traced without code changes) and an
// explicit SetTraceSampleRate() call thereafter wins. Servers apply their
// ServerOptions knob through ApplyTraceSampleRateOption(), which defers to
// the environment override like MONKEYDB_IO_BACKEND does.

#ifndef MONKEYDB_OBS_TRACE_H_
#define MONKEYDB_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace monkeydb {

// Every span/instant name the engine emits. Names are static: an event
// stores the enumerator, never a pointer or string, so recording cannot
// allocate and the ring slots stay fixed-size.
enum class TraceName : uint16_t {
  // RESP serving layer.
  kServerParse = 0,   // args: bytes_buffered, commands_parsed
  kServerCommand,     // args: command_id, commands_in_run, keys
  kServerAdmin,       // args: command_id
  // Engine read path.
  kDbGet,             // args: found
  kDbMultiGet,        // args: keys
  kMemtableProbe,     // args: memtables, hit
  kRunProbe,          // instant; args: level, outcome, predicted_fpr_ppb
  kFilterProbe,       // args: may_contain
  kFenceSeek,         // args: block_needed
  kBlockFetch,        // args: cache_hit, bytes
  // Engine write path.
  kDbWrite,           // args: batch_bytes
  kWriteQueueWait,    // args: leader
  kWalAppend,         // args: bytes, sync
  kMemtableApply,     // args: batches
  // io_uring substrate.
  kUringSubmitBatch,  // args: requests, rounds
  kUringComplete,     // instant; args: index, result_bytes
  kUringRetry,        // instant; args: index
  kNumTraceNames,
};

// Probe outcomes recorded in kRunProbe's `outcome` arg; numerically equal
// to sstable/table_reader.h's TableLookupResult so the Eq. 3
// reconciliation in trace_test.cc is a straight cast.
enum TraceProbeOutcome : int64_t {
  kTraceProbeFound = 0,
  kTraceProbeDeleted = 1,
  kTraceProbeNotPresent = 2,   // Block fetched, key absent (false positive).
  kTraceProbeFilteredOut = 3,  // Bloom negative; no I/O.
};

const char* TraceNameString(TraceName name);
// Static label of args[i] for this name; nullptr = the arg is unused.
const char* TraceArgName(TraceName name, int i);

// One begin/end/instant record. 48 bytes of payload; the flight recorder
// stores it as six atomic words plus a seqlock word.
struct TraceEvent {
  uint64_t ts_nanos = 0;     // TraceNowNanos() domain (steady clock).
  uint64_t request_id = 0;   // Groups one armed request's events.
  int64_t args[3] = {0, 0, 0};
  uint32_t tid = 0;          // Flight-recorder thread index.
  TraceName name = TraceName::kNumTraceNames;
  uint8_t phase = 0;         // 'B', 'E', or 'I'.
  uint8_t depth = 0;         // Span nesting depth at begin.
};

// Thread-local arming state. Only its owning thread ever touches it; the
// armed flag is still an atomic so the disarmed fast path is, verbatim,
// "one relaxed atomic load".
class TraceContext {
 public:
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  uint64_t request_id() const { return request_id_; }
  // Request id of the most recent armed request on this thread (survives
  // disarm); tests use it to pull one request's events from a snapshot.
  uint64_t last_request_id() const { return last_request_id_; }

  // Internal (TraceArmer / TraceSpan).
  void Arm(uint64_t id) {
    request_id_ = id;
    last_request_id_ = id;
    depth_ = 0;
    armed_.store(true, std::memory_order_relaxed);
  }
  void Disarm() { armed_.store(false, std::memory_order_relaxed); }
  uint8_t depth() const { return depth_; }
  void set_depth(uint8_t d) { depth_ = d; }

 private:
  std::atomic<bool> armed_{false};
  uint64_t request_id_ = 0;
  uint64_t last_request_id_ = 0;
  uint8_t depth_ = 0;
};

// The calling thread's context; the pointer stays valid for the thread's
// lifetime.
TraceContext* GetTraceContext();

inline bool TraceArmed() { return GetTraceContext()->armed(); }
inline uint64_t TraceLastRequestId() {
  return GetTraceContext()->last_request_id();
}

// --- Sampling --------------------------------------------------------------

// Hard-sets the global head-sampling rate in [0, 1] (tests, benches,
// embedded users). Thread-safe.
void SetTraceSampleRate(double rate);
// Applies a configuration knob: a MONKEYDB_TRACE_SAMPLE environment
// override, when present, wins over `rate` (same contract as
// MONKEYDB_IO_BACKEND).
void ApplyTraceSampleRateOption(double rate);
double TraceSampleRate();
// Head-sampling decision: true with probability ~rate. Rate 0 (the
// default) answers false after one relaxed atomic load — no clock, no RNG.
bool TraceSampleHead();

// --- Clock -----------------------------------------------------------------

// Steady-clock nanos; every call increments the TraceClockReads() counter
// so tests can assert the disarmed path performs exactly zero clock reads.
uint64_t TraceNowNanos();
uint64_t TraceClockReads();

// --- Arming / spans --------------------------------------------------------

// RAII request boundary. Arms the thread's context with a fresh request id
// when `want` is true and the context is not already armed (a nested
// boundary — DB::Get under a server command — joins the outer request);
// disarms on destruction iff it armed.
class TraceArmer {
 public:
  explicit TraceArmer(bool want) {
    TraceContext* ctx = GetTraceContext();
    if (!want || ctx->armed()) return;
    armed_here_ = true;
    ctx->Arm(NextRequestId());
  }
  ~TraceArmer() {
    if (armed_here_) GetTraceContext()->Disarm();
  }
  TraceArmer(const TraceArmer&) = delete;
  TraceArmer& operator=(const TraceArmer&) = delete;

  // True iff the context is armed for this request (whether by this armer
  // or an enclosing one).
  bool armed() const { return GetTraceContext()->armed(); }

 private:
  static uint64_t NextRequestId();
  bool armed_here_ = false;
};

// RAII span: records a begin event at construction and an end event (with
// the latest args) at destruction, when the thread's context is armed.
// Disarmed cost is the one relaxed atomic load inside GetTraceContext's
// armed() — nothing else runs.
class TraceSpan {
 public:
  explicit TraceSpan(TraceName name, int64_t a0 = 0, int64_t a1 = 0,
                     int64_t a2 = 0)
      : name_(name), a0_(a0), a1_(a1), a2_(a2) {
    TraceContext* ctx = GetTraceContext();
    if (!ctx->armed()) return;
    ctx_ = ctx;
    Begin();
  }
  ~TraceSpan() {
    if (ctx_ != nullptr) End();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool armed() const { return ctx_ != nullptr; }
  // Replaces the args recorded with the end event (outcomes discovered
  // mid-span). Callers gate any expensive arg computation on armed().
  void set_args(int64_t a0, int64_t a1 = 0, int64_t a2 = 0) {
    a0_ = a0;
    a1_ = a1;
    a2_ = a2;
  }

  // Ends the span now instead of at destruction (idempotent). Lets a
  // caller close its span before snapshotting the recorder — a SLOWLOG
  // capture must not see its own still-open command span.
  void Finish() {
    if (ctx_ == nullptr) return;
    End();
    ctx_ = nullptr;
  }

 private:
  void Begin();
  void End();

  TraceContext* ctx_ = nullptr;
  TraceName name_;
  int64_t a0_, a1_, a2_;
};

// Point-in-time event (completions, retries). Same disarmed contract.
void TraceInstantSlow(TraceName name, int64_t a0, int64_t a1, int64_t a2);
inline void TraceInstant(TraceName name, int64_t a0 = 0, int64_t a1 = 0,
                         int64_t a2 = 0) {
  if (!GetTraceContext()->armed()) return;
  TraceInstantSlow(name, a0, a1, a2);
}

// --- Export ----------------------------------------------------------------

// Chrome/Perfetto trace-event JSON of the flight recorder's contents with
// ts_nanos >= min_ts_nanos (0 = everything retained). Load the result in
// https://ui.perfetto.dev or chrome://tracing, or pretty-print it with
// tools/trace_view.py.
std::string DumpTraceJson(uint64_t min_ts_nanos = 0);

// Indented text rendering of the events' span forest (grouped by thread,
// nested by begin/end pairing) with per-span durations — the SLOWLOG /
// monkey_cli --trace view. Events must be ts-sorted (FlightRecorder
// snapshots are).
std::string RenderSpanForest(const std::vector<TraceEvent>& events);

}  // namespace monkeydb

#endif  // MONKEYDB_OBS_TRACE_H_
