// MonkeyServer: the sharded RESP serving layer over MonkeyDB (DESIGN.md
// §14 "Serving layer").
//
// Topology: server_shards independent DB instances (hash-partitioned
// keyspace, ShardRouter), each paired with an event-loop thread and an
// SO_REUSEPORT listener on the same port. The engine batching built in
// PRs 1-7 is the hot path: a connection's pipelined reads become one
// DB::MultiGet per shard and its pipelined writes one WriteBatch per
// shard submitted through the group-commit leader, so N pipelined
// commands cost ~1 engine call instead of N.
//
// Commands: GET SET DEL MGET MSET EXISTS SCAN PING ECHO INFO CONFIG GET
// COMMAND SELECT DBSIZE QUIT SHUTDOWN — plus a GET-only HTTP /metrics
// endpoint (Prometheus text, aggregated across shards) on the same port.

#ifndef MONKEYDB_SERVER_SERVER_H_
#define MONKEYDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lsm/db.h"
#include "lsm/options.h"
#include "obs/metrics.h"
#include "server/command.h"
#include "server/connection.h"
#include "server/event_loop.h"
#include "server/shard_router.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace monkeydb {

class MonkeyServer {
 public:
  // Engine calls issued on behalf of clients — the denominator of the
  // pipelining win. calls/commands_processed() is the batching ratio the
  // server bench asserts on (<= 0.2 at pipeline depth 16).
  struct EngineCalls {
    uint64_t point_gets = 0;  // DB::Get calls.
    uint64_t multigets = 0;   // DB::MultiGet calls (batches, not keys).
    uint64_t writes = 0;      // DB::Write calls (batches, not ops).
    uint64_t scans = 0;       // Iterators opened for SCAN.
    uint64_t Total() const {
      return point_gets + multigets + writes + scans;
    }
  };

  // Opens shard DBs under <data_dir>/shard-<i>, binds the listener set,
  // and spawns the event-loop threads. On success the server is live.
  static Status Start(const ServerOptions& options,
                      const std::string& data_dir,
                      std::unique_ptr<MonkeyServer>* out);

  ~MonkeyServer();  // Implies Stop().

  MonkeyServer(const MonkeyServer&) = delete;
  MonkeyServer& operator=(const MonkeyServer&) = delete;

  // Drains the loops, joins their threads, and closes the shard DBs.
  // Idempotent; must not be called from an event-loop thread (SHUTDOWN
  // sets shutdown_requested() instead and the owner calls Stop).
  void Stop();

  // The actually-bound port (differs from options when it was 0).
  int port() const { return port_; }
  int shards() const { return router_.shards(); }

  const ServerOptions& options() const { return opts_; }
  MetricsRegistry* metrics() const { return metrics_.get(); }
  DB* shard_db(int i) const { return dbs_[static_cast<size_t>(i)].get(); }
  const ShardRouter& router() const { return router_; }

  EngineCalls engine_calls() const;
  uint64_t commands_processed() const {
    return commands_.load(std::memory_order_relaxed);
  }
  uint64_t total_connections() const {
    return total_connections_.load(std::memory_order_relaxed);
  }
  size_t live_connections() const;

  // A client issued SHUTDOWN; the embedding main loop should call Stop.
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  // Redis-style INFO text: server/clients/stats sections plus one
  // section per shard with engine stats, the arena backing tier, and the
  // io_uring substrate counters (DB::GetUringStats) when that backend is
  // live. A RESP INFO passes its connection, whose buffered capacity the
  // Clients section then reports.
  std::string InfoText(const Connection* caller = nullptr) const;

  // Prometheus exposition aggregated across shards: every shard's
  // DB::DumpMetrics(kPrometheus) merged under a shard="<i>" label (one
  // HELP/TYPE per family), followed by the server's own series.
  std::string MetricsText() const;

  // --- Called by connections (event-loop threads) ---

  // Executes one tick's pipelined batch, appending replies to c->out()
  // in command order.
  void Execute(Connection* c, std::vector<ParsedCommand>* cmds);

  // Full HTTP response (headers + body) for the sniffed request.
  std::string HandleHttpRequest(const Slice& method, const Slice& path);

  void NoteConnectionAccepted() {
    total_connections_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  MonkeyServer(const ServerOptions& options, std::string data_dir);

  // Executes cmds[begin, end) — a run of consecutive read-class /
  // write-class commands — as one batched engine interaction per shard.
  void ExecuteReadRun(Connection* c,
                      const std::vector<ParsedCommand>& cmds, size_t begin,
                      size_t end);
  void ExecuteWriteRun(Connection* c,
                       const std::vector<ParsedCommand>& cmds,
                       size_t begin, size_t end);
  void ExecuteAdmin(Connection* c, const ParsedCommand& cmd);

  void DoScan(Connection* c, const ParsedCommand& cmd);
  void DoConfig(Connection* c, const ParsedCommand& cmd);
  void DoInfo(Connection* c);
  void DoSlowlog(Connection* c, const ParsedCommand& cmd);
  void DoTrace(Connection* c, const ParsedCommand& cmd);

  void RecordCommandLatency(Hist hist, uint64_t micros, uint64_t n);

  // Appends a run (first command + count) to the SLOWLOG ring with its
  // measured duration and the span tree of the run's trace request id
  // (the run was armed, so its engine spans are in the flight recorder).
  void RecordSlowRun(const ParsedCommand& first, size_t run_len,
                     uint64_t duration_us);

  // SCAN cursor registry. Cursors are opaque uint64 tokens handed to the
  // client; state is (shard, last key returned). Bounded: the oldest
  // cursor is evicted past kMaxScanCursors (an abandoned SCAN must not
  // leak server memory).
  struct ScanState {
    int shard = 0;
    std::string last_key;  // Empty = start of shard.
    uint64_t lru = 0;
  };
  static constexpr size_t kMaxScanCursors = 4096;

  ServerOptions opts_;
  const std::string data_dir_;
  ShardRouter router_;

  std::vector<std::unique_ptr<DB>> dbs_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::unique_ptr<MetricsRegistry> metrics_;
  int port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopped_{false};
  std::atomic<bool> shutdown_requested_{false};

  std::atomic<uint64_t> commands_{0};
  std::atomic<uint64_t> total_connections_{0};
  std::atomic<uint64_t> point_gets_{0};
  std::atomic<uint64_t> multigets_{0};
  std::atomic<uint64_t> engine_writes_{0};
  std::atomic<uint64_t> scans_{0};

  mutable Mutex scan_mu_;
  std::map<uint64_t, ScanState> scan_cursors_ GUARDED_BY(scan_mu_);
  uint64_t next_cursor_ GUARDED_BY(scan_mu_) = 1;
  uint64_t scan_lru_tick_ GUARDED_BY(scan_mu_) = 0;

  // SLOWLOG ring (slowlog_threshold_us > 0; DESIGN.md §16). Bounded by
  // slowlog_max_len, oldest out; SLOWLOG GET serves entries newest-first.
  struct SlowlogEntry {
    uint64_t id = 0;
    uint64_t unix_secs = 0;
    uint64_t duration_us = 0;
    std::vector<std::string> args;  // First command of the run, truncated.
    std::string span_tree;          // RenderSpanForest of the run's spans.
  };
  mutable Mutex slowlog_mu_;
  std::deque<SlowlogEntry> slowlog_ GUARDED_BY(slowlog_mu_);
  uint64_t next_slowlog_id_ GUARDED_BY(slowlog_mu_) = 0;
};

}  // namespace monkeydb

#endif  // MONKEYDB_SERVER_SERVER_H_
