#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <set>
#include <utility>

#include "io/uring_env.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "server/resp.h"

namespace monkeydb {

namespace {

// Monotonic microsecond clock for the per-command latency summaries.
uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Status CreateListener(const std::string& bind_addr, int port, int backlog,
                      int* out_fd) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // The whole listener set binds the same port; the kernel load-balances
  // incoming connections across the per-shard sockets.
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " + bind_addr);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::IoError("bind(" + bind_addr + "): " + err);
  }
  if (::listen(fd, backlog) < 0) {
    const std::string err = strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  *out_fd = fd;
  return Status::OK();
}

int BoundPort(int fd) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
      0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

std::string U64(uint64_t v) { return std::to_string(v); }

// Rewrites one Prometheus sample line to carry a shard label. The label
// is appended after any existing ones — tools/metrics_lint.py greps for
// the literal `monkey_predicted_fpr{level="1"}` prefix, which appending
// preserves:
//   name{a="b"} v  ->  name{a="b",shard="2"} v
//   name v         ->  name{shard="2"} v
std::string AddShardLabel(const std::string& line, int shard) {
  const std::string label = "shard=\"" + std::to_string(shard) + "\"";
  const size_t brace = line.find('{');
  const size_t space = line.find(' ');
  if (brace != std::string::npos &&
      (space == std::string::npos || brace < space)) {
    const size_t close = line.find('}', brace);
    if (close == std::string::npos) return line;  // Malformed; keep.
    const bool empty_set = close == brace + 1;
    return line.substr(0, close) + (empty_set ? "" : ",") + label +
           line.substr(close);
  }
  if (space == std::string::npos) return line;  // Not a sample; keep.
  return line.substr(0, space) + "{" + label + "}" + line.substr(space);
}

}  // namespace

MonkeyServer::MonkeyServer(const ServerOptions& options,
                           std::string data_dir)
    : opts_(options),
      data_dir_(std::move(data_dir)),
      router_(options.server_shards) {}

Status MonkeyServer::Start(const ServerOptions& options,
                           const std::string& data_dir,
                           std::unique_ptr<MonkeyServer>* out) {
  if (options.server_shards < 1) {
    return Status::InvalidArgument("server_shards must be >= 1");
  }
  if (options.server_max_pipeline < 1) {
    return Status::InvalidArgument("server_max_pipeline must be >= 1");
  }
  if (options.server_output_hard_limit_bytes <
      options.server_output_soft_limit_bytes) {
    return Status::InvalidArgument(
        "server_output_hard_limit_bytes < soft limit");
  }
  std::unique_ptr<MonkeyServer> server(
      new MonkeyServer(options, data_dir));
  if (options.server_enable_metrics) {
    server->metrics_ = std::make_unique<MetricsRegistry>();
  }
  // Head-sampling rate for request tracing; a MONKEYDB_TRACE_SAMPLE
  // environment override wins (DESIGN.md §16).
  ApplyTraceSampleRateOption(options.trace_sample_rate);

  // Shard DBs first: an accepted connection must always find a live
  // engine behind every shard index.
  Env* dir_env = options.db_options.env != nullptr ? options.db_options.env
                                                   : GetPosixEnv();
  // Parent directory for the shard trees; fails harmlessly when present.
  // monkey-lint: status-sink — an already-existing directory is the
  // common case; a real create failure surfaces on the shard Open below.
  dir_env->CreateDir(data_dir).IgnoreError();
  for (int i = 0; i < options.server_shards; ++i) {
    std::unique_ptr<DB> db;
    const std::string shard_dir =
        data_dir + "/shard-" + std::to_string(i);
    Status s = DB::Open(options.db_options, shard_dir, &db);
    if (!s.ok()) {
      return Status::IoError("open shard " + std::to_string(i) + ": " +
                             s.ToString());
    }
    server->dbs_.push_back(std::move(db));
  }

  // Listener set: bind the first socket (resolving port 0 to a real
  // ephemeral port), then bind the rest to the resolved port so the
  // whole SO_REUSEPORT group shares it.
  std::vector<int> listen_fds;
  int port = options.server_port;
  for (int i = 0; i < options.server_shards; ++i) {
    int fd = -1;
    Status s = CreateListener(options.server_bind, port,
                              options.server_backlog, &fd);
    if (!s.ok()) {
      for (int old : listen_fds) ::close(old);
      return s;
    }
    if (i == 0) port = BoundPort(fd);
    listen_fds.push_back(fd);
  }
  server->port_ = port;

  for (int i = 0; i < options.server_shards; ++i) {
    auto loop = std::make_unique<EventLoop>(i, server.get());
    Status s = loop->Init(listen_fds[static_cast<size_t>(i)]);
    if (!s.ok()) {
      // Init took ownership of its fd; close the not-yet-adopted rest.
      for (int j = i + 1; j < options.server_shards; ++j) {
        ::close(listen_fds[static_cast<size_t>(j)]);
      }
      return s;
    }
    server->loops_.push_back(std::move(loop));
  }
  for (auto& loop : server->loops_) {
    server->threads_.emplace_back([l = loop.get()] { l->Run(); });
  }
  server->started_ = true;
  *out = std::move(server);
  return Status::OK();
}

MonkeyServer::~MonkeyServer() { Stop(); }

void MonkeyServer::Stop() {
  if (!started_ || stopped_.exchange(true)) return;
  for (auto& loop : loops_) loop->RequestStop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  loops_.clear();  // Destroys the remaining connections + sockets.
  // Shard DBs stay open until destruction: stats, INFO text, and metrics
  // remain readable after Stop (the bench reads its counters post-run).
}

MonkeyServer::EngineCalls MonkeyServer::engine_calls() const {
  EngineCalls calls;
  calls.point_gets = point_gets_.load(std::memory_order_relaxed);
  calls.multigets = multigets_.load(std::memory_order_relaxed);
  calls.writes = engine_writes_.load(std::memory_order_relaxed);
  calls.scans = scans_.load(std::memory_order_relaxed);
  return calls;
}

size_t MonkeyServer::live_connections() const {
  size_t total = 0;
  for (const auto& loop : loops_) total += loop->live_connections();
  return total;
}

// --- Command execution ------------------------------------------------

void MonkeyServer::RecordCommandLatency(Hist hist, uint64_t micros,
                                        uint64_t n) {
  if (metrics_ == nullptr) return;
  for (uint64_t i = 0; i < n; ++i) metrics_->Record(hist, micros);
}

void MonkeyServer::Execute(Connection* c,
                           std::vector<ParsedCommand>* cmds) {
  commands_.fetch_add(cmds->size(), std::memory_order_relaxed);
  if (metrics_ != nullptr) {
    metrics_->Record(Hist::kServerPipelineDepth, cmds->size());
    for (size_t i = 0; i < cmds->size(); ++i) {
      metrics_->Tick1(Tick::kServerCommands);
    }
  }
  const size_t n = cmds->size();
  size_t i = 0;
  while (i < n && !c->closing()) {
    const CommandSpec* spec = (*cmds)[i].spec;
    const CommandClass cls =
        spec != nullptr ? spec->cls : CommandClass::kAdmin;
    if (cls == CommandClass::kAdmin) {
      ExecuteAdmin(c, (*cmds)[i]);
      ++i;
      continue;
    }
    // Extend the run of same-class commands: they may be reordered
    // against each other freely (reads share one snapshot per shard,
    // writes commit as one batch per shard), but never across a
    // class boundary — that is what preserves per-connection
    // read-your-own-writes ordering.
    size_t j = i + 1;
    while (j < n && (*cmds)[j].spec != nullptr &&
           (*cmds)[j].spec->cls == cls) {
      ++j;
    }
    if (cls == CommandClass::kRead) {
      ExecuteReadRun(c, *cmds, i, j);
    } else {
      ExecuteWriteRun(c, *cmds, i, j);
    }
    i = j;
  }
}

void MonkeyServer::ExecuteReadRun(Connection* c,
                                  const std::vector<ParsedCommand>& cmds,
                                  size_t begin, size_t end) {
  std::string* out = c->out();
  // Arm tracing for this run: head-sampled, plus always-on while SLOWLOG
  // is active so a run that turns out slow has its span tree on capture.
  const bool slowlog_on = opts_.slowlog_threshold_us > 0;
  TraceArmer trace_armer(slowlog_on || TraceSampleHead());

  // Flatten every key of the run, remembering each command's span.
  struct ReadCmd {
    size_t first = 0;
    size_t nkeys = 0;
    const char* arity_error = nullptr;
  };
  std::vector<ReadCmd> run;
  std::vector<Slice> keys;
  run.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const ParsedCommand& cmd = cmds[i];
    ReadCmd rc;
    rc.arity_error = CheckArity(*cmd.spec, cmd.args.size());
    rc.first = keys.size();
    if (rc.arity_error == nullptr) {
      for (size_t a = 1; a < cmd.args.size(); ++a) {
        keys.push_back(cmd.args[a]);
      }
      rc.nkeys = cmd.args.size() - 1;
    }
    run.push_back(rc);
  }

  // One engine interaction per shard: a batch becomes MultiGet, a
  // singleton stays a plain Get.
  std::vector<std::string> values(keys.size());
  std::vector<Status> statuses(keys.size());
  const bool timed = metrics_ != nullptr || slowlog_on;
  const uint64_t start = timed ? NowMicros() : 0;
  TraceSpan cmd_span(TraceName::kServerCommand,
                     static_cast<int64_t>(cmds[begin].spec->id),
                     static_cast<int64_t>(end - begin),
                     static_cast<int64_t>(keys.size()));
  const ReadOptions ropts;
  if (router_.shards() == 1) {
    if (keys.size() == 1) {
      statuses[0] = dbs_[0]->Get(ropts, keys[0], &values[0]);
      point_gets_.fetch_add(1, std::memory_order_relaxed);
    } else if (keys.size() > 1) {
      statuses = dbs_[0]->MultiGet(ropts, keys, &values);
      multigets_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    std::vector<std::vector<size_t>> by_shard(
        static_cast<size_t>(router_.shards()));
    for (size_t k = 0; k < keys.size(); ++k) {
      by_shard[static_cast<size_t>(router_.ShardOf(keys[k]))].push_back(k);
    }
    for (size_t s = 0; s < by_shard.size(); ++s) {
      const std::vector<size_t>& idx = by_shard[s];
      if (idx.empty()) continue;
      if (idx.size() == 1) {
        statuses[idx[0]] =
            dbs_[s]->Get(ropts, keys[idx[0]], &values[idx[0]]);
        point_gets_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::vector<Slice> shard_keys;
      shard_keys.reserve(idx.size());
      for (size_t k : idx) shard_keys.push_back(keys[k]);
      std::vector<std::string> shard_values;
      std::vector<Status> shard_statuses =
          dbs_[s]->MultiGet(ropts, shard_keys, &shard_values);
      multigets_.fetch_add(1, std::memory_order_relaxed);
      // Reassemble in request order.
      for (size_t k = 0; k < idx.size(); ++k) {
        values[idx[k]] = std::move(shard_values[k]);
        statuses[idx[k]] = shard_statuses[k];
      }
    }
  }
  cmd_span.Finish();
  const uint64_t elapsed = timed ? NowMicros() - start : 0;
  if (slowlog_on && elapsed >= opts_.slowlog_threshold_us) {
    RecordSlowRun(cmds[begin], end - begin, elapsed);
  }

  // Replies, in command order.
  uint64_t n_get = 0, n_mget = 0, n_other = 0;
  for (size_t i = begin; i < end; ++i) {
    const ParsedCommand& cmd = cmds[i];
    const ReadCmd& rc = run[i - begin];
    if (rc.arity_error != nullptr) {
      resp::AppendError(out, rc.arity_error);
      continue;
    }
    switch (cmd.spec->id) {
      case CommandId::kGet: {
        const Status& s = statuses[rc.first];
        if (s.ok()) {
          resp::AppendBulk(out, values[rc.first]);
        } else if (s.IsNotFound()) {
          resp::AppendNull(out);
        } else {
          const std::string msg = "ERR " + s.ToString();
          resp::AppendError(out, msg);
        }
        ++n_get;
        break;
      }
      case CommandId::kMGet: {
        resp::AppendArrayHeader(out, rc.nkeys);
        for (size_t k = 0; k < rc.nkeys; ++k) {
          const Status& s = statuses[rc.first + k];
          if (s.ok()) {
            resp::AppendBulk(out, values[rc.first + k]);
          } else {
            resp::AppendNull(out);  // MGET degrades errors to nil.
          }
        }
        ++n_mget;
        break;
      }
      case CommandId::kExists: {
        long long found = 0;
        for (size_t k = 0; k < rc.nkeys; ++k) {
          if (statuses[rc.first + k].ok()) ++found;
        }
        resp::AppendInteger(out, found);
        ++n_other;
        break;
      }
      default:
        resp::AppendError(out, "ERR internal: non-read command in run");
        break;
    }
  }
  RecordCommandLatency(Hist::kServerGetLatency, elapsed, n_get);
  RecordCommandLatency(Hist::kServerMGetLatency, elapsed, n_mget);
  RecordCommandLatency(Hist::kServerOtherLatency, elapsed, n_other);
}

void MonkeyServer::ExecuteWriteRun(Connection* c,
                                   const std::vector<ParsedCommand>& cmds,
                                   size_t begin, size_t end) {
  std::string* out = c->out();
  const size_t nshards = static_cast<size_t>(router_.shards());
  const bool slowlog_on = opts_.slowlog_threshold_us > 0;
  TraceArmer trace_armer(slowlog_on || TraceSampleHead());

  // DEL needs to report how many of its keys existed; probe them all in
  // one batched existence pass per shard before the deletes commit.
  std::vector<std::vector<Slice>> del_keys(nshards);
  for (size_t i = begin; i < end; ++i) {
    const ParsedCommand& cmd = cmds[i];
    if (cmd.spec->id != CommandId::kDel ||
        CheckArity(*cmd.spec, cmd.args.size()) != nullptr) {
      continue;
    }
    for (size_t a = 1; a < cmd.args.size(); ++a) {
      del_keys[static_cast<size_t>(router_.ShardOf(cmd.args[a]))]
          .push_back(cmd.args[a]);
    }
  }
  const bool timed = metrics_ != nullptr || slowlog_on;
  const uint64_t start = timed ? NowMicros() : 0;
  TraceSpan cmd_span(TraceName::kServerCommand,
                     static_cast<int64_t>(cmds[begin].spec->id),
                     static_cast<int64_t>(end - begin), 0);
  // exists[shard] maps key -> found (a key DEL'd twice in one run counts
  // once per mention, matching sequential semantics closely enough for a
  // batch that commits atomically).
  std::vector<std::map<std::string, bool>> exists(nshards);
  const ReadOptions ropts;
  for (size_t s = 0; s < nshards; ++s) {
    if (del_keys[s].empty()) continue;
    if (del_keys[s].size() == 1) {
      std::string scratch;
      const Status st = dbs_[s]->Get(ropts, del_keys[s][0], &scratch);
      point_gets_.fetch_add(1, std::memory_order_relaxed);
      exists[s][del_keys[s][0].ToString()] = st.ok();
      continue;
    }
    std::vector<std::string> scratch;
    const std::vector<Status> sts =
        dbs_[s]->MultiGet(ropts, del_keys[s], &scratch);
    multigets_.fetch_add(1, std::memory_order_relaxed);
    for (size_t k = 0; k < del_keys[s].size(); ++k) {
      exists[s][del_keys[s][k].ToString()] = sts[k].ok();
    }
  }

  // Build one WriteBatch per shard, in command order, and commit each
  // through the group-commit path.
  std::vector<WriteBatch> batches(nshards);
  for (size_t i = begin; i < end; ++i) {
    const ParsedCommand& cmd = cmds[i];
    if (CheckArity(*cmd.spec, cmd.args.size()) != nullptr) continue;
    switch (cmd.spec->id) {
      case CommandId::kSet:
        batches[static_cast<size_t>(router_.ShardOf(cmd.args[1]))].Put(
            cmd.args[1], cmd.args[2]);
        break;
      case CommandId::kMSet:
        for (size_t a = 1; a + 1 < cmd.args.size(); a += 2) {
          batches[static_cast<size_t>(router_.ShardOf(cmd.args[a]))].Put(
              cmd.args[a], cmd.args[a + 1]);
        }
        break;
      case CommandId::kDel:
        for (size_t a = 1; a < cmd.args.size(); ++a) {
          batches[static_cast<size_t>(router_.ShardOf(cmd.args[a]))]
              .Delete(cmd.args[a]);
        }
        break;
      default:
        break;
    }
  }
  std::vector<Status> shard_status(nshards);
  const WriteOptions wopts;  // Durability comes from db_options.sync_writes.
  int64_t total_ops = 0;
  for (size_t s = 0; s < nshards; ++s) {
    if (batches[s].count() == 0) continue;
    total_ops += static_cast<int64_t>(batches[s].count());
    shard_status[s] = dbs_[s]->Write(wopts, batches[s]);
    engine_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  if (cmd_span.armed()) {
    cmd_span.set_args(static_cast<int64_t>(cmds[begin].spec->id),
                      static_cast<int64_t>(end - begin), total_ops);
  }
  cmd_span.Finish();
  const uint64_t elapsed = timed ? NowMicros() - start : 0;
  if (slowlog_on && elapsed >= opts_.slowlog_threshold_us) {
    RecordSlowRun(cmds[begin], end - begin, elapsed);
  }

  // Replies, in command order. A failed shard write fails every command
  // of the run that touched that shard.
  uint64_t n_set = 0, n_mset = 0, n_del = 0;
  for (size_t i = begin; i < end; ++i) {
    const ParsedCommand& cmd = cmds[i];
    const char* arity_error = CheckArity(*cmd.spec, cmd.args.size());
    if (arity_error != nullptr) {
      resp::AppendError(out, arity_error);
      continue;
    }
    const Status* failed = nullptr;
    for (size_t a = 1; a < cmd.args.size();
         a += cmd.spec->id == CommandId::kMSet ? 2 : 1) {
      const size_t s = static_cast<size_t>(router_.ShardOf(cmd.args[a]));
      if (!shard_status[s].ok()) {
        failed = &shard_status[s];
        break;
      }
    }
    if (failed != nullptr) {
      const std::string msg = "ERR " + failed->ToString();
      resp::AppendError(out, msg);
      continue;
    }
    switch (cmd.spec->id) {
      case CommandId::kSet:
        resp::AppendSimpleString(out, "OK");
        ++n_set;
        break;
      case CommandId::kMSet:
        resp::AppendSimpleString(out, "OK");
        ++n_mset;
        break;
      case CommandId::kDel: {
        long long removed = 0;
        for (size_t a = 1; a < cmd.args.size(); ++a) {
          const size_t s =
              static_cast<size_t>(router_.ShardOf(cmd.args[a]));
          auto it = exists[s].find(cmd.args[a].ToString());
          if (it != exists[s].end() && it->second) ++removed;
        }
        resp::AppendInteger(out, removed);
        ++n_del;
        break;
      }
      default:
        resp::AppendError(out, "ERR internal: non-write command in run");
        break;
    }
  }
  RecordCommandLatency(Hist::kServerSetLatency, elapsed, n_set);
  RecordCommandLatency(Hist::kServerMSetLatency, elapsed, n_mset);
  RecordCommandLatency(Hist::kServerDelLatency, elapsed, n_del);
}

void MonkeyServer::ExecuteAdmin(Connection* c, const ParsedCommand& cmd) {
  std::string* out = c->out();
  if (cmd.spec == nullptr) {
    std::string name = cmd.args[0].ToString();
    if (name.size() > 64) name.resize(64);
    const std::string msg = "ERR unknown command '" + name + "'";
    resp::AppendError(out, msg);
    return;
  }
  const char* arity_error = CheckArity(*cmd.spec, cmd.args.size());
  if (arity_error != nullptr) {
    resp::AppendError(out, arity_error);
    return;
  }
  const bool slowlog_on = opts_.slowlog_threshold_us > 0;
  TraceArmer trace_armer(slowlog_on || TraceSampleHead());
  const bool timed = metrics_ != nullptr || slowlog_on;
  const uint64_t start = timed ? NowMicros() : 0;
  TraceSpan cmd_span(TraceName::kServerAdmin,
                     static_cast<int64_t>(cmd.spec->id));
  switch (cmd.spec->id) {
    case CommandId::kPing:
      if (cmd.args.size() == 2) {
        resp::AppendBulk(out, cmd.args[1]);
      } else {
        resp::AppendSimpleString(out, "PONG");
      }
      break;
    case CommandId::kEcho:
      resp::AppendBulk(out, cmd.args[1]);
      break;
    case CommandId::kSelect:
      // One logical database; index 0 keeps redis-cli happy.
      if (cmd.args[1].compare(Slice("0")) == 0) {
        resp::AppendSimpleString(out, "OK");
      } else {
        resp::AppendError(out, "ERR DB index is out of range");
      }
      break;
    case CommandId::kCommand:
      resp::AppendArrayHeader(out, 0);  // Enough for redis-cli handshakes.
      break;
    case CommandId::kDbSize: {
      // Approximate: on-disk entries include tombstones and superseded
      // versions until compaction drops them (documented in DESIGN §14).
      uint64_t total = 0;
      for (const auto& db : dbs_) {
        const DbStats stats = db->GetStats();
        total += stats.memtable_entries + stats.total_disk_entries;
      }
      resp::AppendInteger(out, static_cast<long long>(total));
      break;
    }
    case CommandId::kInfo:
      DoInfo(c);
      break;
    case CommandId::kConfig:
      DoConfig(c, cmd);
      break;
    case CommandId::kScan:
      DoScan(c, cmd);
      break;
    case CommandId::kSlowlog:
      DoSlowlog(c, cmd);
      break;
    case CommandId::kTrace:
      DoTrace(c, cmd);
      break;
    case CommandId::kQuit:
      resp::AppendSimpleString(out, "OK");
      c->CloseAfterFlush();
      break;
    case CommandId::kShutdown:
      resp::AppendSimpleString(out, "OK");
      shutdown_requested_.store(true, std::memory_order_relaxed);
      c->CloseAfterFlush();
      break;
    default:
      resp::AppendError(out, "ERR internal: admin dispatch");
      break;
  }
  cmd_span.Finish();
  if (timed) {
    const uint64_t elapsed = NowMicros() - start;
    if (slowlog_on && elapsed >= opts_.slowlog_threshold_us) {
      RecordSlowRun(cmd, 1, elapsed);
    }
    RecordCommandLatency(cmd.spec->id == CommandId::kScan
                             ? Hist::kServerScanLatency
                             : Hist::kServerOtherLatency,
                         elapsed, 1);
  }
}

void MonkeyServer::DoScan(Connection* c, const ParsedCommand& cmd) {
  std::string* out = c->out();
  uint64_t cursor = 0;
  {
    const Slice& raw = cmd.args[1];
    uint64_t v = 0;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] < '0' || raw[i] > '9' || v > UINT64_MAX / 10 - 1) {
        resp::AppendError(out, "ERR invalid cursor");
        return;
      }
      v = v * 10 + static_cast<uint64_t>(raw[i] - '0');
    }
    if (raw.empty()) {
      resp::AppendError(out, "ERR invalid cursor");
      return;
    }
    cursor = v;
  }
  std::string pattern;
  bool have_pattern = false;
  long long count = 10;
  for (size_t i = 2; i + 1 < cmd.args.size(); i += 2) {
    const Slice& opt = cmd.args[i];
    if (opt.size() == 5 && strncasecmp(opt.data(), "match", 5) == 0) {
      pattern = cmd.args[i + 1].ToString();
      have_pattern = true;
    } else if (opt.size() == 5 &&
               strncasecmp(opt.data(), "count", 5) == 0) {
      count = atoll(cmd.args[i + 1].ToString().c_str());
      if (count < 1) {
        resp::AppendError(out, "ERR syntax error");
        return;
      }
    } else {
      resp::AppendError(out, "ERR syntax error");
      return;
    }
  }
  if ((cmd.args.size() - 2) % 2 != 0) {
    resp::AppendError(out, "ERR syntax error");
    return;
  }
  if (count > 10000) count = 10000;

  ScanState state;
  if (cursor != 0) {
    MutexLock lock(scan_mu_);
    auto it = scan_cursors_.find(cursor);
    if (it == scan_cursors_.end()) {
      resp::AppendError(out, "ERR invalid cursor");
      return;
    }
    state = it->second;
    scan_cursors_.erase(it);
  }

  // Examination budget bounds one call's work under a selective MATCH.
  const long long budget = std::max<long long>(count * 8, 512);
  long long examined = 0;
  std::vector<std::string> collected;
  bool exhausted = false;
  const ReadOptions ropts;
  while (state.shard < router_.shards()) {
    auto iter = dbs_[static_cast<size_t>(state.shard)]->NewIterator(ropts);
    scans_.fetch_add(1, std::memory_order_relaxed);
    if (state.last_key.empty()) {
      iter->SeekToFirst();
    } else {
      iter->Seek(state.last_key);
      if (iter->Valid() && iter->key().compare(state.last_key) == 0) {
        iter->Next();
      }
    }
    while (iter->Valid() &&
           static_cast<long long>(collected.size()) < count &&
           examined < budget) {
      const Slice key = iter->key();
      if (!have_pattern || GlobMatch(pattern, key)) {
        collected.push_back(key.ToString());
      }
      state.last_key = key.ToString();
      ++examined;
      iter->Next();
    }
    if (!iter->status().ok()) {
      const std::string msg = "ERR " + iter->status().ToString();
      resp::AppendError(out, msg);
      return;
    }
    if (iter->Valid()) break;  // Count or budget reached mid-shard.
    ++state.shard;
    state.last_key.clear();
  }
  exhausted = state.shard >= router_.shards();

  std::string next_cursor = "0";
  if (!exhausted) {
    MutexLock lock(scan_mu_);
    state.lru = ++scan_lru_tick_;
    uint64_t id = next_cursor_++;
    if (next_cursor_ == 0) next_cursor_ = 1;
    scan_cursors_[id] = state;
    if (scan_cursors_.size() > kMaxScanCursors) {
      auto victim = scan_cursors_.begin();
      for (auto it = scan_cursors_.begin(); it != scan_cursors_.end();
           ++it) {
        if (it->second.lru < victim->second.lru) victim = it;
      }
      scan_cursors_.erase(victim);
    }
    next_cursor = std::to_string(id);
  }

  resp::AppendArrayHeader(out, 2);
  resp::AppendBulk(out, next_cursor);
  resp::AppendArrayHeader(out, collected.size());
  for (const std::string& key : collected) resp::AppendBulk(out, key);
}

void MonkeyServer::DoConfig(Connection* c, const ParsedCommand& cmd) {
  std::string* out = c->out();
  const Slice& sub = cmd.args[1];
  if (!(sub.size() == 3 && strncasecmp(sub.data(), "get", 3) == 0) ||
      cmd.args.size() != 3) {
    resp::AppendError(out,
                      "ERR CONFIG subcommand must be GET <pattern>");
    return;
  }
  const std::pair<const char*, std::string> entries[] = {
      {"save", ""},
      {"appendonly", "no"},
      {"maxmemory", "0"},
      {"tcp-nodelay", opts_.server_tcp_nodelay ? "yes" : "no"},
      {"server_shards", U64(static_cast<uint64_t>(router_.shards()))},
      {"server_port", U64(static_cast<uint64_t>(port_))},
      {"server_max_pipeline",
       U64(static_cast<uint64_t>(opts_.server_max_pipeline))},
      {"server_output_soft_limit_bytes",
       U64(opts_.server_output_soft_limit_bytes)},
      {"server_output_hard_limit_bytes",
       U64(opts_.server_output_hard_limit_bytes)},
      {"server_max_bulk_bytes", U64(opts_.server_max_bulk_bytes)},
      {"server_max_multibulk", U64(opts_.server_max_multibulk)},
      {"server_max_inline_bytes", U64(opts_.server_max_inline_bytes)},
  };
  std::vector<std::pair<std::string, std::string>> matched;
  for (const auto& entry : entries) {
    if (GlobMatch(cmd.args[2], entry.first)) {
      matched.emplace_back(entry.first, entry.second);
    }
  }
  resp::AppendArrayHeader(out, matched.size() * 2);
  for (const auto& kv : matched) {
    resp::AppendBulk(out, kv.first);
    resp::AppendBulk(out, kv.second);
  }
}

void MonkeyServer::DoInfo(Connection* c) {
  const std::string info = InfoText(c);
  resp::AppendBulk(c->out(), info);
}

// --- SLOWLOG / TRACE --------------------------------------------------

void MonkeyServer::RecordSlowRun(const ParsedCommand& first, size_t run_len,
                                 uint64_t duration_us) {
  // Pull this run's spans out of the recorder (and render them) before
  // taking the slowlog lock.
  const uint64_t request_id = TraceLastRequestId();
  std::vector<TraceEvent> mine;
  for (const TraceEvent& e : FlightRecorder::Global()->Snapshot()) {
    if (e.request_id == request_id) mine.push_back(e);
  }
  SlowlogEntry entry;
  entry.unix_secs = static_cast<uint64_t>(::time(nullptr));
  entry.duration_us = duration_us;
  for (size_t a = 0; a < first.args.size() && a < 8; ++a) {
    std::string arg = first.args[a].ToString();
    if (arg.size() > 64) {
      arg.resize(61);
      arg += "...";
    }
    entry.args.push_back(std::move(arg));
  }
  if (first.args.size() > 8) {
    entry.args.push_back("(+" + U64(first.args.size() - 8) + " more args)");
  }
  if (run_len > 1) {
    entry.args.push_back("(+" + U64(run_len - 1) + " batched commands)");
  }
  entry.span_tree = RenderSpanForest(mine);
  MutexLock lock(slowlog_mu_);
  entry.id = next_slowlog_id_++;
  slowlog_.push_back(std::move(entry));
  while (slowlog_.size() > opts_.slowlog_max_len) slowlog_.pop_front();
}

void MonkeyServer::DoSlowlog(Connection* c, const ParsedCommand& cmd) {
  std::string* out = c->out();
  const Slice& sub = cmd.args[1];
  if (sub.size() == 3 && strncasecmp(sub.data(), "get", 3) == 0) {
    // SLOWLOG GET [n]: newest first; n < 0 (Redis convention) = all.
    long long n = 10;
    if (cmd.args.size() == 3) {
      n = atoll(cmd.args[2].ToString().c_str());
    }
    MutexLock lock(slowlog_mu_);
    const size_t count =
        n < 0 ? slowlog_.size()
              : std::min<size_t>(slowlog_.size(), static_cast<size_t>(n));
    resp::AppendArrayHeader(out, count);
    for (size_t i = 0; i < count; ++i) {
      const SlowlogEntry& e = slowlog_[slowlog_.size() - 1 - i];
      resp::AppendArrayHeader(out, 5);
      resp::AppendInteger(out, static_cast<long long>(e.id));
      resp::AppendInteger(out, static_cast<long long>(e.unix_secs));
      resp::AppendInteger(out, static_cast<long long>(e.duration_us));
      resp::AppendArrayHeader(out, e.args.size());
      for (const std::string& a : e.args) resp::AppendBulk(out, a);
      resp::AppendBulk(out, e.span_tree);
    }
    return;
  }
  if (sub.size() == 5 && strncasecmp(sub.data(), "reset", 5) == 0 &&
      cmd.args.size() == 2) {
    {
      MutexLock lock(slowlog_mu_);
      slowlog_.clear();
    }
    resp::AppendSimpleString(out, "OK");
    return;
  }
  if (sub.size() == 3 && strncasecmp(sub.data(), "len", 3) == 0 &&
      cmd.args.size() == 2) {
    MutexLock lock(slowlog_mu_);
    resp::AppendInteger(out, static_cast<long long>(slowlog_.size()));
    return;
  }
  resp::AppendError(out,
                    "ERR SLOWLOG subcommand must be GET [n], RESET or LEN");
}

void MonkeyServer::DoTrace(Connection* c, const ParsedCommand& cmd) {
  std::string* out = c->out();
  // TRACE [JSON|TREE] [ms] — a bare "TRACE <ms>" gets the TREE view.
  bool json = false;
  size_t ms_arg = 1;
  if (cmd.args.size() >= 2) {
    const Slice& sub = cmd.args[1];
    if (sub.size() == 4 && strncasecmp(sub.data(), "json", 4) == 0) {
      json = true;
      ms_arg = 2;
    } else if (sub.size() == 4 && strncasecmp(sub.data(), "tree", 4) == 0) {
      ms_arg = 2;
    } else if (cmd.args.size() == 3) {
      resp::AppendError(out, "ERR TRACE subcommand must be JSON or TREE");
      return;
    }
  }
  uint64_t min_ts = 0;
  if (cmd.args.size() > ms_arg) {
    const long long ms = atoll(cmd.args[ms_arg].ToString().c_str());
    if (ms <= 0) {
      resp::AppendError(out, "ERR invalid trace window (want ms > 0)");
      return;
    }
    const uint64_t now = TraceNowNanos();
    const uint64_t window = static_cast<uint64_t>(ms) * 1000000ULL;
    min_ts = now > window ? now - window : 0;
  }
  const std::string dump =
      json ? DumpTraceJson(min_ts)
           : RenderSpanForest(FlightRecorder::Global()->Snapshot(min_ts));
  resp::AppendBulk(out, dump);
}

std::string MonkeyServer::InfoText(const Connection* caller) const {
  std::string info;
  const EngineCalls calls = engine_calls();
  const uint64_t commands = commands_processed();
  info += "# Server\r\n";
  info += "monkeydb_version:0.8\r\n";
  info += "tcp_port:" + U64(static_cast<uint64_t>(port_)) + "\r\n";
  info += "server_shards:" + U64(static_cast<uint64_t>(router_.shards())) +
          "\r\n";
  info += std::string("io_backend_configured:") +
          (opts_.db_options.io_backend == IoBackend::kUring ? "uring"
                                                            : "posix") +
          "\r\n";
  info += "# Clients\r\n";
  info += "connected_clients:" + U64(live_connections()) + "\r\n";
  info += "total_connections_received:" + U64(total_connections()) +
          "\r\n";
  if (caller != nullptr) {
    info += "client_buffer_capacity:" + U64(caller->BufferCapacity()) +
            "\r\n";
  }
  info += "# Stats\r\n";
  info += "total_commands_processed:" + U64(commands) + "\r\n";
  info += "engine_point_gets:" + U64(calls.point_gets) + "\r\n";
  info += "engine_multigets:" + U64(calls.multigets) + "\r\n";
  info += "engine_writes:" + U64(calls.writes) + "\r\n";
  info += "engine_scans:" + U64(calls.scans) + "\r\n";
  info += "engine_calls:" + U64(calls.Total()) + "\r\n";
  {
    char buf[64];
    snprintf(buf, sizeof(buf), "engine_calls_per_command:%.4f\r\n",
             commands == 0 ? 0.0
                           : static_cast<double>(calls.Total()) /
                                 static_cast<double>(commands));
    info += buf;
  }
  if (metrics_ != nullptr) {
    info += "protocol_errors:" +
            U64(metrics_->TickTotal(Tick::kServerProtocolErrors)) + "\r\n";
    info += "backpressure_pauses:" +
            U64(metrics_->TickTotal(Tick::kServerBackpressurePauses)) +
            "\r\n";
    info += "overlimit_closes:" +
            U64(metrics_->TickTotal(Tick::kServerOverlimitCloses)) +
            "\r\n";
    info += "http_requests:" +
            U64(metrics_->TickTotal(Tick::kServerHttpRequests)) + "\r\n";
    const HistogramData depth =
        metrics_->SnapshotHistogram(Hist::kServerPipelineDepth);
    char buf[96];
    snprintf(buf, sizeof(buf),
             "pipeline_depth_avg:%.2f\r\npipeline_depth_p99:%.0f\r\n",
             depth.avg, depth.p99);
    info += buf;
  }
  for (int s = 0; s < router_.shards(); ++s) {
    const DbStats stats = dbs_[static_cast<size_t>(s)]->GetStats();
    info += "# Shard" + std::to_string(s) + "\r\n";
    info += "memtable_entries:" + U64(stats.memtable_entries) + "\r\n";
    info += "disk_entries:" + U64(stats.total_disk_entries) + "\r\n";
    info += "runs:" + U64(stats.total_runs) + "\r\n";
    info += "deepest_level:" +
            U64(static_cast<uint64_t>(stats.deepest_level)) + "\r\n";
    info += "flushes:" + U64(stats.flushes) + "\r\n";
    info += "merges:" + U64(stats.merges) + "\r\n";
    info += "write_groups:" + U64(stats.write_groups) + "\r\n";
    info += "write_group_batches:" + U64(stats.write_group_batches) +
            "\r\n";
    // The arena-backing tier (hugetlb/thp/plain/none) — operational state
    // previously visible only through in-process DumpStats().
    info += "arena_backing:" + stats.arena_backing + "\r\n";
    UringStatsSnapshot io;
    if (dbs_[static_cast<size_t>(s)]->GetUringStats(&io)) {
      info += "io_uring_active:1\r\n";
      info += "uring_sqes_submitted:" + U64(io.sqes_submitted) + "\r\n";
      info += "uring_batch_submits:" + U64(io.batch_submits) + "\r\n";
      info += "uring_batched_requests:" + U64(io.batched_requests) +
              "\r\n";
      char buf[64];
      snprintf(buf, sizeof(buf), "uring_batched_per_syscall:%.2f\r\n",
               io.BatchedPerSyscall());
      info += buf;
      info += "uring_short_read_retries:" + U64(io.short_read_retries) +
              "\r\n";
      info += "uring_fixed_file_reads:" + U64(io.fixed_file_reads) +
              "\r\n";
      info += "uring_fixed_buffer_reads:" + U64(io.fixed_buffer_reads) +
              "\r\n";
      info += "uring_direct_io_fallbacks:" + U64(io.direct_io_fallbacks) +
              "\r\n";
      info += "uring_bounce_copies:" + U64(io.bounce_copies) + "\r\n";
    } else {
      info += "io_uring_active:0\r\n";
    }
  }
  return info;
}

// --- HTTP /metrics ----------------------------------------------------

std::string MonkeyServer::MetricsText() const {
  std::string merged;
  std::set<std::string> declared;
  for (int s = 0; s < router_.shards(); ++s) {
    const std::string dump =
        dbs_[static_cast<size_t>(s)]->DumpMetrics(
            DB::MetricsFormat::kPrometheus);
    size_t pos = 0;
    while (pos < dump.size()) {
      size_t eol = dump.find('\n', pos);
      if (eol == std::string::npos) eol = dump.size();
      const std::string line = dump.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      if (line[0] == '#') {
        // "# HELP name ..." / "# TYPE name ..." — emit once per family
        // and kind across shards.
        if (declared.insert(line.substr(0, line.find(' ', 7))).second) {
          merged += line;
          merged += '\n';
        }
        continue;
      }
      merged += AddShardLabel(line, s);
      merged += '\n';
    }
  }

  // The server's own series (distinct monkey_server_* namespace).
  PrometheusWriter w;
  const EngineCalls calls = engine_calls();
  const uint64_t commands = commands_processed();
  w.Counter("monkey_server_commands_total", "RESP commands answered",
            static_cast<double>(commands));
  w.Counter("monkey_server_connections_total", "Connections accepted",
            static_cast<double>(total_connections()));
  w.Counter("monkey_server_engine_point_gets_total",
            "DB::Get calls issued for client commands",
            static_cast<double>(calls.point_gets));
  w.Counter("monkey_server_engine_multigets_total",
            "DB::MultiGet batches issued for client commands",
            static_cast<double>(calls.multigets));
  w.Counter("monkey_server_engine_writes_total",
            "WriteBatch commits issued for client commands",
            static_cast<double>(calls.writes));
  w.Counter("monkey_server_engine_scans_total",
            "Iterators opened for SCAN",
            static_cast<double>(calls.scans));
  w.Gauge("monkey_server_live_connections", "Currently open connections",
          static_cast<double>(live_connections()));
  w.Gauge("monkey_server_shards", "Keyspace shards (DB instances)",
          static_cast<double>(router_.shards()));
  w.Gauge("monkey_server_engine_calls_per_command",
          "Engine calls divided by commands served (pipelining win)",
          commands == 0 ? 0.0
                        : static_cast<double>(calls.Total()) /
                              static_cast<double>(commands));
  if (metrics_ != nullptr) {
    w.Counter("monkey_server_protocol_errors_total",
              "Malformed RESP frames",
              static_cast<double>(
                  metrics_->TickTotal(Tick::kServerProtocolErrors)));
    w.Counter("monkey_server_backpressure_pauses_total",
              "Reads paused on slow clients (output over soft limit)",
              static_cast<double>(
                  metrics_->TickTotal(Tick::kServerBackpressurePauses)));
    w.Counter("monkey_server_overlimit_closes_total",
              "Connections closed over the output hard limit",
              static_cast<double>(
                  metrics_->TickTotal(Tick::kServerOverlimitCloses)));
    w.Counter("monkey_server_http_requests_total", "HTTP requests served",
              static_cast<double>(
                  metrics_->TickTotal(Tick::kServerHttpRequests)));
    const Hist latencies[] = {
        Hist::kServerGetLatency,  Hist::kServerSetLatency,
        Hist::kServerDelLatency,  Hist::kServerMGetLatency,
        Hist::kServerMSetLatency, Hist::kServerScanLatency,
        Hist::kServerOtherLatency, Hist::kServerPipelineDepth,
    };
    for (Hist h : latencies) {
      w.Summary(std::string("monkey_") + HistName(h),
                "Serving-layer distribution (see obs/metrics.h)",
                metrics_->SnapshotHistogram(h));
    }
  }
  return merged + w.str();
}

std::string MonkeyServer::HandleHttpRequest(const Slice& method,
                                            const Slice& path) {
  std::string body;
  const char* status_line = "200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  // Split any "?query" off the target so /trace can take a window.
  std::string target(path.data(), path.size());
  std::string query;
  const size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    query = target.substr(qpos + 1);
    target.resize(qpos);
  }
  if (target == "/metrics") {
    body = MetricsText();
  } else if (target == "/healthz") {
    body = "ok\n";
  } else if (target == "/info") {
    body = InfoText();
  } else if (target == "/trace") {
    // GET /trace[?ms=N]: Chrome/Perfetto JSON of the flight recorder,
    // optionally limited to the last N milliseconds.
    uint64_t min_ts = 0;
    if (query.compare(0, 3, "ms=") == 0) {
      const long long ms = atoll(query.c_str() + 3);
      if (ms > 0) {
        const uint64_t now = TraceNowNanos();
        const uint64_t window = static_cast<uint64_t>(ms) * 1000000ULL;
        min_ts = now > window ? now - window : 0;
      }
    }
    body = DumpTraceJson(min_ts);
    content_type = "application/json";
  } else {
    status_line = "404 Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.0 ";
  response += status_line;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: " + std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  if (method.compare(Slice("HEAD")) != 0) response += body;
  return response;
}

}  // namespace monkeydb
