// ledger: the load generator of the repository benchmark (README.md in this
// directory has the workload and metric tables).
//
// One run of a workload is a number of rounds. Each round spawns the shipped
// monkey_server binary with its defaults (1 shard, posix I/O, uniform 5
// bits/entry filters, no block cache, no fsync, compaction inline on the
// event-loop thread), loads a seeded dataset over RESP, then drives two
// phases against it:
//
//   closed  2 threads x 1 connection, batches of 16 pipelined requests with
//           two batches in flight, a fixed op count: server CPU per op and
//           the per-layer counts.
//   open    1 connection, one sender and one reader thread; requests arrive
//           as a seeded Poisson process and each one is timed from its
//           scheduled send time to its reply, so generator lateness and
//           queueing count against latency.
//
// Each server instance lands on its own memory layout and meets its own
// share of host interference, so a run reports the median over its rounds
// of set-up time and memory, and the cheapest round's CPU per op. Counts
// are pooled over rounds.
// The first 5% of each phase is warm-up and excluded. Counts come from
// /metrics and /proc/<pid>/io deltas at the phase boundaries, CPU time from
// the server's process CPU clock. Every reply is checked: a GET of a present
// key must return a value bound to that key, a GET of an absent key nil, a
// SET +OK, and the server must exit 0 after SHUTDOWN.
//
//   ledger --workload get_miss --seed 1 [--seconds 10] [--trace-dir DIR]
//          [--data-root DIR]
//   ledger --smoke [--data-root DIR]
//
// --trace-dir adds the traced rerun: one more server, with tracing and
// engine metrics on, runs the closed phase at half its ops while its /trace
// endpoint is scraped into DIR/<workload> (run.py merges and checks the
// scrapes). --smoke runs every workload at 1/50 of its ops in one round,
// traced rerun included, and exits nonzero on any failed check.
//
// Every metric is printed by name with its unit; the last stdout line is one
// JSON object with the run's correctness, op counts and metrics.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/resp_client.h"

extern char** environ;

namespace {

using monkeydb::RespClient;
using monkeydb::RespReply;
namespace fs = std::filesystem;

constexpr double kKeyBytes = 16;  // "user%012d".
constexpr size_t kValueBytes = 100;
constexpr int kClosedThreads = 2;
constexpr int kClosedDepth = 16;
constexpr uint64_t kInFlight = 2;  // Batches in flight per connection.
constexpr int kLoadDepth = 256;
constexpr double kWarmupShare = 0.05;
// The server keeps 8192 trace events per thread. At 1% sampling get_miss
// fills that in ~130 ms, shorter than a scrape window; at 0.2% the ring
// holds ~700 ms, longer than one.
constexpr double kTraceSample = 0.002;
// /trace is scraped every 200 ms for its last 500 ms, so consecutive
// windows overlap even when an inline merge holds a scrape back ~300 ms.
constexpr int kScrapePeriodMs = 200;
constexpr int kScrapeWindowMs = 500;
constexpr int kClientSpanEvery = 64;  // Client spans kept: 1 batch in 64.
constexpr int kReplyTimeoutSecs = 10;
constexpr int kLevels = 8;  // Per-level metrics reported: L1..L8.
constexpr double kEq3Tolerance = 0.15;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile (sorts the sample in place).
double Percentile(std::vector<float>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::min(v->size(), std::max<size_t>(rank, 1)) - 1];
}

std::string Count(uint64_t n, const char* what) {
  return std::to_string(n) + " " + what;
}

// --- CPU placement -----------------------------------------------------------

// With at least four CPUs the server runs on the first half and the load
// generator on the second, so neither competes with the other for a CPU.
struct Placement {
  bool pinned = false;
  cpu_set_t server;
  cpu_set_t ledger;
};

Placement PlanPlacement() {
  Placement p;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof(all), &all) != 0) return p;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpus.push_back(c);
  }
  if (cpus.size() < 4) return p;
  CPU_ZERO(&p.server);
  CPU_ZERO(&p.ledger);
  for (size_t i = 0; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], i < cpus.size() / 2 ? &p.server : &p.ledger);
  }
  p.pinned = true;
  return p;
}

// --- Seeded generators -------------------------------------------------------

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t x) { return SplitMix(&x); }

// Independent streams of one seed. Each round draws fresh ones:
// stream = kind + kStreamsPerRound * round.
enum Stream : uint64_t {
  kStreamLoad = 1,
  kStreamClosed = 2,  // + thread index.
  kStreamOpenOps = 4,
  kStreamOpenArrivals = 5,
  kStreamTraced = 6,  // + thread index.
  kStreamsPerRound = 16,
};

class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : state_(Mix64(seed) ^ Mix64(stream * 0x632be59bd9b4e019ull)) {}
  uint64_t Next() { return SplitMix(&state_); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Uniform() {  // In (0, 1].
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

// --- Keys and values ---------------------------------------------------------

// Present keys are user%012d over [0, keys); an absent key is a present key
// plus "x", which sorts inside the key range.
std::string KeyOf(uint64_t index, bool absent) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu%s",
           static_cast<unsigned long long>(index), absent ? "x" : "");
  return buf;
}

// 100 bytes that bind the value to its key and writer version: the key's
// hash and the version in hex, then filler seeded from both.
std::string ValueOf(uint64_t index, uint32_t version) {
  const uint64_t h = Mix64(index);
  char head[32];
  snprintf(head, sizeof(head), "%016llx%08x",
           static_cast<unsigned long long>(h), version);
  std::string v(head, 24);
  uint64_t s = h ^ (uint64_t{version} * 0xd1b54a32d192ed03ull);
  while (v.size() < kValueBytes) {
    uint64_t r = SplitMix(&s);
    for (int b = 0; b < 8 && v.size() < kValueBytes; ++b, r >>= 8) {
      v.push_back(static_cast<char>('a' + (r & 0xff) % 26));
    }
  }
  return v;
}

bool ValueMatches(uint64_t index, const std::string& v) {
  if (v.size() != kValueBytes) return false;
  const std::string hex = v.substr(16, 8);
  char* end = nullptr;
  const unsigned long version = strtoul(hex.c_str(), &end, 16);
  if (end != hex.c_str() + 8) return false;
  return v == ValueOf(index, static_cast<uint32_t>(version));
}

void AppendBulk(std::string* out, const std::string& s) {
  out->push_back('$');
  out->append(std::to_string(s.size()));
  out->append("\r\n");
  out->append(s);
  out->append("\r\n");
}

void AppendSet(std::string* out, uint64_t key, uint32_t version) {
  out->append("*3\r\n$3\r\nSET\r\n");
  AppendBulk(out, KeyOf(key, false));
  AppendBulk(out, ValueOf(key, version));
}

// --- Workloads ---------------------------------------------------------------

enum class Mix { kGetHit, kGetMiss, kMixed };

struct Workload {
  const char* name;
  uint64_t keys;
  Mix mix;
  // Closed-phase ops per second of --seconds: sized so the closed phase
  // takes about half the run on a 4-core x86 host.
  double closed_ops_per_s;
  // Open-loop arrival rate, about 30% of the closed capacity, so p50
  // measures service time rather than backlog.
  double open_rate;
  int rounds;
};

// hot_get fits the 1 MiB memtable (the server's only cache of its own);
// the other three share one dataset about 30x the memtable. hot_get's
// set-up is ~10 ms, so it affords more rounds.
constexpr Workload kWorkloads[] = {
    {"hot_get", 4096, Mix::kGetHit, 800000, 150000, 30},
    {"get_miss", 250000, Mix::kGetMiss, 380000, 114000, 10},
    {"get_hit", 250000, Mix::kGetHit, 180000, 54000, 10},
    {"mixed_rw", 250000, Mix::kMixed, 160000, 48000, 10},
};

struct Op {
  bool set = false;
  uint64_t key = 0;
  uint32_t version = 0;  // SETs only.
};

// Draws a workload's ops. SET versions carry the stream kind in their top
// byte, so two writers to one server never produce the same version.
class OpSource {
 public:
  OpSource(const Workload& w, uint64_t keys, uint64_t seed, uint64_t stream)
      : w_(w),
        keys_(keys),
        rng_(seed, stream),
        version_base_(static_cast<uint32_t>(stream % kStreamsPerRound)
                      << 24) {}

  Op Next() {
    Op op;
    op.key = rng_.Below(keys_);
    if (w_.mix == Mix::kMixed && (rng_.Next() & 1) != 0) {
      op.set = true;
      op.version = version_base_ | (++writes_ & 0xffffff);
    }
    return op;
  }

  void Encode(const Op& op, std::string* out) const {
    if (op.set) {
      AppendSet(out, op.key, op.version);
    } else {
      out->append("*2\r\n$3\r\nGET\r\n");
      AppendBulk(out, KeyOf(op.key, w_.mix == Mix::kGetMiss));
    }
  }

  bool Check(const Op& op, const RespReply& r) const {
    if (op.set) {
      return r.type == RespReply::Type::kSimple && r.str == "OK";
    }
    if (w_.mix == Mix::kGetMiss) return r.type == RespReply::Type::kNull;
    return r.type == RespReply::Type::kBulk && ValueMatches(op.key, r.str);
  }

 private:
  const Workload& w_;
  uint64_t keys_;
  Rng rng_;
  uint32_t version_base_;
  uint32_t writes_ = 0;
};

// Ops attempted, the SETs among them, and the failures: wrong replies,
// errors and timeouts.
struct Tally {
  uint64_t attempted = 0;
  uint64_t sets = 0;
  uint64_t failed = 0;

  void Add(const Tally& t) {
    attempted += t.attempted;
    sets += t.sets;
    failed += t.failed;
  }
};

// --- Connections -------------------------------------------------------------

void SetSocketTimeouts(int fd) {
  struct timeval tv;
  tv.tv_sec = kReplyTimeoutSecs;
  tv.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool Connect(RespClient* client, int port) {
  if (!client->Connect("127.0.0.1", port).ok()) return false;
  SetSocketTimeouts(client->fd());
  return true;
}

// One HTTP/1.0 GET against the server's HTTP endpoint on the RESP port.
bool HttpGet(int port, const std::string& path, std::string* body) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  SetSocketTimeouts(fd);
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  bool ok = connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0 &&
            send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
                static_cast<ssize_t>(request.size());
  std::string response;
  char chunk[65536];
  while (ok) {
    const ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      ok = errno == EINTR;
      continue;
    }
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  const size_t split = response.find("\r\n\r\n");
  if (!ok || response.compare(0, 12, "HTTP/1.0 200") != 0 ||
      split == std::string::npos) {
    return false;
  }
  *body = response.substr(split + 4);
  return true;
}

// --- The server process ------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns the server on an ephemeral port and waits for its
  // "listening on" line. The server gets the ledger's environment minus
  // MONKEYDB_* overrides, so it runs exactly as shipped.
  bool Start(const std::string& bin, const std::string& data_dir,
             bool traced, const Placement& placement, std::string* err) {
    std::vector<std::string> args = {bin, "--port", "0", "--data-dir",
                                     data_dir};
    if (traced) {
      char rate[32];
      snprintf(rate, sizeof(rate), "%g", kTraceSample);
      args.insert(args.end(), {"--trace-sample", rate, "--engine-metrics"});
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (strncmp(*e, "MONKEYDB_", 9) != 0) envp.push_back(*e);
    }
    envp.push_back(nullptr);
    const std::string log_path = data_dir + ".log";

    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) {
      *err = "pipe failed";
      return false;
    }
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      *err = "fork failed";
      close(fds[0]);
      close(fds[1]);
      return false;
    }
    if (pid_ == 0) {
      // The server dies with the ledger, however the ledger ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      if (placement.pinned) {
        sched_setaffinity(0, sizeof(placement.server), &placement.server);
      }
      dup2(fds[1], STDOUT_FILENO);
      const int log =
          open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) dup2(log, STDERR_FILENO);
      execve(argv[0], argv.data(), envp.data());
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    if (clock_getcpuclockid(pid_, &cpu_clock_) != 0) {
      *err = "no CPU clock for the server";
      Kill();
      return false;
    }

    std::string line;
    const uint64_t deadline = NowNanos() + 30ull * 1000000000ull;
    while (line.find('\n') == std::string::npos && NowNanos() < deadline) {
      struct pollfd p = {out_fd_, POLLIN, 0};
      if (poll(&p, 1, 100) <= 0) continue;
      char c[256];
      const ssize_t n = read(out_fd_, c, sizeof(c));
      if (n <= 0) break;
      line.append(c, static_cast<size_t>(n));
    }
    const size_t at = line.find("listening on ");
    const size_t colon =
        at == std::string::npos ? std::string::npos : line.find(':', at);
    port_ = colon == std::string::npos ? 0 : atoi(line.c_str() + colon + 1);
    if (port_ <= 0) {
      *err = "server did not report its port (see " + log_path + ")";
      Kill();
      return false;
    }
    return true;
  }

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // CPU time of every server thread so far, exited ones included.
  double CpuSeconds() const {
    struct timespec t;
    if (clock_gettime(cpu_clock_, &t) != 0) return 0;
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
  }

  // SHUTDOWN, then wait for the process; true iff it replied +OK and
  // exited with code 0.
  bool Shutdown(std::string* err) {
    RespClient client;
    RespReply reply;
    const bool acked =
        Connect(&client, port_) &&
        client.Command({"SHUTDOWN"}, &reply).ok() &&
        reply.type == RespReply::Type::kSimple && reply.str == "OK";
    client.Close();
    const uint64_t deadline = NowNanos() + 60ull * 1000000000ull;
    while (NowNanos() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        Kill();
        const bool clean =
            acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (!clean) *err = "server did not shut down cleanly";
        return clean;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    *err = "server did not exit after SHUTDOWN";
    Kill();
    return false;
  }

  void Kill() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  // Kept open so the server's last printf cannot SIGPIPE.
  int port_ = 0;
  clockid_t cpu_clock_ = CLOCK_MONOTONIC;
};

// --- Scrapes -----------------------------------------------------------------

struct PromSample {
  std::string name;
  std::string labels;
  double value = 0;
};

// A /metrics exposition plus the server's CPU time and file I/O bytes.
struct Scrape {
  std::vector<PromSample> samples;
  double cpu_s = 0;
  uint64_t rchar = 0;  // Bytes read(2)/pread(2) from files: page-cache reads.
  uint64_t wchar = 0;  // Bytes write(2)n to files (sockets use send/recv).

  // Sum over every series of `name`, quantile samples excluded.
  double Sum(const std::string& name) const {
    double total = 0;
    for (const PromSample& s : samples) {
      if (s.name == name && s.labels.find("quantile=") == std::string::npos) {
        total += s.value;
      }
    }
    return total;
  }
  double Level(const std::string& name, int level) const {
    const std::string want = "level=\"" + std::to_string(level) + "\"";
    for (const PromSample& s : samples) {
      if (s.name == name && s.labels.find(want) != std::string::npos) {
        return s.value;
      }
    }
    return 0;
  }
};

bool TakeScrape(const ServerProcess& server, Scrape* out) {
  out->cpu_s = server.CpuSeconds();
  std::string text;
  if (!HttpGet(server.port(), "/metrics", &text)) return false;
  out->samples.clear();
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    if (line.empty() || line[0] == '#' || space == std::string::npos) {
      continue;
    }
    const size_t brace = line.find('{');
    PromSample s;
    s.name = line.substr(0, std::min(brace, space));
    if (brace < space) s.labels = line.substr(brace, space - brace);
    s.value = strtod(line.c_str() + space + 1, nullptr);
    out->samples.push_back(std::move(s));
  }
  std::ifstream io("/proc/" + std::to_string(server.pid()) + "/io");
  while (std::getline(io, line)) {
    if (line.rfind("rchar:", 0) == 0) {
      out->rchar = strtoull(line.c_str() + 6, nullptr, 10);
    } else if (line.rfind("wchar:", 0) == 0) {
      out->wchar = strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return out->wchar > 0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// --- Results -----------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit,
              const std::string& note = "") {
    metrics_.push_back({name, std::isfinite(value) ? value : 0, unit});
    printf("  %-34s %14.6g %-6s %s\n", name.c_str(), value, unit,
           note.c_str());
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    ok_ = ok_ && ok;
    printf("  check %-28s %-4s %s\n", name.c_str(), ok ? "ok" : "FAIL",
           detail.c_str());
  }
  void Fail(const std::string& why) { Check("run", false, why); }

  std::string Json(const Tally& tally) const {
    std::string out = "{\"correct\": ";
    out += ok_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted);
    out += ", \"failed\": " + std::to_string(tally.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out += (i > 0 ? ", \"" : "\"") + metrics_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    return out + "}}";
  }
  bool ok() const { return ok_; }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  bool ok_ = true;
};

// --- Load --------------------------------------------------------------------

// The load's wire bytes: SETs of every key in a seeded order, cut into
// batches of kLoadDepth. Every round of a run loads the same data, so the
// batches are encoded once, before anything is timed.
std::vector<std::string> EncodeLoad(uint64_t keys, uint64_t seed) {
  std::vector<uint64_t> order(keys);
  for (uint64_t i = 0; i < keys; ++i) order[i] = i;
  Rng rng(seed, kStreamLoad);
  for (uint64_t i = keys; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  std::vector<std::string> batches((keys + kLoadDepth - 1) / kLoadDepth);
  for (uint64_t i = 0; i < keys; ++i) {
    AppendSet(&batches[i / kLoadDepth], order[i], 0);
  }
  return batches;
}

// Sends the load on one connection with kInFlight batches outstanding, so
// the server never waits for the next batch; returns once every reply is in.
bool Load(int port, uint64_t keys, const std::vector<std::string>& batches,
          Tally* tally) {
  RespClient client;
  tally->attempted += keys;
  if (!Connect(&client, port)) {
    tally->failed += keys;
    return false;
  }
  RespReply reply;
  uint64_t sent = 0;
  uint64_t replies = 0;
  while (replies < keys) {
    while (sent < batches.size() &&
           (sent + 1) * kLoadDepth <= replies + kInFlight * kLoadDepth) {
      if (!client.SendRaw(batches[sent]).ok()) {
        tally->failed += keys - replies;
        return false;
      }
      ++sent;
    }
    if (!client.ReadReply(&reply).ok()) {
      tally->failed += keys - replies;
      return false;
    }
    if (reply.type != RespReply::Type::kSimple || reply.str != "OK") {
      ++tally->failed;
    }
    ++replies;
  }
  return true;
}

// --- Closed loop -------------------------------------------------------------

// Holds the client threads at the end of warm-up until the main thread has
// scraped, so the measured interval starts with both pipelines drained.
class WarmupGate {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void WaitForAll(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return arrived_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

// The benchmark's own client-side span: one pipelined batch, from its send
// to its last reply.
struct ClientSpan {
  uint64_t begin_ns;
  uint64_t end_ns;
};

struct ClosedThread {
  Tally tally;
  uint64_t measured_ops = 0;
  double request_ns_sum = 0;  // Send -> reply, summed per measured request.
  std::vector<ClientSpan> spans;
};

// Keeps kInFlight batches of kClosedDepth requests outstanding, so the
// server always has the next batch queued when it finishes one.
void ClosedWorker(const Workload& w, uint64_t keys, int port, uint64_t seed,
                  uint64_t stream, uint64_t ops, uint64_t warmup,
                  bool keep_spans, WarmupGate* gate, ClosedThread* out) {
  struct Batch {
    Op ops[kClosedDepth];
    uint64_t sent_ns = 0;
    std::string wire;
  };
  OpSource source(w, keys, seed, stream);
  RespClient client;
  bool healthy = Connect(&client, port);
  Batch inflight[kInFlight];
  RespReply reply;
  const uint64_t batches = ops / kClosedDepth;
  const uint64_t warm_batches = warmup / kClosedDepth;
  bool warm = false;
  uint64_t sent = 0;
  uint64_t received = 0;
  while (received < batches) {
    // Warm-up batches drain completely before the gate.
    while (sent < batches && sent - received < kInFlight &&
           (warm || sent < warm_batches)) {
      Batch& b = inflight[sent % kInFlight];
      b.wire.clear();
      for (Op& op : b.ops) {
        op = source.Next();
        source.Encode(op, &b.wire);
        out->tally.sets += op.set ? 1 : 0;
      }
      out->tally.attempted += kClosedDepth;
      b.sent_ns = NowNanos();
      healthy = healthy && client.SendRaw(b.wire).ok();
      ++sent;
    }
    if (!warm && received == warm_batches) {
      gate->Arrive();
      warm = true;
      continue;
    }
    Batch& b = inflight[received % kInFlight];
    uint64_t last = b.sent_ns;
    for (int j = 0; j < kClosedDepth; ++j) {
      healthy = healthy && client.ReadReply(&reply).ok();
      if (!healthy) {
        out->tally.failed += kClosedDepth - j;
        break;
      }
      last = NowNanos();
      if (warm) out->request_ns_sum += static_cast<double>(last - b.sent_ns);
      if (!source.Check(b.ops[j], reply)) ++out->tally.failed;
    }
    if (warm) {
      out->measured_ops += kClosedDepth;
      if (keep_spans && received % kClientSpanEvery == 0) {
        out->spans.push_back({b.sent_ns, last});
      }
    }
    ++received;
  }
  if (!warm) gate->Arrive();
}

// Writes each /trace window to dir/scrape-NNNN.json, and the measured
// interval (steady clock, the server's trace clock) to dir/phase.tsv.
class TraceScraper {
 public:
  TraceScraper(const std::string& dir, int port) : dir_(dir), port_(port) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
  }
  bool Scrape() {
    std::string body;
    if (!HttpGet(port_, "/trace?ms=" + std::to_string(kScrapeWindowMs),
                 &body)) {
      return false;
    }
    char name[32];
    snprintf(name, sizeof(name), "scrape-%04d.json", count_++);
    std::ofstream(dir_ + "/" + name) << body;
    return true;
  }
  void WritePhase(uint64_t start_ns, uint64_t end_ns) {
    std::ofstream(dir_ + "/phase.tsv") << start_ns << '\t' << end_ns << '\n';
  }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  int port_;
  int count_ = 0;
};

struct ClosedResult {
  bool ok = false;
  Scrape begin;
  Scrape end;
  double wall_s = 0;
  uint64_t measured_ops = 0;
  double request_us = 0;
  std::vector<std::vector<ClientSpan>> spans;

  double CpuUsPerOp() const {
    return Ratio((end.cpu_s - begin.cpu_s) * 1e6,
                 static_cast<double>(measured_ops));
  }
};

ClosedResult RunClosed(const Workload& w, uint64_t keys,
                       const ServerProcess& server, uint64_t seed,
                       uint64_t stream, uint64_t ops, TraceScraper* scraper,
                       Tally* tally) {
  const uint64_t per_thread = ops / kClosedThreads;
  const uint64_t warmup =
      static_cast<uint64_t>(static_cast<double>(per_thread) * kWarmupShare) /
      kClosedDepth * kClosedDepth;
  WarmupGate gate;
  std::vector<ClosedThread> results(kClosedThreads);
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClosedThreads; ++t) {
    threads.emplace_back([&, t] {
      ClosedWorker(w, keys, server.port(), seed, stream + t, per_thread,
                   warmup, scraper != nullptr, &gate, &results[t]);
      finished.fetch_add(1);
    });
  }
  ClosedResult r;
  gate.WaitForAll(kClosedThreads);
  r.ok = TakeScrape(server, &r.begin);
  const uint64_t start = NowNanos();
  gate.Open();
  for (uint64_t next = start;
       scraper != nullptr && finished.load() < kClosedThreads;) {
    r.ok = scraper->Scrape() && r.ok;
    next = std::max<uint64_t>(next + kScrapePeriodMs * 1000000ull,
                              NowNanos());
    while (finished.load() < kClosedThreads && NowNanos() < next) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  for (std::thread& t : threads) t.join();
  r.wall_s = SecondsSince(start);
  if (scraper != nullptr) {
    scraper->WritePhase(start, NowNanos());
    r.ok = scraper->Scrape() && r.ok;
  }
  r.ok = TakeScrape(server, &r.end) && r.ok;
  double request_ns = 0;
  for (ClosedThread& c : results) {
    tally->Add(c.tally);
    r.measured_ops += c.measured_ops;
    request_ns += c.request_ns_sum;
    r.spans.push_back(std::move(c.spans));
  }
  r.request_us =
      Ratio(request_ns, static_cast<double>(r.measured_ops)) / 1e3;
  return r;
}

// --- Open loop ---------------------------------------------------------------

// The open phase's request sequence. Sender and reader each run their own
// copy from the same seed, so they agree on every request without sharing
// state.
class Arrivals {
 public:
  Arrivals(const Workload& w, uint64_t keys, uint64_t seed, uint64_t round,
           double rate)
      : ops_(w, keys, seed, kStreamOpenOps + kStreamsPerRound * round),
        rng_(seed, kStreamOpenArrivals + kStreamsPerRound * round),
        mean_gap_ns_(1e9 / rate) {}
  // The next request and when it is due, in ns after the phase start.
  Op Next(uint64_t* due_ns) {
    t_ns_ += -std::log(rng_.Uniform()) * mean_gap_ns_;
    *due_ns = static_cast<uint64_t>(t_ns_);
    return ops_.Next();
  }
  const OpSource& source() const { return ops_; }

 private:
  OpSource ops_;
  Rng rng_;
  double mean_gap_ns_;
  double t_ns_ = 0;
};

struct OpenResult {
  bool ok = false;
  std::vector<float> get_us;   // Due time -> reply, measured GETs.
  std::vector<float> set_us;   // Same, SETs.
  std::vector<float> late_us;  // Due time -> send, measured requests.
};

OpenResult RunOpen(const Workload& w, uint64_t keys, int port, uint64_t seed,
                   uint64_t round, uint64_t ops, Tally* tally) {
  OpenResult r;
  RespClient client;
  tally->attempted += ops;
  if (!Connect(&client, port)) {
    tally->failed += ops;
    return r;
  }
  const uint64_t warmup =
      static_cast<uint64_t>(static_cast<double>(ops) * kWarmupShare);
  r.get_us.reserve(ops);
  r.set_us.reserve(w.mix == Mix::kMixed ? ops : 0);
  r.late_us.reserve(ops);
  const uint64_t start = NowNanos() + 2000000;
  std::atomic<bool> broken{false};
  Tally reader_tally;

  // The reader shares the socket with the sender: it only reads and the
  // sender only writes, so they touch disjoint client state.
  std::thread reader([&] {
    Arrivals seq(w, keys, seed, round, w.open_rate);
    RespReply reply;
    for (uint64_t i = 0; i < ops; ++i) {
      uint64_t due = 0;
      const Op op = seq.Next(&due);
      reader_tally.sets += op.set ? 1 : 0;
      if (!client.ReadReply(&reply).ok()) {
        reader_tally.failed += ops - i;
        broken.store(true);
        return;
      }
      const uint64_t now = NowNanos();
      if (!seq.source().Check(op, reply)) ++reader_tally.failed;
      if (i >= warmup) {
        (op.set ? r.set_us : r.get_us)
            .push_back(static_cast<float>(
                static_cast<double>(now - (start + due)) / 1e3));
      }
    }
  });

  Arrivals seq(w, keys, seed, round, w.open_rate);
  std::string batch;
  uint64_t sent = 0;
  uint64_t due = 0;
  Op next = seq.Next(&due);
  while (sent < ops && !broken.load(std::memory_order_relaxed)) {
    const uint64_t now = NowNanos();
    if (start + due > now) {
      // Sleep through most of a long gap, spin the rest.
      if (start + due - now > 200000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(start + due - now - 100000));
      }
      continue;
    }
    // Everything already due goes out in one send.
    batch.clear();
    while (sent < ops && start + due <= now && batch.size() < 65536) {
      seq.source().Encode(next, &batch);
      if (sent >= warmup) {
        r.late_us.push_back(static_cast<float>(
            static_cast<double>(now - (start + due)) / 1e3));
      }
      if (++sent < ops) next = seq.Next(&due);
    }
    if (!client.SendRaw(batch).ok()) break;
  }
  if (sent < ops) {
    // The sender stopped early: unblock the reader, which counts the rest.
    broken.store(true);
    shutdown(client.fd(), SHUT_RDWR);
  }
  reader.join();
  tally->sets += reader_tally.sets;
  tally->failed += reader_tally.failed;
  r.ok = !broken.load();
  return r;
}

// --- One workload run --------------------------------------------------------

struct Options {
  std::string server_bin = LEDGER_SERVER_BIN;
  std::string data_root = "build-ledger/data";
  std::string trace_root;  // Empty: no traced rerun.
  uint64_t seed = 1;
  double seconds = 10;
  int rounds = 0;         // 0: the workload's own count (smoke: 1).
  double scale = 1;       // Share of the workload's ops run (smoke: 1/50).
  uint64_t max_keys = 0;  // Cap on the dataset size (smoke); 0: none.
  Placement placement;
};

void WriteClientSpans(const std::string& path,
                      const std::vector<std::vector<ClientSpan>>& spans) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const char* sep = "";
  char buf[256];
  for (size_t t = 0; t < spans.size(); ++t) {
    for (const ClientSpan& s : spans[t]) {
      for (const auto& [phase, ns] :
           {std::pair<char, uint64_t>{'B', s.begin_ns},
            std::pair<char, uint64_t>{'E', s.end_ns}}) {
        snprintf(buf, sizeof(buf),
                 "%s{\"name\":\"client.batch\",\"cat\":\"ledger\","
                 "\"ph\":\"%c\",\"pid\":2,\"tid\":%zu,\"ts\":%.3f,"
                 "\"args\":{\"requests\":%d}}",
                 sep, phase, t + 1, static_cast<double>(ns) / 1e3,
                 kClosedDepth);
        out << buf;
        sep = ",";
      }
    }
  }
  out << "]}\n";
}

// Spawns a server and loads the dataset. Returns the set-up time (spawn to
// the last load reply) in seconds, or a negative value on failure.
double SetUp(const Options& o, uint64_t keys,
             const std::vector<std::string>& load, const std::string& dir,
             bool traced, ServerProcess* server, Tally* tally,
             Report* rep) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const uint64_t start = NowNanos();
  std::string err;
  if (!server->Start(o.server_bin, dir, traced, o.placement, &err)) {
    rep->Fail(err);
    return -1;
  }
  if (!Load(server->port(), keys, load, tally)) {
    rep->Fail("load failed");
    return -1;
  }
  return SecondsSince(start);
}

bool TearDown(ServerProcess* server, const std::string& dir, Report* rep) {
  std::string err;
  const bool clean = server->Shutdown(&err);
  if (!clean) rep->Fail(err);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::remove(dir + ".log", ec);
  return clean;
}

// One server instance: set-up, closed phase, open phase, shutdown.
struct Round {
  double setup_s = 0;
  ClosedResult closed;
  OpenResult open;
  Scrape end;
  uint64_t dir_bytes = 0;
  uint64_t sets = 0;  // SETs of the phases (the load's are `keys`).
  double peak_rss_mb = 0;
};

// Peak resident set (VmHWM) of a process, in MiB.
double PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

bool RunRound(const Options& o, const Workload& w, uint64_t keys,
              const std::vector<std::string>& load, uint64_t round,
              uint64_t closed_ops, uint64_t open_ops, const std::string& dir,
              Round* out, Report* rep, Tally* tally) {
  ServerProcess server;
  out->setup_s = SetUp(o, keys, load, dir, false, &server, tally, rep);
  if (out->setup_s < 0) return false;
  Tally phases;
  out->closed = RunClosed(w, keys, server, o.seed,
                          kStreamClosed + kStreamsPerRound * round,
                          closed_ops, nullptr, &phases);
  out->open =
      RunOpen(w, keys, server.port(), o.seed, round, open_ops, &phases);
  const bool end_ok = TakeScrape(server, &out->end);
  out->dir_bytes = DirBytes(dir);
  out->peak_rss_mb = PeakRssMb(server.pid());
  out->sets = phases.sets;
  tally->Add(phases);
  const bool clean = TearDown(&server, dir, rep);
  if (!out->closed.ok || !out->open.ok || !end_ok) {
    rep->Fail("a phase failed");
    return false;
  }
  return clean;
}

// Metrics of the timed rounds: per-round values reduced over rounds (see
// the file comment), counts pooled over rounds, gauges of the last round.
void ReportRounds(const Workload& w, uint64_t keys, std::vector<Round>* rounds,
                  Report* rep) {
  const double live_bytes =
      static_cast<double>(keys) * (kKeyBytes + kValueBytes);
  std::vector<double> setup, cpu, p50, rss, space, write;
  std::vector<float> gets_us, sets_us, late_us;
  std::map<std::string, double> delta;  // Closed-phase counters, pooled.
  double rchar = 0, wall_s = 0, ops = 0;
  const char* const kCounters[] = {
      "monkeydb_gets_total",
      "monkeydb_runs_probed_total",
      "monkeydb_bloom_false_positives_total",
      "monkeydb_gets_not_found_total",
      "monkeydb_filter_negatives_total",
      "monkeydb_write_groups_total",
      "monkeydb_write_group_batches_total",
      "monkey_server_commands_total",
      "monkey_server_engine_point_gets_total",
      "monkey_server_engine_multigets_total",
      "monkey_server_engine_writes_total",
      "monkey_server_engine_scans_total",
      "monkey_server_pipeline_depth_sum",
      "monkey_server_pipeline_depth_count",
  };
  for (Round& r : *rounds) {
    const ClosedResult& c = r.closed;
    setup.push_back(r.setup_s);
    cpu.push_back(c.CpuUsPerOp());
    p50.push_back(Percentile(&r.open.get_us, 0.5));
    rss.push_back(r.peak_rss_mb);
    printf("  round %-2zu setup_s %.4f  cpu_us_per_op %.4f  get_p50_us %.3f  "
           "peak_rss_mb %.3f\n",
           setup.size(), setup.back(), cpu.back(), p50.back(), rss.back());
    space.push_back(static_cast<double>(r.dir_bytes) / live_bytes);
    // User bytes SET over the server's life: the load plus the phases.
    write.push_back(static_cast<double>(r.end.wchar) /
                    (static_cast<double>(keys + r.sets) *
                     (kKeyBytes + kValueBytes)));
    for (const char* name : kCounters) {
      delta[name] += c.end.Sum(name) - c.begin.Sum(name);
    }
    rchar += static_cast<double>(c.end.rchar - c.begin.rchar);
    wall_s += c.wall_s;
    ops += static_cast<double>(c.measured_ops);
    gets_us.insert(gets_us.end(), r.open.get_us.begin(), r.open.get_us.end());
    sets_us.insert(sets_us.end(), r.open.set_us.begin(), r.open.set_us.end());
    late_us.insert(late_us.end(), r.open.late_us.begin(),
                   r.open.late_us.end());
  }
  const std::string of_rounds = Count(rounds->size(), "rounds");
  rep->Metric("setup_s", Median(setup), "s", "median of " + of_rounds);
  rep->Metric("peak_rss_mb", Median(rss), "MiB", "median of " + of_rounds);
  rep->Metric("space_amp", Median(space), "ratio",
              "data dir bytes / live bytes");
  rep->Metric("write_amp", Median(write), "ratio",
              "file bytes written / user bytes SET");

  const Round& last = rounds->back();
  const Scrape& b = last.closed.end;
  const double gets = delta["monkeydb_gets_total"];
  const double runs_probed = delta["monkeydb_runs_probed_total"];
  const double false_pos = delta["monkeydb_bloom_false_positives_total"];
  const double not_found = delta["monkeydb_gets_not_found_total"];

  // server: the RESP layer. Interference from other tenants only ever
  // adds CPU time, so the cheapest round is the steadiest estimate of the
  // server's own cost.
  rep->Metric("server.cpu_us_per_op",
              *std::min_element(cpu.begin(), cpu.end()), "us",
              "lowest of " + of_rounds + ", " +
                  Count(static_cast<uint64_t>(ops), "closed ops"));
  rep->Metric("server.engine_calls_per_cmd",
              Ratio(delta["monkey_server_engine_point_gets_total"] +
                        delta["monkey_server_engine_multigets_total"] +
                        delta["monkey_server_engine_writes_total"] +
                        delta["monkey_server_engine_scans_total"],
                    delta["monkey_server_commands_total"]),
              "ratio");
  rep->Metric("server.pipeline_depth_avg",
              Ratio(delta["monkey_server_pipeline_depth_sum"],
                    delta["monkey_server_pipeline_depth_count"]),
              "cmds");
  rep->Metric("server.closed_ops_per_s", Ratio(ops, wall_s), "1/s",
              Count(static_cast<uint64_t>(ops), "ops"));
  rep->Metric("server.get_p50_us", Median(p50), "us",
              "median of " + of_rounds + ", " +
                  Count(gets_us.size(), "open GETs"));
  rep->Metric("server.get_p99_us", Percentile(&gets_us, 0.99), "us",
              Count(gets_us.size(), "GETs"));
  rep->Metric("server.get_p999_us", Percentile(&gets_us, 0.999), "us",
              Count(gets_us.size(), "GETs"));
  rep->Metric("server.set_p50_us", Percentile(&sets_us, 0.5), "us",
              Count(sets_us.size(), "SETs"));
  rep->Metric("server.set_p99_us", Percentile(&sets_us, 0.99), "us",
              Count(sets_us.size(), "SETs"));
  rep->Metric("server.gen_late_p99_us", Percentile(&late_us, 0.99), "us",
              Count(late_us.size(), "sends"));

  // memtable, bloom, monkey, sstable, lsm: the engine, from /metrics.
  const double disk_hits = runs_probed - false_pos;
  rep->Metric("memtable.hit_ratio",
              Ratio(gets - not_found - disk_hits, gets), "ratio");
  rep->Metric("bloom.negatives_per_get",
              Ratio(delta["monkeydb_filter_negatives_total"], gets),
              "probes");
  for (int l = 1; l <= kLevels; ++l) {
    rep->Metric("bloom.measured_fpr.L" + std::to_string(l),
                b.Level("monkey_measured_fpr", l), "ratio");
  }
  for (int l = 1; l <= kLevels; ++l) {
    rep->Metric("monkey.predicted_fpr.L" + std::to_string(l),
                b.Level("monkey_predicted_fpr", l), "ratio");
  }
  const double reads_per_get = Ratio(runs_probed, gets);
  const double predicted = b.Sum("monkey_predicted_lookup_cost");
  const double measured = Ratio(false_pos, not_found);
  rep->Metric("monkey.predicted_lookup_cost", predicted, "blocks");
  rep->Metric("monkey.measured_lookup_cost", measured, "blocks",
              Count(static_cast<uint64_t>(not_found), "zero-result GETs"));
  rep->Metric("monkey.eq3_ratio", Ratio(measured, predicted), "ratio");
  rep->Metric("sstable.block_bytes_per_get", Ratio(rchar, gets), "B");
  rep->Metric("lsm.run_probes_per_get", reads_per_get, "blocks",
              Count(static_cast<uint64_t>(gets), "GETs"));
  rep->Metric("lsm.write_group_batches",
              Ratio(delta["monkeydb_write_group_batches_total"],
                    delta["monkeydb_write_groups_total"]),
              "batches");
  const Scrape& end = last.end;
  rep->Metric("lsm.flushes", end.Sum("monkeydb_flushes_total"), "count",
              "last round's server");
  rep->Metric("lsm.merges", end.Sum("monkeydb_merges_total"), "count",
              "last round's server");
  rep->Metric("lsm.entries_compacted_per_set",
              Ratio(end.Sum("monkeydb_entries_compacted_total"),
                    static_cast<double>(keys + last.sets)),
              "entries");
  rep->Metric("lsm.levels", end.Sum("monkeydb_deepest_level"), "levels");

  // The Eq. 3 reconciliation row: a zero-result GET costs the sum of the
  // runs' false-positive rates. A mismatch is a measurement fault, so it
  // invalidates the run rather than reading as a regression.
  if (w.mix == Mix::kGetMiss) {
    printf("  eq3 row: reads_per_get %.4f vs monkey_predicted_lookup_cost "
           "%.4f\n",
           reads_per_get, predicted);
    rep->Check("eq3_reconciles",
               predicted > 0 &&
                   std::fabs(reads_per_get / predicted - 1) <= kEq3Tolerance,
               "within +-15% of Eq. 3");
  }
  if (std::string(w.name) == "hot_get") {
    rep->Check("hot_get_reads_zero", runs_probed == 0,
               "memtable-resident GETs read no blocks");
  }
}

// The traced rerun: tracing and engine histograms on, closed phase only.
void RunTraced(const Options& o, const Workload& w, uint64_t keys,
               const std::vector<std::string>& load, uint64_t ops,
               const std::string& dir, double untraced_cpu, Report* rep,
               Tally* tally) {
  ServerProcess server;
  if (SetUp(o, keys, load, dir, true, &server, tally, rep) < 0) return;
  TraceScraper scraper(o.trace_root + "/" + w.name, server.port());
  const ClosedResult t = RunClosed(w, keys, server, o.seed, kStreamTraced,
                                   ops, &scraper, tally);
  TearDown(&server, dir, rep);
  if (!t.ok) {
    rep->Fail("traced phase failed");
    return;
  }
  WriteClientSpans(scraper.dir() + "/client-spans.json", t.spans);
  rep->Metric("obs.trace_overhead", Ratio(t.CpuUsPerOp(), untraced_cpu),
              "ratio", "traced / median untraced CPU per op");
  rep->Metric("client.request_us", t.request_us, "us",
              Count(t.measured_ops, "traced requests, send to reply"));
  // Flush and merge have no spans inside the program; their time comes
  // from the engine's histograms (load and traced phase together).
  const double flushes = t.end.Sum("monkeydb_flush_latency_us_count");
  const double merges = t.end.Sum("monkeydb_merge_latency_us_count");
  rep->Metric("lsm.flush_ms",
              Ratio(t.end.Sum("monkeydb_flush_latency_us_sum"), flushes) / 1e3,
              "ms", Count(static_cast<uint64_t>(flushes), "flushes"));
  rep->Metric("lsm.merge_ms",
              Ratio(t.end.Sum("monkeydb_merge_latency_us_sum"), merges) / 1e3,
              "ms", Count(static_cast<uint64_t>(merges), "merges"));
}

void RunWorkload(const Options& o, const Workload& w, Report* rep,
                 Tally* tally) {
  const uint64_t keys =
      o.max_keys > 0 ? std::min(w.keys, o.max_keys) : w.keys;
  const int rounds = o.rounds > 0 ? o.rounds : w.rounds;
  const uint64_t unit = kClosedThreads * kClosedDepth;
  // Each phase gets half of --seconds at the workload's nominal rates,
  // split evenly over the rounds.
  const auto sized = [&](double ops_per_s, double share) {
    const double total = ops_per_s * o.seconds * share * o.scale;
    return std::max<uint64_t>(
        static_cast<uint64_t>(total / rounds) / unit * unit, 16 * unit);
  };
  const uint64_t closed_ops = sized(w.closed_ops_per_s, 0.5);
  const uint64_t open_ops = sized(w.open_rate, 0.5);
  printf("workload %s: %llu keys, %d rounds of closed %llu ops and open "
         "%llu ops at %.0f/s, seed %llu\n",
         w.name, static_cast<unsigned long long>(keys), rounds,
         static_cast<unsigned long long>(closed_ops),
         static_cast<unsigned long long>(open_ops), w.open_rate,
         static_cast<unsigned long long>(o.seed));
  fflush(stdout);

  const std::string dir =
      o.data_root + "/" + w.name + "-" + std::to_string(getpid());
  const std::vector<std::string> load = EncodeLoad(keys, o.seed);
  std::vector<Round> results(static_cast<size_t>(rounds));
  for (int k = 0; k < rounds; ++k) {
    if (!RunRound(o, w, keys, load, static_cast<uint64_t>(k), closed_ops,
                  open_ops, dir, &results[static_cast<size_t>(k)], rep,
                  tally)) {
      return;
    }
  }
  ReportRounds(w, keys, &results, rep);
  if (!o.trace_root.empty()) {
    std::vector<double> cpu;
    for (const Round& r : results) cpu.push_back(r.closed.CpuUsPerOp());
    RunTraced(o, w, keys, load, sized(w.closed_ops_per_s, 0.25) * rounds,
              dir, Median(cpu), rep, tally);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string workload;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", arg.c_str());
        exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      o.seed = strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = atof(value().c_str());
    } else if (arg == "--trace-dir") {
      o.trace_root = value();
    } else if (arg == "--data-root") {
      o.data_root = value();
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  bool known = smoke;
  for (const Workload& w : kWorkloads) known = known || workload == w.name;
  if (!known || o.seconds <= 0) {
    fprintf(stderr,
            "usage: ledger --workload hot_get|get_miss|get_hit|mixed_rw "
            "[--seed N] [--seconds S] [--trace-dir DIR] [--data-root DIR]\n"
            "       ledger --smoke [--data-root DIR]\n");
    return 2;
  }
  if (smoke) {
    // Every workload at 1/50 of its ops in one round. The shared dataset
    // shrinks to 30k keys (~3 memtables), enough for on-disk levels and
    // the Eq. 3 check.
    o.scale = 1.0 / 50;
    o.rounds = 1;
    o.max_keys = 30000;
    o.trace_root = o.data_root + "/trace";
  }
  signal(SIGPIPE, SIG_IGN);
  o.placement = PlanPlacement();
  if (o.placement.pinned) {
    sched_setaffinity(0, sizeof(o.placement.ledger), &o.placement.ledger);
  }
  std::error_code ec;
  fs::create_directories(o.data_root, ec);

  Report rep;
  Tally tally;
  for (const Workload& w : kWorkloads) {
    if (smoke || workload == w.name) RunWorkload(o, w, &rep, &tally);
  }
  rep.Check("error_rate_zero", tally.failed == 0,
            std::to_string(tally.failed) + " of " +
                std::to_string(tally.attempted) + " ops failed");
  printf("%s\n", rep.Json(tally).c_str());
  return rep.ok() ? 0 : 1;
}
