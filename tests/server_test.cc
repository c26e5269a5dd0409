// End-to-end serving-layer tests: a real MonkeyServer on an ephemeral
// port (MemEnv-backed shards), talked to over real sockets with the
// blocking RespClient. Covers command semantics, pipelined ordering
// (read-your-own-writes within one batch), cross-shard routing and MGET
// reassembly, engine-call batching, slow-client backpressure (pause and
// hard-limit close), protocol-error handling, HTTP /metrics, and INFO.

#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/env.h"
#include "server/resp_client.h"
#include "server/shard_router.h"

namespace monkeydb {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions opts) {
    env_ = NewMemEnv();
    opts.server_port = 0;  // Ephemeral; server_->port() has the real one.
    opts.db_options.env = env_.get();
    ASSERT_TRUE(
        MonkeyServer::Start(opts, "/server", &server_).ok());
  }

  void StartServer(int shards = 1) {
    ServerOptions opts;
    opts.server_shards = shards;
    StartServer(opts);
  }

  Status Connect(RespClient* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  // Polls until pred() holds or ~5s pass (event loops are asynchronous).
  template <typename Pred>
  bool WaitFor(Pred pred) {
    for (int i = 0; i < 500; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<MonkeyServer> server_;
};

TEST_F(ServerTest, BasicCommands) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;

  ASSERT_TRUE(c.Command({"PING"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kSimple);
  EXPECT_EQ(r.str, "PONG");

  ASSERT_TRUE(c.Command({"PING", "hello"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kBulk);
  EXPECT_EQ(r.str, "hello");

  ASSERT_TRUE(c.Command({"ECHO", "x"}, &r).ok());
  EXPECT_EQ(r.str, "x");

  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kSimple);
  EXPECT_EQ(r.str, "OK");

  ASSERT_TRUE(c.Command({"GET", "k"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kBulk);
  EXPECT_EQ(r.str, "v");

  ASSERT_TRUE(c.Command({"GET", "missing"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);

  ASSERT_TRUE(c.Command({"EXISTS", "k", "missing", "k"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kInteger);
  EXPECT_EQ(r.integer, 2);

  ASSERT_TRUE(c.Command({"DEL", "k", "missing"}, &r).ok());
  EXPECT_EQ(r.integer, 1);

  ASSERT_TRUE(c.Command({"GET", "k"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);

  ASSERT_TRUE(c.Command({"MSET", "a", "1", "b", "2"}, &r).ok());
  EXPECT_EQ(r.str, "OK");

  ASSERT_TRUE(c.Command({"MGET", "a", "missing", "b"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kArray);
  ASSERT_EQ(r.elements.size(), 3u);
  EXPECT_EQ(r.elements[0].str, "1");
  EXPECT_EQ(r.elements[1].type, RespReply::Type::kNull);
  EXPECT_EQ(r.elements[2].str, "2");

  // Binary-safe round trip.
  const std::string binary("\x00\x01\r\n\xff", 5);
  ASSERT_TRUE(c.Command({"SET", "bin", binary}, &r).ok());
  ASSERT_TRUE(c.Command({"GET", "bin"}, &r).ok());
  EXPECT_EQ(r.str, binary);

  ASSERT_TRUE(c.Command({"CONFIG", "GET", "server_shards"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kArray);
  ASSERT_EQ(r.elements.size(), 2u);
  EXPECT_EQ(r.elements[0].str, "server_shards");
  EXPECT_EQ(r.elements[1].str, "1");

  ASSERT_TRUE(c.Command({"SELECT", "0"}, &r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.Command({"SELECT", "3"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);

  ASSERT_TRUE(c.Command({"NOSUCHCMD", "x"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("unknown command"), std::string::npos);

  ASSERT_TRUE(c.Command({"GET"}, &r).ok());  // Arity violation.
  EXPECT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("wrong number of arguments"), std::string::npos);

  // MSET with an unpaired key: arity error, nothing applied.
  ASSERT_TRUE(c.Command({"MSET", "x", "1", "orphan"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);
  ASSERT_TRUE(c.Command({"GET", "x"}, &r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);
}

// The pipelining contract: a mixed batch executes with per-connection
// ordering — a GET after a SET of the same key (same pipeline) must see
// that SET, and replies come back in command order.
TEST_F(ServerTest, PipelinedMixedBatchPreservesOrder) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  std::string batch;
  RespClient::EncodeCommand({"SET", "a", "1"}, &batch);
  RespClient::EncodeCommand({"GET", "a"}, &batch);
  RespClient::EncodeCommand({"SET", "a", "2"}, &batch);
  RespClient::EncodeCommand({"GET", "a"}, &batch);
  RespClient::EncodeCommand({"DEL", "a"}, &batch);
  RespClient::EncodeCommand({"GET", "a"}, &batch);
  RespClient::EncodeCommand({"PING"}, &batch);
  ASSERT_TRUE(c.SendRaw(batch).ok());

  RespReply r;
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "1");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "2");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.integer, 1);
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kNull);
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "PONG");
}

// Pipelined commands must coalesce into far fewer engine calls — the
// serving layer's acceptance metric is <= 0.2 calls/command at depth 16.
TEST_F(ServerTest, PipeliningBatchesEngineCalls) {
  StartServer(4);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Warm up: the counters include nothing else on a fresh server.
  constexpr int kKeys = 160;
  std::string batch;
  for (int i = 0; i < kKeys; ++i) {
    RespClient::EncodeCommand(
        {"SET", "key" + std::to_string(i), "v" + std::to_string(i)},
        &batch);
  }
  for (int i = 0; i < kKeys; ++i) {
    RespClient::EncodeCommand({"GET", "key" + std::to_string(i)}, &batch);
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());
  RespReply r;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(c.ReadReply(&r).ok());
    EXPECT_EQ(r.str, "OK");
  }
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(c.ReadReply(&r).ok());
    EXPECT_EQ(r.str, "v" + std::to_string(i));
  }

  const auto calls = server_->engine_calls();
  const uint64_t commands = server_->commands_processed();
  EXPECT_EQ(commands, 2u * kKeys);
  // TCP may split the batch across several ticks; even pessimistically
  // (a few ticks, 4 shards each) the coalescing must beat 0.2
  // calls/command by a wide margin against the 320-command batch.
  EXPECT_LE(calls.Total(), commands / 5)
      << "point_gets=" << calls.point_gets
      << " multigets=" << calls.multigets << " writes=" << calls.writes;
}

TEST_F(ServerTest, ShardRoutingIsStableAndComplete) {
  StartServer(4);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Every key maps to exactly one shard, deterministically.
  const ShardRouter independent(4);
  std::set<int> used;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "route" + std::to_string(i);
    const int shard = server_->router().ShardOf(key);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    EXPECT_EQ(shard, independent.ShardOf(key));  // Restart-stable.
    used.insert(shard);
  }
  EXPECT_EQ(used.size(), 4u) << "64 keys should touch all 4 shards";

  // Writes land on the shard the router names — and only there.
  RespReply r;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "route" + std::to_string(i);
    ASSERT_TRUE(c.Command({"SET", key, "v" + std::to_string(i)}, &r).ok());
  }
  for (int i = 0; i < 64; ++i) {
    const std::string key = "route" + std::to_string(i);
    const int shard = server_->router().ShardOf(key);
    std::string value;
    ReadOptions ro;
    for (int s = 0; s < 4; ++s) {
      const Status st = server_->shard_db(s)->Get(ro, key, &value);
      if (s == shard) {
        EXPECT_TRUE(st.ok()) << key << " missing from its shard";
      } else {
        EXPECT_TRUE(st.IsNotFound()) << key << " leaked to shard " << s;
      }
    }
  }

  // MGET spanning all shards returns values in request order.
  std::vector<std::string> mget = {"MGET"};
  for (int i = 63; i >= 0; --i) mget.push_back("route" + std::to_string(i));
  ASSERT_TRUE(c.Command(mget, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kArray);
  ASSERT_EQ(r.elements.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(r.elements[static_cast<size_t>(i)].str,
              "v" + std::to_string(63 - i));
  }
}

TEST_F(ServerTest, ScanWalksEveryShardExactlyOnce) {
  StartServer(4);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  RespReply r;
  std::set<std::string> expect;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "scan%03d", i);
    ASSERT_TRUE(c.Command({"SET", key, "x"}, &r).ok());
    expect.insert(key);
  }

  std::set<std::string> seen;
  std::string cursor = "0";
  int rounds = 0;
  do {
    ASSERT_TRUE(
        c.Command({"SCAN", cursor, "COUNT", "50"}, &r).ok());
    ASSERT_EQ(r.type, RespReply::Type::kArray);
    ASSERT_EQ(r.elements.size(), 2u);
    cursor = r.elements[0].str;
    for (const RespReply& key : r.elements[1].elements) {
      EXPECT_TRUE(seen.insert(key.str).second)
          << key.str << " returned twice";
    }
    ASSERT_LT(++rounds, 100) << "SCAN failed to terminate";
  } while (cursor != "0");
  EXPECT_EQ(seen, expect);

  // MATCH filters server-side.
  ASSERT_TRUE(c.Command({"SCAN", "0", "MATCH", "scan00?", "COUNT",
                         "1000"}, &r).ok());
  std::set<std::string> matched;
  for (const RespReply& key : r.elements[1].elements) {
    matched.insert(key.str);
  }
  EXPECT_EQ(matched.size(), 10u);
}

// Above the soft output limit the server must stop reading from the
// connection (backpressure) instead of buffering without bound — and
// still deliver every reply once the client drains.
TEST_F(ServerTest, SlowClientBackpressurePausesReads) {
  ServerOptions opts;
  opts.server_max_pipeline = 2;  // Small ticks: backlog grows gradually.
  opts.server_output_soft_limit_bytes = 1u << 20;
  opts.server_output_hard_limit_bytes = 256u << 20;
  StartServer(opts);

  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  // Modest receive window so replies back up in the server rather than
  // the kernel (but not so small — below one MSS — that the later drain
  // crawls; the 16 MiB burst dwarfs tcp_wmem's 4 MB cap either way).
  const int rcvbuf = 64 << 10;
  setsockopt(c.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  const std::string big(1u << 20, 'x');
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "big", big}, &r).ok());
  ASSERT_EQ(r.str, "OK");

  constexpr int kGets = 16;  // 16 MiB of replies vs a 1 MiB soft limit.
  std::string batch;
  for (int i = 0; i < kGets; ++i) {
    RespClient::EncodeCommand({"GET", "big"}, &batch);
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());

  // Without reading a byte, the server must hit the pause.
  ASSERT_TRUE(WaitFor([&] {
    return server_->metrics()->TickTotal(
               Tick::kServerBackpressurePauses) > 0;
  }));

  // Drain: every reply arrives intact, in order.
  for (int i = 0; i < kGets; ++i) {
    ASSERT_TRUE(c.ReadReply(&r).ok()) << "reply " << i;
    ASSERT_EQ(r.type, RespReply::Type::kBulk);
    EXPECT_EQ(r.str.size(), big.size()) << "reply " << i;
  }
  EXPECT_EQ(r.str, big);
}

// Past the hard limit the connection is dropped outright.
TEST_F(ServerTest, HardOutputLimitClosesConnection) {
  ServerOptions opts;
  opts.server_output_soft_limit_bytes = 1u << 20;
  opts.server_output_hard_limit_bytes = 4u << 20;
  StartServer(opts);

  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  const int rcvbuf = 64 << 10;
  setsockopt(c.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));

  const std::string big(1u << 20, 'y');
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "big", big}, &r).ok());

  // One tick's worth of replies (16 MiB) blows straight past the 4 MiB
  // hard limit.
  std::string batch;
  for (int i = 0; i < 16; ++i) {
    RespClient::EncodeCommand({"GET", "big"}, &batch);
  }
  ASSERT_TRUE(c.SendRaw(batch).ok());

  ASSERT_TRUE(WaitFor([&] {
    return server_->metrics()->TickTotal(Tick::kServerOverlimitCloses) >
           0;
  }));
  // The client eventually observes the close (possibly after reading the
  // replies that were already flushed into socket buffers).
  Status s;
  for (int i = 0; i < 64 && s.ok(); ++i) {
    s = c.ReadReply(&r);
  }
  EXPECT_FALSE(s.ok());
}

TEST_F(ServerTest, ProtocolErrorRepliesAndCloses) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());

  // Multibulk args must be bulk strings; '+' is a protocol violation.
  ASSERT_TRUE(c.SendRaw("*1\r\n+PING\r\n").ok());
  RespReply r;
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.type, RespReply::Type::kError);
  EXPECT_NE(r.str.find("Protocol error"), std::string::npos) << r.str;
  // The server closes after the error reply.
  EXPECT_FALSE(c.ReadReply(&r).ok());
  EXPECT_EQ(server_->metrics()->TickTotal(Tick::kServerProtocolErrors),
            1u);

  // A fresh connection still works: the failure was contained.
  RespClient c2;
  ASSERT_TRUE(Connect(&c2).ok());
  ASSERT_TRUE(c2.Command({"PING"}, &r).ok());
  EXPECT_EQ(r.str, "PONG");
}

TEST_F(ServerTest, HttpMetricsEndpoint) {
  StartServer(2);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());

  RespClient http;
  ASSERT_TRUE(Connect(&http).ok());
  ASSERT_TRUE(http.SendRaw("GET /metrics HTTP/1.0\r\n\r\n").ok());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(http.fd(), buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("monkeydb_gets_total"), std::string::npos);
  EXPECT_NE(response.find("monkey_predicted_fpr"), std::string::npos);
  EXPECT_NE(response.find("monkey_server_commands_total"),
            std::string::npos);
  // Both shards appear, each under its own label.
  EXPECT_NE(response.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(response.find("shard=\"1\""), std::string::npos);

  // Unknown paths 404; RESP still works on the same port afterwards.
  RespClient http2;
  ASSERT_TRUE(Connect(&http2).ok());
  ASSERT_TRUE(http2.SendRaw("GET /nope HTTP/1.0\r\n\r\n").ok());
  response.clear();
  while ((n = ::recv(http2.fd(), buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(response.find("404"), std::string::npos);
  ASSERT_TRUE(c.Command({"PING"}, &r).ok());
  EXPECT_EQ(r.str, "PONG");
}

TEST_F(ServerTest, InfoReportsShardsAndArenaBacking) {
  StartServer(2);
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());
  ASSERT_TRUE(c.Command({"INFO"}, &r).ok());
  ASSERT_EQ(r.type, RespReply::Type::kBulk);
  EXPECT_NE(r.str.find("server_shards:2"), std::string::npos);
  EXPECT_NE(r.str.find("# Shard0"), std::string::npos);
  EXPECT_NE(r.str.find("# Shard1"), std::string::npos);
  // The arena backing tier surfaces per shard (satellite: operational
  // state from the concurrent-memtable PR).
  EXPECT_NE(r.str.find("arena_backing:"), std::string::npos);
  // MemEnv has no io_uring; the INFO line must say so, not vanish.
  EXPECT_NE(r.str.find("io_uring_active:0"), std::string::npos);
  EXPECT_NE(r.str.find("engine_calls_per_command:"), std::string::npos);
}

// Capacity of the asking connection's buffers, from its INFO reply.
uint64_t ClientBufferCapacity(RespClient* c) {
  RespReply r;
  EXPECT_TRUE(c->Command({"INFO"}, &r).ok());
  const std::string field = "client_buffer_capacity:";
  const size_t at = r.str.find(field);
  EXPECT_NE(at, std::string::npos) << r.str;
  if (at == std::string::npos) return UINT64_MAX;
  return std::stoull(r.str.substr(at + field.size()));
}

// One large SET and GET must not leave the connection holding their
// high-water buffer capacity once both buffers drain.
TEST_F(ServerTest, DrainedBuffersReleaseLargeValueCapacity) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  constexpr uint64_t kRetainedCap = 256u << 10;
  EXPECT_LT(ClientBufferCapacity(&c), kRetainedCap);

  const std::string big(4u << 20, 'z');
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "big", big}, &r).ok());
  ASSERT_EQ(r.str, "OK");
  ASSERT_TRUE(c.Command({"GET", "big"}, &r).ok());
  ASSERT_EQ(r.str.size(), big.size());
  EXPECT_EQ(r.str, big);
  EXPECT_LT(ClientBufferCapacity(&c), kRetainedCap);

  // The connection keeps serving after the release.
  ASSERT_TRUE(c.Command({"GET", "big"}, &r).ok());
  EXPECT_EQ(r.str.size(), big.size());
}

TEST_F(ServerTest, QuitFlushesAndCloses) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  std::string batch;
  RespClient::EncodeCommand({"SET", "q", "1"}, &batch);
  RespClient::EncodeCommand({"GET", "q"}, &batch);
  RespClient::EncodeCommand({"QUIT"}, &batch);
  ASSERT_TRUE(c.SendRaw(batch).ok());
  RespReply r;
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "1");
  ASSERT_TRUE(c.ReadReply(&r).ok());
  EXPECT_EQ(r.str, "OK");
  EXPECT_FALSE(c.ReadReply(&r).ok());  // Closed after the flush.
}

TEST_F(ServerTest, StopIsIdempotentAndCountersSurvive) {
  StartServer();
  RespClient c;
  ASSERT_TRUE(Connect(&c).ok());
  RespReply r;
  ASSERT_TRUE(c.Command({"SET", "k", "v"}, &r).ok());
  server_->Stop();
  server_->Stop();
  EXPECT_GE(server_->commands_processed(), 1u);
  EXPECT_GE(server_->engine_calls().writes, 1u);
}

}  // namespace
}  // namespace monkeydb
