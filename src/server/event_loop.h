// EventLoop: one epoll loop, pinned to one server shard's thread. Owns
// its SO_REUSEPORT listener (the kernel load-balances accepts across the
// shard loops) plus every connection accepted on it, and drives the
// read -> parse -> batched-execute -> write cycle. Shared-nothing by
// construction: loops never touch each other's connections. (DB calls do
// cross shards — the engine's read/write paths are fully thread-safe —
// but all network state is loop-local.)
//
// The loop is epoll-based today; the Env abstraction the engine's
// io_uring substrate lives behind keeps the socket path swappable for a
// ring-based one without touching connection or executor code.

#ifndef MONKEYDB_SERVER_EVENT_LOOP_H_
#define MONKEYDB_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "util/status.h"

namespace monkeydb {

class Connection;
class MonkeyServer;

class EventLoop {
 public:
  EventLoop(int index, MonkeyServer* server);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Takes ownership of the (already bound + listening, nonblocking)
  // listener socket and builds the epoll/eventfd plumbing.
  Status Init(int listen_fd);

  // Blocks serving events until RequestStop. Runs on the shard thread.
  void Run();

  // Thread-safe shutdown signal (eventfd wakeup).
  void RequestStop();

  // Re-arms epoll interest for a connection's fd (EPOLLIN/EPOLLOUT mask).
  void UpdateEvents(int fd, uint32_t events);

  // The receive buffer every connection on this loop recv()s into before
  // appending the bytes it got to its own input buffer. Allocated
  // uninitialized on first use, so only the pages a recv writes become
  // resident.
  static constexpr size_t kRecvBufferBytes = 64u << 10;
  char* recv_buffer();

  size_t live_connections() const {
    return live_.load(std::memory_order_relaxed);
  }
  int index() const { return index_; }

 private:
  void AcceptNew();
  void Destroy(int fd);

  int index_;
  MonkeyServer* server_;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> live_{0};
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unique_ptr<char[]> recv_buffer_;  // Loop thread only.
};

}  // namespace monkeydb

#endif  // MONKEYDB_SERVER_EVENT_LOOP_H_
