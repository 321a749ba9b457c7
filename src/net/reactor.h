// The event-loop skeleton shared by net::Server and net::Router.
//
// A Reactor is a set of shard threads behind one listening socket. Each
// shard owns a disjoint set of connections end to end — shard 0 accepts
// and deals new sockets round-robin through per-shard handoff lists and
// wake pipes — so connection state needs no locks. Arriving bytes stream
// through a per-connection FrameReader; a connection whose queued work
// reaches max_queued_frames is not read until it drains (backpressure is
// TCP flow control). A readable socket costs one recv unless that read
// fills the buffer: poll is level-triggered, so bytes left behind (or an
// EOF) simply re-arm POLLIN. Output leaves through an OutQueue. What a
// shard does with a complete frame is up to its owner, which derives from
// ReactorShard and fills in the hooks. The counters are relaxed atomics
// written by their shard alone, so the read and write paths take no lock.
#ifndef QLEARN_NET_REACTOR_H_
#define QLEARN_NET_REACTOR_H_

#include <poll.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/buffer_pool.h"
#include "net/frame.h"

struct iovec;

namespace qlearn {
namespace net {

void CloseFd(int* fd);  ///< closes `*fd` if open and sets it to -1

/// A lifetime counter that one shard thread writes and any thread reads.
/// With a single writer, a relaxed load and store is enough: no locked
/// read-modify-write on the hot path.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }
  void Sub(uint64_t n = 1) { Add(0 - n); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Frames queued for one socket. Length prefix and body stay separate so
/// Flush can scatter-gather straight out of the queue, and each fully
/// written body goes back to a pool.
class OutQueue {
 public:
  static constexpr size_t kMaxIov = 64;  ///< two per frame, 32 frames

  /// Queues `body` as one frame. False, leaving `body` untouched, when it
  /// is empty or over `max_frame_bytes`: only the caller knows what to
  /// send instead.
  bool Push(std::string&& body, size_t max_frame_bytes);
  /// Writes what `fd` accepts, 32 frames per sendmsg, counting each
  /// sendmsg in `send_calls`; false if the socket died.
  bool Flush(int fd, BufferPool* pool, Counter* send_calls);

  /// Flush's halves. Gather points `iov` at the unsent bytes of up to
  /// 32 frames and returns the entry count; Advance marks `n` of those
  /// bytes sent. After a short write, Gather resumes mid-header or
  /// mid-body.
  size_t Gather(iovec* iov);
  void Advance(size_t n, BufferPool* pool);

  bool empty() const { return frames_.empty(); }
  size_t size() const { return frames_.size(); }

 private:
  struct Frame {
    unsigned char header[kFrameHeaderBytes] = {0, 0, 0, 0};
    size_t header_sent = 0;
    std::string body;
    size_t body_sent = 0;
  };
  std::deque<Frame> frames_;
};

/// A client connection, touched only by its shard's thread. Owners derive
/// to add their own state.
struct Conn {
  explicit Conn(size_t max_frame_bytes) : reader(max_frame_bytes) {}
  virtual ~Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd = -1;
  uint64_t id = 0;
  FrameReader reader;
  std::deque<FrameReader::Event> inputs;  ///< complete frames awaiting Step
  bool peer_eof = false;  ///< read side closed; drain, then close
  OutQueue out;
};

/// The connection counters ServerStats and RouterStats share, one set
/// per shard.
struct ConnStats {
  Counter connections_accepted;
  Counter connections_open;
  Counter frames_received;
  Counter bad_frames;
  Counter truncated_frames;
  Counter recv_calls;    ///< recv on client sockets
  Counter send_calls;    ///< sendmsg on client sockets
  Counter poll_wakeups;  ///< poll returns

  template <class Stats>
  void AddTo(Stats* out) const {
    out->connections_accepted += connections_accepted.value();
    out->connections_open += connections_open.value();
    out->frames_received += frames_received.value();
    out->bad_frames += bad_frames.value();
    out->truncated_frames += truncated_frames.value();
    out->recv_calls += recv_calls.value();
    out->send_calls += send_calls.value();
    out->poll_wakeups += poll_wakeups.value();
  }
};

/// The fields ServerOptions and RouterOptions share (documented there).
struct ReactorConfig {
  const char* name;  ///< "server" or "router", for error messages
  std::string bind_address;
  uint16_t port;
  int backlog;
  size_t max_frame_bytes;
  size_t max_queued_frames;
  size_t pool_buffers;
  size_t pool_buffer_bytes;
};

class ReactorShard;

class Reactor {
 public:
  template <class Options>
  Reactor(const char* name, const Options& o)
      : config_{name, o.bind_address, o.port, o.backlog, o.max_frame_bytes,
                o.max_queued_frames, o.pool_buffers, o.pool_buffer_bytes} {}
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Builds shard S(this, index, args...). Shards are added before the
  /// first Start and live as long as the reactor, so their counters stay
  /// cumulative across restarts.
  template <class S, class... Args>
  S* AddShard(Args&&... args) {
    shards_.push_back(std::make_unique<S>(this, shards_.size(),
                                          std::forward<Args>(args)...));
    return static_cast<S*>(shards_.back().get());
  }

  /// Binds, listens, and starts one thread per shard. Fails without
  /// leaking resources; safe to retry.
  common::Status Start();
  /// Joins every shard thread (each closes its connections on the way
  /// out) and closes the listen socket. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }  ///< valid after Start()
  /// Adds every shard's connection counters to `out`.
  template <class Stats>
  void AddStatsTo(Stats* out) const;

 private:
  friend class ReactorShard;

  const ReactorConfig config_;
  std::vector<std::unique_ptr<ReactorShard>> shards_;
  std::atomic<bool> running_{false};
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> next_shard_{0};
};

class ReactorShard {
 public:
  virtual ~ReactorShard() = default;
  ReactorShard(const ReactorShard&) = delete;
  ReactorShard& operator=(const ReactorShard&) = delete;

  /// Interrupts the shard's poll; callable from any thread while running.
  void Wake();

 protected:
  ReactorShard(Reactor* reactor, size_t index);

  // Hooks, all run on the shard thread.

  virtual std::unique_ptr<Conn> NewConn() = 0;
  /// The frame handler: consumes conn->inputs, queues and flushes the
  /// responses, and closes the connection once drained after peer EOF.
  /// Runs whenever the connection was polled.
  virtual void Step(Conn* conn) = 0;
  /// Queued work that counts toward max_queued_frames besides the unread
  /// input frames: the pause predicate.
  virtual size_t Backlog(const Conn& conn) const = 0;
  /// Top of each iteration, before the connections' poll fds are
  /// collected; may step connections and append fds of its own.
  virtual void BeforePoll(std::vector<pollfd>* /*fds*/) {}
  /// The per-iteration drain, after the connections: gets BeforePoll's fds
  /// back with their revents.
  virtual void AfterPoll(const pollfd* /*extra*/, size_t /*count*/) {}
  /// On thread start, and on loop exit before the connections close.
  virtual void OnStart() {}
  virtual void OnStop() {}

  const ReactorConfig& config() const { return reactor_->config_; }
  /// The live connection `id`, or null once it closed.
  Conn* Find(uint64_t id) {
    auto it = conns.find(id);
    return it == conns.end() ? nullptr : it->second.get();
  }
  void Close(uint64_t id);
  /// False on a dead socket; the caller closes.
  bool Flush(Conn* conn) {
    return conn->out.Flush(conn->fd, &pool, &stats_.send_calls);
  }
  /// Queues `body` on `conn`; one too big to frame is replaced by an
  /// Internal error frame naming its size, followed by `hint`.
  void Reply(Conn* conn, std::string&& body, const char* hint = "");

  BufferPool pool;
  std::map<uint64_t, std::unique_ptr<Conn>> conns;

 private:
  friend class Reactor;

  void Loop();
  void Accept();
  void AdoptFd(int fd);
  bool InputPaused(const Conn& conn) const;
  void Read(Conn* conn);

  Reactor* const reactor_;
  const size_t index_;
  int wake_read_ = -1;
  int wake_write_ = -1;

  std::mutex incoming_mutex_;  ///< guards sockets dealt by shard 0
  std::vector<int> incoming_fds_;

  ConnStats stats_;
  std::thread thread_;
};

template <class Stats>
void Reactor::AddStatsTo(Stats* out) const {
  for (const auto& shard : shards_) shard->stats_.AddTo(out);
}

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_REACTOR_H_
