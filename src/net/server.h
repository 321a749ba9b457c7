// Framed-TCP serving front end for SessionService.
//
// The server is a net::Reactor (net/reactor.h) — `reactors` shard threads,
// each owning a disjoint set of connections, with accept on shard 0, frame
// reassembly, backpressure and scatter-gather flushing all shared with
// net::Router. What the server adds is dispatch: complete request frames
// are executed against the shared SessionService (thread-safe; distinct
// sessions run in parallel) in one of two modes:
//
//   workers > 0   a fixed per-shard worker pool runs HandleFrameInto and
//                 hands finished responses back over a completion queue
//                 and a self-pipe wakeup (requests park off the reactor
//                 thread, good when learner work dominates)
//   workers == 0  the shard thread dispatches inline — no handoff, no
//                 context switch, pipelined requests are answered
//                 back-to-back and flushed as one scatter-gather write
//                 (lowest per-request cost; the BENCH_serving.json rows)
//
// The request path is allocation-free at steady state: frames are parsed
// with an arena (service/json.h ParseInto), and reassembly and response
// buffers recycle through the shard's BufferPool.
//
// Per-connection protocol discipline: requests are answered strictly in
// arrival order. Pipelined frames queue (bounded; the reactor stops
// reading the socket past the cap, so backpressure is TCP flow control,
// not memory growth). A malformed frame — zero-length, oversized, or
// unparseable JSON — produces a structured error frame in the same
// ordered stream and the connection stays usable; the connection is only
// closed by the peer, by EOF, or by Stop().
#ifndef QLEARN_NET_SERVER_H_
#define QLEARN_NET_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/frame.h"
#include "service/session_service.h"

namespace qlearn {
namespace net {

struct ServerOptions {
  /// Numeric IPv4 address to bind; loopback by default (the load harness
  /// and tests run client and server on one host).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via Server::port()).
  uint16_t port = 0;
  /// Worker threads per shard; 0 dispatches inline on the shard thread
  /// (see the mode comparison above).
  size_t workers = 4;
  /// Reactor shards; must be > 0. Each owns its connections, worker
  /// queue, and buffer pool; accept runs on shard 0 and deals sockets
  /// round-robin.
  size_t reactors = 1;
  /// Frame payload cap, enforced on reads and responses alike.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// listen(2) backlog.
  int backlog = 128;
  /// Complete frames a connection may queue before the reactor stops
  /// reading its socket (resumed as responses drain).
  size_t max_queued_frames = 32;
  /// Buffers each shard's pool retains, and the capacity above which a
  /// released buffer is freed instead of pooled (one oversized frame must
  /// not pin its footprint).
  size_t pool_buffers = 64;
  size_t pool_buffer_bytes = 64 * 1024;
};

/// Lifetime statistics of one server, for tests and the load harness.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t frames_received = 0;   ///< complete, well-framed payloads
  uint64_t bad_frames = 0;        ///< zero-length/oversized framing errors
  uint64_t truncated_frames = 0;  ///< peer EOF mid-frame
  uint64_t recv_calls = 0;        ///< recv syscalls on client sockets
  uint64_t send_calls = 0;        ///< sendmsg syscalls on client sockets
  uint64_t poll_wakeups = 0;      ///< reactor loop passes (poll returns)
};

class Server {
 public:
  /// Serves `service` (not owned; must outlive the server).
  Server(service::SessionService* service, ServerOptions options = {});
  ~Server();  ///< calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the reactor and worker threads. Fails
  /// (InvalidArgument/Internal) without leaking resources; safe to retry.
  common::Status Start();

  /// Shuts down: stops accepting, closes every connection, joins all
  /// threads. Idempotent; also called by the destructor.
  void Stop();

  /// The bound port (the ephemeral pick when options.port was 0); valid
  /// after a successful Start().
  uint16_t port() const;

  ServerStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_SERVER_H_
