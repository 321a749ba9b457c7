// Consistent-hash routing front tier: one process that looks like a
// net::Server to clients and like a client to N backend servers. It runs
// on the same reactor skeleton as the server (net/reactor.h: shard
// threads, accept and fd handoff, framing, backpressure, the
// scatter-gather output queue), and each shard keeps its own pooled
// connections to every backend, flushed through the same output queue.
//
// Writes are coalesced per reactor loop pass, not per frame: forwarded
// requests queue on their backend, which is flushed once after the pass's
// client reads and once after the replies those reads freed; replies
// queue on their client, which is flushed once when it is stepped. A
// pipelined burst therefore costs one sendmsg per 32 frames per socket,
// not one per frame.
//
// Clients speak the ordinary framed-TCP protocol to the router. For each
// request frame the router *peeks* the session id with the arena parser
// (net::PeekRequest — no copies, no full validation), picks the owning
// backend by jump consistent hash over the shard map
// (net/shard_map.h), and forwards the frame bytes verbatim. Responses come
// back as opaque bytes — the router never re-serializes a payload it
// routed, which is what keeps golden replays byte-identical through it.
//
// Ordering: responses to one client go out strictly in request-arrival
// order, even when consecutive requests land on different backends. Each
// client connection keeps a FIFO of pending slots; a slot filled out of
// order waits for the slots ahead of it.
//
// Special cases handled router-side:
//   - `open` without an id gets one minted here ("r-" + 16 hex digits),
//     injected with net::AppendOpenWithId, so placement is decided before
//     any backend sees the request. If the id pushes the frame past
//     max_frame_bytes, the open is answered with an InvalidArgument
//     frame-limit error instead of being forwarded.
//   - `counters` and `sessions` fan out to every backend in the map —
//     plus any override-pinned backends the map no longer lists — and
//     the responses are merged (op counts and log2 latency histograms sum
//     bucket-wise; id lists concatenate).
//   - A request whose id is missing or malformed is answered with the
//     same structured error frame the backend would send — without a
//     backend round trip.
//   - A backend dying mid-call fails its in-flight requests with
//     Unavailable; other shards keep serving, and the connection is
//     re-established on next use.
//
// Rebalance is snapshot handoff (Rebalance()): dispatch pauses, in-flight
// requests drain to zero, every session whose jump-hash owner changes is
// exported from its old backend (park + checksummed QLSV image) and
// imported on the new one, then the new map installs with generation+1
// and dispatch resumes. A session that cannot quiesce (labels still
// pending) stays where it is behind a routing override that is retired
// when the session closes.
#ifndef QLEARN_NET_ROUTER_H_
#define QLEARN_NET_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/shard_map.h"

namespace qlearn {
namespace net {

struct RouterOptions {
  /// Numeric IPv4 address to bind; loopback by default.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read back via Router::port()).
  uint16_t port = 0;
  /// Reactor shards; must be > 0. Each owns its client connections and its
  /// own pooled connections to every backend.
  size_t reactors = 1;
  /// Frame payload cap — shared with FrameReader and net::Client via
  /// net/frame.h, so an oversized frame (a too-big handoff image, say) is
  /// rejected identically at every hop.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// listen(2) backlog.
  int backlog = 128;
  /// Complete frames one client connection may have queued, in flight, or
  /// unwritten before the reactor stops reading its socket.
  size_t max_queued_frames = 32;
  /// Per-shard buffer pool sizing (see ServerOptions).
  size_t pool_buffers = 64;
  size_t pool_buffer_bytes = 64 * 1024;
  /// Deadline for control-plane work: backend connects on the hot path and
  /// the export/import/sessions calls a rebalance makes. Must be > 0 (a
  /// dial runs on a reactor thread and must never block it forever).
  int64_t admin_deadline_millis = 5000;
  /// After a backend dial fails, further dials to it fail fast (with the
  /// cached error) for this long, so one unreachable backend can't stall
  /// the reactor for admin_deadline_millis on every request routed to it.
  int64_t connect_backoff_millis = 1000;
  /// How long Rebalance() waits for in-flight requests to drain before
  /// giving up and resuming with the old map.
  int64_t drain_deadline_millis = 10000;
};

/// Lifetime statistics of one router.
struct RouterStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t frames_received = 0;   ///< complete, well-framed client payloads
  uint64_t bad_frames = 0;        ///< client framing errors
  uint64_t truncated_frames = 0;  ///< client EOF mid-frame
  uint64_t recv_calls = 0;        ///< recv syscalls on client sockets
  uint64_t send_calls = 0;        ///< sendmsg syscalls on client sockets
  uint64_t poll_wakeups = 0;      ///< reactor loop passes (poll returns)
  uint64_t backend_send_calls = 0;  ///< sendmsg syscalls on backend sockets
  uint64_t frames_forwarded = 0;  ///< frames dispatched to a backend
  uint64_t local_answers = 0;     ///< answered without a backend round trip
  uint64_t fanouts = 0;           ///< counters/sessions broadcasts
  uint64_t ids_minted = 0;        ///< router-minted open ids
  uint64_t backend_reconnects = 0;  ///< backend connections established
  uint64_t backend_errors = 0;    ///< in-flight requests failed Unavailable
  uint64_t dial_backoffs = 0;     ///< dials skipped by the failure cache
  uint64_t handoffs = 0;          ///< sessions migrated by rebalances
  uint64_t handoff_skipped = 0;   ///< non-quiescent sessions left behind
  uint64_t rebalances = 0;        ///< successful map installs
};

class Router {
 public:
  /// Routes over `map.backends`; the map's generation is bumped to 1 if 0.
  Router(ShardMap map, RouterOptions options = {});
  ~Router();  ///< calls Stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds, listens, and starts the reactor shards. Fails without leaking
  /// resources; safe to retry.
  common::Status Start();

  /// Shuts down: closes every client and backend connection, joins all
  /// threads. Idempotent; also called by the destructor.
  void Stop();

  /// The bound port; valid after a successful Start().
  uint16_t port() const;

  /// The current shard map (a copy, with its generation).
  ShardMap shard_map() const;

  /// Installs a new backend list via snapshot handoff: pause, drain,
  /// migrate every session whose owner changes, install generation+1,
  /// resume. Serialized (one rebalance at a time); on failure the old map
  /// stays installed and any sessions already moved are reachable through
  /// routing overrides, so a failed rebalance degrades, never corrupts.
  common::Status Rebalance(std::vector<BackendAddress> backends);

  RouterStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_ROUTER_H_
