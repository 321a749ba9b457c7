#include "net/router.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "service/json.h"

namespace qlearn {
namespace net {

namespace {

using common::Status;

/// One response slot in a client connection's FIFO. Slots complete out of
/// order (different backends answer at different speeds) but leave in
/// order: only a ready front slot moves to the output queue.
struct Pending {
  enum class Kind { kSingle, kCounters, kSessions };

  uint64_t seq = 0;
  Kind kind = Kind::kSingle;
  bool ready = false;
  std::string body;  ///< the response frame payload, once ready

  // Fan-out bookkeeping (kCounters/kSessions).
  uint32_t awaiting = 0;
  std::vector<std::string> parts;
};

/// A client connection with its FIFO of response slots.
struct ClientConn : Conn {
  using Conn::Conn;
  std::deque<Pending> pending;
  uint64_t next_seq = 1;
  bool touched = false;  ///< listed in the shard's touched_clients
};

/// One request forwarded to a backend and not yet answered. The client is
/// referenced by id + slot seq, never by pointer: it may be gone by the
/// time the backend answers, and a stale lookup just drops the response.
struct Forwarded {
  uint64_t client_id = 0;
  uint64_t seq = 0;
  /// Non-empty when this is a `close` whose id has a routing override: an
  /// ok response retires the override (the parked-behind session is gone).
  std::string close_id;
};

/// Shard-owned pooled connection to one backend. Responses come back in
/// request order per connection (the backend answers FIFO), so in_flight
/// is the whole correlation state.
struct BackendConn {
  int fd = -1;
  std::string address;  ///< "host:port", the connection-table key
  FrameReader reader;
  OutQueue out;
  std::deque<Forwarded> in_flight;

  explicit BackendConn(size_t max_frame_bytes) : reader(max_frame_bytes) {}
};

/// The error frame a backend would send for a request missing its id
/// (json.cc ToStringView wording), so router-answered errors are
/// byte-identical to backend-answered ones.
std::string MissingIdError() {
  return SerializeError(
      Status::ParseError("json: missing or non-string \"id\""));
}

std::string UnknownOpError(std::string_view op) {
  return SerializeError(
      Status::ParseError("protocol: unknown op \"" + std::string(op) + "\""));
}

/// One shard's router-only counters (the reactor keeps the rest).
struct RouterCounters {
  Counter frames_forwarded;
  Counter local_answers;
  Counter fanouts;
  Counter ids_minted;
  Counter backend_reconnects;
  Counter backend_errors;
  Counter dial_backoffs;
  Counter backend_send_calls;

  void AddTo(RouterStats* out) const {
    out->frames_forwarded += frames_forwarded.value();
    out->local_answers += local_answers.value();
    out->fanouts += fanouts.value();
    out->ids_minted += ids_minted.value();
    out->backend_reconnects += backend_reconnects.value();
    out->backend_errors += backend_errors.value();
    out->dial_backoffs += dial_backoffs.value();
    out->backend_send_calls += backend_send_calls.value();
  }
};

}  // namespace

struct Router::Impl : Reactor {
  /// A router shard: the reactor skeleton plus the pending-slot FIFOs,
  /// this shard's pooled backend connections, and the rebalance pause.
  struct Shard : ReactorShard {
    Shard(Reactor* reactor, size_t index, Impl* impl)
        : ReactorShard(reactor, index), impl(impl) {}

    Impl* const impl;

    RouterCounters counters;

    /// Requests forwarded and not yet answered, for the rebalance drain.
    std::atomic<uint64_t> in_flight_count{0};
    /// Set once the shard has observed `paused` and finished the loop
    /// iteration — after this, no new dispatch until the pause lifts.
    std::atomic<bool> pause_ack{false};

    // Shard-thread-only state.
    std::map<std::string, std::unique_ptr<BackendConn>> backends;
    std::vector<std::string> poll_backend_keys;  ///< BeforePoll's extra fds
    service::json::Arena arena;  // reset per peeked frame
    bool paused_now = false;     ///< `paused` as this iteration saw it
    bool was_paused = false;

    /// Recent dial failures: until the entry expires, requests routed to
    /// that backend fail fast with the cached error instead of burning
    /// another admin_deadline_millis blocking the whole reactor.
    struct DialFailure {
      std::chrono::steady_clock::time_point until;
      std::string error;
    };
    std::map<std::string, DialFailure> dial_failures;

    // ---- client side ----

    std::unique_ptr<Conn> NewConn() override {
      return std::make_unique<ClientConn>(impl->options.max_frame_bytes);
    }

    /// Unanswered slots plus unwritten replies: a non-reading client stalls.
    size_t Backlog(const Conn& conn) const override {
      return static_cast<const ClientConn&>(conn).pending.size() +
             conn.out.size();
    }

    Pending& PushSlot(ClientConn* conn) {
      conn->pending.emplace_back();
      conn->pending.back().seq = conn->next_seq++;
      return conn->pending.back();
    }

    /// Answers a request locally (no backend round trip).
    void PushLocal(ClientConn* conn, std::string&& body) {
      Pending& slot = PushSlot(conn);
      slot.ready = true;
      slot.body = std::move(body);
      counters.local_answers.Add();
    }

    // ---- backend side ----

    /// The live connection to `address`, dialing if necessary. Null on
    /// connect failure, with `*error` set.
    BackendConn* EnsureBackend(const BackendAddress& address,
                               std::string* error) {
      const std::string key = ToString(address);
      auto it = backends.find(key);
      if (it != backends.end()) return it->second.get();
      auto failed = dial_failures.find(key);
      if (failed != dial_failures.end()) {
        if (std::chrono::steady_clock::now() < failed->second.until) {
          *error = failed->second.error;
          counters.dial_backoffs.Add();
          return nullptr;
        }
        dial_failures.erase(failed);
      }
      auto dialed = Dial(address.host, address.port,
                         impl->options.admin_deadline_millis);
      if (!dialed.ok()) {
        *error = dialed.status().message();
        dial_failures[key] = {
            std::chrono::steady_clock::now() +
                std::chrono::milliseconds(
                    impl->options.connect_backoff_millis),
            *error};
        return nullptr;
      }
      auto conn = std::make_unique<BackendConn>(impl->options.max_frame_bytes);
      conn->fd = dialed.value();
      conn->address = key;
      conn->reader.set_pool(&pool);
      BackendConn* raw = conn.get();
      backends.emplace(key, std::move(conn));
      counters.backend_reconnects.Add();
      return raw;
    }

    /// Fails every in-flight request on `backend` with Unavailable and
    /// drops the connection (the next request re-dials).
    void FailBackend(BackendConn* backend, const std::string& reason) {
      const std::string key = backend->address;
      std::deque<Forwarded> orphans;
      orphans.swap(backend->in_flight);
      in_flight_count.fetch_sub(orphans.size(), std::memory_order_relaxed);
      counters.backend_errors.Add(orphans.size());
      CloseFd(&backend->fd);
      backends.erase(key);  // `backend` is dead past this line
      const std::string error = SerializeError(
          Status::Unavailable("backend " + key + ": " + reason));
      for (Forwarded& entry : orphans) {
        ClientConn* conn = static_cast<ClientConn*>(Find(entry.client_id));
        if (conn == nullptr) continue;
        Touch(conn);
        for (Pending& slot : conn->pending) {
          if (slot.seq != entry.seq) continue;
          if (!slot.ready) {
            slot.ready = true;
            slot.kind = Pending::Kind::kSingle;
            slot.body = error;
          }
          break;
        }
      }
    }

    /// Queues `payload` on the backend owning it and records the slot to
    /// fill when the response comes back.
    void Forward(ClientConn* conn, const BackendAddress& address,
                 std::string&& payload, std::string close_id) {
      std::string error;
      BackendConn* backend = EnsureBackend(address, &error);
      if (backend == nullptr) {
        pool.Release(std::move(payload));
        counters.backend_errors.Add();
        PushLocal(conn, SerializeError(Status::Unavailable(
                            "backend " + ToString(address) + ": " + error)));
        return;
      }
      const size_t size = payload.size();
      if (!backend->out.Push(std::move(payload),
                             impl->options.max_frame_bytes)) {
        // Only an open rebuilt with a minted id can outgrow the cap the
        // client's frame passed; the backend would reject it, so answer
        // here and forward nothing.
        pool.Release(std::move(payload));
        PushLocal(conn, SerializeError(Status::InvalidArgument(
                            "request of " + std::to_string(size) +
                            " bytes exceeds the " +
                            std::to_string(impl->options.max_frame_bytes) +
                            "-byte frame limit")));
        return;
      }
      Track(backend, conn->id, PushSlot(conn).seq, std::move(close_id));
    }

    /// Records slot `seq` of client `client_id` as awaiting `backend`. The
    /// frame goes out with the backend's next FlushBackends.
    void Track(BackendConn* backend, uint64_t client_id, uint64_t seq,
               std::string close_id) {
      backend->in_flight.push_back({client_id, seq, std::move(close_id)});
      in_flight_count.fetch_add(1, std::memory_order_relaxed);
      counters.frames_forwarded.Add();
    }

    /// Writes every backend's queued requests: one sendmsg burst per
    /// backend per call. A backend whose send fails has its slots answered
    /// Unavailable, touching their clients.
    void FlushBackends() {
      for (auto it = backends.begin(); it != backends.end();) {
        BackendConn* backend = it->second.get();
        ++it;  // FailBackend erases `backend`'s entry
        if (!backend->out.empty() &&
            !backend->out.Flush(backend->fd, &pool,
                                &counters.backend_send_calls)) {
          FailBackend(backend, "send failed");
        }
      }
    }

    /// Broadcasts `payload` to every backend in the map — plus any
    /// override targets the map no longer lists, where sessions stranded
    /// by a failed rebalance still live — and merges the responses into
    /// one slot.
    void FanOut(ClientConn* conn, Pending::Kind kind, std::string&& payload) {
      const std::vector<BackendAddress> targets =
          impl->WithOverrideTargets(impl->Map()->backends);
      Pending& slot = PushSlot(conn);
      slot.kind = kind;
      slot.awaiting = static_cast<uint32_t>(targets.size());
      slot.parts.reserve(targets.size());
      const uint64_t seq = slot.seq;
      counters.fanouts.Add();
      for (const BackendAddress& address : targets) {
        std::string error;
        BackendConn* backend = EnsureBackend(address, &error);
        if (backend == nullptr) {
          // One unreachable backend fails the whole merge: a partial sum
          // would silently under-report. (`slot` stays valid: deque
          // references survive push_backs at the ends.)
          counters.backend_errors.Add();
          slot.ready = true;
          slot.kind = Pending::Kind::kSingle;
          slot.awaiting = 0;
          slot.parts.clear();
          slot.body = SerializeError(Status::Unavailable(
              "backend " + ToString(address) + ": " + error));
          break;
        }
        std::string copy = pool.Acquire();
        copy.assign(payload);
        // Fits: it is the client's frame, read under the same cap.
        backend->out.Push(std::move(copy), impl->options.max_frame_bytes);
        Track(backend, conn->id, seq, std::string());
      }
      pool.Release(std::move(payload));
    }

    /// Clients whose pending queue changed while handling backend I/O,
    /// each listed once; re-stepped after the backend pass, which sends
    /// their ready replies and dispatches inputs parked by the
    /// pending-queue cap once capacity frees up.
    std::vector<uint64_t> touched_clients;

    void Touch(ClientConn* conn) {
      if (conn->touched) return;
      conn->touched = true;
      touched_clients.push_back(conn->id);
    }

    /// Steps every touched client once and sends what they dispatched,
    /// until quiet: a failed backend flush touches the clients whose slots
    /// it answered.
    void Settle() {
      while (!touched_clients.empty()) {
        std::vector<uint64_t> touched;
        touched.swap(touched_clients);
        for (const uint64_t id : touched) {
          if (Conn* conn = Find(id)) {
            static_cast<ClientConn*>(conn)->touched = false;
            Step(conn);
          }
        }
        FlushBackends();
      }
    }

    /// One response frame from a backend: fill the slot it answers.
    void OnBackendResponse(BackendConn* backend, std::string&& payload) {
      if (backend->in_flight.empty()) {
        // A response nobody asked for: protocol corruption.
        pool.Release(std::move(payload));
        FailBackend(backend, "unsolicited response");
        return;
      }
      Forwarded entry = std::move(backend->in_flight.front());
      backend->in_flight.pop_front();
      in_flight_count.fetch_sub(1, std::memory_order_relaxed);
      if (!entry.close_id.empty() && payload.rfind("{\"ok\"", 0) == 0) {
        impl->EraseOverride(entry.close_id);
      }
      ClientConn* conn = static_cast<ClientConn*>(Find(entry.client_id));
      if (conn == nullptr) {
        pool.Release(std::move(payload));  // client died mid-request
        return;
      }
      Touch(conn);
      for (Pending& slot : conn->pending) {
        if (slot.seq != entry.seq) continue;
        if (slot.ready) break;  // already failed (backend death, fan-out)
        if (slot.kind == Pending::Kind::kSingle) {
          slot.ready = true;
          slot.body = std::move(payload);
        } else {
          slot.parts.push_back(std::move(payload));
          if (--slot.awaiting == 0) {
            auto merged = slot.kind == Pending::Kind::kCounters
                              ? MergeCountersFrames(slot.parts)
                              : MergeSessionsFrames(slot.parts);
            slot.body = merged.ok() ? std::move(merged.value())
                                    : SerializeError(merged.status());
            slot.parts.clear();
            slot.ready = true;
          }
        }
        break;
      }
    }

    void ReadFromBackend(BackendConn* backend) {
      char buffer[64 * 1024];
      std::string reason;  // why the stream ended, if it did
      for (;;) {
        const ssize_t n = ::recv(backend->fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
          backend->reader.Feed(buffer, static_cast<size_t>(n));
          // Drained for now: POLLIN re-arms for whatever follows.
          if (static_cast<size_t>(n) < sizeof(buffer)) break;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        reason = n == 0 ? "connection closed"
                        : std::string("recv: ") + std::strerror(errno);
        break;
      }
      // OnBackendResponse can kill `backend` via FailBackend (an
      // unsolicited frame, say), so the liveness re-check must go through
      // the map by key — touching backend->address after that would read
      // freed memory.
      const std::string key = backend->address;
      while (backend->reader.HasEvent()) {
        FrameReader::Event event = backend->reader.Next();
        if (event.kind == FrameReader::Event::Kind::kBadFrame) {
          FailBackend(backend, "bad response frame: " + event.error);
          return;
        }
        OnBackendResponse(backend, std::move(event.payload));
        if (backends.find(key) == backends.end()) return;
      }
      if (!reason.empty()) FailBackend(backend, reason);
    }

    // ---- routing ----

    /// The backend owning `id`: the override table first (non-quiescent
    /// sessions pinned to their pre-rebalance home), then jump hash.
    BackendAddress Route(std::string_view id,
                         const std::shared_ptr<const ShardMap>& map) {
      if (impl->override_count.load(std::memory_order_acquire) > 0) {
        std::lock_guard<std::mutex> lock(impl->override_mutex);
        auto it = impl->overrides.find(std::string(id));
        if (it != impl->overrides.end()) return it->second;
      }
      return map->backends[ShardFor(id, map->backends.size())];
    }

    void Dispatch(ClientConn* conn, FrameReader::Event&& event) {
      if (event.kind == FrameReader::Event::Kind::kBadFrame) {
        PushLocal(conn, SerializeError(Status::InvalidArgument(
                            "bad frame: " + event.error)));
        return;
      }
      arena.Reset();
      auto peeked = PeekRequest(event.payload, &arena);
      if (!peeked.ok()) {
        pool.Release(std::move(event.payload));
        PushLocal(conn, SerializeError(peeked.status()));
        return;
      }
      const RequestPeek& peek = peeked.value();
      const std::string_view op = peek.op;
      if (op == "counters" || op == "sessions") {
        FanOut(conn,
               op == "counters" ? Pending::Kind::kCounters
                                : Pending::Kind::kSessions,
               std::move(event.payload));
        return;
      }
      const std::shared_ptr<const ShardMap> map = impl->Map();
      if (op == "open") {
        if (peek.has_id) {
          Forward(conn, Route(peek.id, map), std::move(event.payload),
                  std::string());
          return;
        }
        // Mint the handle here so placement is decided before any backend
        // sees the open.
        char minted[2 + 16 + 1];
        std::snprintf(minted, sizeof(minted), "r-%016llx",
                      static_cast<unsigned long long>(
                          impl->next_minted.fetch_add(
                              1, std::memory_order_relaxed)));
        std::string rebuilt = pool.Acquire();
        AppendOpenWithId(*peek.root, minted, &rebuilt);
        pool.Release(std::move(event.payload));
        counters.ids_minted.Add();
        Forward(conn, Route(minted, map), std::move(rebuilt), std::string());
        return;
      }
      const bool needs_id = op == "ask" || op == "tell" || op == "oracle" ||
                            op == "status" || op == "close" ||
                            op == "export" || op == "import";
      if (!needs_id) {
        std::string body = UnknownOpError(op);  // `op` views the payload
        pool.Release(std::move(event.payload));
        PushLocal(conn, std::move(body));
        return;
      }
      if (!peek.has_id) {
        pool.Release(std::move(event.payload));
        PushLocal(conn, MissingIdError());
        return;
      }
      std::string close_id;
      if (op == "close" &&
          impl->override_count.load(std::memory_order_acquire) > 0) {
        close_id = std::string(peek.id);
      }
      Forward(conn, Route(peek.id, map), std::move(event.payload),
              std::move(close_id));
    }

    /// Advances one client connection: move every ready front slot to the
    /// output queue, dispatch queued requests (unless a rebalance has
    /// dispatch paused) onto their backends' queues while slots are free,
    /// flush, and close when fully drained after EOF. Slots answered
    /// locally free room at once, hence the loop: a client whose unread
    /// inputs fill the cap is not polled, so this Step must dispatch
    /// everything it has room for.
    void Step(Conn* base) override {
      ClientConn* conn = static_cast<ClientConn*>(base);
      const size_t cap = impl->options.max_queued_frames;
      for (;;) {
        while (!conn->pending.empty() && conn->pending.front().ready) {
          Reply(conn, std::move(conn->pending.front().body));
          conn->pending.pop_front();
        }
        if (paused_now || conn->inputs.empty() || conn->pending.size() >= cap) {
          break;
        }
        while (!conn->inputs.empty() && conn->pending.size() < cap) {
          FrameReader::Event event = std::move(conn->inputs.front());
          conn->inputs.pop_front();
          Dispatch(conn, std::move(event));
        }
      }
      if (!Flush(conn)) {
        Close(conn->id);
        return;
      }
      if (conn->peer_eof && conn->inputs.empty() && conn->pending.empty() &&
          conn->out.empty()) {
        Close(conn->id);
      }
    }

    /// Reads the pause and polls every backend connection.
    void BeforePoll(std::vector<pollfd>* fds) override {
      paused_now = impl->paused.load(std::memory_order_acquire);
      if (was_paused && !paused_now) {
        // Dispatch resumed: requests queued while paused generate no new
        // socket events, so every client must be stepped by hand — and
        // what they dispatch sent — before this iteration's poll, which
        // would otherwise block on sockets that will never speak first.
        for (auto& [id, conn] : conns) {
          Touch(static_cast<ClientConn*>(conn.get()));
        }
        Settle();
      }
      was_paused = paused_now;
      poll_backend_keys.clear();
      for (auto& [key, backend] : backends) {
        short events = POLLIN;  // responses can arrive at any time
        if (!backend->out.empty()) events |= POLLOUT;
        fds->push_back({backend->fd, events, 0});
        poll_backend_keys.push_back(key);
      }
    }

    void AfterPoll(const pollfd* extra, size_t count) override {
      // What this pass's client steps dispatched goes out before the
      // replies are read; this also covers every backend polled for
      // POLLOUT, whose queue was non-empty.
      FlushBackends();
      for (size_t i = 0; i < count; ++i) {
        const std::string& key = poll_backend_keys[i];
        auto it = backends.find(key);
        if (it == backends.end()) continue;  // failed while handling others
        BackendConn* backend = it->second.get();
        const short revents = extra[i].revents;
        if (revents & (POLLERR | POLLNVAL)) {
          FailBackend(backend, "socket error");
          continue;
        }
        if (revents & (POLLIN | POLLHUP)) ReadFromBackend(backend);
      }
      // Backend responses filled slots and freed pending-queue capacity on
      // these clients: stepping them sends the replies, and without it a
      // client paused at the cap with no socket events would never
      // dispatch its queued inputs again.
      Settle();
      // With the pause observed and this iteration's dispatches counted
      // in in_flight_count (queued or sent), acking is what lets Rebalance
      // trust a zero in-flight sum: no dispatch can follow the ack until
      // unpause.
      pause_ack.store(paused_now, std::memory_order_release);
    }

    /// Drops the backend connections, their in-flight count (the next
    /// rebalance's drain must not wait on it), and the dial failures.
    void OnStop() override {
      for (auto& [key, backend] : backends) CloseFd(&backend->fd);
      backends.clear();
      dial_failures.clear();
      in_flight_count.store(0, std::memory_order_relaxed);
    }
  };

  Impl(ShardMap initial, const RouterOptions& options)
      : Reactor("router", options), options(options) {
    if (initial.generation == 0) initial.generation = 1;
    InstallMap(std::move(initial));
    for (size_t i = 0; i < options.reactors; ++i) {
      shards.push_back(AddShard<Shard>(this));
    }
  }

  const RouterOptions options;
  std::vector<Shard*> shards;  ///< owned by the reactor

  std::atomic<bool> paused{false};
  std::atomic<uint64_t> next_minted{1};  ///< re-seeded with a nonce at Start

  /// The live map, copy-on-write: dispatch grabs the shared_ptr under the
  /// mutex (cheap), Rebalance installs a fresh one.
  mutable std::mutex map_mutex;
  std::shared_ptr<const ShardMap> map;

  /// Sessions pinned off their jump-hash home: non-quiescent at rebalance
  /// time, still living on their old backend until they close. Checked on
  /// the hot path only when non-empty (override_count guards the lock).
  std::mutex override_mutex;
  std::unordered_map<std::string, BackendAddress> overrides;
  std::atomic<uint64_t> override_count{0};

  /// One rebalance at a time.
  std::mutex rebalance_mutex;
  std::atomic<uint64_t> handoffs{0};
  std::atomic<uint64_t> handoff_skipped{0};
  std::atomic<uint64_t> rebalances{0};

  std::shared_ptr<const ShardMap> Map() const {
    std::lock_guard<std::mutex> lock(map_mutex);
    return map;
  }

  void InstallMap(ShardMap next) {
    std::lock_guard<std::mutex> lock(map_mutex);
    map = std::make_shared<const ShardMap>(std::move(next));
  }

  void AddOverride(const std::string& id, const BackendAddress& address) {
    std::lock_guard<std::mutex> lock(override_mutex);
    if (overrides.emplace(id, address).second) {
      override_count.fetch_add(1, std::memory_order_release);
    }
  }

  /// `backends` plus every override target they do not list: where
  /// sessions stranded by a failed rebalance still live.
  std::vector<BackendAddress> WithOverrideTargets(
      std::vector<BackendAddress> backends) {
    if (override_count.load(std::memory_order_acquire) == 0) return backends;
    std::lock_guard<std::mutex> lock(override_mutex);
    for (const auto& [id, address] : overrides) {
      if (std::find(backends.begin(), backends.end(), address) ==
          backends.end()) {
        backends.push_back(address);
      }
    }
    return backends;
  }

  void EraseOverride(const std::string& id) {
    std::lock_guard<std::mutex> lock(override_mutex);
    if (overrides.erase(id) > 0) {
      override_count.fetch_sub(1, std::memory_order_release);
    }
  }
};

Router::Router(ShardMap map, RouterOptions options)
    : impl_(std::make_unique<Impl>(std::move(map), options)) {}

Router::~Router() { Stop(); }

common::Status Router::Start() {
  Impl* impl = impl_.get();
  if (impl->running()) {
    return Status::FailedPrecondition("router already running");
  }
  if (impl->Map()->empty()) {
    return Status::InvalidArgument("shard map has no backends");
  }
  // Backend dials run on the reactor threads; an unbounded one could stall
  // a shard forever.
  if (impl->options.admin_deadline_millis <= 0) {
    return Status::InvalidArgument(
        "options.admin_deadline_millis must be > 0");
  }
  // Minted ids keep their "r-" + 16 hex digit shape, but the counter's
  // high 32 bits are a per-Start nonce: a restarted router (or a second
  // instance) mints from a different range instead of replaying 1, 2, 3
  // into backends that may still hold those handles.
  {
    std::random_device entropy;
    const uint64_t nonce =
        (static_cast<uint64_t>(entropy()) ^
         static_cast<uint64_t>(std::chrono::steady_clock::now()
                                   .time_since_epoch()
                                   .count())) &
        0xffffffffull;
    impl->next_minted.store((nonce << 32) | 1, std::memory_order_relaxed);
  }
  impl->paused.store(false, std::memory_order_release);
  return impl->Start();
}

void Router::Stop() { impl_->Stop(); }

uint16_t Router::port() const { return impl_->port(); }

ShardMap Router::shard_map() const { return *impl_->Map(); }

common::Status Router::Rebalance(std::vector<BackendAddress> backends) {
  Impl* impl = impl_.get();
  if (backends.empty()) {
    return Status::InvalidArgument("rebalance needs at least one backend");
  }
  if (!impl->running()) {
    return Status::FailedPrecondition("router not running");
  }
  std::lock_guard<std::mutex> rebalance_lock(impl->rebalance_mutex);
  const ShardMap old = *impl->Map();

  // Pause dispatch and drain: once every shard acks the pause, the
  // in-flight sum can only fall; zero means the fleet is request-silent
  // and sessions can quiesce.
  impl->paused.store(true, std::memory_order_release);
  // A shard's ack can still be true from the previous rebalance (it is
  // only rewritten at the end of a loop iteration, and requests queued
  // while paused dispatch at the top of the next one). Clear them all so
  // the drain below trusts only acks that observed *this* pause.
  for (auto& shard : impl->shards) {
    shard->pause_ack.store(false, std::memory_order_release);
  }
  for (auto& shard : impl->shards) shard->Wake();
  auto resume = [impl] {
    impl->paused.store(false, std::memory_order_release);
    for (auto& shard : impl->shards) shard->Wake();
  };
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(impl->options.drain_deadline_millis);
  for (;;) {
    bool acked = true;
    for (auto& shard : impl->shards) {
      if (!shard->pause_ack.load(std::memory_order_acquire)) acked = false;
    }
    uint64_t in_flight = 0;
    for (auto& shard : impl->shards) {
      in_flight += shard->in_flight_count.load(std::memory_order_relaxed);
    }
    if (acked && in_flight == 0) break;
    if (std::chrono::steady_clock::now() >= drain_deadline) {
      resume();
      return Status::DeadlineExceeded(
          "rebalance: in-flight requests did not drain");
    }
    for (auto& shard : impl->shards) shard->Wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Migrate every session whose owner changes, over fresh control-plane
  // connections (deadline-bounded so a wedged backend fails the rebalance
  // instead of hanging it). Sessions pinned by an override live on their
  // pinned backend, which is where ListSessions finds them.
  std::map<std::string, Client> admin;
  auto admin_client = [&](const BackendAddress& address) -> Client* {
    const std::string key = ToString(address);
    auto it = admin.find(key);
    if (it != admin.end()) return &it->second;
    auto connected =
        Client::Connect(address.host, address.port,
                        impl->options.max_frame_bytes,
                        impl->options.admin_deadline_millis);
    if (!connected.ok()) return nullptr;
    return &admin.emplace(key, std::move(connected.value())).first->second;
  };
  // Sessions already moved when a later step fails: pinned to their new
  // home so the old map still routes them, then the rebalance aborts.
  std::vector<std::pair<std::string, BackendAddress>> moved;
  auto abort_rebalance = [&](Status status) {
    for (const auto& [id, address] : moved) impl->AddOverride(id, address);
    resume();
    return status;
  };

  // The sources to sweep: every backend of the old map, plus any override
  // targets that are off-map (sessions stranded by an earlier rebalance).
  const std::vector<BackendAddress> sources =
      impl->WithOverrideTargets(old.backends);

  for (const BackendAddress& source : sources) {
    Client* from = admin_client(source);
    if (from == nullptr) {
      return abort_rebalance(Status::Unavailable(
          "rebalance: cannot reach backend " + ToString(source)));
    }
    auto listed = from->ListSessions();
    if (!listed.ok()) return abort_rebalance(listed.status());
    for (const std::string& id : listed.value()) {
      const BackendAddress target =
          backends[ShardFor(id, backends.size())];
      if (target == source) {
        impl->EraseOverride(id);  // the new map's home is where it lives
        continue;
      }
      auto exported = from->ExportSession(id);
      if (!exported.ok()) {
        if (exported.status().code() ==
            common::StatusCode::kFailedPrecondition) {
          // Labels pending: the session cannot park. Pin it where it is
          // and migrate it on a later rebalance (or let close retire it).
          impl->AddOverride(id, source);
          impl->handoff_skipped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        return abort_rebalance(exported.status());
      }
      Client* to = admin_client(target);
      Status imported =
          to == nullptr ? Status::Unavailable("rebalance: cannot reach " +
                                              ToString(target))
                        : to->ImportSession(id, exported.value().scenario,
                                            exported.value().image);
      if (!imported.ok()) {
        // Put the session back where it came from; if even that fails the
        // image is lost and the error says so.
        const Status restored = from->ImportSession(
            id, exported.value().scenario, exported.value().image);
        if (!restored.ok()) {
          return abort_rebalance(Status::DataLoss(
              "rebalance: import failed (" + imported.message() +
              ") and restore failed (" + restored.message() +
              ") for session " + id));
        }
        return abort_rebalance(imported);
      }
      impl->EraseOverride(id);
      moved.emplace_back(id, target);
      impl->handoffs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ShardMap next;
  next.generation = old.generation + 1;
  next.backends = std::move(backends);
  impl->InstallMap(std::move(next));
  impl->rebalances.fetch_add(1, std::memory_order_relaxed);
  resume();
  return Status::OK();
}

RouterStats Router::stats() const {
  RouterStats total;
  impl_->AddStatsTo(&total);
  for (const Impl::Shard* shard : impl_->shards) {
    shard->counters.AddTo(&total);
  }
  total.handoffs = impl_->handoffs.load(std::memory_order_relaxed);
  total.handoff_skipped =
      impl_->handoff_skipped.load(std::memory_order_relaxed);
  total.rebalances = impl_->rebalances.load(std::memory_order_relaxed);
  return total;
}

}  // namespace net
}  // namespace qlearn
