#include "net/server.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/reactor.h"
#include "service/json.h"

namespace qlearn {
namespace net {

namespace {

/// A request handed to a shard's worker pool, or its response coming
/// back. Connections are referenced by id, not pointer: the connection may
/// be gone by the time the worker finishes, and a stale id simply fails
/// the lookup (the response is dropped).
struct Job {
  uint64_t conn_id = 0;
  std::string body;
};

/// A response too big to frame (a huge Ask batch) is answered with an
/// error saying so, ending in this advice.
constexpr char kSmallerBatch[] = "; ask for a smaller batch";

struct Connection : Conn {
  using Conn::Conn;
  bool in_flight = false;  ///< worker mode: a worker holds one request
};

/// A server shard: the reactor skeleton plus request dispatch, inline or
/// through this shard's worker pool.
class ServerShard : public ReactorShard {
 public:
  ServerShard(Reactor* reactor, size_t index,
              service::SessionService* service, size_t workers)
      : ReactorShard(reactor, index), service_(service), workers_(workers) {}

 private:
  std::unique_ptr<Conn> NewConn() override {
    return std::make_unique<Connection>(config().max_frame_bytes);
  }

  size_t Backlog(const Conn& conn) const override { return conn.out.size(); }

  /// Advances the per-connection request pipeline, keeping responses in
  /// arrival order. Inline mode answers every queued request on this
  /// thread and flushes the burst with one scatter-gather write; worker
  /// mode parks one request at a time in the pool. May close the
  /// connection.
  void Step(Conn* base) override {
    Connection* conn = static_cast<Connection*>(base);
    for (;;) {
      // Answer queued requests only while the output queue is under the
      // pipelining cap: a peer that pipelines but never reads must stall
      // this connection (TCP flow control), not grow conn->out without
      // bound.
      while (!conn->in_flight && !conn->inputs.empty() &&
             conn->out.size() < config().max_queued_frames) {
        FrameReader::Event event = std::move(conn->inputs.front());
        conn->inputs.pop_front();
        if (event.kind == FrameReader::Event::Kind::kBadFrame) {
          Reply(conn, SerializeError(common::Status::InvalidArgument(
                          "bad frame: " + event.error)));
          continue;
        }
        if (workers_ > 0) {
          conn->in_flight = true;
          {
            std::lock_guard<std::mutex> lock(jobs_mutex_);
            jobs_.push_back({conn->id, std::move(event.payload)});
          }
          jobs_cv_.notify_one();
          continue;
        }
        arena_.Reset();
        std::string response = pool.Acquire();
        HandleFrameInto(service_, event.payload, &arena_, &response);
        pool.Release(std::move(event.payload));
        Reply(conn, std::move(response), kSmallerBatch);
      }
      if (!Flush(conn)) {
        Close(conn->id);
        return;
      }
      // If the flush drained everything but requests are still queued,
      // keep going: with `out` empty the poll loop would not arm POLLOUT,
      // and with reads paused nothing else would re-enter this
      // connection. Leaving here with a non-empty `out` is safe — POLLOUT
      // drives the next Step — and so is leaving with a request in
      // flight, whose completion does.
      if (conn->in_flight || conn->inputs.empty() || !conn->out.empty()) {
        break;
      }
    }
    if (conn->peer_eof && !conn->in_flight && conn->inputs.empty() &&
        conn->out.empty()) {
      Close(conn->id);
    }
  }

  /// Worker mode: responses finished since the last iteration.
  void AfterPoll(const pollfd* /*extra*/, size_t /*count*/) override {
    std::deque<Job> batch;
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      batch.swap(done_);
    }
    for (Job& done : batch) {
      Connection* conn = static_cast<Connection*>(Find(done.conn_id));
      if (conn == nullptr) {
        // Connection died mid-request; recycle the orphaned response.
        pool.Release(std::move(done.body));
        continue;
      }
      conn->in_flight = false;
      Reply(conn, std::move(done.body), kSmallerBatch);
      Step(conn);
    }
  }

  void OnStart() override {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      stopping_ = false;
    }
    for (size_t w = 0; w < workers_; ++w) {
      worker_threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Joins the workers before the connections close; queued jobs and
  /// unclaimed responses are dropped.
  void OnStop() override {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      stopping_ = true;
      jobs_.clear();
    }
    jobs_cv_.notify_all();
    for (std::thread& worker : worker_threads_) worker.join();
    worker_threads_.clear();
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_.clear();
  }

  void WorkerLoop() {
    service::json::Arena worker_arena;
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(jobs_mutex_);
        jobs_cv_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
        if (stopping_) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      worker_arena.Reset();
      std::string response = pool.Acquire();
      HandleFrameInto(service_, job.body, &worker_arena, &response);
      pool.Release(std::move(job.body));
      {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_.push_back({job.conn_id, std::move(response)});
      }
      Wake();
    }
  }

  service::SessionService* const service_;
  const size_t workers_;
  service::json::Arena arena_;  // inline mode: reset per request

  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool stopping_ = false;  // guarded by jobs_mutex_

  std::mutex done_mutex_;
  std::deque<Job> done_;  ///< finished: bodies are responses
  std::vector<std::thread> worker_threads_;
};

}  // namespace

struct Server::Impl : Reactor {
  using Reactor::Reactor;
};

Server::Server(service::SessionService* service, ServerOptions options)
    : impl_(std::make_unique<Impl>("server", options)) {
  for (size_t i = 0; i < options.reactors; ++i) {
    impl_->AddShard<ServerShard>(service, options.workers);
  }
}

Server::~Server() { Stop(); }

common::Status Server::Start() { return impl_->Start(); }

void Server::Stop() { impl_->Stop(); }

uint16_t Server::port() const { return impl_->port(); }

ServerStats Server::stats() const {
  ServerStats total;
  impl_->AddStatsTo(&total);
  return total;
}

}  // namespace net
}  // namespace qlearn
