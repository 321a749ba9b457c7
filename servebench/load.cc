#include "load.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <algorithm>
#include <numeric>
#include <queue>

#include "net/frame.h"

namespace servebench {

using qlearn::common::Status;

struct LoadClient::Conn {
  int fd = -1;
  std::string out;
  size_t out_sent = 0;
  std::string in;
  size_t in_used = 0;
  std::deque<Session*> waiting;  // sessions whose request is in flight
};

struct LoadClient::Session {
  const Script* script = nullptr;
  size_t step = 0;
  std::string id;
  uint32_t number = 0;
  Conn* conn = nullptr;
  int64_t due_us = 0;        // arrival due time (open) or admission time
  int64_t sent_us = 0;       // send time of the request in flight
  int64_t step_due_us = 0;   // open: when the request in flight was due
  int64_t tell_rtt_us = -1;  // open: first half of a turn
  bool parked = false;       // open: thinking after an import
  std::string import_frame;  // built from the last export reply
};

namespace {

// Draws the session order: permuted blocks over the scripts.
class Order {
 public:
  Order(size_t scripts, uint64_t seed) : rng_(seed), block_(scripts) {
    std::iota(block_.begin(), block_.end(), 0);
    next_ = block_.size();
  }
  size_t Next() {
    if (next_ == block_.size()) {
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_.Below(i)]);
      }
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  Rng rng_;
  std::vector<size_t> block_;
  size_t next_;
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t use) {
  return Rng(seed * 0x100000001b3ull ^ (stream << 8) ^ use).Next();
}

}  // namespace

void PhaseResult::Append(const PhaseResult& other) {
  const auto concat = [](auto* into, const auto& from) {
    into->insert(into->end(), from.begin(), from.end());
  };
  requests += other.requests;
  failed += other.failed;
  mismatched += other.mismatched;
  sessions_started += other.sessions_started;
  sessions_completed += other.sessions_completed;
  sessions_completed_admitting += other.sessions_completed_admitting;
  admit_seconds += other.admit_seconds;
  concat(&ttfq_us, other.ttfq_us);
  concat(&turn_us, other.turn_us);
  concat(&lateness_us, other.lateness_us);
  concat(&spans, other.spans);
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  asks += other.asks;
  questions += other.questions;
  max_parked = std::max(max_parked, other.max_parked);
  for (const std::string& note : other.notes) {
    if (notes.size() < 8) notes.push_back(note);
  }
}

LoadClient::LoadClient(const std::vector<Script>* scripts, uint64_t seed)
    : scripts_(scripts), seed_(seed) {
  id_prefix_ = static_cast<uint32_t>(Rng(seed).Next() >> 32);
  // ppoll timeouts at microsecond resolution, not the default 50 µs slack.
  prctl(PR_SET_TIMERSLACK, 1UL);
}

LoadClient::~LoadClient() { Disconnect(); }

Status LoadClient::Connect(uint16_t port, size_t connections) {
  Disconnect();
  for (size_t c = 0; c < connections; ++c) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return Status::Unavailable("connect to port " + std::to_string(port) +
                                 ": " + std::strerror(errno));
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
  }
  return Status::OK();
}

void LoadClient::Disconnect() {
  for (auto& conn : conns_) close(conn->fd);
  conns_.clear();
}

std::vector<int64_t> LoadClient::ScheduleDigest(uint64_t stream, double rate,
                                                size_t n) const {
  Order order(scripts_->size(), StreamSeed(seed_, stream, 1));
  Rng gaps(StreamSeed(seed_, stream, 2));
  std::vector<int64_t> digest;
  for (size_t i = 0; i < n; ++i) {
    digest.push_back(static_cast<int64_t>(order.Next()));
    digest.push_back(static_cast<int64_t>(1e6 / rate * gaps.Uniform(0.5, 1.5)));
  }
  digest.push_back(id_prefix_);
  return digest;
}

PhaseResult LoadClient::Run(const PhaseConfig& config, uint64_t stream) {
  PhaseResult result;
  // A phase that lost its connection may leave replies unaccounted for;
  // they belong to sessions of that phase, which are gone.
  for (auto& conn : conns_) {
    conn->waiting.clear();
    conn->out.clear();
    conn->out_sent = 0;
    conn->in.clear();
    conn->in_used = 0;
  }
  Order order(scripts_->size(), StreamSeed(seed_, stream, 1));
  Rng gaps(StreamSeed(seed_, stream, 2));
  Rng think(StreamSeed(seed_, stream, 3));
  const double mean_gap_us = config.open_loop ? 1e6 / config.rate : 0;

  std::vector<std::unique_ptr<Session>> pool;
  std::vector<Session*> free_sessions;
  using Timer = std::pair<int64_t, Session*>;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers;
  size_t live = 0;
  uint64_t parked = 0;
  uint64_t replies = 0;
  bool fault_done = fault_.kind == Fault::Kind::kNone;

  const int64_t start_us = NowMicros();
  const int64_t admit_until =
      config.seconds > 0 ? start_us + static_cast<int64_t>(config.seconds * 1e6)
                         : INT64_MAX;
  int64_t next_arrival = start_us;
  bool admitting = true;

  const auto issue = [&](Session* s, int64_t now) {
    const Step& step = s->script->steps[s->step];
    Conn* conn = s->conn;
    const size_t before = conn->out.size();
    if (step.op == Op::kImport) {
      conn->out.append(s->import_frame);
    } else {
      step.request.AppendTo(s->id, &conn->out);
    }
    result.bytes_sent += conn->out.size() - before;
    ++result.requests;
    s->sent_us = now;
    conn->waiting.push_back(s);
  };

  const auto admit = [&](int64_t due, int64_t now) {
    Session* s;
    if (free_sessions.empty()) {
      pool.push_back(std::make_unique<Session>());
      s = pool.back().get();
    } else {
      s = free_sessions.back();
      free_sessions.pop_back();
    }
    s->script = &(*scripts_)[order.Next()];
    s->step = 0;
    s->number = next_session_++;
    s->id = SessionId(id_prefix_, s->number);
    s->conn = conns_[s->number % conns_.size()].get();
    s->due_us = due;
    s->step_due_us = due;
    s->tell_rtt_us = -1;
    ++live;
    ++result.sessions_started;
    if (config.open_loop) result.lateness_us.push_back(now - due);
    issue(s, now);
  };

  const auto finish = [&](Session* s, int64_t now) {
    --live;
    ++result.sessions_completed;
    if (admitting) ++result.sessions_completed_admitting;
    free_sessions.push_back(s);
    if (!config.open_loop && admitting &&
        (config.max_sessions == 0 ||
         result.sessions_started < config.max_sessions)) {
      admit(now, now);
    }
  };

  const auto note = [&](const Session* s, const std::string& what) {
    if (result.notes.size() < 8) {
      result.notes.push_back("session " + s->id + " (" + s->script->golden +
                             ") step " + std::to_string(s->step) + " " +
                             OpName(s->script->steps[s->step].op) + ": " +
                             what);
    }
  };

  const auto on_reply = [&](Conn* conn, std::string_view frame, int64_t now) {
    ++replies;
    result.bytes_received += frame.size();
    if (conn->waiting.empty()) {
      ++result.failed;
      return;
    }
    Session* s = conn->waiting.front();
    conn->waiting.pop_front();
    const Step& step = s->script->steps[s->step];
    const std::string_view payload =
        frame.substr(qlearn::net::kFrameHeaderBytes);
    if (payload.rfind("{\"error\"", 0) == 0) {
      ++result.failed;
      note(s, std::string(payload.substr(0, 200)));
      finish(s, now);  // the session is broken; drop it
      return;
    }
    if (!step.response.Matches(s->id, frame)) {
      ++result.mismatched;
      note(s, "reply differs from the expected bytes");
    }
    if (config.trace) {
      result.spans.push_back(ClientSpan{step.op, s->number, s->sent_us, now});
    }
    switch (step.op) {
      case Op::kAsk:
        ++result.asks;
        result.questions += step.questions;
        if (config.open_loop) {
          if (s->step == 1) result.ttfq_us.push_back(now - s->due_us);
          if (s->tell_rtt_us >= 0) {
            result.turn_us.push_back(s->tell_rtt_us + (now - s->step_due_us));
            s->tell_rtt_us = -1;
          }
        }
        break;
      case Op::kTell:
        if (config.open_loop) s->tell_rtt_us = now - s->step_due_us;
        break;
      case Op::kExport:
        s->import_frame.clear();
        AppendImportFrame(s->id, s->script->scenario, frame, &s->import_frame);
        break;
      default:
        break;
    }
    if (++s->step == s->script->steps.size()) {
      finish(s, now);
      return;
    }
    // The user thinks before each tell. When the tell is followed by a
    // handoff, the think comes after the import instead, so the session
    // sits parked while the user thinks.
    const std::vector<Step>& steps = s->script->steps;
    const bool handoff_follows =
        s->step + 1 < steps.size() && steps[s->step + 1].op == Op::kExport;
    s->step_due_us = now;
    if (config.open_loop &&
        (step.op == Op::kImport ||
         (steps[s->step].op == Op::kTell && !handoff_follows))) {
      s->step_due_us += static_cast<int64_t>(
          think.Uniform(config.think_min_us, config.think_max_us));
      s->parked = step.op == Op::kImport;
      if (s->parked) result.max_parked = std::max(result.max_parked, ++parked);
      timers.push({s->step_due_us, s});
      return;
    }
    issue(s, now);
  };

  // Splits the bytes read on `conn` into frames and handles them. The
  // self-test fault corrupts one reply, or swaps two different ones.
  const auto drain_frames = [&](Conn* conn, int64_t now) {
    const auto frame_at = [&](size_t at) -> std::string_view {
      if (conn->in_used - at < qlearn::net::kFrameHeaderBytes) return {};
      const uint64_t length = qlearn::net::DecodeFrameHeader(
          reinterpret_cast<const unsigned char*>(conn->in.data() + at));
      const size_t total = qlearn::net::kFrameHeaderBytes + length;
      if (conn->in_used - at < total) return {};
      return std::string_view(conn->in.data() + at, total);
    };
    size_t at = 0;
    for (std::string_view frame = frame_at(at); !frame.empty();
         frame = frame_at(at)) {
      at += frame.size();
      if (!fault_done && replies >= fault_.after_replies) {
        if (fault_.kind == Fault::Kind::kFlipByte) {
          std::string bad(frame);
          bad[bad.size() / 2] ^= 0x01;
          fault_done = true;
          on_reply(conn, bad, now);
          continue;
        }
        const std::string_view second = frame_at(at);
        if (!second.empty() && second != frame) {
          const std::string first_copy(frame);
          const std::string second_copy(second);
          at += second.size();
          fault_done = true;
          on_reply(conn, second_copy, now);
          on_reply(conn, first_copy, now);
          continue;
        }
      }
      on_reply(conn, frame, now);
    }
    conn->in.erase(0, at);
    conn->in_used -= at;
  };

  if (!config.open_loop) {
    for (size_t i = 0; i < config.in_flight; ++i) {
      if (config.max_sessions != 0 && i >= config.max_sessions) break;
      admit(start_us, start_us);
    }
  }

  std::vector<pollfd> fds(conns_.size());
  bool broken = false;
  const int64_t give_up = admit_until == INT64_MAX
                              ? INT64_MAX
                              : admit_until + 60'000'000;  // drain limit
  while (!broken) {
    int64_t now = NowMicros();
    if (now >= admit_until ||
        (config.max_sessions != 0 &&
         result.sessions_started >= config.max_sessions)) {
      admitting = false;
    }
    if (config.open_loop) {
      while (admitting && next_arrival <= now) {
        admit(next_arrival, now);
        next_arrival +=
            static_cast<int64_t>(mean_gap_us * gaps.Uniform(0.5, 1.5));
      }
      while (!timers.empty() && timers.top().first <= now) {
        Session* s = timers.top().second;
        timers.pop();
        result.lateness_us.push_back(now - s->step_due_us);
        if (s->parked) --parked;
        s->parked = false;
        issue(s, now);
      }
    }
    if (!admitting && live == 0) break;
    if (now > give_up) {
      result.failed += live;
      result.notes.push_back("phase did not drain");
      break;
    }

    // Flush what each connection has queued.
    for (size_t c = 0; c < conns_.size(); ++c) {
      Conn* conn = conns_[c].get();
      while (conn->out_sent < conn->out.size()) {
        const ssize_t n =
            send(conn->fd, conn->out.data() + conn->out_sent,
                 conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
        if (n > 0) {
          conn->out_sent += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n < 0 && errno != EAGAIN) broken = true;
          break;
        }
      }
      if (conn->out_sent == conn->out.size()) {
        conn->out.clear();
        conn->out_sent = 0;
      }
      fds[c] = pollfd{conn->fd,
                      static_cast<short>(POLLIN | (conn->out.empty() ? 0 : POLLOUT)),
                      0};
    }

    int64_t wait_us = 100'000;
    if (config.open_loop) {
      if (admitting) wait_us = std::min(wait_us, next_arrival - now);
      if (!timers.empty()) wait_us = std::min(wait_us, timers.top().first - now);
    }
    wait_us = std::max<int64_t>(wait_us, 0);
    const timespec timeout{static_cast<time_t>(wait_us / 1'000'000),
                           static_cast<long>((wait_us % 1'000'000) * 1000)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
        errno != EINTR) {
      broken = true;
      break;
    }
    now = NowMicros();
    for (size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn* conn = conns_[c].get();
      while (true) {
        if (conn->in.size() < conn->in_used + 65536) {
          conn->in.resize(conn->in_used + 65536);
        }
        const ssize_t n = recv(conn->fd, conn->in.data() + conn->in_used,
                               conn->in.size() - conn->in_used, 0);
        if (n > 0) {
          conn->in_used += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0 || errno != EAGAIN) broken = true;
        break;
      }
      drain_frames(conn, now);
    }
  }
  if (broken) {
    result.failed += live;
    result.notes.push_back("connection lost");
  }

  result.admit_seconds =
      static_cast<double>(std::min(NowMicros(), admit_until) - start_us) / 1e6;
  return result;
}

}  // namespace servebench
