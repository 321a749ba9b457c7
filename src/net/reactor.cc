#include "net/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/protocol.h"

namespace qlearn {
namespace net {

using common::Status;

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

bool OutQueue::Push(std::string&& body, size_t max_frame_bytes) {
  const size_t size = body.size();
  if (size == 0 || size > max_frame_bytes || size > UINT32_MAX) return false;
  Frame& frame = frames_.emplace_back();
  EncodeFrameHeader(static_cast<uint32_t>(size), frame.header);
  frame.body = std::move(body);
  return true;
}

size_t OutQueue::Gather(iovec* iov) {
  size_t count = 0;
  for (Frame& frame : frames_) {
    if (count + 2 > kMaxIov) break;
    if (frame.header_sent < kFrameHeaderBytes) {
      iov[count].iov_base = frame.header + frame.header_sent;
      iov[count].iov_len = kFrameHeaderBytes - frame.header_sent;
      ++count;
    }
    if (frame.body_sent < frame.body.size()) {
      iov[count].iov_base = frame.body.data() + frame.body_sent;
      iov[count].iov_len = frame.body.size() - frame.body_sent;
      ++count;
    }
  }
  return count;
}

void OutQueue::Advance(size_t n, BufferPool* pool) {
  while (!frames_.empty()) {
    Frame& frame = frames_.front();
    const size_t header_take = std::min(n, kFrameHeaderBytes - frame.header_sent);
    frame.header_sent += header_take;
    n -= header_take;
    const size_t body_take = std::min(n, frame.body.size() - frame.body_sent);
    frame.body_sent += body_take;
    n -= body_take;
    if (frame.header_sent < kFrameHeaderBytes ||
        frame.body_sent < frame.body.size()) {
      return;
    }
    pool->Release(std::move(frame.body));
    frames_.pop_front();
  }
}

bool OutQueue::Flush(int fd, BufferPool* pool, Counter* send_calls) {
  while (!frames_.empty()) {
    iovec iov[kMaxIov];
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = Gather(iov);
    // Counted first, so a peer that holds the bytes sees the call counted.
    send_calls->Add();
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET/...
    }
    Advance(static_cast<size_t>(n), pool);
    if (n == 0) return true;  // defensive: avoid a hot spin
  }
  return true;
}

Status Reactor::Start() {
  if (running()) {
    return Status::FailedPrecondition(std::string(config_.name) +
                                      " already running");
  }
  if (shards_.empty()) {
    return Status::InvalidArgument("options.reactors must be > 0");
  }
  if (config_.max_frame_bytes == 0) {
    return Status::InvalidArgument("options.max_frame_bytes must be > 0");
  }

  auto fail = [this](Status status) {
    for (auto& shard : shards_) {
      CloseFd(&shard->wake_read_);
      CloseFd(&shard->wake_write_);
    }
    CloseFd(&listen_fd_);
    return status;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return fail(Status::Internal(std::string("socket: ") +
                                 std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail(
        Status::InvalidArgument("bad bind address: " + config_.bind_address));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, config_.backlog) != 0) {
    return fail(Status::Internal(std::string("bind/listen: ") +
                                 std::strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  for (auto& shard : shards_) {
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      return fail(Status::Internal(std::string("pipe2: ") +
                                   std::strerror(errno)));
    }
    shard->wake_read_ = pipe_fds[0];
    shard->wake_write_ = pipe_fds[1];
  }

  next_shard_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    ReactorShard* s = shard.get();
    s->thread_ = std::thread([s] { s->Loop(); });
  }
  return Status::OK();
}

void Reactor::Stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  for (auto& shard : shards_) shard->Wake();
  for (auto& shard : shards_) {
    if (shard->thread_.joinable()) shard->thread_.join();
  }
  for (auto& shard : shards_) {
    {
      // Sockets dealt to this shard that it never got to adopt. Swept
      // after every thread is joined, so nothing races the handoff.
      std::lock_guard<std::mutex> lock(shard->incoming_mutex_);
      for (int fd : shard->incoming_fds_) ::close(fd);
      shard->incoming_fds_.clear();
    }
    CloseFd(&shard->wake_read_);
    CloseFd(&shard->wake_write_);
  }
  CloseFd(&listen_fd_);
}

ReactorShard::ReactorShard(Reactor* reactor, size_t index)
    : pool(reactor->config_.pool_buffers, reactor->config_.pool_buffer_bytes),
      reactor_(reactor),
      index_(index) {}

void ReactorShard::Wake() {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] const ssize_t ignored = ::write(wake_write_, &byte, 1);
}

void ReactorShard::Reply(Conn* conn, std::string&& body, const char* hint) {
  if (conn->out.Push(std::move(body), config().max_frame_bytes)) return;
  const size_t size = body.size();
  pool.Release(std::move(body));
  conn->out.Push(SerializeError(Status::Internal(
                     "response of " + std::to_string(size) +
                     " bytes exceeds the frame limit" + hint)),
                 config().max_frame_bytes);
}

void ReactorShard::Close(uint64_t id) {
  auto it = conns.find(id);
  if (it == conns.end()) return;
  CloseFd(&it->second->fd);
  conns.erase(it);
  stats_.connections_open.Sub();
}

/// Takes ownership of an accepted, non-blocking socket.
void ReactorShard::AdoptFd(int fd) {
  std::unique_ptr<Conn> conn = NewConn();
  conn->fd = fd;
  conn->id = reactor_->next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->reader.set_pool(&pool);
  conns.emplace(conn->id, std::move(conn));
  stats_.connections_accepted.Add();
  stats_.connections_open.Add();
}

/// Shard 0 only: accept everything pending and deal the sockets
/// round-robin across shards (adopting its own share directly).
void ReactorShard::Accept() {
  const std::vector<std::unique_ptr<ReactorShard>>& shards = reactor_->shards_;
  for (;;) {
    const int fd = ::accept4(reactor_->listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or fd exhaustion: try again on the next wakeup
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const size_t target =
        reactor_->next_shard_.fetch_add(1, std::memory_order_relaxed) %
        shards.size();
    if (target == index_) {
      AdoptFd(fd);
      continue;
    }
    ReactorShard* other = shards[target].get();
    {
      std::lock_guard<std::mutex> lock(other->incoming_mutex_);
      other->incoming_fds_.push_back(fd);
    }
    other->Wake();
  }
}

/// True when this connection holds its fill of queued work and the shard
/// should stop reading its socket until the backlog drains.
bool ReactorShard::InputPaused(const Conn& conn) const {
  return conn.inputs.size() + conn.reader.EventCount() + Backlog(conn) >=
         config().max_queued_frames;
}

void ReactorShard::Read(Conn* conn) {
  char buffer[64 * 1024];
  for (;;) {
    // Stop pulling bytes once the queued-work cap is reached — the unread
    // bytes stay in the kernel buffer and TCP flow control pushes back.
    if (InputPaused(*conn)) break;
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    stats_.recv_calls.Add();
    if (n > 0) {
      conn->reader.Feed(buffer, static_cast<size_t>(n));
      // A short read drained the socket for now; poll is level-triggered,
      // so anything that arrives after it re-arms POLLIN.
      if (static_cast<size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    conn->peer_eof = true;  // EOF or a dead socket; drain what we have
    if (n == 0 && conn->reader.MidFrame()) stats_.truncated_frames.Add();
    break;
  }
  uint64_t good = 0;
  uint64_t bad = 0;
  while (conn->reader.HasEvent()) {
    FrameReader::Event event = conn->reader.Next();
    (event.kind == FrameReader::Event::Kind::kFrame ? good : bad) += 1;
    conn->inputs.push_back(std::move(event));
  }
  stats_.frames_received.Add(good);
  stats_.bad_frames.Add(bad);
}

void ReactorShard::Loop() {
  OnStart();
  const bool acceptor = (index_ == 0);
  std::vector<pollfd> fds;
  std::vector<uint64_t> ids;
  while (reactor_->running()) {
    fds.clear();
    ids.clear();
    fds.push_back({wake_read_, POLLIN, 0});
    if (acceptor) fds.push_back({reactor_->listen_fd_, POLLIN, 0});
    const size_t extra = fds.size();
    BeforePoll(&fds);
    const size_t base = fds.size();
    for (auto& [id, conn] : conns) {
      short events = 0;
      if (!conn->peer_eof && !InputPaused(*conn)) events |= POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      if (events == 0) continue;  // woken by its owner, not the socket
      fds.push_back({conn->fd, events, 0});
      ids.push_back(id);
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable
    }
    stats_.poll_wakeups.Add();
    if (fds[0].revents & POLLIN) {
      char drain[256];
      while (::read(wake_read_, drain, sizeof(drain)) > 0) {
      }
    }
    std::vector<int> incoming;
    {
      std::lock_guard<std::mutex> lock(incoming_mutex_);
      incoming.swap(incoming_fds_);
    }
    for (int fd : incoming) AdoptFd(fd);
    if (acceptor && (fds[1].revents & POLLIN)) Accept();
    for (size_t i = base; i < fds.size(); ++i) {
      const uint64_t id = ids[i - base];
      Conn* conn = Find(id);
      if (conn == nullptr) continue;  // closed while handling another
      const short revents = fds[i].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        Close(id);
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) Read(conn);
      if ((revents & POLLOUT) && !Flush(conn)) {
        Close(id);
        continue;
      }
      Step(conn);
    }
    AfterPoll(fds.data() + extra, base - extra);
  }
  OnStop();
  for (auto& [id, conn] : conns) CloseFd(&conn->fd);
  stats_.connections_open.Sub(conns.size());
  conns.clear();
}

}  // namespace net
}  // namespace qlearn
