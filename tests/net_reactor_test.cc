// Tests for the reactor skeleton's output queue (net/reactor.h): frames
// pushed into an OutQueue leave a real socket intact across short writes,
// whether a write stops inside a length prefix or inside a body, and every
// fully written body goes back to the buffer pool.
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/buffer_pool.h"
#include "net/frame.h"
#include "net/reactor.h"

namespace qlearn {
namespace net {
namespace {

/// Reads everything `fd` has buffered into `reader`.
void Drain(int fd, FrameReader* reader) {
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      reader->Feed(buffer, static_cast<size_t>(n));
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "recv: " << n << " " << std::strerror(errno);
    return;
  }
}

/// Sends the first `n` bytes `iov` points at, as one short write would.
void SendPrefix(int fd, const iovec* iov, size_t n) {
  for (size_t i = 0; n > 0; ++i) {
    const size_t take = std::min(n, iov[i].iov_len);
    ASSERT_EQ(::send(fd, iov[i].iov_base, take, MSG_NOSIGNAL),
              static_cast<ssize_t>(take));
    n -= take;
  }
}

TEST(OutQueueTest, PushRefusesWhatCannotBeFramed) {
  OutQueue out;
  std::string empty;
  EXPECT_FALSE(out.Push(std::move(empty), 16));
  std::string oversized(17, 'x');
  EXPECT_FALSE(out.Push(std::move(oversized), 16));
  // A refused body stays with the caller, who decides what to send.
  EXPECT_EQ(oversized, std::string(17, 'x'));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(out.Push(std::string(16, 'y'), 16));
  EXPECT_EQ(out.size(), 1u);
}

TEST(OutQueueTest, ShortWritesResumeMidHeaderAndMidBody) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0, fds),
            0);
  const int requested = 4096;
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &requested,
                         sizeof(requested)),
            0);
  int sndbuf = 0;
  socklen_t len = sizeof(sndbuf);
  ASSERT_EQ(::getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf, &len), 0);

  // More frames than one sendmsg gathers, and one of them four times the
  // send buffer, so no single write can carry it.
  std::vector<std::string> bodies;
  for (size_t i = 0; i < OutQueue::kMaxIov / 2 + 4; ++i) {
    bodies.push_back(std::string(100 + 37 * i, static_cast<char>('a' + i)));
  }
  bodies[5] = std::string(4 * static_cast<size_t>(sndbuf), 'X');
  bodies[5][0] = '<';
  bodies[5].back() = '>';
  const size_t cap = bodies[5].size();
  BufferPool pool(/*max_buffers=*/64, /*max_buffer_bytes=*/cap);
  OutQueue out;
  for (const std::string& body : bodies) {
    ASSERT_TRUE(out.Push(std::string(body), cap));
  }
  const auto written = [&] { return bodies.size() - out.size(); };

  // One gather covers kMaxIov / 2 frames: header and body each.
  iovec iov[OutQueue::kMaxIov];
  ASSERT_EQ(out.Gather(iov), OutQueue::kMaxIov);
  EXPECT_EQ(iov[0].iov_len, kFrameHeaderBytes);
  EXPECT_EQ(iov[1].iov_len, bodies[0].size());

  // A write that stops two bytes into the first length prefix...
  SendPrefix(fds[0], iov, 2);
  out.Advance(2, &pool);
  EXPECT_EQ(pool.PooledCount(), 0u);
  ASSERT_EQ(out.Gather(iov), OutQueue::kMaxIov);
  EXPECT_EQ(iov[0].iov_len, kFrameHeaderBytes - 2);  // resumes mid-header
  // ...then one that finishes it and stops ten bytes into the body.
  SendPrefix(fds[0], iov, 2 + 10);
  out.Advance(2 + 10, &pool);
  EXPECT_EQ(pool.PooledCount(), 0u);
  ASSERT_GT(out.Gather(iov), 0u);
  EXPECT_EQ(iov[0].iov_len, bodies[0].size() - 10);  // resumes mid-body

  // The rest goes through Flush, with the peer reading in between: the
  // small send buffer forces several sendmsg calls, some stopping inside
  // a body (the big one cannot fit any buffer fill).
  FrameReader reader(cap);
  size_t short_flushes = 0;
  size_t resumed_in_body = 0;
  Counter send_calls;
  for (int round = 0; !out.empty() && round < 10000; ++round) {
    ASSERT_TRUE(out.Flush(fds[0], &pool, &send_calls));
    EXPECT_EQ(pool.PooledCount(), written());
    if (!out.empty()) {
      ++short_flushes;
      // A front iovec longer than a length prefix is a body whose header
      // already left: the next write starts inside that frame.
      ASSERT_GT(out.Gather(iov), 0u);
      if (iov[0].iov_len > kFrameHeaderBytes) ++resumed_in_body;
    }
    Drain(fds[1], &reader);
  }
  ASSERT_TRUE(out.empty());
  Drain(fds[1], &reader);
  EXPECT_GE(short_flushes, 2u);
  EXPECT_GE(resumed_in_body, 1u);
  // Every Flush call writes at least once, and each sendmsg is counted.
  EXPECT_GE(send_calls.value(), short_flushes + 1);
  EXPECT_EQ(pool.PooledCount(), bodies.size());

  // The peer reassembles exactly the pushed bodies, in order.
  for (const std::string& body : bodies) {
    ASSERT_TRUE(reader.HasEvent());
    FrameReader::Event event = reader.Next();
    ASSERT_EQ(event.kind, FrameReader::Event::Kind::kFrame);
    EXPECT_EQ(event.payload, body);
  }
  EXPECT_FALSE(reader.HasEvent());
  EXPECT_FALSE(reader.MidFrame());
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace net
}  // namespace qlearn
