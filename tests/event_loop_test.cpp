// EventLoop: the epoll machinery shared by the Daemon and the
// ChaosProxy, tested on its own — the cross-thread wake, the drain's
// withdrawn listener, fd hygiene, and the seconds-to-timeout mapping
// both owners rely on.
#include "pscd/net/event_loop.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include "pscd/util/wallclock.h"

namespace pscd::net {
namespace {

std::size_t countOpenFds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// Records what a poll() pass hands back; owns the accepted fds.
struct Recorder final : EventLoop::Handler {
  std::vector<int> accepted;
  std::vector<std::pair<int, unsigned>> ready;

  ~Recorder() {
    for (const int fd : accepted) ::close(fd);
  }
  void onAccept(int fd) override { accepted.push_back(fd); }
  void onReady(int fd, unsigned r) override { ready.emplace_back(fd, r); }
};

/// Blocking client connect to the loop's port.
int dial(const EventLoop& loop) {
  std::string error;
  const int fd = connectTo(resolveEndpoint("127.0.0.1", loop.port()),
                           /*nonBlocking=*/false, &error);
  EXPECT_GE(fd, 0) << error;
  return fd;
}

TEST(EventLoop, WakeFromAnotherThreadEndsABlockedWait) {
  EventLoop loop("test", "127.0.0.1", 0, 16);
  Recorder recorder;
  std::thread waker([&loop] {
    sleepSeconds(0.05);
    loop.wake();
  });
  const double start = monotonicSeconds();
  EXPECT_TRUE(loop.poll(-1, recorder));  // blocks until the wake
  EXPECT_GE(monotonicSeconds() - start, 0.04);
  waker.join();
  // The wake is drained inside the loop, never reported to the owner.
  EXPECT_TRUE(recorder.accepted.empty());
  EXPECT_TRUE(recorder.ready.empty());
  // ...and drained for good: the next pass times out instead.
  EXPECT_TRUE(loop.poll(0, recorder));
  EXPECT_TRUE(recorder.ready.empty());
}

TEST(EventLoop, AcceptsAndReportsReadinessAndHangup) {
  EventLoop loop("test", "127.0.0.1", 0, 16);
  Recorder recorder;
  const int client = dial(loop);
  for (int i = 0; i < 50 && recorder.accepted.empty(); ++i) {
    ASSERT_TRUE(loop.poll(100, recorder));
  }
  ASSERT_EQ(recorder.accepted.size(), 1u);
  const int server = recorder.accepted.front();
  ASSERT_TRUE(loop.add(server, EventLoop::kRead | EventLoop::kWrite));

  ASSERT_TRUE(loop.poll(1000, recorder));
  ASSERT_EQ(recorder.ready.size(), 1u);
  EXPECT_EQ(recorder.ready[0].first, server);
  EXPECT_EQ(recorder.ready[0].second, EventLoop::kWritable);

  ASSERT_TRUE(loop.modify(server, EventLoop::kRead));
  ASSERT_EQ(::send(client, "x", 1, MSG_NOSIGNAL), 1);
  recorder.ready.clear();
  ASSERT_TRUE(loop.poll(1000, recorder));
  ASSERT_EQ(recorder.ready.size(), 1u);
  EXPECT_EQ(recorder.ready[0].second, EventLoop::kReadable);

  // A reset peer reads as a hang-up.
  linger hard{1, 0};
  ::setsockopt(client, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  ::close(client);
  recorder.ready.clear();
  ASSERT_TRUE(loop.poll(1000, recorder));
  ASSERT_EQ(recorder.ready.size(), 1u);
  EXPECT_NE(recorder.ready[0].second & EventLoop::kHangup, 0u);
  loop.remove(server);
}

TEST(EventLoop, WithdrawnListenerAcceptsNothingButKeepsThePort) {
  EventLoop loop("test", "127.0.0.1", 0, 16);
  Recorder recorder;
  loop.withdrawListener();
  // The kernel still completes the handshake into the backlog: the
  // port is bound and listening, it is just never accepted.
  const int client = dial(loop);
  EXPECT_TRUE(loop.poll(100, recorder));
  EXPECT_TRUE(recorder.accepted.empty());
  // A second listener cannot take the port while the loop lives.
  EXPECT_THROW(EventLoop("other", "127.0.0.1", loop.port(), 16),
               std::runtime_error);
  ::close(client);
}

TEST(EventLoop, DestroyingTheLoopClosesEveryFd) {
  const std::size_t before = countOpenFds();
  {
    EventLoop loop("test", "127.0.0.1", 0, 16);
    EXPECT_GT(countOpenFds(), before);
    loop.wake();
  }
  EXPECT_EQ(countOpenFds(), before);
  // A constructor that throws part-way leaks nothing either.
  EXPECT_THROW(EventLoop("test", "not-an-address", 0, 16),
               std::runtime_error);
  EXPECT_EQ(countOpenFds(), before);
}

TEST(EventLoop, WaitMsMapsSecondsToAnEpollTimeout) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(EventLoop::waitMs(inf), -1);
  EXPECT_EQ(EventLoop::waitMs(0.0), 0);
  EXPECT_EQ(EventLoop::waitMs(-2.5), 0);
  EXPECT_EQ(EventLoop::waitMs(1e-9), 1);  // rounds up: never a busy spin
  EXPECT_EQ(EventLoop::waitMs(0.001), 1);
  EXPECT_EQ(EventLoop::waitMs(0.0011), 2);
  EXPECT_EQ(EventLoop::waitMs(1.5), 1500);
  EXPECT_EQ(EventLoop::waitMs(59.9984), 59999);
  EXPECT_EQ(EventLoop::waitMs(60.0), 60000);
  EXPECT_EQ(EventLoop::waitMs(3600.0), 60000);
}

TEST(EventLoop, ConnectReportsAnUnreachableEndpoint) {
  std::uint16_t port = 0;
  {
    EventLoop loop("test", "127.0.0.1", 0, 16);
    port = loop.port();
  }  // closed: nothing listens there now
  std::string error;
  EXPECT_EQ(connectTo(resolveEndpoint("localhost", port),
                      /*nonBlocking=*/false, &error),
            -1);
  EXPECT_NE(error.find("connect to localhost:"), std::string::npos) << error;
}

}  // namespace
}  // namespace pscd::net
