// EventLoop: the epoll machinery under both servers in the serving tier
// (Daemon and ChaosProxy). It owns a non-blocking TCP listener, the
// epoll set and an eventfd that lets another thread end a blocked wait.
// The owners keep every per-connection decision: the loop accepts,
// multiplexes and wakes, and nothing else.
//
// Callers state interest as kRead and/or kWrite and get readiness back
// as kReadable / kWritable / kHangup (peer hang-up or socket error), so
// no owner sees an epoll mask. The loop reads no clock: each owner
// computes its own deadline and passes waitMs(seconds) to poll().
//
// Threading: everything except wake() runs on the owner's loop thread.
// wake() is safe from any thread and from a signal handler (an atomic
// load and one eventfd write); after close() it is a no-op.
//
// The module also holds the blocking outbound connect that WireClient
// and the proxy's upstream splice share (resolveEndpoint + connectTo).
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pscd::net {

class EventLoop {
 public:
  /// Interest bits for add() / modify().
  static constexpr unsigned kRead = 1u << 0;
  static constexpr unsigned kWrite = 1u << 1;
  /// Readiness bits passed to Handler::onReady().
  static constexpr unsigned kReadable = 1u << 0;
  static constexpr unsigned kWritable = 1u << 1;
  static constexpr unsigned kHangup = 1u << 2;

  /// The owner's side of a poll() pass; called on the loop thread, in
  /// the order the kernel reported the events.
  class Handler {
   public:
    /// A newly accepted connection, already non-blocking and
    /// close-on-exec. The handler owns `fd` from here on.
    virtual void onAccept(int fd) = 0;
    /// `fd`, registered with add(), is ready.
    virtual void onReady(int fd, unsigned ready) = 0;

   protected:
    ~Handler() = default;
  };

  /// Binds and listens on bindAddress:port (an IPv4 literal; port 0 is
  /// ephemeral). Throws std::runtime_error, prefixed with `name`, on any
  /// socket failure, and leaks no fd when it does.
  EventLoop(std::string name, const std::string& bindAddress,
            std::uint16_t port, int backlog);
  ~EventLoop() { close(); }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// The locally bound port (resolves port 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

  /// Registers / re-arms an owner fd; false when epoll_ctl fails.
  bool add(int fd, unsigned interest);
  bool modify(int fd, unsigned interest);
  /// Deregisters an owner fd; closing it stays with the owner.
  void remove(int fd);

  /// Stops accepting (the drain): pending and new connections are never
  /// accepted, but the port stays bound until close().
  void withdrawListener();

  /// One epoll_wait of at most timeoutMs (-1 blocks), then dispatch:
  /// drains the wake, accepts every pending connection through
  /// handler.onAccept, and reports each other ready fd through
  /// handler.onReady. EINTR is an empty pass. Returns false, after
  /// logging, only when epoll_wait fails outright.
  bool poll(int timeoutMs, Handler& handler);

  /// Makes the blocked poll(), or else the next one, return at once.
  void wake();

  /// Closes the listener, the epoll set and the wake fd; idempotent.
  void close();

  /// A wait of `seconds` as an epoll timeout: +inf (nothing pending)
  /// blocks (-1), <= 0 polls (0), anything else rounds up to whole ms,
  /// capped at 60000.
  static int waitMs(double seconds);

 private:
  /// epoll_ctl(op) for `fd` with `interest` translated to an epoll mask.
  bool control(int op, int fd, unsigned interest);
  void acceptAll(Handler& handler);

  std::string name_;
  std::uint16_t port_ = 0;
  int listenFd_ = -1;
  int epollFd_ = -1;
  std::atomic<int> wakeFd_{-1};
  /// wake() calls in flight; close() waits for them before closing the
  /// wake fd, so a racing wake() can never write to a reused fd number.
  std::atomic<int> wakers_{0};
};

/// A TCP destination resolved once, up front.
struct Endpoint {
  std::string host;  // as given, for messages
  std::uint16_t port = 0;
  std::vector<sockaddr_in> addresses;  // IPv4, in getaddrinfo order
};

/// Resolves `host` (a dotted-quad literal or a name such as
/// "localhost") for `port`. Throws std::runtime_error when it does not
/// resolve.
Endpoint resolveEndpoint(const std::string& host, std::uint16_t port);

/// Blocking connect to the first address of `endpoint` that accepts,
/// with TCP_NODELAY (the protocol is request/response, so Nagle only
/// adds latency); the fd is switched to non-blocking afterwards when
/// `nonBlocking`. Returns the fd, or -1 with *error set.
int connectTo(const Endpoint& endpoint, bool nonBlocking, std::string* error);

/// Best-effort TCP_NODELAY on an accepted connection.
void setNoDelay(int fd);

}  // namespace pscd::net
