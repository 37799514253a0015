#include "pscd/net/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "pscd/util/log.h"

namespace pscd::net {

namespace {

constexpr int kMaxEvents = 64;

[[noreturn]] void throwErrno(const std::string& owner, const char* what) {
  throw std::runtime_error(owner + ": " + what + ": " + std::strerror(errno));
}

bool setNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

unsigned readiness(std::uint32_t mask) {
  return ((mask & EPOLLIN) != 0 ? EventLoop::kReadable : 0u) |
         ((mask & EPOLLOUT) != 0 ? EventLoop::kWritable : 0u) |
         ((mask & (EPOLLHUP | EPOLLERR)) != 0 ? EventLoop::kHangup : 0u);
}

}  // namespace

EventLoop::EventLoop(std::string name, const std::string& bindAddress,
                     std::uint16_t port, int backlog)
    : name_(std::move(name)) {
  try {
    listenFd_ =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0) throwErrno(name_, "socket");
    const int one = 1;
    if (setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
        0) {
      throwErrno(name_, "setsockopt(SO_REUSEADDR)");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, bindAddress.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error(name_ + ": bad bind address " + bindAddress);
    }
    if (bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      throwErrno(name_, "bind");
    }
    if (listen(listenFd_, backlog) < 0) throwErrno(name_, "listen");
    socklen_t len = sizeof(addr);
    if (getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len) <
        0) {
      throwErrno(name_, "getsockname");
    }
    port_ = ntohs(addr.sin_port);

    epollFd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0) throwErrno(name_, "epoll_create1");
    const int wakeFd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd < 0) throwErrno(name_, "eventfd");
    wakeFd_.store(wakeFd);
    if (!add(listenFd_, kRead)) throwErrno(name_, "epoll_ctl(listen)");
    if (!add(wakeFd, kRead)) throwErrno(name_, "epoll_ctl(wake)");
  } catch (...) {
    close();
    throw;
  }
}

void EventLoop::close() {
  const int wakeFd = wakeFd_.exchange(-1);
  if (wakeFd >= 0) {
    while (wakers_.load() != 0) std::this_thread::yield();
    ::close(wakeFd);
  }
  for (int* fd : {&listenFd_, &epollFd_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

bool EventLoop::control(int op, int fd, unsigned interest) {
  epoll_event ev{};
  ev.events = ((interest & kRead) != 0 ? EPOLLIN : 0u) |
              ((interest & kWrite) != 0 ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  return epoll_ctl(epollFd_, op, fd, &ev) == 0;
}

bool EventLoop::add(int fd, unsigned interest) {
  return control(EPOLL_CTL_ADD, fd, interest);
}

bool EventLoop::modify(int fd, unsigned interest) {
  return control(EPOLL_CTL_MOD, fd, interest);
}

void EventLoop::remove(int fd) {
  epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::withdrawListener() {
  if (listenFd_ >= 0) remove(listenFd_);
}

void EventLoop::wake() {
  wakers_.fetch_add(1);
  const int fd = wakeFd_.load();
  if (fd >= 0) {
    const std::uint64_t one = 1;
    // Best-effort: owners recheck their stop state on every pass.
    [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
  }
  wakers_.fetch_sub(1);
}

int EventLoop::waitMs(double seconds) {
  if (seconds <= 0.0) return 0;
  if (!std::isfinite(seconds)) return -1;
  const double ms = std::ceil(seconds * 1000.0);
  return ms >= 60000.0 ? 60000 : static_cast<int>(ms);
}

bool EventLoop::poll(int timeoutMs, Handler& handler) {
  epoll_event events[kMaxEvents];
  const int n = epoll_wait(epollFd_, events, kMaxEvents, timeoutMs);
  if (n < 0) {
    if (errno == EINTR) return true;
    logError() << name_ << ": epoll_wait: " << std::strerror(errno);
    return false;
  }
  const int wakeFd = wakeFd_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wakeFd) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(fd, &drained, sizeof(drained));
    } else if (fd == listenFd_) {
      acceptAll(handler);
    } else {
      handler.onReady(fd, readiness(events[i].events));
    }
  }
  return true;
}

void EventLoop::acceptAll(Handler& handler) {
  while (true) {
    const int fd = accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      handler.onAccept(fd);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    logWarn() << name_ << ": accept: " << std::strerror(errno);
    return;
  }
}

Endpoint resolveEndpoint(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(),
                               &hints, &results);
  if (rc != 0) {
    throw std::runtime_error("cannot resolve " + host + ": " +
                             gai_strerror(rc));
  }
  Endpoint endpoint{host, port, {}};
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    endpoint.addresses.push_back(
        *reinterpret_cast<const sockaddr_in*>(ai->ai_addr));
  }
  ::freeaddrinfo(results);
  return endpoint;
}

int connectTo(const Endpoint& endpoint, bool nonBlocking, std::string* error) {
  int lastErrno = ECONNREFUSED;
  for (const sockaddr_in& addr : endpoint.addresses) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      lastErrno = errno;
      continue;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0 &&
        (!nonBlocking || setNonBlocking(fd))) {
      setNoDelay(fd);
      return fd;
    }
    lastErrno = errno;
    ::close(fd);
  }
  *error = "connect to " + endpoint.host + ":" +
           std::to_string(endpoint.port) + ": " + std::strerror(lastErrno);
  return -1;
}

void setNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace pscd::net
