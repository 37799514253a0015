#include "pscd/net/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "pscd/util/check.h"
#include "pscd/util/log.h"
#include "pscd/util/rng.h"

namespace pscd::net {

namespace {

const DaemonConfig& validated(const DaemonConfig& config) {
  if (config.idleTimeoutSeconds < 0 || config.readTimeoutSeconds < 0 ||
      config.writeTimeoutSeconds < 0 || config.drainSeconds < 0) {
    throw std::invalid_argument("Daemon: negative timeout in config");
  }
  return config;
}

}  // namespace

std::string formatDaemonStats(const DaemonStats& s) {
  std::string out = "stats:";
  const auto field = [&out](const char* name, std::uint64_t value) {
    out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  field("accepted", s.accepted);
  field("accept_rejected", s.acceptRejected);
  field("closed", s.closed);
  field("frames", s.framesHandled);
  field("decode_errors", s.decodeErrors);
  field("protocol_errors", s.protocolErrors);
  field("error_responses", s.errorResponses);
  field("input_overflows", s.inputOverflows);
  field("idle_timeouts", s.idleTimeouts);
  field("read_timeouts", s.readTimeouts);
  field("write_timeouts", s.writeTimeouts);
  field("overload_shed", s.overloadShed);
  field("drain_flushed", s.drainFlushed);
  return out;
}

Daemon::Daemon(DistributionService& service, const Clock& clock,
               WireSink& sink, const DaemonConfig& config)
    : service_(service),
      clock_(clock),
      sink_(sink),
      config_(validated(config)),
      loop_("Daemon", config_.bindAddress, config_.port, config_.backlog) {
  timersEnabled_ = config_.idleTimeoutSeconds > 0 ||
                   config_.readTimeoutSeconds > 0 ||
                   config_.writeTimeoutSeconds > 0;
}

Daemon::~Daemon() { closeAll(); }

void Daemon::closeAll() {
  for (auto& [fd, conn] : conns_) {
    ::close(fd);
    ++stats_.closed;
  }
  conns_.clear();
  deadlines_.clear();
  loop_.close();
}

void Daemon::stop() {
  stopMode_.store(kStopNow, std::memory_order_release);
  loop_.wake();
}

void Daemon::stopDrain() {
  // Only an idle->drain transition: never downgrade a hard stop.
  int expected = kRunning;
  stopMode_.compare_exchange_strong(expected, kStopDrain,
                                    std::memory_order_acq_rel);
  loop_.wake();
}

void Daemon::requestStatsDump() {
  dumpRequested_.store(true, std::memory_order_release);
  loop_.wake();
}

void Daemon::beginDrain() {
  draining_ = true;
  drainDeadline_ = clock_.now() + config_.drainSeconds;
  // Stop accepting but keep the port reserved until run() returns.
  loop_.withdrawListener();
  logInfo() << "pscd_daemon: draining " << conns_.size()
            << " connection(s), budget " << config_.drainSeconds << "s";
}

int Daemon::computeWaitMs() {
  double wake = deadlines_.empty() ? std::numeric_limits<double>::infinity()
                                   : deadlines_.begin()->first;
  if (draining_) wake = std::min(wake, drainDeadline_);
  // Nothing pending, the fault-free default: block without a clock read.
  if (std::isinf(wake)) return -1;
  return EventLoop::waitMs(wake - clock_.now());
}

void Daemon::run() {
  if (ran_) throw std::logic_error("Daemon::run called twice");
  ran_ = true;
  while (true) {
    const int mode = stopMode_.load(std::memory_order_acquire);
    if (mode == kStopNow) break;
    if (mode == kStopDrain && !draining_) beginDrain();
    if (draining_ &&
        (conns_.empty() || clock_.now() >= drainDeadline_)) {
      break;
    }
    if (!loop_.poll(computeWaitMs(), *this)) break;
    if (dumpRequested_.exchange(false, std::memory_order_acq_rel)) {
      logInfo() << "pscd_daemon: " << formatDaemonStats(stats_);
    }
    if (!deadlines_.empty()) reapExpired(clock_.now());
  }
  closeAll();
}

void Daemon::armDeadline(Connection& conn) {
  double d = std::numeric_limits<double>::infinity();
  if (config_.writeTimeoutSeconds > 0 && conn.writePending) {
    d = std::min(d, conn.writePendingSince + config_.writeTimeoutSeconds);
  }
  if (config_.readTimeoutSeconds > 0 && !conn.in.empty()) {
    d = std::min(d, conn.lastActivity + config_.readTimeoutSeconds);
  }
  if (config_.idleTimeoutSeconds > 0) {
    d = std::min(d, conn.lastActivity + config_.idleTimeoutSeconds);
  }
  // pscd-lint: allow(float-compare) the set is keyed by this exact value; equal means the entry is already right
  if (d == conn.deadline) return;
  if (std::isinf(conn.deadline)) {
    deadlines_.emplace(d, conn.fd);
  } else {
    // Re-key the existing entry in place: extract + insert allocates
    // nothing; a deadline that became +inf just drops the node.
    auto node = deadlines_.extract({conn.deadline, conn.fd});
    if (std::isfinite(d)) {
      node.value().first = d;
      deadlines_.insert(std::move(node));
    }
  }
  conn.deadline = d;
}

void Daemon::reapExpired(double now) {
  // closeConnection erases the front entry, so each pass makes progress.
  while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
    const int fd = deadlines_.begin()->second;
    const auto it = conns_.find(fd);
    PSCD_DCHECK(it != conns_.end()) << "deadline entry for closed fd " << fd;
    const Connection& conn = it->second;
    // Classify the reap, most-specific first: an unflushable response
    // backlog beats a half-read frame beats plain silence.
    const char* kind = nullptr;
    if (config_.writeTimeoutSeconds > 0 && conn.writePending &&
        now >= conn.writePendingSince + config_.writeTimeoutSeconds) {
      ++stats_.writeTimeouts;
      kind = "write deadline";
    } else if (config_.readTimeoutSeconds > 0 && !conn.in.empty()) {
      ++stats_.readTimeouts;
      kind = "read deadline";
    } else {
      ++stats_.idleTimeouts;
      kind = "idle deadline";
    }
    logDebug() << "pscd_daemon: closing fd " << fd << ": " << kind
               << " expired";
    closeConnection(fd);
  }
}

void Daemon::onAccept(int fd) {
  if (conns_.size() >= config_.maxConnections) {
    ++stats_.acceptRejected;
    ::close(fd);
    return;
  }
  // Best-effort: latency optimization, not correctness.
  setNoDelay(fd);
  if (config_.sendBufferBytes > 0) {
    // Best-effort: the kernel clamps to its floor, which is exactly
    // what the write-deadline tests want (a tiny send window).
    setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &config_.sendBufferBytes,
               sizeof(config_.sendBufferBytes));
  }
  if (!loop_.add(fd, EventLoop::kRead)) {
    ::close(fd);
    return;
  }
  Connection conn;
  conn.fd = fd;
  if (timersEnabled_) conn.lastActivity = clock_.now();
  const auto [it, inserted] = conns_.emplace(fd, std::move(conn));
  ++stats_.accepted;
  if (timersEnabled_) armDeadline(it->second);
}

void Daemon::onReady(int fd, unsigned ready) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;  // closed earlier in this batch
  Connection& conn = it->second;
  if ((ready & EventLoop::kHangup) != 0) {
    closeConnection(fd);
    return;
  }
  if ((ready & EventLoop::kWritable) != 0 && !flushWrites(conn)) return;
  if ((ready & EventLoop::kReadable) != 0) handleReadable(conn);
}

void Daemon::handleReadable(Connection& conn) {
  char buffer[65536];
  bool gotBytes = false;
  while (true) {
    const ssize_t n = recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      gotBytes = true;
      conn.in.append(buffer, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      continue;
    }
    if (n == 0) {  // orderly EOF from the client
      closeConnection(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    closeConnection(conn.fd);
    return;
  }
  if (timersEnabled_ && gotBytes) conn.lastActivity = clock_.now();
  if (!processInput(conn)) return;
  if (!flushWrites(conn)) return;
  if (timersEnabled_) armDeadline(conn);
}

bool Daemon::processInput(Connection& conn) {
  std::size_t offset = 0;
  std::size_t framesInBatch = 0;
  while (offset < conn.in.size()) {
    const DecodeResult r = decodeFrame(
        reinterpret_cast<const std::uint8_t*>(conn.in.data()) + offset,
        conn.in.size() - offset);
    if (r.status == DecodeStatus::kNeedMore) break;
    if (r.status == DecodeStatus::kError) {
      ++stats_.decodeErrors;
      logWarn() << "pscd_daemon: closing fd " << conn.fd << ": " << r.error;
      closeConnection(conn.fd);
      return false;
    }
    offset += r.consumed;
    if (r.frame.type() == FrameType::kResponse) {
      ++stats_.protocolErrors;
      logWarn() << "pscd_daemon: closing fd " << conn.fd
                << ": client sent RESPONSE";
      closeConnection(conn.fd);
      return false;
    }
    ++stats_.framesHandled;
    WireFrame reply;
    reply.seq = r.frame.seq;
    // Load shedding: past the threshold within one input drain, answer
    // REQUESTs with kOverloaded in constant time instead of executing
    // them. State-mutating frames always execute — shedding those would
    // silently fork client and server subscription state.
    if (config_.shedThreshold > 0 && r.frame.type() == FrameType::kRequest &&
        framesInBatch >= config_.shedThreshold) {
      ResponseBody overloaded;
      overloaded.op = static_cast<std::uint8_t>(FrameType::kRequest);
      overloaded.status =
          static_cast<std::uint8_t>(ResponseStatus::kOverloaded);
      reply.body = overloaded;
      ++stats_.overloadShed;
    } else {
      reply.body = dispatch(r.frame);
    }
    ++framesInBatch;
    encodeFrame(reply, &conn.out);
    if (conn.out.size() - conn.outFlushed > config_.maxOutBufferBytes) {
      logWarn() << "pscd_daemon: closing fd " << conn.fd
                << ": response backlog over "
                << config_.maxOutBufferBytes << " bytes";
      closeConnection(conn.fd);
      return false;
    }
  }
  conn.in.erase(0, offset);
  if (conn.in.size() > config_.maxInBufferBytes) {
    ++stats_.inputOverflows;
    logWarn() << "pscd_daemon: closing fd " << conn.fd << ": "
              << conn.in.size() << " undecodable buffered bytes over the "
              << config_.maxInBufferBytes << "-byte cap";
    closeConnection(conn.fd);
    return false;
  }
  return true;
}

ResponseBody Daemon::dispatch(const WireFrame& frame) {
  ResponseBody response;
  response.op = static_cast<std::uint8_t>(frame.type());
  // Each frame is checked before it reaches the service; a rejected one
  // leaves the service untouched and earns status=kError with a zeroed
  // payload, and the connection lives on.
  const char* rejected = nullptr;
  const std::uint32_t numProxies = service_.engine().numProxies();
  switch (frame.type()) {
    case FrameType::kSubscribe: {
      const auto& b = std::get<SubscribeBody>(frame.body);
      if (b.proxy >= numProxies) {
        rejected = "proxy out of range";
      } else if (b.count > std::numeric_limits<std::uint32_t>::max() -
                               service_.broker().aggregatedCount(b.proxy,
                                                                 b.page)) {
        rejected = "subscription count overflows 32 bits";
      } else {
        service_.broker().subscribeAggregated(b.proxy, b.page, b.count);
      }
      break;
    }
    case FrameType::kUnsubscribe: {
      const auto& b = std::get<UnsubscribeBody>(frame.body);
      if (b.proxy >= numProxies) {
        rejected = "proxy out of range";
      } else {
        response.pages =
            service_.broker().unsubscribeAggregated(b.proxy, b.page, b.count);
      }
      break;
    }
    case FrameType::kPublish: {
      const auto& b = std::get<PublishBody>(frame.body);
      if (b.size == 0) {
        rejected = "size must be positive";
      } else {
        PublishEvent event;
        event.time = clock_.now();
        event.page = b.page;
        event.version = b.version;
        event.size = b.size;
        service_.handlePublish(event);
        const PushDelivery& d = sink_.lastPush();
        response.pages = d.pages;
        response.bytes = d.bytes;
      }
      break;
    }
    case FrameType::kRequest: {
      const auto& b = std::get<RequestBody>(frame.body);
      if (b.proxy >= numProxies) {
        rejected = "proxy out of range";
      } else if (!service_.engine().published(b.page)) {
        rejected = "page never published";
      } else {
        service_.handleRequest(b.proxy, b.page);
        const RequestDelivery& d = sink_.lastRequest();
        response.hit = d.hit ? 1 : 0;
        response.stale = d.stale ? 1 : 0;
        response.bytes = d.bytesTransferred;
        response.responseTimeMs = d.responseTimeMs;
      }
      break;
    }
    case FrameType::kResponse:
      break;  // rejected by processInput before dispatch
  }
  if (rejected != nullptr) {
    response.status = static_cast<std::uint8_t>(ResponseStatus::kError);
    ++stats_.errorResponses;
    logDebug() << "pscd_daemon: " << frameTypeName(frame.type())
               << " failed: " << rejected;
  }
  return response;
}

bool Daemon::flushWrites(Connection& conn) {
  while (conn.outFlushed < conn.out.size()) {
    const ssize_t n =
        send(conn.fd, conn.out.data() + conn.outFlushed,
             conn.out.size() - conn.outFlushed, MSG_NOSIGNAL);
    if (n >= 0) {
      conn.outFlushed += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (timersEnabled_ && !conn.writePending) {
        conn.writePending = true;
        conn.writePendingSince = clock_.now();
        armDeadline(conn);
      }
      if (!conn.wantWrite) {
        conn.wantWrite = true;
        return updateInterest(conn);
      }
      return true;
    }
    if (errno == EINTR) continue;
    closeConnection(conn.fd);
    return false;
  }
  conn.out.clear();
  conn.outFlushed = 0;
  if (conn.writePending) {
    conn.writePending = false;
    if (timersEnabled_) armDeadline(conn);
  }
  if (conn.wantWrite) {
    conn.wantWrite = false;
    return updateInterest(conn);
  }
  return true;
}

bool Daemon::updateInterest(Connection& conn) {
  if (!loop_.modify(conn.fd, EventLoop::kRead |
                                 (conn.wantWrite ? EventLoop::kWrite : 0u))) {
    closeConnection(conn.fd);
    return false;
  }
  return true;
}

void Daemon::closeConnection(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (draining_ && it->second.outFlushed == it->second.out.size()) {
    // The drain delivered this connection's in-flight responses before
    // it closed — the whole point of stopDrain() over stop().
    ++stats_.drainFlushed;
  }
  if (std::isfinite(it->second.deadline)) {
    deadlines_.erase({it->second.deadline, fd});
  }
  loop_.remove(fd);
  ::close(fd);
  conns_.erase(it);
  ++stats_.closed;
}

Network ServeHost::buildNetwork(const ServeHostConfig& config) {
  NetworkParams params;
  params.numProxies = config.numProxies;
  params.numTransitNodes = config.numTransitNodes;
  Rng rng(config.networkSeed);
  return Network(params, rng);
}

ServiceConfig ServeHost::buildServiceConfig(const ServeHostConfig& config) {
  ServiceConfig service;
  service.engine.strategy = config.strategy;
  service.engine.beta = config.beta;
  service.engine.pushScheme = config.pushScheme;
  service.engine.proxyCapacities.assign(config.numProxies,
                                        config.capacityPerProxy);
  service.latency = config.latency;
  return service;
}

ServeHost::ServeHost(const ServeHostConfig& config,
                     const DaemonConfig& daemonConfig)
    : network_(buildNetwork(config)),
      service_(network_, clock_, sink_, buildServiceConfig(config)),
      daemon_(service_, clock_, sink_, daemonConfig) {}

}  // namespace pscd::net
