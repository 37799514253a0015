// Serving-tier workloads: an in-process ServeHost (SG2, 100 proxies, a
// per-proxy capacity of 5% of the trace's mean per-proxy unique bytes)
// on loopback, fed the paper-scale NEWS trace over the wire. Set-up
// generates the trace, starts the host, sends the trace's aggregated
// subscriptions as SUBSCRIBE frames, and connects. The measured phase
// replays the trace's publishes and requests in trace order, cyclically,
// each op routed to a connection by page id so a page's publish stays
// ahead of its requests. Pass k adds k * versionStride to every published
// version, so each page's versions keep rising, and each pass ends by
// sending the subscriptions again: accesses accumulate across passes, and
// without the matching subscriptions SG2's value (subscriptions minus
// accesses) would fall below zero after one pass and its hit ratio from
// 0.98 to 0.03.
//
//   serve-closed  three blocking WireClients, one op in flight each: every
//                 op pays a full wakeup and syscall round trip.
//
// Traced runs also drive a pipelined generator: one thread sending frames
// over three non-blocking connections on encodeFrame/decodeFrame, with
// Poisson arrivals at 50 000 ops/s timed from each op's due time.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "pscd/net/client.h"
#include "pscd/net/daemon.h"
#include "pscd/net/pacing.h"
#include "pscd/net/wire.h"
#include "pscd/net/wire_runtime.h"
#include "pscd/sim/experiment.h"

namespace perfbench {

using namespace pscd;
using namespace pscd::net;

namespace {

constexpr int kConnections = 3;
constexpr double kOpenRate = 50000.0;
constexpr int kSetupRepeats = 5;
/// The serving probes of traced runs: an open-loop phase this long, and
/// (on a simulator workload) an in-process pass over at most this many
/// ops.
constexpr double kProbeSeconds = 2.0;
constexpr std::uint64_t kProbeOps = 250000;
/// Untimed traffic before measuring, so caches and buffers are warm.
constexpr double kWarmupSeconds = 0.5;
/// Latency percentiles are taken per block of this many consecutive ops
/// of one client (about 50 ms) and summarised by their median over
/// blocks (see LatencyRecorder): a 4-vCPU Xeon VM was measured pausing
/// each CPU for 2-30 ms up to seven times a second, and those pauses set
/// the p99 over all samples.
constexpr std::size_t kBlockOps = 2000;
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- the trace as wire operations ---------------------------------------

struct ServeTrace {
  std::vector<SubscribeBody> subscriptions;
  /// One replay pass: publishes and requests in trace order, then the
  /// subscriptions again.
  std::vector<WireFrame> ops;
  Version versionStride = 1;
  Bytes capacityPerProxy = 1;
};

WorkloadParams serveTraceParams(const Options& options) {
  WorkloadParams params = traceParams(TraceKind::kNews, 1.0);
  params.seed = options.seed;
  return params;
}

ServeTrace toServeTrace(const Workload& w) {
  ServeTrace trace;
  for (PageId page = 0; page < w.numPages(); ++page) {
    for (const Notification& n : w.subscriptions(page)) {
      trace.subscriptions.push_back(SubscribeBody{n.proxy, page, n.matchCount});
    }
  }
  // Simulator order: publishes win ties with requests.
  std::size_t pi = 0, ri = 0;
  while (pi < w.publishes.size() || ri < w.requests.size()) {
    if (ri == w.requests.size() ||
        (pi < w.publishes.size() &&
         w.publishes[pi].time <= w.requests[ri].time)) {
      const PublishEvent& e = w.publishes[pi++];
      trace.ops.push_back(WireFrame{0, PublishBody{e.page, e.version, e.size}});
      trace.versionStride = std::max(trace.versionStride, e.version + 1);
    } else {
      const RequestEvent& e = w.requests[ri++];
      trace.ops.push_back(WireFrame{0, RequestBody{e.proxy, e.page}});
    }
  }
  for (const SubscribeBody& b : trace.subscriptions) {
    trace.ops.push_back(WireFrame{0, b});
  }
  double unique = 0.0;
  for (const Bytes b : w.uniqueBytesRequested) unique += double(b);
  trace.capacityPerProxy = std::max<Bytes>(
      1, static_cast<Bytes>(std::llround(
             0.05 * unique / double(w.uniqueBytesRequested.size()))));
  return trace;
}

/// The frame of the trace's `index`-th op in cyclic replay order.
WireFrame opFrame(const ServeTrace& trace, std::uint64_t index,
                  std::uint32_t seq) {
  WireFrame frame = trace.ops[index % trace.ops.size()];
  frame.seq = seq;
  if (auto* p = std::get_if<PublishBody>(&frame.body)) {
    p->version += static_cast<Version>(index / trace.ops.size()) *
                  trace.versionStride;
  }
  return frame;
}

int routeOf(const WireFrame& frame) {
  PageId page = 0;
  if (const auto* p = std::get_if<PublishBody>(&frame.body)) page = p->page;
  if (const auto* r = std::get_if<RequestBody>(&frame.body)) page = r->page;
  if (const auto* s = std::get_if<SubscribeBody>(&frame.body)) page = s->page;
  return static_cast<int>(page % kConnections);
}

ServeHostConfig hostConfig(const Options& options, const ServeTrace& trace) {
  ServeHostConfig config;
  config.numProxies = 100;
  config.numTransitNodes = NetworkParams{}.numTransitNodes;
  config.networkSeed = options.topologySeed;
  config.strategy = StrategyKind::kSG2;
  config.beta = paperBeta(StrategyKind::kSG2, TraceKind::kNews, 0.05);
  config.pushScheme = PushScheme::kAlwaysPushing;
  config.capacityPerProxy = trace.capacityPerProxy;
  return config;
}

// --- the daemon, on a thread the benchmark owns -------------------------

class RunningHost {
 public:
  explicit RunningHost(const ServeHostConfig& config)
      : host_(config, DaemonConfig{}), thread_([this] {
          tid_.store(currentTid());
          try {
            host_.daemon().run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {
    while (tid_.load() == 0) std::this_thread::yield();
  }
  ~RunningHost() { stop(); }

  RunningHost(const RunningHost&) = delete;
  RunningHost& operator=(const RunningHost&) = delete;

  std::uint16_t port() { return host_.daemon().port(); }
  int tid() const { return tid_.load(); }

  /// Stops and joins the daemon thread; stats are stable afterwards.
  void stop() {
    if (!thread_.joinable()) return;
    host_.daemon().stop();
    thread_.join();
  }

  const DaemonStats& stats() { return host_.daemon().stats(); }
  const ServeCounters& counters() const { return host_.sink().counters(); }
  const std::string& error() const { return error_; }

 private:
  ServeHost host_;
  std::atomic<int> tid_{0};
  std::string error_;
  std::thread thread_;
};

// --- the pipelined generator --------------------------------------------

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string why = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect: " + why);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct PhaseResult {
  /// Per attempted op, µs from its due time to its response; +infinity
  /// for an op that failed or was never answered.
  std::vector<double> latencyUs;
  /// Per sent op, µs from its due time to the send() that flushed it.
  std::vector<double> lateUs;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t sendCalls = 0;
  std::uint64_t recvCalls = 0;
  double busySeconds = 0.0;
  double wallSeconds = 0.0;
  std::string protocolError;  // a response the generator cannot place
};

/// Source of a phase's frames: the i-th op of the phase, with `seq`.
using FrameSource = std::function<WireFrame(std::uint64_t i, std::uint32_t seq)>;

/// A single-threaded generator over kConnections non-blocking loopback
/// connections. Frames are sent when due (never held back for earlier
/// answers), responses are matched to their op by seq, and every seq
/// must be answered exactly once.
class Pipeline {
 public:
  explicit Pipeline(std::uint16_t port) {
    for (Conn& c : conns_) c.fd = connectLoopback(port);
  }
  ~Pipeline() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Runs one phase: op i is due at phase start + dueOffsets[i] seconds.
  /// Waits up to `drainSeconds` after the last send for outstanding
  /// answers.
  PhaseResult run(const std::vector<double>& dueOffsets,
                  const FrameSource& source, double drainSeconds,
                  Tracer* tracer = nullptr);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t outOffset = 0;
    std::uint64_t bytesQueued = 0;  // ever appended to out
    std::uint64_t bytesSent = 0;    // ever flushed
    /// (end byte position, phase op index) of frames not yet flushed.
    std::deque<std::pair<std::uint64_t, std::uint32_t>> unsent;
    std::string in;
    /// Phase op indices in send order; responses come back in this order.
    std::deque<std::uint32_t> awaiting;
  };

  bool flush(Conn& c, double now, const std::vector<double>& dueAt,
             PhaseResult& result, Tracer* tracer);
  bool drainInput(Conn& c, double now, const std::vector<double>& dueAt,
                  std::vector<std::uint8_t>& kinds, PhaseResult& result,
                  Tracer* tracer);

  Conn conns_[kConnections];
  std::uint32_t nextSeq_ = 1;
  std::uint32_t phaseBase_ = 1;  // seq of the current phase's op 0
  Tracer::Id encodeId_ = 0, decodeId_ = 0, sendId_ = 0, recvId_ = 0;
};

bool Pipeline::flush(Conn& c, double now, const std::vector<double>& dueAt,
                     PhaseResult& result, Tracer* tracer) {
  while (c.outOffset < c.out.size()) {
    ssize_t n = 0;
    {
      Span span(tracer, sendId_);
      n = ::send(c.fd, c.out.data() + c.outOffset, c.out.size() - c.outOffset,
                 MSG_NOSIGNAL);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      result.protocolError = "send: " + std::string(strerror(errno));
      return false;
    }
    ++result.sendCalls;
    c.outOffset += static_cast<std::size_t>(n);
    c.bytesSent += static_cast<std::uint64_t>(n);
    while (!c.unsent.empty() && c.unsent.front().first <= c.bytesSent) {
      const std::uint32_t i = c.unsent.front().second;
      result.lateUs.push_back((now - dueAt[i]) * 1e6);
      c.unsent.pop_front();
    }
  }
  if (c.outOffset == c.out.size()) {
    c.out.clear();
    c.outOffset = 0;
  }
  return true;
}

bool Pipeline::drainInput(Conn& c, double now, const std::vector<double>& dueAt,
                          std::vector<std::uint8_t>& kinds, PhaseResult& result,
                          Tracer* tracer) {
  char buf[1 << 16];
  while (true) {
    ssize_t n = 0;
    {
      Span span(tracer, recvId_);
      n = ::recv(c.fd, buf, sizeof buf, 0);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      result.protocolError = "recv: " + std::string(strerror(errno));
      return false;
    }
    if (n == 0) {
      result.protocolError = "daemon closed a connection";
      return false;
    }
    ++result.recvCalls;
    c.in.append(buf, static_cast<std::size_t>(n));
  }
  std::size_t offset = 0;
  while (true) {
    DecodeResult r;
    {
      Span span(tracer, decodeId_);
      r = decodeFrame(reinterpret_cast<const std::uint8_t*>(c.in.data()) + offset,
                      c.in.size() - offset);
    }
    if (r.status == DecodeStatus::kNeedMore) break;
    if (r.status == DecodeStatus::kError) {
      result.protocolError = "undecodable response: " + r.error;
      return false;
    }
    offset += r.consumed;
    const auto* body = std::get_if<ResponseBody>(&r.frame.body);
    if (body == nullptr || c.awaiting.empty()) {
      result.protocolError = "unexpected frame from the daemon";
      return false;
    }
    const std::uint32_t i = c.awaiting.front();
    c.awaiting.pop_front();
    if (kinds[i] == 0 || r.frame.seq != phaseBase_ + i ||
        body->op != kinds[i]) {
      result.protocolError = "response seq or op does not match its request";
      return false;
    }
    kinds[i] = 0;  // answered: a second answer for i is a protocol error
    ++result.answered;
    if (!body->ok()) {
      ++result.failed;
      result.latencyUs[i] = kInf;
      continue;
    }
    result.latencyUs[i] = (now - dueAt[i]) * 1e6;
    if (body->op == static_cast<std::uint8_t>(FrameType::kRequest)) {
      ++result.requests;
      if (body->hit != 0) ++result.hits;
    }
  }
  c.in.erase(0, offset);
  return true;
}

PhaseResult Pipeline::run(const std::vector<double>& dueOffsets,
                          const FrameSource& source, double drainSeconds,
                          Tracer* tracer) {
  if (tracer != nullptr) {
    encodeId_ = tracer->id("gen.encode");
    decodeId_ = tracer->id("gen.decode");
    sendId_ = tracer->id("gen.send");
    recvId_ = tracer->id("gen.recv");
  }
  // Sleep precisely until the next due time; the default 50 µs timer
  // slack would make every wait late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  PhaseResult result;
  const std::size_t n = dueOffsets.size();
  result.latencyUs.assign(n, kInf);
  std::vector<std::uint8_t> kinds(n, 0);  // op byte of an unanswered op
  std::vector<double> dueAt(n);
  phaseBase_ = nextSeq_;
  nextSeq_ += static_cast<std::uint32_t>(n);

  result.lateUs.reserve(n);
  const double start = nowSeconds();
  for (std::size_t i = 0; i < n; ++i) dueAt[i] = start + dueOffsets[i];
  std::size_t next = 0;     // first op not yet sent
  std::size_t dueCount = 0;  // ops due so far, sent or not
  double sendEnd = n == 0 ? start : kInf;
  double waited = 0.0;
  while (true) {
    double now = nowSeconds();
    const double iterationStart = now;
    const std::size_t nextBefore = next;
    while (dueCount < n && dueAt[dueCount] <= now) ++dueCount;
    while (next < dueCount) {
      const WireFrame frame =
          source(next, phaseBase_ + static_cast<std::uint32_t>(next));
      Conn& c = conns_[routeOf(frame)];
      {
        Span span(tracer, encodeId_);
        encodeFrame(frame, &c.out);
      }
      c.bytesQueued = c.bytesSent + (c.out.size() - c.outOffset);
      c.unsent.emplace_back(c.bytesQueued, static_cast<std::uint32_t>(next));
      c.awaiting.push_back(static_cast<std::uint32_t>(next));
      kinds[next] = static_cast<std::uint8_t>(frame.type());
      ++result.sent;
      ++next;
    }
    if (next == n && sendEnd == kInf) sendEnd = now;
    pollfd fds[kConnections];
    for (int k = 0; k < kConnections; ++k) {
      if (!flush(conns_[k], now, dueAt, result, tracer)) return result;
      fds[k].fd = conns_[k].fd;
      fds[k].events = POLLIN | (conns_[k].outOffset < conns_[k].out.size()
                                    ? POLLOUT
                                    : 0);
      fds[k].revents = 0;
    }
    if (sendEnd != kInf && result.answered == result.sent) break;
    if (sendEnd != kInf && now > sendEnd + drainSeconds) break;
    // Block only until shortly before the next due time, then poll
    // without blocking: a timer wakeup can come tens of µs late, and that
    // lateness would be charged to the daemon as latency.
    constexpr double kSpinSeconds = 100e-6;
    double wait = sendEnd != kInf ? sendEnd + drainSeconds - now
                                  : dueAt[next] - now - kSpinSeconds;
    wait = std::max(0.0, wait);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - double(ts.tv_sec)) * 1e9);
    const double pollStart = nowSeconds();
    const int ready = ::ppoll(fds, kConnections, &ts, nullptr);
    now = nowSeconds();
    // Busy time excludes blocking and idle spinning.
    waited += ready == 0 && next == nextBefore ? now - iterationStart
                                               : now - pollStart;
    if (ready < 0 && errno != EINTR) {
      result.protocolError = "ppoll: " + std::string(strerror(errno));
      return result;
    }
    for (int k = 0; k < kConnections && ready > 0; ++k) {
      if ((fds[k].revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
          !drainInput(conns_[k], now, dueAt, kinds, result, tracer)) {
        return result;
      }
    }
  }
  const double end = nowSeconds();
  result.wallSeconds = end - start;
  result.busySeconds = result.wallSeconds - waited;
  // Sent but unanswered ops failed.
  result.failed += result.sent - result.answered;
  return result;
}

// --- set-up ---------------------------------------------------------------

struct ServeSetup {
  Workload workload;
  ServeTrace trace;
  std::unique_ptr<RunningHost> host;
  std::unique_ptr<Pipeline> pipeline;
  std::uint64_t seedFrames = 0;
  ServeHostConfig config;
};

/// Starts a host for the trace `w`, sends its SUBSCRIBE frames and leaves
/// the pipeline connected.
ServeSetup startServe(Workload w, const Options& options, Report& report) {
  ServeSetup s;
  s.workload = std::move(w);
  s.trace = toServeTrace(s.workload);
  s.config = hostConfig(options, s.trace);
  s.host = std::make_unique<RunningHost>(s.config);
  s.pipeline = std::make_unique<Pipeline>(s.host->port());
  const std::vector<double> now(s.trace.subscriptions.size(), 0.0);
  const auto& subs = s.trace.subscriptions;
  const PhaseResult seeded = s.pipeline->run(
      now,
      [&](std::uint64_t i, std::uint32_t seq) {
        WireFrame f;
        f.seq = seq;
        f.body = subs[i];
        return f;
      },
      10.0);
  report.check(seeded.protocolError.empty(), "seeding: " + seeded.protocolError);
  report.check(seeded.answered == subs.size() && seeded.failed == 0,
               "seeding: not every SUBSCRIBE was acknowledged");
  s.seedFrames = subs.size();
  return s;
}

/// Stops the daemon and checks its books against the client's.
void tearDownAndCheck(ServeSetup& s, std::uint64_t framesSent,
                      std::uint64_t requests, std::uint64_t hits,
                      Report& report) {
  s.pipeline.reset();
  s.host->stop();
  const DaemonStats& stats = s.host->stats();
  const ServeCounters& counters = s.host->counters();
  report.check(s.host->error().empty(), "daemon thread: " + s.host->error());
  report.check(stats.errorResponses == 0, "daemon answered kError");
  report.check(stats.decodeErrors == 0 && stats.protocolErrors == 0 &&
                   stats.inputOverflows == 0 && stats.overloadShed == 0,
               "daemon reported decode/protocol errors");
  report.check(stats.framesHandled == framesSent,
               "DaemonStats::framesHandled " +
                   std::to_string(stats.framesHandled) + " != frames sent " +
                   std::to_string(framesSent));
  report.check(counters.requests == requests,
               "ServeCounters::requests differs from the client's count");
  report.check(counters.hits == hits,
               "ServeCounters::hits differs from the client's count");
}

// --- serve-closed -------------------------------------------------------

struct ClosedResult {
  /// Round-trip times in µs (+infinity for a failed op).
  LatencyRecorder rttUs{kBlockOps};
  std::vector<double> windowOpsPerSecond;
  std::uint64_t ops = 0, failed = 0, requests = 0, hits = 0;
  double seconds = 0.0;
  std::string error;
};

/// Three blocking clients, closed loop, for `seconds`. Client k replays
/// the ops whose page id is k mod 3, starting at trace index `*cursor[k]`.
ClosedResult runClosed(const ServeTrace& trace, std::uint16_t port,
                       double seconds, std::vector<std::uint64_t>& cursors,
                       bool traced) {
  ClosedResult total;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  struct PerClient {
    LatencyRecorder rttUs{kBlockOps};
    std::uint64_t ops = 0, failed = 0, requests = 0, hits = 0;
    std::string error;
  };
  std::vector<PerClient> per(kConnections);
  std::vector<std::unique_ptr<WireClient>> clients;
  for (int k = 0; k < kConnections; ++k) {
    clients.push_back(std::make_unique<WireClient>("127.0.0.1", port));
  }
  const double start = nowSeconds();
  {
    std::vector<std::thread> threads;
    for (int k = 0; k < kConnections; ++k) {
      threads.emplace_back([&, k] {
        PerClient& me = per[k];
        Tracer tracer;
        Tracer* t = traced ? &tracer : nullptr;
        const Tracer::Id callId = tracer.id("client.call");
        std::uint64_t& index = cursors[k];
        try {
          while (!stop.load(std::memory_order_relaxed)) {
            if (routeOf(trace.ops[index % trace.ops.size()]) != k) {
              ++index;
              continue;
            }
            const WireFrame frame = opFrame(trace, index++, 0);
            const std::int64_t t0 = nowNs();
            ResponseBody r;
            {
              Span span(t, callId);
              r = clients[k]->call(frame);
            }
            const std::int64_t t1 = nowNs();
            me.rttUs.add(r.ok() ? double(t1 - t0) * 1e-3 : kInf);
            ++me.ops;
            completed.fetch_add(1, std::memory_order_relaxed);
            if (!r.ok()) {
              ++me.failed;
            } else if (frame.type() == FrameType::kRequest) {
              ++me.requests;
              if (r.hit != 0) ++me.hits;
            }
          }
        } catch (const std::exception& e) {
          me.error = e.what();
        }
      });
    }
    // Throughput in 0.5 s windows, so one stall moves the median little.
    std::uint64_t last = 0;
    double lastT = start;
    while (nowSeconds() < start + seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const double t = nowSeconds();
      if (t - lastT >= 0.5) {
        const std::uint64_t c = completed.load();
        total.windowOpsPerSecond.push_back(double(c - last) / (t - lastT));
        last = c;
        lastT = t;
      }
    }
    stop.store(true);
    for (std::thread& th : threads) th.join();
  }
  total.seconds = nowSeconds() - start;
  for (PerClient& me : per) {
    total.rttUs.merge(me.rttUs);
    total.ops += me.ops;
    total.failed += me.failed;
    total.requests += me.requests;
    total.hits += me.hits;
    if (!me.error.empty()) total.error = me.error;
  }
  return total;
}

// --- the pipelined generator on the trace -------------------------------

/// Replays the trace cyclically from `cursor` on the given schedule.
PhaseResult runOpenPhase(ServeSetup& s, const std::vector<double>& schedule,
                         std::uint64_t& cursor, Tracer* tracer = nullptr) {
  const std::uint64_t first = cursor;
  cursor += schedule.size();
  PhaseResult r = s.pipeline->run(
      schedule,
      [&](std::uint64_t i, std::uint32_t seq) {
        return opFrame(s.trace, first + i, seq);
      },
      5.0, tracer);
  return r;
}

// --- in-process layers ----------------------------------------------------

struct InProcess {
  double serviceNs = 0.0;
  double encodeNs = 0.0;
  double decodeNs = 0.0;
  bool roundTrips = true;
};

/// One pass of the trace applied to a DistributionService built with
/// ServeHost::buildNetwork/buildServiceConfig (dispatch without the
/// socket), then the pass's frames and their responses through the codec.
InProcess measureInProcess(const ServeSetup& s, std::uint64_t maxOps,
                           Tracer& tracer, PerLayer& layer) {
  InProcess out;
  const Network network = [&] {
    Span span(&tracer, tracer.id("topology.network"), true);
    return ServeHost::buildNetwork(s.config);
  }();
  WireClock clock;
  WireSink sink;
  DistributionService service(network, clock, sink,
                              ServeHost::buildServiceConfig(s.config));
  {
    const Tracer::Id subscribeId = tracer.id("pubsub.subscribe");
    Span span(&tracer, tracer.id("net.register"), true);
    for (const SubscribeBody& b : s.trace.subscriptions) {
      Span call(&tracer, subscribeId);
      service.broker().subscribeAggregated(b.proxy, b.page, b.count);
    }
  }
  const std::uint64_t ops = std::min<std::uint64_t>(maxOps, s.trace.ops.size());
  std::vector<WireFrame> frames;
  frames.reserve(2 * ops);
  const Tracer::Id serviceId = tracer.id("net.service");
  const Tracer::Id requestId = tracer.id("core.request.SG2");
  const Tracer::Id publishId = tracer.id("core.publish.SG2");
  {
    Span loop(&tracer, tracer.id("net.service_pass"), true);
    for (std::uint64_t i = 0; i < ops; ++i) {
      WireFrame frame = opFrame(s.trace, i, static_cast<std::uint32_t>(i));
      WireFrame reply;
      reply.seq = frame.seq;
      ResponseBody response;
      response.op = static_cast<std::uint8_t>(frame.type());
      {
        Span span(&tracer, serviceId);
        if (const auto* p = std::get_if<PublishBody>(&frame.body)) {
          PublishEvent event;
          event.time = clock.now();
          event.page = p->page;
          event.version = p->version;
          event.size = p->size;
          {
            Span call(&tracer, publishId);
            service.handlePublish(event);
          }
          response.pages = sink.lastPush().pages;
          response.bytes = sink.lastPush().bytes;
        } else if (const auto* b = std::get_if<SubscribeBody>(&frame.body)) {
          service.broker().subscribeAggregated(b->proxy, b->page, b->count);
        } else {
          const auto& r = std::get<RequestBody>(frame.body);
          {
            Span call(&tracer, requestId);
            service.handleRequest(r.proxy, r.page);
          }
          const RequestDelivery& d = sink.lastRequest();
          response.hit = d.hit ? 1 : 0;
          response.stale = d.stale ? 1 : 0;
          response.bytes = d.bytesTransferred;
          response.responseTimeMs = d.responseTimeMs;
        }
      }
      reply.body = response;
      frames.push_back(std::move(frame));
      frames.push_back(std::move(reply));
    }
  }
  out.serviceNs = tracer.meanSeconds("net.service") * 1e9;

  std::string bytes;
  const std::int64_t e0 = nowNs();
  for (const WireFrame& f : frames) encodeFrame(f, &bytes);
  out.encodeNs = double(nowNs() - e0) / double(frames.size());
  std::size_t offset = 0;
  std::vector<WireFrame> back;
  back.reserve(frames.size());
  const std::int64_t d0 = nowNs();
  while (offset < bytes.size()) {
    DecodeResult r = decodeFrame(
        reinterpret_cast<const std::uint8_t*>(bytes.data()) + offset,
        bytes.size() - offset);
    if (r.status != DecodeStatus::kOk) break;
    offset += r.consumed;
    back.push_back(std::move(r.frame));
  }
  out.decodeNs = double(nowNs() - d0) / double(frames.size());
  out.roundTrips = back == frames;

  layer.set("net.service_ns", out.serviceNs);
  layer.set("net.encode_ns", out.encodeNs);
  layer.set("net.decode_ns", out.decodeNs);
  return out;
}

/// Daemon-thread readings summed over the slices they cover.
struct DaemonUsage {
  ThreadCpu used;
  double seconds = 0.0;
  std::uint64_t ops = 0;

  void add(const ThreadCpu& before, const ThreadCpu& after, double wall,
           std::uint64_t n) {
    used.runNs += after.runNs - before.runNs;
    used.userTicks += after.userTicks - before.userTicks;
    used.systemTicks += after.systemTicks - before.systemTicks;
    used.contextSwitches += after.contextSwitches - before.contextSwitches;
    seconds += wall;
    ops += n;
  }
};

void setDaemonLayer(const DaemonUsage& u, PerLayer& layer) {
  const double ops = double(std::max<std::uint64_t>(u.ops, 1));
  const double ticks = double(u.used.userTicks + u.used.systemTicks);
  layer.set("net.daemon_cpu_ns_per_op", double(u.used.runNs) / ops);
  layer.set("net.daemon_sys_frac",
            ticks == 0.0 ? 0.0 : double(u.used.systemTicks) / ticks);
  layer.set("net.daemon_busy_frac", double(u.used.runNs) * 1e-9 / u.seconds);
  layer.set("net.daemon_ctxsw_per_op", double(u.used.contextSwitches) / ops);
}

void setGenLayer(const PhaseResult& r, PerLayer& layer) {
  std::vector<double> late = r.lateUs;
  layer.set("gen.late_p99_us", percentileSorted(late, 99.0));
  layer.set("gen.frames_per_send",
            r.sendCalls == 0 ? 0.0 : double(r.sent) / double(r.sendCalls));
  layer.set("gen.frames_per_recv",
            r.recvCalls == 0 ? 0.0 : double(r.answered) / double(r.recvCalls));
  layer.set("gen.busy_frac", r.busySeconds / r.wallSeconds);
}

/// The net metrics taken after a serve run: service and codec costs over
/// up to `maxOps` of the trace in-process, the transport share of the
/// run's p50 latency, and the daemon's error count.
void setNetLayer(const ServeSetup& s, std::uint64_t maxOps, double p50Us,
                 Tracer& tracer, PerLayer& layer, Report& report) {
  const InProcess in = measureInProcess(s, maxOps, tracer, layer);
  report.check(in.roundTrips, "codec: decoded frames differ from the encoded");
  layer.set("net.transport_us",
            p50Us - (in.serviceNs + 2.0 * (in.encodeNs + in.decodeNs)) * 1e-3);
  layer.set("net.error_responses", double(s.host->stats().errorResponses));
}

/// Serve-side figures of a traced run, from the daemon's counters.
void setServeCounters(const ServeSetup& s, PerLayer& layer) {
  const ServeCounters& c = s.host->counters();
  layer.set("cache.fetch_bytes_per_request",
            double(c.requestBytes) / double(std::max<std::uint64_t>(c.requests, 1)));
  layer.set("pubsub.pushes_per_publish",
            double(c.pushedPages) / double(std::max<std::uint64_t>(c.pushes, 1)));
}

}  // namespace

std::vector<double> poissonSchedule(double rate, double seconds,
                                    std::uint64_t seed) {
  PacingConfig config;
  config.targetQps = rate;
  config.durationSeconds = seconds;
  config.kind = PacingKind::kPoisson;
  config.seed = seed;
  return buildOpenLoopSchedule(config);
}

void checkGenerator(Report& report) {
  // A small trace keeps this fast; the host and wire path are the real
  // ones.
  WorkloadParams params = traceParams(TraceKind::kNews, 1.0, 0.02);
  params.seed = 42;
  ServeSetup s = startServe(buildWorkload(params), Options{}, report);
  std::uint64_t framesSent = s.seedFrames, requests = 0, hits = 0, cursor = 0;
  const auto phase = [&](const std::vector<double>& schedule,
                         const char* what) {
    const std::uint64_t first = cursor;
    const PhaseResult r = runOpenPhase(s, schedule, cursor);
    report.check(r.protocolError.empty(),
                 std::string(what) + ": " + r.protocolError);
    report.check(r.answered == r.sent && r.failed == 0,
                 std::string(what) + ": not every seq answered once");
    report.check(cursor == first + r.sent,
                 std::string(what) + ": replay cursor out of step");
    framesSent += r.sent;
    requests += r.requests;
    hits += r.hits;
    return r;
  };
  // A burst (every op due at once) pipelines many frames per send.
  const PhaseResult burst =
      phase(std::vector<double>(20000, 0.0), "burst");
  report.check(burst.sent == 20000, "burst: not every op was sent");
  report.check(burst.sendCalls < burst.sent,
               "burst: frames were not batched into sends");
  // Paced arrivals past the trace's end wrap around with higher versions.
  const PhaseResult paced =
      phase(poissonSchedule(20000.0, 0.5, 3), "poisson");
  report.check(cursor > s.trace.ops.size(), "poisson: trace did not wrap");
  report.check(paced.lateUs.size() == paced.sent,
               "poisson: a send time is missing");
  tearDownAndCheck(s, framesSent, requests, hits, report);
}

void probeServeLayers(const Workload& w, const Options& options,
                      Tracer& tracer, PerLayer& layer, Report& report) {
  ServeSetup s = startServe(w, options, report);
  std::uint64_t cursor = 0;
  const PhaseResult warm = runOpenPhase(
      s, poissonSchedule(kOpenRate, kWarmupSeconds, options.seed + 1000),
      cursor);
  const std::vector<double> schedule =
      poissonSchedule(kOpenRate, kProbeSeconds, options.seed);
  const ThreadCpu before = readThreadCpu(s.host->tid());
  const PhaseResult r = runOpenPhase(s, schedule, cursor);
  const ThreadCpu after = readThreadCpu(s.host->tid());
  for (const PhaseResult* p : {&warm, &r}) {
    report.check(p->protocolError.empty(), "probe: " + p->protocolError);
    report.check(p->failed == 0, "probe: an op failed");
  }
  tearDownAndCheck(s, s.seedFrames + warm.sent + r.sent,
                   warm.requests + r.requests, warm.hits + r.hits, report);
  DaemonUsage usage;
  usage.add(before, after, r.wallSeconds, r.answered);
  setDaemonLayer(usage, layer);
  setGenLayer(r, layer);
  std::vector<double> latencyUs = r.latencyUs;
  setNetLayer(s, kProbeOps, percentileSorted(latencyUs, 50.0), tracer, layer,
              report);
}

void runServeWorkload(const Options& options, Report& report) {
  std::vector<double> setupSeconds;
  Tracer tracer;
  ServeSetup s;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    if (s.host) tearDownAndCheck(s, s.seedFrames, 0, 0, report);
    const double t0 = nowSeconds();
    const WorkloadParams params = serveTraceParams(options);
    s = startServe(options.trace ? tracedBuildWorkload(params, tracer)
                                 : buildWorkload(params),
                   options, report);
    // The closed loop connects its own clients; a traced run keeps the
    // pipeline for its generator probe.
    if (!options.trace) s.pipeline.reset();
    setupSeconds.push_back(nowSeconds() - t0);
    if (options.trace) {
      report.check(sameWorkload(s.workload, buildWorkload(params)),
                   "traced workload generation differs from buildWorkload");
    }
  }
  if (!report.correct) return;

  // The daemon's books must match everything sent, warm-up included;
  // only measured ops count as attempted.
  std::uint64_t framesSent = s.seedFrames;
  std::uint64_t requests = 0, hits = 0;
  const auto account = [&](std::uint64_t ops, std::uint64_t failed,
                           std::uint64_t reqs, std::uint64_t hitCount,
                           bool measured) {
    framesSent += ops;
    requests += reqs;
    hits += hitCount;
    if (measured) {
      report.attempted += ops;
      report.failed += failed;
    } else {
      report.check(failed == 0, "warm-up: an op failed");
    }
  };
  std::vector<std::uint64_t> cursors(kConnections, 0);
  const ClosedResult warm =
      runClosed(s.trace, s.host->port(), kWarmupSeconds, cursors, false);
  report.check(warm.error.empty(), "client: " + warm.error);
  account(warm.ops, warm.failed, warm.requests, warm.hits, false);

  if (!options.trace) {
    const ClosedResult r =
        runClosed(s.trace, s.host->port(), options.seconds, cursors, false);
    report.check(r.error.empty(), "client: " + r.error);
    account(r.ops, r.failed, r.requests, r.hits, true);
    // Read after the measured run, so the figure covers serving.
    const double peakRss = peakRssMb();
    tearDownAndCheck(s, framesSent, requests, hits, report);
    reportEndToEnd(report, setupSeconds, r.windowOpsPerSecond, r.rttUs,
                   peakRss);
    return;
  }

  // The traced run alternates untraced and traced slices of about a
  // second, so drift in host speed cancels out of the overhead. The
  // untraced slices give the daemon readings and the latency the
  // transport estimate starts from.
  PerLayer layer;
  const int slices = std::max(2, 2 * static_cast<int>(options.seconds / 2.0));
  const double sliceSeconds = options.seconds / slices;
  DaemonUsage usage;
  LatencyRecorder latencyUs(kBlockOps);
  double plainOps = 0, plainSeconds = 0, tracedOps = 0, tracedSeconds = 0;
  for (int i = 0; i < slices; ++i) {
    const bool traced = i % 2 == 1;
    const ThreadCpu before = readThreadCpu(s.host->tid());
    const ClosedResult r =
        runClosed(s.trace, s.host->port(), sliceSeconds, cursors, traced);
    const ThreadCpu after = readThreadCpu(s.host->tid());
    report.check(r.error.empty(), "client: " + r.error);
    account(r.ops, r.failed, r.requests, r.hits, true);
    if (traced) {
      tracedOps += double(r.ops);
      tracedSeconds += r.seconds;
    } else {
      usage.add(before, after, r.seconds, r.ops);
      plainOps += double(r.ops);
      plainSeconds += r.seconds;
      latencyUs.merge(r.rttUs);
    }
  }
  // The gen layer has no part in a closed loop; probe the pipelined
  // generator at 50k ops/s on a fresh replay pass.
  std::uint64_t cursor =
      (*std::max_element(cursors.begin(), cursors.end()) / s.trace.ops.size() +
       1) *
      s.trace.ops.size();
  const PhaseResult g = runOpenPhase(
      s, poissonSchedule(kOpenRate, kProbeSeconds, options.seed), cursor);
  report.check(g.protocolError.empty(), "generator: " + g.protocolError);
  account(g.sent, g.failed, g.requests, g.hits, false);
  setGenLayer(g, layer);
  tearDownAndCheck(s, framesSent, requests, hits, report);

  setDaemonLayer(usage, layer);
  // Closed loop: tracing shows as fewer ops per second.
  layer.set("trace.overhead_frac",
            (tracedSeconds / std::max(tracedOps, 1.0)) /
                    (plainSeconds / std::max(plainOps, 1.0)) -
                1.0);
  setServeCounters(s, layer);
  report.diagnostic("serve_hit_ratio", s.host->counters().hitRatio(), "ratio",
                    s.host->counters().requests);
  setNetLayer(s, s.trace.ops.size(), latencyUs.p50Us(), tracer, layer, report);
  // The simulator-side layers on this trace: every figure-4 strategy at
  // 5% through the traced replica.
  StrategyHits strategyHits;
  probeStrategies(s.workload, TraceKind::kNews,
                  ServeHost::buildNetwork(s.config), tracer, strategyHits);
  setSimLayers(tracer, strategyHits, layer);
  layer.set("workload.events", double(eventCount(s.workload)));
  layer.set("workload.materialized_mb", materializedMb(s.workload));
  tracer.dump();
  reportPerLayer(report, layer);
}

}  // namespace perfbench
