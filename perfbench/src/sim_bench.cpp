// Simulator workload.
//
//   sim-news-10x  one NEWS trace at 10x the paper's requests, SG2 at 5%:
//                 buildWorkload + Simulator::run, repeated. Generation is
//                 the larger share, so the workload layer dominates.
//
// The untraced run calls only buildWorkload, Network and Simulator::run.
// The traced run repeats the same work once through those entry points
// and once through a replica that calls the four generators in
// buildWorkload's RNG-split order and replays Simulator::run's merge loop
// over DistributionService with its own Clock/EventSink, with spans
// around every call. Both must produce identical workloads and metrics.
// Every run, traced or not and whatever its seed, first runs the
// figure-4 grid (2 traces x 6 strategies x 3 capacities) and one
// sim-news-10x unit, untimed and at the default seeds; every cell must
// equal reference.inc.
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "pscd/core/runtime.h"
#include "pscd/core/service.h"
#include "pscd/sim/experiment.h"
#include "pscd/sim/simulator.h"
#include "pscd/util/rng.h"
#include "pscd/workload/publishing.h"
#include "pscd/workload/requests.h"
#include "pscd/workload/subscriptions.h"

namespace perfbench {

using namespace pscd;

namespace {

struct CellResult {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t staleMisses = 0;
  std::uint64_t pushPages = 0;
  std::uint64_t pushBytes = 0;
  std::uint64_t fetchPages = 0;
  std::uint64_t fetchBytes = 0;

  friend bool operator==(const CellResult&, const CellResult&) = default;
};

struct ReferenceCell {
  const char* name;
  CellResult result;
};

// Results of the default seeds (workload 42, topology 7), recorded with
// printSimReference() from the library at the commit that introduced the
// benchmark. A change that moves any of them changes simulation outcomes.
constexpr ReferenceCell kReference[] = {
#include "reference.inc"
};

constexpr StrategyKind kFig4Strategies[] = {
    StrategyKind::kGDStar, StrategyKind::kSUB, StrategyKind::kSG1,
    StrategyKind::kSG2,    StrategyKind::kSR,  StrategyKind::kDCLAP,
};

struct Cell {
  TraceKind trace;
  StrategyKind strategy;
  double capacity;

  std::string name() const {
    char cap[16];
    std::snprintf(cap, sizeof cap, "%.2f", capacity);
    return std::string(traceName(trace)) + "/" +
           std::string(strategyName(strategy)) + "/" + cap;
  }
};

std::vector<Cell> fig4Cells() {
  std::vector<Cell> cells;
  for (const TraceKind trace : {TraceKind::kNews, TraceKind::kAlternative}) {
    for (const double cap : kCapacityFractions) {
      for (const StrategyKind kind : kFig4Strategies) {
        cells.push_back({trace, kind, cap});
      }
    }
  }
  return cells;
}

const Cell kNews10xCell{TraceKind::kNews, StrategyKind::kSG2, 0.05};

/// Proxies of the paper's overlay (and of every trace here).
const std::uint32_t kProxies = NetworkParams{}.numProxies;

WorkloadParams traceWorkloadParams(TraceKind trace, std::uint64_t seed,
                                   std::uint64_t requestMultiplier) {
  WorkloadParams params = traceParams(trace, 1.0);
  params.request.totalRequests *= requestMultiplier;
  params.seed = seed;
  return params;
}

SimConfig cellConfig(const Cell& cell) {
  SimConfig config;
  config.strategy = cell.strategy;
  config.capacityFraction = cell.capacity;
  config.beta = paperBeta(cell.strategy, cell.trace, cell.capacity);
  config.pushScheme = PushScheme::kAlwaysPushing;
  return config;
}

Network buildNetwork(std::uint64_t topologySeed) {
  Rng rng(topologySeed);
  return Network(NetworkParams{}, rng);
}

CellResult summarize(const SimMetrics& m) {
  CellResult r;
  r.requests = m.requests();
  r.hits = m.hits();
  r.staleMisses = m.staleMisses();
  r.pushPages = m.traffic().pushPages;
  r.pushBytes = m.traffic().pushBytes;
  r.fetchPages = m.traffic().fetchPages;
  r.fetchBytes = m.traffic().fetchBytes;
  return r;
}

/// Bit-for-bit equality of everything a run reports without hourly
/// series.
bool sameMetrics(const SimMetrics& a, const SimMetrics& b,
                 std::uint32_t numProxies) {
  if (!(summarize(a) == summarize(b))) return false;
  if (a.meanResponseTime() != b.meanResponseTime()) return false;
  for (ProxyId p = 0; p < numProxies; ++p) {
    if (a.proxyHitRatio(p) != b.proxyHitRatio(p)) return false;
  }
  return true;
}

class ReplicaClock final : public Clock {
 public:
  SimTime now() const override { return now_; }
  void advance(SimTime t) { now_ = t; }

 private:
  SimTime now_ = 0.0;
};

/// Folds deliveries into SimMetrics exactly as the simulator's sink does,
/// timing each record as a child span of the service call that made it.
class TracedMetricsSink final : public EventSink {
 public:
  TracedMetricsSink(SimMetrics& metrics, Tracer& tracer)
      : metrics_(metrics), tracer_(tracer), id_(tracer.id("sim.metrics")) {}

  void onPush(const PushDelivery& d) override {
    Span span(&tracer_, id_);
    metrics_.recordPush(d.time, d.pages, d.bytes, d.pagesLost, d.bytesLost);
  }

  void onRequest(const RequestDelivery& d) override {
    Span span(&tracer_, id_);
    RequestFaultStats fs;
    fs.retries = d.retries;
    fs.servedStale = d.servedStale;
    fs.failover = d.failover;
    fs.unavailable = d.unavailable;
    metrics_.recordRequest(d.proxy, d.time, d.hit, d.stale,
                           d.bytesTransferred, d.responseTimeMs, fs);
  }

 private:
  SimMetrics& metrics_;
  Tracer& tracer_;
  Tracer::Id id_;
};

std::string spanStrategyName(StrategyKind kind) {
  return kind == StrategyKind::kGDStar ? "GDstar"
                                       : std::string(strategyName(kind));
}

/// Simulator::run's merge loop (failure layer off) over the same
/// DistributionService, with spans around registration, the loop, and
/// every service call.
SimMetrics tracedSimulate(const Workload& w, const Network& network,
                          const SimConfig& config, Tracer& tracer) {
  const Simulator sizing(w, network, config);
  ServiceConfig sc;
  sc.engine.strategy = config.strategy;
  sc.engine.beta = config.beta;
  sc.engine.pushScheme = config.pushScheme;
  sc.engine.dcInitialPcFraction = config.dcInitialPcFraction;
  sc.engine.dcMinPcFraction = config.dcMinPcFraction;
  sc.engine.dcMaxPcFraction = config.dcMaxPcFraction;
  for (ProxyId p = 0; p < w.numProxies(); ++p) {
    sc.engine.proxyCapacities.push_back(sizing.proxyCapacity(p));
  }
  sc.latency.localLatencyMs = config.localLatencyMs;
  sc.latency.remoteLatencyMsPerUnit = config.remoteLatencyMsPerUnit;
  sc.faultHorizon = w.params.publishing.horizon;

  SimMetrics metrics(w.numProxies(), 0);
  ReplicaClock clock;
  TracedMetricsSink sink(metrics, tracer);
  DistributionService service(network, clock, sink, std::move(sc));

  const std::string strategy = spanStrategyName(config.strategy);
  const Tracer::Id subscribeId = tracer.id("pubsub.subscribe");
  const Tracer::Id requestId = tracer.id("core.request." + strategy);
  const Tracer::Id publishId = tracer.id("core.publish." + strategy);
  const Tracer::Id churnId = tracer.id("core.churn");
  {
    Span span(&tracer, tracer.id("sim.register"), true);
    for (PageId page = 0; page < w.numPages(); ++page) {
      for (const Notification& n : w.subscriptions(page)) {
        Span call(&tracer, subscribeId);
        service.broker().subscribeAggregated(n.proxy, page, n.matchCount);
      }
    }
  }
  Span loop(&tracer, tracer.id("sim.loop"), true);
  constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();
  std::size_t pi = 0, ri = 0, ci = 0;
  while (pi < w.publishes.size() || ri < w.requests.size() ||
         ci < w.churn.size()) {
    const SimTime nextPublish =
        pi < w.publishes.size() ? w.publishes[pi].time : kNever;
    const SimTime nextRequest =
        ri < w.requests.size() ? w.requests[ri].time : kNever;
    const SimTime nextChurn = ci < w.churn.size() ? w.churn[ci].time : kNever;
    if (nextChurn <= nextPublish && nextChurn <= nextRequest) {
      const SubscriptionChurnEvent& ev = w.churn[ci++];
      clock.advance(ev.time);
      Span call(&tracer, churnId);
      service.handleChurn(ev.proxy, ev.fromPage, ev.toPage);
    } else if (nextPublish <= nextRequest) {
      const PublishEvent& ev = w.publishes[pi++];
      clock.advance(ev.time);
      Span call(&tracer, publishId);
      service.handlePublish(ev);
    } else {
      const RequestEvent& ev = w.requests[ri++];
      clock.advance(ev.time);
      Span call(&tracer, requestId);
      service.handleRequest(ev.proxy, ev.page);
    }
  }
  return metrics;
}

// --- the two workloads ------------------------------------------------

struct SimUnit {
  std::vector<Cell> cells;
  std::vector<TraceKind> traces;  // generated per unit, in this order
  std::uint64_t requestMultiplier = 1;
};

SimUnit news10xUnit() {
  return SimUnit{{kNews10xCell}, {TraceKind::kNews}, 10};
}

SimUnit fig4Unit() {
  return SimUnit{fig4Cells(), {TraceKind::kNews, TraceKind::kAlternative}, 1};
}

const Workload& workloadOf(const std::vector<Workload>& workloads,
                           const SimUnit& unit, TraceKind trace) {
  for (std::size_t i = 0; i < unit.traces.size(); ++i) {
    if (unit.traces[i] == trace) return workloads[i];
  }
  return workloads.front();
}

std::string referenceName(const SimUnit& unit, const Cell& cell) {
  return unit.requestMultiplier == 10 ? "news-10x/" + cell.name()
                                      : cell.name();
}

const CellResult* findReference(const std::string& name) {
  for (const ReferenceCell& ref : kReference) {
    if (name == ref.name) return &ref.result;
  }
  return nullptr;
}

/// One unit of measured work through the public entry points: generate
/// the unit's traces, then one Simulator::run per cell.
struct UnitRun {
  std::vector<Workload> workloads;
  std::vector<SimMetrics> metrics;
  std::uint64_t events = 0;
  double seconds = 0.0;
};

UnitRun runUnit(const SimUnit& unit, const Options& options,
                const Network& network) {
  UnitRun run;
  const double start = nowSeconds();
  for (const TraceKind trace : unit.traces) {
    run.workloads.push_back(buildWorkload(
        traceWorkloadParams(trace, options.seed, unit.requestMultiplier)));
  }
  for (const Cell& cell : unit.cells) {
    const Workload& w = workloadOf(run.workloads, unit, cell.trace);
    Simulator sim(w, network, cellConfig(cell));
    run.metrics.push_back(sim.run());
    run.events += eventCount(w);
  }
  run.seconds = nowSeconds() - start;
  return run;
}

void checkUnit(const UnitRun& run, const UnitRun* first, const SimUnit& unit,
               Report& report) {
  for (std::size_t i = 0; i < unit.cells.size(); ++i) {
    const CellResult result = summarize(run.metrics[i]);
    const std::string name = referenceName(unit, unit.cells[i]);
    report.check(result.requests > 0 && result.hits > 0 &&
                     result.hits <= result.requests,
                 name + ": hit count out of range");
    if (first != nullptr) {
      report.check(sameMetrics(run.metrics[i], first->metrics[i], kProxies),
                   name + ": a repeated run gave different metrics");
    }
  }
}

/// One untimed unit at the default seeds, whatever the run's seed, each
/// of whose cells must equal the recorded reference.
void checkReference(const SimUnit& unit, const Network& network,
                    Report& report) {
  const UnitRun run = runUnit(unit, Options{}, network);
  for (std::size_t i = 0; i < unit.cells.size(); ++i) {
    const std::string name = referenceName(unit, unit.cells[i]);
    const CellResult* ref = findReference(name);
    report.check(ref != nullptr && *ref == summarize(run.metrics[i]),
                 name + ": differs from the recorded reference");
  }
}

}  // namespace

const std::vector<std::string>& spanStrategyNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const StrategyKind kind : kFig4Strategies) {
      out.push_back(spanStrategyName(kind));
    }
    return out;
  }();
  return names;
}

std::uint64_t eventCount(const Workload& w) {
  return w.publishes.size() + w.requests.size() + w.churn.size();
}

void probeStrategies(const Workload& w, TraceKind trace,
                     const Network& network, Tracer& tracer,
                     StrategyHits& hits) {
  for (const StrategyKind kind : kFig4Strategies) {
    const std::string name = spanStrategyName(kind);
    if (hits.count(name) != 0) continue;
    const CellResult r = summarize(
        tracedSimulate(w, network, cellConfig({trace, kind, 0.05}), tracer));
    hits[name] = {r.hits, r.requests};
  }
}

void setSimLayers(const Tracer& tracer, const StrategyHits& hits,
                  PerLayer& layer) {
  for (const char* name : {"workload.publishing", "workload.requests",
                           "workload.subscriptions", "workload.finish",
                           "topology.network", "sim.register"}) {
    layer.set(std::string(name) + "_s", tracer.meanSeconds(name));
  }
  layer.set("sim.loop_self_s", tracer.meanSelfNs("sim.loop") * 1e-9);
  layer.set("sim.metrics_ns", tracer.meanSelfNs("sim.metrics"));
  layer.set("pubsub.subscribe_ns", tracer.meanSelfNs("pubsub.subscribe"));
  for (const auto& [name, counts] : hits) {
    layer.set("core.request_ns." + name, tracer.meanSelfNs("core.request." + name));
    layer.set("core.publish_ns." + name, tracer.meanSelfNs("core.publish." + name));
    layer.set("cache.hit_ratio." + name,
              double(counts.first) / double(std::max<std::uint64_t>(counts.second, 1)));
  }
}

double materializedMb(const Workload& w) {
  const double bytes =
      double(w.pages.size() * sizeof(PageInfo)) +
      double(w.publishes.size() * sizeof(PublishEvent)) +
      double(w.requests.size() * sizeof(RequestEvent)) +
      double(w.subOffsets.size() * sizeof(std::uint32_t)) +
      double(w.subEntries.size() * sizeof(Notification)) +
      double(w.churn.size() * sizeof(SubscriptionChurnEvent)) +
      double(w.uniqueBytesRequested.size() * sizeof(Bytes));
  return bytes / (1024.0 * 1024.0);
}

bool sameWorkload(const Workload& a, const Workload& b) {
  const auto samePages = [&] {
    if (a.pages.size() != b.pages.size()) return false;
    for (std::size_t i = 0; i < a.pages.size(); ++i) {
      const PageInfo& x = a.pages[i];
      const PageInfo& y = b.pages[i];
      if (x.size != y.size || x.firstPublish != y.firstPublish ||
          x.modificationInterval != y.modificationInterval ||
          x.numVersions != y.numVersions ||
          x.popularityRank != y.popularityRank ||
          x.popularityClass != y.popularityClass ||
          x.requestCount != y.requestCount) {
        return false;
      }
    }
    return true;
  };
  const auto samePublishes = [&] {
    if (a.publishes.size() != b.publishes.size()) return false;
    for (std::size_t i = 0; i < a.publishes.size(); ++i) {
      const PublishEvent& x = a.publishes[i];
      const PublishEvent& y = b.publishes[i];
      if (x.time != y.time || x.page != y.page || x.version != y.version ||
          x.size != y.size) {
        return false;
      }
    }
    return true;
  };
  const auto sameRequests = [&] {
    if (a.requests.size() != b.requests.size()) return false;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      const RequestEvent& x = a.requests[i];
      const RequestEvent& y = b.requests[i];
      if (x.time != y.time || x.page != y.page || x.proxy != y.proxy ||
          x.notificationDriven != y.notificationDriven) {
        return false;
      }
    }
    return true;
  };
  const auto sameChurn = [&] {
    if (a.churn.size() != b.churn.size()) return false;
    for (std::size_t i = 0; i < a.churn.size(); ++i) {
      const SubscriptionChurnEvent& x = a.churn[i];
      const SubscriptionChurnEvent& y = b.churn[i];
      if (x.time != y.time || x.proxy != y.proxy ||
          x.fromPage != y.fromPage || x.toPage != y.toPage) {
        return false;
      }
    }
    return true;
  };
  return samePages() && samePublishes() && sameRequests() && sameChurn() &&
         a.subOffsets == b.subOffsets && a.subEntries == b.subEntries &&
         a.uniqueBytesRequested == b.uniqueBytesRequested;
}

Workload tracedBuildWorkload(const WorkloadParams& params, Tracer& tracer) {
  Rng master(params.seed);
  Rng publishRng = master.split();
  Rng requestRng = master.split();
  Rng subscriptionRng = master.split();

  Workload w;
  w.params = params;
  {
    Span span(&tracer, tracer.id("workload.publishing"), true);
    PublishingStream publishing = generatePublishing(
        params.publishing, params.request.zipfAlpha,
        params.request.updatedPopularityBias, publishRng);
    w.pages = std::move(publishing.pages);
    w.publishes = std::move(publishing.events);
  }
  {
    Span span(&tracer, tracer.id("workload.requests"), true);
    w.requests = generateRequests(params.request, params.publishing.horizon,
                                  w.pages, requestRng);
  }
  {
    Span span(&tracer, tracer.id("workload.subscriptions"), true);
    SubscriptionTable subs = generateSubscriptions(
        params.subscription, w.requests, w.numPages(), w.numProxies(),
        subscriptionRng);
    w.churn = generateSubscriptionChurn(params.subscription, subs, w.pages,
                                        params.request.zipfAlpha,
                                        params.publishing.horizon,
                                        subscriptionRng);
    w.subOffsets = std::move(subs.offsets);
    w.subEntries = std::move(subs.entries);
  }
  {
    // The rest of buildWorkload: unique bytes requested per proxy.
    Span span(&tracer, tracer.id("workload.finish"), true);
    w.uniqueBytesRequested.assign(w.numProxies(), 0);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(w.requests.size());
    for (const RequestEvent& r : w.requests) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(r.page) << 32) | r.proxy;
      if (seen.insert(key).second) {
        w.uniqueBytesRequested[r.proxy] += w.pages[r.page].size;
      }
    }
  }
  return w;
}

void printSimReference() {
  Options options;
  const Network network = buildNetwork(options.topologySeed);
  for (const SimUnit& unit : {fig4Unit(), news10xUnit()}) {
    const UnitRun run = runUnit(unit, options, network);
    for (std::size_t i = 0; i < unit.cells.size(); ++i) {
      const CellResult r = summarize(run.metrics[i]);
      std::printf(
          "    {\"%s\", {%llu, %llu, %llu, %llu, %llu, %llu, %llu}},\n",
          referenceName(unit, unit.cells[i]).c_str(),
          (unsigned long long)r.requests, (unsigned long long)r.hits,
          (unsigned long long)r.staleMisses, (unsigned long long)r.pushPages,
          (unsigned long long)r.pushBytes, (unsigned long long)r.fetchPages,
          (unsigned long long)r.fetchBytes);
    }
  }
}

void runSimWorkload(const Options& options, Report& report) {
  const SimUnit unit = news10xUnit();

  // Set-up is the overlay build, a fraction of a millisecond. It is timed
  // in bursts of about 40 ms, one before the run and one before every
  // measured unit, and reported as the median over all bursts: on a VM
  // the build's time drifts by a third within seconds, so bursts spread
  // over the run give a steadier median than one burst at its start.
  std::vector<double> setup;
  const auto timeSetup = [&] {
    const double start = nowSeconds();
    for (int i = 0; i < 5 || nowSeconds() - start < 0.04; ++i) {
      const double t0 = nowSeconds();
      const Network probe = buildNetwork(options.topologySeed);
      setup.push_back(nowSeconds() - t0);
      report.check(probe.numProxies() == kProxies, "network: wrong proxy count");
    }
  };
  timeSetup();
  const Network network = buildNetwork(options.topologySeed);
  checkReference(fig4Unit(), network, report);
  checkReference(unit, network, report);
  if (!report.correct) return;

  if (!options.trace) {
    std::vector<double> throughput;
    // Every unit's wall time in one block: a run has only a few.
    LatencyRecorder latencyUs(std::numeric_limits<std::size_t>::max());
    const double deadline = nowSeconds() + options.seconds;
    UnitRun first;
    do {
      timeSetup();
      UnitRun run = runUnit(unit, options, network);
      checkUnit(run, throughput.empty() ? nullptr : &first, unit, report);
      throughput.push_back(double(run.events) / run.seconds);
      latencyUs.add(run.seconds * 1e6);
      report.attempted += run.events;
      // Keep only the first run's metrics, so peak RSS is one run's.
      run.workloads = {};
      if (throughput.size() == 1) first = std::move(run);
    } while (nowSeconds() < deadline);

    // A sample is the wall time of one unit, what a pscd_sim user waits
    // for.
    reportEndToEnd(report, setup, throughput, latencyUs, peakRssMb());
    return;
  }

  // Traced run: pairs of the same unit, once untraced (the reference for
  // the equality checks and the overhead) and once through the replicas,
  // until the time budget is spent. Layer times are means per span.
  Tracer tracer;
  std::vector<Workload> workloads;
  std::vector<SimMetrics> metrics;
  double plainSeconds = 0.0, tracedSeconds = 0.0;
  const double deadline = nowSeconds() + options.seconds;
  do {
    workloads.clear();
    metrics.clear();
    const UnitRun plain = runUnit(unit, options, network);
    checkUnit(plain, nullptr, unit, report);
    report.attempted += plain.events;
    plainSeconds += plain.seconds;

    const double tracedStart = nowSeconds();
    for (const TraceKind trace : unit.traces) {
      workloads.push_back(tracedBuildWorkload(
          traceWorkloadParams(trace, options.seed, unit.requestMultiplier),
          tracer));
    }
    for (const Cell& cell : unit.cells) {
      metrics.push_back(tracedSimulate(workloadOf(workloads, unit, cell.trace),
                                       network, cellConfig(cell), tracer));
    }
    tracedSeconds += nowSeconds() - tracedStart;
    {
      Span span(&tracer, tracer.id("topology.network"), true);
      report.check(buildNetwork(options.topologySeed).numProxies() == kProxies,
                   "network: wrong proxy count");
    }
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      report.check(sameWorkload(workloads[i], plain.workloads[i]),
                   "traced workload generation differs from buildWorkload");
    }
    for (std::size_t i = 0; i < unit.cells.size(); ++i) {
      report.check(sameMetrics(metrics[i], plain.metrics[i], kProxies),
                   unit.cells[i].name() +
                       ": traced replica differs from Simulator::run");
    }
  } while (nowSeconds() < deadline);

  // The unit's own cells give the cache and fan-out ratios; every
  // figure-4 strategy missing from the unit is probed on its first trace.
  PerLayer layer;
  StrategyHits strategyHits;
  std::uint64_t requests = 0, fetchBytes = 0, pushPages = 0, publishes = 0;
  for (std::size_t i = 0; i < unit.cells.size(); ++i) {
    const CellResult r = summarize(metrics[i]);
    auto& [hits, reqs] =
        strategyHits[spanStrategyName(unit.cells[i].strategy)];
    hits += r.hits;
    reqs += r.requests;
    requests += r.requests;
    fetchBytes += r.fetchBytes;
    pushPages += r.pushPages;
    publishes += workloadOf(workloads, unit, unit.cells[i].trace).publishes.size();
  }
  layer.set("pubsub.pushes_per_publish", double(pushPages) / double(publishes));
  layer.set("cache.fetch_bytes_per_request",
            double(fetchBytes) / double(requests));
  layer.set("trace.overhead_frac", tracedSeconds / plainSeconds - 1.0);
  probeStrategies(workloads.front(), unit.traces.front(), network, tracer,
                  strategyHits);
  setSimLayers(tracer, strategyHits, layer);
  double materialized = 0.0;
  for (const Workload& w : workloads) materialized += materializedMb(w);
  layer.set("workload.events", double(eventCount(workloads.front())));
  layer.set("workload.materialized_mb",
            materialized / double(workloads.size()));
  probeServeLayers(workloads.front(), options, tracer, layer, report);
  tracer.dump();
  reportPerLayer(report, layer);
}

}  // namespace perfbench
