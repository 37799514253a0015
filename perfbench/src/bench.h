// The benchmark's workloads. Each takes the generated-input seeds and a
// time budget, runs against the pscd library's public entry points, and
// fills a Report: end-to-end metrics on an untraced run, per-layer
// metrics (from Tracer spans taken around calls into each layer) on a
// traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pscd/sim/experiment.h"
#include "pscd/topology/network.h"
#include "pscd/workload/workload.h"
#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  /// Workload seed (the paper's is 42); the program sees only the inputs
  /// generated from it.
  std::uint64_t seed = 42;
  /// Overlay topology seed: the paper's, fixed.
  std::uint64_t topologySeed = 7;
  double seconds = 10.0;
  bool trace = false;
};

/// Per-layer readings of a traced run, by metric name; an unset metric is
/// reported as 0.
class PerLayer {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Span/metric suffixes of the figure-4 strategies ("GD*" is "GDstar").
const std::vector<std::string>& spanStrategyNames();

/// Adds every end-to-end metric (see BENCHMARK.json) to the report:
/// setup_s is the median of its samples and latency_p50_us comes from
/// `latency` (see LatencyRecorder). The median throughput, the p99 from
/// `latency`, and the p50, p99 and highest percentile with ten samples
/// beyond it over all samples go beside them as diagnostics.
void reportEndToEnd(Report& report, const std::vector<double>& setupSeconds,
                    const std::vector<double>& throughputPerSecond,
                    const LatencyRecorder& latency, double peakRss);

/// Adds every per-layer metric (see BENCHMARK.json) to the report.
void reportPerLayer(Report& report, const PerLayer& layer);

/// buildWorkload, one generator call at a time in its RNG-split order,
/// with a span around each of the four generators and the final pass.
pscd::Workload tracedBuildWorkload(const pscd::WorkloadParams& params,
                                   Tracer& tracer);

/// Field-by-field equality of two generated workloads.
bool sameWorkload(const pscd::Workload& a, const pscd::Workload& b);

/// Bytes held by the workload's vectors (sizes x element sizes), in MB.
double materializedMb(const pscd::Workload& w);

/// Publish, request and churn events of a workload.
std::uint64_t eventCount(const pscd::Workload& w);

/// Hits and requests per figure-4 strategy, by span-name suffix.
using StrategyHits =
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>;

/// Replays `w` (a `trace` trace) at 5% capacity through the traced
/// simulator replica for every figure-4 strategy `hits` has no entry for,
/// and adds their hits and requests, so every workload's traced run
/// reports every strategy's per-event cost on its own trace.
void probeStrategies(const pscd::Workload& w, pscd::TraceKind trace,
                     const pscd::Network& network, Tracer& tracer,
                     StrategyHits& hits);

/// Sets the workload, topology, sim, core and pubsub.subscribe metrics
/// (means per span) from the tracer, and the per-strategy hit ratios.
void setSimLayers(const Tracer& tracer, const StrategyHits& hits,
                  PerLayer& layer);

/// The serving-side layers for a simulator workload's trace `w`: a
/// ServeHost on it, Poisson arrivals at 50k ops/s for a short phase
/// (daemon, generator and transport metrics), then an in-process pass
/// over a prefix of the trace (service and codec metrics).
void probeServeLayers(const pscd::Workload& w, const Options& options,
                      Tracer& tracer, PerLayer& layer, Report& report);

/// sim-news-10x.
void runSimWorkload(const Options& options, Report& report);

/// serve-closed.
void runServeWorkload(const Options& options, Report& report);

/// Prints the seed-42/topology-7 reference results in the syntax of
/// reference.inc.
void printSimReference();

/// Checks of the benchmark's own machinery; returns the failure count.
int runSelfTest();

// --- pieces shared with the self-test -------------------------------

/// Open-loop arrival offsets (seconds from phase start): Poisson at
/// `rate` ops/s over `seconds`, deterministic in `seed`.
std::vector<double> poissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

/// Drives the pipelined generator against a small in-process host and
/// checks that every seq is answered exactly once, the trace wraps with
/// rising versions, and the daemon's books match the generator's.
void checkGenerator(Report& report);

}  // namespace perfbench
