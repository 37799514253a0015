// pscd_perfbench: the end-to-end benchmark's measuring program.
//
//   pscd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   pscd_perfbench --selftest
//   pscd_perfbench --print-reference
//
// Prints one line per metric (name, value, unit, sample count), then the
// result JSON as the last line. Exits 1 when a correctness check fails
// and 2 on a usage error. perfbench/run.py builds and runs it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

std::vector<LayerMetric> perLayerMetrics() {
  std::vector<LayerMetric> list = {
      {"workload.publishing_s", "s"},
      {"workload.requests_s", "s"},
      {"workload.subscriptions_s", "s"},
      {"workload.finish_s", "s"},
      {"workload.events", "count"},
      {"workload.materialized_mb", "MB"},
      {"topology.network_s", "s"},
      {"sim.register_s", "s"},
      {"sim.loop_self_s", "s"},
      {"sim.metrics_ns", "ns"},
      {"pubsub.pushes_per_publish", "count"},
      {"pubsub.subscribe_ns", "ns"},
      {"cache.fetch_bytes_per_request", "B"},
      {"net.encode_ns", "ns"},
      {"net.decode_ns", "ns"},
      {"net.service_ns", "ns"},
      {"net.transport_us", "us"},
      {"net.daemon_cpu_ns_per_op", "ns"},
      {"net.daemon_sys_frac", "frac"},
      {"net.daemon_busy_frac", "frac"},
      {"net.daemon_ctxsw_per_op", "count"},
      {"net.error_responses", "count"},
      {"gen.late_p99_us", "us"},
      {"gen.frames_per_send", "count"},
      {"gen.frames_per_recv", "count"},
      {"gen.busy_frac", "frac"},
      {"trace.overhead_frac", "frac"},
  };
  return list;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pscd_perfbench: %s\nusage: pscd_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\n"
               "       pscd_perfbench --selftest | --print-reference\n",
               why);
  return 2;
}

}  // namespace

double PerLayer::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void reportEndToEnd(Report& report, const std::vector<double>& setupSeconds,
                    const std::vector<double>& throughputPerSecond,
                    const LatencyRecorder& latency, double peakRss) {
  const pscd::net::LatencyHistogram& all = latency.all();
  const std::uint64_t n = all.count();
  report.metric("setup_s", median(setupSeconds), "s", setupSeconds.size());
  report.metric("latency_p50_us", latency.p50Us(), "us", n);
  report.metric("peak_rss_mb", peakRss, "MB", 1);
  // Printed, not bounded: on a shared VM, spells of slow wakeups raise
  // the serve tail and cut closed-loop throughput by a third for a minute
  // at a time while the p50 holds (see README.md).
  report.diagnostic("throughput_per_s", median(throughputPerSecond), "1/s",
                    throughputPerSecond.size());
  report.diagnostic("latency_p99_us", latency.p99Us(), "us", n);
  report.diagnostic("latency_blocks", double(latency.fullBlocks()), "count", 1);
  report.diagnostic("latency_all_p50_us", all.percentile(50.0) * 1e6, "us", n);
  report.diagnostic("latency_all_p99_us", all.percentile(99.0) * 1e6, "us", n);
  const double q = highestResolvedPercentile(n);
  if (q > 0.0) {
    char name[48];
    std::snprintf(name, sizeof name, "latency_all_p%g_us", q);
    report.diagnostic(name, all.percentile(q) * 1e6, "us", n);
  }
  report.diagnostic("op_fail_frac",
                    report.attempted == 0
                        ? 0.0
                        : double(report.failed) / double(report.attempted),
                    "frac", report.attempted);
}

void reportPerLayer(Report& report, const PerLayer& layer) {
  for (const LayerMetric& m : perLayerMetrics()) {
    report.metric(m.name, layer.get(m.name), m.unit, 1);
  }
  for (const std::string& s : spanStrategyNames()) {
    report.metric("core.request_ns." + s, layer.get("core.request_ns." + s),
                  "ns", 1);
    report.metric("core.publish_ns." + s, layer.get("core.publish_ns." + s),
                  "ns", 1);
    report.metric("cache.hit_ratio." + s, layer.get("cache.hit_ratio." + s),
                  "ratio", 1);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return runSelfTest() == 0 ? 0 : 1;
    if (arg == "--print-reference") {
      printSimReference();
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) ||
          !std::isfinite(options.seconds)) {
        return usage("--seconds takes a positive number");
      }
      haveSeconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
      haveTrace = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!haveSeconds || !haveTrace) {
    return usage("--seconds and --trace are required");
  }

  Report report;
  const HostTicks hostBefore = readHostTicks();
  try {
    if (options.workload == "sim-news-10x") {
      runSimWorkload(options, report);
    } else if (options.workload == "serve-closed") {
      runServeWorkload(options, report);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("uncaught exception: ") + e.what());
  }
  // Host interference over the whole run, for judging its figures.
  const HostTicks hostAfter = readHostTicks();
  const std::int64_t ticks =
      std::max<std::int64_t>(hostAfter.total - hostBefore.total, 0);
  report.diagnostic("host_steal_frac",
                    ticks == 0 ? 0.0
                               : double(hostAfter.steal - hostBefore.steal) /
                                     double(ticks),
                    "frac", static_cast<std::uint64_t>(ticks));
  report.print();
  return report.correct ? 0 : 1;
}
