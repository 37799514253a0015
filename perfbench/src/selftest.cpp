// Fast checks of the benchmark's own machinery (pscd_perfbench
// --selftest): the Poisson schedule is a function of its seed, latency
// blocks count failed ops as over every percentile, and the pipelined
// generator answers every sequence number exactly once.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

void checkSchedule(Report& report) {
  const std::vector<double> a = poissonSchedule(50000.0, 0.2, 7);
  const std::vector<double> b = poissonSchedule(50000.0, 0.2, 7);
  const std::vector<double> c = poissonSchedule(50000.0, 0.2, 8);
  report.check(a == b, "schedule: same seed gave different arrivals");
  report.check(a != c, "schedule: different seeds gave the same arrivals");
  bool sorted = true;
  for (std::size_t i = 1; i < a.size(); ++i) sorted &= a[i - 1] <= a[i];
  report.check(sorted && !a.empty() && a.back() < 0.2,
               "schedule: arrivals unsorted or outside the phase");
  report.check(std::fabs(double(a.size()) - 10000.0) < 500.0,
               "schedule: arrival count far from rate x duration");
}

void checkRecorder(Report& report) {
  constexpr double kFailed = std::numeric_limits<double>::infinity();
  LatencyRecorder a(100);
  for (int i = 1; i <= 250; ++i) a.add(double(i));
  // Blocks 1-100 and 101-200; 201-250 is still partial.
  report.check(a.fullBlocks() == 2 && a.all().count() == 250,
               "recorder: wrong block or sample count");
  report.check(a.p50Us() == 100.0 && a.p99Us() == 149.0,
               "recorder: block percentiles are not the medians over blocks");
  // Two failed ops in a block of 100 put its p99 over any limit,
  // although every answered op was fast.
  LatencyRecorder b(100);
  for (int i = 0; i < 300; ++i) b.add(i % 100 < 2 ? kFailed : 10.0);
  report.check(b.p50Us() == 10.0 && b.p99Us() == kFailed,
               "recorder: failed ops were not counted as over p99");
  a.merge(b);
  report.check(a.fullBlocks() == 5 && a.all().count() == 550,
               "recorder: merge lost blocks or samples");
  LatencyRecorder partial(1000);
  for (int i = 1; i <= 10; ++i) partial.add(double(i));
  report.check(partial.fullBlocks() == 0 && partial.p99Us() == 10.0,
               "recorder: no full block did not fall back to the samples");
}

}  // namespace

int runSelfTest() {
  Report report;
  checkSchedule(report);
  checkRecorder(report);
  checkGenerator(report);
  for (const std::string& f : report.failures) {
    std::printf("selftest FAILED: %s\n", f.c_str());
  }
  std::printf("selftest: %s\n", report.correct ? "ok" : "FAILED");
  return static_cast<int>(report.failures.size());
}

}  // namespace perfbench
