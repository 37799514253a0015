#include "pscd/sim/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pscd/sim/simulator.h"
#include "pscd/util/thread_pool.h"

namespace pscd {
namespace {

TEST(ExperimentTest, TraceNames) {
  EXPECT_EQ(traceName(TraceKind::kNews), "NEWS");
  EXPECT_EQ(traceName(TraceKind::kAlternative), "ALTERNATIVE");
}

TEST(ExperimentTest, TraceParamsCarryAlphaAndQuality) {
  const auto news = traceParams(TraceKind::kNews, 0.5);
  EXPECT_DOUBLE_EQ(news.request.zipfAlpha, 1.5);
  EXPECT_DOUBLE_EQ(news.subscription.quality, 0.5);
  const auto alt = traceParams(TraceKind::kAlternative, 1.0);
  EXPECT_DOUBLE_EQ(alt.request.zipfAlpha, 1.0);
}

TEST(ExperimentTest, PaperBetaRules) {
  // NEWS: beta = 2 for the GD*-based methods.
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kGDStar, TraceKind::kNews, 0.05),
                   2.0);
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kSG1, TraceKind::kNews, 0.01),
                   2.0);
  // ALTERNATIVE: SG2 always 0.5; others 1 at 1% and 2 at 5%/10%.
  EXPECT_DOUBLE_EQ(
      paperBeta(StrategyKind::kSG2, TraceKind::kAlternative, 0.05), 0.5);
  EXPECT_DOUBLE_EQ(
      paperBeta(StrategyKind::kGDStar, TraceKind::kAlternative, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(
      paperBeta(StrategyKind::kGDStar, TraceKind::kAlternative, 0.10), 2.0);
  // Strategies without a beta parameter.
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kSUB, TraceKind::kNews, 0.05),
                   1.0);
  EXPECT_DOUBLE_EQ(paperBeta(StrategyKind::kSR, TraceKind::kAlternative, 0.05),
                   1.0);
}

TEST(ExperimentTest, WorkloadsMemoized) {
  ExperimentContext ctx;
  const Workload& a = ctx.workload(TraceKind::kNews, 1.0);
  const Workload& b = ctx.workload(TraceKind::kNews, 1.0);
  EXPECT_EQ(&a, &b);
  const Workload& c = ctx.workload(TraceKind::kNews, 0.5);
  EXPECT_NE(&a, &c);
}

TEST(ExperimentTest, NetworkMemoized) {
  ExperimentContext ctx;
  EXPECT_EQ(&ctx.network(), &ctx.network());
  EXPECT_EQ(ctx.network().numProxies(), 100u);
}

TEST(CellSeedTest, DeterministicAndDistinctPerIndex) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = cellSeed(42, i);
    EXPECT_EQ(s, cellSeed(42, i));
    seeds.insert(s);
  }
  // SplitMix64 derivation: no collisions across a realistic cell count.
  EXPECT_EQ(seeds.size(), 1000u);
  // Different base seeds give different streams.
  EXPECT_NE(cellSeed(42, 0), cellSeed(43, 0));
}

// Small but non-trivial cell grid: a fig4-style slice (2 strategies x
// 2 capacities) plus one explicit-beta cell.
std::vector<ExperimentCell> smallGrid() {
  std::vector<ExperimentCell> cells;
  for (const StrategyKind kind : {StrategyKind::kGDStar, StrategyKind::kSG2}) {
    for (const double cap : {0.05, 0.10}) {
      cells.push_back({TraceKind::kNews, 1.0, kind, cap});
    }
  }
  cells.push_back({.trace = TraceKind::kNews,
                   .subscriptionQuality = 0.6,
                   .strategy = StrategyKind::kSG1,
                   .beta = 2.0});
  return cells;
}

// Runs every cell through ctx.run() on `jobs` workers (inline, in order,
// when jobs = 1), as a bench's first phase does.
void runOnWorkers(ExperimentContext& ctx,
                  const std::vector<ExperimentCell>& cells, unsigned jobs) {
  std::vector<std::function<void()>> tasks;
  for (const ExperimentCell& cell : cells) {
    tasks.push_back([&ctx, &cell] { ctx.run(cell); });
  }
  if (jobs <= 1) {
    runAll(nullptr, std::move(tasks));
    return;
  }
  ThreadPool pool(jobs);
  runAll(&pool, std::move(tasks));
}

// Every observable counter of a run, as one comparable string.
std::string fingerprint(const SimMetrics& m) {
  std::ostringstream out;
  out.precision(17);
  out << m.requests() << ',' << m.hits() << ',' << m.staleMisses() << ','
      << m.staleServes() << ',' << m.failovers() << ','
      << m.unavailableRequests() << ',' << m.totalRetries() << ','
      << m.meanResponseTime() << ',' << m.traffic().pushPages << ','
      << m.traffic().fetchPages << ',' << m.traffic().lostPushPages;
  return out.str();
}

// Runs the grid on `jobs` workers, then renders every cell's metrics as
// CSV text from the memo, exactly as a bench's export phase would.
// Byte-comparing two of these is the determinism check: any
// scheduling-dependent result would change the string.
std::string runGrid(std::uint64_t workloadSeed, unsigned jobs) {
  ExperimentContext ctx(workloadSeed, 7, /*scale=*/0.05);
  const std::vector<ExperimentCell> cells = smallGrid();
  runOnWorkers(ctx, cells, jobs);
  std::ostringstream csv;
  csv << "cell,metrics\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    csv << i << ',' << fingerprint(ctx.run(cells[i])) << '\n';
  }
  return csv.str();
}

TEST(ExperimentContextTest, SerialAndParallelCsvByteIdentical) {
  // Across 3 workload seeds, jobs = 1 and jobs = 4 produce
  // byte-identical CSV renderings.
  for (const std::uint64_t seed : {42ull, 123ull, 20260806ull}) {
    const std::string serial = runGrid(seed, 1);
    const std::string parallel = runGrid(seed, 4);
    EXPECT_EQ(serial, parallel) << "seed " << seed;
    EXPECT_NE(serial.find("cell,metrics"), std::string::npos);
  }
}

TEST(ExperimentContextTest, RepeatedParallelRunsAreStable) {
  // Same seed, same jobs, two separate contexts: thread interleavings
  // must not leak into the results.
  EXPECT_EQ(runGrid(42, 4), runGrid(42, 4));
}

// The SimConfig a cell describes, with its beta already resolved.
SimConfig configOf(const ExperimentCell& cell) {
  SimConfig config;
  config.strategy = cell.strategy;
  config.beta = cell.beta ? *cell.beta
                          : paperBeta(cell.strategy, cell.trace,
                                      cell.capacityFraction);
  config.capacityFraction = cell.capacityFraction;
  config.pushScheme = cell.scheme;
  config.collectHourly = cell.collectHourly;
  config.faults = cell.faults;
  return config;
}

SimMetrics runDirect(ExperimentContext& ctx, const ExperimentCell& cell) {
  Simulator sim(ctx.workload(cell.trace, cell.subscriptionQuality),
                ctx.network(), configOf(cell));
  return sim.run();
}

TEST(ExperimentContextTest, ResultEqualsADirectSimulatorRun) {
  ExperimentContext ctx(42, 7, 0.05);
  const std::vector<ExperimentCell> cells = smallGrid();
  runOnWorkers(ctx, cells, 4);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(fingerprint(ctx.run(cells[i])),
              fingerprint(runDirect(ctx, cells[i])))
        << "cell " << i;
  }
}

TEST(ExperimentContextTest, ConcurrentCellsShareMemoizedWorkload) {
  // All cells pull the same workload/network through the context's
  // guarded memo; the pointer identity proves they shared one build.
  ExperimentContext ctx(42, 7, 0.05);
  runOnWorkers(ctx, smallGrid(), 4);
  const Workload* w = &ctx.workload(TraceKind::kNews, 1.0);
  EXPECT_EQ(w, &ctx.workload(TraceKind::kNews, 1.0));
}

TEST(ExperimentCellTest, EveryFaultConfigFieldIsPartOfTheMemoKey) {
  // Base: every failure process active, so each field below changes the
  // run. The base cell is memoized first; a perturbed cell that shared
  // its memo entry would return the base metrics instead of its own.
  ExperimentCell base{TraceKind::kNews, 1.0, StrategyKind::kSG2, 0.05};
  base.faults.seed = 1303;
  base.faults.proxyFailuresPerDay = 1.0;
  base.faults.proxyMeanDowntimeHours = 2.0;
  base.faults.linkFailuresPerDay = 0.5;
  base.faults.linkMeanDowntimeHours = 1.0;
  base.faults.pushLossProbability = 0.05;
  base.faults.fetchFailureProbability = 0.2;
  ExperimentContext ctx(42, 7, 0.01);
  const std::string baseRun = fingerprint(ctx.run(base));

  const std::vector<
      std::pair<const char*, std::function<void(FaultConfig&)>>>
      perturbations = {
          {"seed", [](FaultConfig& f) { f.seed = 1304; }},
          {"proxyFailuresPerDay",
           [](FaultConfig& f) { f.proxyFailuresPerDay = 2.0; }},
          {"proxyMeanDowntimeHours",
           [](FaultConfig& f) { f.proxyMeanDowntimeHours = 6.0; }},
          {"warmRestart", [](FaultConfig& f) { f.warmRestart = true; }},
          {"linkFailuresPerDay",
           [](FaultConfig& f) { f.linkFailuresPerDay = 1.0; }},
          {"linkMeanDowntimeHours",
           [](FaultConfig& f) { f.linkMeanDowntimeHours = 3.0; }},
          {"pushLossProbability",
           [](FaultConfig& f) { f.pushLossProbability = 0.3; }},
          {"fetchFailureProbability",
           [](FaultConfig& f) { f.fetchFailureProbability = 0.5; }},
          {"publisherFailover",
           [](FaultConfig& f) { f.publisherFailover = false; }},
          {"retry.maxRetries", [](FaultConfig& f) { f.retry.maxRetries = 0; }},
          {"retry.backoffBaseMs",
           [](FaultConfig& f) { f.retry.backoffBaseMs = 500.0; }},
          {"retry.backoffFactor",
           [](FaultConfig& f) { f.retry.backoffFactor = 4.0; }},
      };
  for (const auto& [field, perturb] : perturbations) {
    ExperimentCell cell = base;
    perturb(cell.faults);
    const std::string direct = fingerprint(runDirect(ctx, cell));
    // The perturbation is visible in the metrics...
    EXPECT_NE(direct, baseRun) << field;
    // ...and the context answers with the perturbed run, not the base's.
    EXPECT_EQ(fingerprint(ctx.run(cell)), direct) << field;
  }
}

}  // namespace
}  // namespace pscd
