// Shared plumbing of the end-to-end benchmark: wall-clock timing, order
// statistics, the in-memory span tracer, /proc readings of one thread,
// and the report that becomes the run's one-line JSON result.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "pscd/net/histogram.h"

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double nowSeconds() { return static_cast<double>(nowNs()) * 1e-9; }

/// Median of a copy of `values` (0 when empty).
double median(std::vector<double> values);

/// Latency samples of one run, in memory that does not grow with the
/// number of samples, so the benchmark's own bookkeeping cannot move
/// peak_rss_mb. Consecutive samples form blocks of `blockSize`; a full
/// block is reduced to its p50 and p99 (two numbers per block). Every
/// sample also goes into a log-bucketed histogram (within 3%) for
/// percentiles over all samples. +infinity stands for a failed op and
/// counts as over any percentile.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t blockSize) : blockSize_(blockSize) {}

  void add(double us);
  /// Adds `other`'s full blocks and histogram; its partial block is
  /// dropped.
  void merge(const LatencyRecorder& other);

  /// Medians over the full blocks of each block's p50 and p99; with no
  /// full block, the percentiles of the partial block.
  double p50Us() const;
  double p99Us() const;
  std::size_t fullBlocks() const { return p50s_.size(); }
  const pscd::net::LatencyHistogram& all() const { return all_; }

 private:
  std::size_t blockSize_;
  std::vector<double> block_;
  std::vector<double> p50s_, p99s_;
  pscd::net::LatencyHistogram all_;
};

/// Nearest-rank percentile q in [0, 100] of `values`, which is sorted in
/// place. +infinity entries stand for failed operations and sort last.
double percentileSorted(std::vector<double>& values, double q);

/// The highest percentile (of 50, 90, 99, 99.9, 99.99) with at least ten
/// samples beyond it, for `n` samples; 0 when none qualifies.
double highestResolvedPercentile(std::size_t n);

/// Peak resident set size of this process, in MB.
double peakRssMb();

struct ThreadCpu {
  std::int64_t runNs = 0;         // /proc/.../schedstat: time on a CPU
  std::int64_t userTicks = 0;     // /proc/.../stat utime
  std::int64_t systemTicks = 0;   // /proc/.../stat stime
  std::int64_t contextSwitches = 0;  // voluntary + nonvoluntary
};

/// Readings of one thread of this process from /proc/self/task/<tid>.
ThreadCpu readThreadCpu(int tid);

/// Kernel thread id of the calling thread.
int currentTid();

struct HostTicks {
  std::int64_t steal = 0;  // time the hypervisor ran something else
  std::int64_t total = 0;  // all CPU time, steal included
};

/// The all-CPU line of /proc/stat: on a VM, steal is time this guest's
/// vCPUs were ready but not running.
HostTicks readHostTicks();



/// Aggregating span tracer. Spans nest on a stack; each closed span adds
/// its duration to its name's total and subtracts it from its parent's
/// self time, so self(name) = total(name) - time covered by children.
/// Spans opened with `keep` are also stored whole (name, start, end,
/// parent) and written out by dump(); per-event spans only aggregate,
/// which keeps a 2M-event trace at a few hundred bytes.
class Tracer {
 public:
  using Id = std::size_t;

  /// Registers (or finds) a span name; ids are stable for the run.
  Id id(const std::string& name);

  void begin(Id id, bool keep = false) {
    stack_.push_back(Open{id, nowNs(), 0, keep});
  }
  void end();

  /// Mean duration per span in seconds (0 when the span never ran).
  double meanSeconds(const std::string& name) const;
  /// Mean self time per span in ns (0 when the span never ran).
  double meanSelfNs(const std::string& name) const;

  /// Writes the aggregate table and the kept spans to stdout.
  void dump() const;

 private:
  struct Open {
    Id id;
    std::int64_t start;
    std::int64_t childNs;
    bool keep;
  };
  struct Acc {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
  };
  struct Kept {
    Id id;
    std::int64_t start;
    std::int64_t end;
  };
  const Acc* find(const std::string& name) const;

  std::vector<Acc> accs_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
};

/// RAII span: Tracer::begin/end around a scope; a null tracer is a no-op.
class Span {
 public:
  Span(Tracer* tracer, Tracer::Id id, bool keep = false) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(id, keep);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// Everything one run reports. Contract metrics go to the final JSON
/// line; diagnostics are printed beside them for a human reader.
struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;

  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  void diagnostic(const std::string& name, double value,
                  const std::string& unit, std::uint64_t samples);

  /// Prints every metric and diagnostic line, then the result JSON as
  /// the last line. A run that failed a check reports no metrics.
  void print() const;
};

}  // namespace perfbench
