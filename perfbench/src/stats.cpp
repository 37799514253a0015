#include "stats.h"

#include <cstdlib>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentileSorted(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(values.size()))) -
      1;
  return values[index];
}

void LatencyRecorder::add(double us) {
  all_.record(us * 1e-6);
  block_.push_back(us);
  if (block_.size() < blockSize_) return;
  p50s_.push_back(percentileSorted(block_, 50.0));
  p99s_.push_back(percentileSorted(block_, 99.0));
  block_.clear();
}

void LatencyRecorder::merge(const LatencyRecorder& other) {
  all_.merge(other.all_);
  p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
  p99s_.insert(p99s_.end(), other.p99s_.begin(), other.p99s_.end());
}

double LatencyRecorder::p50Us() const {
  if (!p50s_.empty()) return median(p50s_);
  std::vector<double> partial = block_;
  return percentileSorted(partial, 50.0);
}

double LatencyRecorder::p99Us() const {
  if (!p99s_.empty()) return median(p99s_);
  std::vector<double> partial = block_;
  return percentileSorted(partial, 99.0);
}

double highestResolvedPercentile(std::size_t n) {
  double best = 0.0;
  for (const double q : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) best = q;
  }
  return best;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int currentTid() { return static_cast<int>(::syscall(SYS_gettid)); }

HostTicks readHostTicks() {
  // "cpu user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::int64_t field[8] = {};
  in >> cpu;
  for (std::int64_t& f : field) in >> f;
  HostTicks ticks;
  ticks.steal = field[7];
  for (const std::int64_t f : field) ticks.total += f;
  return ticks;
}



ThreadCpu readThreadCpu(int tid) {
  ThreadCpu cpu;
  const std::string dir = "/proc/self/task/" + std::to_string(tid) + "/";
  {
    std::ifstream in(dir + "schedstat");
    in >> cpu.runNs;
  }
  {
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    std::ifstream in(dir + "stat");
    std::string line;
    std::getline(in, line);
    const auto close = line.rfind(')');
    if (close != std::string::npos) {
      std::istringstream rest(line.substr(close + 2));
      std::string field;
      for (int i = 3; i <= 15 && rest >> field; ++i) {
        if (i == 14) cpu.userTicks = std::stoll(field);
        if (i == 15) cpu.systemTicks = std::stoll(field);
      }
    }
  }
  {
    std::ifstream in(dir + "status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0 ||
          line.rfind("nonvoluntary_ctxt_switches:", 0) == 0) {
        cpu.contextSwitches += std::stoll(line.substr(line.find(':') + 1));
      }
    }
  }
  return cpu;
}

Tracer::Id Tracer::id(const std::string& name) {
  for (Id i = 0; i < accs_.size(); ++i) {
    if (accs_[i].name == name) return i;
  }
  accs_.push_back(Acc{name});
  return accs_.size() - 1;
}

void Tracer::end() {
  const std::int64_t t = nowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t - open.start;
  Acc& acc = accs_[open.id];
  ++acc.count;
  acc.totalNs += duration;
  acc.selfNs += duration - open.childNs;
  if (!stack_.empty()) stack_.back().childNs += duration;
  if (open.keep) {
    kept_.push_back(Kept{open.id, open.start, t});
  }
}

const Tracer::Acc* Tracer::find(const std::string& name) const {
  for (const Acc& acc : accs_) {
    if (acc.name == name) return &acc;
  }
  return nullptr;
}

double Tracer::meanSeconds(const std::string& name) const {
  const Acc* acc = find(name);
  return acc == nullptr || acc->count == 0
             ? 0.0
             : static_cast<double>(acc->totalNs) * 1e-9 /
                   static_cast<double>(acc->count);
}

double Tracer::meanSelfNs(const std::string& name) const {
  const Acc* acc = find(name);
  return acc == nullptr || acc->count == 0
             ? 0.0
             : static_cast<double>(acc->selfNs) /
                   static_cast<double>(acc->count);
}

void Tracer::dump() const {
  std::printf("trace: %-34s %12s %14s %14s\n", "span", "count", "total_s",
              "self_s");
  for (const Acc& acc : accs_) {
    std::printf("trace: %-34s %12llu %14.6f %14.6f\n", acc.name.c_str(),
                static_cast<unsigned long long>(acc.count),
                static_cast<double>(acc.totalNs) * 1e-9,
                static_cast<double>(acc.selfNs) * 1e-9);
  }
  // Kept spans close innermost first; a span's parent is the nearest
  // kept span that encloses it.
  const std::int64_t origin = kept_.empty() ? 0 : [&] {
    std::int64_t first = kept_.front().start;
    for (const Kept& k : kept_) first = std::min(first, k.start);
    return first;
  }();
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    const char* parent = "-";
    std::int64_t parentLen = 0;
    for (const Kept& p : kept_) {
      if (&p != &k && p.start <= k.start && k.end <= p.end &&
          (parentLen == 0 || p.end - p.start < parentLen)) {
        parent = accs_[p.id].name.c_str();
        parentLen = p.end - p.start;
      }
    }
    std::printf("span: %s start_ms=%.3f dur_ms=%.3f parent=%s\n",
                accs_[k.id].name.c_str(),
                static_cast<double>(k.start - origin) * 1e-6,
                static_cast<double>(k.end - k.start) * 1e-6, parent);
  }
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  metrics.push_back(Metric{name, value, unit, samples});
}

void Report::diagnostic(const std::string& name, double value,
                        const std::string& unit, std::uint64_t samples) {
  diagnostics.push_back(Metric{name, value, unit, samples});
}

namespace {

std::string jsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

void Report::print() const {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %18.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const Metric& m : diagnostics) {
    std::printf("diag   %-36s %18.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  if (correct) {
    bool first = true;
    for (const Metric& m : metrics) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
