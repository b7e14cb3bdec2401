#pragma once
// Shared pieces of the e2ebench binary: clocks, the seeded generator, the
// percentile math every workload reports with, and the outcome record a
// workload hands back to main().

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Cumulative CPU time of the host's view of this machine (/proc/stat, all
/// CPUs, in clock ticks): `steal` is time the hypervisor ran someone else
/// while this VM had work. Zeros where the file is unavailable.
struct CpuTicks {
  double steal{0};
  double total{0};
};

[[nodiscard]] inline CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  double v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {  // user .. steal
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time stolen between two readings.
[[nodiscard]] inline double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const double total = b.total - a.total;
  return total > 0 ? (b.steal - a.steal) / total : 0.0;
}

/// splitmix64: the workload generator. Same seed, same sequence.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Nearest-rank quantile: the smallest sample with at least a q share of
/// the samples at or below it. q in (0, 1]; 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Ordered name -> value list (the order the JSON prints in).
using Metrics = std::vector<std::pair<std::string, double>>;

/// What one workload run hands back: its operation counts (every checked
/// operation, warm-up and probes included), the end-to-end metrics, the
/// per-layer metrics and tracing overhead of a traced run, and the
/// workload's headline figures for the report lines.
struct Outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  Metrics e2e;
  Metrics layers;
  Metrics figures;  ///< headline figures under their conventional names
  Metrics overhead;  ///< traced / untraced - 1, per end-to-end metric

  /// Counts one checked operation; a false `ok` is a failure, logged (the
  /// first few) to stderr with `what`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failed <= 5) std::fprintf(stderr, "e2ebench: FAILED %s\n", what.c_str());
  }
};

/// %.17g: every digit as measured.
[[nodiscard]] inline std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[nodiscard]] inline std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i != 0) out += ',';
    out += '"' + m[i].first + "\":" + num(m[i].second);
  }
  return out + "}";
}

}  // namespace e2e
