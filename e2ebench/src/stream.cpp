// sim_stream: host time of the BabelStream cycle through every model
// embedding (the nine routes of bench::stream_benchmarks_for(NVIDIA)) at a
// large size, where the kernel bodies and the fork-join pool dominate.
// Every cycle is verified, and each
// kernel's simulated time must equal the one its route's warm-up cycle
// produced — host-time work never moves simulated time.

#include <cctype>
#include <cmath>
#include <map>

#include "bench_support/stream.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using mcmm::bench::StreamBenchmark;
using mcmm::bench::StreamKernel;

constexpr StreamKernel kCycle[5] = {StreamKernel::Copy, StreamKernel::Mul,
                                    StreamKernel::Add, StreamKernel::Triad,
                                    StreamKernel::Dot};

/// "SYCL(DPC++)" -> "sycl", "HIP(CUDA backend)" -> "hip".
std::string model_of(const std::string& label) {
  std::string m;
  for (char c : label.substr(0, label.find('('))) {
    m += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return m;
}

double call(StreamBenchmark& b, int k, double& dot) {
  switch (kCycle[k]) {
    case StreamKernel::Copy:
      b.copy();
      break;
    case StreamKernel::Mul:
      b.mul();
      break;
    case StreamKernel::Add:
      b.add();
      break;
    case StreamKernel::Triad:
      b.triad();
      break;
    default:
      dot = b.dot();
      break;
  }
  return b.simulated_time_us();
}

/// True when a kernel's simulated duration equals the reference. Both are
/// differences of the route's accumulated double clock, so they can differ
/// by the rounding of that clock and nothing else: a few ulps of `clock`.
bool same_sim(double d, double ref, double clock) {
  const double ulp = std::nextafter(clock, INFINITY) - clock;
  return std::fabs(d - ref) <= 4 * ulp;
}

/// One route's cycle with each kernel's simulated duration.
void cycle(StreamBenchmark& b, double sim_us[5], double& dot) {
  double t = b.simulated_time_us();
  for (int k = 0; k < 5; ++k) {
    const double t1 = call(b, k, dot);
    sim_us[k] = t1 - t;
    t = t1;
  }
}

struct StreamRun {
  std::vector<double> setup_s;   ///< alloc + init, per route
  std::vector<double> call_us;   ///< host us of every kernel call
  std::vector<double> triad_us;  ///< host us of every Triad call
  double calls{0}, time{0}, bytes{0};
  std::map<std::string, std::pair<double, double>> model_triad;  ///< B, s
};

bool verify(StreamBenchmark& b, std::size_t n, double dot, int cycles) {
  std::vector<double> a(n), bb(n), c(n);
  b.read_arrays(a, bb, c);
  return mcmm::bench::verify_stream(a, bb, c, dot, n, cycles);
}

/// The cycle over all nine routes at size n, one route alive at a time, in
/// a seeded route order, for about `seconds` of measured calls in total
/// (at least three cycles per route). Every call is timed on its own.
StreamRun measure(std::size_t n, double seconds, std::uint64_t seed,
                Outcome& out) {
  constexpr int kSegment = 400;  // cycles between re-init + verify
  StreamRun run;
  auto routes = mcmm::bench::stream_benchmarks_for(mcmm::Vendor::NVIDIA);
  out.check(routes.size() == 9, "nine NVIDIA stream routes");
  std::vector<std::size_t> order(routes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  const double per_route = seconds / static_cast<double>(routes.size());
  for (const std::size_t r : order) {
    StreamBenchmark& b = *routes[r];
    const std::string label = b.label();
    const std::string model = model_of(label);
    const auto t0 = Clock::now();
    b.alloc(n);
    b.init_arrays();
    run.setup_s.push_back(seconds_since(t0));
    double ref[5], dot = 0;
    cycle(b, ref, dot);  // warm-up; its simulated times are the reference
    int cycles = 1, measured = 0;
    bool same = true;
    const auto start = Clock::now();
    while (measured < 3 || seconds_since(start) < per_route) {
      double t = b.simulated_time_us();
      for (int k = 0; k < 5; ++k) {
        const auto h0 = Clock::now();
        const double t1 = call(b, k, dot);
        const double host = seconds_since(h0);
        same &= same_sim(t1 - t, ref[k], t1);
        t = t1;
        const double bytes = mcmm::bench::stream_bytes(kCycle[k], n);
        run.call_us.push_back(host * 1e6);
        run.time += host;
        run.bytes += bytes;
        if (kCycle[k] == StreamKernel::Triad) {
          run.triad_us.push_back(host * 1e6);
          run.model_triad[model].first += bytes;
          run.model_triad[model].second += host;
        }
      }
      run.calls += 5;
      ++measured;
      if (++cycles == kSegment) {  // keep the values clear of underflow
        out.check(verify(b, n, dot, cycles), label + " verifies");
        b.init_arrays();
        cycles = 0;
      }
    }
    out.check(same, label + " simulated time equals its warm-up cycle's");
    if (cycles > 0) out.check(verify(b, n, dot, cycles), label + " verifies");
    routes[r].reset();  // frees the arrays before the next route
  }
  return run;
}

Metrics e2e_of(const StreamRun& run) {
  return {{"setup_s", median(run.setup_s)},
          {"ops_per_s", run.calls / run.time},
          {"op_us", median(run.call_us)},
          {"heavy_us", median(run.triad_us)}};
}

void triad_layers(const StreamRun& run, Outcome& out) {
  for (const auto& [m, v] : run.model_triad) {
    out.layers.emplace_back("models." + m + ".triad_gbps", v.first / v.second / 1e9);
  }
}

}  // namespace

Outcome run_sim_stream(const Options& opt) {
  constexpr std::size_t n = kLargeN;
  Outcome out;
  const CpuTicks ticks0 = cpu_ticks();
  const StreamRun run = measure(n, opt.seconds, opt.seed, out);
  const double steal = steal_share(ticks0, cpu_ticks());
  out.e2e = e2e_of(run);
  out.figures = {{"stream_host_gbps", run.bytes / run.time / 1e9},
                 {"call_mean_us", run.time / run.calls * 1e6},
                 {"call_p90_us", quantile(run.call_us, 0.9)},
                 {"triad_p90_us", quantile(run.triad_us, 0.9)},
                 {"n", static_cast<double>(n)},
                 {"calls", run.calls},
                 {"steal_share", steal}};
  if (opt.trace) {
    // Nothing is instrumented on the timed path (the benchmark's own call
    // timers run in both phases); the delta is the run-to-run noise floor.
    const Metrics t = e2e_of(measure(n, opt.seconds, opt.seed, out));
    for (std::size_t i = 1; i < t.size(); ++i) {
      out.overhead.emplace_back(t[i].first, t[i].second / out.e2e[i].second - 1);
    }
    triad_layers(run, out);
  }
  return out;
}

void stream_layer_probe(const Options& opt, Outcome& out) {
  triad_layers(measure(kLargeN, 2.0, opt.seed, out), out);
}

}  // namespace e2e
