// monte_carlo_pi: standard-language parallelism across every platform the
// Standard column of Fig. 1 reaches (items 11, 26, 40). A counter-based
// RNG makes the estimate identical on every route — the "same algorithm,
// pick your vendor" promise of pSTL offloading, including AMD's
// in-development roc-stdpar behind its opt-in gate.

#include <cmath>
#include <iomanip>
#include <iostream>

#include "models/stdparx/stdparx.hpp"
#include "pstlx/pstlx.hpp"

namespace {

/// Counter-based generator (splitmix64): sample i is a pure function of i,
/// so every route draws the same points.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

[[nodiscard]] double to_unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double estimate_pi(const mcmm::stdparx::execution_policy& pol,
                   std::size_t samples) {
  using namespace mcmm;
  stdparx::device_vector<double> hits(pol, samples);
  // pSTL has no index-based loop: recover the sample index from the
  // element address, the std::for_each(par_unseq) idiom.
  pstlx::for_each(pol, hits.begin(), hits.end(),
                  [base = hits.begin()](double& slot) {
                    const auto i = static_cast<std::uint64_t>(&slot - base);
                    const double x = to_unit(splitmix64(2 * i));
                    const double y = to_unit(splitmix64(2 * i + 1));
                    slot = (x * x + y * y <= 1.0) ? 1.0 : 0.0;
                  });
  const double inside = pstlx::reduce(pol, hits.begin(), hits.end(), 0.0);
  return 4.0 * inside / static_cast<double>(samples);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mcmm;
  std::size_t samples = 1 << 20;
  if (argc > 1) samples = static_cast<std::size_t>(std::stoull(argv[1]));

  stdparx::enable_experimental_roc_stdpar(true);

  struct RouteSpec {
    Vendor vendor;
    stdparx::Runtime runtime;
  };
  const RouteSpec routes[] = {
      {Vendor::NVIDIA, stdparx::Runtime::NVHPC},
      {Vendor::Intel, stdparx::Runtime::OneDPL},
      {Vendor::AMD, stdparx::Runtime::RocStdpar},
      {Vendor::NVIDIA, stdparx::Runtime::OpenSYCL},
  };

  std::cout << "Monte Carlo pi, " << samples
            << " samples, counter-based RNG\n\n";
  std::cout << std::fixed << std::setprecision(6);

  double first_estimate = 0.0;
  bool all_identical = true;
  for (const RouteSpec& spec : routes) {
    const auto pol = stdparx::par_gpu(spec.vendor, spec.runtime);
    const double t0 = pol.simulated_time_us();
    const double pi = estimate_pi(pol, samples);
    const double elapsed = pol.simulated_time_us() - t0;
    if (first_estimate == 0.0) first_estimate = pi;
    all_identical = all_identical && pi == first_estimate;
    std::cout << std::left << std::setw(8) << to_string(spec.vendor)
              << std::setw(12) << stdparx::to_string(spec.runtime)
              << " pi = " << pi << "   (" << std::setprecision(1)
              << elapsed << " simulated us)\n"
              << std::setprecision(6);
  }

  stdparx::enable_experimental_roc_stdpar(false);

  const double error = std::fabs(first_estimate - M_PI);
  std::cout << "\nerror vs. pi: " << error << "\n";
  const bool ok = all_identical && error < 0.01;
  std::cout << (ok ? "PASS" : "FAIL")
            << ": every Standard-parallelism route draws the same points "
               "and agrees to the last bit\n";
  return ok ? 0 : 1;
}
