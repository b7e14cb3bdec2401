// The flat-kernel seam (pstlx::detail::flat_launch): for_each, transform
// and fill pick their kernel body once per launch, noting every access
// only while a sanitizer is installed. A counting hook table pins both
// halves: with hooks installed every item reports exactly its accesses;
// with hooks removed nothing reaches the seam — and the results agree.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "gpusim/sanitizer.hpp"
#include "models/stdparx/stdparx.hpp"
#include "pstlx/pstlx.hpp"

namespace mcmm {
namespace {

std::atomic<std::size_t> g_reads{0};
std::atomic<std::size_t> g_writes{0};

void count_access(void*, const void*, std::size_t, gpusim::AccessKind kind) {
  (kind == gpusim::AccessKind::Write ? g_writes : g_reads)
      .fetch_add(1, std::memory_order_relaxed);
}

/// Installs the counting table for its lifetime, restoring whatever was
/// installed before (hooks never change while a launch is running).
class CountingHooks {
 public:
  CountingHooks() : prev_(gpusim::sanitizer_hooks()) {
    hooks_.on_device_access = &count_access;
    g_reads = 0;
    g_writes = 0;
    gpusim::install_sanitizer_hooks(&hooks_);
  }
  ~CountingHooks() { gpusim::install_sanitizer_hooks(prev_); }
  CountingHooks(const CountingHooks&) = delete;
  CountingHooks& operator=(const CountingHooks&) = delete;

 private:
  gpusim::SanitizerHooks hooks_;
  const gpusim::SanitizerHooks* prev_;
};

constexpr std::size_t kN = 3000;  // not a multiple of the 256-item block

struct Arrays {
  explicit Arrays(const stdparx::execution_policy& pol)
      : a(pol, kN), b(pol, kN), c(pol, kN) {}
  stdparx::device_vector<double> a, b, c;
};

/// fill a, fill b, c = a + b, then c *= 2 in place.
void run_flat_suite(const stdparx::execution_policy& pol, Arrays& v) {
  pstlx::fill(pol, v.a.begin(), v.a.end(), 1.5);
  pstlx::fill(pol, v.b.begin(), v.b.end(), 2.0);
  pstlx::transform(pol, v.a.begin(), v.a.end(), v.b.begin(), v.c.begin(),
                   [](double x, double y) { return x + y; });
  pstlx::for_each(pol, v.c.begin(), v.c.end(), [](double& x) { x *= 2; });
}

TEST(PstlxFlatLaunch, InstalledHooksSeeEveryAccess) {
  const stdparx::execution_policy pol(Vendor::NVIDIA,
                                      stdparx::Runtime::NVHPC);
  Arrays v(pol);
  const CountingHooks hooks;

  pstlx::fill(pol, v.a.begin(), v.a.end(), 1.5);
  EXPECT_EQ(g_reads.load(), 0u);
  EXPECT_EQ(g_writes.load(), kN);  // one write per item

  pstlx::fill(pol, v.b.begin(), v.b.end(), 2.0);
  g_reads = 0;
  g_writes = 0;
  pstlx::transform(pol, v.a.begin(), v.a.end(), v.b.begin(), v.c.begin(),
                   [](double x, double y) { return x + y; });
  EXPECT_EQ(g_reads.load(), 2 * kN);  // both inputs
  EXPECT_EQ(g_writes.load(), kN);

  g_reads = 0;
  g_writes = 0;
  pstlx::for_each(pol, v.c.begin(), v.c.end(), [](double& x) { x *= 2; });
  EXPECT_EQ(g_reads.load(), kN);  // read-modify-write
  EXPECT_EQ(g_writes.load(), kN);

  g_reads = 0;
  g_writes = 0;
  pstlx::transform(pol, v.c.begin(), v.c.end(), v.a.begin(),
                   [](double x) { return x - 1; });
  EXPECT_EQ(g_reads.load(), kN);
  EXPECT_EQ(g_writes.load(), kN);
}

TEST(PstlxFlatLaunch, UninstalledHooksSeeNothingAndResultsAgree) {
  const stdparx::execution_policy pol(Vendor::NVIDIA,
                                      stdparx::Runtime::NVHPC);
  Arrays noted(pol);
  {
    const CountingHooks hooks;
    run_flat_suite(pol, noted);
    EXPECT_EQ(g_writes.load(), 4 * kN);
  }

  g_reads = 0;
  g_writes = 0;
  Arrays plain(pol);
  const double before = pol.simulated_time_us();
  run_flat_suite(pol, plain);
  EXPECT_EQ(g_reads.load(), 0u);
  EXPECT_EQ(g_writes.load(), 0u);
  EXPECT_GT(pol.simulated_time_us(), before);

  std::vector<double> want(kN);
  std::vector<double> got(kN);
  noted.c.download(want.data(), kN);
  plain.c.download(got.data(), kN);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.front(), 7.0);
}

}  // namespace
}  // namespace mcmm
