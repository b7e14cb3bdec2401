// Tests of the extension surfaces: Kokkos MDRange, the omp_target_alloc
// routine family, and the additional pSTL algorithms.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "models/kokkosx/kokkosx.hpp"
#include "models/ompx/ompx.hpp"
#include "models/stdparx/stdparx.hpp"
#include "pstlx/pstlx.hpp"
#include "support/rng.hpp"

namespace mcmm {
namespace {

// ------------------------------------------------------- Kokkos MDRange --

TEST(KokkosMDRange, CoversRectangularSpace) {
  kokkosx::Execution exec(kokkosx::ExecSpace::Cuda, Vendor::NVIDIA);
  constexpr std::size_t rows = 37, cols = 21;
  kokkosx::View<int> grid(exec, "grid", rows * cols);
  std::vector<int> host(rows * cols, 0);
  kokkosx::deep_copy_to_device(grid, host.data());
  kokkosx::parallel_for(
      exec, kokkosx::MDRangePolicy2D{0, rows, 0, cols},
      gpusim::KernelCosts{},
      [grid, cols](std::size_t i, std::size_t j) {
        grid(i * cols + j) += 1;
      });
  kokkosx::deep_copy_to_host(host.data(), grid);
  for (const int v : host) ASSERT_EQ(v, 1);
}

TEST(KokkosMDRange, OffsetsRespected) {
  kokkosx::Execution exec(kokkosx::ExecSpace::HIP, Vendor::AMD);
  constexpr std::size_t dim = 10;
  kokkosx::View<int> grid(exec, "grid", dim * dim);
  std::vector<int> host(dim * dim, 0);
  kokkosx::deep_copy_to_device(grid, host.data());
  kokkosx::parallel_for(
      exec, kokkosx::MDRangePolicy2D{2, 5, 3, 7}, gpusim::KernelCosts{},
      [grid](std::size_t i, std::size_t j) { grid(i * dim + j) = 1; });
  kokkosx::deep_copy_to_host(host.data(), grid);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      const bool inside = i >= 2 && i < 5 && j >= 3 && j < 7;
      EXPECT_EQ(host[i * dim + j], inside ? 1 : 0) << i << "," << j;
    }
  }
}

TEST(KokkosMDRange, Reduce2D) {
  kokkosx::Execution exec(kokkosx::ExecSpace::SYCL, Vendor::Intel);
  constexpr std::size_t rows = 16, cols = 16;
  kokkosx::View<double> m(exec, "m", rows * cols);
  std::vector<double> host(rows * cols, 0.5);
  kokkosx::deep_copy_to_device(m, host.data());
  double sum = 0.0;
  kokkosx::parallel_reduce(
      exec, kokkosx::MDRangePolicy2D{0, rows, 0, cols},
      gpusim::KernelCosts{},
      [m, cols](std::size_t i, std::size_t j, double& update) {
        update += m(i * cols + j);
      },
      sum);
  EXPECT_DOUBLE_EQ(sum, 0.5 * rows * cols);
}

// ------------------------------------------------ omp_target_alloc family --

TEST(OmpTargetRoutines, AllocCopyFree) {
  ompx::TargetDevice dev(Vendor::AMD, ompx::Compiler::AOMP);
  void* d = ompx::omp_target_alloc(dev, 256 * sizeof(double));
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(ompx::omp_target_is_present(dev, d));

  std::vector<double> host(256, 3.25);
  EXPECT_EQ(ompx::omp_target_memcpy(dev, d, host.data(),
                                    256 * sizeof(double), true, false),
            0);
  std::vector<double> back(256, 0.0);
  EXPECT_EQ(ompx::omp_target_memcpy(dev, back.data(), d,
                                    256 * sizeof(double), false, true),
            0);
  EXPECT_EQ(back, host);
  ompx::omp_target_free(dev, d);
  EXPECT_FALSE(ompx::omp_target_is_present(dev, d));
}

TEST(OmpTargetRoutines, DeviceToDeviceCopy) {
  ompx::TargetDevice dev(Vendor::Intel, ompx::Compiler::ICPX);
  void* a = ompx::omp_target_alloc(dev, 64);
  void* b = ompx::omp_target_alloc(dev, 64);
  std::vector<char> host(64, 'x');
  ASSERT_EQ(ompx::omp_target_memcpy(dev, a, host.data(), 64, true, false),
            0);
  ASSERT_EQ(ompx::omp_target_memcpy(dev, b, a, 64, true, true), 0);
  std::vector<char> back(64, 0);
  ASSERT_EQ(ompx::omp_target_memcpy(dev, back.data(), b, 64, false, true),
            0);
  EXPECT_EQ(back, host);
  ompx::omp_target_free(dev, a);
  ompx::omp_target_free(dev, b);
}

TEST(OmpTargetRoutines, AllocFailureReturnsNull) {
  ompx::TargetDevice dev(Vendor::NVIDIA, ompx::Compiler::NVHPC);
  EXPECT_EQ(ompx::omp_target_alloc(
                dev, std::size_t{1} << 60),  // absurd request
            nullptr);
}

TEST(OmpTargetRoutines, BadMemcpyReturnsError) {
  ompx::TargetDevice dev(Vendor::NVIDIA, ompx::Compiler::NVHPC);
  std::vector<char> host(64);
  // Claiming a host pointer is a device pointer must fail validation.
  EXPECT_NE(ompx::omp_target_memcpy(dev, host.data(), host.data(), 64, true,
                                    false),
            0);
}

TEST(OmpTargetRoutines, FreeNullIsNoop) {
  ompx::TargetDevice dev(Vendor::NVIDIA, ompx::Compiler::NVHPC);
  ompx::omp_target_free(dev, nullptr);  // must not throw
}

// ------------------------------------------------ extra pSTL algorithms --
// std::count_if, std::iota and std::min/max_element spelled with the pSTL
// algorithms pstlx provides (transform_reduce, for_each, reduce).

/// iota over device memory: for_each recovers the index from the element
/// address (pSTL has no index-based loop).
template <typename T>
void device_iota(const stdparx::execution_policy& pol, T* first, T* last,
                 T start) {
  pstlx::for_each(pol, first, last, [first, start](T& x) {
    x = start + static_cast<T>(&x - first);
  });
}

template <typename T, typename Pred>
std::size_t device_count_if(const stdparx::execution_policy& pol,
                            const T* first, const T* last, Pred pred) {
  return pstlx::transform_reduce(
      pol, first, last, std::size_t{0},
      [pred](const T& x) -> std::size_t { return pred(x) ? 1 : 0; });
}

TEST(StdparExtensions, CountIf) {
  const auto pol = stdparx::par_gpu(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
  constexpr std::size_t n = 10000;
  stdparx::device_vector<int> v(pol, n);
  device_iota(pol, v.begin(), v.end(), 0);
  const std::size_t evens = device_count_if(
      pol, v.begin(), v.end(), [](int x) { return x % 2 == 0; });
  EXPECT_EQ(evens, n / 2);
}

TEST(StdparExtensions, Iota) {
  const auto pol = stdparx::par_gpu(Vendor::Intel, stdparx::Runtime::OneDPL);
  constexpr std::size_t n = 500;
  stdparx::device_vector<long> v(pol, n);
  device_iota(pol, v.begin(), v.end(), 10L);
  std::vector<long> host(n);
  v.download(host.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(host[i], static_cast<long>(10 + i));
  }
}

TEST(StdparExtensions, InclusiveScan) {
  const auto pol = stdparx::par_gpu(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
  constexpr std::size_t n = 1234;
  stdparx::device_vector<long> in(pol, n);
  stdparx::device_vector<long> out(pol, n);
  pstlx::fill(pol, in.begin(), in.end(), 2L);
  pstlx::inclusive_scan(pol, in.begin(), in.end(), out.begin());
  std::vector<long> host(n);
  out.download(host.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(host[i], static_cast<long>(2 * (i + 1))) << i;
  }
}

TEST(StdparExtensions, InclusiveScanNonUniform) {
  const auto pol =
      stdparx::par_gpu(Vendor::AMD, stdparx::Runtime::OpenSYCL);
  constexpr std::size_t n = 777;
  std::vector<long> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = static_cast<long>(i % 7);
  stdparx::device_vector<long> in(pol, n);
  stdparx::device_vector<long> out(pol, n);
  in.upload(host.data(), n);
  pstlx::inclusive_scan(pol, in.begin(), in.end(), out.begin());
  std::vector<long> result(n);
  out.download(result.data(), n);
  long acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += host[i];
    ASSERT_EQ(result[i], acc) << i;
  }
}

TEST(StdparExtensions, MinMaxElementValues) {
  const auto pol = stdparx::par_gpu(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
  constexpr std::size_t n = 4096;
  std::vector<double> host(n);
  mcmm::testing::rng r(2654435761u);
  for (std::size_t i = 0; i < n; ++i) {
    host[i] = static_cast<double>(r.below(100000));  // inside (-5, 1e6)
  }
  host[123] = -5.0;
  host[3210] = 1e6;
  stdparx::device_vector<double> v(pol, n);
  v.upload(host.data(), n);
  EXPECT_DOUBLE_EQ(
      pstlx::reduce(pol, v.begin(), v.end(),
                    std::numeric_limits<double>::max(),
                    [](double a, double b) { return a < b ? a : b; }),
      -5.0);
  EXPECT_DOUBLE_EQ(
      pstlx::reduce(pol, v.begin(), v.end(),
                    std::numeric_limits<double>::lowest(),
                    [](double a, double b) { return a > b ? a : b; }),
      1e6);
}

TEST(StdparExtensions, EmptyRangeBehaviour) {
  const auto pol = stdparx::par_gpu(Vendor::NVIDIA, stdparx::Runtime::NVHPC);
  stdparx::device_vector<double> v(pol, 1);
  EXPECT_EQ(device_count_if(pol, v.begin(), v.begin(),
                            [](double) { return true; }),
            0u);
  pstlx::inclusive_scan(pol, v.begin(), v.begin(), v.begin());  // no-op
}

}  // namespace
}  // namespace mcmm
