// Cross-model integration tests: the same numerical workload produces
// bitwise-identical results through every programming-model embedding —
// the "same source, many models" property behind the paper's portability
// narrative.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "models/accx/accx.hpp"
#include "models/alpakax/alpakax.hpp"
#include "models/cudax/cudax.hpp"
#include "models/hipx/hipx.hpp"
#include "models/kokkosx/kokkosx.hpp"
#include "models/ompx/ompx.hpp"
#include "models/stdparx/stdparx.hpp"
#include "models/syclx/syclx.hpp"
#include "pstlx/pstlx.hpp"

namespace mcmm {
namespace {

constexpr std::size_t kN = 4096;

/// The reference computation on the host: y = a*x + y, then sum(y).
double reference_result() {
  std::vector<double> x(kN), y(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = static_cast<double>(i % 97) * 0.5;
    y[i] = static_cast<double>(i % 31) * 0.25;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    y[i] = 1.5 * x[i] + y[i];
    sum += y[i];
  }
  return sum;
}

void make_inputs(std::vector<double>& x, std::vector<double>& y) {
  x.resize(kN);
  y.resize(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = static_cast<double>(i % 97) * 0.5;
    y[i] = static_cast<double>(i % 31) * 0.25;
  }
}

double via_cudax() {
  std::vector<double> x, y;
  make_inputs(x, y);
  double *dx = nullptr, *dy = nullptr;
  EXPECT_EQ(cudax::cudaMalloc(reinterpret_cast<void**>(&dx), kN * 8),
            cudax::cudaError_t::cudaSuccess);
  EXPECT_EQ(cudax::cudaMalloc(reinterpret_cast<void**>(&dy), kN * 8),
            cudax::cudaError_t::cudaSuccess);
  (void)cudax::cudaMemcpy(dx, x.data(), kN * 8,
                          cudax::cudaMemcpyHostToDevice);
  (void)cudax::cudaMemcpy(dy, y.data(), kN * 8,
                          cudax::cudaMemcpyHostToDevice);
  (void)cudax::cudaLaunch(
      cudax::dim3{(kN + 255) / 256, 1, 1}, cudax::dim3{256, 1, 1},
      [](const cudax::KernelCtx& ctx, const double* px, double* py,
         std::size_t n) {
        const std::size_t i = ctx.global_x();
        if (i < n) py[i] = 1.5 * px[i] + py[i];
      },
      static_cast<const double*>(dx), dy, kN);
  (void)cudax::cudaMemcpy(y.data(), dy, kN * 8,
                          cudax::cudaMemcpyDeviceToHost);
  (void)cudax::cudaFree(dx);
  (void)cudax::cudaFree(dy);
  return std::accumulate(y.begin(), y.end(), 0.0);
}

double via_hipx(hipx::Platform platform) {
  hipx::set_platform(platform);
  std::vector<double> x, y;
  make_inputs(x, y);
  double *dx = nullptr, *dy = nullptr;
  EXPECT_EQ(hipx::hipMalloc(reinterpret_cast<void**>(&dx), kN * 8),
            hipx::hipError_t::hipSuccess);
  EXPECT_EQ(hipx::hipMalloc(reinterpret_cast<void**>(&dy), kN * 8),
            hipx::hipError_t::hipSuccess);
  (void)hipx::hipMemcpy(dx, x.data(), kN * 8, hipx::hipMemcpyHostToDevice);
  (void)hipx::hipMemcpy(dy, y.data(), kN * 8, hipx::hipMemcpyHostToDevice);
  (void)hipx::hipLaunchKernelGGL(
      [](const hipx::KernelCtx& ctx, const double* px, double* py,
         std::size_t n) {
        const std::size_t i = ctx.global_x();
        if (i < n) py[i] = 1.5 * px[i] + py[i];
      },
      hipx::dim3{(kN + 255) / 256, 1, 1}, hipx::dim3{256, 1, 1},
      static_cast<const double*>(dx), dy, kN);
  (void)hipx::hipMemcpy(y.data(), dy, kN * 8, hipx::hipMemcpyDeviceToHost);
  (void)hipx::hipFree(dx);
  (void)hipx::hipFree(dy);
  return std::accumulate(y.begin(), y.end(), 0.0);
}

double via_syclx(Vendor vendor) {
  syclx::queue q(vendor, syclx::Implementation::DPCpp);
  std::vector<double> x, y;
  make_inputs(x, y);
  double* dx = q.malloc_device<double>(kN);
  double* dy = q.malloc_device<double>(kN);
  q.memcpy(dx, x.data(), kN * 8);
  q.memcpy(dy, y.data(), kN * 8);
  q.parallel_for(syclx::range{kN},
                 [dx, dy](syclx::id i) { dy[i] = 1.5 * dx[i] + dy[i]; });
  q.memcpy(y.data(), dy, kN * 8);
  q.free(dx);
  q.free(dy);
  return std::accumulate(y.begin(), y.end(), 0.0);
}

double via_ompx(Vendor vendor, ompx::Compiler compiler) {
  ompx::TargetDevice dev(vendor, compiler);
  std::vector<double> x, y;
  make_inputs(x, y);
  ompx::target_data data(dev);
  const double* dx = data.map_to(x.data(), kN);
  double* dy = data.map_tofrom(y.data(), kN);
  ompx::target_teams_distribute_parallel_for(
      dev, kN, gpusim::KernelCosts{},
      [dx, dy](std::size_t i) { dy[i] = 1.5 * dx[i] + dy[i]; });
  data.update_from(y.data());
  return std::accumulate(y.begin(), y.end(), 0.0);
}

double via_accx(Vendor vendor, accx::Compiler compiler) {
  accx::Accelerator acc(vendor, compiler);
  std::vector<double> x, y;
  make_inputs(x, y);
  double sum = 0.0;
  {
    accx::data_region data(acc);
    const double* dx = data.copyin(x.data(), kN);
    double* dy = data.copy(y.data(), kN);
    acc.parallel_loop(kN, gpusim::KernelCosts{},
                      [dx, dy](std::size_t i) {
                        dy[i] = 1.5 * dx[i] + dy[i];
                      });
    sum = acc.parallel_loop_reduce(kN, 0.0, gpusim::KernelCosts{},
                                   [dy](std::size_t i) { return dy[i]; });
  }
  return sum;
}

double via_stdparx(Vendor vendor, stdparx::Runtime runtime) {
  const auto pol = stdparx::par_gpu(vendor, runtime);
  std::vector<double> x, y;
  make_inputs(x, y);
  stdparx::device_vector<double> dx(pol, kN);
  stdparx::device_vector<double> dy(pol, kN);
  dx.upload(x.data(), kN);
  dy.upload(y.data(), kN);
  pstlx::transform(pol, dx.begin(), dx.end(), dy.begin(), dy.begin(),
                   [](double a, double b) { return 1.5 * a + b; });
  return pstlx::reduce(pol, dy.begin(), dy.end(), 0.0);
}

double via_kokkosx(kokkosx::ExecSpace space, Vendor vendor) {
  kokkosx::Execution exec(space, vendor);
  std::vector<double> x, y;
  make_inputs(x, y);
  kokkosx::View<double> dx(exec, "x", kN);
  kokkosx::View<double> dy(exec, "y", kN);
  kokkosx::deep_copy_to_device(dx, x.data());
  kokkosx::deep_copy_to_device(dy, y.data());
  kokkosx::parallel_for(exec, kokkosx::RangePolicy{0, kN},
                        gpusim::KernelCosts{}, [dx, dy](std::size_t i) {
                          dy(i) = 1.5 * dx(i) + dy(i);
                        });
  double sum = 0.0;
  kokkosx::parallel_reduce(
      exec, kokkosx::RangePolicy{0, kN}, gpusim::KernelCosts{},
      [dy](std::size_t i, double& update) { update += dy(i); }, sum);
  return sum;
}

template <typename TAcc>
double via_alpakax() {
  alpakax::Queue<TAcc> queue;
  std::vector<double> x, y;
  make_inputs(x, y);
  auto dx = alpakax::alloc_buf<double>(queue, kN);
  auto dy = alpakax::alloc_buf<double>(queue, kN);
  alpakax::memcpy_to_device(queue, dx, x.data(), kN);
  alpakax::memcpy_to_device(queue, dy, y.data(), kN);
  alpakax::exec(queue, alpakax::work_div_for(kN), gpusim::KernelCosts{},
                [](const alpakax::AccCtx& ctx, const double* px, double* py,
                   std::size_t n) {
                  const std::size_t i = ctx.global_thread_idx;
                  if (i < n) py[i] = 1.5 * px[i] + py[i];
                },
                static_cast<const double*>(dx.data()), dy.data(), kN);
  alpakax::memcpy_to_host(queue, y.data(), dy, kN);
  return std::accumulate(y.begin(), y.end(), 0.0);
}

TEST(CrossModel, EveryRouteMatchesTheReferenceBitwise) {
  const double reference = reference_result();
  EXPECT_EQ(via_cudax(), reference);
  EXPECT_EQ(via_hipx(hipx::Platform::amd), reference);
  EXPECT_EQ(via_hipx(hipx::Platform::nvidia), reference);
  EXPECT_EQ(via_syclx(Vendor::Intel), reference);
  EXPECT_EQ(via_syclx(Vendor::NVIDIA), reference);
  EXPECT_EQ(via_syclx(Vendor::AMD), reference);
  EXPECT_EQ(via_ompx(Vendor::NVIDIA, ompx::Compiler::NVHPC), reference);
  EXPECT_EQ(via_ompx(Vendor::AMD, ompx::Compiler::AOMP), reference);
  EXPECT_EQ(via_ompx(Vendor::Intel, ompx::Compiler::ICPX), reference);
  EXPECT_EQ(via_accx(Vendor::NVIDIA, accx::Compiler::NVHPC), reference);
  EXPECT_EQ(via_accx(Vendor::AMD, accx::Compiler::Clacc), reference);
  EXPECT_EQ(via_stdparx(Vendor::NVIDIA, stdparx::Runtime::NVHPC),
            reference);
  EXPECT_EQ(via_stdparx(Vendor::Intel, stdparx::Runtime::OneDPL),
            reference);
  EXPECT_EQ(via_kokkosx(kokkosx::ExecSpace::Cuda, Vendor::NVIDIA),
            reference);
  EXPECT_EQ(via_kokkosx(kokkosx::ExecSpace::HIP, Vendor::AMD), reference);
  EXPECT_EQ(via_kokkosx(kokkosx::ExecSpace::SYCL, Vendor::Intel),
            reference);
  EXPECT_EQ(via_alpakax<alpakax::AccGpuCudaRt>(), reference);
  EXPECT_EQ(via_alpakax<alpakax::AccGpuHipRt>(), reference);
  EXPECT_EQ(via_alpakax<alpakax::AccGpuSyclIntel>(), reference);
}

TEST(CrossModel, NoDeviceMemoryLeaksAcrossTheSweep) {
  // Run one full route sweep and verify allocation counts return to the
  // baseline on each simulated device.
  std::map<Vendor, std::size_t> before;
  for (const Vendor v : kAllVendors) {
    before[v] =
        gpusim::Platform::instance().device(v).allocator().live_allocations();
  }
  (void)via_cudax();
  (void)via_hipx(hipx::Platform::amd);
  (void)via_syclx(Vendor::Intel);
  (void)via_ompx(Vendor::AMD, ompx::Compiler::AOMP);
  (void)via_accx(Vendor::NVIDIA, accx::Compiler::NVHPC);
  (void)via_stdparx(Vendor::Intel, stdparx::Runtime::OneDPL);
  (void)via_kokkosx(kokkosx::ExecSpace::Cuda, Vendor::NVIDIA);
  (void)via_alpakax<alpakax::AccGpuHipRt>();
  for (const Vendor v : kAllVendors) {
    EXPECT_EQ(gpusim::Platform::instance()
                  .device(v)
                  .allocator()
                  .live_allocations(),
              before[v])
        << to_string(v);
  }
}

}  // namespace
}  // namespace mcmm
