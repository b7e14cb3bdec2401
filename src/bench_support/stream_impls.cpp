// BabelStream kernels implemented once per programming-model embedding —
// the "representative selection of micro-benchmarks ported to the models"
// the paper says a fair performance comparison would require (Sec. 5).

#include <array>
#include <cstring>
#include <numeric>

#include "bench_support/stream.hpp"
#include "models/accx/accx.hpp"
#include "models/alpakax/alpakax.hpp"
#include "models/cudax/cudax.hpp"
#include "models/hipx/hipx.hpp"
#include "models/kokkosx/kokkosx.hpp"
#include "models/ompx/ompx.hpp"
#include "models/stdparx/stdparx.hpp"
#include "models/syclx/syclx.hpp"
#include "pstlx/pstlx.hpp"

namespace mcmm::bench {
namespace {

using gpusim::KernelCosts;

[[nodiscard]] KernelCosts costs_for(StreamKernel k, std::size_t n) {
  const double nd = static_cast<double>(n) * sizeof(double);
  KernelCosts c;
  switch (k) {
    case StreamKernel::Copy:
      c.bytes_read = nd;
      c.bytes_written = nd;
      break;
    case StreamKernel::Mul:
      c.bytes_read = nd;
      c.bytes_written = nd;
      c.flops = static_cast<double>(n);
      break;
    case StreamKernel::Add:
      c.bytes_read = 2 * nd;
      c.bytes_written = nd;
      c.flops = static_cast<double>(n);
      break;
    case StreamKernel::Triad:
      c.bytes_read = 2 * nd;
      c.bytes_written = nd;
      c.flops = 2.0 * static_cast<double>(n);
      break;
    case StreamKernel::Dot:
      c.bytes_read = 2 * nd;
      c.flops = 2.0 * static_cast<double>(n);
      break;
    case StreamKernel::Reduce:
      c.bytes_read = nd;
      c.flops = 2.0 * static_cast<double>(n);
      break;
    case StreamKernel::Uneven: {
      const double span = static_cast<double>(uneven_span_total(n));
      c.bytes_read = span * sizeof(double);
      c.bytes_written = nd;
      c.flops = span;
      break;
    }
  }
  return c;
}

/// Shared Uneven body: tile-local ragged prefix sum into c[i].
template <typename T>
inline void uneven_at(const T* a, T* c, std::size_t i) {
  const std::size_t start = i - (i % kUnevenTile);
  T acc{};
  for (std::size_t j = start; j <= i; ++j) acc += a[j];
  c[i] = acc;
}

// ---------------------------------------------------------------- cudax --

class CudaxStream final : public StreamBenchmark {
 public:
  [[nodiscard]] std::string label() const override { return "CUDA"; }
  [[nodiscard]] Vendor vendor() const override { return Vendor::NVIDIA; }

  void alloc(std::size_t n) override {
    n_ = n;
    check(cudax::cudaMalloc(reinterpret_cast<void**>(&a_),
                            n * sizeof(double)));
    check(cudax::cudaMalloc(reinterpret_cast<void**>(&b_),
                            n * sizeof(double)));
    check(cudax::cudaMalloc(reinterpret_cast<void**>(&c_),
                            n * sizeof(double)));
    check(cudax::cudaMalloc(reinterpret_cast<void**>(&partials_),
                            kChunks * sizeof(double)));
  }

  ~CudaxStream() override {
    (void)cudax::cudaFree(a_);
    (void)cudax::cudaFree(b_);
    (void)cudax::cudaFree(c_);
    (void)cudax::cudaFree(partials_);
  }

  void init_arrays() override {
    launch(StreamKernel::Copy, [a = a_, b = b_, c = c_,
                                n = n_](const cudax::KernelCtx& ctx) {
      const std::size_t i = ctx.global_x();
      if (i < n) {
        a[i] = kInitA;
        b[i] = kInitB;
        c[i] = kInitC;
      }
    });
  }

  void copy() override {
    launch(StreamKernel::Copy,
           [a = a_, c = c_, n = n_](const cudax::KernelCtx& ctx) {
             const std::size_t i = ctx.global_x();
             if (i < n) c[i] = a[i];
           });
  }
  void mul() override {
    launch(StreamKernel::Mul,
           [b = b_, c = c_, n = n_](const cudax::KernelCtx& ctx) {
             const std::size_t i = ctx.global_x();
             if (i < n) b[i] = kScalar * c[i];
           });
  }
  void add() override {
    launch(StreamKernel::Add,
           [a = a_, b = b_, c = c_, n = n_](const cudax::KernelCtx& ctx) {
             const std::size_t i = ctx.global_x();
             if (i < n) c[i] = a[i] + b[i];
           });
  }
  void triad() override {
    launch(StreamKernel::Triad,
           [a = a_, b = b_, c = c_, n = n_](const cudax::KernelCtx& ctx) {
             const std::size_t i = ctx.global_x();
             if (i < n) a[i] = b[i] + kScalar * c[i];
           });
  }

  [[nodiscard]] double dot() override {
    // CUDA-idiomatic two-phase reduction: per-block partials, host finish.
    const std::size_t chunk = (n_ + kChunks - 1) / kChunks;
    const cudax::dim3 grid{kChunks, 1, 1};
    const cudax::dim3 block{1, 1, 1};
    check(cudax::cudaLaunch(
        grid, block, costs_for(StreamKernel::Dot, n_),
        static_cast<cudax::cudaStream_t>(nullptr),
        [a = a_, b = b_, p = partials_, n = n_,
         chunk](const cudax::KernelCtx& ctx) {
          const std::size_t cidx = ctx.global_x();
          if (cidx >= kChunks) return;
          const std::size_t begin = cidx * chunk;
          const std::size_t end = std::min(n, begin + chunk);
          double acc = 0.0;
          for (std::size_t i = begin; i < end; ++i) acc += a[i] * b[i];
          p[cidx] = acc;
        }));
    std::array<double, kChunks> host{};
    check(cudax::cudaMemcpy(host.data(), partials_,
                            kChunks * sizeof(double),
                            cudax::cudaMemcpyDeviceToHost));
    return std::accumulate(host.begin(), host.end(), 0.0);
  }

  [[nodiscard]] double reduce() override {
    const std::size_t chunk = (n_ + kChunks - 1) / kChunks;
    const cudax::dim3 grid{kChunks, 1, 1};
    const cudax::dim3 block{1, 1, 1};
    check(cudax::cudaLaunch(
        grid, block, costs_for(StreamKernel::Reduce, n_),
        static_cast<cudax::cudaStream_t>(nullptr),
        [a = a_, p = partials_, n = n_,
         chunk](const cudax::KernelCtx& ctx) {
          const std::size_t cidx = ctx.global_x();
          if (cidx >= kChunks) return;
          const std::size_t begin = cidx * chunk;
          const std::size_t end = std::min(n, begin + chunk);
          double acc = 0.0;
          for (std::size_t i = begin; i < end; ++i) acc += a[i] * a[i];
          p[cidx] = acc;
        }));
    std::array<double, kChunks> host{};
    check(cudax::cudaMemcpy(host.data(), partials_,
                            kChunks * sizeof(double),
                            cudax::cudaMemcpyDeviceToHost));
    return std::accumulate(host.begin(), host.end(), 0.0);
  }

  void uneven() override {
    launch(StreamKernel::Uneven,
           [a = a_, c = c_, n = n_](const cudax::KernelCtx& ctx) {
             const std::size_t i = ctx.global_x();
             if (i < n) uneven_at(a, c, i);
           });
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    a.resize(n_);
    b.resize(n_);
    c.resize(n_);
    check(cudax::cudaMemcpy(a.data(), a_, n_ * sizeof(double),
                            cudax::cudaMemcpyDeviceToHost));
    check(cudax::cudaMemcpy(b.data(), b_, n_ * sizeof(double),
                            cudax::cudaMemcpyDeviceToHost));
    check(cudax::cudaMemcpy(c.data(), c_, n_ * sizeof(double),
                            cudax::cudaMemcpyDeviceToHost));
  }

  [[nodiscard]] double simulated_time_us() const override {
    return cudax::queue_of(nullptr).simulated_time_us();
  }

 private:
  static constexpr std::uint32_t kChunks = 64;

  static void check(cudax::cudaError_t err) {
    if (err != cudax::cudaError_t::cudaSuccess) {
      throw gpusim::SimError(std::string("CUDA stream benchmark: ") +
                             cudax::cudaGetErrorString(err));
    }
  }

  template <typename K>
  void launch(StreamKernel kind, K&& kernel) {
    const cudax::dim3 block{256, 1, 1};
    const cudax::dim3 grid{
        static_cast<std::uint32_t>((n_ + 255) / 256), 1, 1};
    check(cudax::cudaLaunch(grid, block, costs_for(kind, n_),
                            static_cast<cudax::cudaStream_t>(nullptr),
                            std::forward<K>(kernel)));
  }

  std::size_t n_{};
  double* a_{};
  double* b_{};
  double* c_{};
  double* partials_{};
};

// ----------------------------------------------------------------- hipx --

class HipxStream final : public StreamBenchmark {
 public:
  explicit HipxStream(hipx::Platform platform) : platform_(platform) {}

  [[nodiscard]] std::string label() const override {
    return platform_ == hipx::Platform::amd ? "HIP" : "HIP(CUDA backend)";
  }
  [[nodiscard]] Vendor vendor() const override {
    return platform_ == hipx::Platform::amd ? Vendor::AMD : Vendor::NVIDIA;
  }

  void alloc(std::size_t n) override {
    const PlatformScope scope(platform_);
    n_ = n;
    check(hipx::hipMalloc(reinterpret_cast<void**>(&a_),
                          n * sizeof(double)));
    check(hipx::hipMalloc(reinterpret_cast<void**>(&b_),
                          n * sizeof(double)));
    check(hipx::hipMalloc(reinterpret_cast<void**>(&c_),
                          n * sizeof(double)));
    check(hipx::hipMalloc(reinterpret_cast<void**>(&partials_),
                          kChunks * sizeof(double)));
    check(hipx::hipStreamCreate(&stream_));
  }

  ~HipxStream() override {
    const PlatformScope scope(platform_);
    (void)hipx::hipFree(a_);
    (void)hipx::hipFree(b_);
    (void)hipx::hipFree(c_);
    (void)hipx::hipFree(partials_);
    if (stream_ != nullptr) (void)hipx::hipStreamDestroy(stream_);
  }

  void init_arrays() override {
    run(StreamKernel::Copy, [a = a_, b = b_, c = c_,
                             n = n_](const hipx::KernelCtx& ctx) {
      const std::size_t i = ctx.global_x();
      if (i < n) {
        a[i] = kInitA;
        b[i] = kInitB;
        c[i] = kInitC;
      }
    });
  }

  void copy() override {
    run(StreamKernel::Copy,
        [a = a_, c = c_, n = n_](const hipx::KernelCtx& ctx) {
          const std::size_t i = ctx.global_x();
          if (i < n) c[i] = a[i];
        });
  }
  void mul() override {
    run(StreamKernel::Mul,
        [b = b_, c = c_, n = n_](const hipx::KernelCtx& ctx) {
          const std::size_t i = ctx.global_x();
          if (i < n) b[i] = kScalar * c[i];
        });
  }
  void add() override {
    run(StreamKernel::Add,
        [a = a_, b = b_, c = c_, n = n_](const hipx::KernelCtx& ctx) {
          const std::size_t i = ctx.global_x();
          if (i < n) c[i] = a[i] + b[i];
        });
  }
  void triad() override {
    run(StreamKernel::Triad,
        [a = a_, b = b_, c = c_, n = n_](const hipx::KernelCtx& ctx) {
          const std::size_t i = ctx.global_x();
          if (i < n) a[i] = b[i] + kScalar * c[i];
        });
  }

  [[nodiscard]] double dot() override {
    const PlatformScope scope(platform_);
    const std::size_t chunk = (n_ + kChunks - 1) / kChunks;
    check(hipx::hipLaunchKernelGGL(
        [a = a_, b = b_, p = partials_, n = n_,
         chunk](const hipx::KernelCtx& ctx) {
          const std::size_t cidx = ctx.global_x();
          if (cidx >= kChunks) return;
          const std::size_t begin = cidx * chunk;
          const std::size_t end = std::min(n, begin + chunk);
          double acc = 0.0;
          for (std::size_t i = begin; i < end; ++i) acc += a[i] * b[i];
          p[cidx] = acc;
        },
        hipx::dim3{kChunks, 1, 1}, hipx::dim3{1, 1, 1},
        costs_for(StreamKernel::Dot, n_), stream_));
    std::array<double, kChunks> host{};
    check(hipx::hipMemcpy(host.data(), partials_, kChunks * sizeof(double),
                          hipx::hipMemcpyDeviceToHost));
    return std::accumulate(host.begin(), host.end(), 0.0);
  }

  [[nodiscard]] double reduce() override {
    const PlatformScope scope(platform_);
    const std::size_t chunk = (n_ + kChunks - 1) / kChunks;
    check(hipx::hipLaunchKernelGGL(
        [a = a_, p = partials_, n = n_,
         chunk](const hipx::KernelCtx& ctx) {
          const std::size_t cidx = ctx.global_x();
          if (cidx >= kChunks) return;
          const std::size_t begin = cidx * chunk;
          const std::size_t end = std::min(n, begin + chunk);
          double acc = 0.0;
          for (std::size_t i = begin; i < end; ++i) acc += a[i] * a[i];
          p[cidx] = acc;
        },
        hipx::dim3{kChunks, 1, 1}, hipx::dim3{1, 1, 1},
        costs_for(StreamKernel::Reduce, n_), stream_));
    std::array<double, kChunks> host{};
    check(hipx::hipMemcpy(host.data(), partials_, kChunks * sizeof(double),
                          hipx::hipMemcpyDeviceToHost));
    return std::accumulate(host.begin(), host.end(), 0.0);
  }

  void uneven() override {
    run(StreamKernel::Uneven,
        [a = a_, c = c_, n = n_](const hipx::KernelCtx& ctx) {
          const std::size_t i = ctx.global_x();
          if (i < n) uneven_at(a, c, i);
        });
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    const PlatformScope scope(platform_);
    a.resize(n_);
    b.resize(n_);
    c.resize(n_);
    check(hipx::hipMemcpy(a.data(), a_, n_ * sizeof(double),
                          hipx::hipMemcpyDeviceToHost));
    check(hipx::hipMemcpy(b.data(), b_, n_ * sizeof(double),
                          hipx::hipMemcpyDeviceToHost));
    check(hipx::hipMemcpy(c.data(), c_, n_ * sizeof(double),
                          hipx::hipMemcpyDeviceToHost));
  }

  [[nodiscard]] double simulated_time_us() const override {
    return stream_->simulated_time_us();
  }

 private:
  static constexpr std::uint32_t kChunks = 64;

  /// The HIP_PLATFORM switch is process-global; scope it per call.
  class PlatformScope {
   public:
    explicit PlatformScope(hipx::Platform p) : saved_(hipx::platform()) {
      hipx::set_platform(p);
    }
    ~PlatformScope() { hipx::set_platform(saved_); }

   private:
    hipx::Platform saved_;
  };

  static void check(hipx::hipError_t err) {
    if (err != hipx::hipError_t::hipSuccess) {
      throw gpusim::SimError(std::string("HIP stream benchmark: ") +
                             hipx::hipGetErrorString(err));
    }
  }

  template <typename K>
  void run(StreamKernel kind, K&& kernel) {
    const PlatformScope scope(platform_);
    const hipx::dim3 block{256, 1, 1};
    const hipx::dim3 grid{static_cast<std::uint32_t>((n_ + 255) / 256), 1,
                          1};
    check(hipx::hipLaunchKernelGGL(std::forward<K>(kernel), grid, block,
                                   costs_for(kind, n_), stream_));
  }

  hipx::Platform platform_;
  std::size_t n_{};
  double* a_{};
  double* b_{};
  double* c_{};
  double* partials_{};
  hipx::hipStream_t stream_{};
};

// ---------------------------------------------------------------- syclx --

class SyclxStream final : public StreamBenchmark {
 public:
  SyclxStream(Vendor vendor, syclx::Implementation impl)
      : queue_(vendor, impl) {}

  [[nodiscard]] std::string label() const override {
    return "SYCL(" + std::string(syclx::to_string(queue_.implementation())) +
           ")";
  }
  [[nodiscard]] Vendor vendor() const override { return queue_.vendor(); }

  void alloc(std::size_t n) override {
    n_ = n;
    a_ = queue_.malloc_device<double>(n);
    b_ = queue_.malloc_device<double>(n);
    c_ = queue_.malloc_device<double>(n);
  }

  ~SyclxStream() override {
    queue_.free(a_);
    queue_.free(b_);
    queue_.free(c_);
  }

  void init_arrays() override {
    queue_.parallel_for(syclx::range{n_}, costs_for(StreamKernel::Copy, n_),
                        policy_, [a = a_, b = b_, c = c_](syclx::id i) {
                          a[i] = kInitA;
                          b[i] = kInitB;
                          c[i] = kInitC;
                        });
  }

  void copy() override {
    queue_.parallel_for(syclx::range{n_}, costs_for(StreamKernel::Copy, n_),
                        policy_,
                        [a = a_, c = c_](syclx::id i) { c[i] = a[i]; });
  }
  void mul() override {
    queue_.parallel_for(
        syclx::range{n_}, costs_for(StreamKernel::Mul, n_), policy_,
        [b = b_, c = c_](syclx::id i) { b[i] = kScalar * c[i]; });
  }
  void add() override {
    queue_.parallel_for(
        syclx::range{n_}, costs_for(StreamKernel::Add, n_), policy_,
        [a = a_, b = b_, c = c_](syclx::id i) { c[i] = a[i] + b[i]; });
  }
  void triad() override {
    queue_.parallel_for(
        syclx::range{n_}, costs_for(StreamKernel::Triad, n_), policy_,
        [a = a_, b = b_, c = c_](syclx::id i) {
          a[i] = b[i] + kScalar * c[i];
        });
  }

  [[nodiscard]] double dot() override {
    return queue_.reduce(
        syclx::range{n_}, 0.0, costs_for(StreamKernel::Dot, n_),
        [a = a_, b = b_](std::size_t i) { return a[i] * b[i]; },
        [](double x, double y) { return x + y; });
  }

  [[nodiscard]] double reduce() override {
    return queue_.reduce(
        syclx::range{n_}, 0.0, costs_for(StreamKernel::Reduce, n_),
        [a = a_](std::size_t i) { return a[i] * a[i]; },
        [](double x, double y) { return x + y; });
  }

  void uneven() override {
    queue_.parallel_for(syclx::range{n_},
                        costs_for(StreamKernel::Uneven, n_), policy_,
                        [a = a_, c = c_](syclx::id i) {
                          uneven_at(a, c, static_cast<std::size_t>(i));
                        });
  }

  void set_schedule(gpusim::Schedule schedule) override {
    policy_ = gpusim::LaunchPolicy{schedule, 0};
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    a.resize(n_);
    b.resize(n_);
    c.resize(n_);
    queue_.memcpy(a.data(), a_, n_ * sizeof(double));
    queue_.memcpy(b.data(), b_, n_ * sizeof(double));
    queue_.memcpy(c.data(), c_, n_ * sizeof(double));
  }

  [[nodiscard]] double simulated_time_us() const override {
    return queue_.simulated_time_us();
  }

 private:
  syclx::queue queue_;
  gpusim::LaunchPolicy policy_{};
  std::size_t n_{};
  double* a_{};
  double* b_{};
  double* c_{};
};

// ----------------------------------------------------------------- ompx --

class OmpxStream final : public StreamBenchmark {
 public:
  OmpxStream(Vendor vendor, ompx::Compiler compiler)
      : dev_(vendor, compiler) {}

  [[nodiscard]] std::string label() const override {
    return "OpenMP(" + std::string(ompx::to_string(dev_.compiler())) + ")";
  }
  [[nodiscard]] Vendor vendor() const override { return dev_.vendor(); }

  void alloc(std::size_t n) override {
    n_ = n;
    ha_.assign(n, 0.0);
    hb_.assign(n, 0.0);
    hc_.assign(n, 0.0);
    data_ = std::make_unique<ompx::target_data>(dev_);
    a_ = data_->map_tofrom(ha_.data(), n);
    b_ = data_->map_tofrom(hb_.data(), n);
    c_ = data_->map_tofrom(hc_.data(), n);
  }

  void init_arrays() override {
    ompx::target_teams_distribute_parallel_for(
        dev_, n_, costs_for(StreamKernel::Copy, n_),
        [a = a_, b = b_, c = c_](std::size_t i) {
          a[i] = kInitA;
          b[i] = kInitB;
          c[i] = kInitC;
        });
  }

  void copy() override {
    ompx::target_teams_distribute_parallel_for(
        dev_, n_, costs_for(StreamKernel::Copy, n_),
        [a = a_, c = c_](std::size_t i) { c[i] = a[i]; });
  }
  void mul() override {
    ompx::target_teams_distribute_parallel_for(
        dev_, n_, costs_for(StreamKernel::Mul, n_),
        [b = b_, c = c_](std::size_t i) { b[i] = kScalar * c[i]; });
  }
  void add() override {
    ompx::target_teams_distribute_parallel_for(
        dev_, n_, costs_for(StreamKernel::Add, n_),
        [a = a_, b = b_, c = c_](std::size_t i) { c[i] = a[i] + b[i]; });
  }
  void triad() override {
    ompx::target_teams_distribute_parallel_for(
        dev_, n_, costs_for(StreamKernel::Triad, n_),
        [a = a_, b = b_, c = c_](std::size_t i) {
          a[i] = b[i] + kScalar * c[i];
        });
  }

  [[nodiscard]] double dot() override {
    return ompx::target_teams_reduce(
        dev_, n_, 0.0, costs_for(StreamKernel::Dot, n_),
        [a = a_, b = b_](std::size_t i) { return a[i] * b[i]; });
  }

  [[nodiscard]] double reduce() override {
    return ompx::target_teams_reduce(
        dev_, n_, 0.0, costs_for(StreamKernel::Reduce, n_),
        [a = a_](std::size_t i) { return a[i] * a[i]; });
  }

  void uneven() override {
    ompx::target_teams_distribute_parallel_for(
        dev_, n_, costs_for(StreamKernel::Uneven, n_),
        [a = a_, c = c_](std::size_t i) { uneven_at(a, c, i); });
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    data_->update_from(ha_.data());
    data_->update_from(hb_.data());
    data_->update_from(hc_.data());
    a = ha_;
    b = hb_;
    c = hc_;
  }

  [[nodiscard]] double simulated_time_us() const override {
    return dev_.simulated_time_us();
  }

 private:
  ompx::TargetDevice dev_;
  std::size_t n_{};
  std::vector<double> ha_, hb_, hc_;
  std::unique_ptr<ompx::target_data> data_;
  double* a_{};
  double* b_{};
  double* c_{};
};

// ----------------------------------------------------------------- accx --

class AccxStream final : public StreamBenchmark {
 public:
  AccxStream(Vendor vendor, accx::Compiler compiler)
      : acc_(vendor, compiler) {}

  [[nodiscard]] std::string label() const override {
    return "OpenACC(" + std::string(accx::to_string(acc_.compiler())) + ")";
  }
  [[nodiscard]] Vendor vendor() const override { return acc_.vendor(); }

  void alloc(std::size_t n) override {
    n_ = n;
    ha_.assign(n, 0.0);
    hb_.assign(n, 0.0);
    hc_.assign(n, 0.0);
    data_ = std::make_unique<accx::data_region>(acc_);
    a_ = data_->copy(ha_.data(), n);
    b_ = data_->copy(hb_.data(), n);
    c_ = data_->copy(hc_.data(), n);
  }

  void init_arrays() override {
    acc_.parallel_loop(n_, costs_for(StreamKernel::Copy, n_),
                       [a = a_, b = b_, c = c_](std::size_t i) {
                         a[i] = kInitA;
                         b[i] = kInitB;
                         c[i] = kInitC;
                       });
  }

  void copy() override {
    acc_.parallel_loop(n_, costs_for(StreamKernel::Copy, n_),
                       [a = a_, c = c_](std::size_t i) { c[i] = a[i]; });
  }
  void mul() override {
    acc_.parallel_loop(
        n_, costs_for(StreamKernel::Mul, n_),
        [b = b_, c = c_](std::size_t i) { b[i] = kScalar * c[i]; });
  }
  void add() override {
    acc_.parallel_loop(
        n_, costs_for(StreamKernel::Add, n_),
        [a = a_, b = b_, c = c_](std::size_t i) { c[i] = a[i] + b[i]; });
  }
  void triad() override {
    acc_.parallel_loop(n_, costs_for(StreamKernel::Triad, n_),
                       [a = a_, b = b_, c = c_](std::size_t i) {
                         a[i] = b[i] + kScalar * c[i];
                       });
  }

  [[nodiscard]] double dot() override {
    return acc_.parallel_loop_reduce(
        n_, 0.0, costs_for(StreamKernel::Dot, n_),
        [a = a_, b = b_](std::size_t i) { return a[i] * b[i]; });
  }

  [[nodiscard]] double reduce() override {
    return acc_.parallel_loop_reduce(
        n_, 0.0, costs_for(StreamKernel::Reduce, n_),
        [a = a_](std::size_t i) { return a[i] * a[i]; });
  }

  void uneven() override {
    acc_.parallel_loop(n_, costs_for(StreamKernel::Uneven, n_),
                       [a = a_, c = c_](std::size_t i) {
                         uneven_at(a, c, i);
                       });
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    // `#pragma acc update self(...)` equivalent.
    acc_.queue().memcpy(ha_.data(), a_, n_ * sizeof(double),
                        gpusim::CopyKind::DeviceToHost);
    acc_.queue().memcpy(hb_.data(), b_, n_ * sizeof(double),
                        gpusim::CopyKind::DeviceToHost);
    acc_.queue().memcpy(hc_.data(), c_, n_ * sizeof(double),
                        gpusim::CopyKind::DeviceToHost);
    a = ha_;
    b = hb_;
    c = hc_;
  }

  [[nodiscard]] double simulated_time_us() const override {
    return const_cast<accx::Accelerator&>(acc_).simulated_time_us();
  }

 private:
  accx::Accelerator acc_;
  std::size_t n_{};
  std::vector<double> ha_, hb_, hc_;
  std::unique_ptr<accx::data_region> data_;
  double* a_{};
  double* b_{};
  double* c_{};
};

// -------------------------------------------------------------- stdparx --

class StdparStream final : public StreamBenchmark {
 public:
  StdparStream(Vendor vendor, stdparx::Runtime runtime)
      : pol_(vendor, runtime) {}

  [[nodiscard]] std::string label() const override {
    return "stdpar(" + std::string(stdparx::to_string(pol_.runtime())) + ")";
  }
  [[nodiscard]] Vendor vendor() const override { return pol_.vendor(); }

  void alloc(std::size_t n) override {
    n_ = n;
    a_ = std::make_unique<stdparx::device_vector<double>>(pol_, n);
    b_ = std::make_unique<stdparx::device_vector<double>>(pol_, n);
    c_ = std::make_unique<stdparx::device_vector<double>>(pol_, n);
  }

  void init_arrays() override {
    pstlx::fill(pol_, a_->begin(), a_->end(), kInitA);
    pstlx::fill(pol_, b_->begin(), b_->end(), kInitB);
    pstlx::fill(pol_, c_->begin(), c_->end(), kInitC);
  }

  void copy() override {
    // BabelStream's copy via std::copy(par, ...).
    pstlx::copy(pol_, a_->begin(), a_->end(), c_->begin());
  }
  void mul() override {
    pstlx::transform(pol_, c_->begin(), c_->end(), b_->begin(),
                     [](double x) { return kScalar * x; });
  }
  void add() override {
    pstlx::transform(pol_, a_->begin(), a_->end(), b_->begin(), c_->begin(),
                     [](double x, double y) { return x + y; });
  }
  void triad() override {
    pstlx::transform(pol_, b_->begin(), b_->end(), c_->begin(), a_->begin(),
                     [](double x, double y) { return x + kScalar * y; });
  }

  [[nodiscard]] double dot() override {
    // std::transform_reduce(par, ...): the 64-chunk blocked reduce, whose
    // fixed combine order keeps the sum bitwise reproducible.
    return pstlx::transform_reduce(pol_, a_->begin(), a_->end(),
                                   b_->begin(), 0.0);
  }

  [[nodiscard]] double reduce() override {
    // sum a[i]^2 as the self-inner-product, the stdpar idiom.
    return pstlx::transform_reduce(pol_, a_->begin(), a_->end(),
                                   a_->begin(), 0.0);
  }

  void uneven() override {
    // stdpar has no index-based loop; recover i from the element address,
    // the std::for_each(par_unseq) idiom for indexed access.
    pstlx::for_each(pol_, c_->begin(), c_->end(),
                    [a = a_->begin(), c = c_->begin()](double& x) {
                      uneven_at(a, c, static_cast<std::size_t>(&x - c));
                    });
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    a.resize(n_);
    b.resize(n_);
    c.resize(n_);
    a_->download(a.data(), n_);
    b_->download(b.data(), n_);
    c_->download(c.data(), n_);
  }

  [[nodiscard]] double simulated_time_us() const override {
    return pol_.simulated_time_us();
  }

 private:
  stdparx::execution_policy pol_;
  std::size_t n_{};
  std::unique_ptr<stdparx::device_vector<double>> a_, b_, c_;
};

// -------------------------------------------------------------- kokkosx --

class KokkosxStream final : public StreamBenchmark {
 public:
  KokkosxStream(kokkosx::ExecSpace space, Vendor vendor)
      : exec_(space, vendor) {}

  [[nodiscard]] std::string label() const override {
    return "Kokkos(" + std::string(kokkosx::to_string(exec_.space())) + ")";
  }
  [[nodiscard]] Vendor vendor() const override { return exec_.vendor(); }

  void alloc(std::size_t n) override {
    n_ = n;
    a_ = std::make_unique<kokkosx::View<double>>(exec_, "a", n);
    b_ = std::make_unique<kokkosx::View<double>>(exec_, "b", n);
    c_ = std::make_unique<kokkosx::View<double>>(exec_, "c", n);
  }

  void init_arrays() override {
    kokkosx::parallel_for(exec_, kokkosx::RangePolicy{0, n_},
                          costs_for(StreamKernel::Copy, n_), policy_,
                          [a = *a_, b = *b_, c = *c_](std::size_t i) {
                            a(i) = kInitA;
                            b(i) = kInitB;
                            c(i) = kInitC;
                          });
  }

  void copy() override {
    kokkosx::parallel_for(exec_, kokkosx::RangePolicy{0, n_},
                          costs_for(StreamKernel::Copy, n_), policy_,
                          [a = *a_, c = *c_](std::size_t i) { c(i) = a(i); });
  }
  void mul() override {
    kokkosx::parallel_for(
        exec_, kokkosx::RangePolicy{0, n_}, costs_for(StreamKernel::Mul, n_),
        policy_,
        [b = *b_, c = *c_](std::size_t i) { b(i) = kScalar * c(i); });
  }
  void add() override {
    kokkosx::parallel_for(
        exec_, kokkosx::RangePolicy{0, n_}, costs_for(StreamKernel::Add, n_),
        policy_,
        [a = *a_, b = *b_, c = *c_](std::size_t i) { c(i) = a(i) + b(i); });
  }
  void triad() override {
    kokkosx::parallel_for(exec_, kokkosx::RangePolicy{0, n_},
                          costs_for(StreamKernel::Triad, n_), policy_,
                          [a = *a_, b = *b_, c = *c_](std::size_t i) {
                            a(i) = b(i) + kScalar * c(i);
                          });
  }

  [[nodiscard]] double dot() override {
    double result = 0.0;
    kokkosx::parallel_reduce(
        exec_, kokkosx::RangePolicy{0, n_}, costs_for(StreamKernel::Dot, n_),
        [a = *a_, b = *b_](std::size_t i, double& update) {
          update += a(i) * b(i);
        },
        result);
    return result;
  }

  [[nodiscard]] double reduce() override {
    double result = 0.0;
    kokkosx::parallel_reduce(
        exec_, kokkosx::RangePolicy{0, n_},
        costs_for(StreamKernel::Reduce, n_),
        [a = *a_](std::size_t i, double& update) { update += a(i) * a(i); },
        result);
    return result;
  }

  void uneven() override {
    kokkosx::parallel_for(exec_, kokkosx::RangePolicy{0, n_},
                          costs_for(StreamKernel::Uneven, n_), policy_,
                          [a = *a_, c = *c_](std::size_t i) {
                            const std::size_t start = i - (i % kUnevenTile);
                            double acc = 0.0;
                            for (std::size_t j = start; j <= i; ++j) {
                              acc += a(j);
                            }
                            c(i) = acc;
                          });
  }

  void set_schedule(gpusim::Schedule schedule) override {
    policy_ = gpusim::LaunchPolicy{schedule, 0};
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    a.resize(n_);
    b.resize(n_);
    c.resize(n_);
    kokkosx::deep_copy_to_host(a.data(), *a_);
    kokkosx::deep_copy_to_host(b.data(), *b_);
    kokkosx::deep_copy_to_host(c.data(), *c_);
  }

  [[nodiscard]] double simulated_time_us() const override {
    return exec_.simulated_time_us();
  }

 private:
  kokkosx::Execution exec_;
  gpusim::LaunchPolicy policy_{};
  std::size_t n_{};
  std::unique_ptr<kokkosx::View<double>> a_, b_, c_;
};

// -------------------------------------------------------------- alpakax --

template <typename TAcc>
class AlpakaxStream final : public StreamBenchmark {
 public:
  AlpakaxStream() = default;

  [[nodiscard]] std::string label() const override {
    return "Alpaka(" + std::string(TAcc::name) + ")";
  }
  [[nodiscard]] Vendor vendor() const override { return TAcc::vendor; }

  void alloc(std::size_t n) override {
    n_ = n;
    a_.emplace(alpakax::alloc_buf<double>(queue_, n));
    b_.emplace(alpakax::alloc_buf<double>(queue_, n));
    c_.emplace(alpakax::alloc_buf<double>(queue_, n));
  }

  void init_arrays() override {
    run(StreamKernel::Copy,
        [a = a_->data(), b = b_->data(), c = c_->data(),
         n = n_](const alpakax::AccCtx& ctx) {
          const std::size_t i = ctx.global_thread_idx;
          if (i < n) {
            a[i] = kInitA;
            b[i] = kInitB;
            c[i] = kInitC;
          }
        });
  }

  void copy() override {
    run(StreamKernel::Copy,
        [a = a_->data(), c = c_->data(), n = n_](const alpakax::AccCtx& ctx) {
          const std::size_t i = ctx.global_thread_idx;
          if (i < n) c[i] = a[i];
        });
  }
  void mul() override {
    run(StreamKernel::Mul,
        [b = b_->data(), c = c_->data(), n = n_](const alpakax::AccCtx& ctx) {
          const std::size_t i = ctx.global_thread_idx;
          if (i < n) b[i] = kScalar * c[i];
        });
  }
  void add() override {
    run(StreamKernel::Add, [a = a_->data(), b = b_->data(), c = c_->data(),
                            n = n_](const alpakax::AccCtx& ctx) {
      const std::size_t i = ctx.global_thread_idx;
      if (i < n) c[i] = a[i] + b[i];
    });
  }
  void triad() override {
    run(StreamKernel::Triad, [a = a_->data(), b = b_->data(), c = c_->data(),
                              n = n_](const alpakax::AccCtx& ctx) {
      const std::size_t i = ctx.global_thread_idx;
      if (i < n) a[i] = b[i] + kScalar * c[i];
    });
  }

  [[nodiscard]] double dot() override {
    constexpr std::size_t kChunks = 64;
    std::array<double, kChunks> partials{};
    const std::size_t chunk = (n_ + kChunks - 1) / kChunks;
    alpakax::exec(queue_, alpakax::WorkDiv{kChunks, 1},
                  costs_for(StreamKernel::Dot, n_),
                  [a = a_->data(), b = b_->data(), &partials, n = n_,
                   chunk](const alpakax::AccCtx& ctx) {
                    const std::size_t cidx = ctx.global_thread_idx;
                    if (cidx >= kChunks) return;
                    const std::size_t begin = cidx * chunk;
                    const std::size_t end = std::min(n, begin + chunk);
                    double acc = 0.0;
                    for (std::size_t i = begin; i < end; ++i) {
                      acc += a[i] * b[i];
                    }
                    partials[cidx] = acc;
                  });
    return std::accumulate(partials.begin(), partials.end(), 0.0);
  }

  [[nodiscard]] double reduce() override {
    constexpr std::size_t kChunks = 64;
    std::array<double, kChunks> partials{};
    const std::size_t chunk = (n_ + kChunks - 1) / kChunks;
    alpakax::exec(queue_, alpakax::WorkDiv{kChunks, 1},
                  costs_for(StreamKernel::Reduce, n_),
                  [a = a_->data(), &partials, n = n_,
                   chunk](const alpakax::AccCtx& ctx) {
                    const std::size_t cidx = ctx.global_thread_idx;
                    if (cidx >= kChunks) return;
                    const std::size_t begin = cidx * chunk;
                    const std::size_t end = std::min(n, begin + chunk);
                    double acc = 0.0;
                    for (std::size_t i = begin; i < end; ++i) {
                      acc += a[i] * a[i];
                    }
                    partials[cidx] = acc;
                  });
    return std::accumulate(partials.begin(), partials.end(), 0.0);
  }

  void uneven() override {
    run(StreamKernel::Uneven,
        [a = a_->data(), c = c_->data(), n = n_](const alpakax::AccCtx& ctx) {
          const std::size_t i = ctx.global_thread_idx;
          if (i < n) uneven_at(a, c, i);
        });
  }

  void read_arrays(std::vector<double>& a, std::vector<double>& b,
                   std::vector<double>& c) override {
    a.resize(n_);
    b.resize(n_);
    c.resize(n_);
    alpakax::memcpy_to_host(queue_, a.data(), *a_, n_);
    alpakax::memcpy_to_host(queue_, b.data(), *b_, n_);
    alpakax::memcpy_to_host(queue_, c.data(), *c_, n_);
  }

  [[nodiscard]] double simulated_time_us() const override {
    return queue_.simulated_time_us();
  }

 private:
  template <typename K>
  void run(StreamKernel kind, K&& kernel) {
    alpakax::exec(queue_, alpakax::work_div_for(n_), costs_for(kind, n_),
                  std::forward<K>(kernel));
  }

  alpakax::Queue<TAcc> queue_;
  std::size_t n_{};
  std::optional<alpakax::Buf<double, TAcc>> a_, b_, c_;
};

}  // namespace

std::vector<std::unique_ptr<StreamBenchmark>> stream_benchmarks_for(
    Vendor vendor) {
  std::vector<std::unique_ptr<StreamBenchmark>> out;
  switch (vendor) {
    case Vendor::NVIDIA:
      out.push_back(std::make_unique<CudaxStream>());
      out.push_back(std::make_unique<HipxStream>(hipx::Platform::nvidia));
      out.push_back(std::make_unique<SyclxStream>(
          Vendor::NVIDIA, syclx::Implementation::DPCpp));
      out.push_back(std::make_unique<SyclxStream>(
          Vendor::NVIDIA, syclx::Implementation::OpenSYCL));
      out.push_back(
          std::make_unique<OmpxStream>(Vendor::NVIDIA, ompx::Compiler::NVHPC));
      out.push_back(
          std::make_unique<AccxStream>(Vendor::NVIDIA, accx::Compiler::NVHPC));
      out.push_back(std::make_unique<StdparStream>(Vendor::NVIDIA,
                                                   stdparx::Runtime::NVHPC));
      out.push_back(std::make_unique<KokkosxStream>(kokkosx::ExecSpace::Cuda,
                                                    Vendor::NVIDIA));
      out.push_back(
          std::make_unique<AlpakaxStream<alpakax::AccGpuCudaRt>>());
      break;
    case Vendor::AMD:
      out.push_back(std::make_unique<HipxStream>(hipx::Platform::amd));
      out.push_back(std::make_unique<SyclxStream>(
          Vendor::AMD, syclx::Implementation::OpenSYCL));
      out.push_back(std::make_unique<SyclxStream>(
          Vendor::AMD, syclx::Implementation::DPCpp));
      out.push_back(
          std::make_unique<OmpxStream>(Vendor::AMD, ompx::Compiler::AOMP));
      out.push_back(
          std::make_unique<AccxStream>(Vendor::AMD, accx::Compiler::GCC));
      if (stdparx::roc_stdpar_enabled()) {
        out.push_back(std::make_unique<StdparStream>(
            Vendor::AMD, stdparx::Runtime::RocStdpar));
      }
      out.push_back(std::make_unique<KokkosxStream>(kokkosx::ExecSpace::HIP,
                                                    Vendor::AMD));
      out.push_back(std::make_unique<AlpakaxStream<alpakax::AccGpuHipRt>>());
      break;
    case Vendor::Intel:
      out.push_back(std::make_unique<SyclxStream>(
          Vendor::Intel, syclx::Implementation::DPCpp));
      out.push_back(std::make_unique<SyclxStream>(
          Vendor::Intel, syclx::Implementation::OpenSYCL));
      out.push_back(
          std::make_unique<OmpxStream>(Vendor::Intel, ompx::Compiler::ICPX));
      out.push_back(std::make_unique<StdparStream>(Vendor::Intel,
                                                   stdparx::Runtime::OneDPL));
      out.push_back(std::make_unique<KokkosxStream>(kokkosx::ExecSpace::SYCL,
                                                    Vendor::Intel));
      out.push_back(
          std::make_unique<AlpakaxStream<alpakax::AccGpuSyclIntel>>());
      break;
  }
  return out;
}

}  // namespace mcmm::bench
