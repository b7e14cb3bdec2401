#pragma once
// stdparx: a C++ standard-parallelism (pSTL) embedding (paper Sec. 4,
// items 11, 26, 40): an execution policy bound to a simulated device
// through one of the real-world runtimes, gated per Figure 1's Standard
// column:
//
//   NVHPC      — nvc++ -stdpar=gpu, vendor-complete on NVIDIA (item 11)
//   OneDPL     — Intel's oneAPI DPC++ Library; native on Intel but in the
//                oneapi::dpl:: namespace (the paper's 'some support'
//                caveat, exposed as policy.custom_namespace()); it also
//                reaches NVIDIA/AMD experimentally through DPC++ plugins
//   RocStdpar  — AMD's in-development runtime; must be explicitly enabled
//                (enable_experimental_roc_stdpar), mirroring its
//                not-yet-production status (item 26)
//   OpenSYCL   — the --hipsycl-stdpar route, experimental on all three
//
// Data lives in device_vector<T>, the simulation's stand-in for the
// unified/managed memory the real runtimes rely on. The algorithms that
// take these policies (for_each, transform, fill, copy, reduce, scan,
// sort, ...) live in src/pstlx/pstlx.hpp.

#include <memory>
#include <string_view>

#include "core/error.hpp"
#include "gpusim/device.hpp"

namespace mcmm::stdparx {

enum class Runtime { NVHPC, OneDPL, RocStdpar, OpenSYCL };

[[nodiscard]] std::string_view to_string(Runtime r) noexcept;

/// Opt-in switch for AMD's in-development roc-stdpar route.
void enable_experimental_roc_stdpar(bool enabled) noexcept;
[[nodiscard]] bool roc_stdpar_enabled() noexcept;

/// A device-bound parallel execution policy (the moral equivalent of
/// std::execution::par on a -stdpar=gpu compiler).
class execution_policy {
 public:
  /// Throws UnsupportedCombination per Fig. 1's Standard column.
  execution_policy(Vendor vendor, Runtime runtime);

  [[nodiscard]] Vendor vendor() const noexcept { return vendor_; }
  [[nodiscard]] Runtime runtime() const noexcept { return runtime_; }
  /// True when the pSTL entry points live in a custom namespace rather
  /// than std:: (the paper's Intel 'some support' rationale).
  [[nodiscard]] bool custom_namespace() const noexcept {
    return runtime_ == Runtime::OneDPL;
  }

  /// Re-checks the Figure 1 gate this policy was constructed under.
  /// The roc-stdpar opt-in is a process-global switch that can flip
  /// *after* construction; algorithms call this before their first
  /// launch so a newly unsupported combination throws
  /// UnsupportedCombination without consuming any queue time — the
  /// queue's simulated clock and pending state are exactly as before
  /// the call (strong guarantee, no partially-consumed queue).
  void validate() const;

  [[nodiscard]] gpusim::Device& device() const noexcept { return *device_; }
  [[nodiscard]] gpusim::Queue& queue() const noexcept { return *queue_; }
  [[nodiscard]] double simulated_time_us() const noexcept {
    return queue_->simulated_time_us();
  }

 private:
  Vendor vendor_;
  Runtime runtime_;
  gpusim::Device* device_;
  std::shared_ptr<gpusim::Queue> queue_;
};

/// Convenience factory, reading like std::execution::par.
[[nodiscard]] inline execution_policy par_gpu(Vendor vendor, Runtime runtime) {
  return execution_policy(vendor, runtime);
}

/// Device-resident array managed through a policy's device.
template <typename T>
class device_vector {
 public:
  device_vector(const execution_policy& policy, std::size_t count)
      : device_(&policy.device()),
        queue_(&policy.queue()),
        size_(count),
        data_(static_cast<T*>(device_->allocate(count * sizeof(T)))) {}

  ~device_vector() {
    if (data_ != nullptr) device_->deallocate(data_);
  }

  device_vector(const device_vector&) = delete;
  device_vector& operator=(const device_vector&) = delete;
  device_vector(device_vector&& other) noexcept
      : device_(other.device_),
        queue_(other.queue_),
        size_(other.size_),
        data_(other.data_) {
    other.data_ = nullptr;
    other.size_ = 0;
  }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void upload(const T* host, std::size_t count) {
    queue_->memcpy(data_, host, count * sizeof(T),
                   gpusim::CopyKind::HostToDevice);
  }
  void download(T* host, std::size_t count) const {
    queue_->memcpy(host, data_, count * sizeof(T),
                   gpusim::CopyKind::DeviceToHost);
  }

 private:
  gpusim::Device* device_;
  gpusim::Queue* queue_;
  std::size_t size_;
  T* data_;
};

}  // namespace mcmm::stdparx
