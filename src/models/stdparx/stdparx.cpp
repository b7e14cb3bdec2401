#include "models/stdparx/stdparx.hpp"

#include <atomic>

#include "models/profiles.hpp"

namespace mcmm::stdparx {
namespace {

std::atomic<bool> g_roc_stdpar_enabled{false};

[[nodiscard]] gpusim::BackendProfile profile_for(Vendor vendor,
                                                 Runtime runtime) {
  const Combination combo{vendor, Model::Standard, Language::Cpp};
  switch (runtime) {
    case Runtime::NVHPC:
      if (vendor != Vendor::NVIDIA) {
        throw UnsupportedCombination(
            combo, "nvc++ -stdpar=gpu targets NVIDIA GPUs only");
      }
      return models::native_profile("stdpar/NVHPC");
    case Runtime::OneDPL:
      switch (vendor) {
        case Vendor::Intel:
          // Production, but in the oneapi::dpl:: namespace (item 40).
          return models::layered_profile("stdpar/oneDPL");
        case Vendor::NVIDIA:
        case Vendor::AMD:
          // DPC++ plugin routes; experimental per items 11/26.
          return models::experimental_profile("stdpar/oneDPL-plugin");
      }
      break;
    case Runtime::RocStdpar:
      if (vendor != Vendor::AMD) {
        throw UnsupportedCombination(combo,
                                     "roc-stdpar targets AMD GPUs only");
      }
      if (!roc_stdpar_enabled()) {
        throw UnsupportedCombination(
            combo,
            "roc-stdpar is in development and not production-enabled; call "
            "enable_experimental_roc_stdpar(true) to opt in (item 26)");
      }
      return models::experimental_profile("stdpar/roc-stdpar");
    case Runtime::OpenSYCL:
      // --hipsycl-stdpar is under construction on all three platforms.
      return models::experimental_profile("stdpar/OpenSYCL");
  }
  throw UnsupportedCombination(combo, "unknown stdpar runtime");
}

}  // namespace

std::string_view to_string(Runtime r) noexcept {
  switch (r) {
    case Runtime::NVHPC:
      return "NVHPC";
    case Runtime::OneDPL:
      return "oneDPL";
    case Runtime::RocStdpar:
      return "roc-stdpar";
    case Runtime::OpenSYCL:
      return "Open SYCL";
  }
  return "?";
}

void enable_experimental_roc_stdpar(bool enabled) noexcept {
  g_roc_stdpar_enabled.store(enabled);
}

bool roc_stdpar_enabled() noexcept { return g_roc_stdpar_enabled.load(); }

execution_policy::execution_policy(Vendor vendor, Runtime runtime)
    : vendor_(vendor), runtime_(runtime) {
  const gpusim::BackendProfile profile = profile_for(vendor, runtime);
  device_ = &gpusim::Platform::instance().device(vendor);
  queue_ = device_->create_queue();
  queue_->set_backend_profile(profile);
}

void execution_policy::validate() const {
  // The roc-stdpar opt-in is the only gate input that can change after
  // construction; every other (vendor, runtime) verdict is fixed.
  if (runtime_ == Runtime::RocStdpar) {
    (void)profile_for(vendor_, runtime_);  // throws when the gate closed
  }
}

}  // namespace mcmm::stdparx
