// Gate-audit battery (satellite): every (vendor, runtime) cell of the
// Figure 1 Standard column must either construct an execution_policy or
// throw UnsupportedCombination, exactly as tier_for predicts — with the
// roc-stdpar opt-in switch audited in both positions. The second half
// covers the mid-algorithm hazard the execution_policy fix closed:
// revoking the roc-stdpar opt-in after a policy exists must make the
// next pstlx algorithm throw *before* it consumes the queue, leaving
// the queue's simulated clock untouched and the queue fully usable once
// the gate reopens.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/error.hpp"
#include "models/stdparx/stdparx.hpp"
#include "pstlx/pstlx.hpp"
#include "support/rng.hpp"

namespace mcmm {
namespace {

using stdparx::Runtime;
using pstlx::SupportTier;

constexpr Vendor kVendors[] = {Vendor::NVIDIA, Vendor::AMD, Vendor::Intel};
constexpr Runtime kRuntimes[] = {Runtime::NVHPC, Runtime::OneDPL,
                                 Runtime::RocStdpar, Runtime::OpenSYCL};

/// Restores the process-global roc-stdpar opt-in even when an
/// assertion fails mid-test.
class RocGuard {
 public:
  explicit RocGuard(bool enabled) noexcept
      : prev_(stdparx::roc_stdpar_enabled()) {
    stdparx::enable_experimental_roc_stdpar(enabled);
  }
  ~RocGuard() { stdparx::enable_experimental_roc_stdpar(prev_); }
  RocGuard(const RocGuard&) = delete;
  RocGuard& operator=(const RocGuard&) = delete;

 private:
  bool prev_;
};

/// Whether construction should succeed for this cell given the opt-in
/// switch position.
[[nodiscard]] bool should_construct(Vendor v, Runtime r, bool roc_enabled) {
  const SupportTier tier = pstlx::tier_for(v, r);
  if (tier == SupportTier::Unsupported) return false;
  if (tier == SupportTier::OptInExperimental) return roc_enabled;
  return true;
}

TEST(PstlxPolicyGating, EveryCellConstructsOrThrowsPerTier) {
  for (const bool roc : {false, true}) {
    RocGuard guard(roc);
    for (const Vendor v : kVendors) {
      for (const Runtime r : kRuntimes) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(v) << "/" << stdparx::to_string(r)
                     << " roc=" << roc);
        if (should_construct(v, r, roc)) {
          EXPECT_NO_THROW({
            const stdparx::execution_policy pol(v, r);
            pol.validate();  // re-check agrees with construction
          });
        } else {
          EXPECT_THROW(stdparx::execution_policy(v, r),
                       UnsupportedCombination);
        }
      }
    }
  }
}

TEST(PstlxPolicyGating, ValidateReflectsCurrentGateNotConstructionTime) {
  RocGuard guard(true);
  const stdparx::execution_policy pol(Vendor::AMD, Runtime::RocStdpar);
  EXPECT_NO_THROW(pol.validate());
  stdparx::enable_experimental_roc_stdpar(false);
  EXPECT_THROW(pol.validate(), UnsupportedCombination);
  stdparx::enable_experimental_roc_stdpar(true);
  EXPECT_NO_THROW(pol.validate());
}

/// The mid-algorithm leak the fix closed: a gate revoked between policy
/// construction and the algorithm call must fail the algorithm up
/// front — zero launches issued, simulated clock unmoved — rather than
/// abandoning a queue with some kernels executed and some not.
TEST(PstlxPolicyGating, RevokedGateFailsBeforeConsumingQueue) {
  RocGuard guard(true);
  const stdparx::execution_policy pol(Vendor::AMD, Runtime::RocStdpar);

  const std::size_t n = 4097;
  const std::vector<int> host =
      testing::make_data<int>(testing::Shape::Random, n, 99);
  stdparx::device_vector<int> d(pol, n);
  stdparx::device_vector<long> dscan(pol, n);
  d.upload(host.data(), n);

  const double before = pol.queue().simulated_time_us();
  stdparx::enable_experimental_roc_stdpar(false);

  EXPECT_THROW(pstlx::sort(pol, d.begin(), d.end()),
               UnsupportedCombination);
  EXPECT_THROW(pstlx::inclusive_scan(pol, d.begin(), d.end(),
                                     dscan.begin()),
               UnsupportedCombination);
  EXPECT_THROW((void)pstlx::reduce(pol, d.begin(), d.end(), 0L),
               UnsupportedCombination);
  EXPECT_THROW(pstlx::for_each(pol, d.begin(), d.end(),
                               [](int& x) { x += 1; }),
               UnsupportedCombination);
  EXPECT_EQ(pol.queue().simulated_time_us(), before)
      << "a rejected algorithm advanced the simulated clock — it "
         "launched work before validating";

  // Device data is untouched: the failed sort never wrote anything.
  std::vector<int> still(n);
  d.download(still.data(), n);
  EXPECT_EQ(still, host);

  // Reopening the gate leaves a fully usable queue behind.
  stdparx::enable_experimental_roc_stdpar(true);
  EXPECT_NO_THROW(pstlx::sort(pol, d.begin(), d.end()));
  pol.queue().synchronize();
  EXPECT_GT(pol.queue().simulated_time_us(), before);
  std::vector<int> sorted(n);
  d.download(sorted.data(), n);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

/// Same audit one level down: every pstlx entry point validates, so a
/// closed gate rejects each algorithm uniformly across cells.
TEST(PstlxPolicyGating, AllAlgorithmsRejectRevokedPolicyUniformly) {
  RocGuard guard(true);
  const stdparx::execution_policy pol(Vendor::AMD, Runtime::RocStdpar);
  const std::size_t n = 257;
  std::vector<int> host =
      testing::make_data<int>(testing::Shape::Random, n, 7);
  stdparx::device_vector<int> a(pol, n);
  stdparx::device_vector<int> b(pol, n);
  stdparx::device_vector<int> out(pol, 2 * n);
  stdparx::device_vector<long> lout(pol, n);
  a.upload(host.data(), n);
  b.upload(host.data(), n);

  stdparx::enable_experimental_roc_stdpar(false);
  const double before = pol.queue().simulated_time_us();

  EXPECT_THROW(pstlx::transform(pol, a.begin(), a.end(), b.begin(),
                                [](int x) { return x; }),
               UnsupportedCombination);
  EXPECT_THROW((void)pstlx::transform_reduce(pol, a.begin(), a.end(),
                                             b.begin(), 0L),
               UnsupportedCombination);
  EXPECT_THROW(pstlx::exclusive_scan(pol, a.begin(), a.end(),
                                     lout.begin(), 0L),
               UnsupportedCombination);
  EXPECT_THROW(pstlx::stable_sort(pol, a.begin(), a.end()),
               UnsupportedCombination);
  EXPECT_THROW(pstlx::merge(pol, a.begin(), a.end(), b.begin(), b.end(),
                            out.begin()),
               UnsupportedCombination);
  EXPECT_THROW(pstlx::fill(pol, a.begin(), a.end(), 0),
               UnsupportedCombination);
  EXPECT_THROW(pstlx::copy(pol, a.begin(), a.end(), b.begin()),
               UnsupportedCombination);
  EXPECT_EQ(pol.queue().simulated_time_us(), before);
}

}  // namespace
}  // namespace mcmm
