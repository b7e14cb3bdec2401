// The paper's structural claims, evaluated against the dataset. These are
// the regression tests for the paper's "results".

#include "core/claims.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "data/dataset.hpp"

namespace mcmm {
namespace {

class ClaimTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ClaimTest, Holds) {
  const Claims claims(data::paper_matrix());
  const ClaimResult r = claims.evaluate(GetParam());
  EXPECT_TRUE(r.holds) << r.statement << " — evidence: " << r.evidence;
}

INSTANTIATE_TEST_SUITE_P(
    PaperClaims, ClaimTest,
    ::testing::Values("cell-count", "description-count", "routes-over-50",
                      "openmp-everywhere", "openmp-only-native-fortran",
                      "sycl-all-platforms", "kokkos-alpaka-all-platforms",
                      "openacc-no-intel", "nvidia-most-comprehensive",
                      "fortran-severely-thinner", "python-all-platforms",
                      "cuda-hip-shared-source", "sycl-fortran-nowhere",
                      "llvm-key-component", "amd-community-carried"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Claims, EvaluateAllCoversAllIds) {
  const Claims claims(data::paper_matrix());
  const auto results = claims.evaluate_all();
  EXPECT_EQ(results.size(), claims.ids().size());
  for (const ClaimResult& r : results) {
    EXPECT_FALSE(r.id.empty());
    EXPECT_FALSE(r.statement.empty());
    EXPECT_FALSE(r.evidence.empty()) << r.id;
  }
}

TEST(Claims, AllClaimsHold) {
  const Claims claims(data::paper_matrix());
  for (const ClaimResult& r : claims.evaluate_all()) {
    EXPECT_TRUE(r.holds) << r.id << ": " << r.evidence;
  }
}

TEST(Claims, UnknownIdThrows) {
  const Claims claims(data::paper_matrix());
  EXPECT_THROW((void)claims.evaluate("not-a-claim"), LookupError);
}

TEST(Claims, ClaimFailsOnTamperedMatrix) {
  // Sanity check that claims are actually sensitive to the data: copy the
  // paper dataset with OpenMP Fortran support on Intel demoted to None, and
  // 'openmp-everywhere' must fail.
  const CompatibilityMatrix& real = data::paper_matrix();
  CompatibilityMatrix m;
  for (const Description* d : real.descriptions()) m.add_description(*d);
  for (const SupportEntry* e : real.entries()) {
    SupportEntry copy = *e;
    if (copy.combo == Combination{Vendor::Intel, Model::OpenMP,
                                  Language::Fortran}) {
      copy.ratings = {Rating{SupportCategory::None, Provider::Nobody, "t"}};
      copy.routes.clear();
    }
    m.add_entry(copy);
  }
  const Claims claims(m);
  EXPECT_FALSE(claims.evaluate("openmp-everywhere").holds);
}

}  // namespace
}  // namespace mcmm
