// Structural integrity of the paper dataset: the counts and cross-links the
// paper states explicitly (51 cells, 44 descriptions, shared items).

#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "yamlx/matrix_yaml.hpp"

namespace mcmm {
namespace {

using data::paper_matrix;

TEST(Dataset, ValidatesAndHasPaperCounts) {
  const CompatibilityMatrix& m = paper_matrix();
  EXPECT_EQ(m.entry_count(), static_cast<std::size_t>(kCombinationCount));
  EXPECT_EQ(m.description_count(),
            static_cast<std::size_t>(kDescriptionCount));
}

TEST(Dataset, BuildIsRepeatable) {
  const CompatibilityMatrix a = data::build_paper_matrix();
  const CompatibilityMatrix b = data::build_paper_matrix();
  EXPECT_EQ(a.entry_count(), b.entry_count());
  for (const SupportEntry* e : a.entries()) {
    const SupportEntry* other = b.find(e->combo);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(e->ratings, other->ratings) << to_string(e->combo);
    EXPECT_EQ(e->description_id, other->description_id);
  }
}

// The committed gpu_compat.yaml is exactly what the emitter writes for the
// matrix it parses to, so a hand edit the emitter would not reproduce
// (reordered keys, changed quoting, comments) fails here, and `mcmm
// export` reproduces the file byte for byte.
TEST(Dataset, CommittedYamlIsCanonical) {
  EXPECT_EQ(yamlx::matrix_to_yaml_text(paper_matrix()),
            data::paper_matrix_yaml());
}

TEST(Dataset, EveryVendorHas17Cells) {
  const CompatibilityMatrix& m = paper_matrix();
  for (const Vendor v : kAllVendors) {
    EXPECT_EQ(m.by_vendor(v).size(), 17u) << to_string(v);
  }
}

TEST(Dataset, LanguageSplit24_24_3) {
  const CompatibilityMatrix& m = paper_matrix();
  EXPECT_EQ(m.by_language(Language::Cpp).size(), 24u);
  EXPECT_EQ(m.by_language(Language::Fortran).size(), 24u);
  EXPECT_EQ(m.by_language(Language::Python).size(), 3u);
}

TEST(Dataset, DescriptionIdsAreExactly1To44) {
  const CompatibilityMatrix& m = paper_matrix();
  std::set<int> ids;
  for (const Description* d : m.descriptions()) ids.insert(d->id);
  ASSERT_EQ(ids.size(), 44u);
  EXPECT_EQ(*ids.begin(), 1);
  EXPECT_EQ(*ids.rbegin(), 44);
}

TEST(Dataset, SharedDescriptionsCoverTheRightCells) {
  const CompatibilityMatrix& m = paper_matrix();
  // Item 4: HIP/Fortran on NVIDIA and AMD.
  EXPECT_EQ(m.cells_of_description(4).size(), 2u);
  // Item 6: SYCL/Fortran on all three vendors.
  EXPECT_EQ(m.cells_of_description(6).size(), 3u);
  // Item 14: Kokkos/Fortran on all three vendors.
  EXPECT_EQ(m.cells_of_description(14).size(), 3u);
  // Item 16: Alpaka/Fortran on all three vendors.
  EXPECT_EQ(m.cells_of_description(16).size(), 3u);
}

TEST(Dataset, NonSharedDescriptionsCoverExactlyOneCell) {
  const CompatibilityMatrix& m = paper_matrix();
  const std::set<int> shared{4, 6, 14, 16};
  for (const Description* d : m.descriptions()) {
    if (shared.contains(d->id)) continue;
    EXPECT_EQ(m.cells_of_description(d->id).size(), 1u)
        << "description " << d->id << " (" << d->title << ")";
  }
}

TEST(Dataset, DescriptionTitlesNameTheirCells) {
  const CompatibilityMatrix& m = paper_matrix();
  for (const SupportEntry* e : m.entries()) {
    const Description& d = m.description(e->description_id);
    EXPECT_NE(d.title.find(to_string(e->combo.vendor)), std::string::npos)
        << "description " << d.id << " title '" << d.title
        << "' does not mention vendor of " << to_string(e->combo);
  }
}

TEST(Dataset, AllDescriptionsHaveText) {
  const CompatibilityMatrix& m = paper_matrix();
  for (const Description* d : m.descriptions()) {
    EXPECT_GT(d->text.size(), 40u) << "description " << d->id;
  }
}

TEST(Dataset, MoreThan50Routes) {
  // Sec. 1: "more than 50 routes for programming a GPU device are
  // identified".
  EXPECT_GT(paper_matrix().total_route_count(), 50u);
}

TEST(Dataset, UnusableCellsHaveNoRoutesExceptWorkarounds) {
  const CompatibilityMatrix& m = paper_matrix();
  for (const SupportEntry* e : m.entries()) {
    if (!e->usable()) {
      EXPECT_TRUE(e->routes.empty()) << to_string(e->combo);
    }
  }
}

TEST(Dataset, UsableCellsHaveRoutes) {
  const CompatibilityMatrix& m = paper_matrix();
  for (const SupportEntry* e : m.entries()) {
    if (e->usable()) {
      EXPECT_FALSE(e->routes.empty()) << to_string(e->combo);
    }
  }
}

TEST(Dataset, PinnedCellsMatchSection5Discussion) {
  const CompatibilityMatrix& m = paper_matrix();
  // Sec. 5 explicitly rates OpenACC C++ on NVIDIA complete and OpenMP C++
  // on NVIDIA ambivalent/incomplete.
  EXPECT_FALSE(
      m.at(Vendor::NVIDIA, Model::OpenACC, Language::Cpp).inferred);
  EXPECT_FALSE(m.at(Vendor::NVIDIA, Model::OpenMP, Language::Cpp).inferred);
  // The two dual-rated cells.
  EXPECT_EQ(
      m.at(Vendor::NVIDIA, Model::Python, Language::Python).ratings.size(),
      2u);
  EXPECT_EQ(m.at(Vendor::Intel, Model::CUDA, Language::Cpp).ratings.size(),
            2u);
}

TEST(Dataset, RouteFieldsArePopulated) {
  const CompatibilityMatrix& m = paper_matrix();
  for (const SupportEntry* e : m.entries()) {
    for (const Route& r : e->routes) {
      EXPECT_FALSE(r.name.empty()) << to_string(e->combo);
      EXPECT_FALSE(r.toolchain.empty())
          << to_string(e->combo) << " route " << r.name;
    }
  }
}

TEST(Dataset, RetiredRoutesAreRecorded) {
  // ComputeCpp must be present (SYCL on NVIDIA and Intel) and retired.
  const CompatibilityMatrix& m = paper_matrix();
  int retired_computecpp = 0;
  for (const Vendor v : {Vendor::NVIDIA, Vendor::Intel}) {
    for (const Route& r :
         m.at(v, Model::SYCL, Language::Cpp).routes) {
      if (r.name == "ComputeCpp") {
        EXPECT_EQ(r.maturity, Maturity::Retired);
        ++retired_computecpp;
      }
    }
  }
  EXPECT_EQ(retired_computecpp, 2);
}

TEST(Dataset, GpufortIsUnmaintained) {
  const CompatibilityMatrix& m = paper_matrix();
  bool found = false;
  for (const Route& r :
       m.at(Vendor::AMD, Model::CUDA, Language::Fortran).routes) {
    if (r.name == "GPUFORT") {
      EXPECT_EQ(r.maturity, Maturity::Unmaintained);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mcmm
