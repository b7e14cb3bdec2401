// Byte-level goldens for the JSON bodies serve answers with: the matrix,
// one cell, the claims, the index, two fixed route plans, and the Figure 2
// report of a reduced campaign. The cached bodies' ETags are hashes of
// these bytes, so a golden that holds also pins every ETag. Regenerate
// with MCMM_UPDATE_GOLDEN=1 (see tests/support/golden.hpp).
#include <gtest/gtest.h>

#include <string>

#include "data/dataset.hpp"
#include "perfport/perfport.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "support/golden.hpp"

#ifndef MCMM_JSON_GOLDEN_DIR
#error "MCMM_JSON_GOLDEN_DIR must point at tests/serve/golden"
#endif

namespace {

using mcmm::serve::Api;
using mcmm::serve::etag_for;
using mcmm::serve::Request;
using mcmm::serve::RequestParser;
using mcmm::serve::Response;

Request make_request(const std::string& wire) {
  RequestParser parser;
  EXPECT_EQ(parser.feed(wire), RequestParser::Status::Complete) << wire;
  return parser.take_request();
}

Response get(const Api& api, const std::string& target) {
  return api.handle(make_request("GET " + target + " HTTP/1.1\r\n\r\n"));
}

Response post_plan(const std::string& body) {
  static const Api api(mcmm::data::paper_matrix());
  const std::string wire = "POST /v1/plan HTTP/1.1\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  return api.handle(make_request(wire));
}

/// The reduced campaign of tests/perfport/test_determinism.cpp: every
/// vendor and schedule, two sizes, Triad plus a reduction and an
/// uneven-work kernel.
const Api& perf_api() {
  static const mcmm::perfport::PerfReport report = [] {
    mcmm::perfport::CampaignConfig cfg;
    cfg.sizes = {2048, 4096};
    cfg.reps = 1;
    cfg.kernels = {mcmm::perfport::PerfKernel::Triad,
                   mcmm::perfport::PerfKernel::Reduce,
                   mcmm::perfport::PerfKernel::Uneven};
    return mcmm::perfport::run_campaign(cfg);
  }();
  static const Api api(mcmm::data::paper_matrix(), nullptr, nullptr, &report);
  return api;
}

/// Checks a cached GET: 200, the golden bytes, and the ETag of those bytes.
void check_cached(const std::string& target, const char* file) {
  const Response r = get(perf_api(), target);
  ASSERT_EQ(r.status, 200) << target;
  EXPECT_EQ(r.etag, etag_for(r.body)) << target;
  mcmm::testing::check_golden(std::string(MCMM_JSON_GOLDEN_DIR) + "/" + file,
                              r.body);
}

TEST(GoldenServeJson, Matrix) {
  check_cached("/v1/matrix?format=json", "matrix.json");
}

TEST(GoldenServeJson, Cell) {
  check_cached("/v1/cell/AMD/SYCL/C%2B%2B", "cell_amd_sycl_cxx.json");
}

TEST(GoldenServeJson, Claims) { check_cached("/v1/claims", "claims.json"); }

TEST(GoldenServeJson, Index) { check_cached("/", "index.json"); }

TEST(GoldenServeJson, PerfReportOfTheReducedCampaign) {
  check_cached("/v1/perf?format=json", "perf.json");
}

TEST(GoldenServeJson, PlanFortranOnAmd) {
  const Response r =
      post_plan(R"({"language": "fortran", "must_run_on": ["amd"]})");
  ASSERT_EQ(r.status, 200) << r.body;
  mcmm::testing::check_golden(
      std::string(MCMM_JSON_GOLDEN_DIR) + "/plan_fortran_amd.json", r.body);
}

TEST(GoldenServeJson, PlanCxxEverywhereWithConstraints) {
  const Response r = post_plan(
      R"({"language": "c++", "must_run_on": ["amd", "intel", "nvidia"],)"
      R"( "allowed_models": ["sycl", "kokkos", "openmp"],)"
      R"( "minimum_category": "some", "require_maintained": true,)"
      R"( "require_vendor_support": false, "allow_translators": false})");
  ASSERT_EQ(r.status, 200) << r.body;
  mcmm::testing::check_golden(
      std::string(MCMM_JSON_GOLDEN_DIR) + "/plan_cxx_everywhere.json",
      r.body);
}

}  // namespace
