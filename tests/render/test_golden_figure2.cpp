// Golden-file gate for Figure 2: the default perf-portability campaign's
// text render is compared byte-for-byte against the committed
// tests/render/golden/figure2.txt. The campaign records only
// simulated-clock quantities, so the bytes are machine- and
// thread-count-independent; any drift — a metric change, a column width,
// a new route — fails loudly. Accept an intentional change with
//   MCMM_UPDATE_GOLDEN=1 ./test_render --gtest_filter='GoldenFigure2.*'
// The same golden gates `mcmm perfbench --format txt` and the served
// GET /v1/perf?format=txt body in CI.
#include <gtest/gtest.h>

#include <string>

#include "perfport/perfport.hpp"
#include "render/perf.hpp"
#include "support/golden.hpp"

#ifndef MCMM_GOLDEN_DIR
#error "MCMM_GOLDEN_DIR must point at tests/render/golden"
#endif

namespace {

TEST(GoldenFigure2, DefaultCampaignTextIsByteStable) {
  // The full default ladder (the same config `mcmm perfbench` and
  // GET /v1/perf use) — a few seconds of simulated kernels.
  const mcmm::perfport::PerfReport report = mcmm::perfport::run_campaign();
  mcmm::testing::check_golden(std::string(MCMM_GOLDEN_DIR) + "/figure2.txt",
                              mcmm::render::figure2_text(report));
}

}  // namespace
