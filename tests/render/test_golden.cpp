// Golden-file render tests: the Figure 1 text, Markdown, and CSV renders
// are compared byte-for-byte against checked-in expectations under
// tests/render/golden/.  Any drift — a column width, a legend tweak, a
// symbol substitution — fails loudly with the first differing byte.
// Accept an intentional change by regenerating:
//   MCMM_UPDATE_GOLDEN=1 ./test_render --gtest_filter='GoldenRender.*'
#include <gtest/gtest.h>

#include <string>

#include "data/dataset.hpp"
#include "render/render.hpp"
#include "support/golden.hpp"

#ifndef MCMM_GOLDEN_DIR
#error "MCMM_GOLDEN_DIR must point at tests/render/golden"
#endif

namespace {

using mcmm::data::paper_matrix;

void check_golden(const char* file, const std::string& actual) {
  mcmm::testing::check_golden(std::string(MCMM_GOLDEN_DIR) + "/" + file,
                              actual);
}

TEST(GoldenRender, Figure1Text) {
  check_golden("figure1.txt", mcmm::render::figure1_text(paper_matrix()));
}

TEST(GoldenRender, Figure1TextAscii) {
  mcmm::render::Options opts;
  opts.unicode = false;
  check_golden("figure1_ascii.txt",
               mcmm::render::figure1_text(paper_matrix(), opts));
}

TEST(GoldenRender, Figure1Markdown) {
  check_golden("figure1.md", mcmm::render::figure1_markdown(paper_matrix()));
}

TEST(GoldenRender, MatrixCsv) {
  check_golden("figure1.csv", mcmm::render::matrix_csv(paper_matrix()));
}

}  // namespace
