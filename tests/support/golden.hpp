#pragma once
// Byte-for-byte golden-file comparison for the machine-readable outputs
// (serve bodies, gpuprof and gpusan reports). The goldens are committed
// next to each suite; accept an intentional change with
//   MCMM_UPDATE_GOLDEN=1 ./test_<suite> --gtest_filter='Golden*'
// which rewrites the file and skips the comparison.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace mcmm::testing {

[[nodiscard]] inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Compares `actual` with the golden file at `path`; on drift, reports the
/// first differing byte with 40 bytes of context on either side.
inline void check_golden(const std::string& path, const std::string& actual) {
  if (std::getenv("MCMM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string expected = read_file(path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path;
  if (expected == actual) return;
  std::size_t i = 0;
  while (i < expected.size() && i < actual.size() &&
         expected[i] == actual[i]) {
    ++i;
  }
  const std::size_t from = i > 40 ? i - 40 : 0;
  FAIL() << path << " drifted from its golden at byte " << i << " (expected "
         << expected.size() << " bytes, got " << actual.size() << ")\n"
         << "got:      ..." << actual.substr(from, 80) << "...\n"
         << "expected: ..." << expected.substr(from, 80) << "...\n"
         << "If the change is intentional, rerun with MCMM_UPDATE_GOLDEN=1.";
}

}  // namespace mcmm::testing
