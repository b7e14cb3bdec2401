// Byte-level golden for gpusan's Report::json(): a hand-built report whose
// finding fields hold quotes, backslashes, newlines, tabs, a control
// character and multi-byte UTF-8, plus the clean (no findings) report.
// Regenerate with MCMM_UPDATE_GOLDEN=1 (see tests/support/golden.hpp).
#include <gtest/gtest.h>

#include <string>

#include "gpusan/gpusan.hpp"
#include "support/golden.hpp"

#ifndef MCMM_JSON_GOLDEN_DIR
#error "MCMM_JSON_GOLDEN_DIR must point at tests/gpusan/golden"
#endif

namespace mcmm::gpusan {
namespace {

std::string golden(const char* file) {
  return std::string(MCMM_JSON_GOLDEN_DIR) + "/" + file;
}

TEST(GoldenGpusanJson, ReportWithAdversarialFindings) {
  Report r;
  Finding oob;
  oob.pass = Pass::Memcheck;
  oob.kind = "out-of-bounds-write";
  oob.message = "write of 8 bytes at +4096 past \"buf\\a\"\n  in kernel "
                "\"scale\"\t(\xe2\x9c\x93 \xf0\x9f\x9a\x80) ctrl-\x01";
  oob.origin = "tests/\"golden\"\\origin \xc3\xbc";
  oob.allocation_id = 7;
  oob.launch_id = 3;
  oob.launch = "grid=(4,1,1) block=(64,1,1) schedule=\"static\"";
  r.findings.push_back(oob);
  Finding race;
  race.pass = Pass::Racecheck;
  race.kind = "write-write-race";
  race.message = "two writers\nsame word";
  race.origin = "histogram";
  race.allocation_id = 9;
  race.launch_id = 4;
  r.findings.push_back(race);
  Finding leak;
  leak.pass = Pass::Leakcheck;
  leak.kind = "leak";
  leak.message = "512 bytes never freed";
  r.findings.push_back(leak);
  r.total_findings = 5;
  r.suppressed_duplicates = 11;
  r.launches_checked = 42;
  r.accesses_checked = 123456789;
  r.accesses_dropped = 17;
  mcmm::testing::check_golden(golden("report.json"), r.json());
}

TEST(GoldenGpusanJson, CleanReport) {
  Report r;
  r.launches_checked = 3;
  r.accesses_checked = 96;
  mcmm::testing::check_golden(golden("report_clean.json"), r.json());
}

}  // namespace
}  // namespace mcmm::gpusan
