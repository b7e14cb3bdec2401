// Byte-level goldens for the gpuprof JSON writers: chrome_json() and
// summary_json() of a hand-built Trace with fixed simulated and host
// times, whose labels hold quotes, backslashes, newlines, tabs, a control
// character and multi-byte UTF-8. Regenerate with MCMM_UPDATE_GOLDEN=1
// (see tests/support/golden.hpp).
#include <gtest/gtest.h>

#include <string>

#include "gpuprof/trace.hpp"
#include "support/golden.hpp"

#ifndef MCMM_JSON_GOLDEN_DIR
#error "MCMM_JSON_GOLDEN_DIR must point at tests/gpuprof/golden"
#endif

namespace mcmm::gpuprof {
namespace {

TraceEvent event(std::uint64_t id, OpKind kind, Vendor vendor,
                 std::uint32_t queue, std::string name, double begin_us,
                 double end_us) {
  TraceEvent e;
  e.id = id;
  e.kind = kind;
  e.vendor = vendor;
  e.device = vendor == Vendor::AMD ? "Sim \"MI250X\" \\ GCD0"
                                   : "Sim A100\tSXM \xc2\xb5";
  e.queue_id = queue;
  e.name = std::move(name);
  e.model = "CUDA \"nvcc\"\n(\xe2\x9c\x93)";
  e.sim_begin_us = begin_us;
  e.sim_end_us = end_us;
  e.host_begin_us = 100.0 + begin_us * 2.0;
  e.host_end_us = 100.0 + end_us * 2.5;
  e.peak_gbps = vendor == Vendor::AMD ? 1638.4 : 2039.0;
  e.launch_latency_us = 2.25;
  return e;
}

Trace adversarial_trace() {
  Trace t;
  TraceEvent k = event(1, OpKind::Kernel, Vendor::NVIDIA, 0,
                       "triad \"q\" back\\slash\nnew\tline \xe6\x97\xa5 "
                       "\xf0\x9f\x9a\x80 ctrl-\x01",
                       1.5, 3.25);
  k.launch = "grid=(4,1,1) block=(64,1,1) schedule=\"static\"";
  k.items = 256;
  k.bytes_read = 4096;
  k.bytes_written = 2048;
  k.flops = 512;
  t.events.push_back(k);
  TraceEvent copy = event(2, OpKind::MemcpyH2D, Vendor::AMD, 1,
                          "memcpy H2D", 0.0, 12.125);
  copy.bytes_read = 65536;
  copy.bytes_written = 65536;
  t.events.push_back(copy);
  TraceEvent fill = event(3, OpKind::Memset, Vendor::AMD, 1,
                          "memset \\x00", 12.125, 13.0);
  fill.bytes_written = 1024;
  t.events.push_back(fill);
  t.events.push_back(
      event(4, OpKind::EventRecord, Vendor::NVIDIA, 0, "record", 3.25, 3.25));
  t.events.push_back(
      event(5, OpKind::Sync, Vendor::NVIDIA, 2, "sync", 3.25, 3.25));
  TraceEvent k2 = event(6, OpKind::Kernel, Vendor::NVIDIA, 0,
                        "triad \"q\" back\\slash\nnew\tline \xe6\x97\xa5 "
                        "\xf0\x9f\x9a\x80 ctrl-\x01",
                        4.0, 5.5);
  k2.items = 256;
  k2.bytes_read = 4096;
  k2.bytes_written = 2048;
  t.events.push_back(k2);

  KernelSummary folded;
  folded.vendor = Vendor::NVIDIA;
  folded.device = "Sim A100\tSXM \xc2\xb5";
  folded.name = "graph node \"copy\"";
  folded.model = "SYCL (DPC++)";
  folded.launches = 8;
  folded.items = 8192;
  folded.bytes = 131072;
  folded.sim_us = 40.0;
  folded.host_us = 6.5;
  folded.pct_of_peak = 2039.0;        // raw sum convention: the peak
  folded.launch_overhead_pct = 18.0;  // raw sum convention: latency sum
  t.folded.push_back(folded);
  t.dropped = 2;
  t.incomplete = 1;
  return t;
}

std::string golden(const char* file) {
  return std::string(MCMM_JSON_GOLDEN_DIR) + "/" + file;
}

TEST(GoldenGpuprofJson, ChromeTraceOfAnAdversarialTrace) {
  mcmm::testing::check_golden(golden("trace_chrome.json"),
                              adversarial_trace().chrome_json());
}

TEST(GoldenGpuprofJson, SummaryOfAnAdversarialTrace) {
  mcmm::testing::check_golden(golden("trace_summary.json"),
                              adversarial_trace().summary_json());
}

TEST(GoldenGpuprofJson, EmptyTrace) {
  const Trace empty;
  mcmm::testing::check_golden(golden("empty_chrome.json"),
                              empty.chrome_json());
  mcmm::testing::check_golden(golden("empty_summary.json"),
                              empty.summary_json());
}

}  // namespace
}  // namespace mcmm::gpuprof
