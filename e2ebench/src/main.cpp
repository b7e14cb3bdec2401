// e2ebench: runs one workload against the mcmm build under test and
// prints its report lines, the last one the result object run.py turns
// into the benchmark's output.
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1
//            --mcmm PATH --root DIR
//   e2ebench --selftest       the benchmark's own self-tests
//   e2ebench --setup-probe    cold process: dataset + platform, then exit

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "data/dataset.hpp"
#include "gpusim/device.hpp"
#include "workloads.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

std::string cache_size(int level) {
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    try {
      if (std::stoi(read_file(dir + "level")) == level) {
        std::string s = read_file(dir + "size");
        while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
          s.pop_back();
        }
        return s;
      }
    } catch (const std::exception&) {
      break;
    }
  }
  return "unknown";
}

std::string fingerprint(const Options& opt) {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned listener_threads = std::min(hw == 0 ? 1u : hw, 8u);
  std::string f = "{\"fingerprint\":{";
  f += "\"workload\":\"" + opt.workload + "\",\"seed\":" + std::to_string(opt.seed);
  f += ",\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  f += ",\"l2\":\"" + cache_size(2) + "\",\"l3\":\"" + cache_size(3) + "\"";
  f += ",\"compiler\":\"" + std::string(__VERSION__) + "\"";
  f += ",\"build_type\":\"" E2E_BUILD_TYPE "\"";
  f += ",\"pool_workers\":" +
       std::to_string(mcmm::gpusim::ThreadPool::global().worker_count());
  f += ",\"server_threads\":" + std::to_string(listener_threads);
  f += ",\"connections\":" + std::to_string(kConnections);
  f += ",\"offered_rate_per_s\":" + num(kOfferedRate);
  f += ",\"large_n\":" + std::to_string(kLargeN) +
       ",\"large_arrays_mib\":" + std::to_string(3 * kLargeN * 8 >> 20);
  return f + "}}";
}

int run(const Options& opt) {
  Outcome out;
  if (opt.workload == "kb_serve") {
    out = run_kb(opt, false);
  } else if (opt.workload == "kb_cluster") {
    out = run_kb(opt, true);
  } else if (opt.workload == "perfbench") {
    out = run_perfbench(opt);
  } else if (opt.workload == "sim_stream") {
    out = run_sim_stream(opt);
  } else {
    std::cerr << "e2ebench: unknown workload " << opt.workload << "\n";
    return 2;
  }
  if (opt.trace) {
    // Layers the workload does not exercise itself are timed by probes, so
    // every traced run reports every per-layer metric, each with the same
    // meaning on every workload.
    if (opt.workload != "kb_serve") kb_layer_probe(opt, false, out);
    if (opt.workload != "kb_cluster") kb_layer_probe(opt, true, out);
    if (opt.workload != "sim_stream") stream_layer_probe(opt, out);
    if (opt.workload != "perfbench") in_process_layers(opt, nullptr, 0, out);
  }
  // The self-tests count as checked operations of every run.
  const int selftest_failures = run_selftests();
  out.attempted += 1;
  out.failed += selftest_failures == 0 ? 0 : 1;

  std::cout << fingerprint(opt) << "\n";
  std::cout << "{\"figures\":" << metrics_json(out.figures) << "}\n";
  if (opt.trace) {
    std::cout << "{\"tracing_overhead\":" << metrics_json(out.overhead) << "}\n";
  }
  std::cout << "E2E_RESULT {\"correct\":" << (out.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
            << ",\"metrics\":" << metrics_json(opt.trace ? out.layers : out.e2e)
            << "}\n";
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  e2e::Options opt;
  opt.self = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--selftest") {
        const int failures = e2e::run_selftests();
        std::cout << "e2ebench selftest: " << failures << " failure(s)\n";
        return failures == 0 ? 0 : 1;
      } else if (a == "--setup-probe") {
        (void)mcmm::data::paper_matrix();
        for (const mcmm::Vendor v : mcmm::kAllVendors) {
          (void)mcmm::gpusim::Platform::instance().device(v);
        }
        (void)mcmm::gpusim::ThreadPool::global();
        return 0;
      } else if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() == "1";
      } else if (a == "--mcmm") {
        opt.mcmm = value();
      } else if (a == "--root") {
        opt.root = value();
      } else {
        throw std::invalid_argument("unknown argument " + a);
      }
    } catch (const std::exception& e) {
      std::cerr << "e2ebench: " << e.what() << "\n";
      return 2;
    }
  }
  try {
    return e2e::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
