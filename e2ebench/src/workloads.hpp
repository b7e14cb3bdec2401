#pragma once
// The workloads and the per-layer probes. Each workload returns an
// Outcome whose e2e list carries the same four metric names (their
// per-workload meaning is tabled in e2ebench/README.md).

#include <cstdint>
#include <string>

#include <vector>

#include "common.hpp"
#include "core/planner.hpp"
#include "http.hpp"

namespace mcmm::perfport {
struct PerfReport;
}

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string mcmm;  ///< path of the mcmm binary under test
  std::string self;  ///< path of this binary (cold set-up probe)
  std::string root;  ///< checkout root (Figure 1/2 goldens)
};

/// Offered rate of the kb_* open-loop phase and its connection count. The
/// rate is a light load: 2.5% of kb_serve's median closed-loop throughput on
/// the 4-vCPU host the benchmark was tuned on (see e2ebench/README.md), so
/// the open-loop latency is a request's service and wire time, not queueing
/// behind earlier requests.
inline constexpr double kOfferedRate = 2000.0;
inline constexpr unsigned kConnections = 4;

/// sim_stream array size (doubles per array).
inline constexpr std::size_t kLargeN = std::size_t{1} << 25;

/// The kb_* request mix: every distinct request with its in-process
/// reference answer, and the seeded order they are sent in.
struct Mix {
  std::vector<Template> templates;
  std::vector<std::uint32_t> sequence;
  std::vector<mcmm::PlannerQuery> queries;  ///< bodies of the Plan templates
};

/// Builds the mix for `opt.seed`; the reference checks it makes (Figure 1
/// golden against the in-process txt matrix) are counted into `out`.
Mix build_mix(const Options& opt, Outcome& out);

Outcome run_kb(const Options& opt, bool cluster);
Outcome run_perfbench(const Options& opt);
Outcome run_sim_stream(const Options& opt);

/// Traced runs: the layer metrics of a kb_* target the workload does not
/// run itself, from a short traced phase against a fresh one — `mcmm serve
/// --perf` gives the serve.* and loadgen.* metrics, `mcmm cluster 2`
/// (`cluster`) the gateway.* metrics.
void kb_layer_probe(const Options& opt, bool cluster, Outcome& out);

/// Traced runs: per-model Triad figures for workloads other than
/// sim_stream (a short sim_stream pass).
void stream_layer_probe(const Options& opt, Outcome& out);

/// Traced runs: the in-process layer timers (data, render, serve.http,
/// serve.api, serve.json, core, perfport, gpusim, gpuprof, pstlx).
/// `report` is an already-run default campaign and `campaign_s` its wall
/// time, or null to run one here.
void in_process_layers(const Options& opt,
                       const mcmm::perfport::PerfReport* report,
                       double campaign_s, Outcome& out);

/// Reads a file of the checkout; throws when it is missing.
std::string read_file(const std::string& path);

int run_selftests();

}  // namespace e2e
