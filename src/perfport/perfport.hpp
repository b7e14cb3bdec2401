#pragma once
// perfport: the BabelStream performance-portability campaign — the paper's
// named future work (Sec. 5/6). It runs the extended stream suite
// (Copy/Mul/Add/Triad/Dot + Reduce + Uneven) over every (model x vendor x
// schedule) route the compatibility matrix allows on gpusim, measures each
// route through gpuprof's per-kernel roofline summaries (achieved GB/s vs
// the vendor's peak — the ProfilerHooks path, not re-instrumentation), and
// derives the two literature metrics:
//
//   - efficiency-vs-peak per (model, kernel, vendor) cell, as in Fridman
//     et al.'s OpenMP-offloading study: achieved bandwidth / vendor peak;
//   - Reguly's harmonic-mean performance portability per (model, kernel):
//       PP(a, p, H) = |H| / sum_{i in H} 1/e_i   if a is supported on all
//       of H, else 0 (the Pennycook convention for unsupported platforms).
//
// The result renders as "Figure 2" next to the compatibility matrix's
// Figure 1 (src/render/perf.hpp) and serves at GET /v1/perf.
//
// This header is deliberately self-contained over core + the gpusim
// Schedule enum so the render layer can consume the report types without
// linking the campaign (which pulls in the model embeddings).

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "gpusim/thread_pool.hpp"  // gpusim::Schedule

namespace mcmm::perfport {

/// Kernels of the campaign, in run order within one repetition.
enum class PerfKernel : std::uint8_t {
  Copy,
  Mul,
  Add,
  Triad,
  Dot,
  Reduce,
  Uneven,
};

inline constexpr std::array<PerfKernel, 7> kAllPerfKernels{
    PerfKernel::Copy, PerfKernel::Mul,    PerfKernel::Add,   PerfKernel::Triad,
    PerfKernel::Dot,  PerfKernel::Reduce, PerfKernel::Uneven};

[[nodiscard]] constexpr std::string_view to_string(PerfKernel k) noexcept {
  switch (k) {
    case PerfKernel::Copy:
      return "Copy";
    case PerfKernel::Mul:
      return "Mul";
    case PerfKernel::Add:
      return "Add";
    case PerfKernel::Triad:
      return "Triad";
    case PerfKernel::Dot:
      return "Dot";
    case PerfKernel::Reduce:
      return "Reduce";
    case PerfKernel::Uneven:
      return "Uneven";
  }
  return "?";
}

[[nodiscard]] constexpr std::string_view to_string(
    gpusim::Schedule s) noexcept {
  return s == gpusim::Schedule::Static ? "static" : "dynamic";
}

/// Campaign parameters. The defaults are what the committed Figure 2
/// golden, `mcmm perfbench`, and GET /v1/perf all use — they must agree
/// for the golden-byte gates to hold.
struct CampaignConfig {
  /// Problem-size ladder, ascending; cells are scored at the last entry.
  std::vector<std::size_t> sizes{1u << 16, 1u << 18, 1u << 20};
  int reps{2};
  /// Vendor set H of the PP metric, in report order.
  std::vector<Vendor> vendors{Vendor::AMD, Vendor::Intel, Vendor::NVIDIA};
  /// Host-side launch schedules to sweep (models without a schedule knob
  /// run identically under both; simulated time is schedule-invariant).
  std::vector<gpusim::Schedule> schedules{gpusim::Schedule::Static,
                                          gpusim::Schedule::Dynamic};
  /// Empty = all models with a stream embedding / all suite kernels.
  std::vector<Model> models{};
  std::vector<PerfKernel> kernels{};
};

/// One measured (route, schedule, size, kernel) point, straight from the
/// gpuprof roofline summary of that route's capture. Only simulated-clock
/// quantities are recorded, so a campaign is bit-deterministic across
/// host thread counts.
struct RouteSample {
  std::string route;  ///< e.g. "SYCL(DPC++)"
  Model model{};
  Vendor vendor{};
  std::string schedule;  ///< "static" / "dynamic"
  PerfKernel kernel{};
  std::size_t n{};
  std::uint64_t launches{};
  double sim_us{};
  double achieved_gbps{};
  double pct_of_peak{};  ///< 0..100
  double peak_gbps{};
  bool verified{};
};

/// One (model, kernel, vendor) cell: best efficiency-vs-peak over that
/// model's routes and schedules at the top ladder size.
struct PerfCell {
  Vendor vendor{};
  bool supported{false};
  double efficiency{0};  ///< 0..1; 0 when unsupported
  std::string route;     ///< winning route label; empty when unsupported
  double achieved_gbps{0};
};

/// One Figure 2 row: a (model, kernel) pair with per-vendor cells and the
/// Reguly PP over the campaign's vendor set.
struct PerfRow {
  Model model{};
  PerfKernel kernel{};
  std::vector<PerfCell> cells;  ///< aligned with PerfReport::vendors
  double pp{0};
};

/// Weak-scaling campaign parameters: the BabelStream cycle plus
/// Reduce/Uneven at a fixed problem size *per device*, captured once into
/// a per-device kernel graph and replayed `reps` times on 1/2/4 devices
/// of each vendor. Dot/Reduce partial results are gathered to device 0
/// over the simulated peer link.
struct WeakScalingConfig {
  std::size_t n_per_device{1u << 20};
  int reps{2};
  std::vector<unsigned> device_counts{1, 2, 4};
  std::vector<Vendor> vendors{Vendor::AMD, Vendor::Intel, Vendor::NVIDIA};
};

/// One device's share of a weak-scaling scenario, from the gpuprof
/// roofline attribution of its folded graph-replay samples.
struct DeviceShare {
  std::string device;  ///< ordinal-suffixed name, e.g. "... MI250X-like #1"
  unsigned ordinal{};
  double sim_us{};         ///< kernel+memset simulated time on this device
  double bytes{};          ///< declared traffic across the suite kernels
  double achieved_gbps{};  ///< bytes / sim time, aggregate over the suite
  double pct_of_peak{};    ///< achieved vs the device's nominal peak
};

/// One (vendor, device count) weak-scaling point. sim_us is T_N: the
/// maximum simulated queue time over the scenario's devices after the
/// result gather (replays + P2P communication; verification D2H reads are
/// excluded). Weak-scaling efficiency is T_1 / T_N, ideal 1.0 — the gap
/// is the inter-device gather cost.
struct WeakScalingSample {
  Vendor vendor{};
  unsigned devices{};
  std::size_t n_per_device{};
  int reps{};
  std::size_t graph_nodes{};  ///< nodes in each per-device captured graph
  double sim_us{};            ///< T_N, microseconds
  double p2p_us{};            ///< simulated peer-link time of the gather
  double efficiency{};        ///< T_1 / T_N in [0, 1]
  bool verified{};
  std::vector<DeviceShare> shares;  ///< ordinal order
};

struct PerfReport {
  CampaignConfig config;
  std::size_t route_count{0};  ///< distinct (route, vendor) pairs run
  std::vector<RouteSample> samples;
  std::vector<PerfRow> rows;  ///< model-major, kernel-minor
  /// Multi-device weak-scaling section (run_weak_scaling); empty unless
  /// requested — an empty vector is omitted from the JSON payload and the
  /// Figure 2 renders, keeping the single-device goldens byte-stable.
  std::vector<WeakScalingSample> weak_scaling;
};

/// Reguly's performance-portability metric over a platform set's
/// efficiencies: the harmonic mean |H| / sum(1/e_i) when every e_i > 0,
/// and 0 as soon as any platform is unsupported (e_i <= 0). Efficiencies
/// are fractions in [0, 1].
[[nodiscard]] double performance_portability(
    const std::vector<double>& efficiencies) noexcept;

/// Aggregates raw samples into Figure 2 rows (best route per cell at
/// `top_n`, PP over `vendors`). Exposed separately from run_campaign for
/// metric-math tests.
[[nodiscard]] std::vector<PerfRow> build_rows(
    const std::vector<RouteSample>& samples,
    const std::vector<Vendor>& vendors, std::size_t top_n);

/// The campaign's result oracle: true when the read-back arrays (at least
/// `n` elements each) and the Dot/Reduce values match a scalar replay of
/// `reps` repetitions of the extended cycle — copy, mul, add, triad, dot,
/// reduce, uneven. Every element evolves identically, except that Uneven
/// leaves c holding tile prefix sums of the post-triad a (the next
/// repetition's copy rewrites c before mul reads it, so the a/b recurrence
/// is untouched). The element check runs in chunks on the global pool.
[[nodiscard]] bool verify_suite(const std::vector<double>& a,
                                const std::vector<double>& b,
                                const std::vector<double>& c, double dot,
                                double reduce, std::size_t n, int reps);

/// Runs the campaign: every stream route of every requested vendor, under
/// every requested schedule and size, measured via
/// gpuprof::capture_kernel_summaries. Takes exclusive use of the profiler
/// for the duration (see that function's contract). The AMD stdpar route
/// (roc-stdpar) is toggled on for the campaign and restored afterwards,
/// mirroring the executable-matrix benches.
[[nodiscard]] PerfReport run_campaign(const CampaignConfig& config = {});

/// Runs the multi-device weak-scaling campaign on pristine devices: per
/// (vendor, device count) the suite graph is captured once per device and
/// replayed, partials are gathered to device 0 over the peer link, and
/// per-device roofline shares come from gpuprof's folded graph-replay
/// attribution. Takes exclusive use of the profiler; materialized sibling
/// devices are trimmed back (one pristine device per vendor remains).
[[nodiscard]] std::vector<WeakScalingSample> run_weak_scaling(
    const WeakScalingConfig& config = {});

/// BENCH_perfport.json payload (schema "mcmm-perfport-v1").
[[nodiscard]] std::string report_json(const PerfReport& report);

}  // namespace mcmm::perfport
