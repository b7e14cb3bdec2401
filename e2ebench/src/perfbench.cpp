// perfbench: the default Figure 2 campaign as its users run it — one cold
// `mcmm perfbench` process per sample, alternating the Figure 2 text and
// the BENCH_perfport JSON, each byte-compared with the in-process
// campaign's output (and the text also with the committed golden).

#include "perfport/perfport.hpp"
#include "proc.hpp"
#include "render/perf.hpp"
#include "workloads.hpp"

namespace e2e {

Outcome run_perfbench(const Options& opt) {
  Outcome out;
  // Set-up: a cold process that builds the dataset and the simulated
  // platform, i.e. everything before run_campaign starts.
  std::vector<double> setups;
  for (int i = 0; i < 21; ++i) {
    const auto t0 = Clock::now();
    Child probe({opt.self, "--setup-probe"});
    const int rc = probe.wait(60);
    setups.push_back(seconds_since(t0));
    out.check(rc == 0, "cold set-up probe exits 0");
  }

  const auto c0 = Clock::now();
  const mcmm::perfport::PerfReport report = mcmm::perfport::run_campaign();
  const double reference_s = seconds_since(c0);
  const std::string want_json = mcmm::perfport::report_json(report);
  const std::string want_txt = mcmm::render::figure2_text(report);
  out.check(want_txt == read_file(opt.root + "/tests/render/golden/figure2.txt"),
            "in-process Figure 2 equals the golden");

  double median_s = 0, steal = 0;
  const auto phase = [&](double seconds, Metrics& e2e) {
    std::vector<double> all, txt, json;
    const CpuTicks ticks0 = cpu_ticks();
    const auto start = Clock::now();
    // The seed picks which format goes first; at least six campaigns, so
    // at least three of each format.
    for (std::uint64_t i = opt.seed % 2;
         all.size() < 6 || seconds_since(start) < seconds; ++i) {
      const bool as_json = i % 2 == 1;
      const auto t0 = Clock::now();
      std::vector<std::string> argv{opt.mcmm, "perfbench"};
      if (as_json) argv.push_back("--json");
      Child run(argv);
      const auto body = run.read_all(170);
      const int rc = run.wait(10);
      const double t = seconds_since(t0);
      out.check(rc == 0 && body && *body == (as_json ? want_json : want_txt),
                as_json ? "perfbench --json equals the reference"
                        : "perfbench Figure 2 equals the reference");
      all.push_back(t);
      (as_json ? json : txt).push_back(t);
    }
    const double elapsed = seconds_since(start);
    steal = steal_share(ticks0, cpu_ticks());
    median_s = median(all);
    // Three separate figures: the phase's sample throughput over every
    // campaign, and the fastest campaign of each output format — the
    // undisturbed side, as for kb_* (see kb.cpp on the shared host's
    // interference bursts).
    const double samples = static_cast<double>(report.samples.size());
    e2e = {{"setup_s", median(setups)},
           {"ops_per_s", samples * static_cast<double>(all.size()) / elapsed},
           {"op_us", quantile(txt, 0.1) * 1e6},
           {"heavy_us", quantile(json, 0.1) * 1e6}};
  };
  phase(opt.seconds, out.e2e);
  out.figures = {{"campaign_s", out.e2e[2].second / 1e6},
               {"campaign_median_s", median_s},
               {"steal_share", steal},
               {"campaign_samples", static_cast<double>(report.samples.size())},
               {"routes", static_cast<double>(report.route_count)}};
  if (opt.trace) {
    // Nothing is instrumented on the timed path (the campaigns are cold
    // processes); the second phase's delta is the run-to-run noise floor.
    Metrics traced;
    phase(opt.seconds, traced);
    for (std::size_t i = 1; i < traced.size(); ++i) {
      out.overhead.emplace_back(traced[i].first,
                                traced[i].second / out.e2e[i].second - 1);
    }
    in_process_layers(opt, &report, reference_s, out);
  }
  return out;
}

}  // namespace e2e
