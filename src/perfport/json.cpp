// BENCH_perfport.json writer (schema "mcmm-perfport-v1"): raw route
// samples plus the aggregated Figure 2 rows. Only simulated-clock
// quantities appear, so the payload is byte-deterministic across host
// thread counts — asserted by tests and diffed by the perf-trajectory CI
// job.

#include "core/json.hpp"
#include "perfport/perfport.hpp"

namespace mcmm::perfport {

std::string report_json(const PerfReport& report) {
  constexpr auto kLines = JsonWriter::Layout::Lines;
  std::string out;
  JsonWriter w(out, JsonWriter::Style::Spaced);
  w.begin_object(kLines);
  w.key("schema").str("mcmm-perfport-v1");

  w.key("config").begin_object();
  w.key("sizes").begin_array();
  for (const std::size_t n : report.config.sizes) w.integer(n);
  w.end_array();
  w.key("reps").integer(report.config.reps);
  w.key("schedules").begin_array();
  for (const gpusim::Schedule s : report.config.schedules) w.str(to_string(s));
  w.end_array();
  w.key("vendors").begin_array();
  for (const Vendor v : report.config.vendors) w.str(to_string(v));
  w.end_array().end_object();

  w.key("route_count").integer(report.route_count);
  w.key("kernel_count").integer(report.config.kernels.empty()
                                    ? kAllPerfKernels.size()
                                    : report.config.kernels.size());

  // The weak-scaling section only appears when the report carries one, so
  // campaign-only payloads stay byte-identical to the committed goldens.
  if (!report.weak_scaling.empty()) {
    w.key("weak_scaling").begin_array(kLines);
    for (const WeakScalingSample& ws : report.weak_scaling) {
      w.begin_object();
      w.key("vendor").str(to_string(ws.vendor));
      w.key("devices").integer(ws.devices);
      w.key("n_per_device").integer(ws.n_per_device);
      w.key("reps").integer(ws.reps);
      w.key("graph_nodes").integer(ws.graph_nodes);
      w.key("sim_us").fixed(ws.sim_us);
      w.key("p2p_us").fixed(ws.p2p_us);
      w.key("efficiency").fixed(ws.efficiency);
      w.key("verified").boolean(ws.verified);
      w.key("shares").begin_array();
      for (const DeviceShare& s : ws.shares) {
        w.begin_object();
        w.key("device").str(s.device);
        w.key("ordinal").integer(s.ordinal);
        w.key("sim_us").fixed(s.sim_us);
        w.key("achieved_gbps").fixed(s.achieved_gbps);
        w.key("pct_of_peak").fixed(s.pct_of_peak);
        w.end_object();
      }
      w.end_array().end_object();
    }
    w.end_array();
  }

  w.key("samples").begin_array(kLines);
  for (const RouteSample& s : report.samples) {
    w.begin_object();
    w.key("route").str(s.route);
    w.key("model").str(to_string(s.model));
    w.key("vendor").str(to_string(s.vendor));
    w.key("schedule").str(s.schedule);
    w.key("kernel").str(to_string(s.kernel));
    w.key("n").integer(s.n);
    w.key("launches").integer(s.launches);
    w.key("sim_us").fixed(s.sim_us);
    w.key("achieved_gbps").fixed(s.achieved_gbps);
    w.key("pct_of_peak").fixed(s.pct_of_peak);
    w.key("peak_gbps").fixed(s.peak_gbps);
    w.key("verified").boolean(s.verified);
    w.end_object();
  }
  w.end_array();

  w.key("rows").begin_array(kLines);
  for (const PerfRow& r : report.rows) {
    w.begin_object();
    w.key("model").str(to_string(r.model));
    w.key("kernel").str(to_string(r.kernel));
    w.key("pp").fixed(r.pp);
    w.key("cells").begin_array();
    for (const PerfCell& c : r.cells) {
      w.begin_object();
      w.key("vendor").str(to_string(c.vendor));
      w.key("supported").boolean(c.supported);
      w.key("efficiency").fixed(c.efficiency);
      w.key("route").str(c.route);
      w.key("achieved_gbps").fixed(c.achieved_gbps);
      w.end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace mcmm::perfport
