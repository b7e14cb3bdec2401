// Trace exporters: chrome://tracing JSON, per-kernel CSV summary, the
// aggregated text report, and the machine-readable JSON aggregate the
// `mcmm profile` wrapper consumes. Kernel labels are caller-controlled and
// may contain quotes, backslashes, control characters, or arbitrary UTF-8
// (the trace-validation tests fuzz exactly that); the JSON goes through
// core/json's writer, which escapes every string.

#include <algorithm>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "core/json.hpp"
#include "gpuprof/trace.hpp"
#include "gpusim/descriptor.hpp"

namespace mcmm::gpuprof {
namespace {

/// RFC-4180 CSV field: quoted when it contains a separator, quote, or
/// newline; embedded quotes doubled.
[[nodiscard]] std::string csv_field(std::string_view in) {
  if (in.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(in);
  }
  std::string out = "\"";
  for (const char c : in) {
    if (c == '"') out += '"';
    out += c;
  }
  out += "\"";
  return out;
}

[[nodiscard]] const char* chrome_category(OpKind k) noexcept {
  switch (k) {
    case OpKind::Kernel:
      return "kernel";
    case OpKind::MemcpyH2D:
    case OpKind::MemcpyD2H:
    case OpKind::MemcpyD2D:
    case OpKind::MemcpyP2P:
      return "memcpy";
    case OpKind::Memset:
      return "memset";
    case OpKind::GraphReplay:
      return "graph";
    case OpKind::EventRecord:
    case OpKind::Sync:
      break;
  }
  return "marker";
}

}  // namespace

std::string_view to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::Kernel:
      return "Kernel";
    case OpKind::MemcpyH2D:
      return "MemcpyH2D";
    case OpKind::MemcpyD2H:
      return "MemcpyD2H";
    case OpKind::MemcpyD2D:
      return "MemcpyD2D";
    case OpKind::MemcpyP2P:
      return "MemcpyP2P";
    case OpKind::Memset:
      return "Memset";
    case OpKind::EventRecord:
      return "EventRecord";
    case OpKind::Sync:
      return "Sync";
    case OpKind::GraphReplay:
      return "GraphReplay";
  }
  return "?";
}

std::vector<KernelSummary> Trace::kernel_summaries() const {
  // Keyed by (device, kernel name, model route) — the attribution grain a
  // roofline study needs. Ordered map for deterministic row order.
  std::map<std::tuple<std::string, std::string, std::string>, KernelSummary>
      rows;
  // Graph replays arrive pre-aggregated (see Trace::folded): merge their
  // raw sums first, then fold the timeline events on top.
  for (const KernelSummary& f : folded) {
    KernelSummary& row = rows[{f.device, f.name, f.model}];
    row.vendor = f.vendor;
    row.device = f.device;
    row.name = f.name;
    row.model = f.model;
    row.launches += f.launches;
    row.items += f.items;
    row.bytes += f.bytes;
    row.sim_us += f.sim_us;
    row.host_us += f.host_us;
    row.pct_of_peak = f.pct_of_peak;              // temporarily holds peak
    row.launch_overhead_pct += f.launch_overhead_pct;  // temporarily a sum
  }
  for (const TraceEvent& e : events) {
    if (e.kind != OpKind::Kernel && e.kind != OpKind::Memset) continue;
    KernelSummary& row = rows[{e.device, e.name, e.model}];
    row.vendor = e.vendor;
    row.device = e.device;
    row.name = e.name;
    row.model = e.model;
    ++row.launches;
    row.items += e.items;
    row.bytes += e.total_bytes();
    row.sim_us += e.sim_duration_us();
    row.host_us += e.host_duration_us();
    // Peak is a device constant; folding the latest event keeps the row
    // correct even if a device was reset with a new descriptor mid-trace.
    row.pct_of_peak = e.peak_gbps;  // temporarily holds peak, fixed below
    row.launch_overhead_pct += e.launch_latency_us;  // temporarily a sum
  }
  std::vector<KernelSummary> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) {
    const double peak = row.pct_of_peak;
    const double latency_sum = row.launch_overhead_pct;
    row.achieved_gbps =
        row.sim_us > 0 ? row.bytes / (row.sim_us * 1e3) : 0.0;
    row.pct_of_peak = peak > 0 ? 100.0 * row.achieved_gbps / peak : 0.0;
    row.launch_overhead_pct =
        row.sim_us > 0 ? 100.0 * latency_sum / row.sim_us : 0.0;
    out.push_back(std::move(row));
  }
  return out;
}

std::string Trace::chrome_json() const {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("traceEvents");
  w.begin_array(events.empty() ? JsonWriter::Layout::Inline
                               : JsonWriter::Layout::Lines);

  // Metadata: name the per-vendor processes and per-queue threads once.
  std::set<int> pids;
  std::set<std::pair<int, std::uint32_t>> tids;
  for (const TraceEvent& e : events) {
    const int pid = static_cast<int>(e.vendor);
    if (pids.insert(pid).second) {
      w.begin_object().key("ph").str("M").key("pid").integer(pid);
      w.key("tid").integer(0).key("name").str("process_name");
      w.key("args").begin_object();
      w.key("name").str(std::string(to_string(e.vendor)) + " \xc2\xb7 " +
                        e.device);
      w.end_object().end_object();
    }
    if (tids.emplace(pid, e.queue_id).second) {
      w.begin_object().key("ph").str("M").key("pid").integer(pid);
      w.key("tid").integer(e.queue_id).key("name").str("thread_name");
      w.key("args").begin_object();
      w.key("name").str("queue " + std::to_string(e.queue_id));
      w.end_object().end_object();
    }
  }

  for (const TraceEvent& e : events) {
    const bool instant =
        e.kind == OpKind::EventRecord || e.kind == OpKind::Sync;
    w.begin_object();
    if (instant) {
      w.key("ph").str("i").key("s").str("t");
    } else {
      w.key("ph").str("X");
    }
    w.key("pid").integer(static_cast<int>(e.vendor));
    w.key("tid").integer(e.queue_id);
    w.key("ts").fixed(e.sim_begin_us);
    if (!instant) w.key("dur").fixed(e.sim_duration_us());
    w.key("cat").str(chrome_category(e.kind));
    w.key("name").str(e.name);
    w.key("args").begin_object();
    w.key("op").str(to_string(e.kind));
    w.key("model").str(e.model);
    if (!e.launch.empty()) w.key("launch").str(e.launch);
    if (e.items != 0) w.key("items").integer(e.items);
    if (e.total_bytes() > 0) {
      w.key("bytes").fixed(e.total_bytes());
      if (e.sim_duration_us() > 0) {
        w.key("achieved_gbps")
            .fixed(e.total_bytes() / (e.sim_duration_us() * 1e3));
      }
    }
    if (e.flops > 0) w.key("flops").fixed(e.flops);
    w.key("host_duration_us").fixed(e.host_duration_us());
    w.end_object().end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").str("ms");
  w.key("otherData").begin_object();
  w.key("clock").str("simulated_us").key("dropped").integer(dropped);
  w.end_object().end_object();
  return out;
}

std::string Trace::summary_csv() const {
  std::string out =
      "vendor,device,kernel,model,launches,items,bytes,sim_us,host_us,"
      "achieved_gbps,pct_of_peak,launch_overhead_pct\n";
  for (const KernelSummary& r : kernel_summaries()) {
    out += csv_field(to_string(r.vendor));
    out += ',';
    out += csv_field(r.device);
    out += ',';
    out += csv_field(r.name);
    out += ',';
    out += csv_field(r.model);
    out += ',';
    out += std::to_string(r.launches);
    out += ',';
    out += std::to_string(r.items);
    out += ',';
    out += fixed_text(r.bytes);
    out += ',';
    out += fixed_text(r.sim_us);
    out += ',';
    out += fixed_text(r.host_us);
    out += ',';
    out += fixed_text(r.achieved_gbps);
    out += ',';
    out += fixed_text(r.pct_of_peak);
    out += ',';
    out += fixed_text(r.launch_overhead_pct);
    out += '\n';
  }
  return out;
}

std::string Trace::text_report() const {
  std::ostringstream out;
  out << "========= gpuprof =========\n";
  out << events.size() << " event(s) recorded";
  if (dropped != 0) out << " (" << dropped << " dropped at the cap)";
  if (incomplete != 0) out << ", " << incomplete << " still open";
  out << "\n\n";

  out << "device roofline reference (nominal DRAM bandwidth):\n";
  for (const Vendor v : {Vendor::AMD, Vendor::Intel, Vendor::NVIDIA}) {
    const gpusim::DeviceDescriptor d = gpusim::descriptor_for(v);
    out << "  " << std::left << std::setw(8) << to_string(v) << std::setw(34)
        << d.name << std::right << std::fixed << std::setprecision(0)
        << std::setw(6) << d.mem_bandwidth_gbps << " GB/s\n";
  }
  out << "\n";

  const std::vector<KernelSummary> rows = kernel_summaries();
  if (rows.empty()) {
    out << "no kernel launches recorded\n";
    return std::move(out).str();
  }
  out << "per-kernel attribution (simulated time):\n";
  out << std::left << std::setw(8) << "Vendor" << std::setw(22) << "Kernel"
      << std::setw(22) << "Model" << std::right << std::setw(9) << "Launches"
      << std::setw(12) << "Items" << std::setw(12) << "MiB" << std::setw(12)
      << "Sim us" << std::setw(10) << "GB/s" << std::setw(8) << "%peak"
      << std::setw(9) << "launch%" << "\n";
  out << std::string(124, '-') << "\n";
  for (const KernelSummary& r : rows) {
    // Control characters in adversarial labels would corrupt the table.
    std::string name = r.name.substr(0, 21);
    std::replace_if(
        name.begin(), name.end(),
        [](char c) { return static_cast<unsigned char>(c) < 0x20; }, '?');
    out << std::left << std::setw(8) << to_string(r.vendor) << std::setw(22)
        << name << std::setw(22) << r.model.substr(0, 21) << std::right
        << std::setw(9) << r.launches << std::setw(12) << r.items
        << std::setw(12) << std::fixed << std::setprecision(2)
        << r.bytes / (1024.0 * 1024.0) << std::setw(12)
        << std::setprecision(2) << r.sim_us << std::setw(10)
        << std::setprecision(1) << r.achieved_gbps << std::setw(8)
        << std::setprecision(1) << r.pct_of_peak << std::setw(9)
        << std::setprecision(1) << r.launch_overhead_pct << "\n";
  }
  return std::move(out).str();
}

std::string Trace::summary_json() const {
  const std::vector<KernelSummary> rows = kernel_summaries();
  std::string out;
  JsonWriter w(out, JsonWriter::Style::Spaced);
  w.begin_object(JsonWriter::Layout::Lines);
  w.key("schema").str("mcmm-gpuprof-v1");
  w.key("events").integer(events.size());
  w.key("dropped").integer(dropped);
  w.key("incomplete").integer(incomplete);
  w.key("kernels").begin_array(rows.empty() ? JsonWriter::Layout::Inline
                                            : JsonWriter::Layout::Lines);
  for (const KernelSummary& r : rows) {
    w.begin_object();
    w.key("vendor").str(to_string(r.vendor));
    w.key("device").str(r.device);
    w.key("kernel").str(r.name);
    w.key("model").str(r.model);
    w.key("launches").integer(r.launches);
    w.key("items").integer(r.items);
    w.key("bytes").fixed(r.bytes);
    w.key("sim_us").fixed(r.sim_us);
    w.key("host_us").fixed(r.host_us);
    w.key("achieved_gbps").fixed(r.achieved_gbps);
    w.key("pct_of_peak").fixed(r.pct_of_peak);
    w.key("launch_overhead_pct").fixed(r.launch_overhead_pct);
    w.end_object();
  }
  w.end_array().end_object();
  return out;
}

}  // namespace mcmm::gpuprof
