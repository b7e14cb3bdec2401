// The traced run's in-process layer timers: each layer is called through
// its public functions from here, with the benchmark's own clock around
// the call (spans inside the program are not part of this benchmark).

#include <functional>

#include "core/planner.hpp"
#include "data/dataset.hpp"
#include "gpuprof/gpuprof.hpp"
#include "gpusim/device.hpp"
#include "perfport/perfport.hpp"
#include "bench_support/stream.hpp"
#include "pstlx/pstlx.hpp"
#include "render/perf.hpp"
#include "render/render.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

/// Median over `samples` runs of the wall seconds of `ops` calls of `f`,
/// divided by `ops`.
double per_call_s(int samples, int ops, const std::function<void()>& f) {
  std::vector<double> s;
  for (int i = 0; i < samples; ++i) {
    const auto t0 = Clock::now();
    for (int j = 0; j < ops; ++j) f();
    s.push_back(seconds_since(t0) / ops);
  }
  return median(s);
}

void gpusim_layers(Outcome& out) {
  namespace gs = mcmm::gpusim;
  auto& platform = gs::Platform::instance();
  gs::Device& dev = platform.device(mcmm::Vendor::NVIDIA);
  const auto q = dev.create_queue();
  const gs::LaunchConfig one{gs::Dim3{}, gs::Dim3{}};
  const gs::KernelCosts none{};
  const auto empty = [&] { q->launch(one, none, [](const gs::WorkItem&) {}); };
  const double launch_s = per_call_s(5, 100000, empty);
  out.layers.emplace_back("gpusim.launch_ns", launch_s * 1e9);

  mcmm::gpuprof::enable();
  const double traced_s = per_call_s(5, 100000, empty);
  mcmm::gpuprof::disable();
  mcmm::gpuprof::reset();
  out.layers.emplace_back("gpuprof.hook_ns_per_launch", (traced_s - launch_s) * 1e9);

  // A direct Triad launch, no model layer.
  const std::size_t n = kLargeN;
  const std::size_t bytes = n * sizeof(double);
  auto* a = static_cast<double*>(dev.allocate(bytes));
  auto* b = static_cast<double*>(dev.allocate(bytes));
  auto* c = static_cast<double*>(dev.allocate(bytes));
  const gs::LaunchConfig grid{gs::Dim3{static_cast<std::uint32_t>(n / 256)},
                              gs::Dim3{256}};
  q->launch(grid, none, [=](const gs::WorkItem& it) {
    a[it.global_linear] = 0.1;
    b[it.global_linear] = 0.2;
    c[it.global_linear] = 0.3;
  });
  const gs::KernelCosts triad{2.0 * bytes, 1.0 * bytes, 2.0 * n};
  const auto body = [=](const gs::WorkItem& it) {
    const std::uint64_t i = it.global_linear;
    a[i] = b[i] + 0.4 * c[i];
  };
  q->launch(grid, triad, body);  // warm
  out.layers.emplace_back(
      "gpusim.triad_gbps",
      3.0 * bytes / per_call_s(5, 1, [&] { q->launch(grid, triad, body); }) / 1e9);
  out.check(a[n - 1] == 0.2 + 0.4 * 0.3, "direct Triad result");

  std::vector<double> host(n, 1.0);
  out.layers.emplace_back(
      "gpusim.memcpy_gbps",
      bytes / per_call_s(3, 1, [&] {
        q->memcpy(a, host.data(), bytes, gs::CopyKind::HostToDevice);
      }) / 1e9);
  out.check(a[n - 1] == 1.0, "host-to-device memcpy result");
  dev.deallocate(a);
  dev.deallocate(b);
  dev.deallocate(c);

  out.layers.emplace_back("gpusim.alloc_us", per_call_s(5, 1000, [&] {
                            dev.deallocate(dev.allocate(1u << 20));
                          }) * 1e6);
  out.layers.emplace_back(
      "gpusim.reset_device_ms",
      per_call_s(5, 1, [&] {
        (void)platform.reset_device(mcmm::Vendor::AMD,
                                    gs::descriptor_for(mcmm::Vendor::AMD));
      }) * 1e3);

  // gpuprof's per-kernel aggregation over a traced suite of all nine
  // model routes.
  const mcmm::gpuprof::Trace trace = mcmm::gpuprof::capture_trace([&] {
    for (auto& route : mcmm::bench::stream_benchmarks_for(mcmm::Vendor::NVIDIA)) {
      const auto results = mcmm::bench::run_stream(*route, 1u << 16, 10);
      out.check(!results.empty() && results.front().verified,
                route->label() + " traced suite verifies");
    }
  });
  out.layers.emplace_back("gpuprof.summaries_ms", per_call_s(5, 1, [&] {
                            (void)trace.kernel_summaries();
                          }) * 1e3);

  namespace sp = mcmm::stdparx;
  const sp::execution_policy pol(mcmm::Vendor::NVIDIA, sp::Runtime::NVHPC);
  const std::size_t m = 1u << 20;
  sp::device_vector<double> x(pol, m), y(pol, m);
  const std::vector<double> ones(m, 1.0), twos(m, 2.0);
  x.upload(ones.data(), m);
  y.upload(twos.data(), m);
  double sum = 0;
  out.layers.emplace_back("pstlx.transform_reduce_us", per_call_s(20, 1, [&] {
                            sum = mcmm::pstlx::transform_reduce(
                                pol, x.begin(), x.end(), y.begin(), 0.0);
                          }) * 1e6);
  out.check(sum == 2.0 * m, "pstlx transform_reduce result");
}

}  // namespace

void in_process_layers(const Options& opt,
                       const mcmm::perfport::PerfReport* report,
                       double campaign_s, Outcome& out) {
  namespace sv = mcmm::serve;
  const mcmm::CompatibilityMatrix& matrix = mcmm::data::paper_matrix();
  out.layers.emplace_back("data.matrix_ms", per_call_s(5, 1, [] {
                            (void)mcmm::data::build_paper_matrix();
                          }) * 1e3);

  mcmm::perfport::PerfReport local;
  if (report == nullptr) {
    const auto t0 = Clock::now();
    local = mcmm::perfport::run_campaign();
    campaign_s = seconds_since(t0);
    report = &local;
  }
  double launches = 0;
  for (const auto& s : report->samples) launches += static_cast<double>(s.launches);
  out.layers.emplace_back("perfport.run_campaign_s", campaign_s);
  out.layers.emplace_back("perfport.build_rows_ms", per_call_s(5, 1, [&] {
                            (void)mcmm::perfport::build_rows(
                                report->samples, report->config.vendors,
                                report->config.sizes.back());
                          }) * 1e3);
  out.layers.emplace_back("perfport.report_json_ms", per_call_s(5, 1, [&] {
                            (void)mcmm::perfport::report_json(*report);
                          }) * 1e3);
  out.layers.emplace_back("perfport.launches", launches);
  out.layers.emplace_back("render.figure1_ms", per_call_s(5, 10, [&] {
                            (void)mcmm::render::figure1_text(matrix);
                          }) * 1e3);
  out.layers.emplace_back("render.figure2_ms", per_call_s(5, 10, [&] {
                            (void)mcmm::render::figure2_text(*report);
                          }) * 1e3);
  out.layers.emplace_back("serve.api.construct_ms", per_call_s(3, 1, [&] {
                            const sv::Api api(matrix, nullptr, nullptr, report);
                          }) * 1e3);

  // The serve layers over the kb_* request mix in its seeded order (a
  // prefix of the sequence), answered by an Api that serves Figure 2 from
  // `report` as `mcmm serve --perf` does.
  constexpr std::size_t kRequests = 2048;
  const Mix mix = build_mix(opt, out);
  const sv::Api api(matrix, nullptr, nullptr, report);
  // The Plan templates come last, one per query, in query order.
  const std::size_t plan_begin = mix.templates.size() - mix.queries.size();
  std::vector<const std::string*> wires;
  std::vector<sv::Request> gets, plans;
  std::vector<const mcmm::PlannerQuery*> queries;
  std::vector<sv::Response> answers;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::uint32_t idx = mix.sequence[i];
    const Template& t = mix.templates[idx];
    sv::RequestParser p;
    out.check(p.feed(t.wire) == sv::RequestParser::Status::Complete,
              "request parses: " + t.name);
    sv::Request req = p.take_request();
    sv::Response r = api.handle(req);
    out.check(matches(t, HttpResponse{r.status, r.etag, r.body}),
              "in-process serve answers like the reference: " + t.name);
    wires.push_back(&t.wire);
    answers.push_back(std::move(r));
    if (t.kind == Template::Kind::Plan) {
      plans.push_back(std::move(req));
      queries.push_back(&mix.queries[idx - plan_begin]);
    } else {
      gets.push_back(std::move(req));
    }
  }
  const auto per_item_ns = [](std::size_t items, const std::function<void()>& f) {
    return per_call_s(5, 10, f) / static_cast<double>(items) * 1e9;
  };
  out.layers.emplace_back("serve.http.parse_ns", per_item_ns(wires.size(), [&] {
                            for (const std::string* w : wires) {
                              sv::RequestParser p;
                              (void)p.feed(*w);
                              (void)p.take_request();
                            }
                          }));
  out.layers.emplace_back("serve.http.serialize_ns",
                          per_item_ns(answers.size(), [&] {
                            for (const sv::Response& r : answers) {
                              (void)sv::serialize_response(r, false, true);
                            }
                          }));
  out.layers.emplace_back("serve.api.get_ns", per_item_ns(gets.size(), [&] {
                            for (const sv::Request& r : gets) (void)api.handle(r);
                          }));
  out.layers.emplace_back("serve.api.plan_ns", per_item_ns(plans.size(), [&] {
                            for (const sv::Request& r : plans) (void)api.handle(r);
                          }));
  out.layers.emplace_back("serve.json.parse_ns", per_item_ns(plans.size(), [&] {
                            for (const sv::Request& r : plans) {
                              (void)sv::json_parse(r.body);
                            }
                          }));
  const mcmm::RoutePlanner planner(matrix);
  out.layers.emplace_back("core.plan_ns", per_item_ns(queries.size(), [&] {
                            for (const auto* q : queries) (void)planner.plan(*q);
                          }));
  gpusim_layers(out);
}

}  // namespace e2e
