// kb_serve / kb_cluster: the knowledge base queried over HTTP through
// `mcmm serve --perf` or `mcmm cluster 2`, by one generator thread on four
// keep-alive connections — a closed-loop phase for throughput, then a
// fixed-rate open-loop phase for latency. Every answer is compared with
// the in-process serve::Api answer to the same request bytes.

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/support.hpp"
#include "data/dataset.hpp"
#include "proc.hpp"
#include "prom.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/json.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using mcmm::PlannerQuery;

constexpr const char* kHealthPrefix = "{\"status\":\"ok\"";

std::string plus_escaped(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '+') {
      out += "%2B";
    } else {
      out += c;
    }
  }
  return out;
}

std::string get_wire(const std::string& target, const std::string& etag) {
  std::string wire = "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  if (!etag.empty()) wire += "If-None-Match: " + etag + "\r\n";
  return wire + "\r\n";
}

std::string plan_body(const PlannerQuery& q) {
  static constexpr const char* kCategories[] = {"full", "indirect", "some",
                                                "nonvendor", "limited"};
  std::string b = "{\"language\":" +
                  mcmm::serve::json_quote(mcmm::to_string(q.language));
  b += ",\"must_run_on\":[";
  for (std::size_t i = 0; i < q.must_run_on.size(); ++i) {
    if (i != 0) b += ',';
    b += mcmm::serve::json_quote(mcmm::to_string(q.must_run_on[i]));
  }
  b += "],\"allowed_models\":[";
  for (std::size_t i = 0; i < q.allowed_models.size(); ++i) {
    if (i != 0) b += ',';
    b += mcmm::serve::json_quote(mcmm::to_string(q.allowed_models[i]));
  }
  b += "],\"minimum_category\":\"";
  b += kCategories[static_cast<int>(q.minimum_category)];
  b += "\",\"require_maintained\":";
  b += q.require_maintained ? "true" : "false";
  b += ",\"require_vendor_support\":";
  b += q.require_vendor_support ? "true" : "false";
  b += ",\"allow_translators\":";
  b += q.allow_translators ? "true" : "false";
  return b + "}";
}

PlannerQuery random_query(Rng& rng) {
  static constexpr mcmm::Language kLanguages[] = {
      mcmm::Language::Cpp, mcmm::Language::Fortran, mcmm::Language::Python};
  static constexpr mcmm::SupportCategory kCategories[] = {
      mcmm::SupportCategory::Full, mcmm::SupportCategory::IndirectGood,
      mcmm::SupportCategory::Some, mcmm::SupportCategory::NonVendorGood,
      mcmm::SupportCategory::Limited};
  PlannerQuery q;
  q.language = kLanguages[rng.below(3)];
  for (const mcmm::Vendor v : mcmm::kAllVendors) {
    if (rng.below(2) == 0) q.must_run_on.push_back(v);
  }
  if (rng.below(2) == 0) {
    for (const mcmm::Model m : mcmm::kAllModels) {
      if (rng.below(3) == 0) q.allowed_models.push_back(m);
    }
  }
  q.minimum_category = kCategories[rng.below(5)];
  q.require_maintained = rng.below(2) == 0;
  q.require_vendor_support = rng.below(5) == 0;
  q.allow_translators = rng.below(2) == 0;
  return q;
}

/// The reference answer to `wire`: parsed by the server's own request
/// parser, answered by an in-process Api over the same dataset.
Template reference(const mcmm::serve::Api& api, std::string wire,
                   std::string name, Template::Kind kind) {
  mcmm::serve::RequestParser parser;
  if (parser.feed(wire) != mcmm::serve::RequestParser::Status::Complete) {
    throw std::logic_error("generated request does not parse: " + name);
  }
  const mcmm::serve::Response r = api.handle(parser.take_request());
  Template t;
  t.kind = kind;
  t.wire = std::move(wire);
  t.name = std::move(name);
  t.status = r.status;
  t.body = r.body;
  t.etag = r.etag;
  return t;
}

struct Target {
  std::unique_ptr<Child> proc;
  std::uint16_t port{0};
  std::vector<std::uint16_t> replica_ports;
  double setup_s{0};
};

std::uint16_t port_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  std::size_t p = at + key.size();
  if (key == "http://") p = line.find(':', p) + 1;
  return static_cast<std::uint16_t>(std::strtoul(line.c_str() + p, nullptr, 10));
}

/// Launches the target and waits until it can serve the workload: for
/// serve, /healthz answers; for a cluster, /gateway/replicas lists both
/// replicas healthy *and* probed (a harvested pid — before the first probe
/// the registry reports every replica healthy by default).
Target start_target(const Options& opt, bool cluster) {
  Target t;
  const auto t0 = Clock::now();
  if (cluster) {
    t.proc = std::make_unique<Child>(
        std::vector<std::string>{opt.mcmm, "cluster", "2", "--port", "0"});
    for (int i = 0; i < 2; ++i) {
      const auto line = t.proc->wait_line("replica pid=", 120);
      if (!line) throw std::runtime_error("cluster did not start replicas");
      t.replica_ports.push_back(port_after(*line, "port="));
    }
    const auto line = t.proc->wait_line("gateway: listening on", 120);
    if (!line) throw std::runtime_error("cluster gateway did not start");
    t.port = port_after(*line, "http://");
  } else {
    t.proc = std::make_unique<Child>(std::vector<std::string>{
        opt.mcmm, "serve", "--perf", "--port", "0"});
    const auto line = t.proc->wait_line("listening on", 120);
    if (!line) throw std::runtime_error("serve did not start");
    t.port = port_after(*line, "http://");
  }
  for (;;) {
    if (seconds_since(t0) > 120) throw std::runtime_error("target not ready");
    if (cluster) {
      const auto r = http_get(t.port, "/gateway/replicas");
      if (r && r->status == 200) {
        std::size_t healthy = 0;
        for (std::size_t p = 0;
             (p = r->body.find("\"health\":\"healthy\"", p)) != std::string::npos;
             ++p) {
          ++healthy;
        }
        if (healthy == 2 && r->body.find("\"pid\":-1") == std::string::npos) {
          break;
        }
      }
    } else {
      const auto r = http_get(t.port, "/healthz");
      if (r && r->status == 200) break;
    }
    ::usleep(2000);
  }
  t.setup_s = seconds_since(t0);
  return t;
}

/// One measured phase: kWindows alternations of a closed-loop window
/// (throughput) and an open-loop window at kOfferedRate (latency). The
/// host this runs on is shared: its interference comes in bursts that
/// halve throughput and multiply tail latency for a second or more, and
/// can cover most of a run (a window's stolen-CPU share explains much of
/// it; see PhaseStats::steal). So each end-to-end figure is the decile of
/// the per-window figures on the undisturbed side — the 10th percentile
/// of the windows' latency p50s, the 90th of their throughputs — which
/// moves with the program but not with bursts covering most windows. The
/// pooled tails (loadgen.*_p90_us, *_p99_us) still report every request.
constexpr int kWindows = 30;

struct KbPhase {
  std::vector<PhaseStats> closed;
  std::vector<PhaseStats> open;
};

/// Every window's samples of `field`, pooled.
std::vector<double> pool(const std::vector<PhaseStats>& windows,
                         std::vector<double> PhaseStats::*field) {
  std::vector<double> all;
  for (const PhaseStats& s : windows) {
    all.insert(all.end(), (s.*field).begin(), (s.*field).end());
  }
  return all;
}

/// 10th percentile over the open windows of each window's q-quantile.
double open_quantile(const KbPhase& p, std::vector<double> PhaseStats::*field,
                     double q) {
  std::vector<double> per_window;
  for (const PhaseStats& s : p.open) per_window.push_back(quantile(s.*field, q));
  return quantile(per_window, 0.1);
}

KbPhase measure(LoadGen& gen, double seconds) {
  KbPhase p;
  for (int w = 0; w < kWindows; ++w) {
    p.closed.push_back(gen.closed_loop(0.4 * seconds / kWindows));
    p.open.push_back(gen.open_loop(0.6 * seconds / kWindows, kOfferedRate));
  }
  return p;
}

void count(const KbPhase& p, Outcome& out) {
  for (const auto* list : {&p.closed, &p.open}) {
    for (const PhaseStats& s : *list) {
      out.attempted += s.completed + s.failed;
      out.failed += s.failed;
    }
  }
}

/// Stolen-CPU share of every window, closed and open.
std::vector<double> steals(const KbPhase& p) {
  std::vector<double> out;
  for (const auto* list : {&p.closed, &p.open}) {
    for (const PhaseStats& s : *list) out.push_back(s.steal);
  }
  return out;
}

Metrics e2e_of(const KbPhase& p) {
  std::vector<double> rps;
  for (const PhaseStats& s : p.closed) {
    rps.push_back(static_cast<double>(s.completed) / s.elapsed_s);
  }
  return {{"setup_s", 0},
          {"ops_per_s", quantile(rps, 0.9)},
          {"op_us", open_quantile(p, &PhaseStats::get_us, 0.5)},
          {"heavy_us", open_quantile(p, &PhaseStats::plan_us, 0.5)}};
}

/// The `/metrics` scrape of the port the generator talks to.
Scrape scrape(const Target& t) {
  const auto r = http_get(t.port, "/metrics");
  if (!r || r->status != 200) throw std::runtime_error("/metrics scrape failed");
  return Scrape(r->body);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics of one traced phase from the scrape deltas around it:
/// the serve and loadgen layers against `mcmm serve`, the gateway layer
/// against a cluster (its front process).
Metrics layers_of(const Target& t, const Scrape& x, const Scrape& y,
                  const KbPhase& p) {
  Metrics m;
  // Minus one: the "before" scrape is itself recorded after it rendered.
  const double reqs = delta(x, y, "mcmm_http_requests_total") - 1;
  std::vector<double> service = pool(p.closed, &PhaseStats::service_us);
  for (const double us : pool(p.open, &PhaseStats::service_us)) {
    service.push_back(us);
  }
  const double client_mean = mean(service);
  if (t.replica_ports.empty()) {
    const double handle_mean =
        ratio(delta(x, y, "mcmm_http_request_duration_seconds_sum"),
              delta(x, y, "mcmm_http_request_duration_seconds_count")) *
        1e6;
    m.emplace_back("serve.loop.wakeups_per_req",
                   ratio(delta(x, y, "mcmm_eventloop_wakeups_total"), reqs));
    m.emplace_back("serve.loop.dispatches_per_req",
                   ratio(delta(x, y, "mcmm_eventloop_dispatches_total"), reqs));
    m.emplace_back(
        "serve.loop.rearms_per_req",
        ratio(delta(x, y, "mcmm_eventloop_epollout_rearms_total"), reqs));
    m.emplace_back("serve.handle_mean_us", handle_mean);
    m.emplace_back("serve.wire_wait_us", client_mean - handle_mean);
    m.emplace_back("loadgen.lag_p99_us",
                   quantile(pool(p.open, &PhaseStats::lag_us), 0.99));
    const auto gets = pool(p.open, &PhaseStats::get_us);
    const auto plans = pool(p.open, &PhaseStats::plan_us);
    m.emplace_back("loadgen.get_p90_us", quantile(gets, 0.9));
    m.emplace_back("loadgen.get_p99_us", quantile(gets, 0.99));
    m.emplace_back("loadgen.plan_p90_us", quantile(plans, 0.9));
    m.emplace_back("loadgen.plan_p99_us", quantile(plans, 0.99));
    return m;
  }
  const double up_mean =
      ratio(delta(x, y, "mcmm_gateway_upstream_duration_seconds_sum"),
            delta(x, y, "mcmm_gateway_upstream_duration_seconds_count")) *
      1e6;
  const double hedges = delta(x, y, "mcmm_gateway_hedges_total");
  double ok[2] = {0, 0};
  for (std::size_t i = 0; i < 2 && i < t.replica_ports.size(); ++i) {
    const std::string filter = "upstream=\"127.0.0.1:" +
                               std::to_string(t.replica_ports[i]) +
                               "\",result=\"ok\"";
    ok[i] = delta(x, y, "mcmm_gateway_upstream_requests_total", filter);
  }
  m.emplace_back("gateway.upstream_mean_us", up_mean);
  m.emplace_back("gateway.hop_us", client_mean - up_mean);
  m.emplace_back("gateway.retries_per_req",
                 ratio(delta(x, y, "mcmm_gateway_retries_total"), reqs));
  m.emplace_back("gateway.hedges_per_req", ratio(hedges, reqs));
  m.emplace_back("gateway.hedge_win_ratio",
                 ratio(delta(x, y, "mcmm_gateway_hedge_wins_total"), hedges));
  m.emplace_back("gateway.replica_skew",
                 ratio(std::fabs(ok[0] - ok[1]), ok[0] + ok[1]));
  m.emplace_back("gateway.ejections",
                 delta(x, y, "mcmm_gateway_ejections_total"));
  return m;
}

void stop_target(Target& t, Outcome& out) {
  out.check(t.proc->stop(30) == 0, "target exits cleanly on SIGTERM");
}

/// One traced phase with scrapes around it.
Metrics traced_phase(const Target& t, LoadGen& gen, double seconds,
                     KbPhase& phase) {
  const Scrape before = scrape(t);
  phase = measure(gen, seconds);
  const Scrape after = scrape(t);
  return layers_of(t, before, after, phase);
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing file: " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

Mix build_mix(const Options& opt, Outcome& out) {
  const mcmm::CompatibilityMatrix& matrix = mcmm::data::paper_matrix();
  const mcmm::serve::Api api(matrix);
  const std::string figure1 =
      read_file(opt.root + "/tests/render/golden/figure1.txt");
  const std::string figure2 =
      read_file(opt.root + "/tests/render/golden/figure2.txt");
  Mix mix;
  auto& ts = mix.templates;
  for (const char* f : {"json", "txt", "md", "csv", "html", "latex", "yaml"}) {
    const std::string target = std::string("/v1/matrix?format=") + f;
    ts.push_back(reference(api, get_wire(target, ""), target,
                           Template::Kind::Get));
  }
  out.check(ts[1].body == figure1, "in-process matrix txt equals the Figure 1 golden");
  const std::size_t cells_begin = ts.size();
  for (const mcmm::SupportEntry* e : matrix.entries()) {
    const std::string target =
        "/v1/cell/" + std::string(mcmm::to_string(e->combo.vendor)) + "/" +
        plus_escaped(mcmm::to_string(e->combo.model)) + "/" +
        plus_escaped(mcmm::to_string(e->combo.language));
    ts.push_back(reference(api, get_wire(target, ""), target,
                           Template::Kind::Get));
  }
  const std::size_t cells_end = ts.size();
  out.check(cells_end - cells_begin == 51, "51 /v1/cell combinations");
  ts.push_back(reference(api, get_wire("/v1/claims", ""), "/v1/claims",
                         Template::Kind::Get));
  // The reference Api runs no campaign; /v1/perf must equal the golden.
  Template perf;
  perf.wire = get_wire("/v1/perf?format=txt", "");
  perf.name = "/v1/perf?format=txt";
  perf.body = figure2;
  perf.etag = mcmm::serve::etag_for(figure2);
  ts.push_back(perf);
  const std::size_t cacheable_end = ts.size();
  Template health;
  health.wire = get_wire("/healthz", "");
  health.name = "/healthz";
  health.body = kHealthPrefix;
  health.live = true;
  ts.push_back(health);
  // Conditional twins of every cacheable GET: must answer 304.
  const std::size_t cond_begin = ts.size();
  for (std::size_t i = 0; i < cacheable_end; ++i) {
    Template c = ts[i];
    c.wire = get_wire(c.name, c.etag);
    c.name += " (If-None-Match)";
    c.status = 304;
    c.body.clear();
    ts.push_back(std::move(c));
  }
  const std::size_t cond_end = ts.size();
  Rng rng(opt.seed);
  const std::size_t plan_begin = ts.size();
  for (int i = 0; i < 64; ++i) {
    mix.queries.push_back(random_query(rng));
    const std::string body = plan_body(mix.queries.back());
    const std::string wire = "POST /v1/plan HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                             "Content-Type: application/json\r\n"
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body;
    ts.push_back(reference(api, wire, "POST /v1/plan " + body,
                           Template::Kind::Plan));
  }
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const bool want304 = i >= cond_begin && i < cond_end;
    out.check(ts[i].status == (want304 ? 304 : 200),
              "reference answers " + ts[i].name);
  }
  // ~20% plans. A GET picks one of the GET endpoints uniformly (matrix,
  // cell, claims, perf, healthz), then a format or cell uniformly within
  // it; every 8th GET is the conditional twin of a cacheable pick (all but
  // healthz).
  const auto pick_get = [&](std::uint64_t endpoints) -> std::size_t {
    switch (rng.below(endpoints)) {
      case 0:
        return rng.below(7);
      case 1:
        return cells_begin + rng.below(cells_end - cells_begin);
      case 2:
        return cells_end;  // claims
      case 3:
        return cells_end + 1;  // perf
      default:
        return cacheable_end;  // healthz
    }
  };
  std::uint64_t gets = 0;
  mix.sequence.resize(1u << 16);
  for (std::uint32_t& s : mix.sequence) {
    std::size_t idx;
    if (rng.unit() < 0.2) {
      idx = plan_begin + rng.below(64);
    } else if (++gets % 8 == 0) {
      idx = cond_begin + pick_get(4);
    } else {
      idx = pick_get(5);
    }
    s = static_cast<std::uint32_t>(idx);
  }
  return mix;
}

Outcome run_kb(const Options& opt, bool cluster) {
  Outcome out;
  const Mix mix = build_mix(opt, out);
  // Set up three times; the third target is the one measured.
  std::vector<double> setups;
  Target target;
  for (int i = 0; i < 3; ++i) {
    if (i != 0) stop_target(target, out);
    target = start_target(opt, cluster);
    setups.push_back(target.setup_s);
  }
  {
    LoadGen gen(target.port, mix.templates, mix.sequence, kConnections);
    KbPhase warm;
    warm.closed.push_back(gen.closed_loop(0.5));
    count(warm, out);
    const KbPhase phase = measure(gen, opt.seconds);
    count(phase, out);
    out.e2e = e2e_of(phase);
    const auto gets = pool(phase.open, &PhaseStats::get_us);
    const auto plans = pool(phase.open, &PhaseStats::plan_us);
    out.figures = {{"rps", out.e2e[1].second},
                   {"get_p50_us", out.e2e[2].second},
                   {"get_p90_us", quantile(gets, 0.9)},
                   {"get_p99_us", quantile(gets, 0.99)},
                   {"plan_p50_us", out.e2e[3].second},
                   {"plan_p90_us", quantile(plans, 0.9)},
                   {"plan_p99_us", quantile(plans, 0.99)},
                   {"get_samples", static_cast<double>(gets.size())},
                   {"plan_samples", static_cast<double>(plans.size())},
                   {"loadgen.lag_p99_us",
                    quantile(pool(phase.open, &PhaseStats::lag_us), 0.99)},
                   {"steal_share", mean(steals(phase))}};
    if (opt.trace) {
      KbPhase traced;
      out.layers = traced_phase(target, gen, opt.seconds, traced);
      count(traced, out);
      const Metrics t = e2e_of(traced);
      for (std::size_t i = 1; i < t.size(); ++i) {
        out.overhead.emplace_back(t[i].first,
                                  ratio(t[i].second, out.e2e[i].second) - 1);
      }
    }
  }
  out.e2e[0].second = median(setups);
  stop_target(target, out);
  return out;
}

void kb_layer_probe(const Options& opt, bool cluster, Outcome& out) {
  const Mix mix = build_mix(opt, out);
  Target target = start_target(opt, cluster);
  {
    LoadGen gen(target.port, mix.templates, mix.sequence, kConnections);
    KbPhase warm;
    warm.closed.push_back(gen.closed_loop(0.3));
    count(warm, out);
    KbPhase phase;
    for (auto& kv : traced_phase(target, gen, 2.0, phase)) {
      out.layers.push_back(std::move(kv));
    }
    count(phase, out);
  }
  stop_target(target, out);
}

}  // namespace e2e
