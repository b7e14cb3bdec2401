// Tests for the serve API layer: endpoint routing, the acceptance-criterion
// byte-identity of /v1/matrix?format=txt with the Fig. 1 golden render,
// cell/plan/claims payloads, ETag stability, and conditional GETs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/json.hpp"
#include "data/dataset.hpp"
#include "perfport/perfport.hpp"
#include "render/perf.hpp"
#include "render/render.hpp"
#include "serve/api.hpp"
#include "serve/http.hpp"
#include "serve/metrics.hpp"

#ifndef MCMM_GOLDEN_DIR
#error "MCMM_GOLDEN_DIR must point at tests/render/golden"
#endif

namespace {

using mcmm::data::paper_matrix;
using mcmm::serve::Api;
using mcmm::serve::etag_for;
using mcmm::json_parse;
using mcmm::JsonValue;
using mcmm::serve::Request;
using mcmm::serve::RequestParser;
using mcmm::serve::Response;

/// Parses a full wire-format request; the API layer only ever sees
/// requests that came through the real parser.
Request make_request(const std::string& wire) {
  RequestParser parser;
  EXPECT_EQ(parser.feed(wire), RequestParser::Status::Complete) << wire;
  return parser.take_request();
}

Request get(const std::string& target, const std::string& headers = "") {
  return make_request("GET " + target + " HTTP/1.1\r\n" + headers + "\r\n");
}

Request post(const std::string& target, const std::string& body) {
  return make_request("POST " + target + " HTTP/1.1\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body);
}

const Api& api() {
  static const Api instance(paper_matrix());
  return instance;
}

TEST(Api, MatrixTxtIsByteIdenticalToTheGoldenFigure) {
  const Response r = api().handle(get("/v1/matrix?format=txt"));
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.content_type, "text/plain; charset=utf-8");

  std::ifstream in(std::string(MCMM_GOLDEN_DIR) + "/figure1.txt",
                   std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  ASSERT_FALSE(golden.str().empty()) << "missing golden figure1.txt";
  EXPECT_EQ(r.body, golden.str());
}

TEST(Api, MatrixFormatsAndAliases) {
  for (const auto& [format, needle] :
       {std::pair<std::string, std::string>{"json", "\"cells\""},
        {"md", "|"},
        {"markdown", "|"},
        {"csv", ","},
        {"html", "<table"},
        {"latex", "\\begin"},
        {"tex", "\\begin"},
        {"yaml", "descriptions"},
        {"txt", "Fortran"},
        {"text", "Fortran"}}) {
    const Response r = api().handle(get("/v1/matrix?format=" + format));
    ASSERT_EQ(r.status, 200) << format;
    EXPECT_NE(r.body.find(needle), std::string::npos) << format;
    EXPECT_FALSE(r.etag.empty()) << format;
  }
  // Default format is JSON.
  const Response def = api().handle(get("/v1/matrix"));
  EXPECT_EQ(def.content_type, "application/json");
  // Unknown format -> 400 with a JSON error body.
  const Response bad = api().handle(get("/v1/matrix?format=pdf"));
  EXPECT_EQ(bad.status, 400);
  EXPECT_TRUE(json_parse(bad.body).has_value());
}

TEST(Api, MatrixJsonCarriesTheWholeDataset) {
  const Response r = api().handle(get("/v1/matrix?format=json"));
  ASSERT_EQ(r.status, 200);
  const auto doc = json_parse(r.body);
  ASSERT_TRUE(doc.has_value()) << "matrix JSON must parse";
  const JsonValue* cells = doc->find("cells");
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells->array.size(), paper_matrix().entries().size());
  const JsonValue* descriptions = doc->find("descriptions");
  ASSERT_NE(descriptions, nullptr);
  EXPECT_EQ(descriptions->array.size(), paper_matrix().descriptions().size());
}

TEST(Api, CellLookupIsCaseInsensitiveAndComplete) {
  const Response r = api().handle(get("/v1/cell/amd/SYCL/c%2B%2B"));
  ASSERT_EQ(r.status, 200);
  const auto doc = json_parse(r.body);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* cell = doc->find("cell");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->find("vendor")->string, "AMD");
  EXPECT_EQ(cell->find("model")->string, "SYCL");
  EXPECT_EQ(cell->find("language")->string, "C++");
  ASSERT_NE(cell->find("ratings"), nullptr);
  ASSERT_NE(doc->find("description"), nullptr);
  ASSERT_NE(doc->find("description")->find("text"), nullptr);

  // Every dataset combination must be addressable: the URL form of each
  // combination (with '+' %-escaped) resolves to its own cached cell.
  for (const auto* entry : paper_matrix().entries()) {
    const auto escape_plus = [](std::string_view s) {
      std::string out;
      for (const char c : s) {
        if (c == '+') out += "%2B"; else out += c;
      }
      return out;
    };
    const std::string target =
        "/v1/cell/" + std::string(mcmm::to_string(entry->combo.vendor)) + "/" +
        escape_plus(mcmm::to_string(entry->combo.model)) + "/" +
        escape_plus(mcmm::to_string(entry->combo.language));
    const Response each = api().handle(get(target));
    EXPECT_EQ(each.status, 200) << target;
  }
}

TEST(Api, CellLookupRejectsUnknownSegments) {
  for (const char* target :
       {"/v1/cell/tesla/sycl/c%2B%2B",     // unknown vendor
        "/v1/cell/amd/fortranoo/fortran",  // unknown model
        "/v1/cell/amd/sycl/rust",          // unknown language
        "/v1/cell/amd/sycl",               // too few segments
        "/v1/cell/amd/sycl/c%2B%2B/x"}) {  // too many segments
    const Response r = api().handle(get(target));
    EXPECT_EQ(r.status, 404) << target;
    EXPECT_TRUE(json_parse(r.body).has_value()) << target;
  }
}

TEST(Api, PlanRanksFortranOnAmd) {
  const Response r = api().handle(post(
      "/v1/plan",
      R"({"language": "fortran", "must_run_on": ["amd"]})"));
  ASSERT_EQ(r.status, 200) << r.body;
  const auto doc = json_parse(r.body);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* routes = doc->find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_FALSE(routes->array.empty());
  // Ranked: scores (higher is better) come back in non-increasing order.
  double previous = 1e18;
  for (const JsonValue& route : routes->array) {
    const JsonValue* rank = route.find("rank");
    ASSERT_NE(rank, nullptr);
    EXPECT_LE(rank->number, previous);
    previous = rank->number;
    ASSERT_NE(route.find("model"), nullptr);
    ASSERT_NE(route.find("platforms"), nullptr);
    ASSERT_FALSE(route.find("platforms")->array.empty());
  }
  // The paper's Fortran-on-AMD story leads with OpenMP offload.
  EXPECT_EQ(routes->array[0].find("model")->string, "OpenMP");
}

TEST(Api, PlanRejectsBadBodies) {
  for (const char* body : {
           "",                                  // empty
           "not json",                          // unparseable
           "[]",                                // not an object
           R"({"must_run_on": ["amd"]})",       // missing language
           R"({"language": "rust"})",           // unknown language
           R"({"language": "fortran", "x":1})"  // unknown key
       }) {
    const Response r = api().handle(post("/v1/plan", body));
    EXPECT_EQ(r.status, 400) << body;
    EXPECT_TRUE(json_parse(r.body).has_value()) << body;
  }
}

TEST(Api, MethodGuards) {
  const Response r = api().handle(get("/v1/plan"));
  EXPECT_EQ(r.status, 405);
  bool saw_allow = false;
  for (const auto& [name, value] : r.extra_headers) {
    if (name == "Allow") {
      saw_allow = true;
      EXPECT_EQ(value, "POST");
    }
  }
  EXPECT_TRUE(saw_allow);

  const Response m = api().handle(post("/v1/matrix", "{}"));
  EXPECT_EQ(m.status, 405);
}

TEST(Api, ClaimsAllHold) {
  const Response r = api().handle(get("/v1/claims"));
  ASSERT_EQ(r.status, 200);
  const auto doc = json_parse(r.body);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* claims = doc->find("claims");
  ASSERT_NE(claims, nullptr);
  ASSERT_FALSE(claims->array.empty());
  for (const JsonValue& c : claims->array) {
    const JsonValue* holds = c.find("holds");
    ASSERT_NE(holds, nullptr);
    EXPECT_TRUE(holds->boolean) << c.find("statement")->string;
  }
}

TEST(Api, UnknownPathsAre404) {
  for (const char* target :
       {"/v2/matrix", "/v1/", "/v1/unknown", "/favicon.ico"}) {
    EXPECT_EQ(api().handle(get(target)).status, 404) << target;
  }
  // The index is served at / and /v1.
  EXPECT_EQ(api().handle(get("/")).status, 200);
  EXPECT_EQ(api().handle(get("/v1")).status, 200);
  EXPECT_EQ(api().handle(get("/healthz")).status, 200);
}

TEST(Api, EtagsAreStrongStableAndHonoured) {
  // Deterministic across Api instances (same dataset -> same tag).
  const Api other(paper_matrix());
  const Response a = api().handle(get("/v1/matrix?format=txt"));
  const Response b = other.handle(get("/v1/matrix?format=txt"));
  ASSERT_FALSE(a.etag.empty());
  EXPECT_EQ(a.etag, b.etag);
  EXPECT_EQ(a.etag.front(), '"');
  EXPECT_EQ(a.etag.back(), '"');
  EXPECT_EQ(a.etag, etag_for(a.body));
  // Different bodies get different tags.
  const Response csv = api().handle(get("/v1/matrix?format=csv"));
  EXPECT_NE(a.etag, csv.etag);

  // If-None-Match with the current tag -> bodyless 304 carrying the tag.
  const Response not_modified = api().handle(
      get("/v1/matrix?format=txt", "If-None-Match: " + a.etag + "\r\n"));
  EXPECT_EQ(not_modified.status, 304);
  EXPECT_TRUE(not_modified.body.empty());
  EXPECT_EQ(not_modified.etag, a.etag);

  // A list of candidates and the * wildcard both match.
  EXPECT_EQ(api()
                .handle(get("/v1/matrix?format=txt",
                            "If-None-Match: \"zzz\", " + a.etag + "\r\n"))
                .status,
            304);
  EXPECT_EQ(api()
                .handle(get("/v1/matrix?format=txt", "If-None-Match: *\r\n"))
                .status,
            304);
  // A stale tag still gets the full body.
  EXPECT_EQ(api()
                .handle(get("/v1/matrix?format=txt",
                            "If-None-Match: \"deadbeef\"\r\n"))
                .status,
            200);
}

/// Small two-kernel campaign backing the /v1/perf tests; renders are
/// cached by the Api constructor, so the run happens once.
const mcmm::perfport::PerfReport& perf_report() {
  static const mcmm::perfport::PerfReport report = [] {
    mcmm::perfport::CampaignConfig cfg;
    cfg.sizes = {4096};
    cfg.reps = 1;
    cfg.kernels = {mcmm::perfport::PerfKernel::Triad,
                   mcmm::perfport::PerfKernel::Dot};
    return mcmm::perfport::run_campaign(cfg);
  }();
  return report;
}

const Api& perf_api() {
  static const Api instance(paper_matrix(), nullptr, nullptr, &perf_report());
  return instance;
}

TEST(ApiPerf, DisabledCampaignIs404WithAHint) {
  // The default api() was built without a report; /v1/perf must say how
  // to turn it on rather than pretend the path does not exist.
  const Response r = api().handle(get("/v1/perf"));
  EXPECT_EQ(r.status, 404);
  EXPECT_NE(r.body.find("--perf"), std::string::npos) << r.body;
  // The index still advertises the endpoint either way.
  EXPECT_NE(api().handle(get("/")).body.find("/v1/perf"), std::string::npos);
}

TEST(ApiPerf, FormatsAndAliases) {
  const std::pair<const char*, const char*> cases[] = {
      {"/v1/perf", "application/json"},
      {"/v1/perf?format=json", "application/json"},
      {"/v1/perf?format=txt", "text/plain; charset=utf-8"},
      {"/v1/perf?format=text", "text/plain; charset=utf-8"},
      {"/v1/perf?format=md", "text/markdown; charset=utf-8"},
      {"/v1/perf?format=markdown", "text/markdown; charset=utf-8"},
      {"/v1/perf?format=csv", "text/csv; charset=utf-8"},
      {"/v1/perf?format=html", "text/html; charset=utf-8"},
      {"/v1/perf?format=latex", "application/x-tex"},
      {"/v1/perf?format=tex", "application/x-tex"},
      {"/v1/perf?format=yaml", "application/yaml"},
  };
  for (const auto& [target, content_type] : cases) {
    const Response r = perf_api().handle(get(target));
    ASSERT_EQ(r.status, 200) << target;
    EXPECT_EQ(r.content_type, content_type) << target;
    EXPECT_FALSE(r.body.empty()) << target;
  }
  EXPECT_NE(perf_api().handle(get("/v1/perf")).body.find("mcmm-perfport-v1"),
            std::string::npos);
  EXPECT_EQ(perf_api().handle(get("/v1/perf?format=ascii")).status, 400);
  EXPECT_EQ(perf_api().handle(post("/v1/perf", "{}")).status, 405);
}

TEST(ApiPerf, TxtIsByteIdenticalToTheLibraryRender) {
  // The served bytes are the cached render of the exact report the server
  // was constructed with — the same identity CI asserts against the
  // committed Figure 2 golden.
  const Response r = perf_api().handle(get("/v1/perf?format=txt"));
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.body, mcmm::render::figure2_text(perf_report()));
}

TEST(ApiPerf, EtagsAreStrongAndHonoured) {
  const Response r = perf_api().handle(get("/v1/perf?format=txt"));
  ASSERT_EQ(r.status, 200);
  ASSERT_FALSE(r.etag.empty());
  EXPECT_EQ(r.etag, etag_for(r.body));
  const Response not_modified = perf_api().handle(
      get("/v1/perf?format=txt", "If-None-Match: " + r.etag + "\r\n"));
  EXPECT_EQ(not_modified.status, 304);
  EXPECT_TRUE(not_modified.body.empty());
  EXPECT_EQ(not_modified.etag, r.etag);
  EXPECT_EQ(perf_api()
                .handle(get("/v1/perf?format=txt",
                            "If-None-Match: \"deadbeef\"\r\n"))
                .status,
            200);
}

TEST(Metrics, PerEndpointCounterNormalizesPaths) {
  mcmm::serve::Metrics metrics;
  metrics.record_endpoint("/v1/matrix");
  metrics.record_endpoint("/v1/perf");
  metrics.record_endpoint("/v1/perf");
  metrics.record_endpoint("/v1/cell/nvidia/cuda/c%2B%2B");
  metrics.record_endpoint("/v1");  // alias of the index
  metrics.record_endpoint("/");
  metrics.record_endpoint("/favicon.ico");  // off-table -> "other"
  const std::string text = metrics.prometheus_text();
  const std::pair<const char*, const char*> expected[] = {
      {"endpoint=\"/v1/matrix\"} 1", "matrix"},
      {"endpoint=\"/v1/perf\"} 2", "perf"},
      {"endpoint=\"/v1/cell\"} 1", "cell subtree collapses to one label"},
      {"endpoint=\"/\"} 2", "/v1 is the same index as /"},
      {"endpoint=\"other\"} 1", "unknown paths are bucketed, not dropped"},
  };
  for (const auto& [needle, why] : expected) {
    EXPECT_NE(text.find(std::string("mcmm_http_requests_by_endpoint_total{") +
                        needle),
              std::string::npos)
        << why << "\n" << text;
  }
  // Zero-count endpoints stay out of the exposition (no label noise).
  EXPECT_EQ(text.find("endpoint=\"/healthz\""), std::string::npos);
}

}  // namespace
