// Byte-for-byte pins of the latency-histogram blocks in the serve and
// gateway /metrics documents. Fixed latencies cover zero, every bucket
// edge, one past an edge, and values above the last (1 s) bucket, so the
// bucket search, the cumulative counts, the le labels and the _sum text
// are all checked exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gateway/metrics.hpp"
#include "gateway/registry.hpp"
#include "serve/metrics.hpp"

namespace {

using mcmm::gateway::GatewayMetrics;
using mcmm::gateway::RegistryConfig;
using mcmm::gateway::ReplicaEndpoint;
using mcmm::gateway::ReplicaRegistry;

constexpr std::uint64_t kLatencies[] = {
    0,        // zero
    100,      // the first edge, 0.0001 s
    101,      // one past an edge
    500,      // edge
    999,      // one short of an edge
    1000,     // edge
    5000,     // edge
    25000,    // edge
    100000,   // edge
    1000000,  // the last edge, 1 s
    1000001,  // +Inf
    2500000,  // +Inf
};

/// The block of `text` that starts at `# HELP <family> ` and runs up to
/// the next `# HELP` line (or the end of the document).
std::string block(const std::string& text, const std::string& family) {
  const std::size_t begin = text.find("# HELP " + family + " ");
  if (begin == std::string::npos) return {};
  const std::size_t end = text.find("\n# HELP ", begin);
  return end == std::string::npos ? text.substr(begin)
                                  : text.substr(begin, end + 1 - begin);
}

const std::string kRequestDurationBlock =
    "# HELP mcmm_http_request_duration_seconds Request handling latency.\n"
    "# TYPE mcmm_http_request_duration_seconds histogram\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"0.0001\"} 2\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"0.0005\"} 4\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"0.001\"} 6\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"0.005\"} 7\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"0.025\"} 8\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"0.1\"} 9\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"1\"} 10\n"
    "mcmm_http_request_duration_seconds_bucket{le=\"+Inf\"} 12\n"
    "mcmm_http_request_duration_seconds_sum 4.632701\n"
    "mcmm_http_request_duration_seconds_count 12\n";

const std::string kUpstreamDurationBlock =
    "# HELP mcmm_gateway_upstream_duration_seconds Upstream exchange "
    "latency per replica.\n"
    "# TYPE mcmm_gateway_upstream_duration_seconds histogram\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"0.0001\"} 2\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"0.0005\"} 4\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"0.001\"} 6\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"0.005\"} 7\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"0.025\"} 8\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"0.1\"} 9\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"1\"} 10\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"a:1\",le=\"+Inf\"} 12\n"
    "mcmm_gateway_upstream_duration_seconds_sum{upstream=\"a:1\"} "
    "4.632701\n"
    "mcmm_gateway_upstream_duration_seconds_count{upstream=\"a:1\"} 12\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"0.0001\"} 1\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"0.0005\"} 1\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"0.001\"} 1\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"0.005\"} 1\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"0.025\"} 1\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"0.1\"} 1\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"1\"} 1\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"b:2\",le=\"+Inf\"} 2\n"
    "mcmm_gateway_upstream_duration_seconds_sum{upstream=\"b:2\"} "
    "3.000007\n"
    "mcmm_gateway_upstream_duration_seconds_count{upstream=\"b:2\"} 2\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"0.0001\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"0.0005\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"0.001\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"0.005\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"0.025\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"0.1\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"1\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_bucket"
    "{upstream=\"c:3\",le=\"+Inf\"} 0\n"
    "mcmm_gateway_upstream_duration_seconds_sum{upstream=\"c:3\"} "
    "0.000000\n"
    "mcmm_gateway_upstream_duration_seconds_count{upstream=\"c:3\"} 0\n";

TEST(PrometheusHistogram, ServeRequestDurationBlockIsPinned) {
  mcmm::serve::Metrics metrics;
  for (const std::uint64_t micros : kLatencies) {
    metrics.record_request(200, micros);
  }
  EXPECT_EQ(block(metrics.prometheus_text(),
                  "mcmm_http_request_duration_seconds"),
            kRequestDurationBlock);
}

TEST(PrometheusHistogram, GatewayHistogramBlocksArePinned) {
  std::vector<ReplicaEndpoint> endpoints{{"a", 1}, {"b", 2}, {"c", 3}};
  ReplicaRegistry registry(std::move(endpoints), RegistryConfig{});
  GatewayMetrics metrics(registry.size());
  bool success = true;
  for (const std::uint64_t micros : kLatencies) {
    metrics.client.record_request(200, micros);
    metrics.record_upstream(0, success, micros);
    success = !success;
  }
  metrics.record_upstream(1, true, 7);
  metrics.record_upstream(1, false, 3000000);
  const std::string text = metrics.prometheus_text(registry);

  EXPECT_EQ(block(text, "mcmm_http_request_duration_seconds"),
            kRequestDurationBlock);
  EXPECT_EQ(block(text, "mcmm_gateway_upstream_duration_seconds"),
            kUpstreamDurationBlock);
}

}  // namespace
