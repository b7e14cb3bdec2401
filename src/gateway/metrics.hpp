#pragma once
// Gateway observability: the client-facing side reuses serve::Metrics
// (same counter/histogram family, so dashboards work unchanged against a
// replica or the gateway), and the upstream side adds per-replica request
// outcomes and latency, plus retry / hedge / breaker / ejection counters.
// GET /metrics on the gateway emits both families in one document.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/histogram.hpp"
#include "serve/metrics.hpp"

namespace mcmm::gateway {

class ReplicaRegistry;

/// Outcome counters and latency for one upstream replica. Lock-free; the
/// histogram is the one the serve side uses, so the bounds agree.
struct UpstreamStats {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> error{0};
  LatencyHistogram latency;

  void record(bool success, std::uint64_t micros) noexcept {
    (success ? ok : error).fetch_add(1, std::memory_order_relaxed);
    latency.record(micros);
  }
};

class GatewayMetrics {
 public:
  explicit GatewayMetrics(std::size_t upstream_count);

  /// Client-facing counters (connections, status codes, latency,
  /// in-flight) — recorded by the HttpListener hooks.
  serve::Metrics client;

  void record_upstream(std::size_t upstream, bool success,
                       std::uint64_t micros) noexcept {
    upstreams_[upstream]->record(success, micros);
  }
  void record_retry() noexcept {
    retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_budget_exhausted() noexcept {
    budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_hedge() noexcept {
    hedges_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_hedge_win() noexcept {
    hedge_wins_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t retries_total() const noexcept {
    return retries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t budget_exhausted_total() const noexcept {
    return budget_exhausted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hedges_total() const noexcept {
    return hedges_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t hedge_wins_total() const noexcept {
    return hedge_wins_.load(std::memory_order_relaxed);
  }

  /// The full gateway /metrics document (client family + upstream family +
  /// live health/breaker gauges read from `registry`).
  [[nodiscard]] std::string prometheus_text(
      const ReplicaRegistry& registry) const;

 private:
  std::vector<std::unique_ptr<UpstreamStats>> upstreams_;
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> budget_exhausted_{0};
  std::atomic<std::uint64_t> hedges_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
};

}  // namespace mcmm::gateway
