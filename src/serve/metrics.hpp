#pragma once
// Request counters and latency histograms for mcmm serve, exposed in
// Prometheus text exposition format on GET /metrics. All recording paths
// are lock-free (relaxed atomics — the counters are independent and the
// scrape only needs eventual consistency).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/histogram.hpp"
#include "serve/event_loop.hpp"

namespace mcmm::serve {

class Metrics {
 public:
  void record_connection() noexcept {
    connections_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One finished request: its response status and handling latency.
  void record_request(int status, std::uint64_t micros) noexcept;

  /// Attributes one request to its endpoint family (exact paths plus the
  /// /v1/cell/... subtree; anything else lands in "other").
  void record_endpoint(std::string_view path) noexcept;

  /// Brackets request handling (parse complete -> response sent) so the
  /// in-flight gauge is live. The gateway's power-of-two balancer reads it
  /// through GET /healthz; overload shedding compares it to max_in_flight.
  void begin_request() noexcept {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  void end_request() noexcept {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t requests_total() const noexcept;
  [[nodiscard]] std::uint64_t connections_total() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Folds the owning listener's event-loop counters into the scrape
  /// (open-connections gauge, wakeups, accepts, dispatches, EPOLLOUT
  /// re-arms, timer-wheel evictions). Not owned; may be null (standalone
  /// Metrics in tests emit no event-loop families).
  void attach_loop(const LoopCounters* counters) noexcept {
    loop_ = counters;
  }

  /// The Prometheus /metrics document.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  /// Tracked status codes; anything else lands in the trailing "other".
  static constexpr std::array<int, 13> kStatusCodes{
      200, 304, 400, 404, 405, 408, 413, 414, 431, 500, 501, 503, 505};
  /// Tracked endpoint families; anything else lands in the trailing
  /// "other". "/v1/cell" stands for the whole /v1/cell/... subtree.
  static constexpr std::array<std::string_view, 8> kEndpoints{
      "/",         "/healthz",  "/metrics", "/v1/matrix",
      "/v1/cell",  "/v1/plan",  "/v1/claims", "/v1/perf"};

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::array<std::atomic<std::uint64_t>, kStatusCodes.size() + 1> by_status_{};
  std::array<std::atomic<std::uint64_t>, kEndpoints.size() + 1> by_endpoint_{};
  LatencyHistogram latency_;
  const LoopCounters* loop_{nullptr};
};

}  // namespace mcmm::serve
