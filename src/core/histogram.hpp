#pragma once
// The one latency histogram behind every Prometheus histogram family
// (serve's request latency, the gateway's per-upstream latency): fixed
// bucket bounds, a lock-free record path (relaxed atomics — a scrape only
// needs eventual consistency), and the exposition text of one series.

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace mcmm {

class LatencyHistogram {
 public:
  /// One bucket: its upper bound in microseconds and its `le` label text
  /// in seconds. +Inf is implicit.
  struct Bound {
    std::uint64_t micros;
    std::string_view le;
  };
  static constexpr std::array<Bound, 7> kBounds{{{100, "0.0001"},
                                                 {500, "0.0005"},
                                                 {1000, "0.001"},
                                                 {5000, "0.005"},
                                                 {25000, "0.025"},
                                                 {100000, "0.1"},
                                                 {1000000, "1"}}};

  void record(std::uint64_t micros) noexcept;

  /// Appends the `<name>_bucket`, `_sum` and `_count` lines of this series
  /// (not the HELP/TYPE header). `labels` goes in front of `le` and must
  /// end in a comma when not empty, e.g. `upstream="host:port",`. The
  /// count is the +Inf bucket, so the two always agree.
  void append_prometheus(std::string& out, std::string_view name,
                         std::string_view labels = {}) const;

 private:
  std::array<std::atomic<std::uint64_t>, kBounds.size() + 1> buckets_{};
  std::atomic<std::uint64_t> sum_micros_{0};
};

}  // namespace mcmm
