#include "core/histogram.hpp"

#include "core/json.hpp"

namespace mcmm {

void LatencyHistogram::record(std::uint64_t micros) noexcept {
  std::size_t bucket = kBounds.size();  // +Inf
  for (std::size_t i = 0; i < kBounds.size(); ++i) {
    if (micros <= kBounds[i].micros) {
      bucket = i;
      break;
    }
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
}

void LatencyHistogram::append_prometheus(std::string& out,
                                         std::string_view name,
                                         std::string_view labels) const {
  const auto bucket_line = [&](std::string_view le, std::uint64_t n) {
    out.append(name).append("_bucket{").append(labels);
    out.append("le=\"").append(le).append("\"} ");
    out.append(std::to_string(n)).append("\n");
  };
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBounds.size(); ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    bucket_line(kBounds[i].le, cumulative);
  }
  cumulative += buckets_[kBounds.size()].load(std::memory_order_relaxed);
  bucket_line("+Inf", cumulative);

  // _sum and _count carry the same labels without the trailing comma.
  std::string series;
  if (!labels.empty()) {
    series.append("{").append(labels.substr(0, labels.size() - 1));
    series.append("}");
  }
  const auto sum_micros = sum_micros_.load(std::memory_order_relaxed);
  out.append(name).append("_sum").append(series).append(" ");
  out.append(fixed_text(static_cast<double>(sum_micros) / 1e6, 6));
  out.append("\n");
  out.append(name).append("_count").append(series).append(" ");
  out.append(std::to_string(cumulative)).append("\n");
}

}  // namespace mcmm
