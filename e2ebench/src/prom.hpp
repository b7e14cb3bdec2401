#pragma once
// Parser for the Prometheus text exposition the serve and gateway layers
// publish on GET /metrics, and the delta arithmetic the per-layer metrics
// are computed with (counters scraped before and after a measured phase).

#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

namespace e2e {

/// One scrape: series key (metric name plus its label block, verbatim)
/// -> value. Comment lines and malformed lines are skipped.
class Scrape {
 public:
  Scrape() = default;
  explicit Scrape(std::string_view text) {
    while (!text.empty()) {
      const std::size_t nl = text.find('\n');
      std::string_view line = text.substr(0, nl);
      text = nl == std::string_view::npos ? std::string_view{}
                                          : text.substr(nl + 1);
      if (line.empty() || line.front() == '#') continue;
      const std::size_t space = line.rfind(' ');
      if (space == std::string_view::npos || space == 0) continue;
      const std::string value(line.substr(space + 1));
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') continue;
      series_[std::string(line.substr(0, space))] = v;
    }
  }

  /// Sum of every series of metric `name` (any labels) whose label block
  /// contains `label_filter` (e.g. "result=\"ok\""); empty filter = all.
  [[nodiscard]] double sum(std::string_view name,
                           std::string_view label_filter = {}) const {
    double total = 0;
    for (const auto& [key, v] : series_) {
      if (key.compare(0, name.size(), name) != 0) continue;
      const std::string_view rest = std::string_view(key).substr(name.size());
      if (!rest.empty() && rest.front() != '{') continue;
      if (!label_filter.empty() && rest.find(label_filter) == std::string::npos) {
        continue;
      }
      total += v;
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const noexcept { return series_.size(); }

 private:
  std::map<std::string, double, std::less<>> series_;
};

/// after.sum(...) - before.sum(...).
[[nodiscard]] inline double delta(const Scrape& before, const Scrape& after,
                                  std::string_view name,
                                  std::string_view label_filter = {}) {
  return after.sum(name, label_filter) - before.sum(name, label_filter);
}

}  // namespace e2e
