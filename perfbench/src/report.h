// Named metrics with units, and the result object the binary prints.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Metrics in the order they were added.
class MetricSet {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back(Metric{std::move(name), value, unit});
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Operations attempted and failed, with a message per failed check.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one operation; it fails if any of its checks failed, i.e. if
  /// fail() was called since the previous operation.
  void operation() {
    ++attempted;
    if (pending_failure_) ++failed;
    pending_failure_ = false;
  }
  void fail(std::string message) {
    failures.push_back(std::move(message));
    pending_failure_ = true;
  }
  void expect(bool ok, const std::string& message) {
    if (!ok) fail(message);
  }

 private:
  bool pending_failure_ = false;
};

/// Median of `values` (0 when empty).
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
