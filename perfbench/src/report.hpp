// What one benchmark run reports: the run record (inputs, scale, hardware),
// the correctness checks, operations attempted/failed and the metrics.
// Printed by main() as one JSON object on the last line of stdout.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string trace_out;
  /// Scale overrides for tests (0 = the workload's default).
  std::size_t users = 0;
  std::uint64_t ticks = 0;     ///< timed ticks (browse, churn)
  std::uint64_t requests = 0;  ///< at least this many timed requests (serve)
  /// Run the reduced-scale determinism twin (browse, churn untraced).
  bool twin = true;
  /// Test hook: corrupt one expected serve reply, which must surface as
  /// failed requests and a failed check.
  bool inject_mismatch = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail = "") {
    checks_.push_back({std::move(name), ok, std::move(detail)});
  }
  /// Run-record fields; the value is inserted as given (JSON text).
  void record(std::string key, std::string json_value) {
    record_.emplace_back(std::move(key), std::move(json_value));
  }
  void record(std::string key, std::uint64_t value) {
    record(std::move(key), std::to_string(value));
  }
  void record_text(std::string key, const std::string& text);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const;
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<Check>& checks() const noexcept {
    return checks_;
  }
  [[nodiscard]] std::string to_json() const;

 private:
  std::string workload_;
  std::vector<std::pair<std::string, std::string>> record_;
  std::vector<Check> checks_;
  std::vector<Metric> metrics_;
};

/// A JSON string literal for `text`.
[[nodiscard]] std::string json_string(const std::string& text);

/// A JSON array of `values`.
[[nodiscard]] std::string json_list(const std::vector<double>& values);

/// Adds the hardware fingerprint (nproc, CPU model, compiler, build type)
/// to the run record.
void record_hardware(Report& report);

/// Peak resident set of this process, MB (VmHWM / 1024).
[[nodiscard]] double peak_rss_mb();

/// Global operator-new calls so far (alloc_count.cpp).
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Median of `values` (copied; empty -> 0).
[[nodiscard]] double median(std::vector<double> values);

/// Exact quantile (nearest rank) of `values`, reordering them.
[[nodiscard]] std::uint64_t quantile(std::vector<std::uint64_t>& values,
                                     double q);

}  // namespace perfbench
