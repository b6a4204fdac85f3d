#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_list(const std::vector<double>& values) {
  std::string json = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char value[32];
    std::snprintf(value, sizeof value, "%.6f", values[i]);
    json += (i > 0 ? ", " : "") + std::string(value);
  }
  return json + "]";
}

void Report::record_text(std::string key, const std::string& text) {
  record(std::move(key), json_string(text));
}

bool Report::correct() const {
  return failed == 0 &&
         std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

std::string Report::to_json() const {
  std::string json = "{\"workload\": " + json_string(workload_) +
                     ", \"record\": {";
  for (std::size_t i = 0; i < record_.size(); ++i) {
    json += (i > 0 ? ", " : "") + json_string(record_[i].first) + ": " +
            record_[i].second;
  }
  json += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    json += (i > 0 ? ", " : "") + std::string("{\"name\": ") +
            json_string(checks_[i].name) +
            ", \"ok\": " + (checks_[i].ok ? "true" : "false") +
            ", \"detail\": " + json_string(checks_[i].detail) + "}";
  }
  json += "], \"correct\": " + std::string(correct() ? "true" : "false") +
          ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // Full precision: runs are compared value for value.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            value + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return json + "}}";
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

void record_hardware(Report& report) {
  report.record("nproc", std::thread::hardware_concurrency());
  report.record_text("cpu_model", cpu_model());
#if defined(__clang__)
  report.record_text("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  report.record_text("compiler", "gcc " __VERSION__);
#else
  report.record_text("compiler", "unknown");
#endif
  report.record_text("build_type", PERFBENCH_BUILD_TYPE);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t quantile(std::vector<std::uint64_t>& values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

}  // namespace perfbench
