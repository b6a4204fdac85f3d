#include "trace.hpp"

#include <chrono>
#include <cstdio>

#include "report.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(std::string thread, std::size_t raw_capacity)
    : thread_(std::move(thread)),
      raw_capacity_(raw_capacity),
      origin_ns_(now_ns()) {
  open_.reserve(64);
  spans_.reserve(raw_capacity);
}

std::uint16_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint16_t>(names_.size() - 1);
}

void Tracer::begin(std::uint16_t name, std::uint64_t request_id) noexcept {
  Open frame;
  frame.name = name;
  frame.start_ns = now_ns();
  if (spans_.size() < raw_capacity_) {
    frame.index = static_cast<std::uint32_t>(spans_.size());
    Span span;
    span.parent = open_.empty() ? kNone : open_.back().index;
    span.name = name;
    span.request_id = request_id;
    span.start_ns = frame.start_ns;
    spans_.push_back(span);
  } else {
    frame.index = kNone;
    ++dropped_;
  }
  if (open_.size() < open_.capacity()) open_.push_back(frame);
}

void Tracer::end() noexcept {
  if (open_.empty()) return;
  const Open frame = open_.back();
  open_.pop_back();
  const std::uint64_t end = now_ns();
  const std::uint64_t duration = end - frame.start_ns;
  Totals& totals = totals_[frame.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration > frame.child_ns ? duration - frame.child_ns : 0;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (frame.index != kNone) spans_[frame.index].end_ns = end;
}

void Tracer::record(std::uint16_t name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t request_id) noexcept {
  const std::uint64_t duration = end_ns - start_ns;
  Totals& totals = totals_[name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (spans_.size() < raw_capacity_) {
    Span span;
    span.parent = open_.empty() ? kNone : open_.back().index;
    span.name = name;
    span.request_id = request_id;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::string Tracer::to_json() const {
  std::string json = "{\"thread\": " + json_string(thread_) + ", \"totals\": [";
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const Totals& t = totals_[i];
    json += (i > 0 ? ", " : "") + std::string("{\"name\": ") +
            json_string(names_[i]) + ", \"count\": " + std::to_string(t.count) +
            ", \"total_ns\": " + std::to_string(t.total_ns) +
            ", \"self_ns\": " + std::to_string(t.self_ns) + "}";
  }
  json += "], \"dropped\": " + std::to_string(dropped_) + ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json += (i > 0 ? ",\n  " : "\n  ") + std::string("{\"id\": ") +
            std::to_string(i) + ", \"parent\": " +
            (s.parent == kNone ? std::string("null")
                               : std::to_string(s.parent)) +
            ", \"name\": " + json_string(names_[s.name]) +
            ", \"request\": " + std::to_string(s.request_id) +
            ", \"start_ns\": " + std::to_string(s.start_ns - origin_ns_) +
            ", \"end_ns\": " + std::to_string(s.end_ns - origin_ns_) + "}";
  }
  json += "]}";
  return json;
}

bool write_trace_file(const std::string& path, const std::string& workload,
                      std::uint64_t seed,
                      const std::vector<const Tracer*>& tracers) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::string json = "{\"workload\": " + json_string(workload) +
                     ", \"seed\": " + std::to_string(seed) + ", \"threads\": [";
  for (std::size_t i = 0; i < tracers.size(); ++i) {
    json += (i > 0 ? ",\n" : "\n") + tracers[i]->to_json();
  }
  json += "]}\n";
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench
