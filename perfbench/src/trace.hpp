// Bench-side span tracer for the traced (--trace 1) runs.
//
// Spans are recorded from the benchmark's own files around the calls it
// makes into each layer (Engine::step, Daemon::poll_once, the replayed
// per-URL calls, the generator's sends and receives). Every span has a
// name, a start, an end and the span that was open when it began (its
// parent); spans belonging to one request carry that request's id.
//
// Recording never allocates: raw spans go into a buffer reserved up front
// and stop being kept once it is full, while the per-name totals (count,
// total time, self time) keep accumulating. Self time is a span's duration
// minus the time its child spans cover. One Tracer per thread; nothing
// here is synchronised. Everything is written out once, after the run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

class Tracer {
 public:
  /// `thread` names the thread in the output; `raw_capacity` bounds the
  /// raw spans kept.
  Tracer(std::string thread, std::size_t raw_capacity);

  /// Name -> id. Allocates on first use of a name: call before timing.
  [[nodiscard]] std::uint16_t intern(std::string_view name);

  void begin(std::uint16_t name, std::uint64_t request_id = 0) noexcept;
  void end() noexcept;
  /// A finished leaf span timed by the caller, child of the open span.
  void record(std::uint16_t name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t request_id = 0) noexcept;

  /// {"thread":..., "totals":[...], "spans":[...], "dropped":N}
  [[nodiscard]] std::string to_json() const;

 private:
  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  struct Open {
    std::uint16_t name = 0;
    std::uint32_t index = 0;  ///< raw span index, or kNone when not kept
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
  };
  struct Span {
    std::uint32_t parent = 0;
    std::uint16_t name = 0;
    std::uint64_t request_id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::string thread_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Span> spans_;
  std::size_t raw_capacity_;
  std::uint64_t dropped_ = 0;
  std::uint64_t origin_ns_;
};

/// RAII span; a null tracer makes it inert (no clock read).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint16_t name,
             std::uint64_t request_id = 0) noexcept
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, request_id);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// Writes {"workload":..., "seed":..., "threads":[tracer...]} to `path`;
/// false when the file cannot be written.
[[nodiscard]] bool write_trace_file(const std::string& path,
                                    const std::string& workload,
                                    std::uint64_t seed,
                                    const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
