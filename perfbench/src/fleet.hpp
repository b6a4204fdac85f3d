// A simulated fleet as the benchmark drives it: an sim::Engine whose shard
// transports are bench-side FleetTransports, a streaming query-log sink,
// and the timed tick window the browse and churn workloads measure.
//
// FleetTransport is the engine's default zero-latency InProcessTransport
// (same server, same frames, same counters) plus two things the engine
// does not export: the time of each request from send to decoded reply
// (rtt_us_*), and, for the serve workload, a copy of every request frame
// with the tick it was sent at. It reaches the engine only through the
// public SimConfig.transport_factory / server_setup seams.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"
#include "sb/transport.hpp"
#include "sim/engine.hpp"
#include "sim/log_sink.hpp"

namespace perfbench {

class Tracer;

/// One request frame as a client sent it.
struct RecordedRequest {
  std::uint64_t tick = 0;
  std::vector<std::uint8_t> frame;
};

class FleetTransport final : public sbp::sb::Transport {
 public:
  FleetTransport(sbp::sb::Server& server, sbp::sb::SimClock& clock)
      : Transport(clock), inner_(server, clock, /*round_trip_ticks=*/0) {}

  [[nodiscard]] std::optional<sbp::sb::FullHashResponse>
  get_full_hashes_or_error(const std::vector<sbp::crypto::Prefix32>& prefixes,
                           sbp::sb::Cookie cookie) override;
  [[nodiscard]] std::optional<sbp::sb::UpdateResponse> fetch_update_or_error(
      const sbp::sb::UpdateRequest& request) override;
  [[nodiscard]] std::optional<sbp::sb::V4UpdateResponse>
  fetch_v4_update_or_error(const sbp::sb::V4UpdateRequest& request) override;
  [[nodiscard]] std::optional<bool> lookup_v1_or_error(
      std::string_view url, sbp::sb::Cookie cookie) override;

  /// Starts keeping request times (ns), at most `capacity` of them, so the
  /// window allocates nothing. Call between ticks.
  void start_timing(std::size_t capacity);
  [[nodiscard]] const std::vector<std::uint64_t>& request_ns() const noexcept {
    return request_ns_;
  }
  [[nodiscard]] std::uint64_t timing_dropped() const noexcept {
    return dropped_;
  }

  /// Keeps a copy of every request frame from now on.
  void start_recording() noexcept { recording_ = true; }
  [[nodiscard]] const std::vector<RecordedRequest>& recorded() const noexcept {
    return recorded_;
  }

 private:
  template <class Encode, class Call>
  auto forward(Encode&& encode, Call&& call);

  sbp::sb::InProcessTransport inner_;
  bool timing_ = false;
  bool recording_ = false;
  std::vector<std::uint64_t> request_ns_;
  std::uint64_t dropped_ = 0;
  std::vector<RecordedRequest> recorded_;
};

/// Everything observable about a finished run that the determinism
/// contract covers: the query log, wire bytes and request counts.
struct Outcome {
  std::uint64_t fingerprint = 0;
  std::uint64_t log_entries = 0;
  std::uint64_t log_prefixes = 0;
  std::uint64_t log_multi_prefix = 0;
  sbp::sb::TransportStats wire;
  sbp::sim::SimMetrics metrics;
};

[[nodiscard]] bool same_outcome(const Outcome& a, const Outcome& b);
[[nodiscard]] std::string describe(const Outcome& outcome);

class Fleet {
 public:
  /// Builds the engine (the timed set-up: population + initial syncs).
  /// With `target` null the transports serve the engine's own server;
  /// otherwise they all talk to `target` (the serve workload's sealed
  /// server). `record_requests` keeps every request frame, initial syncs
  /// included.
  explicit Fleet(sbp::sim::SimConfig config,
                 sbp::sb::Server* target = nullptr,
                 bool record_requests = false);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] sbp::sim::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const std::vector<FleetTransport*>& transports()
      const noexcept {
    return transports_;
  }
  [[nodiscard]] Outcome outcome() const;

  /// Counters sampled at a window boundary.
  struct Counters {
    sbp::sim::SimMetrics metrics;
    sbp::sb::ClientMetrics population;
    sbp::sb::TransportStats wire;
    std::uint64_t allocations = 0;
    std::uint64_t encode_cache_hits = 0;
    sbp::obs::Snapshot obs;  ///< only when metrics are collected
  };
  [[nodiscard]] Counters counters() const;

  /// The timed window: `ticks` Engine::step calls, timed in `blocks`
  /// blocks (kept in the run record, to show drift), with request timing
  /// on.
  struct Window {
    Counters before;
    Counters after;
    std::vector<double> block_seconds;
    std::vector<std::uint64_t> tick_ns;  ///< traced runs only
    std::vector<std::uint64_t> request_ns;
    std::uint64_t request_ns_dropped = 0;
    std::uint64_t ticks = 0;

    /// The window's wall time (all blocks).
    [[nodiscard]] double seconds() const;
    [[nodiscard]] double user_ticks_per_s(std::size_t users) const;
    [[nodiscard]] double requests_per_s() const;
    [[nodiscard]] std::uint64_t requests() const;
  };
  [[nodiscard]] Window run_window(std::uint64_t ticks, std::size_t blocks,
                                  std::size_t request_capacity,
                                  Tracer* tracer);

 private:
  sbp::sb::Server* server_ = nullptr;
  std::vector<FleetTransport*> transports_;
  sbp::sim::CountingSink sink_;
  std::unique_ptr<sbp::sim::Engine> engine_;
};

/// The synthetic web and blacklist shape every workload shares: 20k sites
/// (fixed corpus seed), ~1k listed expressions; users browse from `seed`.
[[nodiscard]] sbp::sim::SimConfig base_config(std::uint64_t seed);

/// Replaces the blacklist `config` would draw from its own seed with the
/// one a fixed seed draws (installed through server_setup), so that the
/// run's seed changes how users browse but not which pages are listed.
/// Which popular pages one draw lists sets the local-hit rate: over seeds
/// 1..8 it ranged from 58 to 1812 full-hash requests for the same fleet,
/// which would make every request-rate metric measure the draw.
void fix_blacklist(sbp::sim::SimConfig& config);

/// Total wire requests over every channel.
[[nodiscard]] std::uint64_t total_requests(const sbp::sb::TransportStats& w);

}  // namespace perfbench
