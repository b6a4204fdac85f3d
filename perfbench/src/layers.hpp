// Per-layer metrics of the traced runs (--trace 1).
//
// Every per-layer metric named in BENCHMARK.json is reported by every
// workload; a layer a workload never reaches reports 0 (e.g. net.* on
// browse, which has no daemon).
#pragma once

#include <cstdint>

#include "fleet.hpp"
#include "obs/phase.hpp"
#include "report.hpp"

namespace perfbench {

class Tracer;

/// Time per call of the per-visit layers, from a replay of URLs the
/// workload's own traffic model samples, through the public calls.
struct CallReplay {
  std::uint64_t urls = 0;
  double sample_ns_per_url = 0.0;
  double canonicalize_ns_per_url = 0.0;
  double decompose_ns_per_url = 0.0;
  double expressions_per_url = 0.0;
  double lookup_request_build_ns_per_url = 0.0;
  double probe_ns_per_prefix = 0.0;
};

/// Samples `urls` URLs with the engine's traffic model (seeded from
/// `seed`) and times each layer over them, median of three passes.
/// `client` supplies the local store probed.
[[nodiscard]] CallReplay replay_calls(const sbp::sim::Engine& engine,
                                      const sbp::sb::ProtocolClient& client,
                                      std::uint64_t seed, std::size_t urls,
                                      Tracer* tracer);

/// sim.* from a traced fleet window (engine built with collect_metrics)
/// plus the call replay. `allocs_per_user_tick` comes from an untraced
/// window of the same workload.
void add_sim_layers(Report& report, const Fleet::Window& window,
                    std::size_t threads, double allocs_per_user_tick,
                    const CallReplay& calls);

/// sb.* from one transport's per-channel stats.
struct ChannelTotals {
  const sbp::obs::TransportObs* channels = nullptr;
  std::uint64_t failed_requests = 0;
  std::uint64_t encode_cache_hits = 0;
  /// Client-side re-sync time that is not server work (resync phase minus
  /// update-channel busy time, both over the timed window).
  double client_apply_ms = 0.0;
};
void add_channel_layers(Report& report, const ChannelTotals& totals);

/// The serve-only layers, all zero: for workloads without a daemon.
void add_absent_net_layers(Report& report);

/// Wall time of one phase between two snapshots, ms.
[[nodiscard]] double phase_ms(const sbp::obs::Snapshot& before,
                              const sbp::obs::Snapshot& after,
                              sbp::obs::Phase phase);

/// serve_ns sum of the update channels (v3 + v4), ns.
[[nodiscard]] std::uint64_t update_busy_ns(const sbp::obs::TransportObs& obs);

}  // namespace perfbench
