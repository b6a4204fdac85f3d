// browse and churn: a fleet ticked by sim::Engine, timed over a fixed
// number of ticks after an untimed warm-up.
//
//   browse  frozen lists, 100k v3 delta-coded clients, 1 engine thread:
//           the per-visit path (traffic sampling, URL canonicalize /
//           decompose + SHA-256 on URL-cache misses, batched store probe,
//           prefilter) is nearly all of the work; re-sync does none.
//   churn   an epoch every 10 ticks (add rate == remove rate, so the lists
//           keep their size), re-sync cadence 20 ticks, half v3 / half v4,
//           20k clients, 2 engine threads: re-sync (server encode cache,
//           frame decode, chunk apply, store rebuild), the pool and the
//           server's update mutex dominate. The first cadence is warm-up.
#include <cmath>
#include <memory>
#include <string>

#include "fleet.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = sbp::sim;

namespace {

struct Shape {
  std::size_t users = 0;
  std::size_t threads = 1;
  std::uint64_t warmup_ticks = 0;
  std::uint64_t timed_ticks = 0;
  std::size_t blocks = 10;
  std::uint64_t epoch_ticks = 0;  ///< 0 = frozen lists
};

// Timed ticks per second of --seconds on the reference machine (4-core
// x86-64, Release): the run is a fixed amount of work sized so that one
// run measures about --seconds there; it never stops on a timer.
constexpr double kBrowseTicksPerSecond = 32.0;
constexpr double kChurnTicksPerSecond = 36.0;

Shape shape_for(const Options& options) {
  Shape shape;
  double ticks_per_second = 0.0;
  if (options.workload == "browse") {
    shape.users = 100000;
    shape.threads = 1;
    shape.warmup_ticks = 20;
    ticks_per_second = kBrowseTicksPerSecond;
  } else {
    shape.users = 20000;
    shape.threads = 2;
    shape.warmup_ticks = 20;  // the first re-sync cadence
    shape.epoch_ticks = 10;
    ticks_per_second = kChurnTicksPerSecond;
  }
  if (options.users > 0) shape.users = options.users;
  std::uint64_t ticks =
      options.ticks > 0
          ? options.ticks
          : static_cast<std::uint64_t>(
                std::llround(options.seconds * ticks_per_second));
  ticks = std::max<std::uint64_t>(ticks, 1);
  shape.blocks = static_cast<std::size_t>(
      std::min<std::uint64_t>(shape.blocks, ticks));
  shape.timed_ticks = (ticks + shape.blocks - 1) / shape.blocks * shape.blocks;
  return shape;
}

sim::SimConfig workload_config(const Shape& shape, std::uint64_t seed) {
  sim::SimConfig config = base_config(seed);
  config.num_users = shape.users;
  config.ticks = shape.warmup_ticks + shape.timed_ticks;
  config.num_threads = shape.threads;
  if (shape.epoch_ticks == 0) {
    fix_blacklist(config);
  } else {
    // Churn keeps the seed's own draw: its schedule retires and adds
    // relative to the seeded entries, and its wire traffic is re-syncs,
    // which do not depend on which pages are listed.
    config.churn.epoch_ticks = shape.epoch_ticks;
    config.churn.add_rate = 0.02;
    config.churn.remove_rate = 0.02;
    config.churn.minimum_wait_ticks = 20;
    config.mix_fraction = 0.5;
    config.mix_protocol = sbp::sb::ProtocolVersion::kV4Sliced;
  }
  return config;
}

std::string num(std::uint64_t value) { return std::to_string(value); }

/// Counter-conservation laws over the whole run.
void check_conservation(Report& report, Fleet& fleet, const Shape& shape) {
  const Outcome o = fleet.outcome();
  const sbp::sb::ClientMetrics p = fleet.engine().population_metrics();
  const sim::SimMetrics& m = o.metrics;
  const sbp::sb::TransportStats& w = o.wire;
  const std::uint64_t ticks = shape.warmup_ticks + shape.timed_ticks;
  report.check("ticks_run", m.ticks_run == ticks,
               num(m.ticks_run) + " of " + num(ticks));
  report.check("lookup_accounting",
               m.local_hit_lookups <= m.lookups &&
                   m.dispatched_lookups + m.mitigated_lookups ==
                       m.local_hit_lookups &&
                   m.url_cache_hits + m.url_cache_misses == m.lookups,
               num(m.lookups) + " lookups, " + num(m.local_hit_lookups) +
                   " local hits, " + num(m.dispatched_lookups) +
                   " dispatched");
  report.check("clients_agree_with_wire",
               m.malicious_verdicts == p.malicious_verdicts &&
                   w.full_hash_requests == p.full_hash_requests,
               num(w.full_hash_requests) + " full-hash requests on the wire, " +
                   num(p.full_hash_requests) + " from clients");
  report.check("no_failures",
               w.failed_requests == 0 && p.network_errors == 0 &&
                   p.updates_failed == 0 && p.backoff_suppressed == 0,
               num(w.failed_requests) + " failed requests");
  report.check("log_is_query_requests",
               o.log_entries == w.full_hash_requests + w.v1_requests,
               num(o.log_entries) + " log entries");
  if (shape.epoch_ticks > 0) {
    report.check("churn_epochs",
                 m.churn_events == (ticks - 1) / shape.epoch_ticks,
                 num(m.churn_events) + " epochs");
  }
}

Outcome run_to_end(sim::SimConfig config) {
  Fleet fleet(std::move(config));
  fleet.engine().run();
  return fleet.outcome();
}

void check_same(Report& report, const std::string& name, const Outcome& a,
                const Outcome& b) {
  report.check(name, same_outcome(a, b), describe(a) + " vs " + describe(b));
}

void warm_up(Fleet& fleet, std::uint64_t ticks) {
  for (std::uint64_t t = 0; t < ticks; ++t) fleet.engine().step();
}

void record_shape(Report& report, const Options& options, const Shape& shape,
                  std::size_t threads_used) {
  report.record("seed", options.seed);
  report.record("users", shape.users);
  report.record("ticks", shape.timed_ticks);
  report.record("warmup_ticks", shape.warmup_ticks);
  report.record("blocks", shape.blocks);
  report.record("engine_threads", shape.threads);
  report.record("engine_threads_used", threads_used);
  report.record("connections", 0);
  report.record("window", 0);
}

std::size_t request_capacity(const Shape& shape) {
  return shape.users * shape.timed_ticks / 8 + 4096;
}

void count_operations(Report& report, const Fleet::Window& w) {
  report.attempted =
      (w.after.metrics.lookups - w.before.metrics.lookups) +
      (w.after.population.updates_attempted -
       w.before.population.updates_attempted);
  report.failed = w.after.wire.failed_requests - w.before.wire.failed_requests;
}

void run_untraced(const Options& options, const Shape& shape,
                  Report& report) {
  const sim::SimConfig config = workload_config(shape, options.seed);
  // One set-up per process: the first construction in a fresh process is
  // what a user pays; run.py takes the median over processes.
  const std::uint64_t setup_start = now_ns();
  auto fleet = std::make_unique<Fleet>(config);
  const double setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;
  record_shape(report, options, shape, fleet->engine().num_threads());
  warm_up(*fleet, shape.warmup_ticks);
  Fleet::Window w = fleet->run_window(shape.timed_ticks, shape.blocks,
                                      request_capacity(shape), nullptr);
  count_operations(report, w);

  std::vector<std::uint64_t> rtt = w.request_ns;
  report.metric("user_ticks_per_s", w.user_ticks_per_s(shape.users),
                "user-ticks/s");
  report.metric("setup_s", setup_s, "s");
  report.metric("rss_mb", peak_rss_mb(), "MB");
  report.metric("wire_mb_down",
                static_cast<double>(w.after.wire.bytes_down) / 1e6, "MB");
  report.metric("requests_per_s", w.requests_per_s(), "1/s");
  report.metric("rtt_us_p50", static_cast<double>(quantile(rtt, 0.50)) / 1e3,
                "us");
  report.metric("rtt_us_p99", static_cast<double>(quantile(rtt, 0.99)) / 1e3,
                "us");

  report.record("block_s", json_list(w.block_seconds));
  report.record("rtt_samples", rtt.size());
  report.record("window_seconds", std::to_string(w.seconds()));
  report.check("rtt_samples_kept", w.request_ns_dropped == 0 && !rtt.empty(),
               num(rtt.size()) + " kept, " + num(w.request_ns_dropped) +
                   " dropped");
  check_conservation(report, *fleet, shape);
  const Outcome full = fleet->outcome();
  fleet.reset();

  report.record_text("outcome", describe(full));
  if (!options.twin) return;

  // Determinism twin at a twentieth of the fleet over the same ticks: the
  // untraced run, the traced run and (churn) the 1-thread engine must
  // agree on the query log, wire bytes and request counts.
  sim::SimConfig twin = config;
  twin.num_users = std::max<std::size_t>(
      shape.users / 20, std::min<std::size_t>(shape.users, 500));
  const Outcome plain = run_to_end(twin);
  twin.collect_metrics = true;
  check_same(report, "twin_traced_equals_untraced", plain, run_to_end(twin));
  if (shape.threads > 1) {
    twin.collect_metrics = false;
    twin.num_threads = 1;
    check_same(report, "twin_1_thread_equals_parallel", plain,
               run_to_end(twin));
  }
}

void run_traced(const Options& options, const Shape& shape, Report& report) {
  sim::SimConfig config = workload_config(shape, options.seed);

  // Untraced leg: the overhead baseline and the exact allocation count.
  double untraced_rate = 0.0;
  double allocs_per_user_tick = 0.0;
  Outcome untraced;
  {
    Fleet fleet(config);
    warm_up(fleet, shape.warmup_ticks);
    const Fleet::Window w = fleet.run_window(
        shape.timed_ticks, shape.blocks, request_capacity(shape), nullptr);
    untraced_rate = w.user_ticks_per_s(shape.users);
    allocs_per_user_tick =
        static_cast<double>(w.after.allocations - w.before.allocations) /
        (static_cast<double>(shape.users) *
         static_cast<double>(shape.timed_ticks));
    untraced = fleet.outcome();
  }

  Tracer tracer("main", 1 << 16);
  const std::uint16_t setup_span = tracer.intern("setup");
  const std::uint16_t warmup_span = tracer.intern("warmup");
  config.collect_metrics = true;
  std::unique_ptr<Fleet> fleet;
  {
    ScopedSpan span(&tracer, setup_span);
    fleet = std::make_unique<Fleet>(config);
  }
  record_shape(report, options, shape, fleet->engine().num_threads());
  {
    ScopedSpan span(&tracer, warmup_span);
    warm_up(*fleet, shape.warmup_ticks);
  }
  const Fleet::Window w = fleet->run_window(
      shape.timed_ticks, shape.blocks, request_capacity(shape), &tracer);
  count_operations(report, w);
  check_conservation(report, *fleet, shape);
  check_same(report, "traced_equals_untraced", untraced, fleet->outcome());

  const CallReplay calls =
      replay_calls(fleet->engine(), fleet->engine().user_client(0),
                   options.seed, 20000, &tracer);
  add_sim_layers(report, w, fleet->engine().num_threads(),
                 allocs_per_user_tick, calls);
  ChannelTotals channels;
  channels.channels = &w.after.obs.transport;
  channels.failed_requests = w.after.wire.failed_requests;
  channels.encode_cache_hits = w.after.encode_cache_hits;
  channels.client_apply_ms =
      phase_ms(w.before.obs, w.after.obs, sbp::obs::Phase::kResync) -
      static_cast<double>(update_busy_ns(w.after.obs.transport) -
                          update_busy_ns(w.before.obs.transport)) /
          1e6;
  add_channel_layers(report, channels);
  add_absent_net_layers(report);
  const double traced_rate = w.user_ticks_per_s(shape.users);
  report.metric("trace.overhead_pct",
                100.0 * (untraced_rate - traced_rate) / untraced_rate, "%");
  report.record("untraced_user_ticks_per_s", std::to_string(untraced_rate));
  report.record("traced_user_ticks_per_s", std::to_string(traced_rate));
  fleet.reset();

  if (shape.threads > 1) {
    config.collect_metrics = false;
    config.num_threads = 1;
    check_same(report, "1_thread_equals_parallel", untraced,
               run_to_end(config));
  }
  if (!options.trace_out.empty()) {
    report.check("trace_written",
                 write_trace_file(options.trace_out, options.workload,
                                  options.seed, {&tracer}),
                 options.trace_out);
  }
}

}  // namespace

void run_sim(const Options& options, Report& report) {
  const Shape shape = shape_for(options);
  if (options.trace) {
    run_traced(options, shape, report);
  } else {
    run_untraced(options, shape, report);
  }
}

}  // namespace perfbench
