#include "layers.hpp"

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sb/lookup_request.hpp"
#include "trace.hpp"
#include "url/canonicalize.hpp"
#include "url/decompose.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace obs = sbp::obs;

namespace {

// Keeps the replayed calls' results observable so none is optimised away.
volatile std::uint64_t g_replay_sink = 0;

constexpr double kMs = 1e6;

}  // namespace

CallReplay replay_calls(const sbp::sim::Engine& engine,
                        const sbp::sb::ProtocolClient& client,
                        std::uint64_t seed, std::size_t n, Tracer* tracer) {
  const sbp::sim::TrafficModel& model = engine.traffic_model();
  const std::uint64_t rng_seed = seed ^ 0x5EB1AC0FFEE5EEDULL;
  CallReplay r;
  r.urls = n;

  // Untimed preparation: the URLs and every layer's input.
  std::vector<std::string> urls(n);
  {
    sbp::util::Rng rng(rng_seed);
    auto cache = model.make_cache();
    for (std::string& url : urls) model.sample_url_into(rng, cache, url);
  }
  std::vector<std::optional<sbp::url::CanonicalUrl>> canonical(n);
  std::vector<sbp::crypto::Prefix32> prefixes;
  std::vector<std::size_t> offsets = {0};
  std::size_t expressions = 0;
  std::size_t widest = 1;
  {
    sbp::sb::LookupRequest request;
    for (std::size_t i = 0; i < n; ++i) {
      canonical[i] = sbp::url::canonicalize(urls[i]);
      request.build(urls[i]);
      expressions += request.size();
      const auto unique = request.unique_prefixes();
      prefixes.insert(prefixes.end(), unique.begin(), unique.end());
      offsets.push_back(prefixes.size());
      widest = std::max(widest, unique.size());
    }
  }
  r.expressions_per_url =
      n > 0 ? static_cast<double>(expressions) / static_cast<double>(n) : 0.0;
  const std::unique_ptr<bool[]> hits(new bool[widest]);

  const std::uint16_t replay_span = tracer ? tracer->intern("replay") : 0;
  const std::uint16_t sample_span =
      tracer ? tracer->intern("replay.sample") : 0;
  const std::uint16_t canonicalize_span =
      tracer ? tracer->intern("replay.canonicalize") : 0;
  const std::uint16_t decompose_span =
      tracer ? tracer->intern("replay.decompose") : 0;
  const std::uint16_t build_span =
      tracer ? tracer->intern("replay.lookup_request_build") : 0;
  const std::uint16_t probe_span = tracer ? tracer->intern("replay.probe") : 0;

  const auto timed = [&](std::uint16_t span, auto&& body) {
    ScopedSpan scoped(tracer, span);
    const std::uint64_t start = now_ns();
    body();
    return static_cast<double>(now_ns() - start);
  };

  std::vector<double> sample, canonicalize, decompose, build, probe;
  ScopedSpan replay(tracer, replay_span);
  std::string url;
  sbp::sb::LookupRequest request;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t sink = 0;
    sample.push_back(timed(sample_span, [&] {
      sbp::util::Rng rng(rng_seed);
      auto cache = model.make_cache();
      for (std::size_t i = 0; i < n; ++i) {
        model.sample_url_into(rng, cache, url);
        sink += url.size();
      }
    }));
    canonicalize.push_back(timed(canonicalize_span, [&] {
      for (const std::string& raw : urls) {
        const auto c = sbp::url::canonicalize(raw);
        sink += c ? c->path.size() : 0;
      }
    }));
    decompose.push_back(timed(decompose_span, [&] {
      for (const auto& c : canonical) {
        if (c) sink += sbp::url::decompose(*c).size();
      }
    }));
    build.push_back(timed(build_span, [&] {
      for (const std::string& raw : urls) {
        request.build(raw);
        sink += request.size();
      }
    }));
    probe.push_back(timed(probe_span, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t count = offsets[i + 1] - offsets[i];
        client.local_contains_many(
            std::span(prefixes).subspan(offsets[i], count),
            std::span<bool>(hits.get(), count));
        sink += count > 0 && hits[0] ? 1 : 0;
      }
    }));
    g_replay_sink = g_replay_sink + sink;
  }

  const double urls_d = n > 0 ? static_cast<double>(n) : 1.0;
  r.sample_ns_per_url = median(sample) / urls_d;
  r.canonicalize_ns_per_url = median(canonicalize) / urls_d;
  r.decompose_ns_per_url = median(decompose) / urls_d;
  r.lookup_request_build_ns_per_url = median(build) / urls_d;
  r.probe_ns_per_prefix =
      median(probe) /
      (prefixes.empty() ? 1.0 : static_cast<double>(prefixes.size()));
  return r;
}

double phase_ms(const obs::Snapshot& before, const obs::Snapshot& after,
                obs::Phase phase) {
  return static_cast<double>(after.phases.stats(phase).total_ns -
                             before.phases.stats(phase).total_ns) /
         kMs;
}

std::uint64_t update_busy_ns(const obs::TransportObs& transport) {
  return transport.channels[static_cast<std::size_t>(obs::Channel::kV3Update)]
             .serve_ns.sum() +
         transport.channels[static_cast<std::size_t>(obs::Channel::kV4Update)]
             .serve_ns.sum();
}

void add_sim_layers(Report& report, const Fleet::Window& w,
                    std::size_t threads, double allocs_per_user_tick,
                    const CallReplay& calls) {
  const obs::Snapshot& a = w.before.obs;
  const obs::Snapshot& b = w.after.obs;
  std::vector<std::uint64_t> ticks = w.tick_ns;
  report.metric("sim.tick_ms_p50",
                static_cast<double>(quantile(ticks, 0.50)) / kMs, "ms");
  report.metric("sim.tick_ms_p99",
                static_cast<double>(quantile(ticks, 0.99)) / kMs, "ms");
  report.metric("sim.plan_ms", phase_ms(a, b, obs::Phase::kPlan), "ms");
  report.metric("sim.lookup_ms", phase_ms(a, b, obs::Phase::kLookup), "ms");
  report.metric("sim.resync_ms", phase_ms(a, b, obs::Phase::kResync), "ms");
  report.metric("sim.churn_epoch_ms", phase_ms(a, b, obs::Phase::kChurnEpoch),
                "ms");
  report.metric("sim.log_drain_ms", phase_ms(a, b, obs::Phase::kLogDrain),
                "ms");
  const double parallel_ms = phase_ms(a, b, obs::Phase::kParallelTick);
  report.metric("sim.parallel_tick_ms", parallel_ms, "ms");

  std::uint64_t busy_ns = 0;
  for (std::size_t i = 0; i < b.pool.workers.size(); ++i) {
    busy_ns += b.pool.workers[i].busy_ns -
               (i < a.pool.workers.size() ? a.pool.workers[i].busy_ns : 0);
  }
  report.metric("sim.pool_idle_ms",
                parallel_ms * static_cast<double>(threads) -
                    static_cast<double>(busy_ns) / kMs,
                "ms");
  report.metric("sim.pool_dispatch_us_p50",
                static_cast<double>(b.pool.dispatch_ns.quantile(0.50)) / 1e3,
                "us");

  const sbp::sim::SimMetrics& m0 = w.before.metrics;
  const sbp::sim::SimMetrics& m1 = w.after.metrics;
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const std::uint64_t hits = m1.url_cache_hits - m0.url_cache_hits;
  const std::uint64_t misses = m1.url_cache_misses - m0.url_cache_misses;
  report.metric("sim.url_cache_hit_ratio", ratio(hits, hits + misses),
                "ratio");
  report.metric("sim.prefilter_pass_ratio",
                ratio(m1.local_hit_lookups - m0.local_hit_lookups,
                      m1.lookups - m0.lookups),
                "ratio");
  report.metric("sim.allocs_per_user_tick", allocs_per_user_tick,
                "allocs/user-tick");

  report.metric("traffic.sample_ns_per_url", calls.sample_ns_per_url,
                "ns/url");
  report.metric("url.canonicalize_ns_per_url", calls.canonicalize_ns_per_url,
                "ns/url");
  report.metric("url.decompose_ns_per_url", calls.decompose_ns_per_url,
                "ns/url");
  report.metric("url.expressions_per_url", calls.expressions_per_url,
                "count/url");
  report.metric("sb.lookup_request_build_ns_per_url",
                calls.lookup_request_build_ns_per_url, "ns/url");
  report.metric("storage.probe_ns_per_prefix", calls.probe_ns_per_prefix,
                "ns/prefix");
}

void add_channel_layers(Report& report, const ChannelTotals& totals) {
  const auto& channels = totals.channels->channels;
  const auto channel = [&](obs::Channel c) -> const obs::ChannelStats& {
    return channels[static_cast<std::size_t>(c)];
  };
  const obs::ChannelStats& v3 = channel(obs::Channel::kV3Update);
  const obs::ChannelStats& v4 = channel(obs::Channel::kV4Update);
  const obs::ChannelStats& full_hash = channel(obs::Channel::kFullHash);
  const std::uint64_t updates = v3.requests + v4.requests;
  report.metric("sb.update.requests", static_cast<double>(updates), "count");
  report.metric("sb.update.busy_ms",
                static_cast<double>(update_busy_ns(*totals.channels)) / kMs,
                "ms");
  report.metric("sb.update.mb_down",
                static_cast<double>(v3.bytes_down + v4.bytes_down) / 1e6,
                "MB");
  report.metric("sb.full_hash.requests",
                static_cast<double>(full_hash.requests), "count");
  report.metric("sb.full_hash.busy_ms",
                static_cast<double>(full_hash.serve_ns.sum()) / kMs, "ms");
  report.metric("sb.v1.requests",
                static_cast<double>(channel(obs::Channel::kV1Lookup).requests),
                "count");
  report.metric("sb.failed_requests",
                static_cast<double>(totals.failed_requests), "count");
  report.metric("sb.encode_cache_hit_ratio",
                updates > 0 ? static_cast<double>(totals.encode_cache_hits) /
                                  static_cast<double>(updates)
                            : 0.0,
                "ratio");
  report.metric("sb.client_apply_ms", totals.client_apply_ms, "ms");
}

void add_absent_net_layers(Report& report) {
  for (const char* name :
       {"net.poll_busy_ms", "net.poll_idle_ms", "net.window_full_ms"}) {
    report.metric(name, 0.0, "ms");
  }
  report.metric("net.frames_per_busy_poll", 0.0, "count/poll");
  report.metric("net.frames_served", 0.0, "count");
  report.metric("net.decode_errors", 0.0, "count");
  for (std::size_t c = 0; c < obs::kChannelCount; ++c) {
    report.metric("serve." +
                      std::string(obs::channel_name(
                          static_cast<obs::Channel>(c))) +
                      ".rtt_us_p99",
                  0.0, "us");
  }
}

}  // namespace perfbench
