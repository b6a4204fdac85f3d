#include "fleet.hpp"

#include <cstdio>

#include "report.hpp"
#include "sb/wire/frames.hpp"
#include "trace.hpp"

namespace perfbench {

namespace sb = sbp::sb;
namespace sim = sbp::sim;

template <class Encode, class Call>
auto FleetTransport::forward(Encode&& encode, Call&& call) {
  if (recording_) recorded_.push_back({clock_.now(), encode()});
  inner_.set_obs(obs_);  // the engine attaches obs to this wrapper
  const std::uint64_t start = timing_ ? now_ns() : 0;
  auto result = call();
  if (timing_) {
    if (request_ns_.size() < request_ns_.capacity()) {
      request_ns_.push_back(now_ns() - start);
    } else {
      ++dropped_;
    }
  }
  stats_ = inner_.stats();
  return result;
}

std::optional<sb::FullHashResponse> FleetTransport::get_full_hashes_or_error(
    const std::vector<sbp::crypto::Prefix32>& prefixes, sb::Cookie cookie) {
  return forward(
      [&] { return sb::wire::encode_full_hash_request({cookie, prefixes}); },
      [&] { return inner_.get_full_hashes_or_error(prefixes, cookie); });
}

std::optional<sb::UpdateResponse> FleetTransport::fetch_update_or_error(
    const sb::UpdateRequest& request) {
  return forward([&] { return sb::wire::encode_update_request(request); },
                 [&] { return inner_.fetch_update_or_error(request); });
}

std::optional<sb::V4UpdateResponse> FleetTransport::fetch_v4_update_or_error(
    const sb::V4UpdateRequest& request) {
  return forward([&] { return sb::wire::encode_v4_update_request(request); },
                 [&] { return inner_.fetch_v4_update_or_error(request); });
}

std::optional<bool> FleetTransport::lookup_v1_or_error(std::string_view url,
                                                       sb::Cookie cookie) {
  return forward(
      [&] {
        return sb::wire::encode_v1_lookup_request({cookie, std::string(url)});
      },
      [&] { return inner_.lookup_v1_or_error(url, cookie); });
}

void FleetTransport::start_timing(std::size_t capacity) {
  request_ns_.clear();
  request_ns_.reserve(capacity);
  dropped_ = 0;
  timing_ = true;
}

std::uint64_t total_requests(const sb::TransportStats& w) {
  return w.full_hash_requests + w.update_requests + w.v4_update_requests +
         w.v1_requests;
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  const sb::TransportStats& x = a.wire;
  const sb::TransportStats& y = b.wire;
  return a.fingerprint == b.fingerprint && a.log_entries == b.log_entries &&
         a.log_prefixes == b.log_prefixes &&
         a.log_multi_prefix == b.log_multi_prefix &&
         x.full_hash_requests == y.full_hash_requests &&
         x.update_requests == y.update_requests &&
         x.v4_update_requests == y.v4_update_requests &&
         x.v1_requests == y.v1_requests &&
         x.failed_requests == y.failed_requests && x.bytes_up == y.bytes_up &&
         x.bytes_down == y.bytes_down &&
         x.update_bytes_up == y.update_bytes_up &&
         x.update_bytes_down == y.update_bytes_down &&
         a.metrics.lookups == b.metrics.lookups &&
         a.metrics.local_hit_lookups == b.metrics.local_hit_lookups &&
         a.metrics.malicious_verdicts == b.metrics.malicious_verdicts &&
         a.metrics.churn_updates == b.metrics.churn_updates;
}

std::string describe(const Outcome& o) {
  char text[256];
  std::snprintf(text, sizeof text,
                "fingerprint 0x%016llx, %llu log entries, %llu requests, "
                "%llu bytes down",
                static_cast<unsigned long long>(o.fingerprint),
                static_cast<unsigned long long>(o.log_entries),
                static_cast<unsigned long long>(total_requests(o.wire)),
                static_cast<unsigned long long>(o.wire.bytes_down));
  return text;
}

sim::SimConfig base_config(std::uint64_t seed) {
  sim::SimConfig config;
  config.num_shards = 16;
  config.seed = seed;
  config.corpus.num_hosts = 20000;
  config.corpus.seed = 2016;
  config.corpus.max_pages = 300;
  config.blacklist.page_fraction = 0.004;
  config.blacklist.site_fraction = 0.0008;
  config.blacklist.max_entries = 1024;
  return config;
}

void fix_blacklist(sim::SimConfig& config) {
  struct Entry {
    std::string list;
    sbp::crypto::Digest256 digest;
  };
  auto entries = std::make_shared<std::vector<Entry>>();
  {
    sim::SimConfig reference = config;
    reference.num_users = 0;
    reference.ticks = 0;
    reference.seed = 2016;
    const sim::Engine engine(std::move(reference));
    const sb::Server& server = engine.server();
    for (const std::string& list : server.list_names()) {
      for (const auto prefix : server.prefixes(list)) {
        for (const auto& digest : server.digests_for(list, prefix)) {
          entries->push_back({list, digest});
        }
      }
    }
  }
  config.blacklist.page_fraction = 0.0;
  config.blacklist.site_fraction = 0.0;
  config.server_setup = [entries](sb::Server& server) {
    for (const Entry& entry : *entries) {
      server.add_digest(entry.list, entry.digest);
    }
  };
}

Fleet::Fleet(sim::SimConfig config, sb::Server* target, bool record_requests)
    : server_(target) {
  if (target == nullptr) {
    // Called before the population is built, so the factory below can
    // bind every shard transport to the engine's own server.
    config.server_setup = [this, setup = std::move(config.server_setup)](
                              sb::Server& server) {
      server_ = &server;
      if (setup) setup(server);
    };
  }
  config.transport_factory = [this, record_requests](std::size_t,
                                                     sb::SimClock& clock) {
    auto transport = std::make_unique<FleetTransport>(*server_, clock);
    if (record_requests) transport->start_recording();
    transports_.push_back(transport.get());
    return transport;
  };
  engine_ = std::make_unique<sim::Engine>(std::move(config));
  engine_->attach_sink(&sink_, /*retain_in_memory=*/false);
}

Outcome Fleet::outcome() const {
  Outcome o;
  o.fingerprint = sink_.fingerprint();
  o.log_entries = sink_.entries();
  o.log_prefixes = sink_.prefixes();
  o.log_multi_prefix = sink_.multi_prefix_entries();
  o.wire = engine_->transport_stats();
  o.metrics = engine_->metrics();
  return o;
}

Fleet::Counters Fleet::counters() const {
  Counters c;
  c.metrics = engine_->metrics();
  c.population = engine_->population_metrics();
  c.wire = engine_->transport_stats();
  c.encode_cache_hits = server_->update_encode_cache_hits();
  if (engine_->metrics_enabled()) c.obs = engine_->obs_snapshot();
  return c;
}

Fleet::Window Fleet::run_window(std::uint64_t ticks, std::size_t blocks,
                                std::size_t request_capacity,
                                Tracer* tracer) {
  Window w;
  w.ticks = ticks;
  blocks = std::max<std::size_t>(1, std::min<std::uint64_t>(blocks, ticks));
  for (FleetTransport* t : transports_) {
    t->start_timing(request_capacity / transports_.size() + 1);
  }
  w.block_seconds.reserve(blocks);
  if (tracer != nullptr) w.tick_ns.reserve(ticks);
  const std::uint16_t timed_span = tracer ? tracer->intern("timed") : 0;
  const std::uint16_t tick_span = tracer ? tracer->intern("tick") : 0;

  w.before = counters();
  w.before.allocations = allocations();
  {
    ScopedSpan timed(tracer, timed_span);
    std::uint64_t done = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::uint64_t block_end = ticks * (b + 1) / blocks;
      const std::uint64_t start = now_ns();
      for (; done < block_end; ++done) {
        if (tracer == nullptr) {
          engine_->step();
          continue;
        }
        const std::uint64_t tick_start = now_ns();
        tracer->begin(tick_span, engine_->current_tick());
        engine_->step();
        tracer->end();
        w.tick_ns.push_back(now_ns() - tick_start);
      }
      w.block_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    }
  }
  const std::uint64_t allocations_after = allocations();
  w.after = counters();
  w.after.allocations = allocations_after;

  for (const FleetTransport* t : transports_) {
    w.request_ns.insert(w.request_ns.end(), t->request_ns().begin(),
                        t->request_ns().end());
    w.request_ns_dropped += t->timing_dropped();
  }
  return w;
}

double Fleet::Window::seconds() const {
  double total = 0.0;
  for (const double block : block_seconds) total += block;
  return total;
}

double Fleet::Window::user_ticks_per_s(std::size_t users) const {
  return static_cast<double>(users) * static_cast<double>(ticks) /
         seconds();
}

std::uint64_t Fleet::Window::requests() const {
  return total_requests(after.wire) - total_requests(before.wire);
}

double Fleet::Window::requests_per_s() const {
  return static_cast<double>(requests()) / seconds();
}

}  // namespace perfbench
