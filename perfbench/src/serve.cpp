// serve: one net::Daemon thread serves a sealed sb::Server over a Unix
// socket; this thread is the load generator. It replays request frames
// recorded from in-process fleet runs -- v1 lookups, full-hash requests,
// v3 and v4 updates -- as a closed loop over kConnections connections,
// each keeping kWindow requests in flight, and checks every reply
// byte for byte against the in-process server's reply to the same
// request. There is no tick loop: the work is the envelope codec, the
// poll loop and frame decode / serve / encode.
//
// Both threads poll without blocking (the daemon steps poll_once(0), the
// generator polls with a zero timeout), so no request waits for a thread
// to be woken: on a shared host, wake-up latency swamps the serving cost
// (driven one request at a time through the engine's SocketTransport, p99
// ranged from 96 to 249 us over five identical runs on a 4-core VM).
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet.hpp"
#include "layers.hpp"
#include "net/daemon.hpp"
#include "net/frame_codec.hpp"
#include "net/socket.hpp"
#include "sb/wire/frames.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace net = sbp::net;
namespace obs = sbp::obs;
namespace sb = sbp::sb;
namespace sim = sbp::sim;

namespace {

constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 4;
constexpr std::uint64_t kStallNs = 5'000'000'000;
constexpr std::size_t kBlocks = 10;
// Timed passes over the recorded trace per second of --seconds on the
// reference machine (4-core x86-64, Release; ~250k requests/s). A fixed
// pass count keeps the bytes served independent of how many requests a
// seed's recording holds.
constexpr double kPassesPerSecond = 52.0;
constexpr std::uint64_t kFleetTicks = 400;
// v1 clients send every URL they visit, so a short run of many clients
// gives a steady v1 share of the recording.
constexpr std::uint64_t kV1FleetTicks = 40;
constexpr std::size_t kDefaultFleetUsers = 2000;
// A set-up takes milliseconds, so many are timed for a steady median.
constexpr std::size_t kSetups = 31;

sim::SimConfig serve_config(std::uint64_t seed) {
  sim::SimConfig config = base_config(seed);
  config.num_users = 0;
  config.ticks = kFleetTicks;
  config.num_shards = 8;
  config.num_threads = 1;
  config.full_hash_ttl = 16;
  fix_blacklist(config);
  return config;
}

/// One replayable request and the in-process server's reply to it.
struct Request {
  obs::Channel kind = obs::Channel::kFullHash;
  std::uint64_t tick = 0;
  std::vector<std::uint8_t> envelope;
  std::vector<std::uint8_t> reply;
};

/// The reply the in-process server gives to `frame` (the calls the daemon
/// makes, without the socket); false for a frame it would reject.
bool serve_in_process(sb::Server& server, Request& request,
                      const std::vector<std::uint8_t>& frame) {
  switch (static_cast<sb::wire::FrameType>(frame[0])) {
    case sb::wire::FrameType::kFullHashRequest: {
      const auto decoded = sb::wire::decode_full_hash_request(frame);
      if (!decoded) return false;
      request.kind = obs::Channel::kFullHash;
      request.reply = sb::wire::encode_full_hash_response(
          server.get_full_hashes(decoded->prefixes, decoded->cookie,
                                 request.tick));
      return true;
    }
    case sb::wire::FrameType::kV1LookupRequest: {
      const auto decoded = sb::wire::decode_v1_lookup_request(frame);
      if (!decoded) return false;
      request.kind = obs::Channel::kV1Lookup;
      request.reply = sb::wire::encode_v1_lookup_response(
          {server.lookup_v1(decoded->url, decoded->cookie, request.tick)});
      return true;
    }
    case sb::wire::FrameType::kUpdateRequest:
    case sb::wire::FrameType::kV4UpdateRequest: {
      const auto encoded = server.encoded_update_response(frame);
      if (!encoded) return false;
      request.kind = frame[0] == static_cast<std::uint8_t>(
                                     sb::wire::FrameType::kV4UpdateRequest)
                         ? obs::Channel::kV4Update
                         : obs::Channel::kV3Update;
      request.reply = *encoded;
      return true;
    }
    default:
      return false;
  }
}

/// The daemon's reactor on its own thread; spans around poll_once when a
/// tracer is attached. Counters are read after stop().
class DaemonLoop {
 public:
  explicit DaemonLoop(net::Daemon& daemon) : daemon_(daemon) {}
  ~DaemonLoop() { stop(); }
  DaemonLoop(const DaemonLoop&) = delete;
  DaemonLoop& operator=(const DaemonLoop&) = delete;

  void start(Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) {
      busy_span_ = tracer_->intern("poll_once.busy");
      idle_span_ = tracer_->intern("poll_once.idle");
    }
    busy_ns = idle_ns = busy_polls = frames = 0;
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { loop(); });
  }
  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t busy_polls = 0;
  std::uint64_t frames = 0;

 private:
  void loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      if (tracer_ == nullptr) {
        daemon_.poll_once(0);
        continue;
      }
      const std::uint64_t start = now_ns();
      const std::size_t served = daemon_.poll_once(0);
      const std::uint64_t end = now_ns();
      if (served > 0) {
        busy_ns += end - start;
        ++busy_polls;
        frames += served;
        tracer_->record(busy_span_, start, end, served);
      } else {
        idle_ns += end - start;
        tracer_->record(idle_span_, start, end);
      }
    }
  }

  net::Daemon& daemon_;
  Tracer* tracer_ = nullptr;
  std::uint16_t busy_span_ = 0;
  std::uint16_t idle_span_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joined before the members it uses go
};

struct Lane {
  net::Fd fd;
  net::FrameDecoder decoder;
  struct InFlight {
    std::uint64_t seq = 0;
    std::uint64_t sent_ns = 0;
  };
  std::array<InFlight, kWindow> ring{};
  std::size_t head = 0;
  std::size_t count = 0;
};

struct Replay {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t mismatched = 0;
  std::string error;
  std::vector<double> block_seconds;
  std::vector<std::uint64_t> rtt_ns;
  std::array<std::vector<std::uint64_t>, obs::kChannelCount> rtt_ns_by_kind;
  std::uint64_t window_full_ns = 0;

  [[nodiscard]] double seconds() const {
    double total = 0.0;
    for (const double block : block_seconds) total += block;
    return total;
  }
};

/// Replays requests first_seq .. first_seq+count-1 (cyclic over `trace`)
/// as a closed loop, then drains. Every reply is compared with the
/// in-process reply; a mismatch, a lost connection or a stall counts the
/// affected requests as failed.
Replay replay(std::vector<Lane>& lanes, const std::vector<Request>& trace,
              std::uint64_t first_seq, std::uint64_t count, bool keep_rtt,
              Tracer* tracer) {
  Replay r;
  r.attempted = count;
  const std::size_t blocks =
      static_cast<std::size_t>(std::min<std::uint64_t>(kBlocks, count));
  r.block_seconds.reserve(blocks);
  if (keep_rtt) r.rtt_ns.reserve(count);
  const std::uint16_t send_span = tracer ? tracer->intern("send") : 0;
  const std::uint16_t reply_span = tracer ? tracer->intern("reply") : 0;
  const std::uint16_t wait_span = tracer ? tracer->intern("window_full") : 0;

  std::uint64_t sent = 0;
  const auto send_next = [&](Lane& lane) {
    const std::uint64_t seq = first_seq + sent;
    const Request& request = trace[seq % trace.size()];
    ScopedSpan span(tracer, send_span, seq);
    const std::uint64_t now = now_ns();
    if (!net::write_all(lane.fd.get(), request.envelope.data(),
                        request.envelope.size())) {
      return false;
    }
    lane.ring[(lane.head + lane.count) % kWindow] = {seq, now};
    ++lane.count;
    ++sent;
    return true;
  };

  std::uint64_t block = 0;
  std::uint64_t block_start = now_ns();
  const auto complete_block = [&] {
    while (block < blocks && r.completed >= count * (block + 1) / blocks) {
      const std::uint64_t now = now_ns();
      r.block_seconds.push_back(static_cast<double>(now - block_start) / 1e9);
      block_start = now;
      ++block;
    }
  };

  for (Lane& lane : lanes) {
    while (lane.count < kWindow && sent < count && r.error.empty()) {
      if (!send_next(lane)) r.error = "send failed";
    }
  }
  std::array<std::uint8_t, 1 << 16> buffer;
  std::array<pollfd, kConnections> fds{};
  std::uint64_t waiting_since = 0;  // 0: not waiting
  while (r.completed < count && r.error.empty()) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      fds[i] = {lanes[i].fd.get(), POLLIN, 0};
    }
    const int ready = ::poll(fds.data(), lanes.size(), 0);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) {
      r.error = "poll failed";
      break;
    }
    if (ready == 0) {
      const std::uint64_t now = now_ns();
      if (waiting_since == 0) {
        waiting_since = now;
      } else if (now - waiting_since > kStallNs) {
        r.error = "no reply within 5 s";
        break;
      }
      continue;
    }
    if (waiting_since != 0) {
      const std::uint64_t now = now_ns();
      r.window_full_ns += now - waiting_since;
      if (tracer != nullptr) tracer->record(wait_span, waiting_since, now);
      waiting_since = 0;
    }
    for (std::size_t i = 0; i < lanes.size() && r.error.empty(); ++i) {
      if (fds[i].revents == 0) continue;
      Lane& lane = lanes[i];
      const ssize_t n = ::read(lane.fd.get(), buffer.data(), buffer.size());
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        r.error = "connection lost";
        break;
      }
      lane.decoder.feed(buffer.data(), static_cast<std::size_t>(n));
      while (auto envelope = lane.decoder.next()) {
        const std::uint64_t arrived = now_ns();
        if (lane.count == 0) {
          r.error = "reply without a request";
          break;
        }
        const Lane::InFlight in_flight = lane.ring[lane.head];
        lane.head = (lane.head + 1) % kWindow;
        --lane.count;
        const Request& request = trace[in_flight.seq % trace.size()];
        {
          ScopedSpan span(tracer, reply_span, in_flight.seq);
          if (envelope->tick != request.tick ||
              envelope->payload != request.reply) {
            ++r.mismatched;
          }
        }
        const std::uint64_t rtt = arrived - in_flight.sent_ns;
        if (keep_rtt) r.rtt_ns.push_back(rtt);
        if (tracer != nullptr) {
          r.rtt_ns_by_kind[static_cast<std::size_t>(request.kind)].push_back(
              rtt);
        }
        ++r.completed;
        complete_block();
        if (sent < count && r.error.empty() && !send_next(lane)) {
          r.error = "send failed";
        }
      }
      if (lane.decoder.error()) r.error = "undecodable reply stream";
    }
  }
  return r;
}

struct Served {
  net::DaemonStats stats;
  sb::TransportStats wire;
};

Served served(const net::Daemon& daemon) {
  return {daemon.stats(), daemon.transport_stats()};
}

}  // namespace

void run_serve(const Options& options, Report& report) {
  net::ignore_sigpipe();
  const sim::SimConfig base = serve_config(options.seed);
  const std::size_t fleet_users =
      options.users > 0 ? options.users : kDefaultFleetUsers;
  const std::size_t v1_users = std::max<std::size_t>(1, fleet_users / 10);
  const std::string endpoint =
      "unix:perfbench-" + std::to_string(::getpid()) + ".sock";

  // Set-up (timed): the sealed server, the daemon's listener and the
  // generator's connections.
  std::vector<double> setups;
  std::unique_ptr<sim::Engine> server_engine;
  sim::CountingSink server_log;
  std::unique_ptr<net::Daemon> daemon;
  std::vector<Lane> lanes;
  for (std::size_t i = 0; i < kSetups; ++i) {
    lanes.clear();
    if (daemon) daemon->shutdown(0);
    daemon.reset();
    server_engine.reset();
    const std::uint64_t start = now_ns();
    server_engine = std::make_unique<sim::Engine>(base);
    server_engine->attach_sink(&server_log, /*retain_in_memory=*/false);
    daemon = std::make_unique<net::Daemon>(server_engine->server());
    std::string error;
    if (!daemon->listen(endpoint, &error)) {
      report.check("daemon_listens", false, error);
      return;
    }
    const auto parsed = net::parse_endpoint(endpoint, &error);
    lanes.resize(kConnections);
    for (Lane& lane : lanes) {
      lane.fd = net::connect_endpoint(*parsed, &error);
      if (!lane.fd.valid()) {
        report.check("generator_connects", false, error);
        return;
      }
    }
    setups.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  sb::Server& server = server_engine->server();

  // The recorded traffic: a mixed v3/v4 fleet and a v1 fleet, every
  // request frame in the order sent (initial syncs first).
  Tracer tracer("main", 1 << 14);
  Tracer daemon_tracer("daemon", 1 << 14);
  Tracer* const main_tracer = options.trace ? &tracer : nullptr;
  sim::SimConfig prefix_fleet_config = base;
  prefix_fleet_config.num_users = fleet_users;
  prefix_fleet_config.mix_fraction = 0.5;
  prefix_fleet_config.mix_protocol = sb::ProtocolVersion::kV4Sliced;
  prefix_fleet_config.collect_metrics = options.trace;
  sim::SimConfig v1_fleet_config = base;
  v1_fleet_config.num_users = v1_users;
  v1_fleet_config.ticks = kV1FleetTicks;
  v1_fleet_config.protocol = sb::ProtocolVersion::kV1Lookup;

  std::vector<RecordedRequest> recorded;
  const auto collect = [&](const Fleet& fleet) {
    for (const FleetTransport* t : fleet.transports()) {
      recorded.insert(recorded.end(), t->recorded().begin(),
                      t->recorded().end());
    }
  };
  Fleet prefix_fleet(prefix_fleet_config, &server, /*record_requests=*/true);
  const Fleet::Window fleet_window = prefix_fleet.run_window(
      kFleetTicks, kBlocks, fleet_users * kFleetTicks, main_tracer);
  collect(prefix_fleet);
  {
    Fleet v1_fleet(v1_fleet_config, &server, /*record_requests=*/true);
    v1_fleet.engine().run();
    collect(v1_fleet);
  }
  std::stable_sort(recorded.begin(), recorded.end(),
                   [](const RecordedRequest& a, const RecordedRequest& b) {
                     return a.tick < b.tick;
                   });

  std::vector<Request> trace(recorded.size());
  // Per kind: requests, request bytes and reply bytes of the recording.
  std::array<std::uint64_t, obs::kChannelCount> kinds{};
  std::array<std::uint64_t, obs::kChannelCount> kind_bytes_up{};
  std::array<std::uint64_t, obs::kChannelCount> kind_bytes_down{};
  std::uint64_t reply_bytes = 0;
  bool all_served = !recorded.empty();
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    Request& request = trace[i];
    request.tick = recorded[i].tick;
    request.envelope = net::encode_envelope(request.tick, recorded[i].frame);
    all_served = all_served && serve_in_process(server, request,
                                                recorded[i].frame);
    const auto kind = static_cast<std::size_t>(request.kind);
    ++kinds[kind];
    kind_bytes_up[kind] += request.envelope.size();
    kind_bytes_down[kind] += request.reply.size();
    reply_bytes += request.reply.size();
  }
  recorded.clear();
  report.check("trace_replayable", all_served,
               std::to_string(trace.size()) + " recorded requests");
  bool every_kind = true;
  for (std::size_t c = 0; c < obs::kChannelCount; ++c) {
    const std::string name(obs::channel_name(static_cast<obs::Channel>(c)));
    report.record("trace_" + name, kinds[c]);
    report.record("trace_" + name + "_bytes_up", kind_bytes_up[c]);
    report.record("trace_" + name + "_bytes_down", kind_bytes_down[c]);
    every_kind = every_kind && kinds[c] > 0;
  }
  report.check("trace_has_every_kind", every_kind);
  if (!all_served) return;
  if (options.inject_mismatch) trace.front().reply.push_back(0);

  const std::uint64_t passes = std::max<std::uint64_t>(
      1, options.requests > 0
             ? (options.requests + trace.size() - 1) / trace.size()
             : static_cast<std::uint64_t>(
                   std::llround(options.seconds * kPassesPerSecond)));
  const std::uint64_t timed = passes * trace.size();
  const std::uint64_t warmup = std::min<std::uint64_t>(trace.size(), 20000);
  const double fleet_user_ticks = static_cast<double>(
      fleet_users * kFleetTicks + v1_users * kV1FleetTicks);

  report.record("seed", options.seed);
  report.record("users", fleet_users);
  report.record("ticks", kFleetTicks);
  report.record("v1_users", v1_users);
  report.record("v1_ticks", kV1FleetTicks);
  report.record("warmup_requests", warmup);
  report.record("requests", timed);
  report.record("passes", passes);
  report.record("engine_threads", 1);
  report.record("connections", kConnections);
  report.record("window", kWindow);

  DaemonLoop loop(*daemon);
  const std::uint64_t cache_hits_before = server.update_encode_cache_hits();
  loop.start(nullptr);
  const Replay warm = replay(lanes, trace, 0, warmup, false, nullptr);
  loop.stop();
  const Served before = served(*daemon);

  // Untraced timed phase (the end-to-end numbers, or the overhead
  // baseline of a traced run).
  loop.start(nullptr);
  Replay r = replay(lanes, trace, warmup, timed, true, nullptr);
  loop.stop();
  const Served after = served(*daemon);
  const double untraced_rate = static_cast<double>(passes) *
                               fleet_user_ticks / r.seconds();

  const auto check_phase = [&](const std::string& name, const Replay& phase,
                               const Served& from, const Served& to,
                               std::uint64_t expected_bytes) {
    report.check(name + "_replies_match",
                 phase.error.empty() && phase.mismatched == 0 &&
                     phase.completed == phase.attempted,
                 std::to_string(phase.completed) + " of " +
                     std::to_string(phase.attempted) + " completed, " +
                     std::to_string(phase.mismatched) + " mismatched" +
                     (phase.error.empty() ? "" : ", " + phase.error));
    report.check(name + "_daemon_counts",
                 to.stats.frames_served - from.stats.frames_served ==
                         phase.attempted &&
                     to.stats.decode_errors == 0 &&
                     (!phase.error.empty() ||
                      to.wire.bytes_down - from.wire.bytes_down ==
                          expected_bytes),
                 std::to_string(to.wire.bytes_down - from.wire.bytes_down) +
                     " bytes down");
  };
  report.check("warmup_replies_match", warm.error.empty() &&
                                           warm.mismatched == 0,
               std::to_string(warm.mismatched) + " mismatched");
  check_phase("timed", r, before, after, passes * reply_bytes);
  report.attempted = r.attempted;
  report.failed = r.attempted - (r.completed - r.mismatched);

  if (!options.trace) {
    report.metric("user_ticks_per_s", untraced_rate, "user-ticks/s");
    report.metric("setup_s", median(setups), "s");
    report.metric("rss_mb", peak_rss_mb(), "MB");
    report.metric("wire_mb_down",
                  static_cast<double>(after.wire.bytes_down -
                                      before.wire.bytes_down) /
                      1e6,
                  "MB");
    report.metric("requests_per_s",
                  static_cast<double>(timed) / r.seconds(), "1/s");
    report.metric("rtt_us_p50",
                  static_cast<double>(quantile(r.rtt_ns, 0.50)) / 1e3, "us");
    report.metric("rtt_us_p99",
                  static_cast<double>(quantile(r.rtt_ns, 0.99)) / 1e3, "us");
    report.record("rtt_samples", r.rtt_ns.size());
    report.record("window_seconds", std::to_string(r.seconds()));
    report.record("setup_s_each", json_list(setups));
    report.record("block_s", json_list(r.block_seconds));
  } else {
    // Traced timed phase over the same requests: spans in the generator
    // and around every poll_once.
    loop.start(&daemon_tracer);
    const Replay traced =
        replay(lanes, trace, warmup, timed, false, &tracer);
    loop.stop();
    const Served traced_after = served(*daemon);
    check_phase("traced", traced, after, traced_after, passes * reply_bytes);
    const double traced_rate = static_cast<double>(passes) *
                               fleet_user_ticks / traced.seconds();
    report.attempted += traced.attempted;
    report.failed += traced.attempted - (traced.completed - traced.mismatched);

    const CallReplay calls = replay_calls(
        prefix_fleet.engine(), prefix_fleet.engine().user_client(0),
        options.seed, 20000, &tracer);
    const double allocs_per_user_tick =
        static_cast<double>(fleet_window.after.allocations -
                            fleet_window.before.allocations) /
        (static_cast<double>(fleet_users) * static_cast<double>(kFleetTicks));
    add_sim_layers(report, fleet_window, prefix_fleet.engine().num_threads(),
                   allocs_per_user_tick, calls);
    ChannelTotals channels;
    channels.channels = &daemon->transport_obs();
    channels.failed_requests = report.failed;
    channels.encode_cache_hits =
        server.update_encode_cache_hits() - cache_hits_before;
    channels.client_apply_ms = 0.0;  // a replay applies no update
    add_channel_layers(report, channels);

    report.metric("net.poll_busy_ms",
                  static_cast<double>(loop.busy_ns) / 1e6, "ms");
    report.metric("net.poll_idle_ms",
                  static_cast<double>(loop.idle_ns) / 1e6, "ms");
    report.metric("net.window_full_ms",
                  static_cast<double>(traced.window_full_ns) / 1e6, "ms");
    report.metric("net.frames_per_busy_poll",
                  loop.busy_polls > 0 ? static_cast<double>(loop.frames) /
                                            static_cast<double>(loop.busy_polls)
                                      : 0.0,
                  "count/poll");
    report.metric("net.frames_served",
                  static_cast<double>(traced_after.stats.frames_served -
                                      after.stats.frames_served),
                  "count");
    report.metric("net.decode_errors",
                  static_cast<double>(traced_after.stats.decode_errors),
                  "count");
    for (std::size_t c = 0; c < obs::kChannelCount; ++c) {
      std::vector<std::uint64_t> rtt = traced.rtt_ns_by_kind[c];
      report.metric("serve." +
                        std::string(obs::channel_name(
                            static_cast<obs::Channel>(c))) +
                        ".rtt_us_p99",
                    static_cast<double>(quantile(rtt, 0.99)) / 1e3, "us");
    }
    report.metric("trace.overhead_pct",
                  100.0 * (untraced_rate - traced_rate) / untraced_rate, "%");
    report.record("untraced_user_ticks_per_s", std::to_string(untraced_rate));
    report.record("traced_user_ticks_per_s", std::to_string(traced_rate));
    if (!options.trace_out.empty()) {
      report.check("trace_written",
                   write_trace_file(options.trace_out, options.workload,
                                    options.seed, {&tracer, &daemon_tracer}),
                   options.trace_out);
    }
  }

  lanes.clear();
  daemon->shutdown(0);
  std::remove(endpoint.substr(5).c_str());
}

}  // namespace perfbench
