// Client<->server transport interface and the in-process reference
// implementation.
//
// Substitution note (DESIGN.md): the paper's clients speak HTTPS to Google
// and Yandex; every privacy result depends only on what reaches the server
// -- prefixes (or, for v1, the URL), the SB cookie and timing. Every
// Transport carries exactly those as SERIALIZED WIRE FRAMES
// (sb/wire/frames.hpp): each request/response is byte-encoded, counted,
// decoded on the far side and only then processed, so TransportStats
// bytes_up/bytes_down are true wire sizes and nothing that is not in a
// frame can cross the boundary.
//
// There is one frame path. FrameTransport owns the client half: each
// typed endpoint encodes its request, hands the bytes to a single virtual
// exchange(), decodes the reply and counts the outcome (TransportStats,
// obs) in one place. Server::serve_frame owns the server half: it decodes
// a request frame, serves it and encodes the reply. Two exchanges plug in:
//   * InProcessTransport (this file) -- the deterministic golden path:
//     exchange() calls Server::serve_frame in the same address space. It
//     advances a simulated tick clock to model network latency (the
//     Lookup API was deprecated partly for its per-request round-trip,
//     Section 2.2) and can inject failures.
//   * net::SocketTransport (src/net/socket_transport.hpp) -- exchange()
//     carries the frame over a real TCP/Unix socket to a running sbserved,
//     whose net::Daemon calls the same Server::serve_frame.
//
// ProtocolClient and every mitigation talk to the abstract Transport only,
// so they work unchanged over either.
//
// One Transport serves all three protocol generations: v1 clear-URL
// lookups, v3 chunked updates, v4 sliced updates, and the v3/v4-shared
// full-hash exchange.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "obs/phase.hpp"
#include "sb/server.hpp"

namespace sbp::sb {

/// Deterministic simulation clock (1 tick ~ 1 ms at the default latencies).
class SimClock {
 public:
  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }
  void advance(std::uint64_t ticks) noexcept { now_ += ticks; }

 private:
  std::uint64_t now_ = 0;
};

/// Byte/request counters per endpoint. Byte counts are the exact encoded
/// frame sizes -- the bandwidth the provider would bill. The parallel
/// engine keeps one Transport (and thus one of these) per shard and
/// reduces them with operator+= after the tick barrier.
struct TransportStats {
  std::uint64_t full_hash_requests = 0;
  std::uint64_t update_requests = 0;     ///< v3 chunked updates
  std::uint64_t v4_update_requests = 0;  ///< v4 sliced updates
  std::uint64_t v1_requests = 0;         ///< v1 clear-URL lookups
  std::uint64_t failed_requests = 0;     ///< injected/transport failures
  std::uint64_t bytes_up = 0;    ///< client -> server (encoded frames)
  std::uint64_t bytes_down = 0;  ///< server -> client (encoded frames)
  /// Update-channel share of bytes_up/down (v3 chunked + v4 sliced update
  /// frames) -- the re-sync bandwidth live churn forces on the fleet,
  /// separated from the full-hash/lookup traffic so benches can report
  /// bytes-per-resync exactly (bench_update_churn).
  std::uint64_t update_bytes_up = 0;
  std::uint64_t update_bytes_down = 0;

  /// Counts one served request on `channel` (request counter, bytes,
  /// update_bytes_* share): the only channel-to-field mapping.
  void count(obs::Channel channel, std::uint64_t up,
             std::uint64_t down) noexcept;

  TransportStats& operator+=(const TransportStats& other) noexcept {
    full_hash_requests += other.full_hash_requests;
    update_requests += other.update_requests;
    v4_update_requests += other.v4_update_requests;
    v1_requests += other.v1_requests;
    failed_requests += other.failed_requests;
    bytes_up += other.bytes_up;
    bytes_down += other.bytes_down;
    update_bytes_up += other.update_bytes_up;
    update_bytes_down += other.update_bytes_down;
    return *this;
  }
};

/// Abstract transport: the four wire endpoints plus the shared clock,
/// byte accounting and per-channel observability. Implementations return
/// nullopt for any request that fails at the transport level (injected
/// failure, socket error, frame corruption) -- the client's backoff then
/// reacts exactly as it would to a real network error.
class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Full-hash endpoint (v3 + v4). Returns nullopt on a transport-level
  /// failure (the request never reaches the server and nothing is logged).
  [[nodiscard]] virtual std::optional<FullHashResponse>
  get_full_hashes_or_error(const std::vector<crypto::Prefix32>& prefixes,
                           Cookie cookie) = 0;

  /// v3 chunked-update endpoint.
  [[nodiscard]] virtual std::optional<UpdateResponse> fetch_update_or_error(
      const UpdateRequest& request) = 0;

  /// v4 sliced-update endpoint.
  [[nodiscard]] virtual std::optional<V4UpdateResponse>
  fetch_v4_update_or_error(const V4UpdateRequest& request) = 0;

  /// v1 Lookup endpoint: the URL crosses in clear. Returns the malicious
  /// verdict; nullopt on a transport-level failure.
  [[nodiscard]] virtual std::optional<bool> lookup_v1_or_error(
      std::string_view url, Cookie cookie) = 0;

  /// Convenience for tests/benches that never inject failures.
  [[nodiscard]] FullHashResponse get_full_hashes(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) {
    auto response = get_full_hashes_or_error(prefixes, cookie);
    return response ? std::move(*response) : FullHashResponse{};
  }
  [[nodiscard]] UpdateResponse fetch_update(const UpdateRequest& request) {
    auto response = fetch_update_or_error(request);
    return response ? std::move(*response) : UpdateResponse{};
  }

  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }

  /// Attaches per-channel observability (latency + exact frame-size
  /// histograms; see obs::ChannelStats). Null detaches; with it detached
  /// the endpoints read no wall clock and the request path is unchanged.
  /// Successful serves only -- failures and decode errors keep being
  /// counted by stats_ alone. The engine attaches each shard's transport
  /// to that shard's TransportObs, so recording never crosses threads.
  void set_obs(obs::TransportObs* obs) noexcept { obs_ = obs; }

 protected:
  explicit Transport(SimClock& clock) : clock_(clock) {}

  SimClock& clock_;
  TransportStats stats_;
  obs::TransportObs* obs_ = nullptr;
};

/// The four typed endpoints implemented once over a single byte-level
/// exchange(). Every call counts exactly one outcome: a decoded reply
/// counts the channel's request and frame bytes (TransportStats::count)
/// and records obs; anything else -- a refused, lost or undecodable
/// exchange -- counts failed_requests only and returns nullopt.
class FrameTransport : public Transport {
 public:
  [[nodiscard]] std::optional<FullHashResponse> get_full_hashes_or_error(
      const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) final;
  [[nodiscard]] std::optional<UpdateResponse> fetch_update_or_error(
      const UpdateRequest& request) final;
  [[nodiscard]] std::optional<V4UpdateResponse> fetch_v4_update_or_error(
      const V4UpdateRequest& request) final;
  [[nodiscard]] std::optional<bool> lookup_v1_or_error(std::string_view url,
                                                       Cookie cookie) final;

 protected:
  using Transport::Transport;

  /// Delivers one encoded request frame on `channel` and returns the
  /// encoded reply; nullopt when the request failed before a reply frame
  /// came back.
  [[nodiscard]] virtual std::optional<ReplyFrame> exchange(
      obs::Channel channel, const std::vector<std::uint8_t>& request_frame) = 0;

  /// Called when a reply frame came back but did not decode.
  virtual void reply_undecodable(obs::Channel /*channel*/) {}

 private:
  /// Times from `encode` (the request's encoding) to the decoded reply.
  template <class Response, class Encode>
  std::optional<Response> round_trip(
      obs::Channel channel, Encode encode,
      std::optional<Response> (*decode)(std::span<const std::uint8_t>));
};

/// The in-process reference transport: frames round-trip through the wire
/// codecs in one address space and Server::serve_frame answers them. This
/// is the deterministic golden path every networked run is compared
/// against.
class InProcessTransport final : public FrameTransport {
 public:
  /// Latencies are in clock ticks per round trip. With
  /// `round_trip_ticks == 0` the transport never writes the clock, so many
  /// zero-latency transports (one per engine shard) can share one SimClock
  /// from concurrent threads -- they only read it.
  InProcessTransport(Server& server, SimClock& clock,
                     std::uint64_t round_trip_ticks = 50)
      : FrameTransport(clock), server_(server), round_trip_(round_trip_ticks) {}

  /// Failure injection: the next `n` requests of each kind fail at the
  /// network level. Used to exercise the client's backoff (Section 2.2.1's
  /// request-frequency discipline).
  void inject_full_hash_failures(unsigned n) { fail_full_hashes_ = n; }
  void inject_update_failures(unsigned n) { fail_updates_ = n; }
  void inject_v1_failures(unsigned n) { fail_v1_ = n; }

 private:
  /// Advances the clock one round trip, drops the request if a failure is
  /// injected for its kind, else serves it at the advanced tick.
  std::optional<ReplyFrame> exchange(
      obs::Channel channel,
      const std::vector<std::uint8_t>& request_frame) override;

  Server& server_;
  std::uint64_t round_trip_;
  unsigned fail_full_hashes_ = 0;
  unsigned fail_updates_ = 0;
  unsigned fail_v1_ = 0;
};

}  // namespace sbp::sb
