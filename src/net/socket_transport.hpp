// sb::Transport over a stream socket (src/net).
//
// The networked exchange under sb::FrameTransport: the typed endpoints,
// their encode/decode and every counter are the base class's, shared with
// sb::InProcessTransport; this class only carries each request frame,
// wrapped in the envelope framing of net/frame_codec.hpp, synchronously
// over one TCP or Unix connection to a running sbserved, whose
// net::Daemon answers through the same Server::serve_frame. Synchronous
// blocking IO is deliberate -- the engine's client model is one
// outstanding request per client, so a request/response pipeline would
// buy nothing and cost the determinism argument (docs/networking.md).
//
// Equivalence contract: byte counters (TransportStats, obs) count frame
// payload bytes only, and every request carries clock().now() so the
// daemon logs queries at this client's deterministic tick. Like the
// engine's default in-process wiring, the clock is never advanced by
// transport (round-trip time is wall-clock, not simulated ticks).
//
// Failure model: any socket error (connect refused, EOF mid-response,
// oversize response length) or undecodable reply closes the connection,
// sets error(), and makes every subsequent request fail fast with nullopt
// -- the same nullopt surface, counted in failed_requests only, that the
// client retry logic already handles for injected failures. No
// reconnects: a scenario run is one connection per shard, and a daemon
// restart mid-run would break the equivalence contract anyway.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "sb/transport.hpp"

namespace sbp::net {

class SocketTransport final : public sb::FrameTransport {
 public:
  /// Connects to `endpoint_spec` ("tcp:HOST:PORT" or "unix:/PATH")
  /// immediately. On failure the transport is constructed in the error
  /// state (connected() == false) and every request returns nullopt.
  SocketTransport(const std::string& endpoint_spec, sb::SimClock& clock);

  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }
  /// Human-readable description of the first failure, empty if none.
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  /// Writes `request_frame` under an envelope stamped with clock().now(),
  /// reads exactly one response envelope back. nullopt (and a dead
  /// connection) on any IO or framing error.
  std::optional<sb::ReplyFrame> exchange(
      obs::Channel channel,
      const std::vector<std::uint8_t>& request_frame) override;
  void reply_undecodable(obs::Channel channel) override;
  /// Records the first error and closes the connection.
  std::nullopt_t fail(const std::string& what);

  Fd fd_;
  std::string error_;
};

}  // namespace sbp::net
