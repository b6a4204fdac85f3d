#include "net/socket_transport.hpp"

#include "net/frame_codec.hpp"

namespace sbp::net {

SocketTransport::SocketTransport(const std::string& endpoint_spec,
                                 sb::SimClock& clock)
    : FrameTransport(clock) {
  // Both calls write error_ only when they fail.
  const auto endpoint = parse_endpoint(endpoint_spec, &error_);
  if (endpoint) fd_ = connect_endpoint(*endpoint, &error_);
}

std::nullopt_t SocketTransport::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
  fd_.reset();
  return std::nullopt;
}

void SocketTransport::reply_undecodable(obs::Channel channel) {
  fail("undecodable " + std::string(obs::channel_name(channel)) +
       " response");
}

std::optional<sb::ReplyFrame> SocketTransport::exchange(
    obs::Channel channel, const std::vector<std::uint8_t>& request_frame) {
  if (!fd_.valid()) return std::nullopt;
  const auto envelope = encode_envelope(clock_.now(), request_frame);
  if (!write_all(fd_.get(), envelope.data(), envelope.size())) {
    return fail("write failed");
  }
  std::uint8_t header[kEnvelopeHeaderBytes];
  if (!read_exact(fd_.get(), header, sizeof(header))) {
    return fail("short read on response header");
  }
  const std::uint32_t payload_len = envelope_payload_length(header);
  if (payload_len > kMaxPayloadBytes) return fail("oversize response payload");
  std::vector<std::uint8_t> payload(payload_len);
  if (payload_len > 0 &&
      !read_exact(fd_.get(), payload.data(), payload.size())) {
    return fail("short read on response payload");
  }
  return sb::ReplyFrame{channel, nullptr, std::move(payload)};
}

}  // namespace sbp::net
