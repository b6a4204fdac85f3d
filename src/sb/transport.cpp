#include "sb/transport.hpp"

#include "sb/wire/frames.hpp"

namespace sbp::sb {

void TransportStats::count(obs::Channel channel, std::uint64_t up,
                           std::uint64_t down) noexcept {
  bytes_up += up;
  bytes_down += down;
  switch (channel) {
    case obs::Channel::kFullHash:
      ++full_hash_requests;
      return;
    case obs::Channel::kV1Lookup:
      ++v1_requests;
      return;
    case obs::Channel::kV3Update:
      ++update_requests;
      break;
    case obs::Channel::kV4Update:
      ++v4_update_requests;
      break;
    case obs::Channel::kCount:
      return;
  }
  update_bytes_up += up;
  update_bytes_down += down;
}

template <class Response, class Encode>
std::optional<Response> FrameTransport::round_trip(
    obs::Channel channel, Encode encode,
    std::optional<Response> (*decode)(std::span<const std::uint8_t>)) {
  const std::uint64_t start_ns = obs_ != nullptr ? obs::now_ns() : 0;
  const std::vector<std::uint8_t> request_frame = encode();
  const std::optional<ReplyFrame> reply = exchange(channel, request_frame);
  if (!reply) {
    ++stats_.failed_requests;
    return std::nullopt;
  }
  const std::span<const std::uint8_t> reply_bytes = reply->bytes();
  std::optional<Response> decoded = decode(reply_bytes);
  if (!decoded) {
    ++stats_.failed_requests;
    reply_undecodable(channel);
    return std::nullopt;
  }
  stats_.count(channel, request_frame.size(), reply_bytes.size());
  if (obs_ != nullptr) {
    obs_->channel(channel).record(request_frame.size(), reply_bytes.size(),
                                  obs::now_ns() - start_ns);
  }
  return decoded;
}

std::optional<FullHashResponse> FrameTransport::get_full_hashes_or_error(
    const std::vector<crypto::Prefix32>& prefixes, Cookie cookie) {
  return round_trip(
      obs::Channel::kFullHash,
      [&] { return wire::encode_full_hash_request({cookie, prefixes}); },
      &wire::decode_full_hash_response);
}

std::optional<UpdateResponse> FrameTransport::fetch_update_or_error(
    const UpdateRequest& request) {
  return round_trip(obs::Channel::kV3Update,
                    [&] { return wire::encode_update_request(request); },
                    &wire::decode_update_response);
}

std::optional<V4UpdateResponse> FrameTransport::fetch_v4_update_or_error(
    const V4UpdateRequest& request) {
  return round_trip(obs::Channel::kV4Update,
                    [&] { return wire::encode_v4_update_request(request); },
                    &wire::decode_v4_update_response);
}

std::optional<bool> FrameTransport::lookup_v1_or_error(std::string_view url,
                                                       Cookie cookie) {
  const auto response = round_trip(
      obs::Channel::kV1Lookup,
      [&] {
        return wire::encode_v1_lookup_request({cookie, std::string(url)});
      },
      &wire::decode_v1_lookup_response);
  if (!response) return std::nullopt;
  return response->malicious;
}

std::optional<ReplyFrame> InProcessTransport::exchange(
    obs::Channel channel, const std::vector<std::uint8_t>& request_frame) {
  if (round_trip_ > 0) clock_.advance(round_trip_);
  unsigned& failures = channel == obs::Channel::kFullHash   ? fail_full_hashes_
                       : channel == obs::Channel::kV1Lookup ? fail_v1_
                                                            : fail_updates_;
  if (failures > 0) {
    --failures;
    return std::nullopt;  // dropped before reaching the server
  }
  return server_.serve_frame(request_frame, clock_.now());
}

}  // namespace sbp::sb
