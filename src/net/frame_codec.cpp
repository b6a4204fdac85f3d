#include "net/frame_codec.hpp"

namespace sbp::net {

namespace {

/// Appends the low `bytes` bytes of `value`, little-endian.
void put_le(std::vector<std::uint8_t>& out, std::uint64_t value, int bytes) {
  for (int shift = 0; shift < 8 * bytes; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(value >> shift));
  }
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) value = value << 8 | p[i];
  return value;
}

}  // namespace

std::vector<std::uint8_t> encode_envelope(
    std::uint64_t tick, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kEnvelopeHeaderBytes + payload.size());
  append_envelope(out, tick, payload);
  return out;
}

void append_envelope(std::vector<std::uint8_t>& out, std::uint64_t tick,
                     std::span<const std::uint8_t> payload) {
  put_le(out, payload.size(), 4);
  put_le(out, tick, 8);
  out.insert(out.end(), payload.begin(), payload.end());
}

std::uint32_t envelope_payload_length(const std::uint8_t* header) noexcept {
  return static_cast<std::uint32_t>(header[0]) |
         static_cast<std::uint32_t>(header[1]) << 8 |
         static_cast<std::uint32_t>(header[2]) << 16 |
         static_cast<std::uint32_t>(header[3]) << 24;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (error_) return;  // poisoned: drop everything until the close
  compact();
  buffer_.insert(buffer_.end(), data, data + n);
}

void FrameDecoder::compact() {
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(read_));
  read_ = 0;
}

bool FrameDecoder::ready() const noexcept {
  if (error_ || buffered() < kEnvelopeHeaderBytes) return false;
  const std::uint32_t payload_len =
      envelope_payload_length(buffer_.data() + read_);
  return payload_len <= kMaxPayloadBytes &&
         buffered() >= kEnvelopeHeaderBytes + payload_len;
}

std::optional<Envelope> FrameDecoder::next() {
  if (error_ || buffered() < kEnvelopeHeaderBytes) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + read_;
  const std::uint32_t payload_len = envelope_payload_length(head);
  if (payload_len > kMaxPayloadBytes) {
    // Nothing is allocated for the bogus length; the stream is
    // unrecoverable (we cannot know where the next frame starts).
    error_ = true;
    buffer_.clear();
    buffer_.shrink_to_fit();
    read_ = 0;
    return std::nullopt;
  }
  const std::size_t total = kEnvelopeHeaderBytes + payload_len;
  if (buffered() < total) return std::nullopt;

  Envelope envelope;
  envelope.tick = get_u64(head + 4);
  envelope.payload.assign(head + kEnvelopeHeaderBytes, head + total);
  read_ += total;
  if (read_ == buffer_.size()) {
    buffer_.clear();
    read_ = 0;
  } else if (read_ > buffer_.size() / 2) {
    compact();
  }
  return envelope;
}

}  // namespace sbp::net
