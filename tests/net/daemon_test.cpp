// The daemon under hostile and broken peers: garbage bytes, oversize
// envelope lengths, valid envelopes wrapping undecodable frames, peers
// that vanish mid-frame -- every case must close exactly the offending
// connection (counted in decode_errors where it is a protocol violation)
// and leave the daemon serving everyone else. Also pins the
// SocketTransport failure surface: a dead endpoint fails every request
// fast with nullopt + failed_requests, never crashes or blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fcntl.h>
#include <string>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "crypto/digest.hpp"
#include "net/daemon.hpp"
#include "net/frame_codec.hpp"
#include "net/socket.hpp"
#include "net/socket_transport.hpp"
#include "sb/server.hpp"
#include "sb/transport.hpp"
#include "sb/wire/frames.hpp"

namespace sbp::net {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/sbp_daemon_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A daemon over a tiny sealed server, stepped manually (no thread): each
/// pump() runs poll cycles until the daemon goes quiet.
struct Harness {
  Harness() {
    server.add_expression("goog-malware-shavar", "evil.example/");
    server.seal_chunk("goog-malware-shavar");
  }

  void listen(const std::string& endpoint) {
    std::string error;
    ASSERT_TRUE(daemon.listen(endpoint, &error)) << error;
  }

  void pump() {
    // A few zero-ish-timeout cycles: accept, read, serve, flush. The
    // short timeout still yields to a peer that is mid-write.
    for (int i = 0; i < 50; ++i) daemon.poll_once(/*timeout_ms=*/2);
  }

  sb::Server server;
  Daemon daemon{server};
};

Fd connect_to(const std::string& spec) {
  std::string error;
  const auto endpoint = parse_endpoint(spec, &error);
  EXPECT_TRUE(endpoint.has_value()) << error;
  Fd fd = connect_endpoint(*endpoint, &error);
  EXPECT_TRUE(fd.valid()) << error;
  return fd;
}

/// Blocking request/response exchange over a raw fd.
std::optional<std::vector<std::uint8_t>> raw_round_trip(
    int fd, std::uint64_t tick, const std::vector<std::uint8_t>& payload) {
  const auto envelope = encode_envelope(tick, payload);
  if (!write_all(fd, envelope.data(), envelope.size())) return std::nullopt;
  std::uint8_t header[kEnvelopeHeaderBytes];
  if (!read_exact(fd, header, sizeof(header))) return std::nullopt;
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
  std::vector<std::uint8_t> out(len);
  if (len > 0 && !read_exact(fd, out.data(), out.size())) {
    return std::nullopt;
  }
  return out;
}

TEST(DaemonTest, GarbageBytesCloseOnlyTheOffendingConnection) {
  Harness harness;
  const std::string path = test_socket_path("garbage");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd good = connect_to("unix:" + path);
  Fd bad = connect_to("unix:" + path);
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 2u);

  // The bad peer declares a 4 GB payload.
  const std::uint8_t poison[kEnvelopeHeaderBytes] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(write_all(bad.get(), poison, sizeof(poison)));
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 1u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 1u);

  // The good peer still gets served on the same daemon.
  const auto request = sb::wire::encode_full_hash_request({7, {0x01020304}});
  std::optional<std::vector<std::uint8_t>> response;
  std::thread client([&] { response = raw_round_trip(good.get(), 5, request); });
  harness.pump();
  client.join();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(sb::wire::decode_full_hash_response(*response).has_value());
  EXPECT_EQ(harness.daemon.stats().frames_served, 1u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, UndecodableFrameInsideValidEnvelopeIsAProtocolError) {
  Harness harness;
  const std::string path = test_socket_path("badframe");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  // Valid envelope, garbage payload: response tag (0x32) is not a request.
  const auto envelope = encode_envelope(1, {0x32, 0xDE, 0xAD});
  ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size()));
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 1u);
  EXPECT_EQ(harness.daemon.stats().frames_served, 0u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, EmptyPayloadEnvelopeIsAProtocolError) {
  Harness harness;
  const std::string path = test_socket_path("empty");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  const auto envelope = encode_envelope(1, {});
  ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size()));
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  EXPECT_EQ(harness.daemon.stats().decode_errors, 1u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, PeerVanishingMidFrameJustClosesQuietly) {
  Harness harness;
  const std::string path = test_socket_path("vanish");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  {
    Fd peer = connect_to("unix:" + path);
    harness.pump();
    EXPECT_EQ(harness.daemon.open_connections(), 1u);
    // Half an envelope, then the destructor closes the socket.
    const auto envelope =
        encode_envelope(1, sb::wire::encode_full_hash_request({1, {2}}));
    ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size() / 2));
  }
  harness.pump();
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  // EOF mid-frame is a broken peer, not a served frame; nothing crashed.
  EXPECT_EQ(harness.daemon.stats().frames_served, 0u);
  EXPECT_EQ(harness.daemon.stats().connections_closed, 1u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, ManyRequestsPipelinedInOneWriteAllGetServed) {
  // A client is allowed to write N envelopes back-to-back before reading;
  // the daemon must serve all of them in order from one read burst.
  Harness harness;
  const std::string path = test_socket_path("pipeline");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  constexpr int kRequests = 17;
  std::vector<std::uint8_t> burst;
  const auto request = sb::wire::encode_full_hash_request({9, {0xAABBCCDD}});
  for (int i = 0; i < kRequests; ++i) {
    const auto envelope = encode_envelope(static_cast<std::uint64_t>(i),
                                          request);
    burst.insert(burst.end(), envelope.begin(), envelope.end());
  }
  ASSERT_TRUE(write_all(peer.get(), burst.data(), burst.size()));

  std::vector<std::uint64_t> response_ticks;
  std::thread client([&] {
    for (int i = 0; i < kRequests; ++i) {
      std::uint8_t header[kEnvelopeHeaderBytes];
      if (!read_exact(peer.get(), header, sizeof(header))) return;
      std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                          static_cast<std::uint32_t>(header[1]) << 8 |
                          static_cast<std::uint32_t>(header[2]) << 16 |
                          static_cast<std::uint32_t>(header[3]) << 24;
      std::uint64_t tick = 0;
      for (int b = 7; b >= 0; --b) tick = tick << 8 | header[4 + b];
      std::vector<std::uint8_t> payload(len);
      if (len > 0 && !read_exact(peer.get(), payload.data(), len)) return;
      response_ticks.push_back(tick);
    }
  });
  harness.pump();
  client.join();

  EXPECT_EQ(harness.daemon.stats().frames_served,
            static_cast<std::uint64_t>(kRequests));
  ASSERT_EQ(response_ticks.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(response_ticks[i], static_cast<std::uint64_t>(i))
        << "responses must come back in request order";
  }
  // The server logged each full-hash query at its envelope's tick.
  EXPECT_EQ(harness.server.query_log().size(),
            static_cast<std::size_t>(kRequests));

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, ShutdownDrainsPendingResponses) {
  Harness harness;
  const std::string path = test_socket_path("drain");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  Fd peer = connect_to("unix:" + path);
  const auto request = sb::wire::encode_full_hash_request({3, {0x01020304}});
  const auto envelope = encode_envelope(11, request);
  ASSERT_TRUE(write_all(peer.get(), envelope.data(), envelope.size()));
  harness.pump();
  EXPECT_EQ(harness.daemon.stats().frames_served, 1u);

  // Whether or not the response already flushed, shutdown must leave the
  // peer able to read it in full before seeing EOF.
  harness.daemon.shutdown(/*drain_ms=*/1000);
  EXPECT_EQ(harness.daemon.open_connections(), 0u);
  std::uint8_t header[kEnvelopeHeaderBytes];
  ASSERT_TRUE(read_exact(peer.get(), header, sizeof(header)));
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            static_cast<std::uint32_t>(header[1]) << 8 |
                            static_cast<std::uint32_t>(header[2]) << 16 |
                            static_cast<std::uint32_t>(header[3]) << 24;
  std::vector<std::uint8_t> payload(len);
  ASSERT_TRUE(read_exact(peer.get(), payload.data(), payload.size()));
  EXPECT_TRUE(sb::wire::decode_full_hash_response(payload).has_value());

  std::remove(path.c_str());
}

TEST(DaemonTest, PeerThatPipelinesAndNeverReadsIsBoundedByTheHighWaterMark) {
  // A peer writes many update requests and reads none of the replies.
  // The daemon must stop serving it once kOutputHighWaterBytes of replies
  // are queued, rather than grow the connection's output without limit,
  // and serve the rest once the peer starts reading.
  Harness harness;
  for (int i = 0; i < 20000; ++i) {
    harness.server.add_expression("goog-malware-shavar",
                                  "bulk" + std::to_string(i) + ".example/");
  }
  harness.server.seal_chunk("goog-malware-shavar");
  const std::string path = test_socket_path("backpressure");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  const auto request =
      sb::wire::encode_update_request({{{"goog-malware-shavar", {}, {}}}});
  const std::size_t reply_bytes =
      kEnvelopeHeaderBytes +
      harness.server.encoded_update_response(request)->size();
  // Enough replies to fill the mark twice over, kernel buffers aside.
  const std::size_t requests = 2 * kOutputHighWaterBytes / reply_bytes + 64;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto envelope = encode_envelope(i, request);
    burst.insert(burst.end(), envelope.begin(), envelope.end());
  }
  Fd peer = connect_to("unix:" + path);
  ASSERT_TRUE(write_all(peer.get(), burst.data(), burst.size()));
  harness.pump();

  const std::size_t pending = harness.daemon.pending_output_bytes();
  EXPECT_GT(pending, 0u);
  EXPECT_LE(pending, kOutputHighWaterBytes + reply_bytes);
  EXPECT_LT(harness.daemon.stats().frames_served, requests);
  EXPECT_EQ(harness.daemon.snapshot().counters.counter("output_pending_bytes")
                .value,
            pending);

  // Once the peer reads, every request is answered, in order. (A receive
  // timeout turns a stalled daemon into a failure, not a hang.)
  const timeval receive_timeout{10, 0};
  ASSERT_EQ(::setsockopt(peer.get(), SOL_SOCKET, SO_RCVTIMEO,
                         &receive_timeout, sizeof(receive_timeout)),
            0);
  std::atomic<bool> stop{false};
  std::thread loop([&] {
    while (!stop.load()) harness.daemon.poll_once(/*timeout_ms=*/2);
  });
  std::size_t answered = 0;
  for (; answered < requests; ++answered) {
    std::uint8_t header[kEnvelopeHeaderBytes];
    if (!read_exact(peer.get(), header, sizeof(header))) break;
    std::uint64_t tick = 0;
    for (int b = 7; b >= 0; --b) tick = tick << 8 | header[4 + b];
    if (tick != answered) break;
    std::vector<std::uint8_t> payload(envelope_payload_length(header));
    if (!read_exact(peer.get(), payload.data(), payload.size())) break;
  }
  stop.store(true);
  loop.join();
  EXPECT_EQ(answered, requests);
  EXPECT_EQ(harness.daemon.stats().frames_served, requests);
  EXPECT_EQ(harness.daemon.pending_output_bytes(), 0u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, PeerThatPipelinesWithoutReadingIsBoundedByTheInputMark) {
  // A peer queues far more requests than the input mark in its socket
  // and reads no replies. The daemon must stop reading the connection at
  // kInputHighWaterBytes of unserved requests, rather than take in all
  // the kernel holds; the rest waits on the peer's side.
  Harness harness;
  for (int i = 0; i < 20000; ++i) {
    harness.server.add_expression("goog-malware-shavar",
                                  "bulk" + std::to_string(i) + ".example/");
  }
  harness.server.seal_chunk("goog-malware-shavar");
  const std::string path = test_socket_path("input_mark");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  // Full-hash requests for 1,024 listed prefixes: ~4 KB each, answered
  // by ~58 KB of digests, so the output mark stops serving after about
  // 70 of them. Four input marks' worth.
  sb::wire::FullHashRequest lookup_request;
  lookup_request.cookie = 7;
  for (int i = 0; i < 1024; ++i) {
    lookup_request.prefixes.push_back(
        crypto::prefix32_of("bulk" + std::to_string(i) + ".example/"));
  }
  const auto lookup = sb::wire::encode_full_hash_request(lookup_request);
  const std::size_t requests =
      4 * kInputHighWaterBytes / (kEnvelopeHeaderBytes + lookup.size());
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto envelope = encode_envelope(i, lookup);
    burst.insert(burst.end(), envelope.begin(), envelope.end());
  }

  // Queue what the kernel takes (a larger send buffer where the host
  // allows it), then let the daemon run.
  Fd peer = connect_to("unix:" + path);
  std::string error;
  ASSERT_TRUE(set_nonblocking(peer.get(), &error)) << error;
  const int send_buffer = 1 << 20;
  (void)::setsockopt(peer.get(), SOL_SOCKET, SO_SNDBUF, &send_buffer,
                     sizeof(send_buffer));
  std::size_t written = 0;
  for (;;) {
    const ssize_t sent =
        ::send(peer.get(), burst.data() + written, burst.size() - written,
               MSG_NOSIGNAL);
    if (sent <= 0) break;
    written += static_cast<std::size_t>(sent);
  }
  const std::size_t bound = kInputHighWaterBytes + kEnvelopeHeaderBytes +
                            lookup.size() + 64 * 1024;  // + one read
  ASSERT_GT(written, bound) << "the socket must queue past the mark";
  std::size_t max_buffered = 0;
  for (int i = 0; i < 50; ++i) {
    harness.daemon.poll_once(/*timeout_ms=*/2);
    max_buffered =
        std::max(max_buffered, harness.daemon.buffered_input_bytes());
  }
  EXPECT_GT(max_buffered, 0u);  // requests wait, unserved
  EXPECT_LE(max_buffered, bound);
  EXPECT_LT(harness.daemon.stats().frames_served, requests);
  EXPECT_EQ(harness.daemon.snapshot().counters.counter("input_buffered_bytes")
                .value,
            harness.daemon.buffered_input_bytes());

  // Once the peer reads, the rest of the burst goes through and every
  // request is answered, in order. (A receive timeout turns a stalled
  // daemon into a failure, not a hang.)
  const int flags = ::fcntl(peer.get(), F_GETFL);
  ASSERT_EQ(::fcntl(peer.get(), F_SETFL, flags & ~O_NONBLOCK), 0);
  const timeval receive_timeout{10, 0};
  ASSERT_EQ(::setsockopt(peer.get(), SOL_SOCKET, SO_RCVTIMEO,
                         &receive_timeout, sizeof(receive_timeout)),
            0);
  std::atomic<bool> stop{false};
  std::thread loop([&] {
    while (!stop.load()) harness.daemon.poll_once(/*timeout_ms=*/2);
  });
  std::thread writer([&] {
    (void)write_all(peer.get(), burst.data() + written,
                    burst.size() - written);
  });
  std::size_t answered = 0;
  for (; answered < requests; ++answered) {
    std::uint8_t header[kEnvelopeHeaderBytes];
    if (!read_exact(peer.get(), header, sizeof(header))) break;
    std::uint64_t tick = 0;
    for (int b = 7; b >= 0; --b) tick = tick << 8 | header[4 + b];
    if (tick != answered) break;
    std::vector<std::uint8_t> payload(envelope_payload_length(header));
    if (!read_exact(peer.get(), payload.data(), payload.size())) break;
  }
  writer.join();
  stop.store(true);
  loop.join();
  EXPECT_EQ(answered, requests);
  EXPECT_EQ(harness.daemon.stats().frames_served, requests);
  EXPECT_EQ(harness.daemon.buffered_input_bytes(), 0u);

  harness.daemon.shutdown();
  std::remove(path.c_str());
}

TEST(DaemonTest, ListenErrorsAreReportedNotFatal) {
  Harness harness;
  std::string error;
  EXPECT_FALSE(harness.daemon.listen("tcp:256.0.0.1:80", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(harness.daemon.listen("carrier-pigeon:coop", &error));
  EXPECT_FALSE(harness.daemon.listen("unix:", &error));
}

TEST(SocketTransportTest, DeadEndpointFailsEveryRequestFast) {
  sb::SimClock clock;
  SocketTransport transport("unix:/tmp/sbp_no_such_daemon.sock", clock);
  EXPECT_FALSE(transport.connected());
  EXPECT_FALSE(transport.error().empty());

  EXPECT_FALSE(transport.get_full_hashes_or_error({0x01020304}, 1)
                   .has_value());
  EXPECT_FALSE(transport.fetch_update_or_error({}).has_value());
  EXPECT_FALSE(transport.fetch_v4_update_or_error({}).has_value());
  EXPECT_FALSE(transport.lookup_v1_or_error("http://x.example/", 1)
                   .has_value());
  EXPECT_EQ(transport.stats().failed_requests, 4u);
  // Nothing was sent, so nothing may be counted as sent.
  EXPECT_EQ(transport.stats().bytes_up, 0u);
  EXPECT_EQ(transport.stats().bytes_down, 0u);
}

TEST(SocketTransportTest, DaemonDeathMidRunSurfacesAsFailedRequests) {
  Harness harness;
  const std::string path = test_socket_path("death");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  sb::SimClock clock;
  SocketTransport transport("unix:" + path, clock);
  harness.pump();
  ASSERT_TRUE(transport.connected());

  std::optional<sb::FullHashResponse> first;
  std::thread client([&] {
    first = transport.get_full_hashes_or_error({0xAABBCCDD}, 1);
  });
  harness.pump();
  client.join();
  ASSERT_TRUE(first.has_value());

  // Daemon dies; the next request must fail (EPIPE or EOF -- both count),
  // and every one after that fails fast without touching the socket.
  harness.daemon.shutdown(/*drain_ms=*/100);
  EXPECT_FALSE(transport.get_full_hashes_or_error({0x01020304}, 2)
                   .has_value());
  EXPECT_FALSE(transport.connected());
  EXPECT_FALSE(transport.lookup_v1_or_error("http://y.example/", 2)
                   .has_value());
  EXPECT_EQ(transport.stats().failed_requests, 2u);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace sbp::net
