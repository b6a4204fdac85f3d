// net::SocketTransport poison semantics. The transport's failure model
// (socket_transport.hpp) promises: any IO or framing error closes the
// connection and POISONS the transport -- every subsequent request on any
// of the four endpoints returns nullopt immediately, advances ONLY
// failed_requests (no request counters, no bytes: nothing was sent), and
// error() keeps the FIRST failure's diagnosis forever. The engine's retry
// logic and the loadgen exit-code contract (exit 3) both branch on this
// surface, so each clause is pinned separately here; daemon_test.cpp
// covers the daemon side of the same conversations.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "net/daemon.hpp"
#include "net/frame_codec.hpp"
#include "net/socket.hpp"
#include "net/socket_transport.hpp"
#include "sb/server.hpp"
#include "sb/transport.hpp"

namespace sbp::net {
namespace {

std::string test_socket_path(const char* tag) {
  return "/tmp/sbp_transport_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

/// A daemon over a tiny sealed server, stepped manually (no thread).
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
    for (int i = 0; i < 50; ++i) daemon.poll_once(/*timeout_ms=*/2);
  }

  sb::Server server;
  Daemon daemon{server};
};

/// Issues one request per endpoint; all four must fail with nullopt.
void expect_all_endpoints_fail(SocketTransport& transport) {
  EXPECT_FALSE(
      transport.get_full_hashes_or_error({0x01020304}, 1).has_value());
  EXPECT_FALSE(transport.fetch_update_or_error({}).has_value());
  EXPECT_FALSE(transport.fetch_v4_update_or_error({}).has_value());
  EXPECT_FALSE(
      transport.lookup_v1_or_error("http://x.example/", 1).has_value());
}

TEST(SocketTransportPoisonTest, ConstructedDeadCountsNothingButFailures) {
  sb::SimClock clock;
  SocketTransport transport("unix:" + test_socket_path("never-bound"),
                            clock);
  EXPECT_FALSE(transport.connected());

  expect_all_endpoints_fail(transport);
  expect_all_endpoints_fail(transport);

  // Only the failure counter moved: a request that never reached a socket
  // must not inflate per-channel request counts or wire byte accounting
  // (they feed the paper's bandwidth numbers).
  const sb::TransportStats& stats = transport.stats();
  EXPECT_EQ(stats.failed_requests, 8u);
  EXPECT_EQ(stats.full_hash_requests, 0u);
  EXPECT_EQ(stats.update_requests, 0u);
  EXPECT_EQ(stats.v4_update_requests, 0u);
  EXPECT_EQ(stats.v1_requests, 0u);
  EXPECT_EQ(stats.bytes_up, 0u);
  EXPECT_EQ(stats.bytes_down, 0u);
  EXPECT_EQ(stats.update_bytes_up, 0u);
  EXPECT_EQ(stats.update_bytes_down, 0u);
}

TEST(SocketTransportPoisonTest, PoisonFreezesEveryCounterExceptFailures) {
  Harness harness;
  const std::string path = test_socket_path("freeze");
  harness.listen("unix:" + path);
  if (::testing::Test::HasFatalFailure()) return;

  sb::SimClock clock;
  SocketTransport transport("unix:" + path, clock);
  ASSERT_TRUE(transport.connected());

  // One healthy round trip so every "success" counter is non-zero -- the
  // freeze assertion below must distinguish "frozen" from "always zero".
  std::optional<sb::FullHashResponse> first;
  std::thread client([&] {
    first = transport.get_full_hashes_or_error({0xAABBCCDD}, 1);
  });
  harness.pump();
  client.join();
  ASSERT_TRUE(first.has_value());
  ASSERT_GT(transport.stats().bytes_up, 0u);
  ASSERT_GT(transport.stats().bytes_down, 0u);

  // Daemon dies. The first request after death is a genuine wire attempt
  // that fails mid-exchange; like every failed request it counts
  // failed_requests only.
  harness.daemon.shutdown(/*drain_ms=*/100);
  EXPECT_FALSE(
      transport.get_full_hashes_or_error({0x01020304}, 2).has_value());
  EXPECT_FALSE(transport.connected());
  const sb::TransportStats frozen = transport.stats();
  EXPECT_EQ(frozen.failed_requests, 1u);

  // From here on the transport is poisoned: three rounds over all four
  // endpoints advance failed_requests by exactly 12 and nothing else.
  for (int round = 0; round < 3; ++round) expect_all_endpoints_fail(transport);

  const sb::TransportStats& after = transport.stats();
  EXPECT_EQ(after.failed_requests, frozen.failed_requests + 12u);
  EXPECT_EQ(after.full_hash_requests, frozen.full_hash_requests);
  EXPECT_EQ(after.update_requests, frozen.update_requests);
  EXPECT_EQ(after.v4_update_requests, frozen.v4_update_requests);
  EXPECT_EQ(after.v1_requests, frozen.v1_requests);
  EXPECT_EQ(after.bytes_up, frozen.bytes_up);
  EXPECT_EQ(after.bytes_down, frozen.bytes_down);
  EXPECT_EQ(after.update_bytes_up, frozen.update_bytes_up);
  EXPECT_EQ(after.update_bytes_down, frozen.update_bytes_down);

  std::remove(path.c_str());
}

TEST(SocketTransportPoisonTest, FirstErrorIsSticky) {
  sb::SimClock clock;
  SocketTransport transport("unix:" + test_socket_path("sticky"), clock);
  ASSERT_FALSE(transport.connected());
  const std::string first_error = transport.error();
  EXPECT_FALSE(first_error.empty());

  // Later failures must not rewrite the diagnosis: the first error is the
  // root cause, everything after it is fallout.
  expect_all_endpoints_fail(transport);
  EXPECT_EQ(transport.error(), first_error);
}

TEST(SocketTransportPoisonTest, OversizeResponseLengthPoisons) {
  // A rude peer that answers any request with an envelope header claiming
  // a payload above kMaxPayloadBytes. The transport must refuse to
  // allocate, poison itself, and report the framing violation.
  const std::string path = test_socket_path("oversize");
  std::string error;
  const auto endpoint = parse_endpoint("unix:" + path, &error);
  ASSERT_TRUE(endpoint.has_value()) << error;
  Fd listener = listen_endpoint(*endpoint, &error);
  ASSERT_TRUE(listener.valid()) << error;

  sb::SimClock clock;
  SocketTransport transport("unix:" + path, clock);
  ASSERT_TRUE(transport.connected());

  std::thread rude_peer([&] {
    Fd conn(::accept(listener.get(), nullptr, nullptr));
    ASSERT_TRUE(conn.valid());
    // Consume the request envelope first: answering (and closing) before
    // the client has written would fail its WRITE instead and this test
    // would pin the wrong poison path.
    std::uint8_t request_header[kEnvelopeHeaderBytes];
    ASSERT_TRUE(
        read_exact(conn.get(), request_header, sizeof(request_header)));
    const std::uint32_t request_len =
        static_cast<std::uint32_t>(request_header[0]) |
        static_cast<std::uint32_t>(request_header[1]) << 8 |
        static_cast<std::uint32_t>(request_header[2]) << 16 |
        static_cast<std::uint32_t>(request_header[3]) << 24;
    std::vector<std::uint8_t> request(request_len);
    ASSERT_TRUE(read_exact(conn.get(), request.data(), request.size()));
    const std::uint32_t bogus_len = kMaxPayloadBytes + 1;
    std::uint8_t header[kEnvelopeHeaderBytes] = {};
    header[0] = static_cast<std::uint8_t>(bogus_len);
    header[1] = static_cast<std::uint8_t>(bogus_len >> 8);
    header[2] = static_cast<std::uint8_t>(bogus_len >> 16);
    header[3] = static_cast<std::uint8_t>(bogus_len >> 24);
    ASSERT_TRUE(write_all(conn.get(), header, sizeof(header)));
  });

  EXPECT_FALSE(
      transport.get_full_hashes_or_error({0x01020304}, 1).has_value());
  rude_peer.join();

  EXPECT_FALSE(transport.connected());
  EXPECT_NE(transport.error().find("oversize"), std::string::npos)
      << transport.error();
  expect_all_endpoints_fail(transport);
  EXPECT_EQ(transport.stats().failed_requests, 5u);

  std::remove(path.c_str());
}

TEST(SocketTransportPoisonTest, PoisonedCallsFailFastEnoughToLoop) {
  // "Fails fast" is a load-bearing clause: the engine retries through the
  // client model, so a poisoned transport is hit once per lookup for the
  // rest of the run. 10k calls must be effectively free (no connect
  // attempts, no syscalls, no allocation growth).
  sb::SimClock clock;
  SocketTransport transport("unix:" + test_socket_path("fast"), clock);
  ASSERT_FALSE(transport.connected());

  for (int i = 0; i < 10000; ++i) {
    EXPECT_FALSE(
        transport.lookup_v1_or_error("http://spin.example/", 1).has_value());
  }
  EXPECT_EQ(transport.stats().failed_requests, 10000u);
  EXPECT_EQ(transport.stats().v1_requests, 0u);
  EXPECT_EQ(transport.stats().bytes_up, 0u);
}

}  // namespace
}  // namespace sbp::net
