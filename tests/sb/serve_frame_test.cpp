// Server::serve_frame, the one request-frame dispatcher under the
// in-process transport and the daemon: each request tag is answered with
// exactly the bytes its typed endpoint's response encodes to, anything
// else is refused without reaching the query log, and on either transport
// a typed call that returns nullopt counts exactly one failed request and
// nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <sys/socket.h>
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

namespace sbp::sb {
namespace {

constexpr const char* kList = "goog-malware-shavar";

Server seeded_server() {
  Server server;
  server.add_expression(kList, "evil.example/");
  server.add_expression(kList, "worse.example/path");
  server.seal_chunk(kList);
  return server;
}

std::vector<std::uint8_t> bytes_of(const ReplyFrame& reply) {
  return {reply.bytes().begin(), reply.bytes().end()};
}

/// One valid frame per request tag.
std::vector<std::vector<std::uint8_t>> valid_requests() {
  return {
      wire::encode_full_hash_request(
          {7, {crypto::prefix32_of("evil.example/"), 0x01020304}}),
      wire::encode_v1_lookup_request({8, "http://evil.example/"}),
      wire::encode_update_request({{{kList, {}, {}}}}),
      wire::encode_v4_update_request({{{kList, 0}}}),
  };
}

TEST(ServeFrameTest, EachRequestTagAnswersWithItsTypedEndpointsEncoding) {
  Server served = seeded_server();
  Server reference = seeded_server();

  const wire::FullHashRequest full_hash{
      7, {crypto::prefix32_of("evil.example/"), 0x01020304}};
  const auto full_hash_reply =
      served.serve_frame(wire::encode_full_hash_request(full_hash), 11);
  ASSERT_TRUE(full_hash_reply.has_value());
  EXPECT_EQ(full_hash_reply->channel, obs::Channel::kFullHash);
  EXPECT_EQ(bytes_of(*full_hash_reply),
            wire::encode_full_hash_response(reference.get_full_hashes(
                full_hash.prefixes, full_hash.cookie, 11)));

  const wire::V1LookupRequest v1{8, "http://evil.example/"};
  const auto v1_reply =
      served.serve_frame(wire::encode_v1_lookup_request(v1), 12);
  ASSERT_TRUE(v1_reply.has_value());
  EXPECT_EQ(v1_reply->channel, obs::Channel::kV1Lookup);
  EXPECT_EQ(bytes_of(*v1_reply),
            wire::encode_v1_lookup_response(
                {reference.lookup_v1(v1.url, v1.cookie, 12)}));

  const UpdateRequest v3{{{kList, {}, {}}}};
  const auto v3_reply = served.serve_frame(wire::encode_update_request(v3), 13);
  ASSERT_TRUE(v3_reply.has_value());
  EXPECT_EQ(v3_reply->channel, obs::Channel::kV3Update);
  EXPECT_EQ(bytes_of(*v3_reply),
            wire::encode_update_response(reference.fetch_update(v3)));

  const V4UpdateRequest v4{{{kList, 0}}};
  const auto v4_reply =
      served.serve_frame(wire::encode_v4_update_request(v4), 14);
  ASSERT_TRUE(v4_reply.has_value());
  EXPECT_EQ(v4_reply->channel, obs::Channel::kV4Update);
  EXPECT_EQ(bytes_of(*v4_reply),
            wire::encode_v4_update_response(reference.fetch_v4_update(v4)));

  // The server observed exactly what the typed endpoints log, at the
  // frame's tick.
  ASSERT_EQ(served.query_log().size(), 2u);
  EXPECT_EQ(served.query_log(), reference.query_log());
}

TEST(ServeFrameTest, UpdateRepliesShareTheCachedBytes) {
  Server server = seeded_server();
  const auto request = wire::encode_v4_update_request({{{kList, 0}}});
  const auto first = server.serve_frame(request, 1);
  const auto second = server.serve_frame(request, 2);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_NE(first->shared, nullptr);
  EXPECT_EQ(first->shared, second->shared);  // one buffer, not a copy
  EXPECT_EQ(first->bytes().data(), first->shared->data());
  EXPECT_EQ(server.update_encode_cache_hits(), 1u);
}

TEST(ServeFrameTest, RefusesEverythingButAWholeRequestAndLogsNothing) {
  Server server = seeded_server();
  std::vector<std::vector<std::uint8_t>> refused;
  refused.push_back({});

  // Response frames are valid frames, but not requests.
  FullHashResponse full_hash_response;
  full_hash_response.matches[0x01020304] = {};
  refused.push_back(wire::encode_full_hash_response(full_hash_response));
  refused.push_back(wire::encode_v1_lookup_response({true}));
  refused.push_back(wire::encode_update_response({}));
  refused.push_back(wire::encode_v4_update_response({}));

  const std::vector<std::uint8_t> request_tags = {0x11, 0x31, 0x33, 0x41};
  for (const auto& request : valid_requests()) {
    // Every other tag in front of a valid request body.
    for (int tag = 0; tag < 256; ++tag) {
      if (std::find(request_tags.begin(), request_tags.end(), tag) !=
          request_tags.end()) {
        continue;
      }
      auto retagged = request;
      retagged[0] = static_cast<std::uint8_t>(tag);
      refused.push_back(std::move(retagged));
    }
    // Every truncation (the empty one included).
    for (std::size_t cut = 0; cut < request.size(); ++cut) {
      refused.emplace_back(request.begin(),
                           request.begin() + static_cast<std::ptrdiff_t>(cut));
    }
  }

  for (const auto& frame : refused) {
    EXPECT_FALSE(server.serve_frame(frame, 1).has_value())
        << "frame of " << frame.size() << " bytes, tag "
        << (frame.empty() ? -1 : frame[0]);
  }
  EXPECT_TRUE(server.query_log().empty());
  EXPECT_EQ(server.update_encode_cache_hits(), 0u);

  // The whole requests themselves are still served.
  for (const auto& request : valid_requests()) {
    EXPECT_TRUE(server.serve_frame(request, 1).has_value());
  }
}

// -- failed requests, on either transport ------------------------------------

/// Requests that encode fine but that the server refuses to decode: list
/// names and URLs beyond the wire format's caps.
UpdateRequest oversize_v3_request() {
  return {{{std::string(600, 'l'), {}, {}}}};
}
V4UpdateRequest oversize_v4_request() {
  return {{{std::string(600, 'l'), 0}}};
}
std::string oversize_url() {
  return "http://x.example/" + std::string(70000, 'p');
}

/// Runs `call`, which must return nullopt, and checks that it moved
/// failed_requests by exactly one and no other counter.
template <class Call>
void expect_exactly_one_failure(const Transport& transport, Call call) {
  const TransportStats before = transport.stats();
  EXPECT_FALSE(call().has_value());
  const TransportStats& after = transport.stats();
  EXPECT_EQ(after.failed_requests, before.failed_requests + 1);
  EXPECT_EQ(after.full_hash_requests, before.full_hash_requests);
  EXPECT_EQ(after.update_requests, before.update_requests);
  EXPECT_EQ(after.v4_update_requests, before.v4_update_requests);
  EXPECT_EQ(after.v1_requests, before.v1_requests);
  EXPECT_EQ(after.bytes_up, before.bytes_up);
  EXPECT_EQ(after.bytes_down, before.bytes_down);
  EXPECT_EQ(after.update_bytes_up, before.update_bytes_up);
  EXPECT_EQ(after.update_bytes_down, before.update_bytes_down);
}

TEST(FailedRequestTest, InProcessNulloptCountsExactlyOneFailure) {
  Server server = seeded_server();
  SimClock clock;
  InProcessTransport transport(server, clock, /*round_trip_ticks=*/0);

  // Injected failures, one per endpoint.
  transport.inject_full_hash_failures(1);
  expect_exactly_one_failure(transport, [&] {
    return transport.get_full_hashes_or_error({0x01020304}, 1);
  });
  transport.inject_update_failures(2);
  expect_exactly_one_failure(
      transport, [&] { return transport.fetch_update_or_error({}); });
  expect_exactly_one_failure(
      transport, [&] { return transport.fetch_v4_update_or_error({}); });
  transport.inject_v1_failures(1);
  expect_exactly_one_failure(transport, [&] {
    return transport.lookup_v1_or_error("http://x.example/", 1);
  });

  // Frames the server refuses.
  expect_exactly_one_failure(transport, [&] {
    return transport.fetch_update_or_error(oversize_v3_request());
  });
  expect_exactly_one_failure(transport, [&] {
    return transport.fetch_v4_update_or_error(oversize_v4_request());
  });
  expect_exactly_one_failure(transport, [&] {
    return transport.lookup_v1_or_error(oversize_url(), 1);
  });
  EXPECT_TRUE(server.query_log().empty());

  // The transport is still healthy.
  EXPECT_TRUE(
      transport.get_full_hashes_or_error({0x01020304}, 1).has_value());
  EXPECT_EQ(transport.stats().failed_requests, 7u);
}

std::string test_socket_path(const char* tag) {
  return "/tmp/sbp_serve_frame_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

TEST(FailedRequestTest, SocketNulloptCountsExactlyOneFailure) {
  // A live daemon that refuses a frame drops the connection; the
  // transport counts that one request as failed, and nothing else. (A
  // dead endpoint is covered by socket_transport_test.cpp.)
  Server server = seeded_server();
  net::Daemon daemon(server);
  const std::string path = test_socket_path("refused");
  std::string error;
  ASSERT_TRUE(daemon.listen("unix:" + path, &error)) << error;
  SimClock clock;
  net::SocketTransport live("unix:" + path, clock);
  ASSERT_TRUE(live.connected());
  std::atomic<bool> stop{false};
  std::thread loop([&] {
    while (!stop.load()) daemon.poll_once(/*timeout_ms=*/2);
  });
  EXPECT_TRUE(live.get_full_hashes_or_error({0x01020304}, 1).has_value());
  expect_exactly_one_failure(live, [&] {
    return live.lookup_v1_or_error(oversize_url(), 1);
  });
  EXPECT_FALSE(live.connected());
  expect_exactly_one_failure(
      live, [&] { return live.fetch_v4_update_or_error({}); });
  stop.store(true);
  loop.join();
  EXPECT_EQ(daemon.stats().decode_errors, 1u);
  EXPECT_EQ(server.query_log().size(), 1u);  // the one served request
  std::remove(path.c_str());
}

TEST(FailedRequestTest, UndecodableSocketReplyCountsOneFailureAndPoisons) {
  const std::string path = test_socket_path("garbled");
  std::string error;
  const auto endpoint = net::parse_endpoint("unix:" + path, &error);
  ASSERT_TRUE(endpoint.has_value()) << error;
  net::Fd listener = net::listen_endpoint(*endpoint, &error);
  ASSERT_TRUE(listener.valid()) << error;

  SimClock clock;
  net::SocketTransport transport("unix:" + path, clock);
  ASSERT_TRUE(transport.connected());

  // A peer that answers a request with a well-framed but undecodable
  // full-hash response.
  std::thread garbling_peer([&] {
    net::Fd conn(::accept(listener.get(), nullptr, nullptr));
    ASSERT_TRUE(conn.valid());
    std::uint8_t header[net::kEnvelopeHeaderBytes];
    ASSERT_TRUE(net::read_exact(conn.get(), header, sizeof(header)));
    std::vector<std::uint8_t> request(net::envelope_payload_length(header));
    ASSERT_TRUE(net::read_exact(conn.get(), request.data(), request.size()));
    const auto reply = net::encode_envelope(1, {0x32, 0xFF, 0xFF, 0xFF});
    ASSERT_TRUE(net::write_all(conn.get(), reply.data(), reply.size()));
  });
  expect_exactly_one_failure(transport, [&] {
    return transport.get_full_hashes_or_error({0x01020304}, 1);
  });
  garbling_peer.join();
  EXPECT_FALSE(transport.connected());
  EXPECT_NE(transport.error().find("undecodable"), std::string::npos)
      << transport.error();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sbp::sb
