#pragma once
// Wire scenarios every front-end must pass, written once against a
// port. The server and the router serve clients through the same
// net::Session, so tests/test_net.cpp and tests/test_frame.cpp run these
// against a direct net::Server and tests/test_cluster.cpp against a
// cluster::Router in front of one Server: framing limits, negotiation
// failures, half-close and backpressure must look the same through both.
// The config a scenario needs is named in its comment.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "net/frame.hpp"
#include "service/request_line.hpp"

namespace treesched::scenarios {

/// Sends raw bytes on the client's socket — how the hostile-frame tests
/// speak v3 without the Client's well-formed framing in the way.
inline void send_raw(const net::Client& client, const std::string& bytes) {
  ASSERT_EQ(::send(client.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// An 8-byte v3 frame header with arbitrary (possibly hostile) fields.
inline std::string header_bytes(std::uint8_t opcode, std::uint8_t flags,
                                std::uint16_t reserved, std::uint32_t length) {
  std::string out;
  out.push_back(static_cast<char>(opcode));
  out.push_back(static_cast<char>(flags));
  out.push_back(static_cast<char>(reserved & 0xff));
  out.push_back(static_cast<char>((reserved >> 8) & 0xff));
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((length >> shift) & 0xff));
  }
  return out;
}

/// Reads until EOF and returns every response frame the peer sent.
inline std::vector<ResponseLine> drain_binary(const net::Client& client) {
  net::FrameReader reader;
  std::vector<ResponseLine> responses;
  for (;;) {
    net::Frame frame;
    while (reader.next(frame) == net::FrameReader::Status::kFrame) {
      ResponseLine decoded;
      std::string error;
      EXPECT_TRUE(net::decode_response_frame(frame, decoded, error)) << error;
      responses.push_back(std::move(decoded));
    }
    char buf[4096];
    const ssize_t n = ::recv(client.fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    reader.feed(buf, static_cast<std::size_t>(n));
  }
  return responses;
}

/// A raw text-mode client: the test controls every byte it sends.
inline net::Client raw_client(std::uint16_t port) {
  return net::Client("127.0.0.1", port, net::Protocol::kText);
}

/// Expects exactly one bad_request frame, then EOF.
inline void expect_one_bad_request_frame(const net::Client& client) {
  const auto responses = drain_binary(client);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].code, ErrorCode::kBadRequest);
}

/// Needs max_line = 128.
inline void oversized_line_survives(std::uint16_t port) {
  net::Client client("127.0.0.1", port);
  const ResponseLine err =
      client.request(std::string(4096, 'x'));  // one huge bogus line
  ASSERT_FALSE(err.ok);
  EXPECT_EQ(err.code, ErrorCode::kBadRequest);
  // Same socket keeps working, correctly framed.
  const ResponseLine ok = client.request("random:100:1 Liu 1 id=1");
  EXPECT_TRUE(ok.ok) << ok.message;
  EXPECT_EQ(ok.id, 1u);
}

inline void half_close_answers_everything(std::uint16_t port) {
  net::Client client("127.0.0.1", port);
  client.send_line("random:500:1 ParSubtrees 4 id=1");
  client.send_line("random:500:1 ParSubtrees 8 id=2");
  client.send_line("ping");
  client.shutdown_write();
  std::size_t lines = 0;
  while (client.recv_line()) ++lines;
  EXPECT_EQ(lines, 3u) << "all pending answers flushed before close";
}

/// Needs max_wbuf = 2048 (forces EPOLLOUT flushing and read pauses) and
/// max_pending = 4096.
inline void slow_reader_gets_every_answer(std::uint16_t port) {
  net::Client client("127.0.0.1", port);
  // A few hundred cache-hot requests written without reading a single
  // answer: the front-end must stop reading when its write buffer
  // fills, resume as we drain, and deliver every answer exactly once.
  constexpr int kRequests = 400;
  for (int i = 0; i < kRequests; ++i) {
    client.send_line("random:200:1 Liu 1 id=" + std::to_string(i));
  }
  client.shutdown_write();
  std::vector<bool> seen(kRequests, false);
  std::size_t answers = 0;
  while (const auto line = client.recv_line()) {
    const ResponseLine resp = parse_response_line(*line);
    ASSERT_TRUE(resp.id.has_value());
    ASSERT_LT(*resp.id, static_cast<std::uint64_t>(kRequests));
    EXPECT_FALSE(seen[static_cast<std::size_t>(*resp.id)]);
    seen[static_cast<std::size_t>(*resp.id)] = true;
    ++answers;
  }
  EXPECT_EQ(answers, static_cast<std::size_t>(kRequests));
}

inline void garbage_magic_answers_one_error_and_closes(std::uint16_t port) {
  net::Client client = raw_client(port);
  send_raw(client, std::string("\xB3") + "XXX");  // 0xB3, wrong tail
  expect_one_bad_request_frame(client);
}

inline void eof_inside_the_magic_answers_bad_request(std::uint16_t port) {
  net::Client client = raw_client(port);
  send_raw(client, std::string(net::kFrameMagic.substr(0, 2)));
  client.shutdown_write();  // half-close before the magic completes
  expect_one_bad_request_frame(client);
}

inline void half_close_mid_frame_answers_bad_request(std::uint16_t port) {
  net::Client client = raw_client(port);
  std::string wire(net::kFrameMagic);
  const std::string hdr = header_bytes(
      static_cast<std::uint8_t>(net::Opcode::kRequest), 0, 0, 64);
  wire += hdr.substr(0, 5);  // opcode + flags + reserved + 1 length byte
  send_raw(client, wire);
  client.shutdown_write();  // half-close inside the length prefix
  expect_one_bad_request_frame(client);
}

inline void unknown_opcode_is_refused(std::uint16_t port) {
  net::Client client = raw_client(port);
  std::string wire(net::kFrameMagic);
  wire += header_bytes(0x7f, 0, 0, 0);
  send_raw(client, wire);
  expect_one_bad_request_frame(client);
}

}  // namespace treesched::scenarios
