// Binary protocol v3 (src/net/frame.hpp + service/request_view.hpp):
// zero-copy request parsing pinned grammar-equivalent to an independent
// istringstream reference parser (request_line_oracle.hpp), frame round
// trips under adversarial chunkings, hostile-frame rejection (truncated
// length prefix, oversized length, garbage magic, mid-frame
// disconnect), and end-to-end coverage of the negotiated
// binary mode over real sockets — pipelined batch frames, out-of-order
// tagged answers, bit-identical v2/v3 schedule payloads, unix-domain
// sockets, and the v3 protocol counters in `stats`.

#include "net/frame.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "front_end_scenarios.hpp"
#include "net/server.hpp"
#include "request_line_oracle.hpp"
#include "service/request_view.hpp"
#include "service/service.hpp"
#include "util/thread_pool.hpp"

namespace treesched {
namespace {

using net::Client;
using net::decode_batch;
using net::decode_response_frame;
using net::Frame;
using net::FrameReader;
using net::FrameWriter;
using net::kFlagCacheHit;
using net::kFlagHasId;
using net::kFlagOk;
using net::kFrameHeaderLen;
using net::kFrameMagic;
using net::Opcode;
using net::Protocol;
using net::Server;
using net::ServerConfig;
using scenarios::drain_binary;
using scenarios::header_bytes;
using scenarios::send_raw;

// ---------------------------------------------------------------------------
// RequestView: the zero-copy parser, alone and against the reference.
// ---------------------------------------------------------------------------

TEST(RequestView, ParsesAFullScheduleLine) {
  RequestView req;
  std::string error;
  ASSERT_TRUE(parse_request_view(
      "synthetic:500:7 ParSubtrees 8 1048576 priority=interactive "
      "deadline_ms=12.5 id=42",
      req, error))
      << error;
  EXPECT_EQ(req.kind, RequestLine::Kind::kSchedule);
  EXPECT_EQ(req.tree_spec, "synthetic:500:7");
  EXPECT_EQ(req.algo, "ParSubtrees");
  EXPECT_EQ(req.p, 8);
  EXPECT_EQ(req.memory_cap, 1048576u);
  EXPECT_EQ(req.priority, Priority::kInteractive);
  EXPECT_DOUBLE_EQ(req.deadline_ms, 12.5);
  EXPECT_EQ(req.id, 42u);
}

TEST(RequestView, ParsesControlLines) {
  RequestView req;
  std::string error;
  ASSERT_TRUE(parse_request_view("cancel id=7", req, error)) << error;
  EXPECT_EQ(req.kind, RequestLine::Kind::kCancel);
  EXPECT_EQ(req.id, 7u);
  ASSERT_TRUE(parse_request_view("ping", req, error)) << error;
  EXPECT_EQ(req.kind, RequestLine::Kind::kPing);
  EXPECT_FALSE(req.id.has_value());
  ASSERT_TRUE(parse_request_view("stats id=9", req, error)) << error;
  EXPECT_EQ(req.kind, RequestLine::Kind::kStats);
  EXPECT_EQ(req.id, 9u);
}

TEST(RequestView, SuccessPathTakesViewsIntoTheInput) {
  const std::string line = "random:300:1 Liu 4 id=3";
  RequestView req;
  std::string error;
  ASSERT_TRUE(parse_request_view(line, req, error)) << error;
  // The views must alias the caller's buffer — that IS the zero-copy
  // contract the connection relies on.
  EXPECT_GE(req.tree_spec.data(), line.data());
  EXPECT_LT(req.tree_spec.data(), line.data() + line.size());
  EXPECT_GE(req.algo.data(), line.data());
  EXPECT_LT(req.algo.data(), line.data() + line.size());
}

/// The pinned contract: every line is accepted by BOTH parsers with the
/// same fields, or rejected by BOTH (messages may differ; acceptance may
/// not). A grammar change that only one implementation makes shows here.
TEST(RequestView, AgreesWithTheV2ParserAcrossTheCorpus) {
  const char* corpus[] = {
      // accepted
      "random:300:1 Liu 1",
      "random:300:1 Liu 1 1048576",
      "synthetic:500:7 ParSubtrees 8 priority=interactive",
      "t Liu +3",
      "t Liu -2",
      "t Liu 2 id=0",
      "t Liu 2 deadline_ms=0.5 id=3 priority=bulk",
      "t Liu 2 deadline_ms=+7.5",
      "  t   Liu  4  ",
      "t Liu 1 0",
      "cancel id=12",
      "ping",
      "ping id=9",
      "stats",
      "stats id=18446744073709551615",
      "trace start",
      "trace stop id=4",
      "trace status",
      "trace dump=/tmp/out.json",
      "trace dump=/tmp/out.json id=2",
      // rejected
      "",
      "   ",
      "t",
      "t Liu",
      "t Liu x",
      "t Liu 1e3",
      "t Liu 0x10",
      "t Liu 99999999999999999999",
      "t Liu 1 -5",
      "t Liu 1 +5",
      "t Liu 1 2 3",
      "t Liu 1 1024 extra",
      "t Liu 1 priority=speedy",
      "t Liu 1 priority=batch priority=bulk",
      "t Liu 1 deadline_ms=-1",
      "t Liu 1 deadline_ms=0",
      "t Liu 1 deadline_ms=abc",
      "t Liu 1 id=-1",
      "t Liu 1 id=+2",
      "t Liu 1 id=1 id=2",
      "t Liu 1 id=18446744073709551616",
      "t Liu 1 unknown=3",
      "cancel",
      "cancel id=",
      "cancel foo=1",
      "cancel id=1 id=2",
      "ping extra",
      "ping id=1 id=2",
      "stats id=x",
      "trace",
      "trace restart",
      "trace start stop",
      "trace dump=",
      "trace dump=/a dump=/b",
      "trace start dump=/a",
      "trace start trailing",
      "trace unknown=1",
      "trace start id=1 id=2",
  };
  for (const char* raw : corpus) {
    const std::string line = raw;
    bool v2_ok = true;
    RequestLine parsed;
    try {
      parsed = oracle::parse_request_line(line);
    } catch (const std::invalid_argument&) {
      v2_ok = false;
    }
    RequestView view;
    std::string error;
    const bool v3_ok = parse_request_view(line, view, error);
    EXPECT_EQ(v2_ok, v3_ok) << "parsers disagree on acceptance of: \"" << line
                            << "\" (v3 error: " << error << ")";
    if (!v2_ok || !v3_ok) continue;
    EXPECT_EQ(view.kind, parsed.kind) << line;
    EXPECT_EQ(view.id, parsed.id) << line;
    EXPECT_EQ(view.tree_spec, parsed.tree_spec) << line;
    EXPECT_EQ(view.algo, parsed.algo) << line;
    EXPECT_EQ(view.p, parsed.p) << line;
    EXPECT_EQ(view.memory_cap, parsed.memory_cap) << line;
    EXPECT_EQ(view.priority, parsed.priority) << line;
    EXPECT_EQ(view.deadline_ms, parsed.deadline_ms) << line;
    EXPECT_EQ(view.trace_action, parsed.trace_action) << line;
    EXPECT_EQ(view.trace_path, parsed.trace_path) << line;
  }
}

/// Text clients parse through the view parser, so on control lines (and
/// the field errors every verb shares) it must answer the exact message
/// of the istringstream reference, the wording text clients know.
TEST(RequestView, ControlLineErrorsKeepTheV2Wording) {
  for (const char* line :
       {"cancel", "cancel 7", "cancel foo=1", "cancel id=", "cancel id=x",
        "cancel id=1 id=2", "ping extra", "ping id=1 id=2", "ping id=-3",
        "stats now", "stats id=x", "trace", "trace restart",
        "trace start stop", "trace dump=", "trace dump=/a dump=/b",
        "trace unknown=1", "t Liu 1 unknown=3", "t Liu 1 id=1 id=2",
        "t Liu 1 priority=speedy", "t Liu 1 2 3", "t Liu",
        "t Liu 1 id=18446744073709551616"}) {
    std::string v2_error;
    try {
      (void)oracle::parse_request_line(line);
    } catch (const std::invalid_argument& e) {
      v2_error = e.what();
    }
    RequestView view;
    std::string error;
    ASSERT_FALSE(parse_request_view(line, view, error)) << line;
    EXPECT_EQ(error, v2_error) << line;
  }
}

// ---------------------------------------------------------------------------
// FrameReader / FrameWriter: round trips and chunkings.
// ---------------------------------------------------------------------------

TEST(FrameCodec, RequestFrameRoundTrips) {
  std::string wire;
  FrameWriter writer(wire);
  writer.request("random:300:1 Liu 1 id=1");
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kRequest);
  EXPECT_EQ(frame.payload, "random:300:1 Liu 1 id=1");
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameCodec, ByteByByteDeliveryProducesTheSameFrames) {
  std::string wire;
  FrameWriter writer(wire);
  writer.request("a Liu 1");
  writer.cancel(7);
  writer.ping(std::nullopt);
  writer.stats(9);
  FrameReader reader;
  std::vector<Opcode> opcodes;
  Frame frame;
  for (const char c : wire) {
    reader.feed(&c, 1);
    while (reader.next(frame) == FrameReader::Status::kFrame) {
      opcodes.push_back(frame.opcode);
      if (frame.opcode == Opcode::kRequest) {
        EXPECT_EQ(frame.payload, "a Liu 1");
      }
    }
  }
  EXPECT_EQ(opcodes, (std::vector<Opcode>{Opcode::kRequest, Opcode::kCancel,
                                          Opcode::kPing, Opcode::kStats}));
}

TEST(FrameCodec, BatchFrameRoundTrips) {
  const std::vector<std::string> lines = {"a Liu 1", "", "b ParSubtrees 4"};
  std::string wire;
  FrameWriter writer(wire);
  writer.batch(lines);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.opcode, Opcode::kBatch);
  std::vector<std::string_view> entries;
  std::string error;
  ASSERT_TRUE(decode_batch(frame.payload, entries, error)) << error;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], "a Liu 1");
  EXPECT_EQ(entries[1], "");
  EXPECT_EQ(entries[2], "b ParSubtrees 4");
}

TEST(FrameCodec, ZeroLengthFramesAreLegal) {
  std::string wire;
  FrameWriter writer(wire);
  writer.ping(std::nullopt);  // no id: empty payload
  EXPECT_EQ(wire.size(), kFrameHeaderLen);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameCodec, OkResponseRoundTripsBitForBit) {
  ResponseLine resp;
  resp.kind = ResponseLine::Kind::kSchedule;
  resp.ok = true;
  resp.id = 42;
  resp.tree_hash = 0xdeadbeefcafef00dull;
  resp.n = 4321;
  resp.algo = "ParSubtrees";
  resp.p = 16;
  resp.makespan = 123.45600000000013;  // a double that needs all 17 digits
  resp.peak_memory = 1u << 30;
  resp.cache_hit = true;
  resp.priority = Priority::kInteractive;
  std::string wire;
  FrameWriter(wire).response(resp);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.flags & kFlagOk, kFlagOk);
  EXPECT_EQ(frame.flags & kFlagCacheHit, kFlagCacheHit);
  ResponseLine decoded;
  std::string error;
  ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.tree_hash, resp.tree_hash);
  EXPECT_EQ(decoded.n, resp.n);
  EXPECT_EQ(decoded.algo, resp.algo);
  EXPECT_EQ(decoded.p, resp.p);
  EXPECT_EQ(decoded.makespan, resp.makespan) << "IEEE bits, not text";
  EXPECT_EQ(decoded.peak_memory, resp.peak_memory);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_EQ(decoded.priority, resp.priority);
}

TEST(FrameCodec, ErrorAndControlResponsesRoundTrip) {
  ResponseLine err;
  err.ok = false;
  err.code = ErrorCode::kQueueFull;
  err.message = "window full";
  std::string wire;
  FrameWriter(wire).response(err);
  ResponseLine pong;
  pong.kind = ResponseLine::Kind::kPong;
  pong.ok = true;
  pong.id = 5;
  FrameWriter(wire).response(pong);
  ResponseLine stats;
  stats.kind = ResponseLine::Kind::kStats;
  stats.ok = true;
  stats.stats = {{"conns", 3}, {"frames_in", 12}};
  FrameWriter(wire).response(stats);

  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ResponseLine decoded;
  std::string error;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
  EXPECT_FALSE(decoded.ok);
  EXPECT_FALSE(decoded.id.has_value());
  EXPECT_EQ(decoded.code, ErrorCode::kQueueFull);
  EXPECT_EQ(decoded.message, "window full");
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
  EXPECT_EQ(decoded.kind, ResponseLine::Kind::kPong);
  EXPECT_EQ(decoded.id, 5u);
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
  EXPECT_EQ(decoded.kind, ResponseLine::Kind::kStats);
  ASSERT_EQ(decoded.stats.size(), 2u);
  EXPECT_EQ(decoded.stats[0].first, "conns");
  EXPECT_EQ(decoded.stats[1].second, 12u);
}

/// The client-side decoder must be exactly as strict about frame shape
/// as the server's decode_control_id/decode_batch: trailing payload
/// bytes are a protocol violation in BOTH directions, or the two sides
/// disagree on what a valid frame is.
TEST(FrameCodec, ResponseFramesWithTrailingBytesAreRejected) {
  ResponseLine decoded;
  std::string error;

  // An untagged pong carries an empty payload — nothing else.
  Frame pong;
  pong.opcode = Opcode::kPong;
  pong.flags = 0;
  pong.payload = "junk";
  EXPECT_FALSE(decode_response_frame(pong, decoded, error));

  // A tagged pong carries exactly its 8-byte id.
  const std::string tagged_payload = std::string(8, '\0') + "x";
  pong.flags = kFlagHasId;
  pong.payload = tagged_payload;
  EXPECT_FALSE(decode_response_frame(pong, decoded, error));

  // A stats reply carries exactly its declared entries; pad a valid one
  // and the decode must flip to rejection.
  ResponseLine stats;
  stats.kind = ResponseLine::Kind::kStats;
  stats.ok = true;
  stats.stats = {{"conns", 3}};
  std::string wire;
  FrameWriter(wire).response(stats);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
  const std::string padded = std::string(frame.payload) + '\0';
  Frame bad = frame;
  bad.payload = padded;
  EXPECT_FALSE(decode_response_frame(bad, decoded, error));

  // Same for an ok schedule response.
  ResponseLine ok;
  ok.kind = ResponseLine::Kind::kSchedule;
  ok.ok = true;
  ok.id = 1;
  ok.algo = "Liu";
  ok.n = 10;
  ok.p = 2;
  std::string ok_wire;
  FrameWriter(ok_wire).response(ok);
  FrameReader ok_reader;
  ok_reader.feed(ok_wire.data(), ok_wire.size());
  ASSERT_EQ(ok_reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
  const std::string ok_padded = std::string(frame.payload) + "x";
  bad = frame;
  bad.payload = ok_padded;
  EXPECT_FALSE(decode_response_frame(bad, decoded, error));
}

TEST(FrameCodec, TraceReplyRoundTripsUnderItsOwnOpcode) {
  ResponseLine trace;
  trace.kind = ResponseLine::Kind::kTrace;
  trace.ok = true;
  trace.id = 11;
  trace.stats = {{"enabled", 1}, {"spans", 42}, {"dropped", 0}};
  std::string wire;
  FrameWriter(wire).response(trace);
  EXPECT_EQ(static_cast<std::uint8_t>(wire[0]),
            static_cast<std::uint8_t>(Opcode::kTraceReply))
      << "trace replies must not masquerade as stats replies";

  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ResponseLine decoded;
  std::string error;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
  EXPECT_EQ(decoded.kind, ResponseLine::Kind::kTrace);
  EXPECT_EQ(decoded.id, 11u);
  ASSERT_EQ(decoded.stats.size(), 3u);
  EXPECT_EQ(decoded.stats[0].first, "enabled");
  EXPECT_EQ(decoded.stats[1].first, "spans");
  EXPECT_EQ(decoded.stats[1].second, 42u);
}

// ---------------------------------------------------------------------------
// Trace-context extension (kFlagHasTrace): the 12-byte payload prefix
// that threads one trace id across tiers — and the compatibility pin
// that untraced traffic stays byte-identical to the pre-extension wire.
// ---------------------------------------------------------------------------

TEST(FrameCodec, TracedRequestRoundTripsItsContext) {
  std::string wire;
  FrameWriter(wire).request("random:300:1 Liu 1 id=1",
                            net::TraceContext{42, 7});
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.opcode, Opcode::kRequest);
  ASSERT_EQ(frame.flags & net::kFlagHasTrace, net::kFlagHasTrace);
  net::TraceContext ctx;
  std::string_view rest;
  std::string error;
  ASSERT_TRUE(net::split_trace_context(frame, ctx, rest, error)) << error;
  EXPECT_EQ(ctx.trace_id, 42u);
  EXPECT_EQ(ctx.origin, 7u);
  EXPECT_EQ(rest, "random:300:1 Liu 1 id=1")
      << "the request line follows the extension unchanged";
}

TEST(FrameCodec, ZeroTraceIdEmitsTheByteIdenticalPlainFrame) {
  std::string plain;
  FrameWriter(plain).request("a Liu 1");
  std::string via_ctx;
  FrameWriter(via_ctx).request("a Liu 1", net::TraceContext{0, 7});
  EXPECT_EQ(plain, via_ctx)
      << "untraced traffic must never grow on the wire";

  // And a flag-free frame splits to a zeroed context + full payload.
  FrameReader reader;
  reader.feed(plain.data(), plain.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.flags & net::kFlagHasTrace, 0);
  net::TraceContext ctx{99, 99};
  std::string_view rest;
  std::string error;
  ASSERT_TRUE(net::split_trace_context(frame, ctx, rest, error)) << error;
  EXPECT_EQ(ctx.trace_id, 0u);
  EXPECT_EQ(ctx.origin, 0u);
  EXPECT_EQ(rest, "a Liu 1");
}

TEST(FrameCodec, TracedBatchSharesOneContextAcrossItsEntries) {
  std::string wire;
  FrameWriter(wire).batch({"a Liu 1 id=1", "b Liu 2 id=2"},
                          net::TraceContext{1234, 1});
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.opcode, Opcode::kBatch);
  ASSERT_EQ(frame.flags & net::kFlagHasTrace, net::kFlagHasTrace);
  net::TraceContext ctx;
  std::string_view rest;
  std::string error;
  ASSERT_TRUE(net::split_trace_context(frame, ctx, rest, error)) << error;
  EXPECT_EQ(ctx.trace_id, 1234u);
  std::vector<std::string_view> entries;
  ASSERT_TRUE(decode_batch(rest, entries, error)) << error;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], "a Liu 1 id=1");
  EXPECT_EQ(entries[1], "b Liu 2 id=2");
}

TEST(FrameCodec, TruncatedTraceExtensionIsAProtocolViolation) {
  // The flag promises 12 bytes; a payload that can't hold them must be
  // refused, not decoded out of thin air.
  std::string wire;
  FrameWriter(wire).raw_frame(static_cast<std::uint8_t>(Opcode::kRequest),
                              net::kFlagHasTrace, "short");
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(reader.next(frame), FrameReader::Status::kFrame)
      << "the frame itself is well-formed; the extension is what's broken";
  net::TraceContext ctx;
  std::string_view rest;
  std::string error;
  EXPECT_FALSE(net::split_trace_context(frame, ctx, rest, error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// Hostile frames, unit level: the reader must go sticky-bad without
// over-reading or buffering hostile lengths.
// ---------------------------------------------------------------------------

TEST(FrameCodec, TruncatedHeaderNeedsMoreNotBad) {
  const std::string hdr =
      header_bytes(static_cast<std::uint8_t>(Opcode::kRequest), 0, 0, 12);
  FrameReader reader;
  reader.feed(hdr.data(), 3);  // truncated length prefix
  Frame frame;
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kNeedMore);
  EXPECT_EQ(reader.buffered(), 3u) << "EOF here would be a mid-frame close";
}

TEST(FrameCodec, OversizedLengthIsRejectedBeforeItsPayloadArrives) {
  FrameReader reader(/*max_frame=*/1024);
  const std::string hdr = header_bytes(
      static_cast<std::uint8_t>(Opcode::kRequest), 0, 0, 1u << 30);
  reader.feed(hdr.data(), hdr.size());  // header only, payload never sent
  Frame frame;
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kBad);
  EXPECT_NE(reader.bad_reason().find("exceeds"), std::string::npos);
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kBad) << "sticky";
}

TEST(FrameCodec, NonzeroReservedBytesAreRejected) {
  FrameReader reader;
  const std::string hdr =
      header_bytes(static_cast<std::uint8_t>(Opcode::kPing), 0, 1, 0);
  reader.feed(hdr.data(), hdr.size());
  Frame frame;
  EXPECT_EQ(reader.next(frame), FrameReader::Status::kBad);
}

TEST(FrameCodec, HostileBatchPayloadsAreRejected) {
  std::vector<std::string_view> entries;
  std::string error;
  // Count field truncated.
  EXPECT_FALSE(decode_batch(std::string_view("\x01\x00", 2), entries, error));
  // Count claims more entries than the payload can hold.
  std::string huge_count;
  for (const char c : {'\xff', '\xff', '\xff', '\xff'}) huge_count += c;
  EXPECT_FALSE(decode_batch(huge_count, entries, error));
  EXPECT_NE(error.find("count"), std::string::npos);
  // Entry length runs past the payload.
  std::string truncated;
  truncated += std::string("\x01\x00\x00\x00", 4);  // count = 1
  truncated += std::string("\x10\x00\x00\x00", 4);  // len = 16
  truncated += "short";
  EXPECT_FALSE(decode_batch(truncated, entries, error));
  // Trailing garbage after the last entry.
  std::string trailing;
  FrameWriter(trailing).batch({"a Liu 1"});
  std::string payload = trailing.substr(kFrameHeaderLen) + "junk";
  EXPECT_FALSE(decode_batch(payload, entries, error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(FrameCodec, MalformedResponsePayloadsAreRejected) {
  ResponseLine decoded;
  std::string error;
  Frame frame;
  frame.opcode = Opcode::kResponse;
  frame.flags = kFlagOk;
  frame.payload = "too short";
  EXPECT_FALSE(decode_response_frame(frame, decoded, error));
  // Unknown numeric error code.
  std::string err_payload(8, '\0');
  err_payload.push_back('\x63');  // code = 99
  err_payload.push_back('\0');
  frame.flags = 0;
  frame.payload = err_payload;
  EXPECT_FALSE(decode_response_frame(frame, decoded, error));
  EXPECT_NE(error.find("unknown error code"), std::string::npos);
  // A request opcode is never a response.
  frame.opcode = Opcode::kRequest;
  frame.payload = "";
  EXPECT_FALSE(decode_response_frame(frame, decoded, error));
}

// ---------------------------------------------------------------------------
// End-to-end: negotiated binary mode against a real Server.
// ---------------------------------------------------------------------------

/// Service + server + I/O thread, torn down in the right order.
class ServerHarness {
 public:
  explicit ServerHarness(ServerConfig config = {},
                         ServiceConfig service_config = {})
      : service_(service_config), server_(service_, config) {
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_.stop();
      thread_.join();
    }
  }

  [[nodiscard]] std::uint16_t port() const { return server_.port(); }

 private:
  SchedulingService service_;
  Server server_;
  std::thread thread_;
};

Client connect_v3(const ServerHarness& harness) {
  return Client("127.0.0.1", harness.port(), Protocol::kV3);
}

TEST(ScheduleServerV3, AnswersAndCachesOverTheWire) {
  ServerHarness harness;
  Client client = connect_v3(harness);
  const ResponseLine first = client.request("random:300:1 Liu 1 id=1");
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.algo, "Liu");
  EXPECT_EQ(first.n, 300);
  EXPECT_GT(first.makespan, 0.0);
  const ResponseLine second = client.request("random:300:1 Liu 1 id=2");
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit) << "same key must hit the result cache";
  EXPECT_EQ(second.makespan, first.makespan);
}

TEST(ScheduleServerV3, BatchFramePipelinesManyRequests) {
  ServerHarness harness;
  Client client = connect_v3(harness);
  std::vector<std::string> lines;
  for (int i = 0; i < 32; ++i) {
    lines.push_back("random:200:1 Liu 1 id=" + std::to_string(i));
  }
  client.send_batch(lines);  // ONE frame, one write
  std::vector<bool> seen(lines.size(), false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    ASSERT_TRUE(resp->ok) << resp->message;
    ASSERT_TRUE(resp->id.has_value());
    ASSERT_LT(*resp->id, lines.size());
    EXPECT_FALSE(seen[*resp->id]) << "answered twice";
    seen[*resp->id] = true;
  }
  client.shutdown_write();
  EXPECT_FALSE(client.recv_response().has_value());
}

TEST(ScheduleServerV3, TaggedAnswersMayArriveOutOfOrder) {
  ServerHarness harness;
  Client client = connect_v3(harness);
  client.send_batch({"random:400:2 ParSubtrees 4 id=10",
                     "random:200:3 Liu 1 id=11"});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const auto resp = client.recv_response();
    ASSERT_TRUE(resp.has_value());
    EXPECT_TRUE(resp->ok);
    ASSERT_TRUE(resp->id.has_value());
    ids.push_back(*resp->id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{10, 11}));
}

TEST(ScheduleServerV3, BadGrammarInABatchAnswersTypedErrorsInStreamOrder) {
  ServerHarness harness;
  Client client = connect_v3(harness);
  client.send_batch({"random:100:1 Liu 1", "not a request at all ===",
                     "random:100:1 Liu 2"});
  const auto ok1 = client.recv_response();
  ASSERT_TRUE(ok1 && ok1->ok);
  const auto err = client.recv_response();
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->code, ErrorCode::kBadRequest);
  const auto ok2 = client.recv_response();
  ASSERT_TRUE(ok2 && ok2->ok) << "the connection survives a grammar error";
}

TEST(ScheduleServerV3, ControlFramesAnswerPingStatsAndCancel) {
  ServerConfig config;
  config.max_pending = 1024;
  ServerHarness harness(config);
  Client client = connect_v3(harness);
  // Dedicated kPing opcode, no id: a zero-length frame both ways.
  std::string wire;
  FrameWriter(wire).ping(std::nullopt);
  send_raw(client, wire);
  const auto pong = client.recv_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->kind, ResponseLine::Kind::kPong);
  EXPECT_FALSE(pong->id.has_value());

  // kCancel opcode against a still-queued bulk request behind a wall of
  // interactive work (the saturate() pattern from the v2 tests).
  const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < backlog; ++i) {
    lines.push_back("synthetic:20000:1 ParDeepestFirst " +
                    std::to_string(2 + i) + " priority=interactive id=" +
                    std::to_string(100 + i));
  }
  lines.push_back("random:100:1 Liu 1 priority=bulk id=7");
  client.send_batch(lines);
  wire.clear();
  FrameWriter(wire).cancel(7);
  send_raw(client, wire);
  client.shutdown_write();
  std::size_t answers = 0;
  bool id7_cancelled = false;
  while (const auto resp = client.recv_response()) {
    ++answers;
    if (resp->kind == ResponseLine::Kind::kSchedule && resp->id &&
        *resp->id == 7) {
      EXPECT_FALSE(resp->ok);
      id7_cancelled = resp->code == ErrorCode::kCancelled;
    }
  }
  EXPECT_EQ(answers, backlog + 1) << "every request answered exactly once";
  EXPECT_TRUE(id7_cancelled);
}

TEST(ScheduleServerV3, StatsReportTheProtocolCounters) {
  ServerHarness harness;
  Client client = connect_v3(harness);
  client.send_batch({"random:100:1 Liu 1 id=1", "garbage === line",
                     "ping id=2"});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.recv_response().has_value());
  }
  const ResponseLine stats = client.request("stats id=9");
  EXPECT_EQ(stats.kind, ResponseLine::Kind::kStats);
  EXPECT_EQ(stats.id, 9u);
  std::uint64_t v3_conns = 0, frames_in = 0, batch_requests = 0,
                parse_errors = 0, frames_bad = 0;
  int found = 0;
  for (const auto& [key, value] : stats.stats) {
    if (key == "v3_conns") v3_conns = value, ++found;
    if (key == "frames_in") frames_in = value, ++found;
    if (key == "batch_requests") batch_requests = value, ++found;
    if (key == "parse_errors") parse_errors = value, ++found;
    if (key == "frames_bad") frames_bad = value, ++found;
  }
  EXPECT_EQ(found, 5) << "all five protocol counters must be reported";
  EXPECT_EQ(v3_conns, 1u);
  EXPECT_GE(frames_in, 2u) << "the batch frame and the stats frame";
  EXPECT_EQ(batch_requests, 3u);
  EXPECT_EQ(parse_errors, 1u);
  EXPECT_EQ(frames_bad, 0u);
}

/// The golden corpus: one request set, both protocols, one server — the
/// schedule payloads must agree bit for bit (makespan as exact doubles,
/// not text approximations), errors must agree on the typed code.
TEST(ScheduleServerV3, V2AndV3AgreeBitForBitAcrossTheGoldenCorpus) {
  const char* corpus[] = {
      "random:300:1 Liu 1 id=1",
      "random:500:2 ParSubtrees 4 id=2",
      "synthetic:400:3 ParDeepestFirst 3 id=3",
      "random:250:4 CappedSubtrees 2 id=4",
      "random:200:5 Liu 1 priority=interactive id=5",
      "random:100:1 NoSuchAlgo 1 id=6",
      "bogus-spec Liu 1 id=7",
      "random:100:1 Liu 0 id=8",
  };
  ServerHarness harness;
  Client v2 = Client("127.0.0.1", harness.port(), Protocol::kText);
  Client v3 = connect_v3(harness);
  for (const char* line : corpus) {
    const ResponseLine a = v2.request(line);
    const ResponseLine b = v3.request(line);
    EXPECT_EQ(a.ok, b.ok) << line;
    EXPECT_EQ(a.id, b.id) << line;
    if (a.ok && b.ok) {
      EXPECT_EQ(a.tree_hash, b.tree_hash) << line;
      EXPECT_EQ(a.n, b.n) << line;
      EXPECT_EQ(a.algo, b.algo) << line;
      EXPECT_EQ(a.p, b.p) << line;
      EXPECT_EQ(a.makespan, b.makespan) << line << " (must be bit-identical)";
      EXPECT_EQ(a.peak_memory, b.peak_memory) << line;
      EXPECT_EQ(a.priority, b.priority) << line;
    } else {
      EXPECT_EQ(a.code, b.code) << line;
    }
  }
}

TEST(ScheduleServerV3, TextClientsAreUntouchedByTheNegotiation) {
  ServerHarness harness;
  Client text("127.0.0.1", harness.port(), Protocol::kText);
  const ResponseLine resp = text.request("random:300:1 Liu 1 id=1");
  EXPECT_TRUE(resp.ok);
  // And the two coexist on one server.
  Client binary = connect_v3(harness);
  EXPECT_TRUE(binary.request("random:300:1 Liu 1 id=1").cache_hit);
}

TEST(ScheduleServerV3, ByteByByteDeliveryOverTheSocketStillParses) {
  ServerHarness harness;
  // A raw text-mode Client so WE control every byte: magic + one
  // request frame, delivered one byte at a time.
  Client client("127.0.0.1", harness.port(), Protocol::kText);
  std::string wire(kFrameMagic);
  FrameWriter(wire).request("random:200:1 Liu 1 id=3");
  for (const char c : wire) {
    send_raw(client, std::string(1, c));
  }
  client.shutdown_write();
  // Read the binary answer through a FrameReader over raw recv.
  FrameReader reader;
  for (;;) {
    Frame frame;
    const auto status = reader.next(frame);
    if (status == FrameReader::Status::kFrame) {
      ResponseLine decoded;
      std::string error;
      ASSERT_TRUE(decode_response_frame(frame, decoded, error)) << error;
      EXPECT_TRUE(decoded.ok);
      EXPECT_EQ(decoded.id, 3u);
      break;
    }
    ASSERT_EQ(status, FrameReader::Status::kNeedMore);
    char buf[512];
    const ssize_t n = ::recv(client.fd(), buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "EOF before the answer";
    reader.feed(buf, static_cast<std::size_t>(n));
  }
}

// --- hostile wire behavior -------------------------------------------------

TEST(ScheduleServerV3, GarbageMagicAnswersOneErrorFrameAndCloses) {
  ServerHarness harness;
  scenarios::garbage_magic_answers_one_error_and_closes(harness.port());
}

TEST(ScheduleServerV3, EofInsideTheMagicAnswersBadRequest) {
  ServerHarness harness;
  scenarios::eof_inside_the_magic_answers_bad_request(harness.port());
}

TEST(ScheduleServerV3, TruncatedLengthPrefixAtEofAnswersBadRequest) {
  ServerHarness harness;
  scenarios::half_close_mid_frame_answers_bad_request(harness.port());
}

TEST(ScheduleServerV3, OversizedFrameLengthIsRefusedUpFront) {
  ServerConfig config;
  config.max_frame = 4096;
  ServerHarness harness(config);
  Client client("127.0.0.1", harness.port(), Protocol::kText);
  std::string wire(kFrameMagic);
  // Claims 256 MiB; not a single payload byte follows — the server must
  // answer from the header alone, never waiting for (or buffering) it.
  wire += header_bytes(static_cast<std::uint8_t>(Opcode::kRequest), 0, 0,
                       256u << 20);
  send_raw(client, wire);
  const auto responses = drain_binary(client);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].code, ErrorCode::kBadRequest);
  EXPECT_NE(responses[0].message.find("exceeds"), std::string::npos);
}

TEST(ScheduleServerV3, UnknownOpcodeIsRefused) {
  ServerHarness harness;
  scenarios::unknown_opcode_is_refused(harness.port());
}

TEST(ScheduleServerV3, TracedRequestFrameIsServedLikeAnUntracedOne) {
  ServerHarness harness;
  Client client("127.0.0.1", harness.port(), Protocol::kText);
  std::string wire(kFrameMagic);
  FrameWriter(wire).request("random:200:1 Liu 1 id=4",
                            net::TraceContext{77, 1});
  send_raw(client, wire);
  client.shutdown_write();
  const auto responses = drain_binary(client);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok) << responses[0].message;
  EXPECT_EQ(responses[0].id, 4u)
      << "the trace extension must be stripped before the line parses";
}

TEST(ScheduleServerV3, TruncatedTraceExtensionClosesWithBadRequest) {
  ServerHarness harness;
  Client client("127.0.0.1", harness.port(), Protocol::kText);
  std::string wire(kFrameMagic);
  FrameWriter(wire).raw_frame(static_cast<std::uint8_t>(Opcode::kRequest),
                              net::kFlagHasTrace, "tiny");
  send_raw(client, wire);
  const auto responses = drain_binary(client);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].code, ErrorCode::kBadRequest);
}

TEST(ScheduleServerV3, MidFrameDisconnectCancelsAndTheServerSurvives) {
  ServerHarness harness;
  {
    Client doomed = connect_v3(harness);
    std::vector<std::string> lines;
    const std::size_t backlog = 2 * ThreadPool::shared().size() + 6;
    for (std::size_t i = 0; i < backlog; ++i) {
      lines.push_back("synthetic:20000:1 ParDeepestFirst " +
                      std::to_string(2 + i) + " priority=interactive");
    }
    doomed.send_batch(lines);
    // A request frame whose payload never finishes…
    std::string partial;
    FrameWriter(partial).request("random:100:1 Liu 1 id=9");
    send_raw(doomed, partial.substr(0, partial.size() - 3));
    doomed.close();  // …and an abrupt disconnect mid-frame.
  }
  Client alive = connect_v3(harness);
  const ResponseLine ok = alive.request("random:100:2 Liu 1 id=1");
  EXPECT_TRUE(ok.ok);
  // Harness teardown verifies the drain: run() returns only once the
  // vanished client's tickets all settled (cancelled or computed).
}

// --- unix-domain sockets ---------------------------------------------------

TEST(ScheduleServerV3, UnixDomainSocketServesBothProtocols) {
  const std::string path =
      "/tmp/treesched_test_" + std::to_string(::getpid()) + ".sock";
  ServerConfig config;
  config.unix_path = path;
  {
    ServerHarness harness(config);
    Client text = Client::connect_unix(path, Protocol::kText);
    const ResponseLine a = text.request("random:300:1 Liu 1 id=1");
    EXPECT_TRUE(a.ok);
    Client binary = Client::connect_unix(path, Protocol::kV3);
    const ResponseLine b = binary.request("random:300:1 Liu 1 id=2");
    ASSERT_TRUE(b.ok);
    EXPECT_TRUE(b.cache_hit);
    EXPECT_EQ(a.makespan, b.makespan);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0)
      << "socket file must be unlinked on teardown";
}

}  // namespace
}  // namespace treesched
