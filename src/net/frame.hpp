#pragma once
// Binary protocol v3 framing (src/net/): length-prefixed frames,
// negotiated on connect and parsed in place from the connection's read
// buffer — the throughput path where text v2 spends its time splitting
// lines and allocating field strings.
//
// Negotiation: the first bytes a client sends decide the protocol. The
// 4-byte magic "\xB3TS3" switches the connection to v3; anything else
// (its first byte 0xB3 is not printable ASCII, so no v2 text line can
// start with it) keeps text v2 unchanged — plain `nc` clients never
// notice v3 exists. A first byte of 0xB3 followed by a wrong magic tail
// is answered with one binary bad_request frame and the connection
// closes.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     1  opcode
//        1     1  flags     (per-opcode; unused bits must be 0)
//        2     2  reserved  (must be 0)
//        4     4  length    (payload bytes; bounded by max_frame)
//        8   len  payload
//
// Client -> server opcodes:
//   kRequest 0x01  payload = one request line (v2 grammar, no newline),
//                  parsed zero-copy via service/request_view.hpp
//   kBatch   0x02  payload = u32 count, then count x (u32 len, len bytes
//                  of request line) — one frame, many pipelined requests
//   kCancel  0x03  payload = u64 id
//   kPing    0x04  payload = u64 id iff flags & kFlagHasId, else empty
//   kStats   0x05  payload = u64 id iff flags & kFlagHasId, else empty
//
// Trace-context extension: a kRequest/kBatch frame with kFlagHasTrace
// set prefixes its payload with 12 bytes — u64 trace_id, u32 origin
// (the sending node's id) — and the request line(s) follow unchanged.
// The extension rides the PAYLOAD, not the reserved header bytes, so
// reserved-byte hygiene (must be 0, violations close the connection)
// is untouched; flag absent = the exact pre-extension wire format, so
// old clients never change and old servers only ever see it from a
// peer explicitly running with tracing enabled. Text v2 has no trace
// context — a text hop starts a fresh trace.
//
// Server -> client opcodes (every payload leads with u64 id, meaningful
// iff flags & kFlagHasId):
//   kResponse   0x81  flags kFlagOk: u64 id, u64 tree_hash,
//                     u64 peak_memory, f64 makespan (IEEE-754 bits),
//                     u32 n, u32 p, u8 priority, u16 algo_len, algo
//                     bytes. Without kFlagOk: u64 id, u16 code
//                     (ErrorCode's numeric value — service/errors.hpp
//                     numbering IS the wire contract), message bytes to
//                     the end of the payload.
//   kPong       0x84  u64 id iff kFlagHasId, else empty
//   kStatsReply 0x85  u64 id, u32 count, count x (u16 key_len, key
//                     bytes, u64 value)
//
// Responses are tagged exactly like v2 `id=` answers: tagged requests
// may complete out of order, untagged ones keep submission order.
//
// FrameReader parses incrementally and in place: the connection reads
// straight into the reader's buffer (write_ptr/commit) and next()
// returns payload string_views over that buffer — stable until the next
// write_ptr/commit call, i.e. for exactly as long as the caller is
// draining the frames of one read. A frame whose length exceeds
// max_frame, a nonzero reserved field, or a malformed batch payload is
// a protocol violation: next() turns sticky-bad and the connection
// answers one typed bad_request, then closes — it never over-reads.
//
// FrameWriter appends frames to a caller-owned buffer (the connection's
// write buffer), so a batch of completions coalesces into one flush.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/limits.hpp"
#include "service/request_line.hpp"

namespace treesched::net {

inline constexpr std::string_view kFrameMagic = "\xB3TS3";
inline constexpr std::size_t kFrameHeaderLen = 8;

enum class Opcode : std::uint8_t {
  // client -> server
  kRequest = 0x01,
  kBatch = 0x02,
  kCancel = 0x03,
  kPing = 0x04,
  kStats = 0x05,
  // server -> client
  kResponse = 0x81,
  kPong = 0x84,
  kStatsReply = 0x85,
  /// Payload identical to kStatsReply (u64 id, u32 count, count x
  /// (u16 key_len, key bytes, u64 value)) — the answer to a `trace`
  /// control verb sent as a kRequest/kBatch request line.
  kTraceReply = 0x86,
};

inline constexpr std::uint8_t kFlagOk = 0x01;
inline constexpr std::uint8_t kFlagHasId = 0x02;
inline constexpr std::uint8_t kFlagCacheHit = 0x04;
/// kRequest/kBatch: the payload leads with a 12-byte trace context
/// (u64 trace_id, u32 origin) before the request line(s).
inline constexpr std::uint8_t kFlagHasTrace = 0x08;

/// Propagated trace identity of one request: the 64-bit trace id the
/// origin stamped plus that origin's node id, so every tier's spans can
/// carry the same correlator. trace_id 0 = untraced.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t origin = 0;
};
inline constexpr std::size_t kTraceContextLen = 12;

/// One framed unit. `payload` is a view into the FrameReader's buffer —
/// valid until the reader's next write_ptr()/commit().
struct Frame {
  Opcode opcode = Opcode::kRequest;
  std::uint8_t flags = 0;
  std::string_view payload;
};

/// Incremental, zero-copy frame parser. Read into write_ptr(), commit()
/// the byte count, then drain with next().
class FrameReader {
 public:
  enum class Status {
    kFrame,     ///< `out` holds the next complete frame
    kNeedMore,  ///< a partial header/payload is buffered; read again
    kBad,       ///< protocol violation (sticky); see bad_reason()
  };

  explicit FrameReader(std::size_t max_frame = kDefaultMaxFrame)
      : max_frame_(max_frame) {}

  /// Writable tail of the buffer, good for at least `hint` bytes. May
  /// compact, invalidating every payload view handed out earlier.
  char* write_ptr(std::size_t hint = 16384);
  [[nodiscard]] std::size_t write_capacity() const {
    return buf_.size() - tail_;
  }
  /// Marks `n` bytes (read into write_ptr()) as available for framing.
  void commit(std::size_t n) { tail_ += n; }

  /// Appends bytes by copy (the negotiation prelude; tests).
  void feed(const char* data, std::size_t len);

  Status next(Frame& out);

  [[nodiscard]] const std::string& bad_reason() const { return bad_reason_; }
  /// Bytes buffered but not yet returned as frames — nonzero at EOF
  /// means the peer vanished mid-frame.
  [[nodiscard]] std::size_t buffered() const { return tail_ - head_; }
  [[nodiscard]] std::size_t max_frame() const { return max_frame_; }

 private:
  std::size_t max_frame_;
  std::vector<char> buf_;
  std::size_t head_ = 0;  ///< consumed prefix
  std::size_t tail_ = 0;  ///< end of valid bytes
  bool bad_ = false;
  std::string bad_reason_;
};

/// Appends v3 frames to a caller-owned byte buffer.
class FrameWriter {
 public:
  explicit FrameWriter(std::string& out) : out_(out) {}

  /// One response frame — kResponse/kPong/kStatsReply by `resp.kind`.
  void response(const ResponseLine& resp);

  // Client -> server frames. The TraceContext overloads set
  // kFlagHasTrace and lead the payload with the 12-byte extension; a
  // zero trace_id emits the plain (flag-free, byte-identical) frame so
  // untraced traffic never grows on the wire.
  void request(std::string_view line);
  void request(std::string_view line, const TraceContext& ctx);
  void batch(const std::vector<std::string>& lines);
  void batch(const std::vector<std::string>& lines, const TraceContext& ctx);
  void cancel(std::uint64_t id);
  void ping(std::optional<std::uint64_t> id);
  void stats(std::optional<std::uint64_t> id);

  /// Raw escape hatch (tests build hostile frames with it).
  void raw_frame(std::uint8_t opcode, std::uint8_t flags,
                 std::string_view payload);

 private:
  std::string& out_;
};

/// Splits the trace-context extension off a kRequest/kBatch frame:
/// without kFlagHasTrace, `ctx` is zeroed and `rest` is the whole
/// payload; with it, the leading 12 bytes decode into `ctx` and `rest`
/// views what follows. False (with a message) when the flag is set but
/// the payload cannot hold the extension — a protocol violation.
bool split_trace_context(const Frame& frame, TraceContext& ctx,
                         std::string_view& rest, std::string& error);

/// Decodes a kCancel payload (exactly one u64 id). False on any other
/// payload size.
bool decode_cancel(const Frame& frame, std::uint64_t& id);

/// Decodes a kPing/kStats payload: u64 id iff kFlagHasId, else empty.
/// False when the payload size contradicts the flag.
bool decode_control_id(const Frame& frame,
                       std::optional<std::uint64_t>& id);

/// Splits a kBatch payload into its request lines (views into the
/// payload, same lifetime). Returns false with a message when the count
/// or an entry length contradicts the payload size — the caller treats
/// that as a protocol violation, exactly like a bad frame header.
bool decode_batch(std::string_view payload,
                  std::vector<std::string_view>& out, std::string& error);

/// Decodes a kResponse/kPong/kStatsReply frame back into the shared
/// in-memory response shape (the client side of the wire). Returns
/// false with a message on a malformed payload.
bool decode_response_frame(const Frame& frame, ResponseLine& out,
                           std::string& error);

}  // namespace treesched::net
