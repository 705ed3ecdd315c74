#pragma once
// Incremental newline framing for the TCP front-end (layer 1 of
// src/net/): turns an arbitrary sequence of read() chunks into protocol
// lines, no matter how the kernel fragments them — one byte at a time,
// a dozen lines per chunk, or a line split mid-token across reads.
//
//   LineFramer framer(max_line);
//   for (Line& line : framer.feed(buf, n)) ...   // per read()
//   if (auto last = framer.finish()) ...         // at EOF/half-close
//
// A line longer than `max_line` bytes is a protocol violation by the
// client, not a reason to buffer without bound or to kill the
// connection: the framer drops the excess, keeps scanning for the
// terminating '\n', and emits the line with `overflow = true` (text
// truncated to the limit) so the caller can answer a typed bad_request
// — and the connection survives, correctly framed, from the next line
// on.
//
// A trailing '\r' is stripped (CRLF clients: nc, telnet, load
// balancers). finish() flushes a final unterminated line at EOF — the
// same grace std::getline gives the stdin front-end.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "net/limits.hpp"

namespace treesched::net {

class LineFramer {
 public:
  struct Line {
    std::string text;
    /// The line exceeded max_line: `text` holds only the first
    /// max_line bytes; the rest was discarded up to the newline.
    bool overflow = false;
    /// Bytes the line carried on the wire (excluding the terminator),
    /// including any discarded overflow.
    std::size_t wire_bytes = 0;
  };

  explicit LineFramer(std::size_t max_line = kDefaultMaxLine)
      : max_line_(max_line) {}

  /// Consumes one read() chunk; returns every line it completed, in
  /// order. Partial data is buffered for the next feed.
  std::vector<Line> feed(const char* data, std::size_t len);

  /// EOF: the final unterminated line, if any bytes are buffered.
  std::optional<Line> finish();

  /// Bytes currently buffered for an incomplete line (bounded by
  /// max_line even while an oversized line streams in).
  [[nodiscard]] std::size_t partial_bytes() const { return partial_.size(); }

  [[nodiscard]] std::size_t max_line() const { return max_line_; }

 private:
  Line take_line();

  std::size_t max_line_;
  std::string partial_;
  /// Wire bytes of the in-progress line beyond what partial_ holds.
  std::size_t dropped_ = 0;
};

}  // namespace treesched::net
