#pragma once
// The request grammar's one parser (text v2 lines and binary v3
// payloads alike). parse_request_view() tokenizes one request line in
// place: every field is a std::string_view into the caller's buffer,
// numbers go through std::from_chars, and the success path performs no
// allocation at all — no istringstream, no per-field std::string, no
// field map. The single owned copy of a request happens where it must:
// in the front-end tier that builds the ScheduleRequest or the router's
// forward line (net/session.hpp), or in parse_request_line
// (request_line.hpp), the owning wrapper tests and e2ebench use.
//
// The grammar (request_line.hpp documents the fields):
//   <tree-spec> <algo> <p> [<memory-cap>] [priority=...] [deadline_ms=...]
//       [id=...]
//   cancel id=<n>
//   ping [id=<n>]
//   stats [id=<n>]
//   trace start|stop|status|pull|dump=<path> [id=<n>]
// tests/test_frame.cpp pins it against an independent istringstream
// reference parser (tests/request_line_oracle.hpp): every line of its
// corpus is accepted by both with the same fields or rejected by both.
//
// Lifetime: a RequestView borrows the input buffer. It is valid only
// while that buffer is (for a v3 session: until the FrameReader
// compacts, i.e. until the next read) — consume it before reading on.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/tree.hpp"
#include "service/request_line.hpp"

namespace treesched {

/// One request, parsed in place. Mirrors RequestLine field-for-field
/// with string_views instead of strings.
struct RequestView {
  RequestLine::Kind kind = RequestLine::Kind::kSchedule;
  std::optional<std::uint64_t> id;

  // kSchedule fields (views into the parsed buffer).
  std::string_view tree_spec;
  std::string_view algo;
  int p = 1;
  MemSize memory_cap = 0;
  Priority priority = Priority::kBatch;
  double deadline_ms = 0.0;  ///< <= 0 = none

  // kTrace fields (mirror RequestLine's).
  std::string_view trace_action;
  std::string_view trace_path;
};

/// Parses one nonempty request line in place. Returns true and fills
/// `out` on success (no allocation); returns false and assigns a message
/// naming the offending token to `error` on any grammar violation.
bool parse_request_view(std::string_view line, RequestView& out,
                        std::string& error);

}  // namespace treesched
