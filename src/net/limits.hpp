#pragma once
// Per-connection defaults of both front-end tiers (src/net/): the
// server's ServerConfig and the router's RouterConfig default their
// client-facing limits to these, and the framers default to the same
// values, so each number is written once with the reason for it. The
// config fields themselves stay (the CLI flags and the benchmark set
// them); only their defaults live here.

#include <cstddef>

namespace treesched::net {

/// Unsettled requests one connection may hold; the next one answers the
/// typed queue_full error without reaching the service or a backend.
/// Four pipelined v3 batch frames of 16 fit, and one client cannot park
/// more than a window's worth of work ahead of every other connection.
inline constexpr std::size_t kDefaultMaxPending = 64;

/// Write-buffer high watermark in bytes: past it a session stops
/// reading until the client drains below half. An ok text answer is
/// ~120 bytes, so 256 KiB holds ~2000 answers — many full windows — and
/// a client that never reads costs at most this much memory.
inline constexpr std::size_t kDefaultMaxWbuf = 256 * 1024;

/// Longest text (v2) request line in bytes; a longer line answers
/// bad_request and the stream resynchronizes on its newline. A request
/// is well under 1 KiB, so this only bounds a client that never sends
/// a newline.
inline constexpr std::size_t kDefaultMaxLine = 64 * 1024;

/// Largest binary (v3) frame in bytes; a bigger length prefix answers
/// bad_request and closes before any of its payload is buffered. A
/// batch frame of thousands of requests fits, and so does a `trace
/// pull` reply (obs::kTracePullMaxSpans keeps it well under 1 MiB).
inline constexpr std::size_t kDefaultMaxFrame = 1 << 20;

}  // namespace treesched::net
