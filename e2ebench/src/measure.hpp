#pragma once
// Measurement helpers: the tail-percentile rule, phase accounting, and
// the in-memory span recorder of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// Linear-interpolation quantile of a sorted sample (q in [0, 1]).
double quantile(const std::vector<double>& sorted, double q);

/// The tail percentile a sample of `count` values supports: the highest
/// q <= `wanted` that still leaves at least 10 samples beyond it, i.e.
/// min(wanted, 1 - 10 / count). 0 when count < 11 (no tail at all).
double supported_tail(std::size_t count, double wanted = 0.99);

/// Median and supported tail of a latency sample, with its size.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< the percentile `tail` reports (0.99 at best)
  double tail = 0.0;
};

/// Log-bucketed latency histogram: bounded memory whatever the request
/// count (so the generator's footprint never tracks throughput in
/// peak_rss_mb), quantiles within kRelativeError of the sample's.
class LatencyHistogram {
 public:
  static constexpr double kMinMs = 1e-4;         ///< 100 ns
  static constexpr double kRelativeError = 0.005;
  static constexpr std::size_t kBuckets = 2400;  ///< 1% wide, to ~2e6 ms

  LatencyHistogram() : counts_(kBuckets, 0) {}
  void record(double ms);
  void merge(const LatencyHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Value at quantile q: the geometric centre of the bucket holding
  /// that rank (the sample's quantile to within kRelativeError).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] LatencySummary summary() const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
};

/// Latency of a timed phase kept per slice: one slice per tick of the
/// phase (kTickSeconds, harness.hpp), each answer filed by when it
/// arrived. Its median is the mean of the slices' medians. On a shared
/// host whose speed flips between two levels for seconds at a time, the
/// latency distribution has one mode per level, and the median of the
/// whole phase (or of the slices' medians) jumps between them as their
/// shares pass 50%; this one moves in proportion to the time spent at
/// each level, as throughput and CPU per request do.
class SlicedLatency {
 public:
  /// Files `ms` under `slice`; slices are created as they are named.
  void record(std::size_t slice, double ms);
  void merge(const SlicedLatency& other);
  /// Median of each slice holding answers, in time order.
  [[nodiscard]] std::vector<double> slice_p50s() const;
  /// Mean of slice_p50s() (0 when no slice holds answers).
  [[nodiscard]] double mean_p50() const;
  /// Mean of the p99s of windows of consecutive slices, each window the
  /// fewest slices holding at least kTailSamples answers (10 beyond its
  /// p99), a short remainder joining the last window; nullopt when the
  /// whole sample is too small for one window.
  [[nodiscard]] std::optional<double> mean_p99() const;

  static constexpr std::uint64_t kTailSamples = 1000;

 private:
  std::vector<LatencyHistogram> slices_;
};

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

double geomean(const std::vector<double>& values);

/// Requests of one phase: sent, answered correctly, failed (typed error,
/// wrong answer or closed connection), failures by reason.
struct PhaseAccount {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::uint64_t> failures;  ///< reason -> count

  void fail(const std::string& reason, std::uint64_t n = 1) {
    failed += n;
    failures[reason] += n;
  }
  void merge(const PhaseAccount& other);
  /// Wrong answers move from succeeded to failed under "wrong_answer".
  void wrong_answers(std::uint64_t n);
};
/// One JSON object per phase on one line.
void print_phase(std::ostream& out, const std::string& phase,
                 const PhaseAccount& account);

/// One span: a timed call the benchmark made into one layer. Times are
/// nanoseconds since the recorder's origin.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0; ///< the request the span belongs to
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  const char* name = "";     ///< "<layer>.<what>", static storage
};

/// Spans of one thread, capped; merged by SpanLog once the thread ends.
class SpanBuffer {
 public:
  SpanBuffer(std::uint32_t thread, Clock::time_point origin,
             std::size_t cap)
      : thread_(thread), origin_(origin), cap_(cap) {}

  /// Opens a span starting at `start` and returns its id (0 when over
  /// the cap; close(0, ...) is a no-op).
  std::uint64_t open(const char* name, std::uint64_t request,
                     std::uint64_t parent, Clock::time_point start);
  void close(std::uint64_t id, Clock::time_point end);
  /// open + close for a span whose bounds the caller already measured.
  std::uint64_t add(const char* name, std::uint64_t request,
                    std::uint64_t parent, Clock::time_point start,
                    Clock::time_point end) {
    const std::uint64_t id = open(name, request, parent, start);
    close(id, end);
    return id;
  }

  [[nodiscard]] std::vector<Span>& spans() { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint64_t ns(Clock::time_point t) const;
  std::uint32_t thread_;
  Clock::time_point origin_;
  std::size_t cap_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::size_t cap_per_thread = 1 << 17)
      : origin_(Clock::now()), cap_(cap_per_thread) {}

  [[nodiscard]] SpanBuffer buffer() {
    return SpanBuffer(next_thread_++, origin_, cap_);
  }
  void absorb(SpanBuffer& buffer);

  /// Self time per layer (the name's prefix before '.'): each span's
  /// duration minus the part of it covered by its children, summed.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// One JSON object per span and line.
  void write_jsonl(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  Clock::time_point origin_;
  std::size_t cap_;
  std::uint32_t next_thread_ = 1;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace e2ebench
