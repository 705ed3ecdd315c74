#pragma once
// Metrics registry (src/obs/): named counters, gauges, and fixed-bucket
// histograms with cheap hot-path updates, snapshotable without stopping
// the world.
//
// Hot-path contract: Counter::inc and Histogram::record are relaxed
// atomic adds — no locks, no allocation, safe from any thread including
// the server's I/O thread and pool workers. Histograms shard their
// bucket arrays by thread so concurrent recorders don't fight over one
// cache line; shards merge at snapshot time.
//
// Value domain: histograms store unsigned integers (nanoseconds for
// latency, bytes for memory) and keep *exact* integer sums, so derived
// means compose — the sum of per-stage means equals the end-to-end mean
// when the stages partition the interval. `scale` only applies at
// export time (ns -> seconds for Prometheus).
//
// The registry hands out node-stable references: a `Counter&` obtained
// once may be cached and hammered forever. Legacy stats structs
// (CacheStats, QueueStats, SessionCounters, ...) are bridged by
// *collectors* — callbacks that append samples to a snapshot — so the
// existing accessors stay the source of truth and nothing is counted
// twice. Collectors run under the registry mutex; they must only read
// atomics or otherwise thread-safe state.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace treesched::obs {

/// Monotonic clock, nanoseconds. The one timestamp source for stage
/// stamps, histograms, and trace spans, so intervals subtract cleanly.
std::uint64_t now_ns() noexcept;

/// Sliding-window geometry shared by windowed histograms and counters:
/// a ring of epoch-tagged sub-windows merged at read time, covering the
/// most recent ~minute (12 x 5 s). A recorder claims its epoch's slot by
/// CAS and zeroes it before adding; records racing the zeroing at an
/// epoch boundary can be lost from the WINDOW view (never from the
/// lifetime view) — the window is an estimate by design, fully atomic so
/// the hot path takes no lock and stays TSan-clean.
inline constexpr unsigned kWindowSlots = 12;
inline constexpr std::uint64_t kWindowPeriodNs = 5'000'000'000ULL;

/// Monotonically increasing count. Padded to a cache line so adjacent
/// registry entries don't false-share.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time signed value (queue depth, bytes resident).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::int64_t> v_{0};
};

/// Merged view of one histogram: cumulative-free bucket counts plus the
/// exact integer sum/count. Quantiles interpolate linearly inside the
/// winning bucket (the standard Prometheus estimate).
struct HistogramSnapshot {
  std::vector<std::uint64_t> bounds;  ///< inclusive upper bounds, sorted
  std::vector<std::uint64_t> counts;  ///< bounds.size()+1; last = overflow
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  /// q in [0,1]; returns a value in the histogram's raw unit. Overflow
  /// quantiles clamp to the largest finite bound (nothing better is
  /// known about them).
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram over unsigned integers. Buckets are chosen at
/// construction and never change; record() is a binary search plus
/// relaxed adds into a per-thread shard — once into the lifetime arrays
/// (monotonic, what Prometheus `_bucket`/`_sum`/`_count` export) and
/// once into the current epoch's window slot, so windowed_snapshot()
/// can answer "the last minute" without lifetime staleness.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void record(std::uint64_t v) noexcept { record_at(v, now_ns()); }
  /// Timestamp-injected record, for deterministic window tests.
  void record_at(std::uint64_t v, std::uint64_t now) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  /// Merged view of the sub-windows still inside the sliding window at
  /// `now` (kWindowSlots x kWindowPeriodNs). Approximate at epoch
  /// boundaries; exact whenever no recorder races the read.
  [[nodiscard]] HistogramSnapshot windowed_snapshot() const {
    return windowed_snapshot_at(now_ns());
  }
  [[nodiscard]] HistogramSnapshot windowed_snapshot_at(
      std::uint64_t now) const;
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const {
    return bounds_;
  }

  /// Log-spaced 1-2-5 latency bounds, 1us .. 10s, in nanoseconds.
  static const std::vector<std::uint64_t>& latency_bounds_ns();
  /// Power-of-4 byte bounds, 1KiB .. 16GiB.
  static const std::vector<std::uint64_t>& bytes_bounds();

 private:
  static constexpr unsigned kShards = 8;
  /// One sub-window of one shard. `epoch` stores epoch+1 (0 = never
  /// used) so a fresh slot can't masquerade as epoch 0's live data.
  struct Window {
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> sum{0};
    std::vector<std::atomic<std::uint64_t>> buckets;
  };
  struct Shard {
    alignas(64) std::atomic<std::uint64_t> sum{0};
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::vector<Window> windows;  ///< kWindowSlots, indexed epoch % slots
  };

  std::vector<std::uint64_t> bounds_;
  std::deque<Shard> shards_;
};

/// Windowed event counter: same epoch-tagged slot ring as the
/// histograms' window view, for rates that must reflect the last minute
/// (request and error counts feeding the SLO error-ratio gauges).
/// Lifetime totals belong in a Counter; this type only answers "how
/// many in the window".
class SlidingCounter {
 public:
  void inc(std::uint64_t n = 1) noexcept { add_at(n, now_ns()); }
  void add_at(std::uint64_t n, std::uint64_t now) noexcept;
  [[nodiscard]] std::uint64_t windowed() const noexcept {
    return windowed_at(now_ns());
  }
  [[nodiscard]] std::uint64_t windowed_at(std::uint64_t now) const noexcept;

 private:
  struct Slot {
    std::atomic<std::uint64_t> epoch{0};  ///< epoch+1; 0 = never used
    std::atomic<std::uint64_t> value{0};
  };
  Slot slots_[kWindowSlots];
};

enum class MetricKind { kCounter, kGauge };

/// One exported scalar. `labels` is the pre-rendered inner label string
/// (e.g. `class="interactive"`), empty for none. `stats_key` is the
/// short key used by the `stats` control verb; empty means the sample
/// only appears in the Prometheus exposition.
struct MetricSample {
  std::string name;
  std::string labels;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;
  std::string stats_key;
};

/// One exported histogram. `scale` converts the raw integer unit to the
/// exposition unit (1e-9 for ns -> seconds); stats-verb quantiles are
/// emitted in microseconds when scale == 1e-9, raw otherwise.
struct HistogramSample {
  std::string name;
  std::string labels;
  std::string help;
  double scale = 1.0;
  std::string stats_key;
  HistogramSnapshot snap;    ///< lifetime (monotonic _bucket/_sum/_count)
  HistogramSnapshot window;  ///< sliding last-minute view (quantiles)
};

struct RegistrySnapshot {
  std::vector<MetricSample> samples;
  std::vector<HistogramSample> histograms;

  /// Flattens every stats_key'd entry to the (key, integer) pairs the
  /// `stats` verb speaks: scalars as-is (gauges clamp at zero),
  /// histograms as the lifetime <key>_count, the sliding-window
  /// <key>_window_count, and <key>_p50/p90/p99 quantiles computed over
  /// the WINDOW (in microseconds for scale 1e-9, raw units otherwise) —
  /// summaries describe current behavior, not process history. An empty
  /// window falls back to lifetime quantiles so a quiet service still
  /// reports what it last did.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  stats_pairs() const;
};

/// Get-or-create by (name, labels); insertion order is preserved in
/// snapshots so exported text is stable run to run.
class MetricsRegistry {
 public:
  using Collector = std::function<void(RegistrySnapshot&)>;

  Counter& counter(const std::string& name, const std::string& labels,
                   const std::string& help, const std::string& stats_key = "");
  Gauge& gauge(const std::string& name, const std::string& labels,
               const std::string& help, const std::string& stats_key = "");
  Histogram& histogram(const std::string& name, const std::string& labels,
                       const std::string& help,
                       std::vector<std::uint64_t> bounds, double scale,
                       const std::string& stats_key = "");

  /// Collectors run first at snapshot time, in registration order —
  /// register the legacy bridge before creating owned metrics when the
  /// legacy keys must lead the stats line.
  void register_collector(Collector fn);

  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  struct CounterEntry {
    std::string name, labels, help, stats_key;
    Counter metric;
  };
  struct GaugeEntry {
    std::string name, labels, help, stats_key;
    Gauge metric;
  };
  struct HistogramEntry {
    std::string name, labels, help, stats_key;
    double scale;
    Histogram metric;
    HistogramEntry(std::vector<std::uint64_t> bounds, double s)
        : scale(s), metric(std::move(bounds)) {}
  };
  enum class Slot { kCounter, kGauge, kHistogram };

  mutable std::mutex mu_;
  std::deque<CounterEntry> counters_;
  std::deque<GaugeEntry> gauges_;
  std::deque<HistogramEntry> histograms_;
  std::vector<std::pair<Slot, std::size_t>> order_;
  std::map<std::string, std::pair<Slot, std::size_t>> index_;
  std::vector<Collector> collectors_;
};

}  // namespace treesched::obs
