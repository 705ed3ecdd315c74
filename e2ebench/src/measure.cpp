#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace e2ebench {

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double supported_tail(std::size_t count, double wanted) {
  if (count < 11) return 0.0;
  return std::min(wanted, 1.0 - 10.0 / static_cast<double>(count));
}

void LatencyHistogram::record(double ms) {
  std::size_t bucket = 0;
  if (ms > kMinMs) {
    bucket = static_cast<std::size_t>(std::log(ms / kMinMs) /
                                      std::log1p(2 * kRelativeError));
  }
  ++counts_[std::min(bucket, kBuckets - 1)];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  // The epsilon keeps q = 1 - 10/n from rounding up past rank n - 10.
  const auto rank = static_cast<std::uint64_t>(std::ceil(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count_) - 1e-9));
  std::uint64_t seen = 0;
  std::size_t bucket = 0;
  for (; bucket < kBuckets; ++bucket) {
    seen += counts_[bucket];
    if (seen >= std::max<std::uint64_t>(rank, 1)) break;
  }
  const double growth = std::log1p(2 * kRelativeError);
  return kMinMs * std::exp((static_cast<double>(bucket) + 0.5) * growth);
}

LatencySummary LatencyHistogram::summary() const {
  LatencySummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.p50 = quantile(0.5);
  s.tail_q = supported_tail(count_);
  s.tail = quantile(s.tail_q);
  return s;
}

void SlicedLatency::record(std::size_t slice, double ms) {
  if (slice >= slices_.size()) slices_.resize(slice + 1);
  slices_[slice].record(ms);
}

void SlicedLatency::merge(const SlicedLatency& other) {
  if (other.slices_.size() > slices_.size()) {
    slices_.resize(other.slices_.size());
  }
  for (std::size_t i = 0; i < other.slices_.size(); ++i) {
    slices_[i].merge(other.slices_[i]);
  }
}

std::vector<double> SlicedLatency::slice_p50s() const {
  std::vector<double> out;
  for (const LatencyHistogram& slice : slices_) {
    if (slice.count() > 0) out.push_back(slice.quantile(0.5));
  }
  return out;
}

double SlicedLatency::mean_p50() const {
  const std::vector<double> p50s = slice_p50s();
  if (p50s.empty()) return 0.0;
  double sum = 0.0;
  for (double v : p50s) sum += v;
  return sum / static_cast<double>(p50s.size());
}

std::optional<double> SlicedLatency::mean_p99() const {
  std::vector<double> p99s;
  LatencyHistogram window;
  LatencyHistogram last;  // the last full window, to take a remainder
  for (const LatencyHistogram& slice : slices_) {
    window.merge(slice);
    if (window.count() >= kTailSamples) {
      p99s.push_back(window.quantile(0.99));
      last = window;
      window = LatencyHistogram();
    }
  }
  if (p99s.empty()) return std::nullopt;
  if (window.count() > 0) {
    last.merge(window);
    p99s.back() = last.quantile(0.99);
  }
  double sum = 0.0;
  for (double v : p99s) sum += v;
  return sum / static_cast<double>(p99s.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void PhaseAccount::merge(const PhaseAccount& other) {
  sent += other.sent;
  succeeded += other.succeeded;
  failed += other.failed;
  for (const auto& [reason, n] : other.failures) failures[reason] += n;
}

void PhaseAccount::wrong_answers(std::uint64_t n) {
  if (n == 0) return;
  succeeded -= std::min(n, succeeded);
  fail("wrong_answer", n);
}

void print_phase(std::ostream& out, const std::string& phase,
                 const PhaseAccount& account) {
  out << "{\"phase\": \"" << phase << "\", \"sent\": " << account.sent
      << ", \"succeeded\": " << account.succeeded
      << ", \"failed\": " << account.failed << ", \"failures\": {";
  bool first = true;
  for (const auto& [reason, n] : account.failures) {
    out << (first ? "" : ", ") << '"' << reason << "\": " << n;
    first = false;
  }
  out << "}}\n";
}

// --- spans --------------------------------------------------------------

std::uint64_t SpanBuffer::ns(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count());
}

std::uint64_t SpanBuffer::open(const char* name, std::uint64_t request,
                               std::uint64_t parent,
                               Clock::time_point start) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.id = (static_cast<std::uint64_t>(thread_) << 40) | (spans_.size() + 1);
  s.parent = parent;
  s.request = request;
  s.start_ns = ns(start);
  s.end_ns = s.start_ns;
  s.name = name;
  spans_.push_back(s);
  return s.id;
}

void SpanBuffer::close(std::uint64_t id, Clock::time_point end) {
  if (id == 0) return;
  const std::size_t index = (id & ((std::uint64_t{1} << 40) - 1)) - 1;
  spans_[index].end_ns = ns(end);
}

void SpanLog::absorb(SpanBuffer& buffer) {
  spans_.insert(spans_.end(), buffer.spans().begin(), buffer.spans().end());
  dropped_ += buffer.dropped();
  buffer.spans().clear();
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self_ms;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (const Span& s : spans_) {
    std::uint64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent: the
      // children of one batch span overlap each other.
      cover.clear();
      for (const Span* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        const std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      std::uint64_t reach = 0;
      for (const auto& [lo, hi] : cover) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
    }
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] +=
        static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  return self_ms;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
}

}  // namespace e2ebench
