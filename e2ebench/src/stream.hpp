#pragma once
// Seeded request streams of the three benchmark workloads. Everything
// here is a pure function of (seed, connection, index): the same seed
// yields a byte-identical stream, and the server under test only ever
// sees the generated request bytes. The hot and routed key pools are
// fixed; the seed picks the order requests name them in, and every
// fresh tree.
//
//   hot-v3       64 keys (8 synthetic:500 trees x 8 p, ParInnerFirst),
//                pipelined v3 batches of kHotBatch per connection
//   cold-roster  fresh synthetic/grid assembly trees (n ~ 1k-4k), each
//                requested once per roster algorithm at p in {2, 8, 32}
//                (sequential-only algorithms at one p), text v2 with id=
//   routed-text  a 256-key pool (32 synthetic:500 trees x 8 p) plus one
//                fresh synthetic:200 tree in kRoutedFreshEvery requests,
//                text v2 batch=1 through the cluster router

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace e2ebench {

enum class Workload { kHotV3, kColdRoster, kRoutedText };

std::optional<Workload> parse_workload(std::string_view name);
const char* to_string(Workload w);

// --- tunables, each with its reason ----------------------------------

/// Pipelined requests per v3 batch frame on hot-v3.
inline constexpr std::size_t kHotBatch = 16;
/// Distinct hot-v3 trees and p values (8 x 8 = 64 keys).
inline constexpr std::size_t kHotTrees = 8;
inline constexpr std::size_t kHotProcs = 8;
inline constexpr int kHotTreeN = 500;
/// Requests pre-encoded per hot-v3 connection and then cycled; a cycle
/// covers every key many times, and the generator never builds a string
/// inside the timed loop.
inline constexpr std::size_t kHotCycle = 4096;

/// Requests each cold-roster connection keeps outstanding. Two
/// connections x 8 keep more requests admitted than a 4-worker pool can
/// run, so the admission queue is never empty.
inline constexpr std::size_t kColdWindow = 8;
/// Processor counts every parallel algorithm is requested at.
inline constexpr int kColdProcs[] = {2, 8, 32};
/// Tree-size range of cold-roster synthetic trees (inclusive).
inline constexpr int kColdMinN = 1000;
inline constexpr int kColdMaxN = 4000;
/// One tree in kColdGridEvery is a 2D-grid assembly tree while unused
/// (nx, z) pairs remain; grid specs carry no seed, so each is used once.
inline constexpr std::uint64_t kColdGridEvery = 8;
/// Trees per connection whose answers feed the quality ratios: enough
/// trees that the ratios vary little from seed to seed, few enough that
/// every run completes them in its first seconds.
inline constexpr std::uint64_t kColdPrefixTrees = 24;
/// Warm-up trees of cold-roster's set-up (every roster algorithm at
/// every cold p): enough fixed compute that setup_s is not dominated by
/// scheduling jitter.
inline constexpr std::uint64_t kColdWarmTrees = 6;
inline constexpr int kColdWarmN = 900;

/// routed-text pool: 32 trees x 8 p = 256 warmed keys.
inline constexpr std::size_t kRoutedTrees = 32;
inline constexpr std::size_t kRoutedProcs = 8;
inline constexpr int kRoutedTreeN = 500;
/// One request in this many names a fresh small tree.
inline constexpr std::uint64_t kRoutedFreshEvery = 16;
inline constexpr int kRoutedFreshN = 200;

/// One request's identity: what the server caches on.
struct Key {
  std::string spec;
  std::string algo;
  int p = 1;
  bool operator==(const Key&) const = default;
};

/// "<spec> <algo> <p> id=<id>" — the v2 request grammar, also the
/// payload of a v3 request frame.
std::string request_line(const Key& key, std::uint64_t id);

/// One algorithm of the campaign roster.
struct RosterAlgo {
  std::string name;
  bool sequential_only = false;
};

/// The roster as the registry reports it (default_campaign_algorithms()).
std::vector<RosterAlgo> campaign_roster();

/// 64-bit mixer (splitmix64 finalizer) used for every seeded choice.
std::uint64_t mix(std::uint64_t x);

/// The algorithm an injected faulty request names.
inline constexpr const char* kUnknownAlgo = "NoSuchAlgorithm";

// --- cold-roster ------------------------------------------------------

class ColdRoster {
 public:
  ColdRoster(std::uint64_t seed, std::vector<RosterAlgo> roster,
             std::size_t connections);

  /// Requests per tree (parallel algorithms x kColdProcs, plus one per
  /// sequential-only algorithm).
  [[nodiscard]] std::size_t per_tree() const { return slots_.size(); }
  /// Request `i` of connection `conn`.
  [[nodiscard]] Key key(std::size_t conn, std::uint64_t i) const;
  /// Global tree index of request `i` on connection `conn`.
  [[nodiscard]] std::uint64_t tree_index(std::size_t conn,
                                         std::uint64_t i) const;
  /// Spec of global tree `t`.
  [[nodiscard]] std::string tree_spec(std::uint64_t t) const;
  /// Requests per connection in the quality-ratio prefix.
  [[nodiscard]] std::uint64_t prefix_requests() const {
    return kColdPrefixTrees * per_tree();
  }
  /// Warm-up keys: every roster algorithm at every cold p on
  /// kColdWarmTrees fixed trees no timed request names.
  [[nodiscard]] std::vector<Key> warmup_keys() const;

 private:
  struct Slot {
    std::size_t algo;
    int p;
  };
  std::uint64_t seed_;
  std::vector<RosterAlgo> roster_;
  std::size_t connections_;
  std::vector<Slot> slots_;
  /// Seeded permutation of the (nx, z) grid pairs whose trees have
  /// n in [kColdMinN, kColdMaxN].
  std::vector<std::pair<int, int>> grid_pairs_;
};

// --- every workload's requests ---------------------------------------

/// One generated request.
struct Request {
  Key key;
  std::uint64_t id = 0;  ///< its id= tag
  /// Index into RequestStream::pool() of a pool key; empty for a fresh
  /// tree.
  std::optional<std::size_t> pool_index;
  bool injected = false;  ///< names kUnknownAlgo (fault injection)
};

/// The one generator of a workload's requests: the timed loops, the
/// answer checks, the ledger and the determinism test all read their
/// requests (and hot-v3 its frames) from here.
class RequestStream {
 public:
  /// `inject_every` > 0 turns every such request into one naming
  /// kUnknownAlgo (the benchmark's own tests use it).
  RequestStream(Workload w, std::uint64_t seed, std::size_t connections,
                std::uint64_t inject_every = 0);

  [[nodiscard]] Workload workload() const { return workload_; }
  /// Request `i` of connection `conn` in phase `phase` (0..3; on
  /// routed-text distinct phases name disjoint fresh trees).
  [[nodiscard]] Request at(std::size_t conn, std::uint64_t i,
                           int phase = 0) const;
  /// at(conn, i, phase) in the v2 request grammar.
  [[nodiscard]] std::string line(std::size_t conn, std::uint64_t i,
                                 int phase = 0) const;
  /// hot-v3: the kHotCycle / kHotBatch v3 batch frames connection `conn`
  /// sends, cycling; frame b carries requests b*kHotBatch onwards.
  [[nodiscard]] std::vector<std::string> hot_frames(std::size_t conn) const;
  /// The fixed key pool of hot-v3 and routed-text, tree-major; empty on
  /// cold-roster.
  [[nodiscard]] const std::vector<Key>& pool() const { return pool_; }
  /// cold-roster's tree sequence; null on the other workloads.
  [[nodiscard]] const ColdRoster* roster() const {
    return roster_ ? &*roster_ : nullptr;
  }
  /// Keys the set-up warms: the pool, or cold-roster's warm-up keys.
  [[nodiscard]] std::vector<Key> warm_keys() const;

 private:
  Workload workload_;
  std::uint64_t seed_;
  std::uint64_t inject_every_;
  std::vector<Key> pool_;
  std::optional<ColdRoster> roster_;
};

/// The first `count` requests of connection `conn` exactly as the
/// benchmark puts them on the wire: hot-v3's batch frames (rounded up to
/// whole frames), text lines otherwise.
std::string stream_bytes(const RequestStream& stream, std::size_t conn,
                         std::uint64_t count);

}  // namespace e2ebench
