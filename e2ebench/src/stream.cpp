#include "stream.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/frame.hpp"
#include "sched/registry.hpp"

namespace e2ebench {

namespace {

/// The eight processor counts of the hot and routed pools.
constexpr int kPoolProcs[] = {2, 3, 4, 6, 8, 12, 16, 32};
static_assert(std::size(kPoolProcs) == kHotProcs);
static_assert(std::size(kPoolProcs) == kRoutedProcs);
static_assert(kHotCycle % kHotBatch == 0);

/// Grid nx ranges whose assembly trees have n in [kColdMinN, kColdMaxN]:
/// n is about 0.72 nx^2 at amalgamation z=1 and 0.37 nx^2 at z=2.
constexpr int kGridNx[2][2] = {{38, 74}, {53, 104}};

std::string synthetic_spec(int n, std::uint64_t seed) {
  return "synthetic:" + std::to_string(n) + ":" + std::to_string(seed);
}

/// A seed-derived base for synthetic tree seeds; successive trees add
/// their index, so specs within one stream never repeat.
std::uint64_t spec_seed_base(std::uint64_t seed, std::uint64_t salt) {
  return mix(seed ^ salt) >> 24;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "hot-v3") return Workload::kHotV3;
  if (name == "cold-roster") return Workload::kColdRoster;
  if (name == "routed-text") return Workload::kRoutedText;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kHotV3:
      return "hot-v3";
    case Workload::kColdRoster:
      return "cold-roster";
    case Workload::kRoutedText:
      return "routed-text";
  }
  return "?";
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string request_line(const Key& key, std::uint64_t id) {
  std::string line;
  line.reserve(key.spec.size() + key.algo.size() + 24);
  line.append(key.spec).append(" ").append(key.algo).append(" ");
  line.append(std::to_string(key.p)).append(" id=");
  line.append(std::to_string(id));
  return line;
}

std::vector<RosterAlgo> campaign_roster() {
  const treesched::SchedulerRegistry& registry =
      treesched::SchedulerRegistry::instance();
  std::vector<RosterAlgo> roster;
  for (const std::string& name : treesched::default_campaign_algorithms()) {
    roster.push_back(
        {name, registry.create(name)->capabilities().sequential_only});
  }
  return roster;
}

// --- cold-roster ------------------------------------------------------

ColdRoster::ColdRoster(std::uint64_t seed, std::vector<RosterAlgo> roster,
                       std::size_t connections)
    : seed_(seed), roster_(std::move(roster)), connections_(connections) {
  if (connections_ == 0) throw std::invalid_argument("no connections");
  for (std::size_t a = 0; a < roster_.size(); ++a) {
    if (roster_[a].sequential_only) {
      slots_.push_back({a, kColdProcs[0]});
    } else {
      for (int p : kColdProcs) slots_.push_back({a, p});
    }
  }
  for (int zi = 0; zi < 2; ++zi) {
    for (int nx = kGridNx[zi][0]; nx <= kGridNx[zi][1]; ++nx) {
      grid_pairs_.emplace_back(nx, zi + 1);
    }
  }
  // Fisher-Yates under the seed: which grids appear, and in which order.
  for (std::size_t i = grid_pairs_.size(); i > 1; --i) {
    const std::size_t j = mix(seed_ ^ (0x9e1d + i)) % i;
    std::swap(grid_pairs_[i - 1], grid_pairs_[j]);
  }
}

std::uint64_t ColdRoster::tree_index(std::size_t conn,
                                     std::uint64_t i) const {
  return (i / slots_.size()) * connections_ + conn;
}

std::string ColdRoster::tree_spec(std::uint64_t t) const {
  if (t % kColdGridEvery == kColdGridEvery - 1 &&
      t / kColdGridEvery < grid_pairs_.size()) {
    const auto [nx, z] = grid_pairs_[t / kColdGridEvery];
    return "grid:" + std::to_string(nx) + ":" + std::to_string(z);
  }
  const std::uint64_t base = spec_seed_base(seed_, 0xc01d);
  const int n = kColdMinN +
                static_cast<int>(mix(base ^ (t * 0x51ed)) %
                                 static_cast<std::uint64_t>(
                                     kColdMaxN - kColdMinN + 1));
  return synthetic_spec(n, base + t);
}

Key ColdRoster::key(std::size_t conn, std::uint64_t i) const {
  const Slot& slot = slots_[i % slots_.size()];
  return {tree_spec(tree_index(conn, i)), roster_[slot.algo].name, slot.p};
}

std::vector<Key> ColdRoster::warmup_keys() const {
  std::vector<Key> keys;
  for (std::uint64_t k = 0; k < kColdWarmTrees; ++k) {
    // kColdWarmN lies below kColdMinN, so no timed spec can match these;
    // the trees do not depend on the seed, so every run warms up alike.
    const std::string spec = synthetic_spec(kColdWarmN, k);
    for (const Slot& slot : slots_) {
      keys.push_back({spec, roster_[slot.algo].name, slot.p});
    }
  }
  return keys;
}

// --- every workload's requests --------------------------------------

namespace {

/// Pool key `t` x kPoolProcs of `n`-node synthetic trees, tree-major.
std::vector<Key> synthetic_pool(std::size_t trees, int n) {
  std::vector<Key> keys;
  for (std::size_t t = 0; t < trees; ++t) {
    for (int p : kPoolProcs) {
      keys.push_back({synthetic_spec(n, t), "ParInnerFirst", p});
    }
  }
  return keys;
}

}  // namespace

RequestStream::RequestStream(Workload w, std::uint64_t seed,
                             std::size_t connections,
                             std::uint64_t inject_every)
    : workload_(w), seed_(seed), inject_every_(inject_every) {
  switch (w) {
    case Workload::kHotV3:
      pool_ = synthetic_pool(kHotTrees, kHotTreeN);
      break;
    case Workload::kColdRoster:
      roster_.emplace(seed, campaign_roster(), connections);
      break;
    case Workload::kRoutedText:
      pool_ = synthetic_pool(kRoutedTrees, kRoutedTreeN);
      break;
  }
}

Request RequestStream::at(std::size_t conn, std::uint64_t i,
                          int phase) const {
  Request r;
  r.id = i;
  switch (workload_) {
    case Workload::kHotV3: {
      // Each connection cycles through kHotCycle pre-encoded requests.
      r.id = i % kHotCycle;
      const std::size_t index =
          mix(seed_ ^ mix((static_cast<std::uint64_t>(conn) << 48) ^ r.id)) %
          pool_.size();
      r.key = pool_[index];
      r.pool_index = index;
      break;
    }
    case Workload::kColdRoster:
      r.key = roster_->key(conn, i);
      break;
    case Workload::kRoutedText: {
      const std::uint64_t h =
          mix(seed_ ^ mix((static_cast<std::uint64_t>(conn) << 48) ^ i ^
                          (static_cast<std::uint64_t>(phase) << 40)));
      if (h % kRoutedFreshEvery == 0) {
        // conn < 8 and phase < 4 fit the low five bits, so fresh specs
        // never repeat across connections, phases or requests of a run.
        const std::uint64_t s = (spec_seed_base(seed_, 0xf7e5) << 20) +
                                ((i << 5) | (conn << 2) |
                                 static_cast<std::uint64_t>(phase));
        r.key = {synthetic_spec(kRoutedFreshN, s), "ParInnerFirst",
                 kPoolProcs[i % kRoutedProcs]};
      } else {
        const std::size_t index = (h >> 8) % pool_.size();
        r.key = pool_[index];
        r.pool_index = index;
      }
      break;
    }
  }
  if (inject_every_ != 0 && r.id % inject_every_ == inject_every_ - 1) {
    r.key.algo = kUnknownAlgo;
    r.injected = true;
  }
  return r;
}

std::string RequestStream::line(std::size_t conn, std::uint64_t i,
                                int phase) const {
  const Request r = at(conn, i, phase);
  return request_line(r.key, r.id);
}

std::vector<std::string> RequestStream::hot_frames(std::size_t conn) const {
  std::vector<std::string> frames(kHotCycle / kHotBatch);
  std::vector<std::string> lines;
  for (std::size_t b = 0; b < frames.size(); ++b) {
    lines.clear();
    for (std::size_t k = 0; k < kHotBatch; ++k) {
      lines.push_back(line(conn, b * kHotBatch + k));
    }
    treesched::net::FrameWriter(frames[b]).batch(lines);
  }
  return frames;
}

std::vector<Key> RequestStream::warm_keys() const {
  return roster_ ? roster_->warmup_keys() : pool_;
}

// --- streams as bytes -------------------------------------------------

std::string stream_bytes(const RequestStream& stream, std::size_t conn,
                         std::uint64_t count) {
  std::string out;
  if (stream.workload() == Workload::kHotV3) {
    const std::vector<std::string> frames = stream.hot_frames(conn);
    for (std::uint64_t b = 0; b * kHotBatch < count; ++b) {
      out.append(frames[b % frames.size()]);
    }
    return out;
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    out.append(stream.line(conn, i)).push_back('\n');
  }
  return out;
}

}  // namespace e2ebench
