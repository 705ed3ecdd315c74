#pragma once
// Runs one workload end to end against the real net::Server /
// cluster::Router over loopback, in this process, and checks every
// answer against a direct registry + simulate() call.
//
// Untraced run (trace = false): set-up is repeated kSetupRepeats times
// (setup_s is their median), then one closed-loop timed phase yields the
// end-to-end metrics. Traced run (trace = true): one set-up, an
// untraced phase and a traced phase of half the time each (routed-text
// adds a direct phase that bypasses the router), then the per-layer
// ledger: calls into each module's public functions timed from here,
// plus the counters the program exports.

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"
#include "stream.hpp"

namespace e2ebench {

/// Set-ups per untraced run; setup_s reports their median.
inline constexpr int kSetupRepeats = 5;

struct Options {
  Workload workload = Workload::kHotV3;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced run: where to write the spans (empty = keep them in memory).
  std::string spans_out;
  /// Fault injection for the benchmark's own tests: every Nth timed
  /// request names an algorithm the registry does not know (0 = off).
  std::uint64_t inject_unknown_every = 0;
  /// One-CPU workloads: the CPUs confine_to_one_cpu() returned. With two
  /// or more, a CpuRotation moves the process on before each set-up and
  /// at every tick of a timed phase (else it stays put).
  std::vector<int> cpus;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< measured phases only
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, PhaseAccount>> phases;
  std::vector<std::string> notes;  ///< human-readable context lines
};

Report run_workload(const Options& options);

/// Load-generator connections of a workload (at most one per CPU).
std::size_t connections(Workload w);

/// Whether a workload's whole process (generator, I/O threads, router,
/// compute pool) runs on one CPU at a time. hot-v3 and routed-text are
/// closed-loop hand-offs between threads; on a virtual machine every
/// cross-CPU wake-up costs tens of microseconds and swings with the
/// host's load, so on one CPU they measure the request path's own cost.
/// That CPU changes before each set-up and at every tick (CpuRotation):
/// a host neighbour can slow one vCPU by ~1.5x for seconds to minutes,
/// and a run that stayed on it would read that vCPU's luck rather than
/// the program. cold-roster needs the pool's width.
bool runs_on_one_cpu(Workload w);

/// Length of a tick of a timed phase: the latency metrics average
/// quantiles taken per tick (p50) or per window of ticks (p99), and a
/// one-CPU workload moves to its next CPU at every tick.
inline constexpr double kTickSeconds = 1.0;

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the last CPU it may use: call it before any thread starts. Returns
/// every CPU it may use, that one first (empty when the affinity could
/// not be read or set).
std::vector<int> confine_to_one_cpu();

/// Moves every thread of this process onto `cpu`.
void move_process_to(int cpu);

/// Walks a one-CPU process round the CPUs it may use, so that a run
/// reads every CPU's share of the host's load rather than one CPU's luck.
class CpuRotation {
 public:
  /// `cpus` as confine_to_one_cpu() returns them, the current one first.
  explicit CpuRotation(std::vector<int> cpus);
  /// Moves every thread to the next CPU; returns it.
  int next();

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

}  // namespace e2ebench
