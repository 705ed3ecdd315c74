// End-to-end benchmark of the scheduling service: one workload per run,
// driven from this process against the real net::Server / cluster::Router
// over loopback. Prints the run's context, its phase accounting and its
// metrics with units, then — as the last line — one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   e2ebench --workload hot-v3 --seed 1 --seconds 10 --trace 0
//   e2ebench --workload cold-roster --seed 7 --seconds 10 --trace 1
//            --spans-out spans.jsonl
//
// Normally started by run.py, which builds it first.

#include <charconv>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2ebench;

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "e2ebench: " << error
            << "\nusage: e2ebench --workload hot-v3|cold-roster|routed-text "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH] "
               "[--git-rev REV]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_rev = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage("unknown workload " + value);
        options.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--spans-out") {
        options.spans_out = value;
      } else if (flag == "--git-rev") {
        git_rev = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  // Before any thread starts, so that every thread inherits it.
  if (runs_on_one_cpu(options.workload)) options.cpus = confine_to_one_cpu();
  std::string cpus = "null";
  if (!options.cpus.empty()) {
    cpus.clear();
    for (int cpu : options.cpus) {
      cpus += (cpus.empty() ? "[" : ", ") + std::to_string(cpu);
    }
    cpus += "]";
  }

  std::cout << "{\"run_info\": {\"workload\": \"" << to_string(options.workload)
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"connections\": " << connections(options.workload)
            << ", \"one_cpu_rotating_over\": " << cpus
            << ", \"compiler\": \"" << json_escape(
#if defined(__clang__)
                   std::string("clang ") + __clang_version__
#elif defined(__GNUC__)
                   std::string("gcc ") + __VERSION__
#else
                   std::string("unknown")
#endif
                   )
            << "\", \"build_type\": \"" << E2EBENCH_BUILD_TYPE
            << "\", \"git_revision\": \"" << json_escape(git_rev)
            << "\", \"servers_in_process\": true}}\n";

  Report report;
  try {
    report = run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }

  for (const std::string& note : report.notes) std::cout << "# " << note << "\n";
  for (const auto& [phase, account] : report.phases) {
    print_phase(std::cout, phase, account);
  }
  for (const Metric& m : report.metrics) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fflush(stdout);

  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
