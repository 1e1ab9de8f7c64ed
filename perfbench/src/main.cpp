// perfbench — the repository benchmark's workload driver.
//
//   perfbench --workload <rpc_mix|adapt_churn|replica_brownout> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.jsonl>]
//
// Prints diagnostic lines prefixed with '#', then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (see perfbench/NOTES.md). Exits non-zero without a result line on bad
// arguments or an unexpected exception.
#include <sched.h>

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "base/logging.h"
#include "common.h"

namespace {

bool parse_args(int argc, char** argv, perfbench::Options& options) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0 &&
                     options.seconds <= 120;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds && have_trace;
}

/// Confines the process, and every thread it creates later, to the CPU it
/// started on. On a shared VM a wakeup that crosses vCPUs waits for the
/// hypervisor to run the target vCPU, which made rpc_mix's ping-pong swing
/// 2-3x with the neighbours' load. On one vCPU a handoff is a context
/// switch, and stolen time slows the run in proportion, like any CPU work.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::cerr << "perfbench: could not pin to cpu " << cpu << "; running unpinned\n";
  }
}

std::string result_json(const perfbench::RunResult& result) {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "{\"correct\": " << (result.correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) os << ", ";
    first = false;
    // Names and units are fixed identifiers: nothing to escape.
    os << '"' << name << "\": {\"value\": " << metric.value << ", \"unit\": \""
       << metric.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!parse_args(argc, argv, options)) {
    std::cerr << "usage: perfbench --workload <rpc_mix|adapt_churn|replica_brownout> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  // Failover and strategy warnings are expected noise under churn; keep
  // stderr for real errors.
  adapt::set_log_level(adapt::LogLevel::Error);
  pin_to_current_cpu();

  perfbench::RunResult (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "rpc_mix") run = perfbench::run_rpc_mix;
  if (options.workload == "adapt_churn") run = perfbench::run_adapt_churn;
  if (options.workload == "replica_brownout") run = perfbench::run_replica_brownout;
  if (run == nullptr) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  try {
    const double ref_before = perfbench::reference_loop_ms();
    perfbench::RunResult result = run(options);
    const double ref_after = perfbench::reference_loop_ms();
    std::cout << "# reference_loop_ms before=" << ref_before << " after=" << ref_after
              << " (diagnostic only: machine speed beside this run)\n";
    for (const std::string& problem : result.problems) {
      std::cout << "# problem: " << problem << '\n';
    }
    if (options.trace) {
      // Every per-layer metric appears; layers a workload does not exercise
      // read 0.
      for (const auto& [name, unit] : perfbench::per_layer_metrics()) {
        if (result.metrics.count(name) == 0) result.set(name, 0.0, unit);
      }
    }
    std::cout << result_json(result) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
