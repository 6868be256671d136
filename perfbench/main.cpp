// End-to-end benchmark program for encrypted CNN inference.
//
//   perfbench --workload <cnn1-enc|cnn2-enc|cnn1-serve> --seed <n>
//             --seconds <s> --trace <0|1> --cache-dir <dir>
//
// Prints one context line ({"context": {...}}) and, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any reply is wrong or any request fails.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "ckks/params.hpp"
#include "common/thread_pool.hpp"
#include "math/hal/hal.hpp"

namespace {

using namespace perfbench;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::stoull(val);
    } else if (key == "--seconds") {
      args.seconds = std::stod(val);
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--cache-dir") {
      args.cache_dir = val;
    } else {
      throw std::runtime_error("unknown flag " + key);
    }
  }
  if (args.cache_dir.empty()) throw std::runtime_error("--cache-dir is required");
  return args;
}

/// Aggregate "cpu" jiffies from /proc/stat: {steal, total}.
std::pair<double, double> cpu_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);

    const auto [steal0, total0] = cpu_jiffies();
    RunResult r;
    if (args.workload == "cnn1-enc") {
      r = run_enc(pphe::Arch::kCnn1, args);
    } else if (args.workload == "cnn2-enc") {
      r = run_enc(pphe::Arch::kCnn2, args);
    } else if (args.workload == "cnn1-serve") {
      r = run_serve(args);
    } else {
      throw std::runtime_error("unknown workload '" + args.workload + "'");
    }
    const auto [steal1, total1] = cpu_jiffies();

    pphe::CkksParams params = pphe::CkksParams::fast_profile();
    std::ostringstream ctx;
    ctx << "{\"context\": {\"workload\": " << quoted(args.workload)
        << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"pool_threads\": " << pphe::ThreadPool::global().size()
        << ", \"isa\": "
        << quoted(pphe::hal::isa_name(pphe::hal::active_isa()))
        << ", \"ckks\": " << quoted(params.describe())
        << ", \"steal_frac\": "
        << json_number(total1 > total0 ? (steal1 - steal0) / (total1 - total0)
                                  : 0.0);
    for (const auto& [key, value] : r.context) {
      ctx << ", " << quoted(key) << ": " << value;
    }
    ctx << "}}";
    std::printf("%s\n", ctx.str().c_str());

    const Metrics& m = args.trace ? r.per_layer : r.end_to_end;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                r.correct ? "true" : "false", r.attempted, r.failed,
                m.json().c_str());
    std::fflush(stdout);
    return r.correct && r.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
