#pragma once

// Shared harness glue for the Table III-VI benches: builds the experiment
// (data + trained models), runs encrypted evaluation on a backend, and
// renders rows in the paper's format.

#include <algorithm>
#include <cstdio>
#include <string>

#include "ckks/security.hpp"
#include "common/cli.hpp"
#include "common/fault.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "core/pipeline.hpp"

namespace pphe::benchutil {

inline void print_header(const char* table_name, const ExperimentConfig& cfg) {
  std::printf("%s\n", table_name);
  const CkksParams params = cfg.ckks_params();
  std::printf("profile: %s | %s\n", cfg.paper_profile ? "PAPER" : "fast",
              params.describe().c_str());
  std::printf("%s\n", describe_security(params).c_str());
  if (!cfg.isa.empty()) {
    std::printf("math kernels: %s (override with --force-isa)\n",
                cfg.isa.c_str());
  }
  std::printf("latency columns: Lat = measured eval wall-clock on a "
              "%zu-thread pool\n\n",
              std::max<std::size_t>(1, ThreadPool::global().size()));
  if (!cfg.trace_out.empty()) {
    trace::set_enabled(true);
    std::printf("[trace] recording homomorphic-op spans -> %s\n\n",
                cfg.trace_out.c_str());
  }
  if (fault::armed()) {
    // --faults=<spec> was parsed by ExperimentConfig::from_flags; numbers
    // below are chaos-mode numbers, not clean measurements.
    std::printf("[faults] WARNING: fault injection armed (%s) — results are "
                "not comparable to clean runs\n\n",
                cfg.faults.c_str());
  }
}

/// End-of-run hook: writes cfg.trace_out (if set) as Chrome trace-event JSON
/// and prints the per-op latency histograms. Returns false on write failure
/// so mains can fold it into their exit status.
inline bool finish_trace(const ExperimentConfig& cfg) {
  return finish_tracing(cfg.trace_out);
}

/// One measured row of a Table III/V-style comparison.
struct Row {
  std::string model_name;
  double train_acc = 0.0;
  EncryptedEvalResult eval;
};

inline void print_rows(const std::vector<Row>& rows) {
  TextTable table({"Model", "Training Acc (%)", "Lat min", "Lat max",
                   "Lat avg", "Acc (%)", "HE=plain (%)",
                   "max logit err"});
  for (const auto& row : rows) {
    table.add_row({row.model_name, TextTable::fixed(row.train_acc, 3),
                   TextTable::fixed(row.eval.eval_latency.min(), 2),
                   TextTable::fixed(row.eval.eval_latency.max(), 2),
                   TextTable::fixed(row.eval.eval_latency.avg(), 2),
                   TextTable::fixed(row.eval.spec_accuracy, 2),
                   TextTable::fixed(row.eval.match_rate, 1),
                   TextTable::fixed(row.eval.max_logit_err, 4)});
  }
  std::printf("%s", table.render().c_str());
}

inline void print_speedup(const Row& baseline, const Row& rns) {
  const double gain = 100.0 * (1.0 - rns.eval.eval_latency.avg() /
                                         baseline.eval.eval_latency.avg());
  std::printf("\nspeed-up of %s over %s: %.2f%%\n", rns.model_name.c_str(),
              baseline.model_name.c_str(), gain);
}

}  // namespace pphe::benchutil
