// Parameter-tuning walkthrough: how ring degree, chain length and branch
// count trade off security, precision and latency. This is the exploration a
// deployment would run before fixing its Table II equivalent.

#include <cmath>
#include <cstdio>

#include "ckks/security.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"

using namespace pphe;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  cfg.train_size = static_cast<std::size_t>(flags.get_int("train-size", 2000));
  cfg.he_samples = static_cast<std::size_t>(flags.get_int("samples", 1));

  std::printf("== moduli & branch tuning walkthrough ==\n\n");

  // 1. What the HE standard allows.
  std::printf("step 1: pick N from the security budget (lambda=128):\n");
  TextTable sec({"N", "max log q", "CNN1 fits (needs ~300 bits)?"});
  for (const std::size_t n : {4096u, 8192u, 16384u, 32768u}) {
    const int bound = he_standard_max_log_q(n, 128);
    sec.add_row({std::to_string(n), std::to_string(bound),
                 bound >= 300 ? "yes" : "no"});
  }
  std::printf("%s\n", sec.render().c_str());
  std::printf("-> N = 16384 is the smallest secure ring for the CNN1/CNN2 "
              "chains; the paper's Table II choice.\n\n");

  // 2. Chain-length planner: what Delta survives a given chain length.
  std::printf("step 2: scale the chain to the model depth (CNN1 depth 9):\n");
  TextTable chain({"chain length", "prime bits", "Delta", "precision bits"});
  for (const std::size_t k : {4u, 6u, 8u, 10u, 12u}) {
    const CkksParams p = CkksParams::with_chain_length(k, 1 << 13, 9);
    chain.add_row({std::to_string(k), std::to_string(p.q_bit_sizes[1]),
                   "2^" + TextTable::fixed(std::log2(p.scale), 0),
                   TextTable::fixed(std::log2(p.scale), 0)});
  }
  std::printf("%s\n", chain.render().c_str());

  // 3. Branch count: measured effect on one encrypted inference.
  std::printf("step 3: measure the Fig. 5 branch count on CNN1 (1 sample "
              "each):\n");
  Experiment exp(cfg);
  const ModelSpec spec = exp.spec(Arch::kCnn1, Activation::kSlaf);
  auto backend = make_backend("rns", cfg.ckks_params());
  TextTable branches({"k", "Lat (s)", "HE=plain (%)"});
  for (const std::size_t k : {1u, 3u, 6u}) {
    HeModelOptions options;
    options.encrypted_weights = false;
    options.rns_branches = k;
    const EncryptedEvalResult r =
        run_encrypted_eval(*backend, spec, options, exp.test_set(), cfg);
    branches.add_row({std::to_string(k),
                      TextTable::fixed(r.eval_latency.avg(), 2),
                      TextTable::fixed(r.match_rate, 1)});
  }
  std::printf("%s\n", branches.render().c_str());
  std::printf("-> each branch repeats the linear stages one after another, "
              "so latency grows with k; the paper (§VI) runs branches on "
              "separate cores.\n");
  return 0;
}
