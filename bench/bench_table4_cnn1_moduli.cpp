// Reproduces TABLE IV: CNN1-HE-RNS latency across "moduli chain length"
// (= RNS input-decomposition branch count k of Fig. 5, the paper's
// "co-prime moduli" knob; see DESIGN.md §2 and EXPERIMENTS.md for why the
// scheme-chain reading of k cannot support the network's depth).
//
// Paper: Lat falls from 2.27 s (k=3) to 1.67 s (k=9), then rises to 1.74 s
// at k=10 — an optimum where per-branch overhead starts to dominate.

#include "bench_common.hpp"

using namespace pphe;
using namespace pphe::benchutil;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  if (!flags.has("samples")) cfg.he_samples = 3;
  print_header(
      "TABLE IV reproduction: CNN1-HE-RNS across moduli (branch) counts", cfg);

  Experiment exp(cfg);
  const ModelSpec spec = exp.spec(Arch::kCnn1, Activation::kSlaf);
  auto backend = make_backend("rns", cfg.ckks_params());

  const auto k_min = static_cast<std::size_t>(flags.get_int("k-min", 3));
  const auto k_max = static_cast<std::size_t>(flags.get_int("k-max", 10));

  TextTable table(
      {"Moduli chain length", "Lat (s)", "HE=plain (%)", "paper Lat (s)"});
  const char* paper[] = {"", "", "", "2.27", "2.02", "1.98", "1.89",
                         "1.85", "1.74", "1.67", "1.74"};
  for (std::size_t k = k_min; k <= k_max; ++k) {
    HeModelOptions options;
    options.encrypted_weights = flags.get_bool("encrypted-weights", false);
    options.rns_branches = k;
    const EncryptedEvalResult result =
        run_encrypted_eval(*backend, spec, options, exp.test_set(), cfg);
    table.add_row({std::to_string(k),
                   TextTable::fixed(result.eval_latency.avg(), 2),
                   TextTable::fixed(result.match_rate, 1),
                   k <= 10 ? paper[k] : ""});
    std::printf("k=%zu done (avg %.2f s)\n", k, result.eval_latency.avg());
  }
  std::printf("\n%s", table.render().c_str());
  std::printf(
      "\nNote: Lat grows with k here because each branch repeats the "
      "convolution; branches run one after another, and only the residue "
      "channels inside each stage share the thread pool.\n");
  return finish_trace(cfg) ? 0 : 1;
}
