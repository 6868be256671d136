// Reproduces TABLE VI: CNN2-HE-RNS latency across "moduli chain length"
// k = 1, 3..10. Row k = 1 is the non-RNS baseline (one composite modulus,
// multiprecision arithmetic) and must reproduce CNN2-HE's Table V latency —
// exactly as in the paper, where row 1 equals 39.91 s.
//
// Paper: 39.91 (k=1), 23.67 (3), 23.39 (4), 23.12 (5), 22.76 (6), 22.54 (7),
// 22.49 (8), 22.46 (9), 22.51 (10).

#include "bench_common.hpp"

using namespace pphe;
using namespace pphe::benchutil;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  if (!flags.has("samples")) cfg.he_samples = 2;
  print_header(
      "TABLE VI reproduction: CNN2-HE-RNS across moduli (branch) counts", cfg);

  Experiment exp(cfg);
  const ModelSpec spec = exp.spec(Arch::kCnn2, Activation::kSlaf);

  const auto k_min = static_cast<std::size_t>(flags.get_int("k-min", 3));
  const auto k_max = static_cast<std::size_t>(flags.get_int("k-max", 10));
  const bool skip_big = flags.get_bool("skip-big", false);

  TextTable table(
      {"Moduli chain length", "Lat (s)", "HE=plain (%)", "paper Lat (s)"});
  const char* paper[] = {"",      "39.91", "",      "23.67", "23.39", "23.12",
                         "22.76", "22.54", "22.49", "22.46", "22.51"};

  if (!skip_big) {
    // k = 1: the multiprecision backend without decomposition.
    auto backend = make_backend("big", cfg.ckks_params());
    HeModelOptions options;
    options.encrypted_weights = flags.get_bool("encrypted-weights", false);
    options.rns_branches = 1;
    const EncryptedEvalResult result =
        run_encrypted_eval(*backend, spec, options, exp.test_set(), cfg);
    table.add_row({"1 (non-RNS)", TextTable::fixed(result.eval_latency.avg(), 2),
                   TextTable::fixed(result.match_rate, 1), paper[1]});
    std::printf("k=1 (multiprecision) done (avg %.2f s)\n",
                result.eval_latency.avg());
  }

  auto backend = make_backend("rns", cfg.ckks_params());
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
  return finish_trace(cfg) ? 0 : 1;
}
