// Reproduces Fig. 5 (the RNS-parallel branch architecture): demonstrates both
// realizations of the input decomposition —
//  (a) the homomorphic digit decomposition used by the CNN-HE-RNS models
//      (linear recombination folded into the branch weights), and
//  (b) the true non-positional RNS residue decomposition (RnsConvDemo):
//      per-branch integer convolution, CRT recombination, exactness check —
// and measures per-branch latency vs the critical path.

#include <cmath>

#include "bench_common.hpp"
#include "core/rns_input.hpp"

using namespace pphe;
using namespace pphe::benchutil;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  if (!flags.has("samples")) cfg.he_samples = 2;
  print_header("Fig. 5 reproduction: RNS branch decomposition", cfg);

  Experiment exp(cfg);

  // (a) Digit-decomposed CNN1 conv: latency vs branch count.
  std::printf("(a) homomorphic digit branches through the CNN1 pipeline\n");
  const ModelSpec spec = exp.spec(Arch::kCnn1, Activation::kSlaf);
  auto backend = make_backend("rns", cfg.ckks_params());
  TextTable table_a({"branches k", "Lat (s)", "HE=plain (%)"});
  for (const std::size_t k : {1u, 2u, 3u, 5u, 8u}) {
    HeModelOptions options;
    options.encrypted_weights = false;
    options.rns_branches = k;
    const EncryptedEvalResult r =
        run_encrypted_eval(*backend, spec, options, exp.test_set(), cfg);
    table_a.add_row({std::to_string(k),
                     TextTable::fixed(r.eval_latency.avg(), 2),
                     TextTable::fixed(r.match_rate, 1)});
  }
  std::printf("%s\n", table_a.render().c_str());

  // (b) True RNS residue branches on the trained conv1 weights, with a
  // high-precision context sized for the exact-integer check.
  std::printf("(b) true RNS residue branches (exact integer conv + CRT)\n");
  CkksParams demo_params;
  demo_params.degree = cfg.ckks_params().degree;
  demo_params.q_bit_sizes = {58, 58, 58};
  demo_params.special_bit_size = 60;
  demo_params.scale = std::ldexp(1.0, 40);
  auto demo_backend = make_backend("rns", demo_params);

  const LinearSpec conv = spec.stages[0].linear;
  TextTable table_b({"moduli", "exact?", "sum of branches (s)",
                     "critical path (s)"});
  const std::vector<std::vector<std::uint64_t>> configs = {
      {251, 247, 239},
      {251, 247, 239, 233},
      {4093, 4091},
  };
  for (const auto& moduli : configs) {
    const RnsConvDemo demo(*demo_backend, conv, moduli, 5);
    const float* img = exp.test_set().images.data();
    const auto result = demo.run(std::vector<float>(img, img + 784));
    std::string name;
    for (const auto m : moduli) name += std::to_string(m) + " ";
    table_b.add_row({name, result.exact ? "yes" : "NO",
                     TextTable::fixed(result.eval_seconds, 2),
                     TextTable::fixed(result.max_branch_seconds, 2)});
  }
  std::printf("%s", table_b.render().c_str());
  std::printf(
      "\nThe residue branches recombine EXACTLY via CRT — but only after\n"
      "decryption: reducing mod m_j is not polynomial, so the in-pipeline\n"
      "reassembly of Fig. 5 requires the digit decomposition of (a).\n"
      "See DESIGN.md §4 / EXPERIMENTS.md for this gap in the paper.\n");
  return finish_trace(cfg) ? 0 : 1;
}
