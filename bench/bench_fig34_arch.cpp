// Reproduces Figs. 3 and 4 (the CNN1 and CNN2 architectures): prints each
// network layer by layer together with its homomorphic compilation cost —
// tile size, diagonal count, rotations (hybrid-diagonal folds among them),
// relinearizations, and the level each stage starts at. This is the textual
// rendering of the block diagrams.

#include <cmath>

#include "bench_common.hpp"

using namespace pphe;
using namespace pphe::benchutil;

namespace {

void report(Experiment& exp, Arch arch) {
  // A backend per architecture, so its key material is this model's alone.
  const auto backend = make_backend("rns", exp.config().ckks_params());
  const TrainedModel& model = exp.model(arch, Activation::kSlaf);
  const ModelSpec spec = compile_model(model);
  std::printf("\n=== %s (Fig. %d) ===\n", arch_name(arch).c_str(),
              arch == Arch::kCnn1 ? 3 : 4);
  std::printf("plaintext network:\n%s", model.network->describe().c_str());
  std::printf("lowered HE stages (depth %zu rescale levels):\n", spec.depth());

  HeModelOptions options;
  options.encrypted_weights = false;  // structure only; faster to compile
  const HeModel he(*backend, spec, options);
  TextTable table({"stage", "tile", "diagonals", "rotations", "folds",
                   "relins", "level in", "scale in (log2)"});
  for (const auto& cost : he.cost_report()) {
    table.add_row({cost.name, std::to_string(cost.tile),
                   std::to_string(cost.diagonals),
                   std::to_string(cost.rotations), std::to_string(cost.folds),
                   std::to_string(cost.relins),
                   std::to_string(cost.level_in),
                   TextTable::fixed(std::log2(cost.scale_in), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("rotation steps used: %zu distinct Galois keys, %.1f MiB\n",
              he.galois_keys().size(),
              static_cast<double>(backend->galois_key_stats().bytes) /
                  (1024.0 * 1024.0));
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  print_header("Figs. 3/4 reproduction: architecture and HE cost breakdown",
               cfg);
  Experiment exp(cfg);
  report(exp, Arch::kCnn1);
  report(exp, Arch::kCnn2);
  return finish_trace(cfg) ? 0 : 1;
}
