// Encrypted OCR batch: classify several encrypted digits with CNN1-HE-RNS,
// print an ASCII rendering of each input next to the encrypted prediction
// and its measured evaluation latency — the workload of the paper's §VI
// evaluation, visualized.

#include <algorithm>
#include <cstdio>

#include "core/pipeline.hpp"

using namespace pphe;

namespace {

void render(const float* img) {
  static const char* kShades = " .:-=+*#%@";
  for (int y = 0; y < 28; y += 2) {
    for (int x = 0; x < 28; ++x) {
      const float v = 0.5f * (img[y * 28 + x] + img[(y + 1) * 28 + x]);
      const int idx = std::clamp(static_cast<int>(v * 9.99f), 0, 9);
      std::putchar(kShades[idx]);
    }
    std::putchar('\n');
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  cfg.train_size = static_cast<std::size_t>(flags.get_int("train-size", 3000));
  const auto count = static_cast<std::size_t>(flags.get_int("count", 4));

  std::printf("== encrypted digit recognition (CNN1-HE-RNS) ==\n");
  Experiment exp(cfg);
  const TrainedModel& model = exp.model(Arch::kCnn1, Activation::kSlaf);
  auto backend = make_backend("rns", cfg.ckks_params());
  HeModelOptions options;
  options.encrypted_weights = true;
  options.rns_branches = 3;
  const HeModel he_model(*backend, compile_model(model), options);

  std::size_t correct = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const float* img = exp.test_set().images.data() + i * 784;
    render(img);
    const InferenceResult r =
        he_model.infer(std::vector<float>(img, img + 784));
    std::printf("encrypted prediction: %d (label %d) — %.2f s eval\n\n",
                r.predicted, exp.test_set().labels[i], r.eval_seconds);
    if (r.predicted == exp.test_set().labels[i]) ++correct;
  }
  std::printf("encrypted accuracy on this batch: %zu/%zu "
              "(plaintext model: %.2f%% on the full test set)\n",
              correct, count, static_cast<double>(model.test_accuracy));
  return 0;
}
