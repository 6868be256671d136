#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "ckks/big_backend.hpp"
#include "ckks/rns_backend.hpp"
#include "common/check.hpp"
#include "common/trace.hpp"
#include "nn/serialize.hpp"

namespace pphe {

ExperimentConfig ExperimentConfig::from_flags(const CliFlags& flags) {
  ExperimentConfig cfg;
  cfg.paper_profile = flags.get_bool("paper", false);
  cfg.train_size = static_cast<std::size_t>(
      flags.get_int("train-size", cfg.paper_profile ? 50000 : 4000));
  cfg.test_size = static_cast<std::size_t>(
      flags.get_int("test-size", cfg.paper_profile ? 10000 : 1500));
  cfg.relu_epochs = static_cast<std::size_t>(
      flags.get_int("epochs", cfg.paper_profile ? 30 : 6));
  cfg.slaf_epochs = static_cast<std::size_t>(
      flags.get_int("slaf-epochs", cfg.paper_profile ? 10 : 4));
  cfg.he_samples =
      static_cast<std::size_t>(flags.get_int("samples", cfg.he_samples));
  cfg.mnist_dir = flags.get("mnist-dir", "");
  cfg.cache_dir = flags.get("cache-dir", cfg.cache_dir);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1234));
  cfg.verbose = !flags.get_bool("quiet", false);
  cfg.trace_out = flags.get("trace-out", "");
  if (!cfg.trace_out.empty()) trace::set_enabled(true);
  cfg.faults = init_faults_from_flags(flags);
  cfg.isa = init_isa_from_flags(flags);
  return cfg;
}

CkksParams ExperimentConfig::ckks_params() const {
  CkksParams p = paper_profile ? CkksParams::paper_table2()
                               : CkksParams::fast_profile();
  p.seed = seed;
  return p;
}

Experiment::Experiment(ExperimentConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.mnist_dir.empty()) {
    auto train = load_mnist_idx(cfg_.mnist_dir, /*train=*/true);
    auto test = load_mnist_idx(cfg_.mnist_dir, /*train=*/false);
    PPHE_CHECK(train.has_value() && test.has_value(),
               "MNIST IDX files not found in " + cfg_.mnist_dir);
    train_ = std::move(*train);
    test_ = std::move(*test);
    if (cfg_.verbose) {
      std::printf("[data] real MNIST: %zu train / %zu test\n", train_.size(),
                  test_.size());
    }
  } else {
    train_ = generate_synthetic_mnist(cfg_.train_size, cfg_.seed);
    test_ = generate_synthetic_mnist(cfg_.test_size, cfg_.seed ^ 0x7e57);
    if (cfg_.verbose) {
      std::printf(
          "[data] synthetic MNIST substitute: %zu train / %zu test "
          "(see DESIGN.md; pass --mnist-dir for real IDX files)\n",
          train_.size(), test_.size());
    }
  }
}

std::string Experiment::cache_path(Arch arch, Activation act) const {
  std::filesystem::create_directories(cfg_.cache_dir);
  const char* act_name = act == Activation::kSlaf    ? "slaf"
                         : act == Activation::kSquare ? "square"
                                                      : "relu";
  return cfg_.cache_dir + "/" + arch_name(arch) + "-" + act_name + "-t" +
         std::to_string(train_.size()) + "-e" +
         std::to_string(cfg_.relu_epochs) + "-s" + std::to_string(cfg_.seed) +
         (cfg_.mnist_dir.empty() ? "-synth" : "-mnist") + ".weights";
}

const TrainedModel& Experiment::model(Arch arch, Activation act) {
  const auto key = std::make_pair(static_cast<int>(arch),
                                  static_cast<int>(act));
  auto it = models_.find(key);
  if (it != models_.end()) return it->second;

  TrainedModel m;
  m.arch = arch;
  m.activation = act;
  m.network = build_network(arch, act, cfg_.seed);
  const std::string path = cache_path(arch, act);
  bool loaded = false;
  try {
    loaded = load_weights(*m.network, path);
  } catch (const Error&) {
    loaded = false;  // corrupt cache is a cache miss, never a crash
  }
  if (!loaded && std::filesystem::exists(path)) {
    // A present-but-unreadable file is corrupt or from an incompatible run:
    // fall through to retraining, which overwrites it with a good one.
    std::fprintf(stderr,
                 "[model] discarding corrupt cache file %s (retraining)\n",
                 path.c_str());
    // Partial loads may have overwritten some buffers; rebuild from scratch.
    m.network = build_network(arch, act, cfg_.seed);
  }
  if (loaded) {
    m.train_accuracy = evaluate(*m.network, train_);
    m.test_accuracy = evaluate(*m.network, test_);
    if (cfg_.verbose) {
      std::printf("[model] %s/%d loaded from cache (train %.2f%% test %.2f%%)\n",
                  arch_name(arch).c_str(), static_cast<int>(act),
                  static_cast<double>(m.train_accuracy),
                  static_cast<double>(m.test_accuracy));
    }
  } else {
    ProtocolConfig pcfg;
    pcfg.relu_epochs = cfg_.relu_epochs;
    pcfg.slaf_epochs = cfg_.slaf_epochs;
    pcfg.seed = cfg_.seed;
    pcfg.verbose = cfg_.verbose;
    m = train_protocol(arch, act, train_, test_, pcfg);
    save_weights(*m.network, path);
    if (cfg_.verbose) {
      std::printf("[model] %s trained: train %.2f%% test %.2f%%\n",
                  arch_name(arch).c_str(),
                  static_cast<double>(m.train_accuracy),
                  static_cast<double>(m.test_accuracy));
    }
  }
  it = models_.emplace(key, std::move(m)).first;
  return it->second;
}

ModelSpec Experiment::spec(Arch arch, Activation act) {
  return compile_model(model(arch, act));
}

std::unique_ptr<HeBackend> make_backend(const std::string& kind,
                                        const CkksParams& params) {
  if (kind == "rns") return std::make_unique<RnsBackend>(params);
  if (kind == "big") return std::make_unique<BigBackend>(params);
  PPHE_CHECK(false, "unknown backend kind: " + kind);
  return nullptr;
}

EncryptedEvalResult run_encrypted_eval(HeBackend& backend,
                                       const ModelSpec& spec,
                                       const HeModelOptions& options,
                                       const Dataset& test,
                                       const ExperimentConfig& cfg) {
  EncryptedEvalResult result;

  // Install an encode-once weight cache when the caller did not supply one,
  // so the cache stats below always describe this compilation.
  HeModelOptions opts = options;
  if (!opts.weight_cache) {
    opts.weight_cache = std::make_shared<WeightOperandCache>();
  }
  Stopwatch setup;
  const HeModel model(backend, spec, opts);
  result.setup_seconds = setup.seconds();
  const WeightOperandCache::Stats cache_stats = opts.weight_cache->stats();
  result.weight_cache_hits = cache_stats.hits;
  result.weight_cache_misses = cache_stats.misses;
  trace::Span eval_span("encrypted_eval", "pipeline");

  // Plaintext reference accuracy over the full test set.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const float* img = test.images.data() + i * 784;
    const auto logits = eval_spec(spec, std::vector<float>(img, img + 784));
    const auto pred = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
    if (pred == test.labels[i]) ++correct;
  }
  result.spec_accuracy =
      100.0 * static_cast<double>(correct) / static_cast<double>(test.size());

  const std::size_t samples = std::min(cfg.he_samples, test.size());
  result.samples = samples;
  std::size_t he_correct = 0, agree = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    trace::Span sample_span("sample", "pipeline");
    sample_span.attr("index", static_cast<double>(i));
    const float* img = test.images.data() + i * 784;
    const std::vector<float> image(img, img + 784);

    // The paper's Lat is the cloud-side evaluation of one classification
    // request: inf.eval_seconds, not the client's encrypt/decrypt.
    const InferenceResult inf = model.infer(image);
    PPHE_CHECK_CODE(!inf.degraded, ErrorCode::kNoiseBudget,
                    "noise-budget guardrail refused evaluation");

    result.eval_latency.add(inf.eval_seconds);
    result.encrypt_avg += inf.encrypt_seconds;
    result.decrypt_avg += inf.decrypt_seconds;

    const auto plain = eval_spec(spec, image);
    const auto plain_pred = static_cast<int>(
        std::max_element(plain.begin(), plain.end()) - plain.begin());
    if (inf.predicted == plain_pred) ++agree;
    if (inf.predicted == test.labels[i]) ++he_correct;
    for (std::size_t c = 0; c < plain.size(); ++c) {
      result.max_logit_err =
          std::max(result.max_logit_err,
                   std::abs(inf.logits[c] - static_cast<double>(plain[c])));
    }
  }
  if (samples > 0) {
    result.encrypt_avg /= static_cast<double>(samples);
    result.decrypt_avg /= static_cast<double>(samples);
    result.he_accuracy =
        100.0 * static_cast<double>(he_correct) / static_cast<double>(samples);
    result.match_rate =
        100.0 * static_cast<double>(agree) / static_cast<double>(samples);
  }
  return result;
}

}  // namespace pphe
