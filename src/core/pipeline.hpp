#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "ckks/backend.hpp"
#include "common/cli.hpp"
#include "common/stats.hpp"
#include "core/he_model.hpp"
#include "core/models.hpp"
#include "nn/data.hpp"

namespace pphe {

/// Shared configuration for the bench/example harness.
struct ExperimentConfig {
  bool paper_profile = false;  // Table II params (N=2^14) vs fast N=2^13
  std::size_t train_size = 8000;
  std::size_t test_size = 2000;
  std::size_t relu_epochs = 10;  // paper: 30 (use --paper for full runs)
  std::size_t slaf_epochs = 6;
  std::size_t he_samples = 4;    // encrypted inferences per measurement
  std::string mnist_dir;         // real MNIST IDX directory (optional)
  std::string cache_dir = "ppcnn-cache";
  std::uint64_t seed = 1234;
  bool verbose = true;
  /// When non-empty, homomorphic-op tracing is enabled for the run and a
  /// Chrome trace-event JSON (chrome://tracing / Perfetto loadable) is
  /// written here on finish_trace() / at the harness's end-of-run hook.
  std::string trace_out;
  /// When non-empty, the fault-injection plan armed for the run (the
  /// --faults=<spec> flag; grammar in fault::FaultSpec::parse).
  std::string faults;
  /// The math-HAL kernel set the run executes with ("scalar"/"avx2"/
  /// "avx512"): the dispatched one, or whatever --force-isa pinned.
  std::string isa;

  /// Reads --paper --train-size --test-size --epochs --slaf-epochs --samples
  /// --mnist-dir --cache-dir --seed --quiet --trace-out --faults --force-isa.
  static ExperimentConfig from_flags(const CliFlags& flags);

  CkksParams ckks_params() const;
};

/// Lazily builds datasets and trained models, caching weights on disk so the
/// six table benches do not retrain the same networks.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  const ExperimentConfig& config() const { return cfg_; }
  const Dataset& train_set() const { return train_; }
  const Dataset& test_set() const { return test_; }

  /// Trains (or loads from cache) the given architecture via the CNN-HE-SLAF
  /// protocol and returns it. The returned reference stays valid for the
  /// lifetime of the Experiment.
  const TrainedModel& model(Arch arch, Activation act);

  /// compile_model() of the cached model.
  ModelSpec spec(Arch arch, Activation act);

 private:
  std::string cache_path(Arch arch, Activation act) const;

  ExperimentConfig cfg_;
  Dataset train_, test_;
  std::map<std::pair<int, int>, TrainedModel> models_;
};

/// Latency + accuracy of encrypted inference over a test-set sample, the
/// measurement behind Tables III-VI.
struct EncryptedEvalResult {
  LatencyStats eval_latency;    // measured per-inference eval wall time
  double encrypt_avg = 0.0;
  double decrypt_avg = 0.0;
  double spec_accuracy = 0.0;   // plaintext ModelSpec accuracy, full test set
  double he_accuracy = 0.0;     // encrypted accuracy on the sample
  double match_rate = 0.0;      // encrypted vs plaintext prediction agreement
  double max_logit_err = 0.0;   // max |HE logit - plaintext logit|
  double setup_seconds = 0.0;   // compile: weight encryption + Galois keys
  std::size_t samples = 0;
  /// Encode-once weight cache behaviour during compilation (hits = weight
  /// vectors that reused a cached encoding instead of re-encoding).
  std::uint64_t weight_cache_hits = 0;
  std::uint64_t weight_cache_misses = 0;
};

/// Runs `cfg.he_samples` encrypted inferences of `spec` on `backend` and the
/// full-test-set plaintext evaluation. The sample images are test images
/// cfg.seed-deterministically ordered (first N of the test set).
EncryptedEvalResult run_encrypted_eval(HeBackend& backend,
                                       const ModelSpec& spec,
                                       const HeModelOptions& options,
                                       const Dataset& test,
                                       const ExperimentConfig& cfg);

/// Creates the requested backend ("rns" or "big") over cfg's parameters.
std::unique_ptr<HeBackend> make_backend(const std::string& kind,
                                        const CkksParams& params);

}  // namespace pphe
