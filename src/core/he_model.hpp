#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckks/backend.hpp"
#include "core/models.hpp"

namespace pphe {

/// Encode-once cache of weight operands, content-addressed by
/// (backend, encrypted?, scale, level, values): each distinct weight vector
/// pays for encoding (and its NTT passes, and encryption when weights are
/// encrypted) exactly once per (scale, level) and every further use — a
/// duplicate diagonal, a re-plan after a level retry, another model compiled
/// against the same backend — reuses the stored handle. Handles are
/// immutable, so sharing one operand across uses is safe. Thread-safe.
class WeightOperandCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };

  using Factory = std::function<WeightOperand()>;

  /// Returns the operand cached under the full key, invoking `make` exactly
  /// once per distinct key. The full value vector is part of the key (not
  /// just its hash), so collisions cannot alias two different weights.
  WeightOperand get_or_make(const HeBackend& backend, bool encrypted,
                            std::span<const double> values, double scale,
                            int level, const Factory& make);

  Stats stats() const;
  void clear();

 private:
  struct Entry {
    const HeBackend* backend = nullptr;
    bool encrypted = false;
    int level = 0;
    std::uint64_t scale_bits = 0;
    std::vector<double> values;
    WeightOperand operand;
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::size_t, std::vector<Entry>> buckets_;
  Stats stats_;
};

/// Options for compiling a ModelSpec onto a backend.
struct HeModelOptions {
  /// Encrypt the model weights too (§VI: "both inputs and weights are
  /// encrypted before testing"; eq. (1)'s w̄ ⊗ c). Plaintext weights are the
  /// classical CryptoNets setting, kept as an ablation.
  bool encrypted_weights = true;
  /// Number of RNS input-decomposition branches k of Fig. 5 (the paper's
  /// "co-prime moduli" knob, Tables IV/VI). 1 = no decomposition. Branches
  /// use the positional digit decomposition (see DESIGN.md §4: the only
  /// recomposition CKKS can evaluate without a homomorphic modular
  /// reduction); each branch convolves a small-digit image and the CRT-style
  /// recombination constants are folded into the branch weights, so the
  /// branch outputs simply sum back into the original representation.
  std::size_t rns_branches = 1;
  /// Quantization range of the input image (MNIST pixels are 8-bit).
  int pixel_levels = 256;
  /// SIMD batch size: pack `batch` images interleaved across the slots and
  /// classify them all in ONE homomorphic evaluation (the CryptoNets/E2DM
  /// amortization, an extension beyond the paper's single-image latency
  /// focus). Must be a power of two with batch * max_layer_dim <= slots.
  /// batch == 1 uses the replicated single-image layout.
  std::size_t batch = 1;
  /// Debug-key telemetry: when set AND tracing is enabled, every per-layer
  /// trace span additionally decrypts the intermediate ciphertext (the
  /// backend owns the secret key, standing in for a supplied debug key) and
  /// records the measured slot magnitude next to the planned value bound —
  /// the decrypted-vs-expected budget check. Costs one decrypt per layer;
  /// never use for timing runs.
  bool trace_noise_budget = false;
  /// Encode-once weight cache. Null = the model creates a private one, which
  /// still dedupes within the compilation (duplicate diagonals, level-retry
  /// re-plans). Pass a shared instance to reuse encodings across models
  /// compiled against the same backend.
  std::shared_ptr<WeightOperandCache> weight_cache;
  /// Run backend.validate_ciphertext on every branch input at eval() entry
  /// (limb layout, NTT form, residue ranges, wire integrity digest). Off only
  /// for benches that want the unguarded number.
  bool validate_inputs = true;
  /// Noise-budget guardrail: eval() refuses to run (Error(kNoiseBudget))
  /// when the budget the logits would come out with — the plan's output
  /// budget minus any deficit the inputs arrived with — falls below this
  /// floor. 0 disables the guard. A refused request surfaces as a typed,
  /// retryable error instead of garbage logits that still argmax somewhere.
  double min_noise_budget_bits = 0.0;
};

/// One encrypted inference (Fig. 1's round trip), with the latency split the
/// paper's tables report (Lat = eval; encrypt/decrypt are client-side).
struct InferenceResult {
  std::vector<double> logits;
  int predicted = -1;
  double encrypt_seconds = 0.0;
  double eval_seconds = 0.0;
  double decrypt_seconds = 0.0;
  /// True when the noise-budget guardrail refused evaluation: logits are
  /// empty and predicted is -1 — a typed degraded result, never garbage.
  bool degraded = false;
};

/// A ModelSpec compiled onto a CKKS backend:
///  * every linear stage is packed with the hybrid diagonal method on a
///    power-of-two tile: m = min(tile, next_pow2(out_dim)) extended
///    diagonals evaluated baby-step/giant-step, with one deferred
///    relinearization per giant-step group, then log2(tile/m) rotate-and-add
///    folds (none for a square stage, m = tile);
///  * activations evaluate the per-neuron polynomial (eq. (2)) with exact
///    scale matching so additions never need scale adjustment;
///  * levels and scales are planned statically, and weights are encoded (or
///    encrypted) once at their use level during compilation.
class HeModel {
 public:
  HeModel(HeBackend& backend, const ModelSpec& spec, HeModelOptions options);

  InferenceResult infer(std::span<const float> image) const;

  /// Batched inference (options.batch images per call): one homomorphic
  /// evaluation classifies all images. Latency ~= infer(); throughput x batch.
  struct BatchResult {
    std::vector<std::vector<double>> logits;  // per image
    std::vector<int> predicted;
    double encrypt_seconds = 0.0;
    double eval_seconds = 0.0;
    double decrypt_seconds = 0.0;
  };
  BatchResult infer_batch(
      const std::vector<std::vector<float>>& images) const;

  /// Homomorphic evaluation only, starting from already-encrypted branch
  /// inputs (used by tests that want to drive stages directly).
  Ciphertext eval(const std::vector<Ciphertext>& branch_inputs) const;

  /// Client-side: encode + encrypt the (quantized, branch-decomposed) image.
  std::vector<Ciphertext> encrypt_input(std::span<const float> image) const;
  /// Client-side batched variant: encrypts options.batch images interleaved
  /// across the slots (requires images.size() == options().batch).
  std::vector<Ciphertext> encrypt_batch(
      const std::vector<std::vector<float>>& images) const;
  /// Client-side: decrypt + decode logits.
  std::vector<double> decrypt_logits(const Ciphertext& ct) const;
  /// Client-side batched variant: decrypts ONCE and de-interleaves every
  /// image's logits from the packed layout. decrypt_logits(ct) is defined as
  /// decrypt_logits_batch(ct)[0], so the two paths are bit-identical.
  std::vector<std::vector<double>> decrypt_logits_batch(
      const Ciphertext& ct) const;

  /// Validates a requested SIMD batch size against the backend's slot
  /// capacity and the spec's layer dimensions BEFORE compilation: batch must
  /// be a power of two with batch * tile <= slots. Throws a typed
  /// Error(ErrorCode::kInvalidArgument) naming the allowed range, so CLI and
  /// config layers can reject bad --batch values with a usable message
  /// instead of dying mid-compile.
  static void validate_batch(const HeBackend& backend, const ModelSpec& spec,
                             std::size_t batch);

  const ModelSpec& spec() const { return spec_; }
  const HeModelOptions& options() const { return options_; }
  HeBackend& backend() const { return backend_; }

  /// Galois keys the compiled plan needs, one per rotation step (ascending),
  /// each at the highest input level of any stage that rotates by it.
  /// Compilation ensures exactly these, in one call.
  const std::vector<GaloisKeyRequest>& galois_keys() const {
    return galois_keys_;
  }
  /// The galois_keys() a model compiled from these arguments would need,
  /// planned without encoding a weight or building a key (the level retry
  /// included), so a caller compiling several models on one backend can
  /// ensure the union of their keys once.
  static std::vector<GaloisKeyRequest> plan_galois_keys(
      HeBackend& backend, const ModelSpec& spec, HeModelOptions options);
  /// The steps of galois_keys().
  std::vector<int> rotation_steps() const {
    std::vector<int> steps;
    steps.reserve(galois_keys_.size());
    for (const GaloisKeyRequest& key : galois_keys_) steps.push_back(key.step);
    return steps;
  }

  /// Per-stage cost summary (Figs. 3/4 bench): diagonal counts, rotations,
  /// relinearizations, input level.
  struct StageCost {
    std::string name;
    std::size_t diagonals = 0;
    /// Rotations: unique baby and giant steps (x branches) plus the folds.
    std::size_t rotations = 0;
    /// Hybrid-diagonal folds, log2(tile / period): they run once, after the
    /// branch sum, so they are not multiplied by the branch count.
    std::size_t folds = 0;
    std::size_t relins = 0;
    std::size_t tile = 0;
    /// Giant-step size the rotation plan chose for this stage.
    std::size_t giant = 0;
    /// Nonzero giant groups (x branches, like the other counters).
    std::size_t giant_groups = 0;
    /// Planned kModDown count for the stage (x branches): fused = one per
    /// nonzero giant group + the layer epilogue; unfused = one per hoisted
    /// baby plus the giant epilogue(s); plus one per fold. Relinearizations
    /// that key-switch (encrypted weights) add their own on top.
    std::size_t moddowns = 0;
    /// True when the stage runs the double-hoisted linear_bsgs path.
    bool fused = false;
    int level_in = 0;
    double scale_in = 0.0;
  };
  std::vector<StageCost> cost_report() const;

  /// Rescaling levels the plan consumes (must fit the chain).
  int levels_used() const { return levels_used_; }

  /// Analytic bound on the absolute slot error of the decrypted logits
  /// (NoiseTracker propagated through the plan). Tests check that measured
  /// logit errors stay below this; benches print it next to the measurement.
  double predicted_output_error() const { return predicted_output_error_; }

  /// Noise budget (bits above the scale, SEAL-style) a FRESH input ciphertext
  /// has at the plan's input level / scale, and the budget the logits come
  /// out with when inputs arrive fresh. The eval() guardrail charges any
  /// input deficit against the planned output budget.
  double planned_input_budget_bits() const;
  double planned_output_budget_bits() const;

 private:
  struct LinearPlan {
    std::size_t in_dim = 0, out_dim = 0, tile = 0, giant = 0;
    /// Output period m = min(tile, next_pow2(out_dim)): the stage evaluates
    /// m extended diagonals d_i[t] = W[t mod m, (t+i) mod tile], then folds
    /// y += rot(y, f) for f = tile/2 ... m, leaving row r in every slot
    /// t = r mod m. m == tile is the square method, with no folds.
    std::size_t period = 0;
    std::size_t rot_mult = 1;  // slot stride per logical rotation step
    /// True when the giant size came from the double-hoisted cost model
    /// (plaintext weights on a backend that supports_hoisted_bsgs()); the
    /// backend's linear_bsgs decides at run time whether its fused kernel
    /// takes the operands.
    bool fused = false;
    // Group j -> baby step b -> pre-rotated weight operand for extended
    // diagonal i = giant*j + b (absent diagonals are skipped).
    struct Term {
      std::size_t baby = 0;
      WeightOperand weight;
    };
    struct Group {
      std::size_t j = 0;
      std::vector<Term> terms;
    };
    // One group table per input branch: rns_branches entries on the first
    // linear stage (branch weights pre-scaled per branch), one elsewhere.
    std::vector<std::vector<Group>> branch_groups;
    WeightOperand bias;
    int level_in = 0, level_out = 0;
    double scale_in = 0.0, scale_out = 0.0;
  };

  struct ActivationPlan {
    std::size_t features = 0, degree = 0, tile = 0;
    // Operand for x^k, k = 1..degree (encoded/encrypted coefficient vector),
    // plus the constant-term vector added at the end.
    std::vector<WeightOperand> power_weights;
    WeightOperand constant;
    int level_in = 0, level_out = 0;
    double scale_in = 0.0, scale_out = 0.0;
    // Levels/scales at which each power product is formed (runtime asserts).
    std::vector<int> power_levels;
    std::vector<double> power_scales;
    double target_scale = 0.0;
    int target_level = 0;
  };

  struct StagePlan {
    bool is_linear = false;
    LinearPlan linear;
    ActivationPlan activation;
    /// Short human label ("linear 784->720 [1024 slots]", "activation deg 3"),
    /// used to name the per-layer trace span.
    std::string name;
    /// Analytic slot-error bound at this stage's OUTPUT (NoiseTracker state
    /// captured during plan()), exported on the layer span.
    double predicted_err = 0.0;
    /// Planned bound on the output slot magnitudes (for the
    /// trace_noise_budget decrypted-vs-expected comparison).
    double value_bound = 0.0;
  };

  /// `compile` false plans levels, diagonals and keys only: no weight is
  /// encoded and no key is built (plan_galois_keys).
  HeModel(HeBackend& backend, const ModelSpec& spec, HeModelOptions options,
          bool compile);

  // Compilation helpers.
  void plan();
  std::vector<Ciphertext> encrypt_images(
      const std::vector<std::span<const float>>& images) const;
  std::size_t output_dim() const;
  WeightOperand make_weight(const std::vector<double>& values, double scale,
                            int level) const;
  Ciphertext multiply_weight(const Ciphertext& x,
                             const WeightOperand& w) const;
  Ciphertext add_weight(const Ciphertext& x, const WeightOperand& w) const;
  /// Applies the greedy rescale rule; updates (level, scale) in place when
  /// simulating and returns the rescaled ciphertext when executing.
  void simulate_rescale(int& level, double& scale) const;
  Ciphertext apply_rescale(Ciphertext ct) const;

  Ciphertext run_linear(const LinearPlan& plan,
                        const std::vector<Ciphertext>& branch_inputs) const;
  Ciphertext run_linear_single(const LinearPlan& plan,
                               const std::vector<LinearPlan::Group>& groups,
                               const Ciphertext& x) const;
  Ciphertext run_activation(const ActivationPlan& plan,
                            const Ciphertext& x) const;

  HeBackend& backend_;
  ModelSpec spec_;
  HeModelOptions options_;
  bool compile_ = true;
  std::vector<StagePlan> stages_;
  std::vector<GaloisKeyRequest> galois_keys_;
  std::size_t input_tile_ = 0;
  int input_level_ = 0;  // fresh ciphertexts are encrypted at this level
  int levels_used_ = 0;
  double predicted_output_error_ = 0.0;
  int output_level_ = 0;
  double output_scale_ = 0.0;
  std::size_t digit_base_ = 256;  // branch digit base B (B^k >= pixel_levels)
};

}  // namespace pphe
