#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/data.hpp"
#include "nn/network.hpp"

namespace pphe {

/// Which activation the architecture uses.
enum class Activation {
  kRelu,    // pre-training only (not homomorphically computable)
  kSlaf,    // paper's self-learning polynomial (eq. (2)), degree 3
  kSquare,  // CryptoNets baseline [20]
};

/// The two architectures of §V.D (Figs. 3 and 4).
enum class Arch {
  kCnn1,  // Conv(1->5,5x5,s2) - act - Dense(720->64) - act - Dense(64->10)
  kCnn2,  // Conv(1->5,5x5,s2) - BN - act - Conv(5->10,5x5,s2) - BN - act -
          // Dense(160->64) - Dense(64->10)
};

std::string arch_name(Arch arch);

/// Builds an untrained network of the given architecture/activation.
std::unique_ptr<Network> build_network(Arch arch, Activation act,
                                       std::uint64_t seed,
                                       std::size_t slaf_degree = 3);

/// Result of the CNN-HE-SLAF training protocol (§V.D, [11]).
struct TrainedModel {
  std::unique_ptr<Network> network;
  Arch arch = Arch::kCnn1;
  Activation activation = Activation::kSlaf;
  float train_accuracy = 0.0f;  // the paper's "Training Acc" column
  float test_accuracy = 0.0f;   // plaintext accuracy on the test set
};

/// How SLAF coefficients start before the re-training phase.
enum class SlafInit {
  /// Least-squares degree-d fit of ReLU over a Gaussian-weighted interval —
  /// the substituted network starts close to the pre-trained one, so the
  /// short re-training phase converges (the practical reading of [11]).
  kReluFit,
  /// All-zero, as §III.B states literally. With stacked activations the
  /// zero polynomials block gradient flow and need many more epochs.
  kZero,
};

/// Training knobs. Defaults follow §V.D (SGD momentum 0.9, batch 64,
/// cross-entropy, 1-cycle LR, Kaiming init); epochs are scaled down by the
/// caller for the fast profile.
struct ProtocolConfig {
  std::size_t relu_epochs = 30;
  std::size_t slaf_epochs = 8;  // the "short re-training" of [11]
  std::size_t batch_size = 64;
  float lr_max = 0.05f;
  float slaf_lr_max = 0.003f;
  std::uint64_t seed = 1234;
  bool verbose = false;
  SlafInit slaf_init = SlafInit::kReluFit;
  double slaf_fit_radius = 6.0;  // interval half-width for kReluFit
};

/// Least-squares coefficients (a_0..a_degree) approximating ReLU over
/// [-radius, radius] with Gaussian weighting (sigma = radius / 2).
std::vector<float> fit_relu_polynomial(std::size_t degree, double radius);

/// CNN-HE-SLAF protocol: (1) train the architecture with ReLU; (2) swap every
/// activation for a zero-initialized SLAF, keeping the learned weights;
/// (3) shortly re-train the full model so the polynomial coefficients adapt
/// (the paper re-trains "to learn customized polynomial approximation
/// coefficients"). For Activation::kSquare the second phase re-trains the
/// fixed-square network instead (CryptoNets practice).
TrainedModel train_protocol(Arch arch, Activation act, const Dataset& train,
                            const Dataset& test, const ProtocolConfig& cfg);

// ---------------------------------------------------------------------------
// Compiled plaintext model: what the HE engine consumes.
// ---------------------------------------------------------------------------

/// A dense matrix y = W x + b over slot vectors. Convolutions (with folded
/// batch norm) and dense layers both lower to this form; the HE engine packs
/// it with the BSGS diagonal method. Inputs and outputs are indexed by slot,
/// not by feature: a convolution writes a gapped layout (see compile_model),
/// so out_dim is the slot span and rows no feature maps to are all-zero
/// holes.
struct LinearSpec {
  std::size_t in_dim = 0;
  std::size_t out_dim = 0;
  std::vector<float> weight;  // row-major out_dim x in_dim
  std::vector<float> bias;    // out_dim

  float at(std::size_t row, std::size_t col) const {
    return weight[row * in_dim + col];
  }
  /// Rows with a nonzero weight or bias (out_dim minus the holes).
  std::size_t live_outputs() const;
  /// "784->720 [1024 slots]": in_dim, live outputs, and the output span when
  /// it has holes.
  std::string label() const;
};

/// Polynomial activation with per-neuron coefficients (eq. (2)); Square is
/// represented as the fixed polynomial x^2 for every neuron. Neurons are
/// slots of the preceding linear stage; holes get all-zero coefficients.
struct ActivationSpec {
  std::size_t features = 0;
  std::size_t degree = 0;
  std::vector<float> coeffs;  // features x (degree+1), row-major

  float coeff(std::size_t neuron, std::size_t power) const {
    return coeffs[neuron * (degree + 1) + power];
  }
};

struct ModelSpec {
  struct Stage {
    enum class Kind { kLinear, kActivation } kind;
    LinearSpec linear;
    ActivationSpec activation;
  };
  std::vector<Stage> stages;
  std::string name;

  /// Number of rescaling levels an exact evaluation consumes
  /// (1 per linear stage, 3 per degree-3 activation — see he_model.cpp).
  std::size_t depth() const;
};

/// Lowers a trained network to linear + activation stages: batch norms fold
/// into the preceding convolution, flatten disappears, and a slot map carries
/// each feature's slot from stage to stage. The input image and every dense
/// output are compact (feature k in slot k). A stride-s convolution writes
/// output (f, oy, ox) to slot (Y_f + grid(s*oy, s*ox)) mod tile, where grid
/// gives an input pixel's slot before its channel offset and tile is
/// next_pow2 of the conv's compact dimensions. So col - row depends only on
/// (c, f, ky, kx) and the conv matrix has at most C_in*C_out*K^2 diagonals.
/// The offsets Y_f are the lexicographically smallest set whose output
/// lattices are pairwise disjoint mod tile; activations and the next stage's
/// columns follow the map and the final logits stay compact. Throws
/// pphe::Error when a conv's channels cannot be placed.
ModelSpec compile_model(const TrainedModel& model);

/// Evaluates a ModelSpec in the clear (reference for HE output validation).
std::vector<float> eval_spec(const ModelSpec& spec,
                             std::vector<float> input);

}  // namespace pphe
