// Hybrid diagonals (DESIGN.md §4): a linear stage whose output is shorter
// than the tile evaluates m = min(tile, next_pow2(out_dim)) extended
// diagonals, then folds the tile/m partial sums with log2(tile/m) rotations.
// The logits must match the plaintext spec on both backends, at batch 1 and
// 2, with plaintext and encrypted weights, and the key-switch counters must
// equal the cost report, which counts the folds. The paper models' diagonal
// and fold counts are pinned exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "ckks/big_backend.hpp"
#include "ckks/rns_backend.hpp"
#include "common/prng.hpp"
#include "core/he_model.hpp"
#include "core/models.hpp"

namespace pphe {
namespace {

CkksParams tiny_params() {
  CkksParams p = CkksParams::test_small();
  p.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26};
  return p;
}

/// linear 12->6, degree-2 activation, linear 6->3: tile 16, output periods
/// 8 and 4, so both stages fold (once and twice at batch 1).
ModelSpec rectangular_spec(std::uint64_t seed) {
  Prng prng(seed);
  ModelSpec spec;
  spec.name = "hybrid";
  auto linear = [&](std::size_t i, std::size_t o) {
    ModelSpec::Stage s;
    s.kind = ModelSpec::Stage::Kind::kLinear;
    s.linear.in_dim = i;
    s.linear.out_dim = o;
    s.linear.weight.resize(i * o);
    s.linear.bias.resize(o);
    for (auto& w : s.linear.weight) {
      w = static_cast<float>(prng.normal() * 0.3);
    }
    for (auto& b : s.linear.bias) {
      b = static_cast<float>(prng.normal() * 0.1);
    }
    return s;
  };
  spec.stages.push_back(linear(12, 6));
  {
    ModelSpec::Stage s;
    s.kind = ModelSpec::Stage::Kind::kActivation;
    s.activation.features = 6;
    s.activation.degree = 2;
    s.activation.coeffs.resize(6 * 3);
    for (auto& c : s.activation.coeffs) {
      c = static_cast<float>(prng.normal() * 0.2);
    }
    spec.stages.push_back(std::move(s));
  }
  spec.stages.push_back(linear(6, 3));
  return spec;
}

std::vector<float> random_image(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<float> img(n);
  for (auto& v : img) v = static_cast<float>(prng.uniform_double());
  return img;
}

/// The plaintext reference on the image as HeModel encodes it.
std::vector<float> reference(const ModelSpec& spec,
                             const std::vector<float>& img) {
  std::vector<float> quantized(img.size());
  for (std::size_t i = 0; i < img.size(); ++i) {
    quantized[i] = std::round(img[i] * 255.0f) / 255.0f;
  }
  return eval_spec(spec, quantized);
}

std::size_t log2_of(std::size_t x) {
  return static_cast<std::size_t>(std::countr_zero(x));
}

void expect_matches_plan(HeBackend& backend) {
  const ModelSpec spec = rectangular_spec(41);
  for (const bool encrypted : {false, true}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{2}}) {
      const std::string where = backend.name() +
                                (encrypted ? ", encrypted" : ", plaintext") +
                                " weights, batch " + std::to_string(batch);
      SCOPED_TRACE(where);
      HeModelOptions options;
      options.encrypted_weights = encrypted;
      options.batch = batch;
      const HeModel model(backend, spec, options);

      // Full diagonal sets of the two periods, and log2(tile / m) folds.
      const std::size_t tile = batch == 1 ? 16 : backend.slot_count() / batch;
      const auto report = model.cost_report();
      ASSERT_EQ(report.size(), 3u);
      EXPECT_EQ(report[0].tile, tile);
      EXPECT_EQ(report[0].diagonals, 8u);
      EXPECT_EQ(report[0].folds, log2_of(tile / 8));
      EXPECT_EQ(report[2].diagonals, 4u);
      EXPECT_EQ(report[2].folds, log2_of(tile / 4));

      // Each rotation (babies, giants, folds) is one inner product and one
      // mod-down; relinearizations key-switch only after ct x ct products
      // (with plaintext weights, a degree-d activation's d-1 power products).
      std::uint64_t want_inner = 0, want_moddown = 0;
      for (std::size_t s = 0; s < spec.stages.size(); ++s) {
        if (spec.stages[s].kind == ModelSpec::Stage::Kind::kLinear) {
          const std::size_t relins = encrypted ? report[s].relins : 0;
          want_inner += report[s].rotations + relins;
          want_moddown += report[s].moddowns + relins;
        } else {
          const std::size_t relins = spec.stages[s].activation.degree -
                                     (encrypted ? 0 : 1);
          want_inner += relins;
          want_moddown += relins;
        }
      }

      std::vector<std::vector<float>> images;
      for (std::size_t i = 0; i < batch; ++i) {
        images.push_back(random_image(12, 300 + i));
      }
      const auto inputs = model.encrypt_batch(images);
      backend.reset_op_counts();
      const Ciphertext out = model.eval(inputs);
      EXPECT_EQ(backend.op_count(OpKind::kKswInner), want_inner);
      EXPECT_EQ(backend.op_count(OpKind::kModDown), want_moddown);

      // Encrypted weights carry their own encryption noise into every
      // product, scaled by the input digits (up to 255).
      const double tol = encrypted ? 2e-2 : 1e-3;
      const auto logits = model.decrypt_logits_batch(out);
      for (std::size_t i = 0; i < batch; ++i) {
        const auto want = reference(spec, images[i]);
        ASSERT_EQ(logits[i].size(), want.size());
        for (std::size_t t = 0; t < want.size(); ++t) {
          EXPECT_NEAR(logits[i][t], static_cast<double>(want[t]), tol)
              << "image " << i << " logit " << t;
        }
      }
    }
  }
}

TEST(HybridDiagonals, RnsMatchesSpecAndCostReport) {
  RnsBackend backend(tiny_params());
  expect_matches_plan(backend);
}

TEST(HybridDiagonals, BigMatchesSpecAndCostReport) {
  BigBackend backend(tiny_params());
  expect_matches_plan(backend);
}

/// An untrained model of `arch` with every parameter perturbed, so the SLAF
/// coefficients are nonzero.
TrainedModel perturbed_model(Arch arch, std::uint64_t seed) {
  Prng prng(seed);
  TrainedModel m;
  m.arch = arch;
  m.activation = Activation::kSlaf;
  m.network = build_network(arch, Activation::kSlaf, seed);
  for (Param* p : m.network->params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value[i] += 0.05f * static_cast<float>(prng.normal());
    }
  }
  return m;
}

/// N = 2^11 (1024 slots, so batch 1 at the models' 1024-slot tile) with
/// enough primes for CNN2's depth of 10.
CkksParams paper_model_params() {
  CkksParams p = CkksParams::test_small();
  p.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26};
  return p;
}

TEST(HybridDiagonals, PaperModelStageCounts) {
  RnsBackend backend(paper_model_params());
  HeModelOptions options;
  options.encrypted_weights = false;
  options.rns_branches = 3;

  // CNN1: the gapped conv keeps its 101 diagonals per branch and does not
  // fold; dense 1024->64 folds 16 periods of 64, dense 64->10 64 of 16.
  const HeModel cnn1(backend, compile_model(perturbed_model(Arch::kCnn1, 1)),
                     options);
  const auto c1 = cnn1.cost_report();
  ASSERT_EQ(c1.size(), 5u);
  EXPECT_EQ(c1[0].diagonals, 303u);
  EXPECT_EQ(c1[0].folds, 0u);
  EXPECT_EQ(c1[2].name, "linear 1024->64");
  EXPECT_EQ(c1[2].diagonals, 64u);
  EXPECT_EQ(c1[2].folds, 4u);
  EXPECT_EQ(c1[4].name, "linear 64->10");
  EXPECT_EQ(c1[4].diagonals, 16u);
  EXPECT_EQ(c1[4].folds, 6u);

  // CNN2: the convs span the tile; dense 160->64 (input span 1024) folds
  // like CNN1's first dense layer.
  const HeModel cnn2(backend, compile_model(perturbed_model(Arch::kCnn2, 1)),
                     options);
  const auto c2 = cnn2.cost_report();
  ASSERT_EQ(c2.size(), 6u);
  EXPECT_EQ(c2[0].folds, 0u);
  EXPECT_EQ(c2[2].folds, 0u);
  EXPECT_EQ(c2[4].name, "linear 1024->64");
  EXPECT_EQ(c2[4].diagonals, 64u);
  EXPECT_EQ(c2[4].folds, 4u);
  EXPECT_EQ(c2[5].diagonals, 16u);
  EXPECT_EQ(c2[5].folds, 6u);
}

TEST(HybridDiagonals, Cnn2ForwardMatchesSpec) {
  // CNN2's Dense(160->64) -> Dense(64->10) head has no activation between
  // the layers, so the second reads the first's period-64 copies directly;
  // its columns past 64 are zero, so the copies must not reach the logits.
  RnsBackend backend(paper_model_params());
  const ModelSpec spec = compile_model(perturbed_model(Arch::kCnn2, 2));
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, spec, options);
  const auto img = random_image(784, 7);
  const auto want = reference(spec, img);
  const InferenceResult got = model.infer(img);
  ASSERT_FALSE(got.degraded);
  ASSERT_EQ(got.logits.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    EXPECT_NEAR(got.logits[t], static_cast<double>(want[t]), 1e-2)
        << "logit " << t;
  }
}

}  // namespace
}  // namespace pphe
