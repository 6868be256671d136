#include "core/he_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "ckks/big_backend.hpp"
#include "ckks/rns_backend.hpp"
#include "common/check.hpp"
#include "common/prng.hpp"
#include "core/models.hpp"

namespace pphe {
namespace {

/// Small parameters with enough chain for a linear-act(3)-linear spec
/// (depth 1 + 3 + 1 = 5) at N = 2^11.
CkksParams tiny_params() {
  CkksParams p = CkksParams::test_small();
  p.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26};
  return p;
}

/// Random linear(in->mid) -> SLAF(deg) -> linear(mid->out) spec with small
/// weights, so plaintext reference values stay O(1).
ModelSpec tiny_spec(std::size_t in, std::size_t mid, std::size_t out,
                    std::size_t degree, std::uint64_t seed) {
  Prng prng(seed);
  ModelSpec spec;
  spec.name = "tiny";
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
  spec.stages.push_back(linear(in, mid));
  {
    ModelSpec::Stage s;
    s.kind = ModelSpec::Stage::Kind::kActivation;
    s.activation.features = mid;
    s.activation.degree = degree;
    s.activation.coeffs.resize(mid * (degree + 1));
    for (auto& c : s.activation.coeffs) {
      c = static_cast<float>(prng.normal() * 0.2);
    }
    spec.stages.push_back(std::move(s));
  }
  spec.stages.push_back(linear(mid, out));
  return spec;
}

std::vector<float> random_image(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<float> img(n);
  for (auto& v : img) v = static_cast<float>(prng.uniform_double());
  return img;
}

/// HE logits must agree with the plaintext evaluation of the same spec on the
/// QUANTIZED image (the engine quantizes pixels to pixel_levels).
void expect_matches_plaintext(HeBackend& backend, const ModelSpec& spec,
                              const HeModelOptions& options, double tol) {
  const HeModel model(backend, spec, options);
  const auto img = random_image(spec.stages[0].linear.in_dim, 99);
  std::vector<float> quantized(img.size());
  for (std::size_t i = 0; i < img.size(); ++i) {
    quantized[i] = std::round(img[i] * 255.0f) / 255.0f;
  }
  const auto want = eval_spec(spec, quantized);
  const InferenceResult got = model.infer(img);
  ASSERT_EQ(got.logits.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got.logits[i], static_cast<double>(want[i]), tol) << i;
  }
}

TEST(HeModel, RnsPlaintextWeightsMatchesReference) {
  RnsBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = false;
  expect_matches_plaintext(backend, tiny_spec(12, 8, 5, 3, 1), options, 5e-2);
}

TEST(HeModel, RnsEncryptedWeightsMatchesReference) {
  RnsBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = true;  // the paper's eq. (1) setting
  expect_matches_plaintext(backend, tiny_spec(12, 8, 5, 3, 2), options, 8e-2);
}

TEST(HeModel, BigBackendMatchesReference) {
  BigBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = true;
  expect_matches_plaintext(backend, tiny_spec(12, 8, 5, 3, 3), options, 8e-2);
}

TEST(HeModel, DigitBranchDecompositionIsExact) {
  // Fig. 5 branches: 1, 2, 3 branches must all yield the same logits
  // (digit recombination is linear and folded into the weights).
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 3, 4);
  const auto img = random_image(12, 50);
  std::vector<double> reference;
  for (const std::size_t k : {1u, 2u, 3u}) {
    HeModelOptions options;
    options.encrypted_weights = false;
    options.rns_branches = k;
    const HeModel model(backend, spec, options);
    const auto got = model.infer(img).logits;
    if (reference.empty()) {
      reference = got;
    } else {
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], reference[i], 5e-2) << "k=" << k;
      }
    }
  }
}

TEST(HeModel, SquareActivationDegreeTwo) {
  RnsBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = false;
  expect_matches_plaintext(backend, tiny_spec(10, 6, 4, 2, 5), options, 5e-2);
}

TEST(HeModel, LevelsUsedMatchesSpecDepth) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 3, 6);
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, spec, options);
  EXPECT_EQ(model.levels_used(), static_cast<int>(spec.depth()));
}

TEST(HeModel, DepthBeyondChainThrows) {
  CkksParams p = CkksParams::test_small();  // 5 primes -> 4 rescales
  RnsBackend backend(p);
  const ModelSpec spec = tiny_spec(12, 8, 5, 3, 7);  // needs 5
  HeModelOptions options;
  options.encrypted_weights = false;
  EXPECT_THROW(HeModel(backend, spec, options), Error);
}

TEST(HeModel, RotationStepsAreRegistered) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 3, 8);
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, spec, options);
  EXPECT_FALSE(model.rotation_steps().empty());
  for (const int s : model.rotation_steps()) {
    EXPECT_GT(s, 0);
    EXPECT_LT(s, static_cast<int>(backend.slot_count()));
  }
}

TEST(HeModel, Cnn1EncryptedWeightGaloisKeysAreLevelTrimmed) {
  // The Table III plan (CNN1, encrypted weights, k = 3, fast profile)
  // rotates only at the input levels of its linear stages, so each key is
  // built for its stage's level instead of the whole 12-prime chain.
  TrainedModel m;
  m.arch = Arch::kCnn1;
  m.activation = Activation::kSlaf;
  m.network = build_network(Arch::kCnn1, Activation::kSlaf, 1);
  const ModelSpec spec = compile_model(m);
  RnsBackend backend(CkksParams::fast_profile());
  HeModelOptions options;
  options.encrypted_weights = true;
  options.rns_branches = 3;
  const HeModel model(backend, spec, options);

  std::map<int, std::size_t> keys_per_level;
  std::uint64_t want_bytes = 0;
  for (const GaloisKeyRequest& key : model.galois_keys()) {
    ++keys_per_level[key.level];
    // level + 1 digits x (b, a) x level + 2 channels, plus the Shoup table.
    const auto l = static_cast<std::uint64_t>(key.level);
    want_bytes += 2 * 2 * (l + 1) * (l + 2) * backend.params().degree * 8;
  }
  EXPECT_EQ(keys_per_level, (std::map<int, std::size_t>{{5, 6}, {9, 66}}));
  EXPECT_EQ(backend.galois_key_stats().keys, 72u);
  EXPECT_EQ(backend.galois_key_stats().bytes, want_bytes);
}

TEST(HeModel, CostReportCountsStages) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 3, 9);
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, spec, options);
  const auto report = model.cost_report();
  ASSERT_EQ(report.size(), 3u);
  EXPECT_GT(report[0].diagonals, 0u);
  EXPECT_EQ(report[1].relins, 3u);  // degree-3 activation
  EXPECT_GE(report[0].level_in, report[2].level_in);
}

TEST(HeModel, TimingFieldsPopulated) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 2, 10);
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, spec, options);
  const auto result = model.infer(random_image(12, 1));
  EXPECT_GT(result.encrypt_seconds, 0.0);
  EXPECT_GT(result.eval_seconds, 0.0);
  EXPECT_GT(result.decrypt_seconds, 0.0);
  EXPECT_GE(result.predicted, 0);
  EXPECT_LT(result.predicted, 5);
}

TEST(HeModel, MeasuredErrorWithinPredictedBound) {
  // The NoiseTracker bound propagated through the plan must dominate the
  // measured logit error on both backends, for plaintext and encrypted
  // weights, with and without the input split into digit branches (the
  // branch-sum loop of run_linear).
  RnsBackend rns(tiny_params());
  BigBackend big(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 3, 20);
  const auto img = random_image(12, 77);
  std::vector<float> quantized(img.size());
  for (std::size_t i = 0; i < img.size(); ++i) {
    quantized[i] = std::round(img[i] * 255.0f) / 255.0f;
  }
  const auto want = eval_spec(spec, quantized);
  for (HeBackend* backend : std::initializer_list<HeBackend*>{&rns, &big}) {
    for (const bool enc_w : {false, true}) {
      for (const std::size_t k : {1u, 3u}) {
        HeModelOptions options;
        options.encrypted_weights = enc_w;
        options.rns_branches = k;
        const HeModel model(*backend, spec, options);
        EXPECT_GT(model.predicted_output_error(), 0.0);

        const auto got = model.infer(img).logits;
        ASSERT_EQ(got.size(), want.size());
        double measured = 0.0;
        for (std::size_t i = 0; i < want.size(); ++i) {
          measured = std::max(measured,
                              std::abs(got[i] - static_cast<double>(want[i])));
        }
        const std::string where = backend->name() + ", " +
                                  (enc_w ? "encrypted" : "plaintext") +
                                  " weights, k=" + std::to_string(k);
        EXPECT_LT(measured, model.predicted_output_error()) << where;
        // The analytic bound is loose (>= 35 here against a measured
        // <= 0.031), so it would not notice a lost digit branch, which
        // costs ~0.23. An absolute tolerance pins the branch sum.
        EXPECT_LT(measured, 0.1) << where;
      }
    }
  }
}

TEST(HeModel, BatchedInferenceMatchesPerImage) {
  // options.batch images interleaved in one ciphertext: every image's logits
  // must match its own single-image evaluation.
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 3, 12);
  HeModelOptions single;
  single.encrypted_weights = false;
  const HeModel one(backend, spec, single);

  HeModelOptions batched = single;
  batched.batch = 4;
  const HeModel many(backend, spec, batched);

  std::vector<std::vector<float>> images;
  for (std::uint64_t s = 0; s < 4; ++s) {
    images.push_back(random_image(12, 100 + s));
  }
  const auto batch_result = many.infer_batch(images);
  ASSERT_EQ(batch_result.logits.size(), 4u);
  for (std::size_t img = 0; img < 4; ++img) {
    const auto ref = one.infer(images[img]).logits;
    ASSERT_EQ(batch_result.logits[img].size(), ref.size());
    for (std::size_t t = 0; t < ref.size(); ++t) {
      EXPECT_NEAR(batch_result.logits[img][t], ref[t], 8e-2)
          << "image " << img << " logit " << t;
    }
    EXPECT_EQ(batch_result.predicted[img], one.infer(images[img]).predicted);
  }
}

TEST(HeModel, BatchMustBePowerOfTwoAndFit) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 2, 13);
  HeModelOptions options;
  options.encrypted_weights = false;
  options.batch = 3;  // not a power of two
  EXPECT_THROW(HeModel(backend, spec, options), Error);
  options.batch = backend.slot_count();  // tile * batch > slots
  EXPECT_THROW(HeModel(backend, spec, options), Error);
}

TEST(HeModel, SingleImageInferRejectsBatchModel) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 2, 14);
  HeModelOptions options;
  options.encrypted_weights = false;
  options.batch = 2;
  const HeModel model(backend, spec, options);
  const auto img = random_image(12, 1);
  EXPECT_THROW(model.infer(img), Error);
}

TEST(HeModel, WrongInputSizeThrows) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 2, 11);
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, spec, options);
  const auto img = random_image(11, 1);
  EXPECT_THROW(model.infer(img), Error);
}

TEST(HeModel, PlannedBudgetsArePositiveAndOrdered) {
  RnsBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, tiny_spec(12, 8, 5, 2, 21), options);
  // Evaluation consumes modulus, so the output budget is strictly smaller.
  EXPECT_GT(model.planned_output_budget_bits(), 0.0);
  EXPECT_GT(model.planned_input_budget_bits(),
            model.planned_output_budget_bits());
}

TEST(HeModel, NoiseGuardrailRefusesWithTypedErrorNotGarbage) {
  RnsBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = false;
  options.min_noise_budget_bits = 1e6;  // unreachable floor
  const HeModel model(backend, tiny_spec(12, 8, 5, 2, 22), options);
  const auto img = random_image(12, 3);
  try {
    model.eval(model.encrypt_input(img));
    FAIL() << "expected Error(kNoiseBudget)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNoiseBudget);
  }
  // infer() reports the refusal as a typed degraded result.
  const InferenceResult r = model.infer(img);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.logits.empty());
  EXPECT_EQ(r.predicted, -1);
}

TEST(HeModel, NoiseGuardrailPassesWithAchievableFloor) {
  RnsBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel probe(backend, tiny_spec(12, 8, 5, 2, 23), options);
  // A floor just under the planned output budget admits fresh inputs.
  options.min_noise_budget_bits = probe.planned_output_budget_bits() - 1.0;
  ASSERT_GT(options.min_noise_budget_bits, 0.0);
  const HeModel model(backend, tiny_spec(12, 8, 5, 2, 23), options);
  const InferenceResult r = model.infer(random_image(12, 4));
  EXPECT_FALSE(r.degraded);
  EXPECT_FALSE(r.logits.empty());
}

TEST(HeModel, NoiseGuardrailChargesInputDeficit) {
  RnsBackend backend(tiny_params());
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel probe(backend, tiny_spec(12, 8, 5, 2, 24), options);
  options.min_noise_budget_bits = probe.planned_output_budget_bits() - 1.0;
  const HeModel model(backend, tiny_spec(12, 8, 5, 2, 24), options);
  auto inputs = model.encrypt_input(random_image(12, 5));
  // Dropping a prime from the inputs costs ~26 bits of budget: the deficit
  // pushes the projected output budget below the floor BEFORE the level
  // checks would reject the plan mismatch — the guard owns this failure.
  for (auto& ct : inputs) {
    ct = backend.mod_drop_to(ct, ct.level() - 1);
  }
  try {
    model.eval(inputs);
    FAIL() << "expected Error(kNoiseBudget)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNoiseBudget);
  }
}

TEST(WeightOperandCache, EncodesEachDistinctKeyOnce) {
  RnsBackend backend(tiny_params());
  auto cache = std::make_shared<WeightOperandCache>();
  int made = 0;
  const std::vector<double> v1{1.0, 2.0, 3.0};
  const std::vector<double> v2{1.0, 2.0, 4.0};
  const auto factory = [&]() -> WeightOperand {
    ++made;
    return backend.encode(v1, 1024.0, 1);
  };
  (void)cache->get_or_make(backend, false, v1, 1024.0, 1, factory);
  (void)cache->get_or_make(backend, false, v1, 1024.0, 1, factory);  // hit
  (void)cache->get_or_make(backend, false, v2, 1024.0, 1, factory);  // values
  (void)cache->get_or_make(backend, false, v1, 2048.0, 1, factory);  // scale
  (void)cache->get_or_make(backend, false, v1, 1024.0, 0, factory);  // level
  (void)cache->get_or_make(backend, true, v1, 1024.0, 1, factory);   // enc
  EXPECT_EQ(made, 5);
  const auto stats = cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.entries, 5u);

  // The hit returns the SAME handle, not a re-encode.
  const WeightOperand a =
      cache->get_or_make(backend, false, v1, 1024.0, 1, factory);
  const WeightOperand b =
      cache->get_or_make(backend, false, v1, 1024.0, 1, factory);
  EXPECT_EQ(std::get<Plaintext>(a).impl().get(),
            std::get<Plaintext>(b).impl().get());

  cache->clear();
  EXPECT_EQ(cache->stats().entries, 0u);
}

TEST(WeightOperandCache, SharedCacheDedupesAcrossModels) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = tiny_spec(12, 8, 5, 2, 11);
  HeModelOptions options;
  options.encrypted_weights = false;
  options.weight_cache = std::make_shared<WeightOperandCache>();

  const HeModel first(backend, spec, options);
  const auto after_first = options.weight_cache->stats();
  EXPECT_GT(after_first.misses, 0u);

  // Compiling the identical spec again must hit for every weight.
  const HeModel second(backend, spec, options);
  const auto after_second = options.weight_cache->stats();
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GE(after_second.hits, after_first.misses);

  // And the cached-weight model still computes the right logits. Each infer
  // encrypts the image with fresh randomness, so the two runs agree only up
  // to CKKS encryption noise, not bit-exactly.
  const auto img = random_image(12, 7);
  const auto want = first.infer(img).logits;
  const auto got = second.infer(img).logits;
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-3);
  }
}

}  // namespace
}  // namespace pphe
