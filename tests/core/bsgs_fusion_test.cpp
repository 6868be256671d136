// Double-hoisted BSGS (DESIGN.md §14): the fused linear_bsgs path must
// produce the same logits as the no-hoist schedule (UnhoistedRnsBackend),
// and the kKswInner / kModDown counters must match the rotation plan
// exactly — one digit decomposition per unique operand, ONE mod-down per
// giant group plus the layer epilogue. The counter test is the fusion
// regression gate: a refactor that silently falls back to per-rotation key
// switching changes the counts even if the logits stay correct.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ckks/rns_backend.hpp"
#include "common/prng.hpp"
#include "core/he_model.hpp"
#include "core/rotation_plan.hpp"

namespace pphe {
namespace {

CkksParams tiny_params() {
  CkksParams p = CkksParams::test_small();
  p.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26};
  return p;
}

// Dense (every weight nonzero) stages so the diagonal set is full and the
// baby/giant split has something to optimize: linear 24->16, square-ish
// activation, linear 16->16. Depth 4 puts the first linear at a level with
// enough primes that the cost model keeps at least one giant group.
ModelSpec dense_spec(std::uint64_t seed) {
  Prng prng(seed);
  ModelSpec spec;
  spec.name = "bsgs-fusion";
  auto linear = [&](std::size_t i, std::size_t o) {
    ModelSpec::Stage s;
    s.kind = ModelSpec::Stage::Kind::kLinear;
    s.linear.in_dim = i;
    s.linear.out_dim = o;
    s.linear.weight.resize(i * o);
    s.linear.bias.resize(o);
    for (auto& w : s.linear.weight) {
      w = static_cast<float>(prng.normal() * 0.2 + 0.05);
    }
    for (auto& b : s.linear.bias) {
      b = static_cast<float>(prng.normal() * 0.1);
    }
    return s;
  };
  spec.stages.push_back(linear(24, 16));
  {
    ModelSpec::Stage s;
    s.kind = ModelSpec::Stage::Kind::kActivation;
    s.activation.features = 16;
    s.activation.degree = 2;
    s.activation.coeffs.resize(16 * 3);
    for (auto& c : s.activation.coeffs) {
      c = static_cast<float>(prng.normal() * 0.2);
    }
    spec.stages.push_back(std::move(s));
  }
  spec.stages.push_back(linear(16, 16));
  return spec;
}

std::vector<float> random_image(std::size_t n, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<float> img(n);
  for (auto& v : img) v = static_cast<float>(prng.uniform_double());
  return img;
}

TEST(RotationPlanTest, UnfusedKeepsLegacySqrtSplit) {
  std::set<std::size_t> diag;
  for (std::size_t i = 0; i < 64; ++i) diag.insert(i);
  const RotationPlan p = RotationPlan::choose(diag, 64, 8, 12, false);
  EXPECT_FALSE(p.fused);
  EXPECT_EQ(p.giant, 16u);  // 1 << (log2(64)/2 + 1)
  // Single-hoisted babies each pay a mod-down; giants one each.
  EXPECT_EQ(p.moddowns, p.unique_babies + p.unique_giants);
}

TEST(RotationPlanTest, FusedSplitAndInvariants) {
  std::set<std::size_t> diag;
  for (std::size_t i = 0; i < 64; ++i) diag.insert(i);
  const RotationPlan at8 = RotationPlan::evaluate(diag, 8, 8, 12, true);
  EXPECT_EQ(at8.unique_babies, 7u);
  EXPECT_EQ(at8.unique_giants, 7u);
  EXPECT_EQ(at8.groups, 8u);
  EXPECT_EQ(at8.moddowns, 8u);          // one per nonzero giant + epilogue
  EXPECT_EQ(at8.decompositions, 8u);    // input hoist + one per giant

  const RotationPlan best = RotationPlan::choose(diag, 64, 8, 12, true);
  EXPECT_TRUE(best.fused);
  EXPECT_EQ(best.moddowns, best.unique_giants + 1);
  // The searched split can never cost more than any fixed candidate.
  EXPECT_LE(best.cost, at8.cost);
  EXPECT_LE(best.cost, RotationPlan::evaluate(diag, 16, 8, 12, true).cost);
}

TEST(RotationPlanTest, EmptyDiagonalSetIsFree) {
  const RotationPlan p = RotationPlan::choose({}, 64, 8, 12, true);
  EXPECT_EQ(p.groups, 0u);
  EXPECT_EQ(p.moddowns, 0u);
  EXPECT_EQ(p.unique_babies, 0u);
  EXPECT_EQ(p.unique_giants, 0u);
}

TEST(BsgsFusion, FusedMatchesUnfusedLogits) {
  RnsBackend hoisted(tiny_params());
  UnhoistedRnsBackend unhoisted(tiny_params());
  const ModelSpec spec = dense_spec(17);
  const auto img = random_image(24, 5);
  std::vector<double> reference;
  for (const bool fused : {false, true}) {
    HeModelOptions options;
    options.encrypted_weights = false;
    const HeModel model(fused ? static_cast<HeBackend&>(hoisted) : unhoisted,
                        spec, options);
    const InferenceResult result = model.infer(img);
    ASSERT_FALSE(result.degraded);
    if (!fused) {
      reference = result.logits;
      continue;
    }
    // The fused plan must engage on every linear stage, and only there.
    for (const auto& cost : model.cost_report()) {
      if (cost.name.rfind("linear", 0) == 0) {
        EXPECT_EQ(cost.fused, fused) << cost.name;
      }
    }
    ASSERT_EQ(result.logits.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      // Same math, different rounding points (one deferred mod-down instead
      // of one per rotation): equal within CKKS noise, not bitwise.
      EXPECT_NEAR(result.logits[i], reference[i], 5e-2) << "logit " << i;
    }
  }
}

TEST(BsgsFusion, OpCountersMatchCostReport) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = dense_spec(23);
  HeModelOptions options;
  options.encrypted_weights = false;
  const HeModel model(backend, spec, options);

  // Expected counter totals from the plan: linear stages contribute their
  // cost-report numbers (each hybrid-diagonal fold is one more rotation and
  // mod-down); a degree-d activation relinearizes its d-1 power
  // products (each one key switch = one inner product + one mod-down; the
  // final accumulator stays size-2 with plaintext weights).
  const auto report = model.cost_report();
  ASSERT_EQ(report.size(), spec.stages.size());
  std::size_t want_inner = 0, want_moddown = 0;
  bool any_giant = false;
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    if (spec.stages[s].kind == ModelSpec::Stage::Kind::kLinear) {
      ASSERT_TRUE(report[s].fused) << report[s].name;
      EXPECT_EQ(report[s].moddowns,
                report[s].giant_groups + 1 + report[s].folds)
          << report[s].name;
      want_inner += report[s].rotations;
      want_moddown += report[s].moddowns;
      any_giant = any_giant || report[s].giant_groups > 0;
    } else {
      const std::size_t relins = spec.stages[s].activation.degree - 1;
      want_inner += relins;
      want_moddown += relins;
    }
  }
  // At least one stage must keep a giant group, or the per-group mod-down
  // path is not exercised (the cost model picked all-babies everywhere).
  EXPECT_TRUE(any_giant);

  const auto inputs = model.encrypt_input(random_image(24, 9));
  backend.reset_op_counts();
  const Ciphertext out = model.eval(inputs);
  EXPECT_EQ(backend.op_count(OpKind::kKswInner), want_inner);
  EXPECT_EQ(backend.op_count(OpKind::kModDown), want_moddown);
  EXPECT_EQ(model.decrypt_logits(out).size(), 16u);
}

TEST(BsgsFusion, EncryptedWeightsFallBackToGenericPath) {
  RnsBackend backend(tiny_params());
  const ModelSpec spec = dense_spec(29);
  HeModelOptions options;
  options.encrypted_weights = true;
  const HeModel model(backend, spec, options);

  // The generic schedule on RNS: one inner product per rotation, babies
  // paying a mod-down each and the giants of a group table sharing one
  // rotate_sum epilogue (cost_report's moddowns). With ct x ct products
  // every relinearization key-switches: each giant accumulator, the layer
  // sum (the dense diagonal set keeps a giant-0 group) and, in a degree-d
  // activation, the d-1 power products plus the weighted sum.
  const auto report = model.cost_report();
  ASSERT_EQ(report.size(), spec.stages.size());
  std::size_t want_inner = 0, want_moddown = 0;
  for (const auto& cost : report) {
    EXPECT_FALSE(cost.fused) << cost.name;
    want_inner += cost.rotations + cost.relins;
    want_moddown += cost.moddowns + cost.relins;
  }

  const auto inputs = model.encrypt_input(random_image(24, 3));
  backend.reset_op_counts();
  const Ciphertext out = model.eval(inputs);
  EXPECT_EQ(backend.op_count(OpKind::kKswInner), want_inner);
  EXPECT_EQ(backend.op_count(OpKind::kModDown), want_moddown);
  EXPECT_EQ(model.decrypt_logits(out).size(), 16u);
}

}  // namespace
}  // namespace pphe
