#include "core/models.hpp"

#include <gtest/gtest.h>

#include "ckks/rns_backend.hpp"
#include "common/check.hpp"
#include "common/prng.hpp"
#include "core/he_model.hpp"

namespace pphe {
namespace {

TEST(BuildNetwork, Cnn1ShapesFlowThrough) {
  auto net = build_network(Arch::kCnn1, Activation::kSlaf, 1);
  Tensor x({2, 1, 28, 28});
  const Tensor y = net->forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 10}));
}

TEST(BuildNetwork, Cnn2ShapesFlowThrough) {
  auto net = build_network(Arch::kCnn2, Activation::kSlaf, 1);
  Tensor x({2, 1, 28, 28});
  const Tensor y = net->forward(x, false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 10}));
}

TEST(BuildNetwork, ReluAndSquareVariants) {
  for (const auto act : {Activation::kRelu, Activation::kSquare}) {
    auto net = build_network(Arch::kCnn1, act, 2);
    Tensor x({1, 1, 28, 28});
    EXPECT_NO_THROW(net->forward(x, false));
  }
}

TEST(CompileModel, ReluRejected) {
  TrainedModel m;
  m.arch = Arch::kCnn1;
  m.activation = Activation::kRelu;
  m.network = build_network(Arch::kCnn1, Activation::kRelu, 1);
  EXPECT_THROW(compile_model(m), Error);
}

/// An untrained model of `arch` with every parameter perturbed, so SLAF
/// coefficients are nonzero and batch norm has nontrivial running stats.
TrainedModel perturbed_model(Arch arch, std::uint64_t seed, Prng& prng,
                             Activation act = Activation::kSlaf) {
  TrainedModel m;
  m.arch = arch;
  m.activation = act;
  m.network = build_network(arch, act, seed);
  for (Param* p : m.network->params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      p->value[i] += 0.05f * static_cast<float>(prng.normal());
    }
  }
  Tensor warm({8, 1, 28, 28});
  for (std::size_t i = 0; i < warm.size(); ++i) {
    warm[i] = static_cast<float>(prng.uniform_double());
  }
  m.network->forward(warm, true);  // move BN running stats
  return m;
}

bool row_is_zero(const LinearSpec& lin, std::size_t row) {
  if (lin.bias[row] != 0.0f) return false;
  for (std::size_t col = 0; col < lin.in_dim; ++col) {
    if (lin.at(row, col) != 0.0f) return false;
  }
  return true;
}

bool column_is_zero(const LinearSpec& lin, std::size_t col) {
  for (std::size_t row = 0; row < lin.out_dim; ++row) {
    if (lin.at(row, col) != 0.0f) return false;
  }
  return true;
}

TEST(CompileModel, Cnn1StageStructure) {
  TrainedModel m;
  m.arch = Arch::kCnn1;
  m.activation = Activation::kSlaf;
  m.network = build_network(Arch::kCnn1, Activation::kSlaf, 1);
  const ModelSpec spec = compile_model(m);
  ASSERT_EQ(spec.stages.size(), 5u);
  EXPECT_EQ(spec.stages[0].kind, ModelSpec::Stage::Kind::kLinear);
  EXPECT_EQ(spec.stages[0].linear.in_dim, 784u);
  // The conv writes its 5x12x12 = 720 outputs into a gapped 1024-slot span.
  EXPECT_EQ(spec.stages[0].linear.out_dim, 1024u);
  EXPECT_EQ(spec.stages[0].linear.live_outputs(), 720u);
  EXPECT_EQ(spec.stages[0].linear.label(), "784->720 [1024 slots]");
  EXPECT_EQ(spec.stages[1].kind, ModelSpec::Stage::Kind::kActivation);
  EXPECT_EQ(spec.stages[1].activation.features, 1024u);
  EXPECT_EQ(spec.stages[2].linear.in_dim, 1024u);
  EXPECT_EQ(spec.stages[2].linear.out_dim, 64u);
  EXPECT_EQ(spec.stages[2].linear.label(), "1024->64");
  EXPECT_EQ(spec.stages[4].linear.out_dim, 10u);
  // depth: 3 linears + 2 degree-3 activations = 3 + 2*3 = 9.
  EXPECT_EQ(spec.depth(), 9u);
}

TEST(CompileModel, Cnn2StageStructureAndDepth) {
  TrainedModel m;
  m.arch = Arch::kCnn2;
  m.activation = Activation::kSlaf;
  m.network = build_network(Arch::kCnn2, Activation::kSlaf, 1);
  const ModelSpec spec = compile_model(m);
  ASSERT_EQ(spec.stages.size(), 6u);
  EXPECT_EQ(spec.stages[0].linear.out_dim, 1024u);
  EXPECT_EQ(spec.stages[0].linear.live_outputs(), 720u);
  EXPECT_EQ(spec.stages[2].linear.in_dim, 1024u);
  EXPECT_EQ(spec.stages[2].linear.out_dim, 1024u);
  EXPECT_EQ(spec.stages[2].linear.live_outputs(), 160u);
  EXPECT_EQ(spec.stages[4].linear.in_dim, 1024u);
  EXPECT_EQ(spec.stages[4].linear.out_dim, 64u);
  // 4 linears + 2 degree-3 activations = 10.
  EXPECT_EQ(spec.depth(), 10u);
}

TEST(CompileModel, LoweredConvMatchesNetworkForward) {
  // eval_spec on the lowered matrices must equal the network's own forward
  // (including folded batch norm in eval mode), through the gapped layout.
  for (const Arch arch : {Arch::kCnn1, Arch::kCnn2}) {
    for (const Activation act : {Activation::kSlaf, Activation::kSquare}) {
      SCOPED_TRACE(arch_name(arch) +
                   (act == Activation::kSlaf ? " SLAF" : " Square"));
      Prng prng(17);
      const TrainedModel m = perturbed_model(arch, 3, prng, act);
      const ModelSpec spec = compile_model(m);
      Tensor x({1, 1, 28, 28});
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(prng.uniform_double());
      }
      const Tensor want = m.network->forward(x, false);
      const auto got = eval_spec(
          spec, std::vector<float>(x.data(), x.data() + 784));
      ASSERT_EQ(got.size(), 10u);
      for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-3) << i;
      }
    }
  }
}

TEST(CompileModel, GappedConvLayout) {
  // Every live conv output owns a distinct slot below the 1024 tile, and
  // every hole is inert: zero weights and bias in the conv row, zero SLAF
  // coefficients, and a zero column in the next linear stage.
  struct Case {
    Arch arch;
    std::vector<std::size_t> live_per_conv;
  };
  for (const Case& tc : {Case{Arch::kCnn1, {720}},
                         Case{Arch::kCnn2, {720, 160}}}) {
    SCOPED_TRACE(arch_name(tc.arch));
    Prng prng(5);
    const ModelSpec spec = compile_model(perturbed_model(tc.arch, 4, prng));
    // Each conv is stage 2*i, followed by its SLAF and the next linear.
    for (std::size_t i = 0; i < tc.live_per_conv.size(); ++i) {
      const LinearSpec& lin = spec.stages[2 * i].linear;
      const ActivationSpec& act = spec.stages[2 * i + 1].activation;
      const LinearSpec& next = spec.stages[2 * i + 2].linear;
      ASSERT_EQ(lin.out_dim, 1024u);
      ASSERT_EQ(act.features, lin.out_dim);
      ASSERT_EQ(next.in_dim, lin.out_dim);
      std::size_t live = 0, live_coeffs = 0;
      for (std::size_t row = 0; row < lin.out_dim; ++row) {
        bool coeff_zero = true;
        for (std::size_t p = 0; p <= act.degree; ++p) {
          coeff_zero = coeff_zero && act.coeff(row, p) == 0.0f;
        }
        if (row_is_zero(lin, row)) {
          EXPECT_TRUE(coeff_zero) << "hole slot " << row;
          EXPECT_TRUE(column_is_zero(next, row)) << "hole slot " << row;
        } else {
          ++live;
        }
        if (!coeff_zero) ++live_coeffs;
      }
      // Outputs sharing a slot would overwrite each other's row.
      EXPECT_EQ(live, tc.live_per_conv[i]);
      EXPECT_EQ(live_coeffs, tc.live_per_conv[i]);
    }
  }
}

TEST(CompileModel, Cnn1ChannelOffsets) {
  // Input pixel (0, 0) feeds exactly the outputs (f, 0, 0), which sit at the
  // channel offsets Y_f: the lexicographically smallest disjoint placement.
  Prng prng(9);
  const ModelSpec spec = compile_model(perturbed_model(Arch::kCnn1, 2, prng));
  const LinearSpec& conv = spec.stages[0].linear;
  std::vector<std::size_t> rows;
  for (std::size_t row = 0; row < conv.out_dim; ++row) {
    if (conv.at(row, 0) != 0.0f) rows.push_back(row);
  }
  EXPECT_EQ(rows, (std::vector<std::size_t>{0, 1, 24, 305, 665}));
}

TEST(CompileModel, UnplaceableConvChannelsThrow) {
  // A 1x1 conv 5->7 on CNN1's conv output needs 7 disjoint shifts of its
  // 144-slot stride-2 lattice in 1024 slots. The compact 1008 outputs would
  // fit, but no gapped placement exists, and there is no compact fallback.
  Prng prng(1);
  TrainedModel m;
  m.arch = Arch::kCnn1;
  m.activation = Activation::kSquare;
  m.network = std::make_unique<Network>();
  m.network->emplace<Conv2D>(1, 5, 5, 2, prng);
  m.network->emplace<Conv2D>(5, 7, 1, 1, prng);
  try {
    compile_model(m);
    FAIL() << "expected a placement error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot place 7 conv output channels"),
              std::string::npos)
        << e.what();
  }
}

TEST(CompileModel, GappedConvHasFewDiagonals) {
  // At the 1024-slot tile of N = 2^11 a 1->5 5x5 conv has at most
  // 1*5*25 = 125 diagonals per branch (the compact layout had 1024).
  TrainedModel m;
  m.arch = Arch::kCnn1;
  m.activation = Activation::kSlaf;
  m.network = build_network(Arch::kCnn1, Activation::kSlaf, 1);
  const ModelSpec spec = compile_model(m);
  CkksParams params = CkksParams::test_small();
  params.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26, 26, 26, 26};
  RnsBackend backend(params);
  ASSERT_EQ(backend.slot_count(), 1024u);
  HeModelOptions options;
  options.encrypted_weights = false;
  options.rns_branches = 3;
  const HeModel model(backend, spec, options);
  const auto report = model.cost_report();
  ASSERT_EQ(report.size(), spec.stages.size());
  EXPECT_EQ(report[0].name, "linear 784->720 [1024 slots]");
  EXPECT_EQ(report[0].tile, 1024u);
  EXPECT_LE(report[0].diagonals, 125u * options.rns_branches);
  EXPECT_EQ(report[1].name, "activation deg 3 (1024 slots)");
}

TEST(TrainProtocol, SlafProtocolLearnsSomething) {
  const Dataset train_set = generate_synthetic_mnist(600, 11);
  const Dataset test_set = generate_synthetic_mnist(200, 12);
  ProtocolConfig cfg;
  cfg.relu_epochs = 5;
  cfg.slaf_epochs = 4;
  cfg.seed = 5;
  const TrainedModel m =
      train_protocol(Arch::kCnn1, Activation::kSlaf, train_set, test_set, cfg);
  EXPECT_GT(m.test_accuracy, 60.0f);  // far above the 10% chance level
  EXPECT_EQ(m.activation, Activation::kSlaf);
}

TEST(EvalSpec, DimensionMismatchThrows) {
  ModelSpec spec;
  ModelSpec::Stage stage;
  stage.kind = ModelSpec::Stage::Kind::kLinear;
  stage.linear.in_dim = 4;
  stage.linear.out_dim = 2;
  stage.linear.weight.assign(8, 1.0f);
  stage.linear.bias.assign(2, 0.0f);
  spec.stages.push_back(stage);
  EXPECT_THROW(eval_spec(spec, std::vector<float>(3, 1.0f)), Error);
}

TEST(ArchName, Names) {
  EXPECT_EQ(arch_name(Arch::kCnn1), "CNN1");
  EXPECT_EQ(arch_name(Arch::kCnn2), "CNN2");
}

}  // namespace
}  // namespace pphe
