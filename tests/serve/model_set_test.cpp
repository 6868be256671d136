// BatchModelSet: lazy per-power-of-two compilation with a shared weight
// cache, plus the typed --batch validation surface (HeModel::validate_batch)
// the CLI layers route through.

#include <gtest/gtest.h>

#include <string>

#include "ckks/rns_backend.hpp"
#include "common/check.hpp"
#include "common/prng.hpp"
#include "serve/model_set.hpp"

namespace pphe::serve {
namespace {

CkksParams tiny_params() {
  CkksParams p = CkksParams::test_small();
  p.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26};
  return p;
}

ModelSpec tiny_spec(std::uint64_t seed) {
  Prng prng(seed);
  ModelSpec spec;
  spec.name = "model-set-tiny";
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
  spec.stages.push_back(linear(12, 8));
  spec.stages.push_back(linear(8, 5));
  return spec;
}

HeModelOptions plain_options() {
  HeModelOptions o;
  o.encrypted_weights = false;
  return o;
}

struct Rig {
  RnsBackend backend;
  BatchModelSet models;
  Rig()
      : backend(tiny_params()),
        models(backend, tiny_spec(21), plain_options()) {}
};

Rig& rig() {
  static Rig r;
  return r;
}

TEST(BatchModelSet, MaxBatchMatchesSlotCapacity) {
  // Largest layer dim 12 -> tile 16; 1024 slots / 16 = 64 images.
  EXPECT_EQ(rig().models.max_batch(), 64u);
  EXPECT_EQ(rig().models.input_dim(), 12u);
}

TEST(BatchModelSet, ModelsAreCachedAndSharedPerSize) {
  const HeModel& a = rig().models.model_for(4);
  const HeModel& b = rig().models.model_for(4);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.options().batch, 4u);
}

TEST(BatchModelSet, PartialSizesRoundUpToTheNextPowerOfTwo) {
  const HeModel& three = rig().models.model_for(3);
  const HeModel& four = rig().models.model_for(4);
  EXPECT_EQ(&three, &four);
  EXPECT_EQ(three.options().batch, 4u);
  EXPECT_EQ(rig().models.model_for(1).options().batch, 1u);
}

TEST(BatchModelSet, MembersShareOneWeightCache) {
  ASSERT_NE(rig().models.weight_cache(), nullptr);
  rig().models.model_for(1);
  const auto before = rig().models.weight_cache()->stats();
  EXPECT_GT(before.entries, 0u);
  rig().models.model_for(2);
  const auto after = rig().models.weight_cache()->stats();
  // The batch-2 compile went through the SAME cache (entries grew or hit).
  EXPECT_GE(after.entries + after.hits, before.entries + before.hits);
  EXPECT_GT(after.misses + after.hits, before.misses + before.hits);
}

TEST(BatchModelSet, EveryGaloisKeyIsBuiltOnce) {
  const ModelSpec spec = tiny_spec(21);
  {
    // Compiled one size after another, each model ensures its own keys, and
    // a step that one size rotates by at a lower level than a later size is
    // built twice: the hazard the model set plans away.
    RnsBackend backend(tiny_params());
    for (std::size_t batch = 1; batch <= 64; batch *= 2) {
      HeModelOptions options = plain_options();
      options.batch = batch;
      const HeModel model(backend, spec, options);
    }
    EXPECT_GT(backend.galois_key_stats().built,
              backend.galois_key_stats().keys);
  }
  RnsBackend backend(tiny_params());
  BatchModelSet models(backend, spec, plain_options());
  const GaloisKeyStats before = backend.galois_key_stats();
  EXPECT_EQ(before.built, before.keys);
  for (std::size_t batch = 1; batch <= models.max_batch(); batch *= 2) {
    models.model_for(batch);
  }
  // Compiling every member builds no key: the union was ensured up front.
  const GaloisKeyStats after = backend.galois_key_stats();
  EXPECT_EQ(after.built, before.built);
  EXPECT_EQ(after.keys, before.keys);
}

TEST(BatchModelSet, OutOfRangeSizesRejectedWithTypedError) {
  for (const std::size_t bad : {std::size_t{0}, std::size_t{65},
                                std::size_t{1024}}) {
    try {
      rig().models.model_for(bad);
      FAIL() << "model_for(" << bad << ") must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << bad;
    }
  }
}

// --- the --batch validation surface (satellite of this PR) ----------------

TEST(ValidateBatch, NonPowerOfTwoRejectedWithAllowedRangeInMessage) {
  for (const std::size_t bad : {3u, 5u, 6u, 7u, 12u, 63u}) {
    try {
      HeModel::validate_batch(rig().backend, rig().models.spec(), bad);
      FAIL() << "batch " << bad << " must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << bad;
      const std::string msg = e.what();
      EXPECT_NE(msg.find("power"), std::string::npos) << msg;
      EXPECT_NE(msg.find("64"), std::string::npos)
          << "message must name the allowed maximum: " << msg;
    }
  }
}

TEST(ValidateBatch, OverCapacityRejectedWithTypedError) {
  for (const std::size_t bad : {128u, 256u, 1024u, 2048u}) {
    try {
      HeModel::validate_batch(rig().backend, rig().models.spec(), bad);
      FAIL() << "batch " << bad << " must be rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << bad;
    }
  }
}

TEST(ValidateBatch, EveryPowerOfTwoUpToCapacityAccepted) {
  for (std::size_t b = 1; b <= 64; b *= 2) {
    EXPECT_NO_THROW(
        HeModel::validate_batch(rig().backend, rig().models.spec(), b))
        << b;
  }
}

}  // namespace
}  // namespace pphe::serve
