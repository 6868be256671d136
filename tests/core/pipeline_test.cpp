#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "common/check.hpp"
#include "common/fault.hpp"

namespace pphe {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.train_size = 800;
  cfg.test_size = 120;
  cfg.relu_epochs = 4;
  cfg.slaf_epochs = 3;
  cfg.he_samples = 2;
  cfg.cache_dir = ::testing::TempDir() + "/ppcnn-test-cache";
  cfg.verbose = false;
  return cfg;
}

TEST(ExperimentConfig, FlagParsing) {
  std::vector<std::string> storage = {"prog", "--paper", "--samples", "3",
                                      "--quiet"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  const CliFlags flags(static_cast<int>(argv.size()), argv.data());
  const ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  EXPECT_TRUE(cfg.paper_profile);
  EXPECT_EQ(cfg.he_samples, 3u);
  EXPECT_FALSE(cfg.verbose);
  EXPECT_EQ(cfg.ckks_params().degree, 1u << 14);
}

TEST(ExperimentConfig, DefaultIsFastProfile) {
  const ExperimentConfig cfg;
  EXPECT_EQ(cfg.ckks_params().degree, CkksParams::fast_profile().degree);
}

TEST(Experiment, BuildsDataAndCachesModels) {
  Experiment exp(tiny_config());
  EXPECT_EQ(exp.train_set().size(), 800u);
  EXPECT_EQ(exp.test_set().size(), 120u);

  const TrainedModel& m1 = exp.model(Arch::kCnn1, Activation::kSlaf);
  EXPECT_GT(m1.test_accuracy, 30.0f);
  // Second lookup returns the same object.
  const TrainedModel& m2 = exp.model(Arch::kCnn1, Activation::kSlaf);
  EXPECT_EQ(&m1, &m2);

  // A fresh Experiment with the same cache dir loads without retraining and
  // reaches the same accuracy.
  Experiment exp2(tiny_config());
  const TrainedModel& reloaded = exp2.model(Arch::kCnn1, Activation::kSlaf);
  EXPECT_NEAR(reloaded.test_accuracy, m1.test_accuracy, 1e-3);
}

TEST(Experiment, CorruptCacheFileIsACacheMissNotACrash) {
  ExperimentConfig cfg = tiny_config();
  cfg.cache_dir = ::testing::TempDir() + "/ppcnn-corrupt-cache";
  std::filesystem::remove_all(cfg.cache_dir);
  {
    // Populate the cache, then damage the weight file several ways.
    Experiment exp(cfg);
    (void)exp.model(Arch::kCnn1, Activation::kSlaf);
  }
  std::filesystem::path weights;
  for (const auto& entry : std::filesystem::directory_iterator(cfg.cache_dir)) {
    weights = entry.path();
  }
  ASSERT_FALSE(weights.empty());
  const auto size = std::filesystem::file_size(weights);

  const auto retrains_cleanly = [&] {
    Experiment exp(cfg);
    const TrainedModel& m = exp.model(Arch::kCnn1, Activation::kSlaf);
    EXPECT_GT(m.test_accuracy, 30.0f);
  };
  // Truncated file (partial write / disk full).
  std::filesystem::resize_file(weights, size / 2);
  retrains_cleanly();
  // NaN payload (bit rot that keeps the structure intact).
  {
    std::fstream f(weights, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    f.write(reinterpret_cast<const char*>(&nan), sizeof(nan));
  }
  retrains_cleanly();
  // Garbage header.
  {
    std::ofstream f(weights, std::ios::binary | std::ios::trunc);
    f << "not a weight file";
  }
  retrains_cleanly();
  // Each recovery rewrote a good cache: the final load succeeds.
  Experiment exp(cfg);
  EXPECT_GT(exp.model(Arch::kCnn1, Activation::kSlaf).test_accuracy, 30.0f);
}

TEST(ExperimentConfig, FaultsFlagArmsThePlan) {
  std::vector<std::string> storage = {
      "prog", "--quiet", "--faults=seed=3,wire.upload:truncate*1"};
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  const CliFlags flags(static_cast<int>(argv.size()), argv.data());
  const ExperimentConfig cfg = ExperimentConfig::from_flags(flags);
  EXPECT_EQ(cfg.faults, "seed=3,wire.upload:truncate*1");
  EXPECT_TRUE(fault::armed());
  fault::disarm();
  EXPECT_FALSE(fault::armed());
}

TEST(Experiment, SpecIsCompilable) {
  Experiment exp(tiny_config());
  const ModelSpec spec = exp.spec(Arch::kCnn1, Activation::kSlaf);
  EXPECT_EQ(spec.stages.size(), 5u);
  EXPECT_EQ(spec.depth(), 9u);
}

TEST(MakeBackend, CreatesBothKinds) {
  const CkksParams p = CkksParams::test_small();
  EXPECT_EQ(make_backend("rns", p)->name(), "ckks-rns");
  EXPECT_EQ(make_backend("big", p)->name(), "ckks-bigint");
  EXPECT_THROW(make_backend("nope", p), Error);
}

TEST(RunEncryptedEval, EndToEndTinyModel) {
  // Full pipeline on a deliberately tiny spec and small ring: train-free
  // random weights, 2 encrypted samples.
  ExperimentConfig cfg = tiny_config();
  cfg.he_samples = 2;

  CkksParams params = CkksParams::test_small();
  params.q_bit_sizes = {40, 26, 26, 26, 26, 26, 26, 26, 26, 26};
  auto backend = make_backend("rns", params);

  Experiment exp(cfg);
  const ModelSpec spec = exp.spec(Arch::kCnn1, Activation::kSlaf);
  HeModelOptions options;
  options.encrypted_weights = false;  // keep the test fast
  const EncryptedEvalResult result =
      run_encrypted_eval(*backend, spec, options, exp.test_set(), cfg);

  EXPECT_EQ(result.samples, 2u);
  EXPECT_EQ(result.eval_latency.count(), 2u);
  EXPECT_GT(result.eval_latency.avg(), 0.0);
  EXPECT_GT(result.spec_accuracy, 20.0);
  // Encrypted and plaintext predictions agree (RNS preserves accuracy).
  EXPECT_DOUBLE_EQ(result.match_rate, 100.0);
  EXPECT_LT(result.max_logit_err, 0.3);
}

}  // namespace
}  // namespace pphe
