// Homomorphism property suite run identically against BOTH evaluators
// (CKKS-RNS and the multiprecision baseline): the two backends must agree
// with plaintext arithmetic on every §II primitive. Parameterized over the
// backend kind, per the reproduction requirement that the RNS representation
// "does not compromise accuracy".

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <variant>

#include "ckks/big_backend.hpp"
#include "ckks/rns_backend.hpp"
#include "ckks/serialize.hpp"
#include "common/check.hpp"
#include "common/prng.hpp"

namespace pphe {
namespace {

std::unique_ptr<HeBackend> make(const std::string& kind) {
  CkksParams params = CkksParams::test_small();
  if (kind == "rns") return std::make_unique<RnsBackend>(params);
  return std::make_unique<BigBackend>(params);
}

class BackendProperty : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    backend_ = make(GetParam());
    slots_ = backend_->slot_count();
    Prng prng(2024);
    a_.resize(slots_);
    b_.resize(slots_);
    for (std::size_t i = 0; i < slots_; ++i) {
      a_[i] = (prng.uniform_double() - 0.5) * 4.0;
      b_[i] = (prng.uniform_double() - 0.5) * 4.0;
    }
  }

  Ciphertext encrypt(const std::vector<double>& v) {
    return backend_->encrypt(
        backend_->encode(v, backend_->params().scale, backend_->max_level()));
  }

  void expect_close(const Ciphertext& ct, const std::vector<double>& want,
                    double tol) {
    const auto got = backend_->decrypt_decode(ct);
    ASSERT_GE(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(got[i], want[i], tol) << "slot " << i;
    }
  }

  std::unique_ptr<HeBackend> backend_;
  std::size_t slots_ = 0;
  std::vector<double> a_, b_;
};

TEST_P(BackendProperty, EncryptDecryptRoundTrip) {
  expect_close(encrypt(a_), a_, 2e-3);
}

TEST_P(BackendProperty, AdditionHomomorphism) {
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] + b_[i];
  expect_close(backend_->add(encrypt(a_), encrypt(b_)), want, 4e-3);
}

TEST_P(BackendProperty, SubtractionHomomorphism) {
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] - b_[i];
  expect_close(backend_->sub(encrypt(a_), encrypt(b_)), want, 4e-3);
}

TEST_P(BackendProperty, NegationHomomorphism) {
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = -a_[i];
  expect_close(backend_->negate(encrypt(a_)), want, 2e-3);
}

TEST_P(BackendProperty, MultiplicationWithRelinAndRescale) {
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] * b_[i];
  Ciphertext prod = backend_->multiply(encrypt(a_), encrypt(b_));
  EXPECT_EQ(prod.size(), 3u);
  prod = backend_->relinearize(prod);
  EXPECT_EQ(prod.size(), 2u);
  prod = backend_->rescale(prod);
  EXPECT_EQ(prod.level(), backend_->max_level() - 1);
  expect_close(prod, want, 2e-2);
}

TEST_P(BackendProperty, Size3DecryptionIsValid) {
  // Decrypting before relinearization must also work (m = c0 + c1 s + c2 s²);
  // the product ciphertext carries scale Delta^2, which decode divides out.
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] * b_[i];
  const Ciphertext prod = backend_->multiply(encrypt(a_), encrypt(b_));
  EXPECT_DOUBLE_EQ(prod.scale(),
                   backend_->params().scale * backend_->params().scale);
  const auto got = backend_->decrypt_decode(prod);
  for (std::size_t i = 0; i < slots_; ++i) {
    ASSERT_NEAR(got[i], want[i], 2e-2) << i;
  }
}

TEST_P(BackendProperty, PlainMultiplication) {
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] * b_[i];
  const Plaintext pb =
      backend_->encode(b_, backend_->params().scale, backend_->max_level());
  const Ciphertext prod = backend_->rescale(
      backend_->multiply_plain(encrypt(a_), pb));
  expect_close(prod, want, 1e-2);
}

TEST_P(BackendProperty, PlainAddition) {
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] + b_[i];
  const Plaintext pb =
      backend_->encode(b_, backend_->params().scale, backend_->max_level());
  expect_close(backend_->add_plain(encrypt(a_), pb), want, 4e-3);
}

TEST_P(BackendProperty, RotationBySeveralSteps) {
  backend_->ensure_galois_keys({1, 7, -3});
  for (const int step : {1, 7, -3}) {
    std::vector<double> want(slots_);
    for (std::size_t i = 0; i < slots_; ++i) {
      const std::size_t src =
          (i + static_cast<std::size_t>(
                   (step % static_cast<int>(slots_) + static_cast<int>(slots_)))) %
          slots_;
      want[i] = a_[src];
    }
    expect_close(backend_->rotate(encrypt(a_), step), want, 5e-3);
  }
}

TEST_P(BackendProperty, RotationComposition) {
  backend_->ensure_galois_keys({2, 3, 5});
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[(i + 5) % slots_];
  const Ciphertext r =
      backend_->rotate(backend_->rotate(encrypt(a_), 2), 3);
  expect_close(r, want, 8e-3);
  expect_close(backend_->rotate(encrypt(a_), 5), want, 5e-3);
}

TEST_P(BackendProperty, DepthThreeChain) {
  // ((a*b) * a) * b with rescaling after every multiplication.
  std::vector<double> small_a(slots_), small_b(slots_), want(slots_);
  Prng prng(7);
  for (std::size_t i = 0; i < slots_; ++i) {
    small_a[i] = prng.uniform_double() - 0.5;
    small_b[i] = prng.uniform_double() - 0.5;
    want[i] = small_a[i] * small_b[i] * small_a[i] * small_b[i];
  }
  const Ciphertext ca = encrypt(small_a);
  const Ciphertext cb = encrypt(small_b);
  Ciphertext t = backend_->rescale(
      backend_->relinearize(backend_->multiply(ca, cb)));
  t = backend_->rescale(backend_->relinearize(backend_->multiply(t, ca)));
  t = backend_->rescale(backend_->relinearize(backend_->multiply(t, cb)));
  EXPECT_EQ(t.level(), backend_->max_level() - 3);
  expect_close(t, want, 5e-2);
}

TEST_P(BackendProperty, ModDropPreservesPlaintext) {
  const Ciphertext ct = encrypt(a_);
  const Ciphertext dropped = backend_->mod_drop_to(ct, 1);
  EXPECT_EQ(dropped.level(), 1);
  EXPECT_DOUBLE_EQ(dropped.scale(), ct.scale());
  expect_close(dropped, a_, 2e-3);
}

TEST_P(BackendProperty, AddAutoAlignsLevels) {
  const Ciphertext ca = encrypt(a_);
  const Ciphertext cb = backend_->mod_drop_to(encrypt(b_), 2);
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] + b_[i];
  const Ciphertext sum = backend_->add(ca, cb);
  EXPECT_EQ(sum.level(), 2);
  expect_close(sum, want, 4e-3);
}

TEST_P(BackendProperty, ScalarHelpers) {
  std::vector<double> want(slots_);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] * 2.5;
  expect_close(backend_->rescale(backend_->multiply_scalar(encrypt(a_), 2.5)),
               want, 1e-2);
  for (std::size_t i = 0; i < slots_; ++i) want[i] = a_[i] + 2.5;
  expect_close(backend_->add_scalar(encrypt(a_), 2.5), want, 4e-3);
}

TEST_P(BackendProperty, RescaleAtLevelZeroThrows) {
  Ciphertext ct = backend_->mod_drop_to(encrypt(a_), 0);
  EXPECT_THROW(backend_->rescale(ct), Error);
}

TEST_P(BackendProperty, MissingGaloisKeyThrows) {
  EXPECT_THROW(backend_->rotate(encrypt(a_), 123), Error);
}

TEST_P(BackendProperty, MultiplyRequiresSize2) {
  const Ciphertext prod = backend_->multiply(encrypt(a_), encrypt(b_));
  EXPECT_THROW(backend_->multiply(prod, encrypt(a_)), Error);
}

TEST_P(BackendProperty, MismatchedScaleAddThrows) {
  const Ciphertext ca = encrypt(a_);
  const Plaintext pb =
      backend_->encode(b_, backend_->params().scale * 2.0, backend_->max_level());
  const Ciphertext cb = backend_->encrypt(pb);
  EXPECT_THROW(backend_->add(ca, cb), Error);
}

// linear_bsgs contract: every backend returns the whole layer for any
// operand set, through its fused kernel where it has one and the generic
// HeBackend schedule otherwise. The layer below has two groups:
//   out = w0 x + w1 rot(x, 3) + rot(w2 rot(x, 3), 5).
class LinearBsgsContract : public BackendProperty {
 protected:
  void SetUp() override {
    BackendProperty::SetUp();
    backend_->ensure_galois_keys({3, 5});
    Prng prng(99);
    for (auto& w : w_) {
      w.resize(slots_);
      for (double& v : w) v = prng.uniform_double() * 2.0 - 1.0;
    }
    for (std::size_t i = 0; i < slots_; ++i) {
      want_.push_back(w_[0][i] * a_[i] + w_[1][i] * a_[(i + 3) % slots_] +
                      w_[2][(i + 5) % slots_] * a_[(i + 8) % slots_]);
    }
  }

  WeightOperand weight(std::size_t t, bool encrypted, double scale,
                       int level) const {
    const Plaintext pt = backend_->encode(w_[t], scale, level);
    if (encrypted) return backend_->encrypt(pt);
    return pt;
  }

  std::vector<BsgsGroupSpec> layer(const std::vector<WeightOperand>& w) const {
    return {{0, {{0, &w[0]}, {3, &w[1]}}}, {5, {{3, &w[2]}}}};
  }

  std::vector<double> w_[3];
  std::vector<double> want_;
};

TEST_P(LinearBsgsContract, ReturnsTheLayerForPlainAndEncryptedWeights) {
  const double delta = backend_->params().scale;
  const int top = backend_->max_level();
  const Ciphertext x = encrypt(a_);
  for (const bool encrypted : {false, true}) {
    SCOPED_TRACE(encrypted ? "ciphertext weights" : "plaintext weights");
    const std::vector<WeightOperand> w{weight(0, encrypted, delta, top),
                                       weight(1, encrypted, delta, top),
                                       weight(2, encrypted, delta, top)};
    const Ciphertext out = backend_->linear_bsgs(x, layer(w));
    ASSERT_TRUE(out.valid());
    EXPECT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out.scale(), delta * delta);
    expect_close(out, want_, 2e-2);
    // The fused kernel (RNS, plaintext weights) and the generic schedule
    // compute the same layer.
    const Ciphertext generic = backend_->HeBackend::linear_bsgs(x, layer(w));
    expect_close(generic, backend_->decrypt_decode(out), 2e-2);
  }
}

// Only RNS has a fused kernel that can decline an operand set.
class LinearBsgsRns : public LinearBsgsContract {};

TEST_P(LinearBsgsRns, IneligiblePlaintextRunsTheGenericSchedule) {
  const auto& rns = dynamic_cast<const RnsBackend&>(*backend_);
  const double delta = backend_->params().scale;
  const int top = backend_->max_level();
  // A plaintext read back from the wire lacks the key-switching channel the
  // fused kernel accumulates against.
  std::stringstream wire;
  write_plaintext(wire, rns, std::get<Plaintext>(weight(1, false, delta, top)));
  const std::vector<WeightOperand> w{weight(0, false, delta, top),
                                     read_plaintext(wire, rns),
                                     weight(2, false, delta, top)};
  const Ciphertext out = backend_->linear_bsgs(encrypt(a_), layer(w));
  ASSERT_TRUE(out.valid());
  expect_close(out, want_, 2e-2);
}

TEST_P(LinearBsgsContract, UnusableWeightsThrowInsteadOfAnEmptyHandle) {
  // No schedule can multiply a plaintext below the ciphertext's level or sum
  // products at two scales; the call must say so, not hand back nothing.
  const double delta = backend_->params().scale;
  const int top = backend_->max_level();
  const Ciphertext x = encrypt(a_);
  const std::vector<WeightOperand> below{weight(0, false, delta, top - 1),
                                         weight(1, false, delta, top - 1),
                                         weight(2, false, delta, top - 1)};
  EXPECT_THROW(backend_->linear_bsgs(x, layer(below)), Error);
  const std::vector<WeightOperand> mixed{weight(0, false, delta, top),
                                         weight(1, false, 2.0 * delta, top),
                                         weight(2, false, delta, top)};
  EXPECT_THROW(backend_->linear_bsgs(x, layer(mixed)), Error);
}

INSTANTIATE_TEST_SUITE_P(Backends, LinearBsgsContract,
                         ::testing::Values("rns", "big"));
INSTANTIATE_TEST_SUITE_P(Backends, LinearBsgsRns, ::testing::Values("rns"));

INSTANTIATE_TEST_SUITE_P(Backends, BackendProperty,
                         ::testing::Values("rns", "big"));

TEST(BackendAgreement, RnsAndBigDecryptTheSameComputation) {
  // The two representations evaluate literally the same rings with the same
  // deterministic key material, so an identical pipeline run on both must
  // land on the same plaintext (up to each scheme's own approximation noise).
  const CkksParams params = CkksParams::test_small();
  RnsBackend rns(params);
  BigBackend big(params);
  const std::size_t slots = rns.slot_count();
  ASSERT_EQ(slots, big.slot_count());
  std::vector<double> a(slots), b(slots);
  Prng prng(31337);
  for (std::size_t i = 0; i < slots; ++i) {
    a[i] = prng.uniform_double() - 0.5;
    b[i] = prng.uniform_double() - 0.5;
  }
  auto run = [&](HeBackend& be) {
    const Ciphertext ca =
        be.encrypt(be.encode(a, params.scale, be.max_level()));
    const Ciphertext cb =
        be.encrypt(be.encode(b, params.scale, be.max_level()));
    const Ciphertext sum = be.add(ca, cb);
    Ciphertext t = be.rescale(be.relinearize(be.multiply(sum, cb)));
    return be.decrypt_decode(t);
  };
  const auto got_rns = run(rns);
  const auto got_big = run(big);
  for (std::size_t i = 0; i < slots; ++i) {
    const double want = (a[i] + b[i]) * b[i];
    ASSERT_NEAR(got_rns[i], want, 2e-2) << i;
    ASSERT_NEAR(got_big[i], want, 2e-2) << i;
    ASSERT_NEAR(got_rns[i], got_big[i], 4e-2) << i;
  }
}

TEST(SerializedGolden, CiphertextBitstreamMatchesPreRefactorFixture) {
  // Golden fixture for wire format v2 (checksummed sections): storage-layer
  // refactors must not change a single serialized byte. Identity is checked
  // as length + FNV-1a over the stream rather than 160 KiB of hex. The v1
  // fixture was 163884 bytes / 0x176640f4fcd8f2f7; v2 adds the metadata and
  // per-poly section checksums.
  CkksParams p = CkksParams::test_small();
  p.seed = 424242;
  const RnsBackend be(p);
  std::vector<double> v(be.slot_count());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(0.05 * static_cast<double>(i));
  }
  const Ciphertext ct = be.encrypt(be.encode(v, p.scale, be.max_level()));
  const std::string bytes = ciphertext_to_string(be, ct);
  EXPECT_EQ(bytes.size(), 163908u);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;  // FNV prime
  }
  EXPECT_EQ(h, 0x94c5341b255c63f3ull);
  // And the stream still round-trips through the refactored reader.
  const Ciphertext back = ciphertext_from_string(bytes, be);
  const auto got = be.decrypt_decode(back);
  for (std::size_t i = 0; i < 32; ++i) {
    ASSERT_NEAR(got[i], v[i], 2e-3) << i;
  }
}

}  // namespace
}  // namespace pphe
