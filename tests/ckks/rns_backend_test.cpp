// RNS-specific behaviour: channel structure, noise scale, conjugation, the
// relationship between the chain and rescaling.

#include "ckks/rns_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"

namespace pphe {
namespace {

CkksParams small() { return CkksParams::test_small(); }

std::vector<double> ramp(std::size_t n, double scale = 1.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = scale * std::sin(0.1 * static_cast<double>(i));
  }
  return v;
}

TEST(RnsBackend, ModuliMatchRequestedBitSizes) {
  const RnsBackend be(small());
  const auto& mods = be.q_moduli();
  ASSERT_EQ(mods.size(), small().q_bit_sizes.size());
  for (std::size_t i = 0; i < mods.size(); ++i) {
    EXPECT_EQ(mods[i].bit_count(), small().q_bit_sizes[i]);
    // NTT-friendly: 1 mod 2N.
    EXPECT_EQ(mods[i].value() % (2 * small().degree), 1u);
  }
  EXPECT_NE(be.special_modulus(), 0u);
}

TEST(RnsBackend, SpecialPrimeDistinctFromChain) {
  const RnsBackend be(small());
  for (const auto& m : be.q_moduli()) {
    EXPECT_NE(m.value(), be.special_modulus());
  }
}

TEST(RnsBackend, FreshCiphertextShape) {
  const RnsBackend be(small());
  const auto ct = be.encrypt(be.encode(ramp(be.slot_count()),
                                       small().scale, be.max_level()));
  EXPECT_EQ(ct.size(), 2u);
  EXPECT_EQ(ct.level(), be.max_level());
  EXPECT_DOUBLE_EQ(ct.scale(), small().scale);
}

TEST(RnsBackend, RescaleDividesScaleByDroppedPrime) {
  const RnsBackend be(small());
  const auto ct = be.encrypt(be.encode(ramp(be.slot_count()),
                                       small().scale, be.max_level()));
  const auto prod = be.relinearize(be.multiply(ct, ct));
  const auto dropped_prime =
      be.q_moduli()[static_cast<std::size_t>(be.max_level())].value();
  const auto rescaled = be.rescale(prod);
  EXPECT_DOUBLE_EQ(rescaled.scale(),
                   small().scale * small().scale /
                       static_cast<double>(dropped_prime));
}

TEST(RnsBackend, ConjugateOfRealVectorIsIdentity) {
  RnsBackend be(small());
  be.ensure_galois_keys({0});  // step 0 = conjugation key
  const auto v = ramp(be.slot_count());
  const auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  const auto conj = be.conjugate(ct);
  const auto got = be.decrypt_decode(conj);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_NEAR(got[i], v[i], 5e-3);
  }
}

TEST(RnsBackend, DecryptCoefficientsHaveExpectedMagnitude) {
  const RnsBackend be(small());
  const std::vector<double> v(be.slot_count(), 1.0);
  const auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  const auto coeffs = be.decrypt_coefficients(ct);
  // The constant-1 vector encodes as Delta in coefficient 0 and ~0 elsewhere;
  // noise stays orders of magnitude below Delta.
  EXPECT_NEAR(coeffs[0], small().scale, small().scale * 0.01);
  double max_rest = 0.0;
  for (std::size_t i = 1; i < coeffs.size(); ++i) {
    max_rest = std::max(max_rest, std::abs(coeffs[i]));
  }
  EXPECT_LT(max_rest, small().scale * 0.01);
}

TEST(RnsBackend, EncryptionIsRandomized) {
  const RnsBackend be(small());
  const auto pt = be.encode(ramp(be.slot_count()), small().scale,
                            be.max_level());
  const auto c1 = be.encrypt(pt);
  const auto c2 = be.encrypt(pt);
  const auto& b1 = *static_cast<const RnsCtBody*>(c1.impl().get());
  const auto& b2 = *static_cast<const RnsCtBody*>(c2.impl().get());
  const auto s1 = b1.polys[0].ch(0);
  const auto s2 = b2.polys[0].ch(0);
  EXPECT_FALSE(std::equal(s1.begin(), s1.end(), s2.begin(), s2.end()));
}

TEST(RnsBackend, DeterministicForSameSeed) {
  CkksParams p = small();
  p.seed = 99;
  const RnsBackend be1(p), be2(p);
  const auto v = ramp(be1.slot_count());
  const auto c1 = be1.encrypt(be1.encode(v, p.scale, be1.max_level()));
  const auto c2 = be2.encrypt(be2.encode(v, p.scale, be2.max_level()));
  const auto& b1 = *static_cast<const RnsCtBody*>(c1.impl().get());
  const auto& b2 = *static_cast<const RnsCtBody*>(c2.impl().get());
  for (std::size_t t = 0; t < 2; ++t) {
    const auto s1 = b1.polys[t].ch(0);
    const auto s2 = b2.polys[t].ch(0);
    EXPECT_TRUE(std::equal(s1.begin(), s1.end(), s2.begin(), s2.end()));
  }
}

TEST(RnsBackend, ModDropReleasesDroppedChannelMemory) {
  // Regression: mod-switching must return the dropped residue channels to
  // the arena. A level-0 ciphertext holds exactly one channel's words per
  // polynomial — no stale top-level capacity.
  const RnsBackend be(small());
  const auto v = ramp(be.slot_count());
  auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  ct = be.mod_drop_to(ct, 0);
  const auto& body = *static_cast<const RnsCtBody*>(ct.impl().get());
  for (const auto& poly : body.polys) {
    EXPECT_EQ(poly.channels(), 1u);
    EXPECT_EQ(poly.buf.capacity_words(), small().degree);
  }
  // The ciphertext still decrypts at level 0.
  const auto got = be.decrypt_decode(ct);
  EXPECT_NEAR(got[5], v[5], 2e-3);
}

TEST(RnsBackend, EncodeAtLowerLevelHasFewerChannels) {
  const RnsBackend be(small());
  const auto pt = be.encode(ramp(be.slot_count()), small().scale, 1);
  const auto& body = *static_cast<const RnsPtBody*>(pt.impl().get());
  // level+1 ciphertext primes plus the key-switching prime: plaintexts carry
  // the special channel so the fused BSGS path can weight raised-basis
  // accumulators (ciphertext consumers truncate; serialization strips it).
  EXPECT_EQ(body.poly.channels(), 3u);
  EXPECT_TRUE(body.poly.has_special);
  const auto ct = be.encrypt(pt);
  EXPECT_EQ(ct.level(), 1);
  const auto got = be.decrypt_decode(ct);
  EXPECT_NEAR(got[3], ramp(be.slot_count())[3], 2e-3);
}

TEST(RnsBackend, EnsureGaloisKeysIsIdempotent) {
  RnsBackend be(small());
  be.ensure_galois_keys({4});
  be.ensure_galois_keys({4, 4});
  const auto v = ramp(be.slot_count());
  const auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  const auto got = be.decrypt_decode(be.rotate(ct, 4));
  EXPECT_NEAR(got[0], v[4], 5e-3);
}

TEST(RnsBackend, RotateBatchMatchesIndividualRotations) {
  RnsBackend be(small());
  const std::vector<int> steps{1, 3, 5, 17, 100};
  be.ensure_galois_keys(steps);
  const auto v = ramp(be.slot_count());
  const auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  const auto batch = be.rotate_batch(ct, steps);
  ASSERT_EQ(batch.size(), steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const auto got = be.decrypt_decode(batch[s]);
    const auto ref = be.decrypt_decode(be.rotate(ct, steps[s]));
    for (std::size_t i = 0; i < be.slot_count(); i += 61) {
      const auto want = v[(i + static_cast<std::size_t>(steps[s])) %
                          be.slot_count()];
      ASSERT_NEAR(got[i], want, 8e-3) << "step " << steps[s] << " slot " << i;
      ASSERT_NEAR(got[i], ref[i], 8e-3);
    }
  }
}

TEST(RnsBackend, RotateBatchAliasesZeroAndDuplicateSteps) {
  RnsBackend be(small());
  be.ensure_galois_keys({3, 7});
  const auto slots = static_cast<int>(be.slot_count());
  const auto v = ramp(be.slot_count());
  const auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  // Hoisted path (>= 2 unique nonzero steps): step 0 and the full-slot wrap
  // alias the input handle, a repeated step aliases its first occurrence —
  // no key switch, no copy.
  const std::vector<int> steps{0, 3, 3, slots, 7};
  const auto out = be.rotate_batch(ct, steps);
  ASSERT_EQ(out.size(), steps.size());
  EXPECT_EQ(out[0].impl().get(), ct.impl().get());
  EXPECT_EQ(out[3].impl().get(), ct.impl().get());
  EXPECT_EQ(out[2].impl().get(), out[1].impl().get());
  EXPECT_NE(out[1].impl().get(), out[4].impl().get());
  EXPECT_NEAR(be.decrypt_decode(out[1])[0], v[3], 8e-3);
  EXPECT_NEAR(be.decrypt_decode(out[4])[0], v[7], 8e-3);

  // Degenerate batch (<= 1 unique nonzero step) takes the default path and
  // must alias the same way.
  const std::vector<int> steps2{0, 7, 7};
  const auto out2 = be.rotate_batch(ct, steps2);
  ASSERT_EQ(out2.size(), steps2.size());
  EXPECT_EQ(out2[0].impl().get(), ct.impl().get());
  EXPECT_EQ(out2[2].impl().get(), out2[1].impl().get());
  EXPECT_NEAR(be.decrypt_decode(out2[1])[5], v[12], 8e-3);
}

TEST(RnsBackend, RotateSumMatchesRotateThenAdd) {
  RnsBackend be(small());
  be.ensure_galois_keys({2, 9});
  const auto n = be.slot_count();
  const auto va = ramp(n), vb = ramp(n, 0.5), vc = ramp(n, -0.25);
  const auto enc = [&](const std::vector<double>& v) {
    return be.encrypt(be.encode(v, small().scale, be.max_level()));
  };
  const std::vector<Ciphertext> cts{enc(va), enc(vb), enc(vc)};
  const std::vector<int> steps{2, 0, 9};
  // One shared raised-basis accumulator, one mod-down epilogue for the whole
  // sum — versus a key switch per rotation on the reference path. Same math,
  // different rounding points: equal within noise, not bitwise.
  const auto got = be.decrypt_decode(be.rotate_sum(cts, steps));
  const auto ref = be.decrypt_decode(be.add(
      be.add(be.rotate(cts[0], 2), cts[1]), be.rotate(cts[2], 9)));
  for (std::size_t i = 0; i < n; i += 47) {
    const double want = va[(i + 2) % n] + vb[i] + vc[(i + 9) % n];
    ASSERT_NEAR(got[i], want, 1e-2) << "slot " << i;
    ASSERT_NEAR(got[i], ref[i], 1e-2) << "slot " << i;
  }
}

TEST(RnsBackend, RotateBatchAtLowerLevel) {
  RnsBackend be(small());
  const std::vector<int> steps{2, 9};
  be.ensure_galois_keys(steps);
  const auto v = ramp(be.slot_count());
  auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  ct = be.mod_drop_to(ct, 1);
  const auto batch = be.rotate_batch(ct, steps);
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const auto got = be.decrypt_decode(batch[s]);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_NEAR(got[i],
                  v[(i + static_cast<std::size_t>(steps[s])) % be.slot_count()],
                  8e-3);
    }
  }
}

TEST(RnsBackend, MultiplyAccMatchesMultiplyAdd) {
  RnsBackend be(small());
  const auto va = ramp(be.slot_count(), 1.0);
  const auto vb = ramp(be.slot_count(), 0.7);
  const auto vc = ramp(be.slot_count(), -0.4);
  auto enc = [&](const std::vector<double>& v) {
    return be.encrypt(be.encode(v, small().scale, be.max_level()));
  };
  const auto ca = enc(va), cb = enc(vb), cc = enc(vc);
  // acc = ca*cb + cc*ca via the fused path.
  Ciphertext acc;
  be.multiply_acc(acc, ca, cb);
  be.multiply_acc(acc, cc, ca);
  const auto got = be.decrypt_decode(be.rescale(be.relinearize(acc)));
  for (std::size_t i = 0; i < be.slot_count(); i += 37) {
    ASSERT_NEAR(got[i], va[i] * vb[i] + vc[i] * va[i], 2e-2) << i;
  }
}

TEST(RnsBackend, MultiplyPlainAccMatches) {
  RnsBackend be(small());
  const auto va = ramp(be.slot_count(), 1.0);
  const auto vb = ramp(be.slot_count(), 0.7);
  const auto vc = ramp(be.slot_count(), -0.4);
  const auto ca = be.encrypt(be.encode(va, small().scale, be.max_level()));
  const auto pb = be.encode(vb, small().scale, be.max_level());
  const auto pc = be.encode(vc, small().scale, be.max_level());
  Ciphertext acc;
  be.multiply_plain_acc(acc, ca, pb);
  be.multiply_plain_acc(acc, ca, pc);
  const auto got = be.decrypt_decode(be.rescale(acc));
  for (std::size_t i = 0; i < be.slot_count(); i += 37) {
    ASSERT_NEAR(got[i], va[i] * (vb[i] + vc[i]), 2e-2) << i;
  }
}

TEST(RnsBackend, RotateFullCircleIsIdentity) {
  RnsBackend be(small());
  const int half = static_cast<int>(be.slot_count()) / 2;
  be.ensure_galois_keys({half});
  const auto v = ramp(be.slot_count());
  const auto ct = be.encrypt(be.encode(v, small().scale, be.max_level()));
  const auto twice = be.rotate(be.rotate(ct, half), half);
  const auto got = be.decrypt_decode(twice);
  for (std::size_t i = 0; i < v.size(); i += 97) {
    ASSERT_NEAR(got[i], v[i], 8e-3);
  }
}

// --- level-trimmed Galois keys ---------------------------------------------

/// Bytes of one key built for `level`: level + 1 digits of two polys over
/// level + 2 channels (q_0..q_level and the special prime), plus a Shoup
/// table of the same shape.
std::uint64_t key_bytes_at(int level) {
  const auto l = static_cast<std::uint64_t>(level);
  return 2 * 2 * (l + 1) * (l + 2) * small().degree * 8;
}

ErrorCode error_code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected a pphe::Error";
  return ErrorCode::kGeneric;
}

/// Every rotating primitive, run on `ct` with the keys for steps 3 and 5:
/// rotate, rotate_batch, rotate_sum, and a two-group linear_bsgs.
void expect_rotations_decrypt(const RnsBackend& be, const Ciphertext& ct,
                              const std::vector<double>& v) {
  const std::size_t n = be.slot_count();
  const auto at = [&](std::size_t i) { return v[i % n]; };
  const auto rot = be.decrypt_decode(be.rotate(ct, 3));
  const auto batch = be.rotate_batch(ct, {3, 5});
  const auto b3 = be.decrypt_decode(batch[0]);
  const auto b5 = be.decrypt_decode(batch[1]);
  const std::vector<Ciphertext> cts{ct, ct};
  const std::vector<int> steps{3, 5};
  const auto sum = be.decrypt_decode(be.rotate_sum(cts, steps));

  // out = w0 x + w1 rot(x, 3) + rot(w2 rot(x, 3), 5), w0/w1/w2 = 1/0.5/-0.25.
  const auto weight = [&](double w) {
    return be.encode(std::vector<double>(n, w), small().scale, ct.level());
  };
  const WeightOperand w0 = weight(1.0), w1 = weight(0.5), w2 = weight(-0.25);
  const std::vector<BsgsGroupSpec> groups{{0, {{0, &w0}, {3, &w1}}},
                                          {5, {{3, &w2}}}};
  const Ciphertext fused = be.linear_bsgs(ct, groups);
  ASSERT_TRUE(fused.valid());
  const auto lin = be.decrypt_decode(fused);
  for (std::size_t i = 0; i < n; i += 29) {
    ASSERT_NEAR(rot[i], at(i + 3), 8e-3) << "rotate, slot " << i;
    ASSERT_NEAR(b3[i], at(i + 3), 8e-3) << "rotate_batch, slot " << i;
    ASSERT_NEAR(b5[i], at(i + 5), 8e-3) << "rotate_batch, slot " << i;
    ASSERT_NEAR(sum[i], at(i + 3) + at(i + 5), 1e-2) << "rotate_sum " << i;
    const double want = at(i) + 0.5 * at(i + 3) - 0.25 * at(i + 8);
    ASSERT_NEAR(lin[i], want, 1e-2) << "linear_bsgs, slot " << i;
  }
}

TEST(RnsBackendKeyLevels, TrimmedKeyServesItsLevelAndBelow) {
  RnsBackend be(small());
  be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, 2}, {5, 2}});
  EXPECT_EQ(be.galois_key_stats().keys, 2u);
  EXPECT_EQ(be.galois_key_stats().bytes, 2 * key_bytes_at(2));
  const auto v = ramp(be.slot_count());
  const auto ct = be.encrypt(be.encode(v, small().scale, 2));
  expect_rotations_decrypt(be, ct, v);
  expect_rotations_decrypt(be, be.mod_drop_to(ct, 1), v);
}

TEST(RnsBackendKeyLevels, UseAboveTheKeyLevelThrowsTypedError) {
  RnsBackend be(small());
  be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, 2}, {5, 2}});
  const std::size_t n = be.slot_count();
  const auto ct = be.encrypt(be.encode(ramp(n), small().scale, 3));
  EXPECT_EQ(error_code_of([&] { be.rotate(ct, 3); }),
            ErrorCode::kLevelMismatch);
  EXPECT_EQ(error_code_of([&] { be.rotate_batch(ct, {3, 5}); }),
            ErrorCode::kLevelMismatch);
  const std::vector<Ciphertext> cts{ct, ct};
  const std::vector<int> steps{3, 5};
  EXPECT_EQ(error_code_of([&] { be.rotate_sum(cts, steps); }),
            ErrorCode::kLevelMismatch);
  const WeightOperand w =
      be.encode(std::vector<double>(n, 1.0), small().scale, ct.level());
  const std::vector<BsgsGroupSpec> groups{{5, {{3, &w}}}};
  EXPECT_EQ(error_code_of([&] { be.linear_bsgs(ct, groups); }),
            ErrorCode::kLevelMismatch);
}

TEST(RnsBackendKeyLevels, EnsureAtAHigherLevelRebuildsTheOneKey) {
  RnsBackend be(small());
  be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, 2}});
  be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, 4}});
  EXPECT_EQ(be.galois_key_stats().keys, 1u);
  EXPECT_EQ(be.galois_key_stats().bytes, key_bytes_at(4));
  // A lower request keeps the higher key; bare steps mean every level.
  be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, 1}});
  EXPECT_EQ(be.galois_key_stats().bytes, key_bytes_at(4));
  be.ensure_galois_keys({3, 5});
  EXPECT_EQ(be.galois_key_stats().keys, 2u);
  EXPECT_EQ(be.galois_key_stats().bytes, 2 * key_bytes_at(be.max_level()));
  const auto v = ramp(be.slot_count());
  expect_rotations_decrypt(
      be, be.encrypt(be.encode(v, small().scale, be.max_level())), v);
}

TEST(RnsBackendKeyLevels, OneRequestKeepsTheHighestLevelOfAStep) {
  RnsBackend be(small());
  be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, 1}, {3, 3}, {3, 2}});
  EXPECT_EQ(be.op_count(OpKind::kGaloisKeys), 1u);
  EXPECT_EQ(be.galois_key_stats().keys, 1u);
  EXPECT_EQ(be.galois_key_stats().bytes, key_bytes_at(3));
}

TEST(RnsBackendConcurrency, RotationsSurviveARebuildAtAHigherLevel) {
  // Rotations at level 1 keep running on the key they looked up while
  // ensure_galois_keys replaces it three times, up to level 4.
  RnsBackend be(small());
  be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, 1}});
  const auto v = ramp(be.slot_count());
  const auto ct = be.encrypt(be.encode(v, small().scale, 1));
  constexpr int kWorkers = 3;
  std::atomic<int> running{0};
  std::atomic<bool> rebuilt{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&] {
      int rounds = 0;
      while (!rebuilt.load() || rounds < 2) {
        const auto got = be.decrypt_decode(be.rotate(ct, 3));
        if (std::abs(got[7] - v[10]) > 8e-3) ++bad;
        if (++rounds == 1) ++running;
      }
    });
  }
  while (running.load() < kWorkers) std::this_thread::yield();
  for (int level = 2; level <= 4; ++level) {
    be.ensure_galois_keys(std::vector<GaloisKeyRequest>{{3, level}});
  }
  rebuilt.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(be.galois_key_stats().keys, 1u);
  EXPECT_EQ(be.galois_key_stats().bytes, key_bytes_at(4));
  const auto top = be.encrypt(be.encode(v, small().scale, 4));
  EXPECT_NEAR(be.decrypt_decode(be.rotate(top, 3))[7], v[10], 8e-3);
}

}  // namespace
}  // namespace pphe
