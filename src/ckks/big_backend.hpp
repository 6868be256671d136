#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ckks/backend.hpp"
#include "ckks/encoder.hpp"
#include "ckks/params.hpp"
#include "common/prng.hpp"
#include "math/bigmod.hpp"
#include "math/biguint.hpp"
#include "math/poly_buffer.hpp"

namespace pphe {

/// Polynomial with multiprecision coefficients modulo one composite modulus
/// Q_level = q_0 · … · q_level; `ntt` marks evaluation (BigNtt) form.
/// BigUInt stores its limbs inline, so the coefficient vector is one
/// contiguous slab — pooled through the backend's VecPool the same way
/// RnsPoly slabs go through PolyPool.
struct BigPoly {
  PooledVec<BigUInt> coeffs;
  bool ntt = false;
  int level = 0;  // which ladder modulus the coefficients live under
};

struct BigCtBody {
  std::vector<BigPoly> polys;
};

struct BigPtBody {
  BigPoly poly;
};

/// Non-RNS CKKS evaluator: the paper's "CNN-HE" baseline (moduli chain
/// length 1 in Table VI's terms — ONE composite modulus, multiprecision
/// coefficient arithmetic). The level ladder Q_0 ⊂ Q_1 ⊂ … ⊂ Q_L uses the
/// SAME primes as the RNS chain so the two backends compute over literally
/// the same rings; only the representation differs. Key switching follows
/// the original scheme's ek = (-a·s + e + P·s², a) mod Q_L·P with a
/// multiprecision auxiliary modulus P ≥ Q_L (the q_L² construction of §II's
/// Mult primitive, with P playing q_L's role).
///
/// Every butterfly and pointwise product here is a multiprecision Barrett
/// mulmod — the per-operation cost that Fig. 2's RNS decomposition removes.
/// Nothing in this backend is channel-parallelizable, so it runs on the
/// calling thread.
class BigBackend final : public HeBackend {
 public:
  explicit BigBackend(const CkksParams& params);

  std::string name() const override { return "ckks-bigint"; }
  const CkksParams& params() const override { return params_; }
  std::size_t slot_count() const override { return encoder_.slot_count(); }
  int max_level() const override {
    return static_cast<int>(q_primes_.size()) - 1;
  }
  double level_prime(int level) const override {
    return static_cast<double>(q_primes_[static_cast<std::size_t>(level)]);
  }

  Plaintext encode(std::span<const double> values, double scale,
                   int level) const override;
  Ciphertext encrypt(const Plaintext& pt) const override;
  std::vector<double> decrypt_decode(const Ciphertext& ct) const override;

  Ciphertext add(const Ciphertext& a, const Ciphertext& b) const override;
  Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const override;
  Ciphertext add_plain(const Ciphertext& a, const Plaintext& b) const override;
  Ciphertext negate(const Ciphertext& a) const override;
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const override;
  Ciphertext multiply_plain(const Ciphertext& a,
                            const Plaintext& b) const override;
  Ciphertext relinearize(const Ciphertext& a) const override;
  Ciphertext rescale(const Ciphertext& a) const override;
  Ciphertext mod_drop_to(const Ciphertext& a, int level) const override;
  Ciphertext rotate(const Ciphertext& a, int step) const override;
  void ensure_galois_keys(std::span<const int> steps) override;
  using HeBackend::ensure_galois_keys;  // braced-list overload

  const CkksEncoder& encoder() const { return encoder_; }
  const std::shared_ptr<VecPool<BigUInt>>& pool() const { return big_pool_; }
  MemStats mem_stats() const override { return big_pool_->stats(); }
  void reset_mem_stats() const override { big_pool_->reset_stats(); }
  /// Ladder modulus Q_level.
  const BigUInt& level_modulus(int level) const;
  const BigUInt& aux_modulus() const { return p_modulus_; }

  std::vector<double> decrypt_coefficients(const Ciphertext& ct) const;

 private:
  struct KswKey {
    BigPoly b;  // mod Q_L * P, NTT form
    BigPoly a;
  };

  const BigBarrett& barrett(int level) const;
  const BigBarrett& barrett_aux(int level) const;  // for Q_level * P
  const BigNtt& ntt(int level) const;
  const BigNtt& ntt_aux(int level) const;

  BigPoly zero_poly(int level, bool ntt) const;
  void to_ntt(BigPoly& p) const;
  void to_coeff(BigPoly& p) const;
  BigPoly lift_signed(std::span<const std::int64_t> coeffs, int level) const;
  /// Lift small signed values modulo an arbitrary modulus (for key material
  /// living under Q_L * P).
  PooledVec<BigUInt> lift_signed_mod(std::span<const std::int64_t> coeffs,
                                     const BigUInt& modulus) const;
  BigUInt uniform_below_big(const BigUInt& bound) const;
  BigPoly automorphism(const BigPoly& p, std::uint64_t exponent) const;
  void add_inplace(BigPoly& a, const BigPoly& b) const;
  void negate_inplace(BigPoly& a) const;
  BigPoly pointwise(const BigPoly& a, const BigPoly& b) const;
  std::uint64_t rotation_exponent(int step) const;

  void generate_keys();
  KswKey make_ksw_key(std::span<const BigUInt> target_ntt_aux) const;

  /// Key-switch accumulator in the raised ring mod Q_level * P, NTT form —
  /// the multiprecision analogue of ExtAccumulator. Unfused (each key_switch
  /// call still pays its own mod-down), but the phase split mirrors
  /// RnsBackend so RNS-vs-Big agreement tests exercise the same pipeline
  /// shape and the kKswInner / kModDown counters line up.
  struct BigExt {
    PooledVec<BigUInt> c0, c1;
    int level = 0;
  };
  /// Top-level key reduced to Q_level * P (cached per level).
  const KswKey& key_at_level(const KswKey& key, int level) const;
  /// Centered lift of d from Q_level to Q_level*P plus the forward aux NTT —
  /// the single "digit" of this backend's (trivial) decomposition.
  PooledVec<BigUInt> ksw_decompose(const BigPoly& d) const;
  BigExt ext_zero(int level) const;
  void ksw_inner_prod(const PooledVec<BigUInt>& digit, const KswKey& key,
                      BigExt& acc) const;
  /// Mod-down epilogue: round(acc / P) mod Q_level, coeff form.
  std::pair<BigPoly, BigPoly> ksw_mod_down(BigExt acc) const;
  /// d: coefficient form at `level`. Returns (delta0, delta1), coeff form.
  std::pair<BigPoly, BigPoly> key_switch(const BigPoly& d,
                                         const KswKey& key) const;
  Ciphertext wrap(std::vector<BigPoly> polys, double scale, int level) const;
  Ciphertext apply_automorphism_ct(const Ciphertext& a, std::uint64_t exponent,
                                   const KswKey& key, OpKind op) const;
  /// Reduces x (< Q_from) modulo Q_to, stepping one ladder level at a time.
  BigUInt reduce_ladder(const BigUInt& x, int from, int to) const;

  CkksParams params_;
  CkksEncoder encoder_;
  std::shared_ptr<VecPool<BigUInt>> big_pool_ =
      std::make_shared<VecPool<BigUInt>>();
  std::vector<std::uint64_t> q_primes_;
  std::vector<std::uint64_t> special_primes_;
  std::vector<BigUInt> q_ladder_;  // Q_0..Q_L
  BigUInt p_modulus_;              // P = product of special primes
  BigUInt half_p_;                 // floor(P/2)
  std::vector<BigUInt> inv_p_mod_q_;     // P^{-1} mod Q_l per level
  std::vector<BigUInt> inv_p_mod_aux_;   // P^{-1} mod Q_l*P?  (see .cpp)
  std::vector<BigUInt> inv_qlast_mod_q_; // q_l^{-1} mod Q_{l-1}

  // Lazily built per-level machinery (mutable: created on first use).
  mutable std::map<int, std::unique_ptr<BigBarrett>> barrett_;
  mutable std::map<int, std::unique_ptr<BigBarrett>> barrett_aux_;
  mutable std::map<int, std::unique_ptr<BigNtt>> ntt_;
  mutable std::map<int, std::unique_ptr<BigNtt>> ntt_aux_;
  std::unique_ptr<BigBarrett> barrett_p_;

  mutable Prng prng_;
  std::vector<std::int64_t> sk_signed_;  // HWT(h) coefficients
  BigPoly pk_b_, pk_a_;                  // mod Q_L, NTT
  KswKey relin_key_;
  std::map<std::uint64_t, KswKey> galois_keys_;
  // Per-level reductions of key-switch keys (mod Q_l * P), built lazily.
  mutable std::map<const KswKey*, std::map<int, KswKey>> key_cache_;
};

}  // namespace pphe
