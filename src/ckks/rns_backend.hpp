#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "ckks/backend.hpp"
#include "ckks/encoder.hpp"
#include "ckks/ext_accumulator.hpp"
#include "ckks/params.hpp"
#include "common/prng.hpp"
#include "math/modarith.hpp"
#include "math/ntt.hpp"
#include "math/poly_buffer.hpp"
#include "math/rns.hpp"

namespace pphe {

/// Payload behind a Ciphertext handle produced by RnsBackend.
struct RnsCtBody {
  std::vector<RnsPoly> polys;  // size 2, or 3 before relinearization
  /// Combined wire payload digest set by serialize's read_ciphertext (the
  /// trust boundary) and re-verified by validate_ciphertext, so storage
  /// corruption between decode and eval is caught even when the flipped
  /// residue still lies below its modulus. 0 = locally produced, untracked.
  std::uint64_t wire_digest = 0;
};

/// Payload behind a Plaintext handle produced by RnsBackend.
struct RnsPtBody {
  RnsPoly poly;  // q channels 0..level plus the special prime p, NTT form.
                 // The extra channel is what lets the fused BSGS path
                 // multiply weights against raised-basis accumulators; every
                 // q-only consumer truncates to the ciphertext's channels.
                 // Serialization strips it (transport stays q-only).
  // Shoup form of `poly`, built lazily on the first ct-pt product
  // (RnsBackend::pt_shoup): weight plaintexts are multiplied against many
  // ciphertexts, so the precompute amortizes, while plaintexts that are only
  // encrypted or added never pay for it.
  mutable std::once_flag shoup_once;
  mutable PolyBuffer shoup;
};

/// CKKS-RNS evaluator (Cheon–Han–Kim–Kim–Song [9] as engineered in SEAL):
/// all polynomial arithmetic is component-wise over word primes (Fig. 2),
/// key switching uses the per-prime digit decomposition with one special
/// modulus, rescaling is the exact RNS floor-division by the dropped prime.
///
/// Residue channels are independent, which is the parallelism the paper's
/// CNN-HE-RNS models exploit; channel loops run through the global thread
/// pool.
class RnsBackend final : public HeBackend {
 public:
  explicit RnsBackend(const CkksParams& params);

  std::string name() const override { return "ckks-rns"; }
  const CkksParams& params() const override { return params_; }
  std::size_t slot_count() const override { return encoder_.slot_count(); }
  int max_level() const override {
    return static_cast<int>(q_moduli_.size()) - 1;
  }
  double level_prime(int level) const override {
    return static_cast<double>(q_moduli_[static_cast<std::size_t>(level)].value());
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
  /// Hoisted rotations: the input is digit-decomposed and NTT'd once; each
  /// step then only permutes the NTT vectors (the Galois automorphism acts
  /// on the evaluation domain as an index permutation), saving the dominant
  /// per-rotation NTT work. ~3x faster than repeated rotate() for the baby
  /// steps of the BSGS diagonal method.
  std::vector<Ciphertext> rotate_batch(const Ciphertext& a,
                                       std::span<const int> steps) const override;
  using HeBackend::rotate_batch;  // braced-list overload
  /// Double-hoisted giant-step epilogue: one key-switch inner product per
  /// rotated input, all accumulated in the raised basis, ONE shared mod-down
  /// for the whole sum (the unfused path pays one per rotation).
  Ciphertext rotate_sum(std::span<const Ciphertext> cts,
                        std::span<const int> steps) const override;
  bool supports_hoisted_bsgs() const override { return true; }
  /// Fully fused BSGS diagonal layer (double hoisting, DESIGN.md §14). Only
  /// plaintext weights carrying the special channel qualify; otherwise
  /// returns an invalid handle and the caller falls back.
  Ciphertext linear_bsgs(const Ciphertext& x,
                         std::span<const BsgsGroupSpec> groups) const override;
  /// Fused acc += a (x) b without materializing the tensor product.
  void multiply_acc(Ciphertext& acc, const Ciphertext& a,
                    const Ciphertext& b) const override;
  void multiply_plain_acc(Ciphertext& acc, const Ciphertext& a,
                          const Plaintext& b) const override;
  void ensure_galois_keys(std::span<const int> steps) override;
  using HeBackend::ensure_galois_keys;  // braced-list overload

  /// Slot conjugation (automorphism X -> X^{2N-1}); not used by the CNNs but
  /// part of the scheme's public surface.
  Ciphertext conjugate(const Ciphertext& a) const;

  /// Full structural health check of an RNS ciphertext: handle metadata
  /// (base class), per-poly channel count == level + 1, degree, NTT form,
  /// residues below their moduli, and — for deserialized ciphertexts — the
  /// recorded wire digest recomputed over the slabs.
  void validate_ciphertext(const Ciphertext& ct) const override;
  /// Deep copy with `mutate` applied to component 0's slab words (the fault
  /// harness's storage-corruption hook).
  Ciphertext clone_mutate_limbs(
      const Ciphertext& ct,
      const std::function<void(std::span<std::uint64_t>)>& mutate)
      const override;

  const CkksEncoder& encoder() const { return encoder_; }
  /// Ciphertext prime values q_0..q_L (exposed for tests and benches).
  const std::vector<Modulus>& q_moduli() const { return q_moduli_; }
  std::uint64_t special_modulus() const { return special_.value(); }

  /// Slab arena backing every polynomial this backend produces (serialize
  /// readers and tests check buffers out of the same pool).
  const std::shared_ptr<PolyPool>& pool() const { return pool_; }
  MemStats mem_stats() const override { return pool_->stats(); }
  void reset_mem_stats() const override { pool_->reset_stats(); }

  /// Exact decryption to centered coefficient values (testing / noise
  /// inspection): returns the coefficients of c0 + c1 s (+ c2 s^2) as
  /// doubles, centered in (-q/2, q/2).
  std::vector<double> decrypt_coefficients(const Ciphertext& ct) const;

 private:
  struct KswKey {
    // digits[j] = (b_j, a_j), channels = all q primes + special, NTT form.
    std::vector<std::array<RnsPoly, 2>> digits;
    // shoup[j] = Shoup quotients of digits[j], channel rows aligned with the
    // key polys: key material is the fixed operand of every key-switch inner
    // product, so the accumulation runs dyadic::mul_acc_shoup.
    std::vector<std::array<PolyBuffer, 2>> shoup;
  };

  // -- poly helpers ----------------------------------------------------
  RnsPoly zero_poly(int level, bool with_special, bool ntt) const;
  /// Modulus / NTT table of channel c of poly p (special-aware).
  const Modulus& mod_for(const RnsPoly& p, std::size_t c) const;
  const NttTable& ntt_for(const RnsPoly& p, std::size_t c) const;
  void to_ntt(RnsPoly& p) const;
  void to_coeff(RnsPoly& p) const;
  RnsPoly lift_signed(std::span<const std::int64_t> coeffs, int level,
                      bool with_special) const;
  RnsPoly uniform_poly(int level, bool with_special) const;
  RnsPoly automorphism(const RnsPoly& p, std::uint64_t exponent) const;
  void add_inplace(RnsPoly& a, const RnsPoly& b) const;
  void sub_inplace(RnsPoly& a, const RnsPoly& b) const;
  void negate_inplace(RnsPoly& a) const;
  void pointwise_inplace(RnsPoly& a, const RnsPoly& b) const;
  RnsPoly pointwise(const RnsPoly& a, const RnsPoly& b) const;
  /// Shoup quotients of every channel of `p` (fixed-operand precompute).
  PolyBuffer shoup_form(const RnsPoly& p) const;
  /// Lazily built (and cached) Shoup form of a plaintext body.
  const PolyBuffer& pt_shoup(const RnsPtBody& pt) const;
  /// out = w (x) b where `w` is a FIXED operand with precomputed Shoup form
  /// `wq` (same channel truncation rules as pointwise, with w as `a`).
  RnsPoly pointwise_shoup(const RnsPoly& w, const PolyBuffer& wq,
                          const RnsPoly& b) const;

  // -- key material ----------------------------------------------------
  void generate_keys();
  KswKey make_ksw_key(const RnsPoly& target_ntt) const;

  // -- phased key switching (DESIGN.md §14) -----------------------------
  /// Digit decomposition of a coefficient-form poly at `level`, lifted to
  /// the raised basis Q∪{p} and NTT'd: row j*channels + c holds digit j in
  /// channel c. This is the hoistable half of a key switch — one table
  /// serves any number of inner products (one per rotation step).
  struct KswDigits {
    PolyBuffer rows;  // q_channels * channels rows, NTT form
    std::size_t q_channels = 0;
    std::size_t channels = 0;  // q_channels + 1 (special last)
    int level = 0;
  };
  KswDigits ksw_decompose(const RnsPoly& d, int level) const;
  /// Fresh zero accumulator in the raised basis at `level` (NTT form).
  ExtAccumulator ext_zero(int level) const;
  /// acc += <digits, key> in the raised basis (counts OpKind::kKswInner).
  /// `perm` != nullptr applies the NTT-domain automorphism permutation to
  /// the digit rows while gathering (hoisted rotation); nullptr runs the
  /// flat HAL kernels (relinearization / single key switch).
  void ksw_inner_prod(const KswDigits& digits, const KswKey& key,
                      const std::uint32_t* perm, ExtAccumulator& acc) const;
  /// Mod-down epilogue: divides both accumulator components by the special
  /// prime p with rounding, returning coefficient-form q-basis polys
  /// (counts OpKind::kModDown — once for both components).
  std::pair<RnsPoly, RnsPoly> ksw_mod_down(ExtAccumulator acc) const;
  /// d in coefficient form at `level`; returns (delta0, delta1) coeff form.
  /// Composed from the three phases above.
  std::pair<RnsPoly, RnsPoly> key_switch(const RnsPoly& d, int level,
                                         const KswKey& key) const;
  std::uint64_t rotation_exponent(int step) const;
  /// NTT-domain permutation realizing the automorphism X -> X^exponent:
  /// NTT(sigma(x))[j] = NTT(x)[perm[j]].
  const std::vector<std::uint32_t>& ntt_permutation(
      std::uint64_t exponent) const;

  Ciphertext wrap(std::vector<RnsPoly> polys, double scale, int level) const;
  Ciphertext apply_automorphism_ct(const Ciphertext& a, std::uint64_t exponent,
                                   const KswKey& key, OpKind op) const;

  CkksParams params_;
  CkksEncoder encoder_;
  std::shared_ptr<PolyPool> pool_;
  std::vector<Modulus> q_moduli_;
  Modulus special_;
  std::vector<NttTable> q_ntt_;
  std::unique_ptr<NttTable> special_ntt_;
  std::vector<std::unique_ptr<RnsBase>> level_bases_;  // for decrypt compose

  // Precomputations.
  std::vector<std::uint64_t> p_mod_q_;      // p mod q_i
  std::vector<std::uint64_t> inv_p_mod_q_;  // p^{-1} mod q_i
  // inv_q_mod_q_[l][i] = q_l^{-1} mod q_i, for i < l (rescale).
  std::vector<std::vector<std::uint64_t>> inv_q_mod_q_;

  // The serving layer evaluates batches on concurrent worker threads, so the
  // few mutable members a const evaluation path touches are guarded:
  //  * prng_        — encrypt() samples (u, e0, e1) under prng_mutex_;
  //  * ntt_perms_   — lazy automorphism permutations under ntt_perm_mutex_
  //                   (map nodes are stable, so references stay valid after
  //                   the lock is released);
  //  * galois_keys_ — rotate()/conjugate() take a shared lock for the lookup,
  //                   ensure_galois_keys() an exclusive one for inserts (keys
  //                   are never erased, so looked-up references are stable).
  mutable Prng prng_;
  mutable std::mutex prng_mutex_;
  mutable std::map<std::uint64_t, std::vector<std::uint32_t>> ntt_perms_;
  mutable std::mutex ntt_perm_mutex_;
  RnsPoly sk_ntt_;    // all channels, NTT
  RnsPoly sk_coeff_;  // all channels, coeff (for automorphism targets)
  RnsPoly pk_b_, pk_a_;  // q channels, NTT
  PolyBuffer pk_b_shoup_, pk_a_shoup_;  // fixed operands of every encrypt
  KswKey relin_key_;
  std::map<std::uint64_t, KswKey> galois_keys_;  // by automorphism exponent
  mutable std::shared_mutex galois_mutex_;
};

}  // namespace pphe
