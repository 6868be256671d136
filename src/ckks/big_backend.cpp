#include "ckks/big_backend.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "math/primes.hpp"
#include "math/sampling.hpp"

namespace pphe {
namespace {

const BigCtBody& body(const Ciphertext& ct) {
  PPHE_CHECK(ct.valid(), "invalid ciphertext handle");
  return *static_cast<const BigCtBody*>(ct.impl().get());
}

const BigPtBody& body(const Plaintext& pt) {
  PPHE_CHECK(pt.valid(), "invalid plaintext handle");
  return *static_cast<const BigPtBody*>(pt.impl().get());
}

/// Reduces an arbitrarily wide x modulo `bar`'s modulus by Horner recursion
/// over 64-bit limbs (each step keeps the Barrett input below q * 2^64).
BigUInt reduce_wide(const BigBarrett& bar, const BigUInt& x) {
  const BigUInt& q = bar.modulus();
  if (x < q) return x;
  if (q.limb_count() == 1) return BigUInt(x.mod_u64(q.to_u64()));
  BigUInt r;
  for (std::size_t i = x.limb_count(); i-- > 0;) {
    r = bar.reduce((r << 64) + BigUInt(x.limb(i)));
  }
  return r;
}

}  // namespace

BigBackend::BigBackend(const CkksParams& params)
    : params_(params), encoder_(params.degree), prng_(params.seed) {
  params_.validate();

  // Same downward sweep as RnsBackend for the ciphertext primes (identical
  // rings), then auxiliary primes for P >= Q_L, all pairwise distinct.
  const int aux_bits = 58;
  const std::size_t aux_count =
      (static_cast<std::size_t>(params_.log_q()) + 16 + aux_bits - 1) /
      aux_bits;
  std::vector<int> sizes = params_.q_bit_sizes;
  sizes.push_back(params_.special_bit_size);  // keep parity with RnsBackend
  for (std::size_t i = 0; i < aux_count; ++i) sizes.push_back(aux_bits);
  const auto primes = generate_moduli_chain(params_.degree, sizes);

  const std::size_t nq = params_.q_bit_sizes.size();
  q_primes_.assign(primes.begin(), primes.begin() + nq);
  special_primes_.assign(primes.begin() + nq + 1, primes.end());

  BigUInt ladder(1);
  for (const auto q : q_primes_) {
    ladder *= BigUInt(q);
    q_ladder_.push_back(ladder);
  }
  p_modulus_ = BigUInt(1);
  for (const auto p : special_primes_) p_modulus_ *= BigUInt(p);
  PPHE_CHECK(p_modulus_ >= q_ladder_.back(),
             "auxiliary modulus must dominate Q_L");
  half_p_ = p_modulus_ >> 1;
  barrett_p_ = std::make_unique<BigBarrett>(p_modulus_);

  inv_p_mod_q_.resize(q_primes_.size());
  inv_qlast_mod_q_.resize(q_primes_.size());
  for (std::size_t l = 0; l < q_primes_.size(); ++l) {
    inv_p_mod_q_[l] = (p_modulus_ % q_ladder_[l]).inv_mod(q_ladder_[l]);
    if (l >= 1) {
      inv_qlast_mod_q_[l] = BigUInt(q_primes_[l]).inv_mod(q_ladder_[l - 1]);
    }
  }

  generate_keys();
}

// ---------------------------------------------------------------------------
// Lazily-built per-level machinery
// ---------------------------------------------------------------------------

const BigBarrett& BigBackend::barrett(int level) const {
  auto& slot = barrett_[level];
  if (!slot) slot = std::make_unique<BigBarrett>(q_ladder_[level]);
  return *slot;
}

const BigBarrett& BigBackend::barrett_aux(int level) const {
  auto& slot = barrett_aux_[level];
  if (!slot) {
    slot = std::make_unique<BigBarrett>(q_ladder_[level] * p_modulus_);
  }
  return *slot;
}

const BigNtt& BigBackend::ntt(int level) const {
  auto& slot = ntt_[level];
  if (!slot) {
    std::vector<std::uint64_t> factors(q_primes_.begin(),
                                       q_primes_.begin() + level + 1);
    slot = std::make_unique<BigNtt>(params_.degree, factors);
  }
  return *slot;
}

const BigNtt& BigBackend::ntt_aux(int level) const {
  auto& slot = ntt_aux_[level];
  if (!slot) {
    std::vector<std::uint64_t> factors(q_primes_.begin(),
                                       q_primes_.begin() + level + 1);
    factors.insert(factors.end(), special_primes_.begin(),
                   special_primes_.end());
    slot = std::make_unique<BigNtt>(params_.degree, factors);
  }
  return *slot;
}

const BigUInt& BigBackend::level_modulus(int level) const {
  PPHE_CHECK(level >= 0 && level <= max_level(), "level out of range");
  return q_ladder_[level];
}

// ---------------------------------------------------------------------------
// Poly helpers
// ---------------------------------------------------------------------------

BigPoly BigBackend::zero_poly(int level, bool ntt_form) const {
  BigPoly p;
  p.coeffs = PooledVec<BigUInt>(big_pool_, params_.degree);
  // A recycled buffer keeps its previous contents; reset explicitly.
  std::fill(p.coeffs.begin(), p.coeffs.end(), BigUInt());
  p.ntt = ntt_form;
  p.level = level;
  return p;
}

void BigBackend::to_ntt(BigPoly& p) const {
  if (p.ntt) return;
  ntt(p.level).forward(p.coeffs);
  p.ntt = true;
}

void BigBackend::to_coeff(BigPoly& p) const {
  if (!p.ntt) return;
  ntt(p.level).inverse(p.coeffs);
  p.ntt = false;
}

PooledVec<BigUInt> BigBackend::lift_signed_mod(
    std::span<const std::int64_t> coeffs, const BigUInt& modulus) const {
  PooledVec<BigUInt> out(big_pool_, coeffs.size());
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    const std::int64_t v = coeffs[i];
    if (v >= 0) {
      out[i] = BigUInt(static_cast<std::uint64_t>(v)) % modulus;
    } else {
      out[i] = modulus - (BigUInt(static_cast<std::uint64_t>(-v)) % modulus);
      if (out[i] == modulus) out[i] = BigUInt();
    }
  }
  return out;
}

BigPoly BigBackend::lift_signed(std::span<const std::int64_t> coeffs,
                                int level) const {
  PPHE_CHECK(coeffs.size() == params_.degree, "coefficient count mismatch");
  BigPoly p;
  p.coeffs = lift_signed_mod(coeffs, q_ladder_[level]);
  p.ntt = false;
  p.level = level;
  return p;
}

BigUInt BigBackend::uniform_below_big(const BigUInt& bound) const {
  const std::size_t bits = bound.bit_length();
  const std::size_t limbs = (bits + 63) / 64;
  for (;;) {
    BigUInt candidate;
    for (std::size_t i = 0; i < limbs; ++i) {
      candidate = (candidate << 64) + BigUInt(prng_.next_u64());
    }
    candidate = candidate >> (limbs * 64 - bits);
    if (candidate < bound) return candidate;
  }
}

BigPoly BigBackend::automorphism(const BigPoly& p,
                                 std::uint64_t exponent) const {
  PPHE_CHECK(!p.ntt, "automorphism expects coefficient form");
  const std::size_t n = params_.degree;
  const std::size_t two_n = 2 * n;
  const BigUInt& q = q_ladder_[p.level];
  BigPoly out = zero_poly(p.level, false);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i * exponent) % two_n;
    if (j < n) {
      out.coeffs[j] = p.coeffs[i];
    } else {
      out.coeffs[j - n] =
          p.coeffs[i].is_zero() ? BigUInt() : q - p.coeffs[i];
    }
  }
  return out;
}

void BigBackend::add_inplace(BigPoly& a, const BigPoly& b) const {
  PPHE_CHECK(a.ntt == b.ntt && a.level == b.level,
             "poly mismatch in BigBackend add");
  const BigBarrett& bar = barrett(a.level);
  for (std::size_t i = 0; i < a.coeffs.size(); ++i) {
    a.coeffs[i] = bar.addmod(a.coeffs[i], b.coeffs[i]);
  }
}

void BigBackend::negate_inplace(BigPoly& a) const {
  const BigBarrett& bar = barrett(a.level);
  for (auto& c : a.coeffs) c = bar.negmod(c);
}

BigPoly BigBackend::pointwise(const BigPoly& a, const BigPoly& b) const {
  PPHE_CHECK(a.ntt && b.ntt && a.level == b.level,
             "pointwise product expects NTT form at the same level");
  const BigBarrett& bar = barrett(a.level);
  BigPoly out = zero_poly(a.level, true);
  for (std::size_t i = 0; i < a.coeffs.size(); ++i) {
    out.coeffs[i] = bar.mulmod(a.coeffs[i], b.coeffs[i]);
  }
  return out;
}

std::uint64_t BigBackend::rotation_exponent(int step) const {
  const auto slots = static_cast<long long>(slot_count());
  long long s = step % slots;
  if (s < 0) s += slots;
  PPHE_CHECK(s != 0, "rotation step must be non-zero modulo slot count");
  const std::uint64_t two_n = 2 * params_.degree;
  std::uint64_t g = 1;
  for (long long i = 0; i < s; ++i) g = (g * 5) % two_n;
  return g;
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

void BigBackend::generate_keys() {
  const int top = max_level();
  const auto s = sample_hwt(prng_, params_.degree, params_.hamming_weight);
  sk_signed_.assign(s.begin(), s.end());

  // Public key mod Q_L.
  pk_a_ = zero_poly(top, true);
  for (auto& c : pk_a_.coeffs) c = uniform_below_big(q_ladder_[top]);
  BigPoly s_ntt = lift_signed(sk_signed_, top);
  to_ntt(s_ntt);
  BigPoly e = lift_signed(
      sample_gaussian(prng_, params_.degree, params_.noise_sigma), top);
  to_ntt(e);
  pk_b_ = pointwise(pk_a_, s_ntt);
  negate_inplace(pk_b_);
  add_inplace(pk_b_, e);

  // Relinearization key targets s^2 (computed exactly from the signed key:
  // negacyclic convolution of the sparse +-1 vector, coefficients stay tiny).
  const std::size_t n = params_.degree;
  std::vector<std::int64_t> s2(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (sk_signed_[i] == 0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (sk_signed_[j] == 0) continue;
      const std::int64_t prod = sk_signed_[i] * sk_signed_[j];
      const std::size_t k = i + j;
      if (k < n) {
        s2[k] += prod;
      } else {
        s2[k - n] -= prod;
      }
    }
  }
  const BigUInt aux = q_ladder_[top] * p_modulus_;
  auto s2_aux = lift_signed_mod(s2, aux);
  ntt_aux(top).forward(s2_aux);
  relin_key_ = make_ksw_key(s2_aux);
}

BigBackend::KswKey BigBackend::make_ksw_key(
    std::span<const BigUInt> target_ntt_aux) const {
  const int top = max_level();
  const BigUInt aux = q_ladder_[top] * p_modulus_;
  const BigBarrett& bar = barrett_aux(top);
  const BigNtt& transform = ntt_aux(top);
  const std::size_t n = params_.degree;

  KswKey key;
  key.a = BigPoly{PooledVec<BigUInt>(big_pool_, n), true, top};
  key.b = BigPoly{PooledVec<BigUInt>(big_pool_, n), true, top};
  for (auto& c : key.a.coeffs) c = uniform_below_big(aux);

  auto s_aux = lift_signed_mod(sk_signed_, aux);
  transform.forward(s_aux);
  auto e_aux = lift_signed_mod(
      sample_gaussian(prng_, params_.degree, params_.noise_sigma), aux);
  transform.forward(e_aux);

  // b = -a*s + e + P*target  (mod Q_L * P), all in NTT form.
  const BigUInt p_red = p_modulus_ % aux;
  for (std::size_t i = 0; i < n; ++i) {
    BigUInt v = bar.mulmod(key.a.coeffs[i], s_aux[i]);
    v = bar.submod(e_aux[i], v);
    v = bar.addmod(v, bar.mulmod(p_red, target_ntt_aux[i]));
    key.b.coeffs[i] = v;
  }
  return key;
}

const BigBackend::KswKey& BigBackend::key_at_level(const KswKey& key,
                                                   int level) const {
  const int top = max_level();
  if (level == top) return key;
  // Reduce the top-level key to Q_level * P (cached per level). Valid because
  // Q_level*P divides Q_L*P; NTT forms are recomputed under the new modulus.
  auto& cache = key_cache_[&key];
  auto it = cache.find(level);
  if (it == cache.end()) {
    const BigBarrett& bar = barrett_aux(level);
    const BigNtt& transform = ntt_aux(level);
    const BigNtt& top_transform = ntt_aux(top);
    KswKey r;
    r.a = BigPoly{{}, false, level};
    r.b = BigPoly{{}, false, level};
    r.a.coeffs = key.a.coeffs;
    r.b.coeffs = key.b.coeffs;
    top_transform.inverse(r.a.coeffs);
    top_transform.inverse(r.b.coeffs);
    for (auto& c : r.a.coeffs) c = reduce_wide(bar, c);
    for (auto& c : r.b.coeffs) c = reduce_wide(bar, c);
    transform.forward(r.a.coeffs);
    transform.forward(r.b.coeffs);
    r.a.ntt = r.b.ntt = true;
    it = cache.emplace(level, std::move(r)).first;
  }
  return it->second;
}

PooledVec<BigUInt> BigBackend::ksw_decompose(const BigPoly& d) const {
  PPHE_CHECK(!d.ntt, "ksw_decompose expects coefficient form");
  trace::Span span("ksw_decompose", "kernel");
  span.attr("level", d.level);
  const int level = d.level;
  const std::size_t n = params_.degree;
  const BigUInt aux = q_ladder_[level] * p_modulus_;
  const BigNtt& transform = ntt_aux(level);
  const BigUInt& q_l = q_ladder_[level];
  const BigUInt half_q = q_l >> 1;

  // Centered lift of d from Q_level to Q_level*P: residues above Q_level/2
  // represent negative values and must stay small in the wider ring.
  // Scratch buffers cycle through the backend's pool (every element is
  // overwritten, so recycled contents are harmless).
  PooledVec<BigUInt> lifted(big_pool_, n);
  const BigUInt lift_offset = aux - q_l;  // == (P-1) * Q_level
  for (std::size_t i = 0; i < n; ++i) {
    lifted[i] =
        d.coeffs[i] > half_q ? d.coeffs[i] + lift_offset : d.coeffs[i];
  }
  transform.forward(lifted);
  return lifted;
}

BigBackend::BigExt BigBackend::ext_zero(int level) const {
  const std::size_t n = params_.degree;
  BigExt ext{PooledVec<BigUInt>(big_pool_, n), PooledVec<BigUInt>(big_pool_, n),
             level};
  for (auto& v : ext.c0) v = 0;  // pooled slabs recycle old contents
  for (auto& v : ext.c1) v = 0;
  return ext;
}

void BigBackend::ksw_inner_prod(const PooledVec<BigUInt>& digit,
                                const KswKey& key, BigExt& acc) const {
  OpScope op(*this, OpKind::kKswInner);
  op.attr("level", acc.level);
  const std::size_t n = params_.degree;
  const BigBarrett& bar = barrett_aux(acc.level);
  const KswKey& k = key_at_level(key, acc.level);
  for (std::size_t i = 0; i < n; ++i) {
    acc.c0[i] = bar.addmod(acc.c0[i], bar.mulmod(digit[i], k.b.coeffs[i]));
    acc.c1[i] = bar.addmod(acc.c1[i], bar.mulmod(digit[i], k.a.coeffs[i]));
  }
}

std::pair<BigPoly, BigPoly> BigBackend::ksw_mod_down(BigExt acc) const {
  OpScope op(*this, OpKind::kModDown);
  op.attr("level", acc.level);
  const int level = acc.level;
  const std::size_t n = params_.degree;
  const BigNtt& transform = ntt_aux(level);
  transform.inverse(acc.c0);
  transform.inverse(acc.c1);

  // Mod-down: out = round(acc / P) mod Q_level.
  const BigBarrett& bar_q = barrett(level);
  std::pair<BigPoly, BigPoly> out{zero_poly(level, false),
                                  zero_poly(level, false)};
  for (int comp = 0; comp < 2; ++comp) {
    auto& a = comp == 0 ? acc.c0 : acc.c1;
    auto& dst = comp == 0 ? out.first : out.second;
    for (std::size_t i = 0; i < n; ++i) {
      BigUInt x = a[i] + half_p_;
      const BigUInt r = reduce_wide(*barrett_p_, x);
      x -= r;  // divisible by P
      const BigUInt x_mod_q = reduce_wide(bar_q, x);
      dst.coeffs[i] = bar_q.mulmod(x_mod_q, inv_p_mod_q_[level]);
    }
  }
  return out;
}

std::pair<BigPoly, BigPoly> BigBackend::key_switch(const BigPoly& d,
                                                   const KswKey& key) const {
  trace::Span span("key_switch", "kernel");
  span.attr("level", d.level);
  PooledVec<BigUInt> digit = ksw_decompose(d);
  BigExt acc = ext_zero(d.level);
  ksw_inner_prod(digit, key, acc);
  return ksw_mod_down(std::move(acc));
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

Ciphertext BigBackend::wrap(std::vector<BigPoly> polys, double scale,
                            int level) const {
  auto impl = std::make_shared<BigCtBody>();
  const std::size_t size = polys.size();
  impl->polys = std::move(polys);
  return Ciphertext(std::move(impl), scale, level, size);
}

Plaintext BigBackend::encode(std::span<const double> values, double scale,
                             int level) const {
  OpScope op(*this, OpKind::kEncode);
  op.attr("level", level);
  PPHE_CHECK(level >= 0 && level <= max_level(), "level out of range");
  const auto coeffs = encoder_.encode(values, scale);
  BigPoly p = lift_signed(coeffs, level);
  to_ntt(p);
  auto impl = std::make_shared<BigPtBody>();
  impl->poly = std::move(p);
  return Plaintext(std::move(impl), scale, level);
}

Ciphertext BigBackend::encrypt(const Plaintext& pt) const {
  OpScope op(*this, OpKind::kEncrypt);
  op.attr("level", pt.level());
  const BigPtBody& ptb = body(pt);
  const int level = pt.level();
  const int top = max_level();

  const auto u = sample_ternary(prng_, params_.degree);
  std::vector<std::int64_t> u64v(u.begin(), u.end());
  BigPoly u_poly = lift_signed(u64v, top);
  to_ntt(u_poly);
  BigPoly e0 = lift_signed(
      sample_gaussian(prng_, params_.degree, params_.noise_sigma), top);
  to_ntt(e0);
  BigPoly e1 = lift_signed(
      sample_gaussian(prng_, params_.degree, params_.noise_sigma), top);
  to_ntt(e1);

  BigPoly c0 = pointwise(pk_b_, u_poly);
  add_inplace(c0, e0);
  BigPoly c1 = pointwise(pk_a_, u_poly);
  add_inplace(c1, e1);

  std::vector<BigPoly> polys;
  polys.push_back(std::move(c0));
  polys.push_back(std::move(c1));
  Ciphertext fresh = wrap(std::move(polys), pt.scale(), top);
  if (level != top) fresh = mod_drop_to(fresh, level);
  // Add the message at the target level.
  BigCtBody with_m = body(fresh);
  add_inplace(with_m.polys[0], ptb.poly);
  return wrap(std::move(with_m.polys), pt.scale(), level);
}

std::vector<double> BigBackend::decrypt_coefficients(
    const Ciphertext& ct) const {
  const BigCtBody& c = body(ct);
  const int level = ct.level();
  BigPoly s_ntt = lift_signed(sk_signed_, level);
  to_ntt(s_ntt);

  BigPoly m = c.polys[0];
  PPHE_CHECK(m.ntt, "ciphertexts are stored in NTT form");
  BigPoly s_power = s_ntt;
  for (std::size_t t = 1; t < c.polys.size(); ++t) {
    BigPoly term = pointwise(c.polys[t], s_power);
    add_inplace(m, term);
    if (t + 1 < c.polys.size()) s_power = pointwise(s_power, s_ntt);
  }
  to_coeff(m);

  const BigUInt& q = q_ladder_[level];
  const BigUInt half_q = q >> 1;
  std::vector<double> out(params_.degree);
  for (std::size_t i = 0; i < params_.degree; ++i) {
    const BigUInt& v = m.coeffs[i];
    out[i] = v > half_q ? -(q - v).to_double() : v.to_double();
  }
  return out;
}

std::vector<double> BigBackend::decrypt_decode(const Ciphertext& ct) const {
  OpScope op(*this, OpKind::kDecrypt, ct);
  const auto coeffs = decrypt_coefficients(ct);
  return encoder_.decode_real(coeffs, ct.scale());
}

Ciphertext BigBackend::add(const Ciphertext& a, const Ciphertext& b) const {
  OpScope op(*this, OpKind::kAdd, a);
  const Ciphertext* pa = &a;
  const Ciphertext* pb = &b;
  Ciphertext dropped;
  if (a.level() != b.level()) {
    if (a.level() > b.level()) {
      dropped = mod_drop_to(a, b.level());
      pa = &dropped;
    } else {
      dropped = mod_drop_to(b, a.level());
      pb = &dropped;
    }
  }
  check_same_scale("add", pa->scale(), pb->scale());
  const BigCtBody& ba = body(*pa);
  const BigCtBody& bb = body(*pb);
  const std::size_t size = std::max(ba.polys.size(), bb.polys.size());
  std::vector<BigPoly> polys;
  polys.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (i < ba.polys.size() && i < bb.polys.size()) {
      BigPoly p = ba.polys[i];
      add_inplace(p, bb.polys[i]);
      polys.push_back(std::move(p));
    } else if (i < ba.polys.size()) {
      polys.push_back(ba.polys[i]);
    } else {
      polys.push_back(bb.polys[i]);
    }
  }
  return wrap(std::move(polys), pa->scale(), pa->level());
}

Ciphertext BigBackend::sub(const Ciphertext& a, const Ciphertext& b) const {
  OpScope op(*this, OpKind::kSub, a);
  return add(a, negate(b));
}

Ciphertext BigBackend::negate(const Ciphertext& a) const {
  OpScope op(*this, OpKind::kNegate, a);
  std::vector<BigPoly> polys = body(a).polys;
  for (auto& p : polys) negate_inplace(p);
  return wrap(std::move(polys), a.scale(), a.level());
}

Ciphertext BigBackend::add_plain(const Ciphertext& a,
                                 const Plaintext& b) const {
  OpScope op(*this, OpKind::kAddPlain, a);
  PPHE_CHECK_CODE(b.level() == a.level(), ErrorCode::kLevelMismatch,
                  "add_plain: BigBackend requires matching encode level "
                  "(ciphertext level " +
                      std::to_string(a.level()) + ", plaintext level " +
                      std::to_string(b.level()) + ")");
  check_same_scale("add_plain", a.scale(), b.scale());
  std::vector<BigPoly> polys = body(a).polys;
  add_inplace(polys[0], body(b).poly);
  return wrap(std::move(polys), a.scale(), a.level());
}

Ciphertext BigBackend::multiply(const Ciphertext& a,
                                const Ciphertext& b) const {
  OpScope op(*this, OpKind::kMultiply, a);
  check_mult_capacity("multiply", a, b);
  const Ciphertext* pa = &a;
  const Ciphertext* pb = &b;
  Ciphertext dropped;
  if (a.level() != b.level()) {
    if (a.level() > b.level()) {
      dropped = mod_drop_to(a, b.level());
      pa = &dropped;
    } else {
      dropped = mod_drop_to(b, a.level());
      pb = &dropped;
    }
  }
  const BigCtBody& ba = body(*pa);
  const BigCtBody& bb = body(*pb);
  PPHE_CHECK(ba.polys.size() == 2 && bb.polys.size() == 2,
             "multiply expects size-2 ciphertexts (relinearize first)");

  BigPoly d0 = pointwise(ba.polys[0], bb.polys[0]);
  BigPoly d1 = pointwise(ba.polys[0], bb.polys[1]);
  BigPoly cross = pointwise(ba.polys[1], bb.polys[0]);
  add_inplace(d1, cross);
  BigPoly d2 = pointwise(ba.polys[1], bb.polys[1]);

  std::vector<BigPoly> polys;
  polys.push_back(std::move(d0));
  polys.push_back(std::move(d1));
  polys.push_back(std::move(d2));
  return wrap(std::move(polys), pa->scale() * pb->scale(), pa->level());
}

Ciphertext BigBackend::multiply_plain(const Ciphertext& a,
                                      const Plaintext& b) const {
  OpScope op(*this, OpKind::kMultiplyPlain, a);
  PPHE_CHECK(b.level() == a.level(),
             "multiply_plain: BigBackend requires matching encode level "
             "(ciphertext level " +
                 std::to_string(a.level()) + ", plaintext level " +
                 std::to_string(b.level()) + ")");
  const BigCtBody& ba = body(a);
  std::vector<BigPoly> polys;
  polys.reserve(ba.polys.size());
  for (const auto& p : ba.polys) polys.push_back(pointwise(p, body(b).poly));
  return wrap(std::move(polys), a.scale() * b.scale(), a.level());
}

Ciphertext BigBackend::relinearize(const Ciphertext& a) const {
  OpScope op(*this, OpKind::kRelinearize, a);
  const BigCtBody& ba = body(a);
  if (ba.polys.size() == 2) return a;
  PPHE_CHECK(ba.polys.size() == 3, "can only relinearize size-3 ciphertexts");

  BigPoly d2 = ba.polys[2];
  to_coeff(d2);
  auto [k0, k1] = key_switch(d2, relin_key_);
  to_ntt(k0);
  to_ntt(k1);
  add_inplace(k0, ba.polys[0]);
  add_inplace(k1, ba.polys[1]);
  std::vector<BigPoly> polys;
  polys.push_back(std::move(k0));
  polys.push_back(std::move(k1));
  return wrap(std::move(polys), a.scale(), a.level());
}

Ciphertext BigBackend::rescale(const Ciphertext& a) const {
  OpScope op(*this, OpKind::kRescale, a);
  PPHE_CHECK(a.level() > 0, "no prime left to rescale by");
  const BigCtBody& ba = body(a);
  const int level = a.level();
  const std::uint64_t q_last = q_primes_[level];
  const std::uint64_t half = q_last >> 1;
  const BigBarrett& bar_next = barrett(level - 1);
  const BigUInt& inv = inv_qlast_mod_q_[level];

  std::vector<BigPoly> polys;
  polys.reserve(ba.polys.size());
  for (const auto& src_poly : ba.polys) {
    BigPoly p = src_poly;
    to_coeff(p);
    BigPoly out = zero_poly(level - 1, false);
    for (std::size_t i = 0; i < p.coeffs.size(); ++i) {
      BigUInt x = p.coeffs[i] + BigUInt(half);
      const std::uint64_t r = x.mod_u64(q_last);
      x -= BigUInt(r);  // divisible by q_last
      const BigUInt x_mod = reduce_wide(bar_next, x);
      out.coeffs[i] = bar_next.mulmod(x_mod, inv);
    }
    to_ntt(out);
    polys.push_back(std::move(out));
  }
  const double new_scale = a.scale() / static_cast<double>(q_last);
  return wrap(std::move(polys), new_scale, level - 1);
}

Ciphertext BigBackend::mod_drop_to(const Ciphertext& a, int level) const {
  OpScope op(*this, OpKind::kModDrop, a);
  op.attr("target_level", level);
  PPHE_CHECK(level >= 0 && level <= a.level(), "invalid mod-drop target");
  if (level == a.level()) return a;
  const BigCtBody& ba = body(a);
  std::vector<BigPoly> polys;
  polys.reserve(ba.polys.size());
  const BigBarrett& bar = barrett(level);
  for (const auto& src_poly : ba.polys) {
    BigPoly p = src_poly;
    to_coeff(p);
    BigPoly out = zero_poly(level, false);
    for (std::size_t i = 0; i < p.coeffs.size(); ++i) {
      out.coeffs[i] = reduce_wide(bar, p.coeffs[i]);
    }
    to_ntt(out);
    polys.push_back(std::move(out));
  }
  return wrap(std::move(polys), a.scale(), level);
}

Ciphertext BigBackend::apply_automorphism_ct(const Ciphertext& a,
                                             std::uint64_t exponent,
                                             const KswKey& key,
                                             OpKind op_kind) const {
  OpScope op(*this, op_kind, a);
  const BigCtBody& ba = body(a);
  PPHE_CHECK(ba.polys.size() == 2,
             "rotate expects size-2 ciphertexts (relinearize first)");
  BigPoly c0 = ba.polys[0];
  BigPoly c1 = ba.polys[1];
  to_coeff(c0);
  to_coeff(c1);
  BigPoly c0g = automorphism(c0, exponent);
  BigPoly c1g = automorphism(c1, exponent);
  auto [k0, k1] = key_switch(c1g, key);
  add_inplace(k0, c0g);
  to_ntt(k0);
  to_ntt(k1);
  std::vector<BigPoly> polys;
  polys.push_back(std::move(k0));
  polys.push_back(std::move(k1));
  return wrap(std::move(polys), a.scale(), a.level());
}

Ciphertext BigBackend::rotate(const Ciphertext& a, int step) const {
  const std::uint64_t exponent = rotation_exponent(step);
  auto it = galois_keys_.find(exponent);
  PPHE_CHECK(it != galois_keys_.end(),
             "missing Galois key for step " + std::to_string(step) +
                 "; call ensure_galois_keys first");
  return apply_automorphism_ct(a, exponent, it->second, OpKind::kRotate);
}

void BigBackend::ensure_galois_keys(std::span<const GaloisKeyRequest> keys) {
  OpScope op(*this, OpKind::kGaloisKeys);
  op.attr("steps", static_cast<double>(keys.size()));
  const int top = max_level();
  const BigUInt aux = q_ladder_[top] * p_modulus_;
  const std::size_t n = params_.degree;
  const std::size_t two_n = 2 * n;
  for (const GaloisKeyRequest& req : keys) {
    const std::uint64_t exponent =
        req.step == 0 ? 2 * params_.degree - 1 : rotation_exponent(req.step);
    if (galois_keys_.count(exponent) != 0) continue;
    // Target: s composed with the automorphism, lifted mod Q_L * P.
    std::vector<std::int64_t> s_g(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (sk_signed_[i] == 0) continue;
      const std::size_t j = (i * exponent) % two_n;
      if (j < n) {
        s_g[j] += sk_signed_[i];
      } else {
        s_g[j - n] -= sk_signed_[i];
      }
    }
    auto target = lift_signed_mod(s_g, aux);
    ntt_aux(top).forward(target);
    galois_keys_.emplace(exponent, make_ksw_key(target));
  }
}

}  // namespace pphe
