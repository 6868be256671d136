#include "ckks/rns_backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

#include "ckks/serialize.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "math/primes.hpp"
#include "math/sampling.hpp"

namespace pphe {
namespace {

double relative_diff(double a, double b) {
  const double m = std::max(std::abs(a), std::abs(b));
  return m == 0.0 ? 0.0 : std::abs(a - b) / m;
}

const RnsCtBody& body(const Ciphertext& ct) {
  PPHE_CHECK(ct.valid(), "invalid ciphertext handle");
  return *static_cast<const RnsCtBody*>(ct.impl().get());
}

const RnsPtBody& body(const Plaintext& pt) {
  PPHE_CHECK(pt.valid(), "invalid plaintext handle");
  return *static_cast<const RnsPtBody*>(pt.impl().get());
}

}  // namespace

RnsBackend::RnsBackend(const CkksParams& params)
    : params_(params), encoder_(params.degree),
      pool_(std::make_shared<PolyPool>()), special_(2), prng_(params.seed) {
  params_.validate();

  // One downward prime sweep covering the ciphertext chain AND the
  // key-switching prime, so all moduli are distinct even at equal widths.
  std::vector<int> sizes = params_.q_bit_sizes;
  sizes.push_back(params_.special_bit_size);
  const auto primes = generate_moduli_chain(params_.degree, sizes);
  for (std::size_t i = 0; i < params_.q_bit_sizes.size(); ++i) {
    q_moduli_.emplace_back(primes[i]);
    q_ntt_.emplace_back(params_.degree, q_moduli_.back());
  }
  special_ = Modulus(primes.back());
  special_ntt_ = std::make_unique<NttTable>(params_.degree, special_);

  p_mod_q_.resize(q_moduli_.size());
  inv_p_mod_q_.resize(q_moduli_.size());
  for (std::size_t i = 0; i < q_moduli_.size(); ++i) {
    p_mod_q_[i] = q_moduli_[i].reduce(special_.value());
    inv_p_mod_q_[i] = q_moduli_[i].inv(p_mod_q_[i]);
  }
  inv_q_mod_q_.resize(q_moduli_.size());
  for (std::size_t l = 1; l < q_moduli_.size(); ++l) {
    inv_q_mod_q_[l].resize(l);
    for (std::size_t i = 0; i < l; ++i) {
      inv_q_mod_q_[l][i] =
          q_moduli_[i].inv(q_moduli_[i].reduce(q_moduli_[l].value()));
    }
  }
  for (std::size_t l = 0; l < q_moduli_.size(); ++l) {
    std::vector<std::uint64_t> mods(l + 1);
    for (std::size_t i = 0; i <= l; ++i) mods[i] = q_moduli_[i].value();
    level_bases_.push_back(std::make_unique<RnsBase>(mods));
  }

  generate_keys();
}

// ---------------------------------------------------------------------------
// Poly helpers
// ---------------------------------------------------------------------------

const Modulus& RnsBackend::mod_for(const RnsPoly& p, std::size_t c) const {
  return (p.has_special && c == p.channels() - 1) ? special_ : q_moduli_[c];
}

const NttTable& RnsBackend::ntt_for(const RnsPoly& p, std::size_t c) const {
  return (p.has_special && c == p.channels() - 1) ? *special_ntt_ : q_ntt_[c];
}

RnsPoly RnsBackend::zero_poly(int level, bool with_special, bool ntt) const {
  RnsPoly p;
  const std::size_t channels =
      static_cast<std::size_t>(level) + 1 + (with_special ? 1 : 0);
  p.buf = PolyBuffer(pool_, channels, params_.degree, /*zero_fill=*/true);
  p.ntt = ntt;
  p.has_special = with_special;
  return p;
}

namespace {

/// Channel c of `a` and channel c of `b` must refer to the same modulus:
/// plain channels align positionally, and a special channel can only meet a
/// special channel. `b` may have more (higher) channels than `a`.
void check_channel_compat(const RnsPoly& a, const RnsPoly& b,
                          std::size_t channels_used) {
  for (std::size_t c = 0; c < channels_used; ++c) {
    const bool a_special = a.has_special && c == a.channels() - 1;
    const bool b_special = b.has_special && c == b.channels() - 1;
    PPHE_CHECK(a_special == b_special, "RNS channel layout mismatch");
  }
}

}  // namespace

void RnsBackend::to_ntt(RnsPoly& p) const {
  if (p.ntt) return;
  OpScope op(*this, OpKind::kNttForward);
  op.attr("channels", static_cast<double>(p.channels()));
  ThreadPool::global().parallel_for(
      p.channels(), [&](std::size_t c) { ntt_for(p, c).forward(p.ch(c)); });
  p.ntt = true;
}

void RnsBackend::to_coeff(RnsPoly& p) const {
  if (!p.ntt) return;
  OpScope op(*this, OpKind::kNttInverse);
  op.attr("channels", static_cast<double>(p.channels()));
  ThreadPool::global().parallel_for(
      p.channels(), [&](std::size_t c) { ntt_for(p, c).inverse(p.ch(c)); });
  p.ntt = false;
}

RnsPoly RnsBackend::lift_signed(std::span<const std::int64_t> coeffs,
                                int level, bool with_special) const {
  PPHE_CHECK(coeffs.size() == params_.degree, "coefficient count mismatch");
  RnsPoly p = zero_poly(level, with_special, /*ntt=*/false);
  ThreadPool::global().parallel_for(p.channels(), [&](std::size_t c) {
    const Modulus& mod = mod_for(p, c);
    auto dst = p.ch(c);
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      const std::int64_t v = coeffs[i];
      dst[i] = v >= 0
                   ? mod.reduce(static_cast<std::uint64_t>(v))
                   : mod.neg(mod.reduce(static_cast<std::uint64_t>(-v)));
    }
  });
  return p;
}

RnsPoly RnsBackend::uniform_poly(int level, bool with_special) const {
  RnsPoly p = zero_poly(level, with_special, /*ntt=*/true);
  std::lock_guard<std::mutex> lock(prng_mutex_);
  for (std::size_t c = 0; c < p.channels(); ++c) {
    prng_.uniform_fill(p.ch(c), mod_for(p, c).value());
  }
  return p;
}

RnsPoly RnsBackend::automorphism(const RnsPoly& p,
                                 std::uint64_t exponent) const {
  PPHE_CHECK(!p.ntt, "automorphism expects coefficient form");
  const std::size_t n = params_.degree;
  const std::size_t two_n = 2 * n;
  PPHE_CHECK(exponent % 2 == 1 && exponent < two_n, "bad Galois exponent");
  RnsPoly out;
  out.buf = PolyBuffer(pool_, p.channels(), n, /*zero_fill=*/false);
  out.ntt = p.ntt;
  out.has_special = p.has_special;
  ThreadPool::global().parallel_for(p.channels(), [&](std::size_t c) {
    const Modulus& mod = mod_for(p, c);
    const auto src = p.ch(c);
    auto dst = out.ch(c);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i * exponent) % two_n;
      if (j < n) {
        dst[j] = src[i];
      } else {
        dst[j - n] = mod.neg(src[i]);
      }
    }
  });
  return out;
}

void RnsBackend::add_inplace(RnsPoly& a, const RnsPoly& b) const {
  PPHE_CHECK(a.ntt == b.ntt, "representation mismatch in add");
  const std::size_t k = std::min(a.channels(), b.channels());
  check_channel_compat(a, b, k);
  ThreadPool::global().parallel_for(k, [&](std::size_t c) {
    dyadic::add(a.ch(c), b.ch(c), a.ch(c), mod_for(a, c));
  });
}

void RnsBackend::sub_inplace(RnsPoly& a, const RnsPoly& b) const {
  PPHE_CHECK(a.ntt == b.ntt, "representation mismatch in sub");
  const std::size_t k = std::min(a.channels(), b.channels());
  check_channel_compat(a, b, k);
  ThreadPool::global().parallel_for(k, [&](std::size_t c) {
    dyadic::sub(a.ch(c), b.ch(c), a.ch(c), mod_for(a, c));
  });
}

void RnsBackend::negate_inplace(RnsPoly& a) const {
  ThreadPool::global().parallel_for(a.channels(), [&](std::size_t c) {
    dyadic::neg(a.ch(c), a.ch(c), mod_for(a, c));
  });
}

void RnsBackend::pointwise_inplace(RnsPoly& a, const RnsPoly& b) const {
  PPHE_CHECK(a.ntt && b.ntt, "pointwise product expects NTT form");
  const std::size_t k = std::min(a.channels(), b.channels());
  check_channel_compat(a, b, k);
  ThreadPool::global().parallel_for(k, [&](std::size_t c) {
    dyadic::mul(a.ch(c), b.ch(c), a.ch(c), mod_for(a, c));
  });
}

RnsPoly RnsBackend::pointwise(const RnsPoly& a, const RnsPoly& b) const {
  PPHE_CHECK(a.ntt && b.ntt, "pointwise product expects NTT form");
  // Fused truncate-and-multiply: the output covers the common channel prefix
  // (truncation removes a's trailing special channel, if there was one) and
  // is written directly into a fresh slab instead of copying a first.
  const std::size_t k = std::min(a.channels(), b.channels());
  RnsPoly out;
  out.buf = PolyBuffer(pool_, k, params_.degree, /*zero_fill=*/false);
  out.ntt = true;
  out.has_special = a.has_special && k == a.channels();
  check_channel_compat(out, b, k);
  ThreadPool::global().parallel_for(k, [&](std::size_t c) {
    dyadic::mul(a.ch(c), b.ch(c), out.ch(c), mod_for(out, c));
  });
  return out;
}

PolyBuffer RnsBackend::shoup_form(const RnsPoly& p) const {
  PolyBuffer q(pool_, p.channels(), params_.degree, /*zero_fill=*/false);
  ThreadPool::global().parallel_for(p.channels(), [&](std::size_t c) {
    dyadic::shoup_precompute(p.ch(c), q[c], mod_for(p, c));
  });
  return q;
}

const PolyBuffer& RnsBackend::pt_shoup(const RnsPtBody& pt) const {
  std::call_once(pt.shoup_once, [&] { pt.shoup = shoup_form(pt.poly); });
  return pt.shoup;
}

RnsPoly RnsBackend::pointwise_shoup(const RnsPoly& w, const PolyBuffer& wq,
                                    const RnsPoly& b) const {
  PPHE_CHECK(w.ntt && b.ntt, "pointwise product expects NTT form");
  const std::size_t k = std::min(w.channels(), b.channels());
  RnsPoly out;
  out.buf = PolyBuffer(pool_, k, params_.degree, /*zero_fill=*/false);
  out.ntt = true;
  out.has_special = w.has_special && k == w.channels();
  check_channel_compat(out, b, k);
  ThreadPool::global().parallel_for(k, [&](std::size_t c) {
    dyadic::mul_shoup(b.ch(c), w.ch(c), wq[c], out.ch(c), mod_for(out, c));
  });
  return out;
}

// ---------------------------------------------------------------------------
// Key generation
// ---------------------------------------------------------------------------

void RnsBackend::generate_keys() {
  const int top = max_level();
  // Secret key s <- HW(h), lifted to every channel (q primes + special).
  const auto s = sample_hwt(prng_, params_.degree, params_.hamming_weight);
  std::vector<std::int64_t> s64(s.begin(), s.end());
  sk_coeff_ = lift_signed(s64, top, /*with_special=*/true);
  sk_ntt_ = sk_coeff_;
  to_ntt(sk_ntt_);

  // Public key (b, a): b = -a s + e over the q primes.
  pk_a_ = uniform_poly(top, /*with_special=*/false);
  const auto e = sample_gaussian(prng_, params_.degree, params_.noise_sigma);
  RnsPoly e_poly = lift_signed(e, top, /*with_special=*/false);
  to_ntt(e_poly);
  pk_b_ = pointwise(pk_a_, sk_ntt_);
  negate_inplace(pk_b_);
  add_inplace(pk_b_, e_poly);
  pk_b_shoup_ = shoup_form(pk_b_);
  pk_a_shoup_ = shoup_form(pk_a_);

  // Relinearization key: targets s^2. Relinearization runs at every level,
  // so its key covers all of them.
  RnsPoly s2 = pointwise(sk_ntt_, sk_ntt_);
  relin_key_ = make_ksw_key(s2, top);
}

RnsPoly RnsBackend::key_basis(const RnsPoly& p, int level) const {
  PPHE_CHECK(p.has_special && p.channels() == q_moduli_.size() + 1,
             "key_basis expects a poly over every channel");
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;
  const std::size_t n = params_.degree;
  RnsPoly out;
  out.buf = PolyBuffer(pool_, q_channels + 1, n, /*zero_fill=*/false);
  out.ntt = p.ntt;
  out.has_special = true;
  std::memcpy(out.buf.data(), p.buf.data(),
              q_channels * n * sizeof(std::uint64_t));
  std::memcpy(out.ch(q_channels).data(), p.ch(p.channels() - 1).data(),
              n * sizeof(std::uint64_t));
  return out;
}

RnsBackend::KswKey RnsBackend::make_ksw_key(const RnsPoly& target_ntt,
                                            int level) const {
  PPHE_CHECK(level >= 0 && level <= max_level(), "key level out of range");
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;
  PPHE_CHECK(target_ntt.ntt && target_ntt.has_special &&
                 target_ntt.channels() == q_channels + 1,
             "key-switch target must be NTT over the key's channels");
  // The same RLWE key as one over the whole chain, reduced mod Q_level * p:
  // a ciphertext at level <= `level` only ever reads these digits and
  // channels.
  const RnsPoly sk = key_basis(sk_ntt_, level);
  KswKey key;
  key.level = level;
  key.digits.resize(q_channels);
  key.shoup.resize(q_channels);
  for (std::size_t j = 0; j < q_channels; ++j) {
    RnsPoly a_j = uniform_poly(level, /*with_special=*/true);
    const auto e = [this] {
      std::lock_guard<std::mutex> lock(prng_mutex_);
      return sample_gaussian(prng_, params_.degree, params_.noise_sigma);
    }();
    RnsPoly e_j = lift_signed(e, level, /*with_special=*/true);
    to_ntt(e_j);
    // b_j = -a_j s + e_j + (p mod q_j) * target  [only on channel j].
    RnsPoly b_j = pointwise(a_j, sk);
    negate_inplace(b_j);
    add_inplace(b_j, e_j);
    const Modulus& mod_j = q_moduli_[j];
    const std::uint64_t p_j = p_mod_q_[j];
    auto bch = b_j.ch(j);
    const auto tch = target_ntt.ch(j);
    for (std::size_t i = 0; i < bch.size(); ++i) {
      bch[i] = mod_j.add(bch[i], mod_j.mul(p_j, tch[i]));
    }
    key.shoup[j] = {shoup_form(b_j), shoup_form(a_j)};
    key.digits[j] = {std::move(b_j), std::move(a_j)};
  }
  return key;
}

// ---------------------------------------------------------------------------
// Key switching, phased (DESIGN.md §14): digit decompose -> raised-basis
// inner product -> mod-down epilogue. The split exists so hoisted paths can
// share one decomposition across many inner products, and — double hoisting —
// accumulate many inner products in the raised basis and pay ONE mod-down
// for the whole sum instead of one per rotation.
// ---------------------------------------------------------------------------

RnsBackend::KswDigits RnsBackend::ksw_decompose(const RnsPoly& d,
                                                int level) const {
  PPHE_CHECK(!d.ntt, "ksw_decompose expects coefficient form");
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;
  PPHE_CHECK(d.channels() >= q_channels, "digit source too small");
  const std::size_t n = params_.degree;

  KswDigits out;
  out.q_channels = q_channels;
  out.channels = q_channels + 1;  // + special
  out.level = level;
  out.rows =
      PolyBuffer(pool_, q_channels * out.channels, n, /*zero_fill=*/false);

  // One digit per prime (the RNS gadget of Cheon et al. [9] / SEAL): digit j
  // is the residue of d mod q_j, lifted to every channel (q primes plus the
  // special prime p) and NTT'd. Digit rows over channels are the parallel
  // units. The lift is centered: a residue above q_j/2 stands for residue -
  // q_j. Uncentered digits have mean q_j/2, and that mean times the key error
  // is a ciphertext-independent term on the slots whose roots lie nearest 1
  // (DESIGN.md §14).
  trace::Span span("ksw_decompose", "kernel");
  span.attr("digits", static_cast<double>(q_channels));
  const std::size_t channels = out.channels;
  for (std::size_t j = 0; j < q_channels; ++j) {
    const auto digit = d.ch(j);
    const std::uint64_t q_j = q_moduli_[j].value();
    ThreadPool::global().parallel_for(channels, [&](std::size_t c) {
      const bool is_special = c == channels - 1;
      const Modulus& mod = is_special ? special_ : q_moduli_[c];
      const NttTable& ntt = is_special ? *special_ntt_ : q_ntt_[c];
      auto lift = out.rows[j * channels + c];
      if (!is_special && c == j) {
        std::memcpy(lift.data(), digit.data(), n * sizeof(std::uint64_t));
      } else {
        // x - q_j = x + (p_c - q_j mod p_c) mod p_c: one reduction per
        // element, as for the uncentered lift, and a select, not a branch.
        const std::uint64_t half = q_j / 2;
        const std::uint64_t minus_q_j = mod.value() - mod.reduce(q_j);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t x = digit[i];
          lift[i] = mod.reduce(x > half ? x + minus_q_j : x);
        }
      }
      ntt.forward(lift);
    });
  }
  return out;
}

ExtAccumulator RnsBackend::ext_zero(int level) const {
  ExtAccumulator acc;
  acc.c0 = zero_poly(level, /*with_special=*/true, /*ntt=*/true);
  acc.c1 = zero_poly(level, /*with_special=*/true, /*ntt=*/true);
  acc.level = level;
  return acc;
}

void RnsBackend::ksw_inner_prod(const KswDigits& digits, const KswKey& key,
                                const std::uint32_t* perm,
                                ExtAccumulator& acc) const {
  PPHE_CHECK_CODE(digits.level <= key.level, ErrorCode::kLevelMismatch,
                  "key switch at level " + std::to_string(digits.level) +
                      " with a key built for levels 0.." +
                      std::to_string(key.level) +
                      "; ensure the Galois key at the higher level");
  OpScope op(*this, OpKind::kKswInner);
  op.attr("digits", static_cast<double>(digits.q_channels));
  op.attr("level", static_cast<double>(digits.level));
  PPHE_CHECK(acc.level == digits.level, "ksw_inner_prod: level mismatch");
  const std::size_t channels = digits.channels;
  const std::size_t q_channels = digits.q_channels;
  const std::size_t n = params_.degree;
  // Key channel index of p: the key's q channels come first.
  const std::size_t key_special = static_cast<std::size_t>(key.level) + 1;

  // Rotated inner products gather each digit through the automorphism
  // permutation ONCE into a scratch row, then run the same flat HAL
  // mul_acc_shoup kernels as the unrotated case — one gather pass plus two
  // SIMD passes per (digit, channel) instead of two scalar gather-multiply
  // passes. Element order is unchanged, so the result is bit-identical to
  // the scalar gather-multiply formulation.
  PolyBuffer scratch;
  if (perm != nullptr) {
    scratch = PolyBuffer(pool_, channels, n, /*zero_fill=*/false);
  }
  ThreadPool::global().parallel_for(channels, [&](std::size_t c) {
    const bool is_special = c == channels - 1;
    const Modulus& mod = is_special ? special_ : q_moduli_[c];
    const std::size_t key_c = is_special ? key_special : c;
    auto a0 = acc.c0.ch(c);
    auto a1 = acc.c1.ch(c);
    for (std::size_t j = 0; j < q_channels; ++j) {
      auto dj = digits.rows[j * channels + c];
      const auto kb = key.digits[j][0].ch(key_c);
      const auto ka = key.digits[j][1].ch(key_c);
      const auto kbq = key.shoup[j][0][key_c];
      const auto kaq = key.shoup[j][1][key_c];
      if (perm != nullptr) {
        auto row = scratch[c];
        for (std::size_t i = 0; i < n; ++i) row[i] = dj[perm[i]];
        dj = row;
      }
      dyadic::mul_acc_shoup(dj, kb, kbq, a0, mod);
      dyadic::mul_acc_shoup(dj, ka, kaq, a1, mod);
    }
  });
}

std::pair<RnsPoly, RnsPoly> RnsBackend::ksw_mod_down(
    ExtAccumulator acc) const {
  OpScope op(*this, OpKind::kModDown);
  op.attr("level", static_cast<double>(acc.level));
  const int level = acc.level;
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;
  const std::size_t channels = q_channels + 1;
  const std::size_t n = params_.degree;

  // Mod-down: out = round(acc / p) over the q channels.
  to_coeff(acc.c0);
  to_coeff(acc.c1);
  const std::uint64_t p = special_.value();
  const std::uint64_t half_p = p >> 1;
  std::pair<RnsPoly, RnsPoly> out{zero_poly(level, false, false),
                                  zero_poly(level, false, false)};
  for (int comp = 0; comp < 2; ++comp) {
    RnsPoly& a = comp == 0 ? acc.c0 : acc.c1;
    RnsPoly& dst = comp == 0 ? out.first : out.second;
    // r' = (acc + p/2) mod p, taken from the special channel.
    auto rp = a.ch(channels - 1);
    for (auto& v : rp) v = special_.add(v, half_p);
    ThreadPool::global().parallel_for(q_channels, [&](std::size_t c) {
      const Modulus& mod = q_moduli_[c];
      const std::uint64_t half_mod = mod.reduce(half_p);
      const std::uint64_t inv_p = inv_p_mod_q_[c];
      const auto src = a.ch(c);
      auto d_out = dst.ch(c);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t num =
            mod.sub(mod.add(src[i], half_mod), mod.reduce(rp[i]));
        d_out[i] = mod.mul(num, inv_p);
      }
    });
  }
  return out;
}

std::pair<RnsPoly, RnsPoly> RnsBackend::key_switch(const RnsPoly& d, int level,
                                                   const KswKey& key) const {
  trace::Span span("key_switch", "kernel");
  span.attr("level", level);
  span.attr("digits", level + 1);
  const KswDigits digits = ksw_decompose(d, level);
  ExtAccumulator acc = ext_zero(level);
  ksw_inner_prod(digits, key, /*perm=*/nullptr, acc);
  return ksw_mod_down(std::move(acc));
}

std::uint64_t RnsBackend::rotation_exponent(int step) const {
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
// Public API
// ---------------------------------------------------------------------------

Ciphertext RnsBackend::wrap(std::vector<RnsPoly> polys, double scale,
                            int level) const {
  auto impl = std::make_shared<RnsCtBody>();
  const std::size_t size = polys.size();
  impl->polys = std::move(polys);
  return Ciphertext(std::move(impl), scale, level, size);
}

Plaintext RnsBackend::encode(std::span<const double> values, double scale,
                             int level) const {
  OpScope op(*this, OpKind::kEncode);
  op.attr("level", level);
  PPHE_CHECK(level >= 0 && level <= max_level(), "level out of range");
  const auto coeffs = encoder_.encode(values, scale);
  // Plaintexts carry the special prime p as an extra trailing channel so the
  // fused BSGS path can multiply them against raised-basis accumulators
  // (DESIGN.md §14). Every q-only consumer truncates it away positionally;
  // serialization strips it before the wire.
  RnsPoly p = lift_signed(coeffs, level, /*with_special=*/true);
  to_ntt(p);
  auto impl = std::make_shared<RnsPtBody>();
  impl->poly = std::move(p);
  return Plaintext(std::move(impl), scale, level);
}

Ciphertext RnsBackend::encrypt(const Plaintext& pt) const {
  OpScope op(*this, OpKind::kEncrypt);
  op.attr("level", pt.level());
  const RnsPtBody& ptb = body(pt);
  const int level = pt.level();

  // Draw all three samples under one lock (concurrent serving workers
  // encrypt on different threads), then do the heavy lifting unlocked.
  std::vector<std::int64_t> u64v;
  std::vector<std::int64_t> e0v, e1v;
  {
    std::lock_guard<std::mutex> lock(prng_mutex_);
    const auto u = sample_ternary(prng_, params_.degree);
    u64v.assign(u.begin(), u.end());
    e0v = sample_gaussian(prng_, params_.degree, params_.noise_sigma);
    e1v = sample_gaussian(prng_, params_.degree, params_.noise_sigma);
  }
  RnsPoly u_poly = lift_signed(u64v, level, false);
  to_ntt(u_poly);
  RnsPoly e0 = lift_signed(e0v, level, false);
  to_ntt(e0);
  RnsPoly e1 = lift_signed(e1v, level, false);
  to_ntt(e1);

  RnsPoly c0 = pointwise_shoup(pk_b_, pk_b_shoup_, u_poly);
  add_inplace(c0, e0);
  add_inplace(c0, ptb.poly);
  RnsPoly c1 = pointwise_shoup(pk_a_, pk_a_shoup_, u_poly);
  add_inplace(c1, e1);

  std::vector<RnsPoly> polys;
  polys.push_back(std::move(c0));
  polys.push_back(std::move(c1));
  return wrap(std::move(polys), pt.scale(), level);
}

std::vector<double> RnsBackend::decrypt_coefficients(
    const Ciphertext& ct) const {
  const RnsCtBody& c = body(ct);
  const int level = ct.level();
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;

  RnsPoly m = c.polys[0];
  PPHE_CHECK(m.ntt, "ciphertexts are stored in NTT form");
  RnsPoly s_power = sk_ntt_;  // use channels 0..level
  for (std::size_t t = 1; t < c.polys.size(); ++t) {
    RnsPoly term = c.polys[t];
    pointwise_inplace(term, s_power);
    add_inplace(m, term);
    if (t + 1 < c.polys.size()) pointwise_inplace(s_power, sk_ntt_);
  }
  to_coeff(m);

  const RnsBase& base = *level_bases_[level];
  const BigUInt& q = base.product();
  const BigUInt half_q = q >> 1;
  std::vector<double> out(params_.degree);
  std::vector<std::uint64_t> residues(q_channels);
  for (std::size_t i = 0; i < params_.degree; ++i) {
    for (std::size_t ch = 0; ch < q_channels; ++ch) residues[ch] = m.ch(ch)[i];
    const BigUInt v = base.compose(residues);
    out[i] = v > half_q ? -(q - v).to_double() : v.to_double();
  }
  return out;
}

std::vector<double> RnsBackend::decrypt_decode(const Ciphertext& ct) const {
  OpScope op(*this, OpKind::kDecrypt, ct);
  const auto coeffs = decrypt_coefficients(ct);
  return encoder_.decode_real(coeffs, ct.scale());
}

Ciphertext RnsBackend::add(const Ciphertext& a, const Ciphertext& b) const {
  OpScope op(*this, OpKind::kAdd, a);
  const Ciphertext* pa = &a;
  const Ciphertext* pb = &b;
  Ciphertext dropped;
  if (a.level() != b.level()) {
    // Align automatically: drop the one with more remaining primes.
    if (a.level() > b.level()) {
      dropped = mod_drop_to(a, b.level());
      pa = &dropped;
    } else {
      dropped = mod_drop_to(b, a.level());
      pb = &dropped;
    }
  }
  check_same_scale("add", pa->scale(), pb->scale());
  const RnsCtBody& ba = body(*pa);
  const RnsCtBody& bb = body(*pb);
  const std::size_t size = std::max(ba.polys.size(), bb.polys.size());
  std::vector<RnsPoly> polys;
  polys.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (i < ba.polys.size() && i < bb.polys.size()) {
      RnsPoly p = ba.polys[i];
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

Ciphertext RnsBackend::sub(const Ciphertext& a, const Ciphertext& b) const {
  OpScope op(*this, OpKind::kSub, a);
  return add(a, negate(b));
}

Ciphertext RnsBackend::negate(const Ciphertext& a) const {
  OpScope op(*this, OpKind::kNegate, a);
  const RnsCtBody& ba = body(a);
  std::vector<RnsPoly> polys = ba.polys;
  for (auto& p : polys) negate_inplace(p);
  return wrap(std::move(polys), a.scale(), a.level());
}

Ciphertext RnsBackend::add_plain(const Ciphertext& a,
                                 const Plaintext& b) const {
  OpScope op(*this, OpKind::kAddPlain, a);
  PPHE_CHECK_CODE(b.level() >= a.level(), ErrorCode::kLevelMismatch,
                  "add_plain: plaintext encoded at level " +
                      std::to_string(b.level()) +
                      " but the ciphertext is at level " +
                      std::to_string(a.level()) + "; re-encode at the ct level");
  check_same_scale("add_plain", a.scale(), b.scale());
  const RnsCtBody& ba = body(a);
  std::vector<RnsPoly> polys = ba.polys;
  add_inplace(polys[0], body(b).poly);
  return wrap(std::move(polys), a.scale(), a.level());
}

Ciphertext RnsBackend::multiply(const Ciphertext& a,
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
  const RnsCtBody& ba = body(*pa);
  const RnsCtBody& bb = body(*pb);
  PPHE_CHECK(ba.polys.size() == 2 && bb.polys.size() == 2,
             "multiply expects size-2 ciphertexts (relinearize first)");

  RnsPoly d0 = pointwise(ba.polys[0], bb.polys[0]);
  RnsPoly d1 = pointwise(ba.polys[0], bb.polys[1]);
  RnsPoly cross = pointwise(ba.polys[1], bb.polys[0]);
  add_inplace(d1, cross);
  RnsPoly d2 = pointwise(ba.polys[1], bb.polys[1]);

  std::vector<RnsPoly> polys;
  polys.push_back(std::move(d0));
  polys.push_back(std::move(d1));
  polys.push_back(std::move(d2));
  return wrap(std::move(polys), pa->scale() * pb->scale(), pa->level());
}

Ciphertext RnsBackend::multiply_plain(const Ciphertext& a,
                                      const Plaintext& b) const {
  OpScope op(*this, OpKind::kMultiplyPlain, a);
  PPHE_CHECK(b.level() >= a.level(),
             "multiply_plain: plaintext encoded at level " +
                 std::to_string(b.level()) + " but the ciphertext is at level " +
                 std::to_string(a.level()) + "; re-encode at the ct level");
  const RnsCtBody& ba = body(a);
  const RnsPtBody& bp = body(b);
  const PolyBuffer& wq = pt_shoup(bp);
  std::vector<RnsPoly> polys;
  polys.reserve(ba.polys.size());
  for (const auto& p : ba.polys) {
    polys.push_back(pointwise_shoup(bp.poly, wq, p));
  }
  return wrap(std::move(polys), a.scale() * b.scale(), a.level());
}

Ciphertext RnsBackend::relinearize(const Ciphertext& a) const {
  OpScope op(*this, OpKind::kRelinearize, a);
  const RnsCtBody& ba = body(a);
  if (ba.polys.size() == 2) return a;
  PPHE_CHECK(ba.polys.size() == 3, "can only relinearize size-3 ciphertexts");

  RnsPoly d2 = ba.polys[2];
  to_coeff(d2);
  auto [k0, k1] = key_switch(d2, a.level(), relin_key_);
  to_ntt(k0);
  to_ntt(k1);
  add_inplace(k0, ba.polys[0]);
  add_inplace(k1, ba.polys[1]);
  std::vector<RnsPoly> polys;
  polys.push_back(std::move(k0));
  polys.push_back(std::move(k1));
  return wrap(std::move(polys), a.scale(), a.level());
}

Ciphertext RnsBackend::rescale(const Ciphertext& a) const {
  OpScope op(*this, OpKind::kRescale, a);
  PPHE_CHECK(a.level() > 0, "no prime left to rescale by");
  const RnsCtBody& ba = body(a);
  const auto l = static_cast<std::size_t>(a.level());
  const Modulus& q_last = q_moduli_[l];
  const std::uint64_t half = q_last.value() >> 1;

  std::vector<RnsPoly> polys;
  polys.reserve(ba.polys.size());
  for (const auto& src_poly : ba.polys) {
    RnsPoly p = src_poly;
    to_coeff(p);
    // r' = (c + q_l/2) mod q_l from the dropped channel.
    auto rl = p.ch(l);
    for (auto& v : rl) v = q_last.add(v, half);
    RnsPoly out = zero_poly(a.level() - 1, false, false);
    ThreadPool::global().parallel_for(l, [&](std::size_t c) {
      const Modulus& mod = q_moduli_[c];
      const std::uint64_t half_mod = mod.reduce(half);
      const std::uint64_t inv = inv_q_mod_q_[l][c];
      const auto src = p.ch(c);
      auto dst = out.ch(c);
      for (std::size_t i = 0; i < dst.size(); ++i) {
        const std::uint64_t num =
            mod.sub(mod.add(src[i], half_mod), mod.reduce(rl[i]));
        dst[i] = mod.mul(num, inv);
      }
    });
    to_ntt(out);
    polys.push_back(std::move(out));
  }
  const double new_scale = a.scale() / static_cast<double>(q_last.value());
  return wrap(std::move(polys), new_scale, a.level() - 1);
}

Ciphertext RnsBackend::mod_drop_to(const Ciphertext& a, int level) const {
  OpScope op(*this, OpKind::kModDrop, a);
  op.attr("target_level", level);
  PPHE_CHECK(level >= 0 && level <= a.level(), "invalid mod-drop target");
  if (level == a.level()) return a;
  const RnsCtBody& ba = body(a);
  std::vector<RnsPoly> polys = ba.polys;
  // shrink_channels re-slabs: the dropped tail returns to the pool instead
  // of lingering as dead capacity on the truncated polynomial.
  for (auto& p : polys) {
    p.buf.shrink_channels(static_cast<std::size_t>(level) + 1);
  }
  return wrap(std::move(polys), a.scale(), level);
}

Ciphertext RnsBackend::apply_automorphism_ct(const Ciphertext& a,
                                             std::uint64_t exponent,
                                             const KswKey& key,
                                             OpKind op_kind) const {
  OpScope op(*this, op_kind, a);
  const RnsCtBody& ba = body(a);
  PPHE_CHECK(ba.polys.size() == 2,
             "rotate/conjugate expects size-2 ciphertexts (relinearize first)");
  RnsPoly c0 = ba.polys[0];
  RnsPoly c1 = ba.polys[1];
  to_coeff(c0);
  to_coeff(c1);
  RnsPoly c0g = automorphism(c0, exponent);
  RnsPoly c1g = automorphism(c1, exponent);
  auto [k0, k1] = key_switch(c1g, a.level(), key);
  add_inplace(k0, c0g);
  to_ntt(k0);
  to_ntt(k1);
  std::vector<RnsPoly> polys;
  polys.push_back(std::move(k0));
  polys.push_back(std::move(k1));
  return wrap(std::move(polys), a.scale(), a.level());
}

const std::vector<std::uint32_t>& RnsBackend::ntt_permutation(
    std::uint64_t exponent) const {
  // Guarded: concurrent serving workers rotate on different threads. Map
  // nodes are stable, so the returned reference outlives the lock.
  std::lock_guard<std::mutex> lock(ntt_perm_mutex_);
  auto it = ntt_perms_.find(exponent);
  if (it != ntt_perms_.end()) return it->second;

  const std::size_t n = params_.degree;
  const std::size_t two_n = 2 * n;
  int bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  auto brv = [bits](std::size_t x) {
    std::size_t r = 0;
    for (int b = 0; b < bits; ++b) {
      r = (r << 1) | (x & 1);
      x >>= 1;
    }
    return r;
  };
  // Forward-NTT output index j holds the evaluation at psi^(2*brv(j)+1);
  // sigma(x)(psi^e) = x(psi^(e*g)), so output j reads input index j' with
  // 2*brv(j')+1 = (2*brv(j)+1)*g (mod 2n).
  std::vector<std::uint32_t> perm(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t e = (2 * brv(j) + 1) * exponent % two_n;
    perm[j] = static_cast<std::uint32_t>(brv((e - 1) / 2));
  }
  return ntt_perms_.emplace(exponent, std::move(perm)).first->second;
}

std::vector<Ciphertext> RnsBackend::rotate_batch(
    const Ciphertext& a, std::span<const int> steps) const {
  // Normalize first: steps that are 0 modulo the slot count alias the input
  // and repeated steps alias the first materialized result, so only the
  // unique non-zero steps decide whether hoisting pays.
  const long long slots = static_cast<long long>(slot_count());
  std::vector<long long> norm(steps.size());
  std::size_t unique_nonzero = 0;
  {
    std::map<long long, std::size_t> seen;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      norm[i] = ((steps[i] % slots) + slots) % slots;
      if (norm[i] != 0 && seen.emplace(norm[i], i).second) ++unique_nonzero;
    }
  }
  if (unique_nonzero <= 1) {
    // At most one real rotation: the (aliasing) default loop is already
    // optimal, and hoisting would only add the decompose overhead.
    return HeBackend::rotate_batch(a, steps);
  }
  trace::Span batch_span("rotate_batch", "kernel");
  batch_span.attr("steps", static_cast<double>(steps.size()));
  batch_span.attr("unique_steps", static_cast<double>(unique_nonzero));
  batch_span.attr("level", a.level());
  const RnsCtBody& ba = body(a);
  PPHE_CHECK(ba.polys.size() == 2, "rotate expects size-2 ciphertexts");
  PPHE_CHECK(ba.polys[0].ntt && ba.polys[1].ntt,
             "ciphertexts are stored in NTT form");
  const auto level = a.level();
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;
  const std::size_t n = params_.degree;

  // Hoist: decompose c1 once; each step then only permutes the digit table
  // inside its inner product.
  RnsPoly c1 = ba.polys[1];
  to_coeff(c1);
  const KswDigits digits = ksw_decompose(c1, level);

  std::vector<Ciphertext> out;
  out.reserve(steps.size());
  std::map<long long, std::size_t> done;  // normalized step -> out index
  for (std::size_t s = 0; s < steps.size(); ++s) {
    if (norm[s] == 0) {
      out.push_back(a);
      continue;
    }
    if (const auto it = done.find(norm[s]); it != done.end()) {
      out.push_back(out[it->second]);
      continue;
    }
    const int step = steps[s];
    OpScope op(*this, OpKind::kRotateHoisted, a);
    op.attr("step", step);
    const std::uint64_t exponent = rotation_exponent(step);
    const auto key_ptr = galois_key(step);
    const auto& perm = ntt_permutation(exponent);

    ExtAccumulator acc = ext_zero(level);
    ksw_inner_prod(digits, *key_ptr, perm.data(), acc);
    auto [out0, out1] = ksw_mod_down(std::move(acc));
    to_ntt(out0);
    to_ntt(out1);
    // Add sigma(c0), applied directly in the NTT domain via the permutation.
    ThreadPool::global().parallel_for(q_channels, [&](std::size_t c) {
      const Modulus& mod = q_moduli_[c];
      const auto src = ba.polys[0].ch(c);
      auto dst = out0.ch(c);
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = mod.add(dst[i], src[perm[i]]);
      }
    });
    std::vector<RnsPoly> polys;
    polys.push_back(std::move(out0));
    polys.push_back(std::move(out1));
    done.emplace(norm[s], out.size());
    out.push_back(wrap(std::move(polys), a.scale(), level));
  }
  return out;
}

Ciphertext RnsBackend::rotate_sum(std::span<const Ciphertext> cts,
                                  std::span<const int> steps) const {
  PPHE_CHECK(cts.size() == steps.size(), "rotate_sum: cts/steps size mismatch");
  if (cts.empty()) return {};
  trace::Span span("rotate_sum", "kernel");
  span.attr("terms", static_cast<double>(cts.size()));
  const long long slots = static_cast<long long>(slot_count());
  const int level = cts[0].level();
  const double scale = cts[0].scale();
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;
  const std::size_t n = params_.degree;

  // Running q-basis sum (NTT form) of the sigma(c0) halves and the unrotated
  // inputs; every key-switch inner product lands in ONE raised-basis
  // accumulator, so the whole sum pays a single mod-down epilogue instead of
  // one per rotation (double hoisting).
  RnsPoly sum0 = zero_poly(level, /*with_special=*/false, /*ntt=*/true);
  RnsPoly sum1 = zero_poly(level, /*with_special=*/false, /*ntt=*/true);
  ExtAccumulator ext = ext_zero(level);
  bool used_ext = false;
  for (std::size_t t = 0; t < cts.size(); ++t) {
    check_same_level("rotate_sum", cts[0], cts[t]);
    check_same_scale("rotate_sum", scale, cts[t].scale());
    const RnsCtBody& bc = body(cts[t]);
    PPHE_CHECK(bc.polys.size() == 2,
               "rotate_sum expects size-2 ciphertexts (relinearize first)");
    const long long r = ((steps[t] % slots) + slots) % slots;
    if (r == 0) {
      add_inplace(sum0, bc.polys[0]);
      add_inplace(sum1, bc.polys[1]);
      continue;
    }
    const std::uint64_t exponent = rotation_exponent(steps[t]);
    const auto key_ptr = galois_key(steps[t]);
    const auto& perm = ntt_permutation(exponent);

    RnsPoly c1 = bc.polys[1];
    to_coeff(c1);
    const KswDigits digits = ksw_decompose(c1, level);
    ksw_inner_prod(digits, *key_ptr, perm.data(), ext);
    used_ext = true;
    // sigma(c0) added in the NTT domain via the permutation.
    ThreadPool::global().parallel_for(q_channels, [&](std::size_t c) {
      const Modulus& mod = q_moduli_[c];
      const auto src = bc.polys[0].ch(c);
      auto dst = sum0.ch(c);
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = mod.add(dst[i], src[perm[i]]);
      }
    });
  }
  if (used_ext) {
    auto [g0, g1] = ksw_mod_down(std::move(ext));
    to_ntt(g0);
    to_ntt(g1);
    add_inplace(sum0, g0);
    add_inplace(sum1, g1);
  }
  std::vector<RnsPoly> polys;
  polys.push_back(std::move(sum0));
  polys.push_back(std::move(sum1));
  return wrap(std::move(polys), scale, level);
}

Ciphertext RnsBackend::linear_bsgs(const Ciphertext& x,
                                   std::span<const BsgsGroupSpec> groups) const {
  if (groups.empty()) return HeBackend::linear_bsgs(x, groups);
  const RnsCtBody& bx = body(x);
  PPHE_CHECK(bx.polys.size() == 2,
             "linear_bsgs expects a size-2 input (relinearize first)");
  PPHE_CHECK(bx.polys[0].ntt && bx.polys[1].ntt,
             "ciphertexts are stored in NTT form");
  const int level = x.level();
  const std::size_t q_channels = static_cast<std::size_t>(level) + 1;
  const std::size_t channels = q_channels + 1;  // + special
  const std::size_t n = params_.degree;
  const long long slots = static_cast<long long>(slot_count());
  const auto normalize = [slots](int step) {
    return ((step % slots) + slots) % slots;
  };

  // Eligibility scan: the fused path multiplies weights against raised-basis
  // accumulators, so every weight must be a plaintext that carries the
  // special channel, sits at (or above) the input level, and shares one
  // scale. Any other operand set runs the generic schedule.
  double w_scale = 0.0;
  for (const BsgsGroupSpec& grp : groups) {
    for (const BsgsTerm& term : grp.terms) {
      const Plaintext* pt =
          term.weight ? std::get_if<Plaintext>(term.weight) : nullptr;
      if (pt == nullptr || !pt->valid() || pt->level() < level) {
        return HeBackend::linear_bsgs(x, groups);
      }
      if (w_scale == 0.0) {
        w_scale = pt->scale();
      } else if (relative_diff(w_scale, pt->scale()) > 1e-9) {
        return HeBackend::linear_bsgs(x, groups);
      }
      const RnsPtBody& w = body(*pt);
      if (!w.poly.has_special || !w.poly.ntt ||
          w.poly.channels() < channels) {
        return HeBackend::linear_bsgs(x, groups);
      }
    }
  }
  if (w_scale == 0.0) return HeBackend::linear_bsgs(x, groups);

  trace::Span span("linear_bsgs", "kernel");
  span.attr("groups", static_cast<double>(groups.size()));
  span.attr("level", level);

  // Weight channel row for accumulator channel c: q rows align positionally,
  // the special row is always LAST in the weight poly (whose level may
  // exceed the ciphertext's).
  const auto w_row = [&](const RnsPtBody& w, std::size_t c) {
    return c == q_channels ? w.poly.channels() - 1 : c;
  };

  // Layer-wide accumulators: every giant group's rotated key-switch parts
  // land in ONE raised-basis accumulator (one final mod-down), the q-basis
  // parts in (out0, out1), NTT form. Per-group accumulators sit alongside:
  // the giant-0 group writes straight into the layer accumulator (no
  // rotation, no group mod-down of its own).
  ExtAccumulator layer_ext = ext_zero(level);
  RnsPoly out0 = zero_poly(level, /*with_special=*/false, /*ntt=*/true);
  RnsPoly out1 = zero_poly(level, /*with_special=*/false, /*ntt=*/true);

  const std::size_t n_groups = groups.size();
  std::vector<long long> g_giant(n_groups, 0);
  std::vector<ExtAccumulator> g_ext(n_groups);
  std::vector<RnsPoly> g_s0(n_groups), g_s1(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (groups[g].terms.empty()) continue;
    g_giant[g] = normalize(groups[g].giant_step);
    if (g_giant[g] != 0) g_ext[g] = ext_zero(level);
    g_s0[g] = zero_poly(level, /*with_special=*/false, /*ntt=*/true);
  }
  const auto ext_of = [&](std::size_t g) -> ExtAccumulator& {
    return g_giant[g] == 0 ? layer_ext : g_ext[g];
  };

  // Phase 1 (scan): zero-baby terms keep both halves in the q basis (no key
  // switch, flat kernels); rotated terms are indexed by baby step so each
  // baby's raised-basis inner product can be consumed by every group that
  // uses it while still cache-hot.
  std::map<long long, std::vector<std::pair<std::size_t, const BsgsTerm*>>>
      by_baby;
  for (std::size_t g = 0; g < n_groups; ++g) {
    for (const BsgsTerm& term : groups[g].terms) {
      const long long b = normalize(term.baby_step);
      if (b != 0) {
        by_baby[b].emplace_back(g, &term);
        continue;
      }
      const RnsPtBody& w = body(std::get<Plaintext>(*term.weight));
      const PolyBuffer& wq = pt_shoup(w);
      if (g_s1[g].buf.empty()) {
        g_s1[g] = zero_poly(level, /*with_special=*/false, /*ntt=*/true);
      }
      RnsPoly& s1 = g_s1[g];
      RnsPoly& s0 = g_s0[g];
      ThreadPool::global().parallel_for(q_channels, [&](std::size_t c) {
        const Modulus& mod = q_moduli_[c];
        const auto wc = w.poly.ch(c);
        dyadic::mul_acc_shoup(bx.polys[0].ch(c), wc, wq[c], s0.ch(c), mod);
        dyadic::mul_acc_shoup(bx.polys[1].ch(c), wc, wq[c], s1.ch(c), mod);
      });
    }
  }

  // Phase 2 (hoist + accumulate): decompose c1 once; per unique baby, ONE
  // raised-basis inner product (no mod-down) and ONE sigma_b(c0) gather,
  // weight-scaled immediately into every group that uses the baby — all
  // flat HAL kernels (this is where the AVX2/AVX-512 dyadic paths apply),
  // and the ~0.6MB accumulator is freed before the next baby instead of a
  // whole layer's worth of them competing for cache.
  KswDigits digits;
  bool have_digits = false;
  for (const auto& entry : by_baby) {
    const auto& uses = entry.second;
    if (!have_digits) {
      RnsPoly c1 = bx.polys[1];
      to_coeff(c1);
      digits = ksw_decompose(c1, level);
      have_digits = true;
    }
    const int step = uses.front().second->baby_step;
    const std::uint64_t exponent = rotation_exponent(step);
    const auto key_ptr = galois_key(step);
    const auto& perm = ntt_permutation(exponent);
    ExtAccumulator ip = ext_zero(level);
    ksw_inner_prod(digits, *key_ptr, perm.data(), ip);
    RnsPoly rc0 = zero_poly(level, /*with_special=*/false, /*ntt=*/true);
    ThreadPool::global().parallel_for(q_channels, [&](std::size_t c) {
      const auto src = bx.polys[0].ch(c);
      auto dst = rc0.ch(c);
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[perm[i]];
    });
    for (const auto& use : uses) {
      const std::size_t g = use.first;
      const RnsPtBody& w = body(std::get<Plaintext>(*use.second->weight));
      const PolyBuffer& wq = pt_shoup(w);
      ExtAccumulator& ext = ext_of(g);
      RnsPoly& s0 = g_s0[g];
      ThreadPool::global().parallel_for(channels, [&](std::size_t c) {
        const bool is_special = c == channels - 1;
        const Modulus& mod = is_special ? special_ : q_moduli_[c];
        const std::size_t wr = w_row(w, c);
        const auto wc = w.poly.ch(wr);
        dyadic::mul_acc_shoup(ip.c0.ch(c), wc, wq[wr], ext.c0.ch(c), mod);
        dyadic::mul_acc_shoup(ip.c1.ch(c), wc, wq[wr], ext.c1.ch(c), mod);
        if (!is_special) {
          dyadic::mul_acc_shoup(rc0.ch(c), wc, wq[c], s0.ch(c), mod);
        }
      });
    }
  }

  // Phase 3 (epilogues): a group with a giant rotation pays ONE mod-down
  // (this is the fusion: the unfused path pays one per baby rotation),
  // re-decomposes its comp1, and feeds the giant inner product into the
  // layer accumulator.
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (groups[g].terms.empty()) continue;
    const long long giant = g_giant[g];
    trace::Span group_span("bsgs_fused_group", "kernel");
    group_span.attr("giant_step", static_cast<double>(groups[g].giant_step));
    group_span.attr("terms", static_cast<double>(groups[g].terms.size()));
    RnsPoly s0 = std::move(g_s0[g]);
    RnsPoly s1 = std::move(g_s1[g]);
    const bool s1_used = !s1.buf.empty();

    if (giant == 0) {
      add_inplace(out0, s0);
      if (s1_used) add_inplace(out1, s1);
      continue;
    }

    auto [md0, md1] = ksw_mod_down(std::move(g_ext[g]));
    const std::uint64_t exponent = rotation_exponent(groups[g].giant_step);
    const auto key_ptr = galois_key(groups[g].giant_step);
    const auto& gperm = ntt_permutation(exponent);
    // comp1 of the group result (coefficient form) feeds the giant-rotation
    // inner product; its mod-down is deferred to the layer epilogue.
    if (s1_used) {
      to_coeff(s1);
      add_inplace(md1, s1);
    }
    const KswDigits gd = ksw_decompose(md1, level);
    ksw_inner_prod(gd, *key_ptr, gperm.data(), layer_ext);
    // comp0: NTT back, add the q-basis baby sum, then sigma_giant via the
    // permutation straight into the layer output.
    to_ntt(md0);
    add_inplace(md0, s0);
    ThreadPool::global().parallel_for(q_channels, [&](std::size_t c) {
      const Modulus& mod = q_moduli_[c];
      const auto src = md0.ch(c);
      auto dst = out0.ch(c);
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = mod.add(dst[i], src[gperm[i]]);
      }
    });
  }

  // Layer epilogue: the single mod-down every giant group (and the baby
  // inner products of the giant-0 group) deferred to.
  auto [g0, g1] = ksw_mod_down(std::move(layer_ext));
  to_ntt(g0);
  to_ntt(g1);
  add_inplace(g0, out0);
  add_inplace(g1, out1);
  std::vector<RnsPoly> polys;
  polys.push_back(std::move(g0));
  polys.push_back(std::move(g1));
  return wrap(std::move(polys), x.scale() * w_scale, level);
}

void RnsBackend::multiply_acc(Ciphertext& acc, const Ciphertext& a,
                              const Ciphertext& b) const {
  if (!acc.valid() || acc.impl().use_count() != 1 ||
      acc.level() != a.level() || a.level() != b.level() ||
      relative_diff(acc.scale(), a.scale() * b.scale()) > 1e-9) {
    HeBackend::multiply_acc(acc, a, b);
    return;
  }
  OpScope op(*this, OpKind::kMultiplyAcc, a);
  const RnsCtBody& ba = body(a);
  const RnsCtBody& bb = body(b);
  PPHE_CHECK(ba.polys.size() == 2 && bb.polys.size() == 2,
             "multiply_acc expects size-2 operands");
  auto& bacc = *static_cast<RnsCtBody*>(
      const_cast<void*>(static_cast<const void*>(acc.impl().get())));
  PPHE_CHECK(bacc.polys.size() == 3, "accumulator must be a size-3 product");
  const std::size_t k = bacc.polys[0].channels();
  ThreadPool::global().parallel_for(k, [&](std::size_t c) {
    const Modulus& mod = q_moduli_[c];
    const auto a0 = ba.polys[0].ch(c);
    const auto a1 = ba.polys[1].ch(c);
    const auto b0 = bb.polys[0].ch(c);
    const auto b1 = bb.polys[1].ch(c);
    auto d0 = bacc.polys[0].ch(c);
    auto d1 = bacc.polys[1].ch(c);
    auto d2 = bacc.polys[2].ch(c);
    // One Barrett pass per output word: product(s) + accumulator stay under
    // 2p^2 + p < 2^125, within reduce128's input range.
    for (std::size_t i = 0; i < d0.size(); ++i) {
      d0[i] = mod.reduce128(
          static_cast<unsigned __int128>(a0[i]) * b0[i] + d0[i]);
      d1[i] = mod.reduce128(static_cast<unsigned __int128>(a0[i]) * b1[i] +
                            static_cast<unsigned __int128>(a1[i]) * b0[i] +
                            d1[i]);
      d2[i] = mod.reduce128(
          static_cast<unsigned __int128>(a1[i]) * b1[i] + d2[i]);
    }
  });
}

void RnsBackend::multiply_plain_acc(Ciphertext& acc, const Ciphertext& a,
                                    const Plaintext& b) const {
  if (!acc.valid() || acc.impl().use_count() != 1 ||
      acc.level() != a.level() || acc.size() != a.size() ||
      relative_diff(acc.scale(), a.scale() * b.scale()) > 1e-9) {
    HeBackend::multiply_plain_acc(acc, a, b);
    return;
  }
  OpScope op(*this, OpKind::kMultiplyPlainAcc, a);
  const RnsCtBody& ba = body(a);
  const RnsPtBody& bp = body(b);
  const RnsPoly& pt = bp.poly;
  const PolyBuffer& wq = pt_shoup(bp);
  auto& bacc = *static_cast<RnsCtBody*>(
      const_cast<void*>(static_cast<const void*>(acc.impl().get())));
  const std::size_t k = bacc.polys[0].channels();
  ThreadPool::global().parallel_for(k, [&](std::size_t c) {
    const Modulus& mod = q_moduli_[c];
    const auto w = pt.ch(c);
    for (std::size_t t = 0; t < bacc.polys.size(); ++t) {
      dyadic::mul_acc_shoup(ba.polys[t].ch(c), w, wq[c], bacc.polys[t].ch(c),
                            mod);
    }
  });
}

Ciphertext RnsBackend::rotate(const Ciphertext& a, int step) const {
  return apply_automorphism_ct(a, rotation_exponent(step), *galois_key(step),
                               OpKind::kRotate);
}

Ciphertext RnsBackend::conjugate(const Ciphertext& a) const {
  const std::uint64_t exponent = 2 * params_.degree - 1;
  const auto key = find_galois_key(exponent);
  PPHE_CHECK(key != nullptr,
             "missing conjugation key; call ensure_galois_keys({0})");
  return apply_automorphism_ct(a, exponent, *key, OpKind::kConjugate);
}

void RnsBackend::validate_ciphertext(const Ciphertext& ct) const {
  HeBackend::validate_ciphertext(ct);  // handle metadata
  const auto& body = *static_cast<const RnsCtBody*>(ct.impl().get());
  PPHE_CHECK_CODE(body.polys.size() == ct.size(), ErrorCode::kIntegrity,
                  "ciphertext body/handle component counts disagree");
  const auto channels = static_cast<std::size_t>(ct.level()) + 1;
  std::uint64_t digest = 0;
  for (const RnsPoly& poly : body.polys) {
    PPHE_CHECK_CODE(poly.channels() == channels, ErrorCode::kIntegrity,
                    "ciphertext limb count does not match its level (" +
                        std::to_string(poly.channels()) + " channels, level " +
                        std::to_string(ct.level()) + ")");
    PPHE_CHECK_CODE(poly.buf.degree() == params_.degree,
                    ErrorCode::kIntegrity,
                    "ciphertext polynomial degree mismatch");
    PPHE_CHECK_CODE(poly.ntt && !poly.has_special, ErrorCode::kIntegrity,
                    "ciphertext polynomials must be in NTT form without the "
                    "key-switching channel");
    for (std::size_t c = 0; c < channels; ++c) {
      const std::uint64_t q = q_moduli_[c].value();
      for (const std::uint64_t v : poly.ch(c)) {
        PPHE_CHECK_CODE(v < q, ErrorCode::kIntegrity,
                        "ciphertext residue out of range for its modulus");
      }
    }
    if (body.wire_digest != 0) {
      digest = wire_digest_combine(
          digest, wire_checksum(poly.buf.data(),
                                channels * params_.degree * 8));
    }
  }
  // Deserialized ciphertexts carry the verified wire digest; recomputing it
  // here catches in-memory corruption that stayed below every modulus (a
  // low-bit flip) and would otherwise decrypt to silently wrong slots.
  PPHE_CHECK_CODE(body.wire_digest == 0 || digest == body.wire_digest,
                  ErrorCode::kIntegrity,
                  "ciphertext integrity digest mismatch (limb data changed "
                  "since deserialization)");
}

Ciphertext RnsBackend::clone_mutate_limbs(
    const Ciphertext& ct,
    const std::function<void(std::span<std::uint64_t>)>& mutate) const {
  PPHE_CHECK(ct.valid(), "invalid ciphertext");
  const auto& body = *static_cast<const RnsCtBody*>(ct.impl().get());
  auto impl = std::make_shared<RnsCtBody>();
  impl->polys.reserve(body.polys.size());
  for (const RnsPoly& poly : body.polys) impl->polys.push_back(poly);  // deep
  impl->wire_digest = body.wire_digest;
  if (!impl->polys.empty()) {
    PolyBuffer& slab = impl->polys[0].buf;
    mutate(std::span<std::uint64_t>(slab.data(),
                                    slab.channels() * slab.degree()));
  }
  return Ciphertext(std::move(impl), ct.scale(), ct.level(), ct.size());
}

std::shared_ptr<const RnsBackend::KswKey> RnsBackend::find_galois_key(
    std::uint64_t exponent) const {
  std::shared_lock<std::shared_mutex> lock(galois_mutex_);
  const auto it = galois_keys_.find(exponent);
  return it == galois_keys_.end() ? nullptr : it->second;
}

std::shared_ptr<const RnsBackend::KswKey> RnsBackend::galois_key(
    int step) const {
  auto key = find_galois_key(rotation_exponent(step));
  PPHE_CHECK(key != nullptr, "missing Galois key for step " +
                                 std::to_string(step) +
                                 "; call ensure_galois_keys first");
  return key;
}

void RnsBackend::ensure_galois_keys(std::span<const GaloisKeyRequest> keys) {
  OpScope op(*this, OpKind::kGaloisKeys);
  op.attr("steps", static_cast<double>(keys.size()));
  std::map<std::uint64_t, int> wanted;  // exponent -> highest level asked
  for (const GaloisKeyRequest& req : keys) {
    PPHE_CHECK(req.level >= 0 && req.level <= max_level(),
               "Galois key level " + std::to_string(req.level) +
                   " outside [0, " + std::to_string(max_level()) + "]");
    // Step 0 requests the conjugation key by convention.
    const std::uint64_t exponent =
        req.step == 0 ? 2 * params_.degree - 1 : rotation_exponent(req.step);
    int& level = wanted.try_emplace(exponent, req.level).first->second;
    level = std::max(level, req.level);
  }
  // One pass at a time, so a concurrent caller waits for complete keys.
  // Keys are built outside galois_mutex_: rotations keep running on the
  // installed keys and only wait for the swap below.
  std::lock_guard<std::mutex> build(galois_build_mutex_);
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const KswKey>>> built;
  for (const auto& [exponent, level] : wanted) {
    const auto have = find_galois_key(exponent);
    if (have != nullptr && have->level >= level) continue;
    RnsPoly s_g = automorphism(key_basis(sk_coeff_, level), exponent);
    to_ntt(s_g);
    built.emplace_back(exponent, std::make_shared<const KswKey>(
                                     make_ksw_key(s_g, level)));
  }
  std::unique_lock<std::shared_mutex> lock(galois_mutex_);
  galois_keys_built_ += built.size();
  for (auto& [exponent, key] : built) galois_keys_[exponent] = std::move(key);
}

GaloisKeyStats RnsBackend::galois_key_stats() const {
  std::shared_lock<std::shared_mutex> lock(galois_mutex_);
  GaloisKeyStats stats;
  stats.keys = galois_keys_.size();
  stats.built = galois_keys_built_;
  for (const auto& entry : galois_keys_) {
    const KswKey& key = *entry.second;
    for (std::size_t j = 0; j < key.digits.size(); ++j) {
      for (int t = 0; t < 2; ++t) {
        stats.bytes += (key.digits[j][t].buf.capacity_words() +
                        key.shoup[j][t].capacity_words()) *
                       sizeof(std::uint64_t);
      }
    }
  }
  return stats;
}

}  // namespace pphe
