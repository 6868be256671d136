#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "ckks/params.hpp"
#include "common/check.hpp"
#include "common/trace.hpp"
#include "math/poly_buffer.hpp"

namespace pphe {

/// Every homomorphic primitive the backends expose, as a dense enum: the op
/// counters index an atomic array by OpKind (lock-free) instead of a
/// string-keyed map under a mutex, and the tracer names spans via op_name().
enum class OpKind : std::uint8_t {
  kEncode,
  kEncrypt,
  kDecrypt,
  kAdd,
  kSub,
  kNegate,
  kAddPlain,
  kMultiply,
  kMultiplyPlain,
  kMultiplyAcc,
  kMultiplyPlainAcc,
  kRelinearize,
  kRescale,
  kModDrop,
  kRotate,
  kRotateHoisted,
  kConjugate,
  kGaloisKeys,
  // Representation changes (NTT passes): counted by RnsBackend whenever a
  // polynomial actually crosses between coefficient and evaluation domain,
  // the per-op kernel cost every latency above decomposes into.
  kNttForward,
  kNttInverse,
  // Phased key-switching (DESIGN.md §14): one kKswInner per raised-basis
  // inner product against a switching key (== one digit decomposition
  // consumed), one kModDown per mod-down epilogue. Double hoisting shows up
  // in these counters as kModDown dropping from one-per-rotation to
  // one-per-giant-group.
  kKswInner,
  kModDown,
};
inline constexpr std::size_t kOpKindCount =
    static_cast<std::size_t>(OpKind::kModDown) + 1;

/// Stable display/report name (these strings are the legacy op_counts() keys;
/// bench tables and tests key on them).
constexpr const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kEncode: return "encode";
    case OpKind::kEncrypt: return "encrypt";
    case OpKind::kDecrypt: return "decrypt";
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kNegate: return "negate";
    case OpKind::kAddPlain: return "add_plain";
    case OpKind::kMultiply: return "multiply";
    case OpKind::kMultiplyPlain: return "multiply_plain";
    case OpKind::kMultiplyAcc: return "multiply_acc";
    case OpKind::kMultiplyPlainAcc: return "multiply_plain_acc";
    case OpKind::kRelinearize: return "relinearize";
    case OpKind::kRescale: return "rescale";
    case OpKind::kModDrop: return "mod_drop";
    case OpKind::kRotate: return "rotate";
    case OpKind::kRotateHoisted: return "rotate_hoisted";
    case OpKind::kConjugate: return "conjugate";
    case OpKind::kGaloisKeys: return "galois_keys";
    case OpKind::kNttForward: return "ntt_forward";
    case OpKind::kNttInverse: return "ntt_inverse";
    case OpKind::kKswInner: return "ksw_inner";
    case OpKind::kModDown: return "mod_down";
  }
  return "?";
}

/// Opaque ciphertext handle; the payload type belongs to the backend that
/// produced it (RnsBackend or BigBackend) and handles are not interchangeable
/// across backends. Scale/level/size are mirrored here so generic code (the
/// CNN-HE engine) can plan rescaling without knowing the representation.
class Ciphertext {
 public:
  Ciphertext() = default;
  Ciphertext(std::shared_ptr<void> impl, double scale, int level,
             std::size_t size)
      : impl_(std::move(impl)), scale_(scale), level_(level), size_(size) {}

  bool valid() const { return impl_ != nullptr; }
  double scale() const { return scale_; }
  /// Remaining rescale budget: index of the last usable ciphertext prime.
  int level() const { return level_; }
  /// Number of polynomial components (2 normally, 3 before relinearization).
  std::size_t size() const { return size_; }

  const std::shared_ptr<void>& impl() const { return impl_; }

 private:
  std::shared_ptr<void> impl_;
  double scale_ = 0.0;
  int level_ = 0;
  std::size_t size_ = 0;
};

/// Opaque plaintext (encoded polynomial) handle.
class Plaintext {
 public:
  Plaintext() = default;
  Plaintext(std::shared_ptr<void> impl, double scale, int level)
      : impl_(std::move(impl)), scale_(scale), level_(level) {}

  bool valid() const { return impl_ != nullptr; }
  double scale() const { return scale_; }
  int level() const { return level_; }
  const std::shared_ptr<void>& impl() const { return impl_; }

 private:
  std::shared_ptr<void> impl_;
  double scale_ = 0.0;
  int level_ = 0;
};

/// A weight in the form a linear stage multiplies/adds it: encoded
/// plaintext (CryptoNets setting) or encrypted ciphertext (the paper's §VI
/// encrypted-weights setting).
using WeightOperand = std::variant<Plaintext, Ciphertext>;

/// One term of a BSGS group: multiply the baby-rotated input by a weight.
/// `baby_step` is the FULL slot rotation (baby index already multiplied by
/// the layer's rotation multiplier); 0 means the unrotated input. The
/// pointed-to weight must outlive the linear_bsgs call.
struct BsgsTerm {
  int baby_step = 0;
  const WeightOperand* weight = nullptr;
};

/// One giant group of a BSGS diagonal layer: the group's weighted baby sum
/// is rotated by `giant_step` (0 = no rotation) and added into the layer
/// output. Together the groups describe
///   out = sum_j rot(sum_b w_{j,b} * rot(x, baby_b), giant_j).
struct BsgsGroupSpec {
  int giant_step = 0;
  std::vector<BsgsTerm> terms;
};

/// One Galois key request: rotation `step` (0 = the conjugation key),
/// usable by ciphertexts at levels 0..`level`.
struct GaloisKeyRequest {
  int step = 0;
  int level = 0;
};

/// Resident Galois key material: how many keys a backend holds and their
/// bytes (key polynomials plus any precomputed tables built from them).
struct GaloisKeyStats {
  std::size_t keys = 0;
  std::uint64_t bytes = 0;
  /// Keys generated over the backend's lifetime, rebuilds at a higher level
  /// included: `built - keys` keys were generated more than once.
  std::size_t built = 0;
};

/// Abstract CKKS evaluator: the primitives of §II of the paper (KeyGen at
/// construction, Encrypt/Decrypt, Add, Mult, Resc, Rot) plus the plaintext
/// variants every CNN-HE engine needs. Two implementations exist:
///
///  * RnsBackend  — CKKS-RNS (double-CRT), the paper's proposal;
///  * BigBackend  — single composite modulus with multiprecision coefficient
///                  arithmetic, the paper's non-RNS "CNN-HE" baseline.
///
/// Both own their key material (generated deterministically from the params
/// seed) so an experiment is one object; the pipeline example narrates the
/// client/cloud split explicitly.
class HeBackend {
 public:
  virtual ~HeBackend() = default;

  virtual std::string name() const = 0;
  virtual const CkksParams& params() const = 0;
  virtual std::size_t slot_count() const = 0;
  virtual int max_level() const = 0;
  /// Value of ciphertext prime q_level (what rescale at that level divides
  /// the scale by) — the level planner needs this to schedule rescales.
  virtual double level_prime(int level) const = 0;

  // --- encode / encrypt / decrypt -------------------------------------
  virtual Plaintext encode(std::span<const double> values, double scale,
                           int level) const = 0;
  virtual Ciphertext encrypt(const Plaintext& pt) const = 0;
  virtual std::vector<double> decrypt_decode(const Ciphertext& ct) const = 0;

  // --- homomorphic operations -----------------------------------------
  virtual Ciphertext add(const Ciphertext& a, const Ciphertext& b) const = 0;
  virtual Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const = 0;
  virtual Ciphertext add_plain(const Ciphertext& a,
                               const Plaintext& b) const = 0;
  virtual Ciphertext negate(const Ciphertext& a) const = 0;
  /// Tensor product WITHOUT relinearization (result has size 3); callers
  /// accumulate products and relinearize once (the deferred-relinearization
  /// optimization of DESIGN.md §6.1).
  virtual Ciphertext multiply(const Ciphertext& a,
                              const Ciphertext& b) const = 0;
  virtual Ciphertext multiply_plain(const Ciphertext& a,
                                    const Plaintext& b) const = 0;
  virtual Ciphertext relinearize(const Ciphertext& a) const = 0;
  virtual Ciphertext rescale(const Ciphertext& a) const = 0;
  /// Drops moduli without scaling (level alignment before mult).
  virtual Ciphertext mod_drop_to(const Ciphertext& a, int level) const = 0;
  /// Cyclic left rotation of the slot vector by `step` (may be negative).
  /// Requires the corresponding Galois key (ensure_galois_keys).
  virtual Ciphertext rotate(const Ciphertext& a, int step) const = 0;

  /// Rotations of the SAME ciphertext by several steps. Backends may hoist
  /// the shared key-switching work (decompose + NTT once, permute per step);
  /// the default just loops. Order of results matches `steps`. Steps that
  /// are 0 modulo the slot count return the input handle unchanged, and
  /// repeated steps return an alias of the first result — neither re-runs
  /// key switching (handles are immutable, so sharing is safe).
  virtual std::vector<Ciphertext> rotate_batch(
      const Ciphertext& a, std::span<const int> steps) const {
    std::vector<Ciphertext> out;
    out.reserve(steps.size());
    std::map<long long, std::size_t> seen;  // normalized step -> result index
    const long long slots = static_cast<long long>(slot_count());
    for (const int s : steps) {
      const long long r = ((s % slots) + slots) % slots;
      if (r == 0) {
        out.push_back(a);
        continue;
      }
      const auto it = seen.find(r);
      if (it != seen.end()) {
        out.push_back(out[it->second]);
        continue;
      }
      seen.emplace(r, out.size());
      out.push_back(rotate(a, s));
    }
    return out;
  }
  /// Braced-list convenience (`rotate_batch(ct, {1, 2})`); std::span gains
  /// an initializer_list constructor only in C++26.
  std::vector<Ciphertext> rotate_batch(const Ciphertext& a,
                                       std::initializer_list<int> steps) const {
    return rotate_batch(a, std::span<const int>(steps.begin(), steps.size()));
  }

  /// acc += a * b (tensor product accumulated without materializing the
  /// product): the hot operation of the diagonal method. If acc is invalid
  /// it becomes the product. Backends may override with a fused kernel.
  virtual void multiply_acc(Ciphertext& acc, const Ciphertext& a,
                            const Ciphertext& b) const {
    const Ciphertext prod = multiply(a, b);
    acc = acc.valid() ? add(acc, prod) : prod;
  }
  virtual void multiply_plain_acc(Ciphertext& acc, const Ciphertext& a,
                                  const Plaintext& b) const {
    const Ciphertext prod = multiply_plain(a, b);
    acc = acc.valid() ? add(acc, prod) : prod;
  }

  /// sum_i rot(cts[i], steps[i]) — the giant-step epilogue of a BSGS layer.
  /// Backends may defer the mod-down epilogue across all rotations and pay
  /// it once (double hoisting); the default rotates and adds. All inputs
  /// must share level, scale, and size 2; steps that are 0 modulo the slot
  /// count contribute the ciphertext unrotated.
  virtual Ciphertext rotate_sum(std::span<const Ciphertext> cts,
                                std::span<const int> steps) const {
    PPHE_CHECK(cts.size() == steps.size(),
               "rotate_sum: cts/steps size mismatch");
    Ciphertext total;
    const long long slots = static_cast<long long>(slot_count());
    for (std::size_t i = 0; i < cts.size(); ++i) {
      const long long r = ((steps[i] % slots) + slots) % slots;
      Ciphertext term = r == 0 ? cts[i] : rotate(cts[i], steps[i]);
      total = total.valid() ? add(total, term) : std::move(term);
    }
    return total;
  }

  /// True when linear_bsgs() runs a double-hoisted kernel (the planner uses
  /// this to pick the fused cost model before compiling weights).
  virtual bool supports_hoisted_bsgs() const { return false; }

  /// One BSGS diagonal layer, out = sum_j rot(sum_b w_{j,b} * rot(x, b), j),
  /// over plaintext or ciphertext weights. This default is the generic
  /// schedule: one rotate_batch for the baby steps, a multiply-accumulate per
  /// term, a relinearization per giant group, one rotate_sum over the giant
  /// groups and a final relinearization. Backends may override it with a
  /// fused kernel (double hoisting, DESIGN.md §14) and call this default for
  /// operand sets the kernel does not take. The result is size 2 at scale
  /// x.scale * weight_scale.
  virtual Ciphertext linear_bsgs(const Ciphertext& x,
                                 std::span<const BsgsGroupSpec> groups) const {
    const long long slots = static_cast<long long>(slot_count());
    const auto rotates = [slots](int step) { return step % slots != 0; };
    std::set<int> baby_set;
    for (const BsgsGroupSpec& grp : groups) {
      for (const BsgsTerm& term : grp.terms) {
        if (rotates(term.baby_step)) baby_set.insert(term.baby_step);
      }
    }
    const std::vector<int> baby_steps(baby_set.begin(), baby_set.end());
    const std::vector<Ciphertext> babies = rotate_batch(x, baby_steps);
    const auto rotated = [&](int step) -> const Ciphertext& {
      if (!rotates(step)) return x;
      return babies[static_cast<std::size_t>(
          std::lower_bound(baby_steps.begin(), baby_steps.end(), step) -
          baby_steps.begin())];
    };

    Ciphertext total;
    std::vector<Ciphertext> giant_cts;
    std::vector<int> giant_steps;
    for (const BsgsGroupSpec& grp : groups) {
      Ciphertext acc;
      for (const BsgsTerm& term : grp.terms) {
        PPHE_CHECK(term.weight != nullptr, "linear_bsgs: null weight");
        if (const auto* pt = std::get_if<Plaintext>(term.weight)) {
          multiply_plain_acc(acc, rotated(term.baby_step), *pt);
        } else {
          multiply_acc(acc, rotated(term.baby_step),
                       std::get<Ciphertext>(*term.weight));
        }
      }
      if (!acc.valid()) continue;
      if (rotates(grp.giant_step)) {
        // Giant rotations need size-2 inputs; rotate_sum pays them together.
        giant_cts.push_back(relinearize(acc));
        giant_steps.push_back(grp.giant_step);
      } else {
        total = total.valid() ? add(total, acc) : std::move(acc);
      }
    }
    if (!giant_cts.empty()) {
      Ciphertext summed = rotate_sum(giant_cts, giant_steps);
      total = total.valid() ? add(total, summed) : std::move(summed);
    }
    PPHE_CHECK(total.valid(), "linear_bsgs: the layer has no terms");
    return relinearize(total);
  }

  /// Ciphertext health validation: checks the handle's mirrored metadata and
  /// (in backends that override it) the payload's structural invariants —
  /// limb/channel layout vs level, NTT-form flags, residue ranges, and the
  /// wire integrity digest when the ciphertext was deserialized. Throws
  /// pphe::Error with a typed code (kIntegrity / kLevelMismatch /
  /// kScaleMismatch) on the first violated invariant; returns normally on a
  /// healthy ciphertext. HeModel::eval runs this on every branch input before
  /// touching the compiled plan (HeModelOptions::validate_inputs).
  virtual void validate_ciphertext(const Ciphertext& ct) const {
    PPHE_CHECK_CODE(ct.valid(), ErrorCode::kIntegrity,
                    "validate_ciphertext: empty ciphertext handle");
    PPHE_CHECK_CODE(ct.level() >= 0 && ct.level() <= max_level(),
                    ErrorCode::kLevelMismatch,
                    "validate_ciphertext: level " + std::to_string(ct.level()) +
                        " outside [0, " + std::to_string(max_level()) + "]");
    PPHE_CHECK_CODE(std::isfinite(ct.scale()) && ct.scale() > 0.0,
                    ErrorCode::kScaleMismatch,
                    "validate_ciphertext: non-positive or non-finite scale");
    PPHE_CHECK_CODE(ct.size() >= 2 && ct.size() <= 3, ErrorCode::kIntegrity,
                    "validate_ciphertext: component count " +
                        std::to_string(ct.size()) + " outside {2, 3}");
  }

  /// Deep-copies `ct` and lets `mutate` rewrite the raw limb words of one
  /// polynomial component — the fault harness's storage-corruption hook
  /// (fault::flip_limb). Backends whose payload is not word-addressable may
  /// return the ciphertext unchanged.
  virtual Ciphertext clone_mutate_limbs(
      const Ciphertext& ct,
      const std::function<void(std::span<std::uint64_t>)>& mutate) const {
    (void)mutate;
    return ct;
  }

  /// Pre-generates Galois keys, each for the levels its request names, in
  /// ONE pass (one kGaloisKeys count). Idempotent: a key already built for
  /// the requested level or higher is kept, one built for a lower level is
  /// rebuilt at the higher one, and a step listed twice gets the higher of
  /// its levels. A backend may build keys for more levels than asked.
  virtual void ensure_galois_keys(std::span<const GaloisKeyRequest> keys) = 0;
  /// Keys for the given steps at every level (max_level()).
  void ensure_galois_keys(std::span<const int> steps) {
    std::vector<GaloisKeyRequest> keys;
    keys.reserve(steps.size());
    for (const int step : steps) keys.push_back({step, max_level()});
    ensure_galois_keys(std::span<const GaloisKeyRequest>(keys));
  }
  void ensure_galois_keys(std::initializer_list<int> steps) {
    ensure_galois_keys(std::span<const int>(steps.begin(), steps.size()));
  }
  /// Galois keys currently held (the relinearization key is not counted);
  /// zeros from a backend that does not track them.
  virtual GaloisKeyStats galois_key_stats() const { return {}; }

  // --- convenience (non-virtual) ---------------------------------------
  /// Encodes at the ciphertext's own scale and level, then multiplies.
  Ciphertext multiply_scalar(const Ciphertext& a, double value) const {
    const Plaintext pt = encode_repeated(value, a.scale(), a.level());
    return multiply_plain(a, pt);
  }
  Ciphertext add_scalar(const Ciphertext& a, double value) const {
    const Plaintext pt = encode_repeated(value, a.scale(), a.level());
    return add_plain(a, pt);
  }
  Plaintext encode_repeated(double value, double scale, int level) const {
    const std::vector<double> v(slot_count(), value);
    return encode(v, scale, level);
  }

  // --- instrumentation --------------------------------------------------
  /// Snapshot of cumulative homomorphic-op counts since the last reset,
  /// rendered as the legacy `op name -> n` map view (bench tables and tests
  /// key on these strings). The live counters are lock-free atomics.
  std::map<std::string, std::uint64_t> op_counts() const {
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < kOpKindCount; ++i) {
      const std::uint64_t n = op_counts_[i].load(std::memory_order_relaxed);
      if (n > 0) out[op_name(static_cast<OpKind>(i))] = n;
    }
    return out;
  }
  std::uint64_t op_count(OpKind kind) const {
    return op_counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  void reset_op_counts() {
    for (auto& c : op_counts_) c.store(0, std::memory_order_relaxed);
  }

  /// Allocation behaviour of the backend's polynomial arena (DESIGN.md
  /// §"Memory layout"). Steady-state multiply/rescale/rotate must report
  /// zero pool misses after warm-up.
  virtual MemStats mem_stats() const { return {}; }
  virtual void reset_mem_stats() const {}

 protected:
  /// Lock-free op counter bump (relaxed: counters are independent tallies,
  /// read only via whole-map snapshots).
  void count_op(OpKind kind) const {
    op_counts_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Counts the op AND opens a trace span named op_name(kind) in category
  /// "he" for its scope — the one-stop instrumentation every backend op
  /// starts with. Keeping count and span in a single object guarantees
  /// span-count/op-count parity, which trace_integration_test asserts.
  class OpScope {
   public:
    OpScope(const HeBackend& backend, OpKind kind)
        : span_(op_name(kind), "he") {
      backend.count_op(kind);
    }
    /// Convenience: record the level/scale/size of the primary operand.
    OpScope(const HeBackend& backend, OpKind kind, const Ciphertext& a)
        : OpScope(backend, kind) {
      if (span_.recording()) {
        span_.attr("level", a.level());
        span_.attr("scale_log2", std::log2(a.scale()));
        span_.attr("size", static_cast<double>(a.size()));
      }
    }
    void attr(const char* key, double value) { span_.attr(key, value); }

   private:
    trace::Span span_;
  };

  // --- precondition checks ---------------------------------------------
  /// Binary ciphertext ops need matching levels and (multiplicatively
  /// compatible) scales; violations used to produce silently wrong slots.
  /// `op` names the primitive in the failure message.
  void check_same_level(const char* op, const Ciphertext& a,
                        const Ciphertext& b) const {
    PPHE_CHECK_CODE(a.level() == b.level(), ErrorCode::kLevelMismatch,
                    std::string(op) + ": operand levels differ (lhs level " +
                        std::to_string(a.level()) + ", rhs level " +
                        std::to_string(b.level()) +
                        "); align with mod_drop_to first");
  }
  void check_same_scale(const char* op, double a_scale, double b_scale) const {
    const double rel = std::abs(a_scale - b_scale) /
                       std::max({std::abs(a_scale), std::abs(b_scale), 1.0});
    PPHE_CHECK_CODE(rel < 1e-9, ErrorCode::kScaleMismatch,
                    std::string(op) + ": operand scales differ (lhs 2^" +
                        std::to_string(std::log2(a_scale)) + ", rhs 2^" +
                        std::to_string(std::log2(b_scale)) +
                        "); rescale or re-encode to a common scale");
  }
  /// The product scale must fit under the remaining modulus, or coefficients
  /// wrap and every slot is silently garbage; catching it here names the op,
  /// levels, and scales instead.
  void check_mult_capacity(const char* op, const Ciphertext& a,
                           const Ciphertext& b) const {
    const int level = std::min(a.level(), b.level());
    double capacity_bits = 0.0;
    for (int l = 0; l <= level; ++l) capacity_bits += std::log2(level_prime(l));
    const double product_bits = std::log2(a.scale()) + std::log2(b.scale());
    PPHE_CHECK_CODE(product_bits < capacity_bits, ErrorCode::kCapacityExceeded,
                    std::string(op) + ": product scale 2^" +
                   std::to_string(product_bits) + " exceeds modulus capacity 2^" +
                   std::to_string(capacity_bits) + " at level " +
                   std::to_string(level) + " (lhs level " +
                   std::to_string(a.level()) + " scale 2^" +
                   std::to_string(std::log2(a.scale())) + ", rhs level " +
                   std::to_string(b.level()) + " scale 2^" +
                   std::to_string(std::log2(b.scale())) + ")");
  }

 private:
  mutable std::array<std::atomic<std::uint64_t>, kOpKindCount> op_counts_{};
};

}  // namespace pphe
