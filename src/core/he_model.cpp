#include "core/he_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include <cstdio>

#include "ckks/noise.hpp"
#include "common/check.hpp"
#include "core/rotation_plan.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "common/trace.hpp"

namespace pphe {
namespace {

std::size_t next_pow2(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

double close_enough(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max(std::abs(a), std::abs(b));
}

/// Applies any armed eval.input fault to `ct` in place: a limb bit flip on a
/// deep-copied slab (clone_mutate_limbs, so the caller's ciphertext is never
/// touched) and/or a perturbation of the handle's mirrored scale/level.
void faulted_copy(const HeBackend& backend, Ciphertext& ct) {
  ct = backend.clone_mutate_limbs(ct, [](std::span<std::uint64_t> words) {
    fault::flip_limb(fault::Site::kEvalInput, words);
  });
  double scale = ct.scale();
  int level = ct.level();
  bool changed = fault::perturb_scale(fault::Site::kEvalInput, scale);
  changed = fault::perturb_level(fault::Site::kEvalInput, level) || changed;
  if (changed) ct = Ciphertext(ct.impl(), scale, level, ct.size());
}

/// FNV-1a over the full cache key (pointer, flags, scale bits, values).
std::size_t weight_key_hash(const HeBackend* backend, bool encrypted,
                            int level, std::uint64_t scale_bits,
                            std::span<const double> values) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(reinterpret_cast<std::uintptr_t>(backend));
  mix(encrypted ? 1 : 0);
  mix(static_cast<std::uint64_t>(level));
  mix(scale_bits);
  for (const double d : values) mix(std::bit_cast<std::uint64_t>(d));
  return static_cast<std::size_t>(h);
}

}  // namespace

// ---------------------------------------------------------------------------
// WeightOperandCache
// ---------------------------------------------------------------------------

WeightOperand WeightOperandCache::get_or_make(const HeBackend& backend,
                                              bool encrypted,
                                              std::span<const double> values,
                                              double scale, int level,
                                              const Factory& make) {
  const std::uint64_t scale_bits = std::bit_cast<std::uint64_t>(scale);
  const std::size_t h =
      weight_key_hash(&backend, encrypted, level, scale_bits, values);
  // The lock is held across the encode: models compile on one thread, so
  // there is no contention to speak of, and holding it guarantees each key
  // is made exactly once.
  std::lock_guard<std::mutex> lock(mutex_);
  auto& bucket = buckets_[h];
  for (const Entry& e : bucket) {
    if (e.backend == &backend && e.encrypted == encrypted &&
        e.level == level && e.scale_bits == scale_bits &&
        std::equal(e.values.begin(), e.values.end(), values.begin(),
                   values.end())) {
      ++stats_.hits;
      return e.operand;
    }
  }
  ++stats_.misses;
  ++stats_.entries;
  Entry e;
  e.backend = &backend;
  e.encrypted = encrypted;
  e.level = level;
  e.scale_bits = scale_bits;
  e.values.assign(values.begin(), values.end());
  e.operand = make();
  bucket.push_back(std::move(e));
  return bucket.back().operand;
}

WeightOperandCache::Stats WeightOperandCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void WeightOperandCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  buckets_.clear();
  stats_ = {};
}

void HeModel::validate_batch(const HeBackend& backend, const ModelSpec& spec,
                             std::size_t batch) {
  std::size_t tile = 1;
  for (const auto& stage : spec.stages) {
    if (stage.kind == ModelSpec::Stage::Kind::kLinear) {
      tile = std::max(tile, next_pow2(std::max(stage.linear.in_dim,
                                               stage.linear.out_dim)));
    }
  }
  const std::size_t slots = backend.slot_count();
  const std::size_t max_batch = tile <= slots ? slots / tile : 0;
  const std::string allowed =
      "allowed for this model on " + backend.name() + ": powers of two in [1, " +
      std::to_string(max_batch) + "] (tile " + std::to_string(tile) + ", " +
      std::to_string(slots) + " slots)";
  PPHE_CHECK_CODE(batch >= 1 && (batch & (batch - 1)) == 0,
                  ErrorCode::kInvalidArgument,
                  "batch " + std::to_string(batch) +
                      " is not a power of two; " + allowed);
  PPHE_CHECK_CODE(batch <= max_batch, ErrorCode::kInvalidArgument,
                  "batch " + std::to_string(batch) +
                      " exceeds slot capacity; " + allowed);
}

HeModel::HeModel(HeBackend& backend, const ModelSpec& spec,
                 HeModelOptions options)
    : backend_(backend), spec_(spec), options_(options) {
  PPHE_CHECK(options_.rns_branches >= 1, "need at least one branch");
  PPHE_CHECK(options_.pixel_levels >= 2, "invalid pixel quantization");
  if (!options_.weight_cache) {
    // Private cache: still dedupes duplicate diagonals within this model and
    // full re-encodes when the level-retry loop below re-plans.
    options_.weight_cache = std::make_shared<WeightOperandCache>();
  }
  // Start at the lowest level that still fits the model's depth: fewer
  // residue channels per operation at identical (better) security. Scale
  // drift can occasionally demand one more level than depth(); retry upward.
  input_level_ = std::min<int>(backend_.max_level(),
                               static_cast<int>(spec_.depth()));
  for (;;) {
    try {
      plan();
      break;
    } catch (const Error&) {
      stages_.clear();
      rotation_steps_.clear();
      if (input_level_ >= backend_.max_level()) throw;
      ++input_level_;
    }
  }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

void HeModel::simulate_rescale(int& level, double& scale) const {
  const double delta = backend_.params().scale;
  while (level > 0 && scale / backend_.level_prime(level) >= 0.5 * delta) {
    scale /= backend_.level_prime(level);
    --level;
  }
  // The accumulated scale (plus value range and noise headroom) must still
  // fit under the remaining modulus, or decryption wraps.
  double bits_available = 0.0;
  for (int i = 0; i <= level; ++i) {
    bits_available += std::log2(backend_.level_prime(i));
  }
  PPHE_CHECK(std::log2(scale) + 12.0 <= bits_available,
             "model depth exceeds the moduli chain (spec needs more rescale "
             "levels than the parameters provide)");
}

WeightOperand HeModel::make_weight(const std::vector<double>& values,
                                   double scale, int level) const {
  const auto make = [&]() -> WeightOperand {
    const Plaintext pt = backend_.encode(values, scale, level);
    if (options_.encrypted_weights) return backend_.encrypt(pt);
    return pt;
  };
  return options_.weight_cache->get_or_make(
      backend_, options_.encrypted_weights, values, scale, level, make);
}

void HeModel::plan() {
  trace::Span compile_span("model_compile", "model");
  const std::size_t slots = backend_.slot_count();
  const double delta = backend_.params().scale;

  // One global tile covering every stage dimension (see DESIGN.md §4).
  // batch == 1: replicated packing (slots/tile identical copies) keeps
  //             rotations cyclic within the tile;
  // batch > 1:  interleaved packing (image index = slot mod batch) makes a
  //             rotation by step*batch act as a per-image feature rotation
  //             with period slots/batch, so the tile is widened to that.
  std::size_t tile = 1;
  for (const auto& stage : spec_.stages) {
    if (stage.kind == ModelSpec::Stage::Kind::kLinear) {
      tile = std::max(tile, next_pow2(std::max(stage.linear.in_dim,
                                               stage.linear.out_dim)));
    }
  }
  const std::size_t batch = options_.batch;
  validate_batch(backend_, spec_, batch);
  std::size_t rot_mult = 1;
  if (batch > 1) {
    tile = slots / batch;
    rot_mult = batch;
  }
  PPHE_CHECK(tile <= slots, "model dimensions exceed slot capacity");
  input_tile_ = tile;
  const std::size_t copies = batch > 1 ? batch : slots / tile;
  // Writes value v into the slot(s) representing logical position t of every
  // copy/image, under the active layout.
  auto fill_slot = [&](std::vector<double>& vec, std::size_t t, double v) {
    if (batch > 1) {
      for (std::size_t b = 0; b < batch; ++b) vec[t * batch + b] = v;
    } else {
      for (std::size_t c = 0; c < copies; ++c) vec[c * tile + t] = v;
    }
  };

  // Digit base for the Fig. 5 branch decomposition: smallest B with
  // B^k >= pixel_levels.
  const std::size_t k = options_.rns_branches;
  std::size_t base = static_cast<std::size_t>(std::ceil(
      std::pow(static_cast<double>(options_.pixel_levels), 1.0 / static_cast<double>(k))));
  while (true) {
    double cap = 1.0;
    for (std::size_t i = 0; i < k; ++i) cap *= static_cast<double>(base);
    if (cap >= static_cast<double>(options_.pixel_levels)) break;
    ++base;
  }
  digit_base_ = base;

  int level = input_level_;
  double scale = delta;
  std::set<int> steps;

  // Analytic noise propagation (NoiseTracker, slot-domain absolute error of
  // the scaled values; divide by the running scale to get value error).
  // Value bounds are computed from the actual weights, so the bound is
  // model-specific, not generic.
  const NoiseTracker tracker(backend_.params());
  double noise = tracker.fresh_encryption();
  double value_bound = 1.0;  // normalized input pixels
  const double weight_noise = tracker.fresh_encryption();  // conservative for
                                                           // plaintexts too
  // Applies every rescale the greedy rule would perform to the noise bound.
  auto rescale_noise = [&](int lvl_before, double sc_before, int lvl_after,
                           double& nz) {
    int lvl = lvl_before;
    double sc = sc_before;
    while (lvl > lvl_after) {
      nz = tracker.rescale(nz, backend_.level_prime(lvl));
      sc /= backend_.level_prime(lvl);
      --lvl;
    }
  };
  // Baby/giant split: the double-hoisted path derives it per stage from the
  // RotationPlan cost model (fused mode needs plaintext weights and a
  // backend with a raised-basis accumulator); otherwise the legacy
  // sqrt-biased heuristic inside RotationPlan applies.
  const bool fuse_stages = options_.hoist_fusion &&
                           !options_.encrypted_weights &&
                           backend_.supports_hoisted_bsgs();
  std::size_t log_degree = 0;
  while ((std::size_t{1} << (log_degree + 1)) <= backend_.params().degree) {
    ++log_degree;
  }

  bool first_linear = true;
  for (const auto& stage : spec_.stages) {
    StagePlan plan_stage;
    if (stage.kind == ModelSpec::Stage::Kind::kLinear) {
      const LinearSpec& lin = stage.linear;
      plan_stage.is_linear = true;
      LinearPlan& lp = plan_stage.linear;
      lp.in_dim = lin.in_dim;
      lp.out_dim = lin.out_dim;
      lp.tile = tile;
      lp.level_in = level;
      lp.scale_in = scale;

      // Collect nonzero diagonals i: diag_i[row] = W[row, (row+i) mod tile].
      std::set<std::size_t> diag_set;
      for (std::size_t row = 0; row < lin.out_dim; ++row) {
        for (std::size_t col = 0; col < lin.in_dim; ++col) {
          if (lin.at(row, col) != 0.0f) {
            diag_set.insert((col + tile - row % tile) % tile);
          }
        }
      }

      const RotationPlan rp = RotationPlan::choose(
          diag_set, tile, static_cast<std::size_t>(level) + 1, log_degree,
          fuse_stages);
      lp.giant = rp.giant;
      lp.fused = rp.fused;
      const std::size_t g = lp.giant;

      // Build per-branch pre-rotated diagonal operands. Branch m convolves
      // the m-th digit image; the recombination constant B^m and the pixel
      // normalization fold into the branch weights, so branch outputs sum
      // directly (Fig. 5's "reassembled following the convolution").
      const std::size_t branches = first_linear ? k : 1;
      std::vector<double> branch_factor(branches, 1.0);
      if (first_linear) {
        double f = 1.0 / static_cast<double>(options_.pixel_levels - 1);
        for (std::size_t m = 0; m < branches; ++m) {
          branch_factor[m] = f;
          f *= static_cast<double>(digit_base_);
        }
      }

      // One scratch slot vector reused across every diagonal of every branch
      // (the encoder copies out of it), instead of a fresh slots-sized
      // allocation per diagonal.
      std::vector<double> diag(slots, 0.0);
      auto build_groups = [&](double factor) {
        std::map<std::size_t, LinearPlan::Group> groups;
        for (const std::size_t i : diag_set) {
          const std::size_t j = i / g;
          const std::size_t b = i % g;
          // Pre-rotated diagonal: value at slot t is W[row, col] with
          // row = (t - g*j) mod tile, col = (row + i) mod tile.
          std::fill(diag.begin(), diag.end(), 0.0);
          bool any = false;
          for (std::size_t t = 0; t < tile; ++t) {
            const std::size_t row = (t + tile - (g * j) % tile) % tile;
            const std::size_t col = (row + i) % tile;
            if (row < lin.out_dim && col < lin.in_dim) {
              const double v =
                  static_cast<double>(lin.at(row, col)) * factor;
              if (v != 0.0) {
                fill_slot(diag, t, v);
                any = true;
              }
            }
          }
          if (!any) continue;
          auto& group = groups[j];
          group.j = j;
          group.terms.push_back(
              {b, make_weight(diag, delta, level)});
        }
        std::vector<LinearPlan::Group> out;
        out.reserve(groups.size());
        for (auto& [j, grp] : groups) out.push_back(std::move(grp));
        return out;
      };

      if (branches == 1) {
        lp.groups = build_groups(first_linear ? branch_factor[0] : 1.0);
      } else {
        lp.branch_groups.resize(branches);
        for (std::size_t m = 0; m < branches; ++m) {
          lp.branch_groups[m] = build_groups(branch_factor[m]);
        }
      }

      // Rotation steps: babies and giants actually present.
      const auto& reference_groups =
          branches == 1 ? lp.groups : lp.branch_groups[0];
      lp.rot_mult = rot_mult;
      for (const auto& group : reference_groups) {
        if (group.j != 0) {
          steps.insert(static_cast<int>(g * group.j * rot_mult));
        }
        for (const auto& term : group.terms) {
          if (term.baby != 0) {
            steps.insert(static_cast<int>(term.baby * rot_mult));
          }
        }
      }

      // Noise propagation through this stage (heuristic upper bound).
      {
        const auto& ref_groups =
            branches == 1 ? lp.groups : lp.branch_groups[0];
        std::size_t giant_groups = 0;
        for (const auto& grp : ref_groups) {
          if (grp.j != 0) ++giant_groups;
        }
        double wmax = 0.0;
        for (const auto w : lin.weight) {
          wmax = std::max(wmax, std::abs(static_cast<double>(w)));
        }
        const double in_value =
            first_linear ? static_cast<double>(digit_base_ - 1) : value_bound;
        const double w_value =
            wmax * (first_linear ? branch_factor.back() : 1.0);
        const double rot_noise = noise + tracker.key_switch(level);
        const double term_noise = tracker.multiply(
            rot_noise, weight_noise, scale, delta, in_value, w_value);
        double stage_noise =
            static_cast<double>(diag_set.size()) * term_noise +
            static_cast<double>(2 * giant_groups + 1) *
                tracker.key_switch(level);
        stage_noise *= static_cast<double>(branches);
        noise = stage_noise;

        double out_bound = 0.0;
        for (std::size_t row = 0; row < lin.out_dim; ++row) {
          double row_sum = std::abs(static_cast<double>(lin.bias[row]));
          for (std::size_t col = 0; col < lin.in_dim; ++col) {
            row_sum += std::abs(static_cast<double>(lin.at(row, col)));
          }
          out_bound = std::max(out_bound, row_sum);
        }
        value_bound = out_bound;
      }

      // Output scale: one weight multiplication, then the greedy rescale.
      const int level_before = level;
      const double scale_before = scale * delta;
      scale *= delta;
      simulate_rescale(level, scale);
      rescale_noise(level_before, scale_before, level, noise);
      noise += weight_noise;  // bias addition
      lp.level_out = level;
      lp.scale_out = scale;

      std::vector<double> bias(slots, 0.0);
      for (std::size_t t = 0; t < lin.out_dim; ++t) {
        fill_slot(bias, t, static_cast<double>(lin.bias[t]));
      }
      lp.bias = make_weight(bias, scale, level);
      plan_stage.name = "linear " + std::to_string(lin.in_dim) + "->" +
                        std::to_string(lin.out_dim);
      first_linear = false;
    } else {
      const ActivationSpec& act = stage.activation;
      plan_stage.is_linear = false;
      ActivationPlan& ap = plan_stage.activation;
      ap.features = act.features;
      ap.degree = act.degree;
      ap.tile = tile;
      ap.level_in = level;
      ap.scale_in = scale;

      // Power tower x^2..x^d by repeated multiplication with x.
      ap.power_levels.assign(ap.degree + 1, 0);
      ap.power_scales.assign(ap.degree + 1, 0.0);
      ap.power_levels[1] = level;
      ap.power_scales[1] = scale;
      std::vector<double> power_noise(ap.degree + 1, 0.0);
      std::vector<double> power_bound(ap.degree + 1, 0.0);
      power_noise[1] = noise;
      power_bound[1] = value_bound;
      int lv = level;
      double sc = scale;
      for (std::size_t p = 2; p <= ap.degree; ++p) {
        double nz = tracker.multiply(power_noise[p - 1], noise,
                                     ap.power_scales[p - 1], scale,
                                     power_bound[p - 1], value_bound) +
                    tracker.key_switch(lv);
        const int lv_before = lv;
        const double sc_before = sc * ap.power_scales[1];
        sc = sc_before;
        simulate_rescale(lv, sc);
        rescale_noise(lv_before, sc_before, lv, nz);
        power_noise[p] = nz;
        power_bound[p] = power_bound[p - 1] * value_bound;
        ap.power_levels[p] = lv;
        ap.power_scales[p] = sc;
      }
      ap.target_level = ap.power_levels[ap.degree];
      ap.target_scale = ap.power_scales[ap.degree] * delta;

      // Per-neuron coefficient vectors at exactly matching scales.
      ap.power_weights.resize(ap.degree + 1);
      for (std::size_t p = 1; p <= ap.degree; ++p) {
        std::vector<double> coeffs(slots, 0.0);
        for (std::size_t t = 0; t < act.features; ++t) {
          fill_slot(coeffs, t, static_cast<double>(act.coeff(t, p)));
        }
        ap.power_weights[p] = make_weight(
            coeffs, ap.target_scale / ap.power_scales[p], ap.target_level);
      }
      {
        std::vector<double> c0(slots, 0.0);
        for (std::size_t t = 0; t < act.features; ++t) {
          fill_slot(c0, t, static_cast<double>(act.coeff(t, 0)));
        }
        ap.constant = make_weight(c0, ap.target_scale, ap.target_level);
      }

      // Noise of the polynomial combination: one plaintext-scale product per
      // power, the constant-term addition, the final relinearization.
      {
        double amax = 0.0;
        for (const auto c : act.coeffs) {
          amax = std::max(amax, std::abs(static_cast<double>(c)));
        }
        double nz = weight_noise;  // constant term operand
        for (std::size_t p = 1; p <= ap.degree; ++p) {
          nz += tracker.multiply(power_noise[p], weight_noise,
                                 ap.power_scales[p],
                                 ap.target_scale / ap.power_scales[p],
                                 power_bound[p], amax);
        }
        nz += tracker.key_switch(ap.target_level);
        noise = nz;
        double out_bound = 0.0;
        for (std::size_t t = 0; t < act.features; ++t) {
          double b = 0.0, pow_v = 1.0;
          for (std::size_t p = 0; p <= ap.degree; ++p) {
            b += std::abs(static_cast<double>(act.coeff(t, p))) * pow_v;
            pow_v *= value_bound;
          }
          out_bound = std::max(out_bound, b);
        }
        value_bound = out_bound;
      }

      const int level_before = ap.target_level;
      const double scale_before = ap.target_scale;
      level = ap.target_level;
      scale = ap.target_scale;
      simulate_rescale(level, scale);
      rescale_noise(level_before, scale_before, level, noise);
      ap.level_out = level;
      ap.scale_out = scale;
      plan_stage.name = "activation deg " + std::to_string(ap.degree);
    }
    plan_stage.predicted_err = NoiseTracker::slot_error(noise, scale);
    plan_stage.value_bound = value_bound;
    stages_.push_back(std::move(plan_stage));
  }
  // Cryptographic noise plus one unit of fixed-point headroom for the
  // output's own encoding granularity at the final scale.
  predicted_output_error_ = NoiseTracker::slot_error(noise, scale) +
                            value_bound / backend_.params().scale;

  output_level_ = level;
  output_scale_ = scale;
  levels_used_ = input_level_ - level;
  PPHE_CHECK(level >= 0, "model depth exceeds the moduli chain");

  rotation_steps_.assign(steps.begin(), steps.end());
  backend_.ensure_galois_keys(rotation_steps_);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Ciphertext HeModel::multiply_weight(const Ciphertext& x,
                                    const WeightOperand& w) const {
  if (std::holds_alternative<Plaintext>(w)) {
    return backend_.multiply_plain(x, std::get<Plaintext>(w));
  }
  return backend_.multiply(x, std::get<Ciphertext>(w));
}

Ciphertext HeModel::add_weight(const Ciphertext& x,
                               const WeightOperand& w) const {
  if (std::holds_alternative<Plaintext>(w)) {
    return backend_.add_plain(x, std::get<Plaintext>(w));
  }
  return backend_.add(x, std::get<Ciphertext>(w));
}

Ciphertext HeModel::apply_rescale(Ciphertext ct) const {
  const double delta = backend_.params().scale;
  while (ct.level() > 0 &&
         ct.scale() / backend_.level_prime(ct.level()) >= 0.5 * delta) {
    ct = backend_.rescale(ct);
  }
  return ct;
}

Ciphertext HeModel::run_linear_single(
    const LinearPlan& plan, const std::vector<LinearPlan::Group>& groups,
    const Ciphertext& x) const {
  PPHE_CHECK_CODE(x.level() == plan.level_in, ErrorCode::kLevelMismatch,
                  "linear stage level mismatch (input level " +
                      std::to_string(x.level()) + ", plan expects " +
                      std::to_string(plan.level_in) + ")");
  PPHE_CHECK_CODE(close_enough(x.scale(), plan.scale_in),
                  ErrorCode::kScaleMismatch,
                  "linear stage scale mismatch (input scale 2^" +
                      std::to_string(std::log2(x.scale())) +
                      ", plan expects 2^" +
                      std::to_string(std::log2(plan.scale_in)) + ")");

  // Double-hoisted fused path (DESIGN.md §14): hand the whole group/term
  // table to the backend, which accumulates every baby inner product in the
  // raised basis and pays ONE mod-down per giant group plus a layer
  // epilogue. The backend declines (returns an invalid handle) when an
  // operand is not eligible — plaintext missing the special channel, scale
  // mismatch, weight level below the input — and we fall back to the
  // generic loop below; missing Galois keys still throw inside.
  if (plan.fused && backend_.supports_hoisted_bsgs()) {
    std::vector<BsgsGroupSpec> specs;
    specs.reserve(groups.size());
    bool plain = true;
    for (const auto& group : groups) {
      BsgsGroupSpec spec;
      spec.giant_step =
          static_cast<int>(plan.giant * group.j * plan.rot_mult);
      spec.terms.reserve(group.terms.size());
      for (const auto& term : group.terms) {
        const auto* pt = std::get_if<Plaintext>(&term.weight);
        if (pt == nullptr) {
          plain = false;
          break;
        }
        spec.terms.push_back(
            {static_cast<int>(term.baby * plan.rot_mult), pt});
      }
      if (!plain) break;
      specs.push_back(std::move(spec));
    }
    if (plain) {
      Ciphertext fused = backend_.linear_bsgs(x, specs);
      if (fused.valid()) return fused;
    }
  }

  // All baby rotations of x at once (hoisted key switching in the backend).
  // Logical steps scale by rot_mult under the interleaved batch layout.
  std::set<std::size_t> baby_steps;
  for (const auto& group : groups) {
    for (const auto& term : group.terms) {
      if (term.baby != 0) baby_steps.insert(term.baby);
    }
  }
  std::map<std::size_t, Ciphertext> baby;
  {
    std::vector<int> steps;
    steps.reserve(baby_steps.size());
    for (const std::size_t b : baby_steps) {
      steps.push_back(static_cast<int>(b * plan.rot_mult));
    }
    auto rotated = backend_.rotate_batch(x, steps);
    std::size_t idx = 0;
    for (const std::size_t b : baby_steps) {
      baby.emplace(b, std::move(rotated[idx++]));
    }
  }
  auto rotated = [&](std::size_t b) -> const Ciphertext& {
    return b == 0 ? x : baby.at(b);
  };

  Ciphertext total;
  std::vector<Ciphertext> giant_cts;
  std::vector<int> giant_steps;
  for (const auto& group : groups) {
    Ciphertext acc;
    for (const auto& term : group.terms) {
      if (std::holds_alternative<Plaintext>(term.weight)) {
        backend_.multiply_plain_acc(acc, rotated(term.baby),
                                    std::get<Plaintext>(term.weight));
      } else {
        backend_.multiply_acc(acc, rotated(term.baby),
                              std::get<Ciphertext>(term.weight));
      }
    }
    if (group.j != 0) {
      // Giant-step rotation needs a size-2 ciphertext.
      acc = backend_.relinearize(acc);
      const int step =
          static_cast<int>(plan.giant * group.j * plan.rot_mult);
      if (options_.hoist_fusion) {
        // Defer: all giant rotations share one raised-basis accumulator and
        // one mod-down epilogue in rotate_sum.
        giant_cts.push_back(std::move(acc));
        giant_steps.push_back(step);
        continue;
      }
      acc = backend_.rotate(acc, step);
    }
    total = total.valid() ? backend_.add(total, acc) : std::move(acc);
  }
  if (!giant_cts.empty()) {
    Ciphertext summed = backend_.rotate_sum(giant_cts, giant_steps);
    total = total.valid() ? backend_.add(total, summed) : std::move(summed);
  }
  PPHE_CHECK(total.valid(), "linear stage produced no terms");
  return backend_.relinearize(total);
}

Ciphertext HeModel::run_linear(
    const LinearPlan& plan, const std::vector<Ciphertext>& branch_inputs) const {
  Ciphertext y;
  if (!plan.branch_groups.empty()) {
    PPHE_CHECK(branch_inputs.size() == plan.branch_groups.size(),
               "branch count mismatch");
    for (std::size_t m = 0; m < plan.branch_groups.size(); ++m) {
      Ciphertext ym =
          run_linear_single(plan, plan.branch_groups[m], branch_inputs[m]);
      y = y.valid() ? backend_.add(y, ym) : std::move(ym);
    }
  } else {
    PPHE_CHECK(branch_inputs.size() == 1, "unexpected branch inputs");
    y = run_linear_single(plan, plan.groups, branch_inputs[0]);
  }
  y = apply_rescale(y);
  PPHE_CHECK(y.level() == plan.level_out, "linear output level mismatch");
  return add_weight(y, plan.bias);
}

Ciphertext HeModel::run_activation(const ActivationPlan& plan,
                                   const Ciphertext& x) const {
  PPHE_CHECK_CODE(x.level() == plan.level_in, ErrorCode::kLevelMismatch,
                  "activation level mismatch (input level " +
                      std::to_string(x.level()) + ", plan expects " +
                      std::to_string(plan.level_in) + ")");
  std::vector<Ciphertext> powers(plan.degree + 1);
  powers[1] = x;
  for (std::size_t p = 2; p <= plan.degree; ++p) {
    Ciphertext prod = backend_.multiply(powers[p - 1], x);
    prod = backend_.relinearize(prod);
    prod = apply_rescale(prod);
    PPHE_CHECK(prod.level() == plan.power_levels[p],
               "power level mismatch");
    powers[p] = std::move(prod);
  }

  Ciphertext acc;
  for (std::size_t p = 1; p <= plan.degree; ++p) {
    Ciphertext dropped = backend_.mod_drop_to(powers[p], plan.target_level);
    Ciphertext term = multiply_weight(dropped, plan.power_weights[p]);
    acc = acc.valid() ? backend_.add(acc, term) : std::move(term);
  }
  acc = backend_.relinearize(acc);
  acc = add_weight(acc, plan.constant);
  acc = apply_rescale(acc);
  PPHE_CHECK(acc.level() == plan.level_out, "activation output level mismatch");
  return acc;
}

double HeModel::planned_input_budget_bits() const {
  double modulus_bits = 0.0;
  for (int l = 0; l <= input_level_; ++l) {
    modulus_bits += std::log2(backend_.level_prime(l));
  }
  return modulus_bits - std::log2(backend_.params().scale) - 1.0;
}

double HeModel::planned_output_budget_bits() const {
  double modulus_bits = 0.0;
  for (int l = 0; l <= output_level_; ++l) {
    modulus_bits += std::log2(backend_.level_prime(l));
  }
  return modulus_bits - std::log2(output_scale_) - 1.0;
}

Ciphertext HeModel::eval(const std::vector<Ciphertext>& branch_inputs) const {
  PPHE_CHECK(!stages_.empty(), "empty model");
  PPHE_CHECK(stages_.front().is_linear, "model must start with a linear stage");
  trace::Span eval_span("model_eval", "model");

  // Fault harness: when armed, eval.input faults perturb copies of the branch
  // inputs — limb bit flips on a deep-copied slab, scale/level perturbations
  // on the mirrored handle metadata. The guards below must catch every one.
  const std::vector<Ciphertext>* inputs = &branch_inputs;
  std::vector<Ciphertext> faulted;
  if (fault::armed()) {
    faulted = branch_inputs;
    for (Ciphertext& in : faulted) {
      faulted_copy(backend_, in);
    }
    inputs = &faulted;
  }

  if (options_.validate_inputs) {
    for (const Ciphertext& in : *inputs) {
      backend_.validate_ciphertext(in);
    }
  }
  if (options_.min_noise_budget_bits > 0.0 && !inputs->empty()) {
    // Guardrail: the logits come out with the plan's output budget minus any
    // deficit the inputs arrived with (mod-dropped, over-scaled, pre-used).
    double actual = std::numeric_limits<double>::infinity();
    for (const Ciphertext& in : *inputs) {
      actual = std::min(actual, noise_budget_bits(backend_, in));
    }
    const double deficit =
        std::max(0.0, planned_input_budget_bits() - actual);
    const double projected = planned_output_budget_bits() - deficit;
    PPHE_CHECK_CODE(projected >= options_.min_noise_budget_bits,
                    ErrorCode::kNoiseBudget,
                    "noise-budget guardrail: projected output budget " +
                        std::to_string(projected) + " bits is below the " +
                        std::to_string(options_.min_noise_budget_bits) +
                        "-bit floor; refusing to produce degraded logits");
  }

  Ciphertext ct;
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const StagePlan& stage = stages_[s];
    // Span name carries the stage index and label; the buffer lives past the
    // Span ctor only because Event copies the name inline.
    char label[trace::Event::kNameCap];
    std::snprintf(label, sizeof(label), "layer%zu:%s", s, stage.name.c_str());
    trace::Span span(label, "layer");
    const int level_in = ct.valid()
                             ? ct.level()
                             : (inputs->empty() ? 0 : (*inputs)[0].level());
    if (s == 0) {
      ct = run_linear(stage.linear, *inputs);
    } else if (stage.is_linear) {
      ct = run_linear(stage.linear, {ct});
    } else {
      ct = run_activation(stage.activation, ct);
    }
    if (span.recording()) {
      span.attr("level_in", level_in);
      span.attr("level", ct.level());
      span.attr("scale_log2", std::log2(ct.scale()));
      span.attr("budget_bits", noise_budget_bits(backend_, ct));
      span.attr("predicted_err", stage.predicted_err);
      if (options_.trace_noise_budget) {
        // Debug-key path: decrypt the intermediate (the backend holds the
        // key) and compare measured slot magnitude against the plan's bound.
        const auto values = backend_.decrypt_decode(ct);
        double measured = 0.0;
        for (const double v : values) measured = std::max(measured, std::abs(v));
        span.attr("measured_max", measured);
        span.attr("value_bound", stage.value_bound);
      }
    }
  }
  return ct;
}

std::vector<Ciphertext> HeModel::encrypt_images(
    const std::vector<std::span<const float>>& images) const {
  trace::Span span("encrypt_input", "model");
  span.attr("images", static_cast<double>(images.size()));
  PPHE_CHECK(!stages_.empty() && stages_.front().is_linear, "empty model");
  PPHE_CHECK(images.size() == options_.batch,
             "image count must equal options.batch");
  const std::size_t in_dim = stages_.front().linear.in_dim;
  const std::size_t slots = backend_.slot_count();
  const std::size_t tile = input_tile_;
  const std::size_t batch = options_.batch;
  const std::size_t copies = batch > 1 ? batch : slots / tile;
  const double delta = backend_.params().scale;
  const int top = input_level_;

  // Quantize to pixel_levels and decompose into digits (base digit_base_).
  const std::size_t branches = std::max<std::size_t>(
      stages_.front().linear.branch_groups.size(), 1);
  std::vector<std::vector<double>> digit_vecs(
      branches, std::vector<double>(slots, 0.0));
  for (std::size_t img = 0; img < images.size(); ++img) {
    PPHE_CHECK(images[img].size() == in_dim, "input dimension mismatch");
    for (std::size_t t = 0; t < in_dim; ++t) {
      const float clamped = std::clamp(images[img][t], 0.0f, 1.0f);
      auto v = static_cast<std::size_t>(std::lround(
          clamped * static_cast<float>(options_.pixel_levels - 1)));
      for (std::size_t m = 0; m < branches; ++m) {
        const double digit = static_cast<double>(v % digit_base_);
        v /= digit_base_;
        if (batch > 1) {
          digit_vecs[m][t * batch + img] = digit;
        } else {
          for (std::size_t cpy = 0; cpy < copies; ++cpy) {
            digit_vecs[m][cpy * tile + t] = digit;
          }
        }
      }
    }
  }

  std::vector<Ciphertext> out;
  out.reserve(branches);
  for (std::size_t m = 0; m < branches; ++m) {
    out.push_back(backend_.encrypt(backend_.encode(digit_vecs[m], delta, top)));
  }
  return out;
}

std::vector<Ciphertext> HeModel::encrypt_input(
    std::span<const float> image) const {
  PPHE_CHECK(options_.batch == 1,
             "use infer_batch / encrypt_batch when options.batch > 1");
  return encrypt_images({image});
}

std::vector<Ciphertext> HeModel::encrypt_batch(
    const std::vector<std::vector<float>>& images) const {
  std::vector<std::span<const float>> views;
  views.reserve(images.size());
  for (const auto& img : images) views.emplace_back(img);
  return encrypt_images(views);
}

std::size_t HeModel::output_dim() const {
  return spec_.stages.back().kind == ModelSpec::Stage::Kind::kLinear
             ? spec_.stages.back().linear.out_dim
             : spec_.stages.back().activation.features;
}

std::vector<std::vector<double>> HeModel::decrypt_logits_batch(
    const Ciphertext& ct) const {
  trace::Span span("decrypt_logits", "model");
  const auto all = backend_.decrypt_decode(ct);
  const std::size_t out_dim = output_dim();
  const std::size_t batch = options_.batch;
  // The single de-interleave implementation: image `img`'s logit `t` lives at
  // slot t*batch + img under the interleaved layout (slot t replicated when
  // batch == 1). decrypt_logits and infer_batch both read through here, so
  // batched and single-image decode paths cannot drift apart.
  std::vector<std::vector<double>> logits(batch);
  for (std::size_t img = 0; img < batch; ++img) {
    auto& row = logits[img];
    row.resize(out_dim);
    for (std::size_t t = 0; t < out_dim; ++t) {
      row[t] = batch > 1 ? all[t * batch + img] : all[t];
    }
  }
  return logits;
}

std::vector<double> HeModel::decrypt_logits(const Ciphertext& ct) const {
  return std::move(decrypt_logits_batch(ct).front());
}

HeModel::BatchResult HeModel::infer_batch(
    const std::vector<std::vector<float>>& images) const {
  trace::Span span("infer_batch", "model");
  span.attr("batch", static_cast<double>(images.size()));
  BatchResult result;
  std::vector<std::span<const float>> views;
  views.reserve(images.size());
  for (const auto& img : images) views.emplace_back(img);

  Stopwatch sw;
  const auto inputs = encrypt_images(views);
  result.encrypt_seconds = sw.seconds();

  sw.reset();
  const Ciphertext out = eval(inputs);
  result.eval_seconds = sw.seconds();

  sw.reset();
  auto all = decrypt_logits_batch(out);
  result.logits.assign(std::make_move_iterator(all.begin()),
                       std::make_move_iterator(all.begin() +
                                               static_cast<long>(images.size())));
  result.predicted.resize(images.size());
  for (std::size_t img = 0; img < images.size(); ++img) {
    const auto& logits = result.logits[img];
    result.predicted[img] = static_cast<int>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  }
  result.decrypt_seconds = sw.seconds();
  return result;
}

InferenceResult HeModel::infer(std::span<const float> image) const {
  trace::Span span("infer", "model");
  InferenceResult result;
  Stopwatch sw;
  const auto inputs = encrypt_input(image);
  result.encrypt_seconds = sw.seconds();

  sw.reset();
  Ciphertext out;
  try {
    out = eval(inputs);
  } catch (const Error& e) {
    // The guardrail refusing to evaluate is a typed degraded result, not a
    // failure of the request machinery — report it as such.
    if (e.code() != ErrorCode::kNoiseBudget) throw;
    result.eval_seconds = sw.seconds();
    result.degraded = true;
    return result;
  }
  result.eval_seconds = sw.seconds();

  sw.reset();
  result.logits = decrypt_logits(out);
  result.decrypt_seconds = sw.seconds();
  result.predicted = static_cast<int>(
      std::max_element(result.logits.begin(), result.logits.end()) -
      result.logits.begin());
  return result;
}

std::vector<HeModel::StageCost> HeModel::cost_report() const {
  std::vector<StageCost> report;
  std::size_t stage_index = 0;
  for (const auto& stage : stages_) {
    StageCost cost;
    if (stage.is_linear) {
      const LinearPlan& lp = stage.linear;
      cost.name = "linear " + std::to_string(lp.in_dim) + "->" +
                  std::to_string(lp.out_dim);
      const auto& groups =
          lp.branch_groups.empty() ? lp.groups : lp.branch_groups[0];
      std::set<std::size_t> babies;
      std::size_t giants = 0;
      for (const auto& group : groups) {
        cost.diagonals += group.terms.size();
        if (group.j != 0) {
          ++giants;
          if (!lp.fused) ++cost.relins;
        }
        for (const auto& term : group.terms) {
          if (term.baby != 0) babies.insert(term.baby);
        }
      }
      cost.rotations = babies.size() + giants;
      if (!lp.fused) ++cost.relins;  // final deferred relinearization
      cost.giant = lp.giant;
      cost.fused = lp.fused;
      cost.giant_groups = giants;
      if (lp.fused) {
        // One mod-down per nonzero giant group + the layer epilogue.
        cost.moddowns = giants + (cost.diagonals != 0 ? 1 : 0);
      } else {
        // Single-hoisted babies each pay a mod-down; giants share one
        // rotate_sum epilogue when the backend hoists, else one each. Relins
        // that key-switch (encrypted weights) add their own on top.
        const bool shared_epilogue =
            options_.hoist_fusion && backend_.supports_hoisted_bsgs();
        cost.moddowns =
            babies.size() + (shared_epilogue ? (giants != 0 ? 1 : 0) : giants);
      }
      const std::size_t branches =
          lp.branch_groups.empty() ? 1 : lp.branch_groups.size();
      cost.diagonals *= branches;
      cost.rotations *= branches;
      cost.relins *= branches;
      cost.giant_groups *= branches;
      cost.moddowns *= branches;
      cost.tile = lp.tile;
      cost.level_in = lp.level_in;
      cost.scale_in = lp.scale_in;
    } else {
      const ActivationPlan& ap = stage.activation;
      cost.name = "activation deg " + std::to_string(ap.degree) + " (" +
                  std::to_string(ap.features) + " neurons)";
      cost.relins = ap.degree;  // one per power product + final
      cost.tile = ap.tile;
      cost.level_in = ap.level_in;
      cost.scale_in = ap.scale_in;
    }
    report.push_back(std::move(cost));
    ++stage_index;
  }
  return report;
}

}  // namespace pphe
