#include "core/models.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "common/check.hpp"

namespace pphe {

std::string arch_name(Arch arch) {
  return arch == Arch::kCnn1 ? "CNN1" : "CNN2";
}

namespace {

void add_activation(Network& net, Activation act, std::size_t features,
                    std::size_t slaf_degree) {
  switch (act) {
    case Activation::kRelu:
      net.emplace<ReLU>();
      break;
    case Activation::kSquare:
      net.emplace<Square>();
      break;
    case Activation::kSlaf:
      net.emplace<Slaf>(features, slaf_degree);
      break;
  }
}

}  // namespace

std::unique_ptr<Network> build_network(Arch arch, Activation act,
                                       std::uint64_t seed,
                                       std::size_t slaf_degree) {
  Prng prng(seed);
  auto net = std::make_unique<Network>();
  if (arch == Arch::kCnn1) {
    // Fig. 3: Lo-La variant with activations after the convolution and the
    // first dense layer. 28x28 -> 5x12x12 (=720) -> 64 -> 10.
    net->emplace<Conv2D>(1, 5, 5, 2, prng);
    net->emplace<Flatten>();
    add_activation(*net, act, 720, slaf_degree);
    net->emplace<Dense>(720, 64, prng);
    add_activation(*net, act, 64, slaf_degree);
    net->emplace<Dense>(64, 10, prng);
  } else {
    // Fig. 4: CryptoNets-based, two convolutions, batch norm before each
    // activation. 28x28 -> 5x12x12 -> 10x4x4 (=160) -> 64 -> 10.
    net->emplace<Conv2D>(1, 5, 5, 2, prng);
    net->emplace<BatchNorm2D>(5);
    net->emplace<Flatten>();
    add_activation(*net, act, 720, slaf_degree);
    // (The HE engine re-folds the flattened vector into 5x12x12 for conv2.)
    net->emplace<Reshape4D>(5, 12, 12);
    net->emplace<Conv2D>(5, 10, 5, 2, prng);
    net->emplace<BatchNorm2D>(10);
    net->emplace<Flatten>();
    add_activation(*net, act, 160, slaf_degree);
    net->emplace<Dense>(160, 64, prng);
    net->emplace<Dense>(64, 10, prng);
  }
  return net;
}

std::vector<float> fit_relu_polynomial(std::size_t degree, double radius) {
  PPHE_CHECK(degree >= 1 && radius > 0.0, "bad SLAF fit parameters");
  // Weighted least squares of max(x, 0) onto {1, x, ..., x^d} over a dense
  // grid with Gaussian weights (sigma = radius/2): normal equations solved
  // by Gaussian elimination with partial pivoting.
  const std::size_t n = degree + 1;
  std::vector<double> ata(n * n, 0.0), atb(n, 0.0);
  const double sigma = radius / 2.0;
  const int grid = 2001;
  for (int g = 0; g < grid; ++g) {
    const double x = -radius + 2.0 * radius * g / (grid - 1);
    const double w = std::exp(-x * x / (2.0 * sigma * sigma));
    const double y = x > 0.0 ? x : 0.0;
    double powers[16];
    powers[0] = 1.0;
    for (std::size_t p = 1; p < n; ++p) powers[p] = powers[p - 1] * x;
    for (std::size_t i = 0; i < n; ++i) {
      atb[i] += w * powers[i] * y;
      for (std::size_t j = 0; j < n; ++j) {
        ata[i * n + j] += w * powers[i] * powers[j];
      }
    }
  }
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(ata[r * n + col]) > std::abs(ata[pivot * n + col])) {
        pivot = r;
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      std::swap(ata[col * n + j], ata[pivot * n + j]);
    }
    std::swap(atb[col], atb[pivot]);
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col || ata[col * n + col] == 0.0) continue;
      const double f = ata[r * n + col] / ata[col * n + col];
      for (std::size_t j = 0; j < n; ++j) ata[r * n + j] -= f * ata[col * n + j];
      atb[r] -= f * atb[col];
    }
  }
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(atb[i] / ata[i * n + i]);
  }
  return out;
}

TrainedModel train_protocol(Arch arch, Activation act, const Dataset& train_set,
                            const Dataset& test_set,
                            const ProtocolConfig& cfg) {
  TrainedModel out;
  out.arch = arch;
  out.activation = act;

  // Phase 1: pre-train with ReLU (original activations).
  auto relu_net = build_network(arch, Activation::kRelu, cfg.seed);
  TrainConfig phase1;
  phase1.epochs = cfg.relu_epochs;
  phase1.batch_size = cfg.batch_size;
  phase1.lr_max = cfg.lr_max;
  phase1.shuffle_seed = cfg.seed ^ 0x1111;
  phase1.verbose = cfg.verbose;
  if (cfg.verbose) std::printf("[%s] phase 1: ReLU pre-training\n",
                               arch_name(arch).c_str());
  train(*relu_net, train_set, phase1);

  if (act == Activation::kRelu) {
    out.train_accuracy = evaluate(*relu_net, train_set);
    out.test_accuracy = evaluate(*relu_net, test_set);
    out.network = std::move(relu_net);
    return out;
  }

  // Phase 2: rebuild with the homomorphic activation, copy the learned
  // weights, then shortly re-train so SLAF coefficients (zero-initialized,
  // eq. (2)) adapt to the frozen-shape network.
  auto he_net = build_network(arch, act, cfg.seed);
  {
    auto src = relu_net->params();
    auto dst = he_net->params();
    // Activation layers contribute params only in the SLAF net; copy the
    // shared (conv/dense/bn) parameters by matching shapes in order.
    std::size_t si = 0;
    for (Param* d : dst) {
      if (si < src.size() && src[si]->value.shape() == d->value.shape()) {
        d->value = src[si]->value;
        ++si;
      }
    }
    PPHE_CHECK(si == src.size(), "weight transfer mismatch");
  }
  if (act == Activation::kSlaf && cfg.slaf_init == SlafInit::kReluFit) {
    // Seed every SLAF with the ReLU least-squares fit so the substituted
    // network starts near the pre-trained optimum (see SlafInit docs).
    for (auto& layer : he_net->layers_mut()) {
      if (auto* slaf = dynamic_cast<Slaf*>(layer.get())) {
        const auto fit =
            fit_relu_polynomial(slaf->degree(), cfg.slaf_fit_radius);
        for (std::size_t k = 0; k < slaf->features(); ++k) {
          for (std::size_t p = 0; p <= slaf->degree(); ++p) {
            slaf->coeffs().value.at2(k, p) = fit[p];
          }
        }
      }
    }
  }
  TrainConfig phase2;
  phase2.epochs = cfg.slaf_epochs;
  phase2.batch_size = cfg.batch_size;
  phase2.lr_max = cfg.slaf_lr_max;
  phase2.shuffle_seed = cfg.seed ^ 0x2222;
  phase2.verbose = cfg.verbose;
  if (cfg.verbose) std::printf("[%s] phase 2: %s re-training\n",
                               arch_name(arch).c_str(),
                               act == Activation::kSlaf ? "SLAF" : "Square");
  out.train_accuracy = train(*he_net, train_set, phase2);
  out.test_accuracy = evaluate(*he_net, test_set);
  out.network = std::move(he_net);
  return out;
}

// ---------------------------------------------------------------------------
// Lowering to ModelSpec
// ---------------------------------------------------------------------------

namespace {

/// Where each feature of the tensor flowing between stages lives in the
/// vector a stage sees: feature (c, y, x) sits in slot
/// (offset[c] + grid[y * w + x]) mod span. Flatten keeps the map, so flat
/// feature k = (c * h + y) * w + x has the slot of its (c, y, x). Slots no
/// feature maps to are holes.
struct SlotMap {
  std::size_t c = 1, h = 1, w = 1;
  std::size_t span = 1;
  std::vector<std::size_t> offset;  // per channel
  std::vector<std::size_t> grid;    // per pixel, before the channel offset

  /// Row-major order with no holes: what the client encrypts and what a
  /// dense layer writes.
  static SlotMap compact(std::size_t c, std::size_t h, std::size_t w) {
    SlotMap map;
    map.c = c;
    map.h = h;
    map.w = w;
    map.span = c * h * w;
    for (std::size_t ch = 0; ch < c; ++ch) map.offset.push_back(ch * h * w);
    for (std::size_t p = 0; p < h * w; ++p) map.grid.push_back(p);
    return map;
  }

  std::size_t features() const { return c * h * w; }
  std::size_t slot(std::size_t ch, std::size_t y, std::size_t x) const {
    return (offset[ch] + grid[y * w + x]) % span;
  }
  std::size_t slot(std::size_t flat) const {
    return (offset[flat / (h * w)] + grid[flat % (h * w)]) % span;
  }
};

/// Channel offsets Y_0 < Y_1 < ... < Y_{channels-1}, the lexicographically
/// smallest whose shifted lattices Y_f + lattice are pairwise disjoint mod
/// `tile`. Two shifts collide iff their difference lies in
/// lattice - lattice, so the depth-first search compares offsets only.
/// Greedy first-fit is not enough: for CNN1 it fills the tile so that the
/// last channel has nowhere to go. Throws when no placement is found within
/// the search budget.
std::vector<std::size_t> place_channels(const std::vector<std::size_t>& lattice,
                                        std::size_t channels,
                                        std::size_t tile) {
  std::vector<bool> clash(tile, false);
  for (const std::size_t a : lattice) {
    for (const std::size_t b : lattice) clash[(a + tile - b) % tile] = true;
  }
  std::vector<std::size_t> offsets;
  std::size_t budget = std::size_t{1} << 22;  // candidate checks
  // Fills offsets[offsets.size()..] with candidates >= `from`.
  const auto place = [&](const auto& self, std::size_t from) -> bool {
    if (offsets.size() == channels) return true;
    for (std::size_t y = from; y + (channels - offsets.size()) <= tile; ++y) {
      if (budget == 0) return false;
      --budget;
      bool free = true;
      for (const std::size_t o : offsets) free = free && !clash[y - o];
      if (!free) continue;
      offsets.push_back(y);
      if (self(self, y + 1)) return true;
      offsets.pop_back();
    }
    return false;
  };
  PPHE_CHECK(place(place, 0),
             "cannot place " + std::to_string(channels) +
                 " conv output channels of " + std::to_string(lattice.size()) +
                 " slots each disjointly in a " + std::to_string(tile) +
                 "-slot tile");
  return offsets;
}

/// Lowers a Conv2D over `map` into a LinearSpec on the gapped layout: output
/// (f, oy, ox) goes to Y_f + grid(s*oy, s*ox), the slot of its receptive
/// field's top-left input pixel shifted by a per-channel offset. Then
/// col - row = X_c - Y_f + grid(ky, kx) for every output, so the matrix has
/// at most C_in * C_out * K^2 diagonals. `map` becomes the output layout.
LinearSpec lower_conv(const Conv2D& conv, SlotMap& map) {
  PPHE_CHECK(map.c == conv.in_channels(), "conv channel mismatch");
  const std::size_t k = conv.kernel(), s = conv.stride();
  const std::size_t oh = (map.h - k) / s + 1;
  const std::size_t ow = (map.w - k) / s + 1;
  const std::size_t channels = conv.out_channels();
  // The output span never exceeds the tile the compact layout would need,
  // so the model's tile and max batch stay those of compact packing.
  const std::size_t tile =
      std::bit_ceil(std::max(map.span, channels * oh * ow));

  std::vector<std::size_t> lattice;
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t ox = 0; ox < ow; ++ox) {
      lattice.push_back(map.grid[(s * oy) * map.w + s * ox]);
    }
  }
  SlotMap out;
  out.c = channels;
  out.h = oh;
  out.w = ow;
  out.span = tile;
  out.offset = place_channels(lattice, channels, tile);
  out.grid = std::move(lattice);

  LinearSpec spec;
  spec.in_dim = map.span;
  spec.out_dim = tile;
  spec.weight.assign(spec.in_dim * spec.out_dim, 0.0f);
  spec.bias.assign(spec.out_dim, 0.0f);
  for (std::size_t f = 0; f < channels; ++f) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::size_t row = out.slot(f, oy, ox);
        spec.bias[row] = conv.bias().value[f];
        for (std::size_t c = 0; c < map.c; ++c) {
          for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
              const std::size_t col = map.slot(c, oy * s + ky, ox * s + kx);
              spec.weight[row * spec.in_dim + col] =
                  conv.weight().value.at4(f, c, ky, kx);
            }
          }
        }
      }
    }
  }
  map = std::move(out);
  return spec;
}

/// Folds BN into the conv rows of each channel; hole rows stay zero.
void fold_batchnorm(LinearSpec& linear, const BatchNorm2D& bn,
                    const SlotMap& map) {
  PPHE_CHECK(bn.channels() == map.c, "batch norm channel mismatch");
  const auto scale = bn.fold_scale();
  const auto shift = bn.fold_shift();
  for (std::size_t k = 0; k < map.features(); ++k) {
    const std::size_t c = k / (map.h * map.w);
    const std::size_t row = map.slot(k);
    for (std::size_t col = 0; col < linear.in_dim; ++col) {
      linear.weight[row * linear.in_dim + col] *= scale[c];
    }
    linear.bias[row] = linear.bias[row] * scale[c] + shift[c];
  }
}

/// Lowers a Dense layer reading features through `map`; its output is
/// compact, so `map` becomes the compact map of out_dim features.
LinearSpec lower_dense(const Dense& dense, SlotMap& map) {
  PPHE_CHECK(map.features() == dense.in_dim(), "dense input mismatch");
  LinearSpec spec;
  spec.in_dim = map.span;
  spec.out_dim = dense.out_dim();
  spec.weight.assign(spec.in_dim * spec.out_dim, 0.0f);
  for (std::size_t row = 0; row < spec.out_dim; ++row) {
    for (std::size_t i = 0; i < dense.in_dim(); ++i) {
      spec.weight[row * spec.in_dim + map.slot(i)] =
          dense.weight().value.at2(row, i);
    }
  }
  spec.bias.assign(dense.bias().value.vec().begin(),
                   dense.bias().value.vec().end());
  map = SlotMap::compact(spec.out_dim, 1, 1);
  return spec;
}

/// Per-feature polynomial coefficients (`coeff(k, p)` for feature k) placed
/// on the slots of `map`; hole slots get all-zero coefficients.
template <typename Coeff>
ActivationSpec lower_activation(const SlotMap& map, std::size_t degree,
                                Coeff coeff) {
  ActivationSpec spec;
  spec.features = map.span;
  spec.degree = degree;
  spec.coeffs.assign(spec.features * (degree + 1), 0.0f);
  for (std::size_t k = 0; k < map.features(); ++k) {
    for (std::size_t p = 0; p <= degree; ++p) {
      spec.coeffs[map.slot(k) * (degree + 1) + p] = coeff(k, p);
    }
  }
  return spec;
}

}  // namespace

std::size_t LinearSpec::live_outputs() const {
  std::size_t live = 0;
  for (std::size_t row = 0; row < out_dim; ++row) {
    bool any = bias[row] != 0.0f;
    for (std::size_t col = 0; col < in_dim && !any; ++col) {
      any = at(row, col) != 0.0f;
    }
    live += any ? 1 : 0;
  }
  return live;
}

std::string LinearSpec::label() const {
  const std::size_t live = live_outputs();
  std::string out = std::to_string(in_dim) + "->" + std::to_string(live);
  if (live != out_dim) out += " [" + std::to_string(out_dim) + " slots]";
  return out;
}

std::size_t ModelSpec::depth() const {
  std::size_t d = 0;
  for (const auto& stage : stages) {
    if (stage.kind == Stage::Kind::kLinear) {
      d += 1;
    } else {
      // x^2 and x^3 towers plus the final rescale (see he_model.cpp).
      d += stage.activation.degree >= 3 ? 3 : 2;
    }
  }
  return d;
}

ModelSpec compile_model(const TrainedModel& model) {
  PPHE_CHECK(model.activation != Activation::kRelu,
             "ReLU networks cannot be compiled for HE (§III.C)");
  ModelSpec spec;
  spec.name = arch_name(model.arch) + "-HE" +
              (model.activation == Activation::kSlaf ? "-SLAF" : "-SQ");

  // The slot map follows the tensor through the stages: compact for the
  // input image, gapped after each convolution, compact after each dense.
  SlotMap map = SlotMap::compact(1, 28, 28);
  LinearSpec* pending_linear = nullptr;
  const auto push = [&](ModelSpec::Stage::Kind kind) -> ModelSpec::Stage& {
    spec.stages.emplace_back();
    spec.stages.back().kind = kind;
    return spec.stages.back();
  };

  for (const auto& layer : model.network->layers()) {
    if (const auto* conv = dynamic_cast<const Conv2D*>(layer.get())) {
      auto& stage = push(ModelSpec::Stage::Kind::kLinear);
      stage.linear = lower_conv(*conv, map);
      pending_linear = &stage.linear;
    } else if (const auto* bn = dynamic_cast<const BatchNorm2D*>(layer.get())) {
      PPHE_CHECK(pending_linear != nullptr,
                 "BatchNorm must follow a convolution");
      fold_batchnorm(*pending_linear, *bn, map);
    } else if (const auto* dense = dynamic_cast<const Dense*>(layer.get())) {
      auto& stage = push(ModelSpec::Stage::Kind::kLinear);
      stage.linear = lower_dense(*dense, map);
      pending_linear = &stage.linear;
    } else if (const auto* slaf = dynamic_cast<const Slaf*>(layer.get())) {
      PPHE_CHECK(slaf->features() == map.features(), "SLAF width mismatch");
      push(ModelSpec::Stage::Kind::kActivation).activation = lower_activation(
          map, slaf->degree(), [&](std::size_t k, std::size_t p) {
            return slaf->coeffs().value.at2(k, p);
          });
      pending_linear = nullptr;
    } else if (dynamic_cast<const Square*>(layer.get()) != nullptr) {
      // x^2 on every live slot.
      push(ModelSpec::Stage::Kind::kActivation).activation =
          lower_activation(map, 2, [](std::size_t, std::size_t p) {
            return p == 2 ? 1.0f : 0.0f;
          });
      pending_linear = nullptr;
    }
    // Flatten / Reshape4D keep the slot map.
  }
  return spec;
}

std::vector<float> eval_spec(const ModelSpec& spec, std::vector<float> input) {
  std::vector<float> x = std::move(input);
  for (const auto& stage : spec.stages) {
    if (stage.kind == ModelSpec::Stage::Kind::kLinear) {
      const LinearSpec& lin = stage.linear;
      PPHE_CHECK(x.size() == lin.in_dim, "eval_spec dimension mismatch");
      std::vector<float> y(lin.out_dim, 0.0f);
      for (std::size_t r = 0; r < lin.out_dim; ++r) {
        float acc = lin.bias[r];
        const float* row = lin.weight.data() + r * lin.in_dim;
        for (std::size_t cI = 0; cI < lin.in_dim; ++cI) acc += row[cI] * x[cI];
        y[r] = acc;
      }
      x = std::move(y);
    } else {
      const ActivationSpec& act = stage.activation;
      PPHE_CHECK(x.size() == act.features, "eval_spec activation mismatch");
      for (std::size_t k = 0; k < act.features; ++k) {
        float acc = act.coeff(k, act.degree);
        for (std::size_t d = act.degree; d-- > 0;) {
          acc = acc * x[k] + act.coeff(k, d);
        }
        x[k] = acc;
      }
    }
  }
  return x;
}

}  // namespace pphe
