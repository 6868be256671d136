#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/he_model.hpp"
#include "nn/data.hpp"
#include "nn/serialize.hpp"

namespace perfbench {

using namespace pphe;

namespace {

/// The models every workload runs: trained once, with this seed, by the
/// fast-profile protocol of the table benches (4000 synthetic training
/// images, 6 ReLU epochs, 4 SLAF epochs, degree-3 SLAF).
constexpr std::uint64_t kModelSeed = 1234;
constexpr std::size_t kTrainImages = 4000;
constexpr std::size_t kTestImages = 1500;
constexpr std::size_t kReluEpochs = 6;
constexpr std::size_t kSlafEpochs = 4;
/// Test images the workload seed picks from.
constexpr std::size_t kImagePool = 256;
constexpr std::size_t kImageSize = 784;

Dataset test_set(std::size_t count) {
  return generate_synthetic_mnist(count, kModelSeed ^ 0x7e57);
}

}  // namespace

Model load_model(Arch arch, const std::string& cache_dir) {
  std::filesystem::create_directories(cache_dir);
  const std::string path =
      cache_dir + "/" + arch_name(arch) + "-slaf-s" +
      std::to_string(kModelSeed) + ".weights";
  TrainedModel trained;
  trained.arch = arch;
  trained.activation = Activation::kSlaf;
  trained.network = build_network(arch, Activation::kSlaf, kModelSeed);
  bool loaded = false;
  try {
    loaded = load_weights(*trained.network, path);
  } catch (const Error&) {
    loaded = false;
  }
  if (!loaded) {
    std::fprintf(stderr, "[perfbench] training %s (cached in %s)\n",
                 arch_name(arch).c_str(), path.c_str());
    ProtocolConfig cfg;
    cfg.relu_epochs = kReluEpochs;
    cfg.slaf_epochs = kSlafEpochs;
    cfg.seed = kModelSeed;
    trained = train_protocol(arch, Activation::kSlaf,
                             generate_synthetic_mnist(kTrainImages, kModelSeed),
                             test_set(kTestImages), cfg);
    save_weights(*trained.network, path);
  }
  Model m;
  m.arch = arch;
  m.spec = compile_model(trained);
  m.conv_stages = arch == Arch::kCnn1 ? 1 : 2;
  return m;
}

ImagePicker::ImagePicker(std::uint64_t seed) : rng_(seed) {
  const Dataset test = test_set(kImagePool);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const float* px = test.images.data() + i * kImageSize;
    pool_.emplace_back(px, px + kImageSize);
  }
}

const std::vector<float>& ImagePicker::next() {
  return pool_[std::uniform_int_distribution<std::size_t>(
      0, pool_.size() - 1)(rng_)];
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string Metrics::json() const {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    os << (i ? ", " : "") << "\"" << entries_[i].name << "\": {\"value\": "
       << json_number(entries_[i].value) << ", \"unit\": \""
       << entries_[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

void Checker::check(const std::vector<float>& image,
                    const std::vector<double>& he_logits) {
  // The reference is the image as HeModel encodes it: every pixel clamped
  // to [0, 1] and rounded to one of pixel_levels grey levels.
  const float levels =
      static_cast<float>(HeModelOptions().pixel_levels - 1);
  std::vector<float> encoded(image.size());
  for (std::size_t i = 0; i < image.size(); ++i) {
    encoded[i] = static_cast<float>(std::lround(
                     std::clamp(image[i], 0.0f, 1.0f) * levels)) /
                 levels;
  }
  const std::vector<float> plain = eval_spec(spec_, encoded);
  if (he_logits.size() != plain.size()) {
    fail("logit count " + std::to_string(he_logits.size()) + " != " +
         std::to_string(plain.size()));
    return;
  }
  double err = 0.0;
  for (std::size_t c = 0; c < plain.size(); ++c) {
    err = std::max(err, std::abs(he_logits[c] - static_cast<double>(plain[c])));
    logit_abs_max_ =
        std::max(logit_abs_max_, std::abs(static_cast<double>(plain[c])));
  }
  ++checked_;
  err_max_ = std::max(err_max_, err);
  if (!(err <= kLogitTolerance)) {
    fail("logit error " + std::to_string(err) + " above tolerance");
  }
  const auto he_top = std::max_element(he_logits.begin(), he_logits.end()) -
                      he_logits.begin();
  const auto top = std::max_element(plain.begin(), plain.end()) - plain.begin();
  if (he_top == top) {
    ++matched_;
    return;
  }
  const double gap = static_cast<double>(plain[top] - plain[he_top]);
  if (gap > 2.0 * err) {
    fail("argmax " + std::to_string(he_top) + " != plaintext " +
         std::to_string(top) + " with top-2 gap " + std::to_string(gap));
  }
}

void Checker::fail(const std::string& why) {
  problems_.push_back(why);
  std::fprintf(stderr, "[perfbench] incorrect reply: %s\n", why.c_str());
}

double Checker::match_rate() const {
  return checked_ == 0 ? 0.0
                       : static_cast<double>(matched_) /
                             static_cast<double>(checked_);
}

Counters Counters::read(const HeBackend& backend) {
  Counters c;
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    c.ops[k] = static_cast<double>(backend.op_count(static_cast<OpKind>(k)));
  }
  c.pool_misses = static_cast<double>(backend.mem_stats().pool_misses);
  c.pool_tasks = static_cast<double>(ThreadPool::global().tasks_enqueued());
  return c;
}

Counters Counters::operator-(const Counters& o) const {
  Counters c;
  for (std::size_t k = 0; k < kOpKindCount; ++k) c.ops[k] = ops[k] - o.ops[k];
  c.pool_misses = pool_misses - o.pool_misses;
  c.pool_tasks = pool_tasks - o.pool_tasks;
  return c;
}

Counters Counters::operator/(double d) const {
  Counters c;
  for (std::size_t k = 0; k < kOpKindCount; ++k) c.ops[k] = ops[k] / d;
  c.pool_misses = pool_misses / d;
  c.pool_tasks = pool_tasks / d;
  return c;
}

bool Counters::operator==(const Counters& o) const { return ops == o.ops; }

void add_count_metrics(Metrics& m, const Counters& c) {
  m.set("ckks.ksw_inner", c.op(OpKind::kKswInner), "count");
  m.set("ckks.mod_down", c.op(OpKind::kModDown), "count");
  m.set("ckks.rotations",
        c.op(OpKind::kRotate) + c.op(OpKind::kRotateHoisted), "count");
  m.set("ckks.relin", c.op(OpKind::kRelinearize), "count");
  m.set("ckks.ct_mults",
        c.op(OpKind::kMultiply) + c.op(OpKind::kMultiplyAcc), "count");
  m.set("ckks.pt_mults",
        c.op(OpKind::kMultiplyPlain) + c.op(OpKind::kMultiplyPlainAcc),
        "count");
  m.set("ckks.rescales", c.op(OpKind::kRescale), "count");
  m.set("ckks.pool_misses", c.pool_misses, "count");
  m.set("math.ntt_fwd", c.op(OpKind::kNttForward), "count");
  m.set("math.ntt_inv", c.op(OpKind::kNttInverse), "count");
  m.set("common.pool_tasks", c.pool_tasks, "count");
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perfbench
