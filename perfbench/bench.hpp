#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ckks/backend.hpp"
#include "core/models.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir;
};

/// A trained model loaded for a workload. Models are trained once with a
/// fixed seed and cached on disk; the workload seed never retrains them.
struct Model {
  pphe::Arch arch = pphe::Arch::kCnn1;
  pphe::ModelSpec spec;
  std::size_t conv_stages = 0;
};

/// Loads the model from `cache_dir`, training and caching it on first use.
Model load_model(pphe::Arch arch, const std::string& cache_dir);

/// Test images, and the seeded picks among them.
class ImagePicker {
 public:
  explicit ImagePicker(std::uint64_t seed);
  const std::vector<float>& next();

 private:
  std::vector<std::vector<float>> pool_;
  std::mt19937_64 rng_;
};

/// Ordered metric list, printed as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Checks HE logits against the plaintext ModelSpec evaluation.
class Checker {
 public:
  /// Largest |HE logit - plaintext logit| accepted as correct: a
  /// gross-failure bound, not a precision target. CNN1's logits reach ~300;
  /// its HE error reaches ~1% of an image's largest logit on cnn1-enc
  /// (2.15 the most seen), while a lost scale bit or a wrong rotation moves
  /// a logit by its own magnitude.
  static constexpr double kLogitTolerance = 5.0;

  explicit Checker(const pphe::ModelSpec& spec) : spec_(spec) {}
  /// Checks one answered image. A differing argmax is only accepted when the
  /// plaintext top-2 gap is within twice the image's own logit error.
  void check(const std::vector<float>& image,
             const std::vector<double>& he_logits);
  void fail(const std::string& why);

  std::size_t checked() const { return checked_; }
  double match_rate() const;
  double err_max() const { return err_max_; }
  /// Largest |plaintext logit| seen: the scale err_max is read against.
  double logit_abs_max() const { return logit_abs_max_; }
  bool ok() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  const pphe::ModelSpec& spec_;
  std::size_t checked_ = 0, matched_ = 0;
  double err_max_ = 0.0, logit_abs_max_ = 0.0;
  std::vector<std::string> problems_;
};

/// Snapshot of the program's public counters: the backend's per-OpKind op
/// counts, its arena stats, and the global pool's task counter.
struct Counters {
  std::array<double, pphe::kOpKindCount> ops{};
  double pool_misses = 0.0;
  double pool_tasks = 0.0;

  static Counters read(const pphe::HeBackend& backend);
  Counters operator-(const Counters& o) const;
  Counters operator/(double d) const;
  /// Compares the op counts only: the arena and pool counters may differ
  /// between requests without the work differing.
  bool operator==(const Counters& o) const;
  double op(pphe::OpKind kind) const {
    return ops[static_cast<std::size_t>(kind)];
  }
};

/// Process CPU seconds (user + system).
double cpu_seconds();
/// Peak resident set size of the process, in MB.
double peak_rss_mb();

/// A finite double as a JSON number with all its digits (0 otherwise).
std::string json_number(double v);

/// q-quantile with linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Everything one run produces; main prints it.
struct RunResult {
  Metrics end_to_end;
  Metrics per_layer;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  /// Extra host/run context, printed as JSON members (already encoded).
  std::vector<std::pair<std::string, std::string>> context;
};

/// Per-layer metrics every workload reports from a counter delta taken over
/// `images` images (ckks.*, math.*, common.pool_tasks).
void add_count_metrics(Metrics& m, const Counters& per_image);

RunResult run_enc(pphe::Arch arch, const Args& args);
RunResult run_serve(const Args& args);

}  // namespace perfbench
