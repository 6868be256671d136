#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/models.hpp"

namespace perfbench {

/// Per-layer time split read from the program's trace spans. Times are span
/// seconds summed over every drained event (all threads):
///  * conv/slaf/dense: duration of the `layer` spans HeModel::eval emits, by
///    the kind of stage they cover (layer spans never nest, so a layer's
///    duration is its own share of the eval);
///  * key_switch/linear_bsgs/rotate_batch (`kernel` spans) and ntt (`he`
///    spans ntt_forward + ntt_inverse): self time, i.e. the span's duration
///    minus the part covered by its child spans on the same thread.
struct SplitTotals {
  double conv_s = 0.0;
  double slaf_s = 0.0;
  double dense_s = 0.0;
  double key_switch_s = 0.0;
  double linear_bsgs_s = 0.0;
  double rotate_batch_s = 0.0;
  double ntt_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};

/// Drains the process trace (trace::snapshot + trace::clear) and folds each
/// batch of events into running totals, so no per-thread ring ever fills.
class TraceCollector {
 public:
  /// `conv_stages`: how many leading linear stages of `spec` are lowered
  /// convolutions (the rest are dense layers).
  TraceCollector(const pphe::ModelSpec& spec, std::size_t conv_stages);

  /// Moves every recorded event into the totals and clears the trace. Call
  /// only while no span of interest is being recorded.
  void drain();

  const SplitTotals& totals() const { return totals_; }

 private:
  enum class StageKind { kConv, kSlaf, kDense };
  std::vector<StageKind> stage_kinds_;
  SplitTotals totals_;
};

}  // namespace perfbench
