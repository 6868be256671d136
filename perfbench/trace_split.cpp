#include "trace_split.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/trace.hpp"

namespace perfbench {

using pphe::trace::Event;

TraceCollector::TraceCollector(const pphe::ModelSpec& spec,
                               std::size_t conv_stages) {
  std::size_t linear_seen = 0;
  for (const auto& stage : spec.stages) {
    if (stage.kind == pphe::ModelSpec::Stage::Kind::kActivation) {
      stage_kinds_.push_back(StageKind::kSlaf);
    } else {
      stage_kinds_.push_back(linear_seen++ < conv_stages ? StageKind::kConv
                                                         : StageKind::kDense);
    }
  }
}

namespace {

double seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Self time of every event: its duration minus the durations of its direct
/// children, which are the events of the same thread one level deeper that
/// start inside it.
std::vector<std::uint64_t> self_times(const std::vector<Event>& events) {
  std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_thread[events[i].tid].push_back(i);
  }
  std::vector<std::uint64_t> self(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) self[i] = events[i].dur_ns;
  for (auto& [tid, idx] : by_thread) {
    // Parents before children: earlier start first, and on a tie the
    // shallower (enclosing) span first.
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      if (events[a].start_ns != events[b].start_ns) {
        return events[a].start_ns < events[b].start_ns;
      }
      return events[a].depth < events[b].depth;
    });
    std::vector<std::size_t> open;
    for (const std::size_t i : idx) {
      const Event& ev = events[i];
      while (!open.empty()) {
        const Event& top = events[open.back()];
        if (top.depth < ev.depth && ev.start_ns < top.start_ns + top.dur_ns) {
          break;
        }
        open.pop_back();
      }
      if (!open.empty() && events[open.back()].depth + 1 == ev.depth) {
        std::uint64_t& parent = self[open.back()];
        parent -= std::min(parent, ev.dur_ns);
      }
      open.push_back(i);
    }
  }
  return self;
}

}  // namespace

void TraceCollector::drain() {
  const std::vector<Event> events = pphe::trace::snapshot();
  totals_.dropped += pphe::trace::dropped_count();
  pphe::trace::clear();
  totals_.events += events.size();

  const std::vector<std::uint64_t> self = self_times(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    if (std::strcmp(ev.cat, "layer") == 0 &&
        std::strncmp(ev.name, "layer", 5) == 0) {
      // Names are "layer<stage>:<label>".
      const std::size_t stage = std::strtoul(ev.name + 5, nullptr, 10);
      if (stage >= stage_kinds_.size()) continue;
      const double d = seconds(ev.dur_ns);
      switch (stage_kinds_[stage]) {
        case StageKind::kConv: totals_.conv_s += d; break;
        case StageKind::kSlaf: totals_.slaf_s += d; break;
        case StageKind::kDense: totals_.dense_s += d; break;
      }
    } else if (std::strcmp(ev.cat, "kernel") == 0) {
      const double s = seconds(self[i]);
      if (std::strcmp(ev.name, "key_switch") == 0) totals_.key_switch_s += s;
      if (std::strcmp(ev.name, "linear_bsgs") == 0) totals_.linear_bsgs_s += s;
      if (std::strcmp(ev.name, "rotate_batch") == 0) {
        totals_.rotate_batch_s += s;
      }
    } else if (std::strcmp(ev.cat, "he") == 0 &&
               (std::strcmp(ev.name, "ntt_forward") == 0 ||
                std::strcmp(ev.name, "ntt_inverse") == 0)) {
      totals_.ntt_s += seconds(self[i]);
    }
  }
}

}  // namespace perfbench
