#include "serve/model_set.hpp"

#include <string>
#include <vector>

#include "ckks/rns_backend.hpp"
#include "common/check.hpp"

namespace pphe::serve {

namespace {
std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

BatchModelSet::BatchModelSet(RnsBackend& backend, const ModelSpec& spec,
                             HeModelOptions base)
    : backend_(backend), spec_(spec), base_(std::move(base)) {
  cache_ = base_.weight_cache ? base_.weight_cache
                              : std::make_shared<WeightOperandCache>();
  base_.weight_cache = cache_;
  // Probe upward through the powers of two the validator accepts; the spec
  // and slot count bound this, not a config guess.
  while (max_batch_ * 2 <= backend_.slot_count()) {
    try {
      HeModel::validate_batch(backend_, spec_, max_batch_ * 2);
    } catch (const Error&) {
      break;
    }
    max_batch_ *= 2;
  }
  // Batch sizes rotate by different steps at different levels, and a key
  // ensured for one size at a low level would be rebuilt for the next size
  // at a higher one. Plan every size's keys first and ensure their union
  // once; each member's compile then finds its keys built.
  std::vector<GaloisKeyRequest> keys;
  for (std::size_t batch = 1; batch <= max_batch_; batch *= 2) {
    HeModelOptions options = base_;
    options.batch = batch;
    const auto planned = HeModel::plan_galois_keys(backend_, spec_, options);
    keys.insert(keys.end(), planned.begin(), planned.end());
  }
  backend_.ensure_galois_keys(keys);
}

std::size_t BatchModelSet::input_dim() const {
  PPHE_CHECK(!spec_.stages.empty() &&
                 spec_.stages.front().kind == ModelSpec::Stage::Kind::kLinear,
             "BatchModelSet: spec must start with a linear stage");
  return spec_.stages.front().linear.in_dim;
}

const HeModel& BatchModelSet::model_for(std::size_t n) {
  PPHE_CHECK_CODE(n >= 1 && n <= max_batch_, ErrorCode::kInvalidArgument,
                  "batch of " + std::to_string(n) +
                      " images outside [1, " + std::to_string(max_batch_) +
                      "] for this model on " + backend_.name());
  const std::size_t batch = next_pow2(n);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = models_.find(batch);
  if (it == models_.end()) {
    HeModelOptions options = base_;
    options.batch = batch;
    it = models_
             .emplace(batch,
                      std::make_unique<HeModel>(backend_, spec_, options))
             .first;
  }
  return *it->second;
}

}  // namespace pphe::serve
