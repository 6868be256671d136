#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>

#include "core/he_model.hpp"

namespace pphe {
class RnsBackend;
}

namespace pphe::serve {

/// The family of compiled models the batch server evaluates on: ONE
/// ModelSpec compiled at every power-of-two SIMD batch size the backend's
/// slots can hold, lazily and on demand. All members share a single
/// WeightOperandCache, so the weight encodings — the dominant compile
/// cost — are paid once; a batch-8 model reuses the batch-1 model's
/// operands wherever scale/level line up.
///
/// model_for() is thread-safe: workers evaluating on already-compiled
/// members proceed while another thread compiles a new size (compilation
/// takes the set's mutex; backend-level shared state is internally
/// synchronized).
class BatchModelSet {
 public:
  /// `base` is the option template; its `batch` field is overridden per
  /// member and its weight_cache (if null) is replaced by the shared cache.
  /// Builds every member's Galois keys up front, in one pass: each key once,
  /// at the highest level any batch size rotates by it.
  BatchModelSet(RnsBackend& backend, const ModelSpec& spec,
                HeModelOptions base);

  /// Largest power-of-two batch the spec fits on this backend
  /// (HeModel::validate_batch accepts exactly the powers of two in
  /// [1, max_batch()]).
  std::size_t max_batch() const { return max_batch_; }

  /// Model for `n` requests: compiled at the next power of two >= n
  /// (partial batches pad up). Compiles and caches on first use. Throws
  /// Error(kInvalidArgument) when n is 0 or exceeds max_batch().
  const HeModel& model_for(std::size_t n);

  RnsBackend& backend() const { return backend_; }
  const ModelSpec& spec() const { return spec_; }
  /// Input dimension a request's image must have.
  std::size_t input_dim() const;
  const std::shared_ptr<WeightOperandCache>& weight_cache() const {
    return cache_;
  }

 private:
  RnsBackend& backend_;
  ModelSpec spec_;
  HeModelOptions base_;
  std::shared_ptr<WeightOperandCache> cache_;
  std::size_t max_batch_ = 1;
  std::mutex mutex_;
  std::map<std::size_t, std::unique_ptr<HeModel>> models_;  // by batch size
};

}  // namespace pphe::serve
