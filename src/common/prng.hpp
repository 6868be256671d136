#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace pphe {

/// Deterministic pseudo-random generator (xoshiro256**). Deterministic given a
/// seed, so every experiment in the repository is reproducible bit-for-bit.
///
/// This is NOT a cryptographically secure generator; it stands in for the
/// CSPRNG a production deployment would use for key material. The sampling
/// *distributions* built on top of it (ternary, HWT(h), discrete Gaussian)
/// are exactly those of the CKKS specification (see ckks/ and math/sampling).
class Prng {
 public:
  /// Seeds the four 64-bit state words from `seed` via splitmix64, which
  /// guarantees a non-zero, well-mixed state for any seed value.
  explicit Prng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (rejection sampling).
  std::uint64_t uniform_below(std::uint64_t bound);

  /// Fills `out` with uniform_below(bound) draws — the same stream as
  /// out.size() calls, with the rejection threshold computed once.
  void uniform_fill(std::span<std::uint64_t> out, std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform_double();

  /// Standard normal variate (Box–Muller; caches the second deviate).
  double normal();

  /// Forks an independently-seeded child stream; children with different
  /// `stream_id`s are decorrelated, which lets parallel workers draw
  /// randomness without sharing state.
  Prng fork(std::uint64_t stream_id) const;

  // UniformRandomBitGenerator interface, so <random> adaptors also work.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next_u64(); }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pphe
