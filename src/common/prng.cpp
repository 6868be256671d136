#include "common/prng.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace pphe {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Prng::Prng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Prng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Prng::uniform_below(std::uint64_t bound) {
  if (bound <= 1) return 0;
  // Reject the final partial interval so every residue is equally likely.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

void Prng::uniform_fill(std::span<std::uint64_t> out, std::uint64_t bound) {
  if (bound <= 1) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  // uniform_below's rejection rule, with the division hoisted out.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  for (auto& v : out) {
    std::uint64_t r = next_u64();
    while (r < threshold) r = next_u64();
    v = r % bound;
  }
}

double Prng::uniform_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Prng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform_double();
  } while (u1 <= 0.0);
  const double u2 = uniform_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

Prng Prng::fork(std::uint64_t stream_id) const {
  // Hash the current state together with the stream id so forks of the same
  // parent differ and forks of different parents differ.
  std::uint64_t h = 0x2545f4914f6cdd1dull ^ stream_id;
  for (const auto w : state_) h = splitmix64(h) ^ w;
  return Prng(splitmix64(h));
}

}  // namespace pphe
