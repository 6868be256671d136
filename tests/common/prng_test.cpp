#include "common/prng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace pphe {
namespace {

TEST(Prng, DeterministicForSameSeed) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, ZeroSeedWorks) {
  Prng p(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(p.next_u64());
  EXPECT_GT(seen.size(), 30u);  // not stuck in a fixed point
}

TEST(Prng, UniformBelowRespectsBound) {
  Prng p(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(p.uniform_below(bound), bound);
    }
  }
}

TEST(Prng, UniformBelowOneIsZero) {
  Prng p(7);
  EXPECT_EQ(p.uniform_below(1), 0u);
  EXPECT_EQ(p.uniform_below(0), 0u);
}

TEST(Prng, UniformBelowIsRoughlyUniform) {
  Prng p(123);
  constexpr std::uint64_t kBound = 10;
  std::array<int, kBound> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[p.uniform_below(kBound)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / static_cast<int>(kBound), 600);
  }
}

TEST(Prng, UniformFillMatchesRepeatedUniformBelow) {
  // 2^63 + 1 rejects almost half of all draws, so the stream only matches
  // if uniform_fill applies the same rejection rule draw for draw.
  for (const std::uint64_t bound :
       {0ull, 1ull, 10ull, (1ull << 60) - 93, (1ull << 63) + 1}) {
    Prng a(31), b(31);
    std::vector<std::uint64_t> filled(4096);
    a.uniform_fill(filled, bound);
    for (std::size_t i = 0; i < filled.size(); ++i) {
      ASSERT_EQ(filled[i], b.uniform_below(bound))
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "bound " << bound;
  }
}

TEST(Prng, UniformDoubleInUnitInterval) {
  Prng p(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = p.uniform_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, NormalHasUnitVariance) {
  Prng p(11);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = p.normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / kDraws;
  const double var = sum2 / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Prng, ForkedStreamsAreDecorrelated) {
  Prng parent(99);
  Prng a = parent.fork(0);
  Prng b = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Prng, ForkIsDeterministic) {
  Prng p1(4), p2(4);
  Prng f1 = p1.fork(9);
  Prng f2 = p2.fork(9);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(f1.next_u64(), f2.next_u64());
}

}  // namespace
}  // namespace pphe
