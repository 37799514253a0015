#include "pscd/util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace pscd {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, ReseedResetsStream) {
  Rng a(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next());
  a.reseed(77);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), first[i]);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    ASSERT_GE(v, -3.0);
    ASSERT_LT(v, 7.0);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 9u);
}

TEST(RngTest, UniformIntUnbiased) {
  Rng rng(12);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniformInt(std::uint64_t{7})];
  for (const int c : counts) EXPECT_NEAR(c, n / 7, 400);
}

TEST(RngTest, SignedUniformIntInclusive) {
  Rng rng(13);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniformInt(std::int64_t{-2}, std::int64_t{2});
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    sawLo |= (v == -2);
    sawHi |= (v == 2);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(14);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(16);
  double sum = 0.0, sumSq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sumSq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumSq / n, 1.0, 0.03);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(18);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(2.0);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(19);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent.next() == child.next());
  EXPECT_LT(equal, 5);
}

TEST(RngTest, SplitMix64KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

// Golden values: the statistical tests above would pass for any good
// generator, but traces are reproducible only if these exact streams
// never change, so any rewrite of next(), uniform() or uniformInt()
// must reproduce them, rejected draws included.
TEST(RngTest, GoldenNextAndUniform) {
  Rng rng(2024);
  const std::uint64_t next[] = {0x0e48715a13d7772eull, 0xc837f3ee8a7a1065ull,
                                0x1272314b15ee5001ull, 0x28e323a6abe2a46bull};
  for (const std::uint64_t v : next) EXPECT_EQ(rng.next(), v);
  const double uniform[] = {0x1.8c1be764c2cc1p-1, 0x1.f57f8431e67a8p-3,
                            0x1.93ccc2d5a6b98p-2, 0x1.072ce94cf145ep-2};
  for (const double v : uniform) EXPECT_EQ(rng.uniform(), v);
}

TEST(RngTest, GoldenUniformInt) {
  struct Case {
    std::uint64_t n;
    std::uint64_t draws[6];
    /// next() after the six draws: pins how many words were consumed,
    /// including rejected ones (2^63 + 1 rejects about half its draws).
    std::uint64_t after;
  };
  const Case cases[] = {
      {1, {0, 0, 0, 0, 0, 0}, 0x64f330b569ae67a8ull},
      {3, {0, 2, 0, 0, 2, 0}, 0x64f330b569ae67a8ull},
      {6000, {334, 4692, 432, 958, 4641, 1469}, 0x64f330b569ae67a8ull},
      {(1ull << 32) + 1,
       {239628634ull, 3359110127ull, 309473611ull, 685974438ull,
        3322803123ull, 1051717766ull},
       0x64f330b569ae67a8ull},
      {(1ull << 63) + 1,
       {664589519293982720ull, 1473118889992868405ull, 2258546705306200698ull,
        6644008486317064688ull, 8134989128028724035ull,
        3378749892732358586ull},
       0xc5fe2bd783c51d0full},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.n);
    Rng rng(2024);
    for (const std::uint64_t v : c.draws) EXPECT_EQ(rng.uniformInt(c.n), v);
    EXPECT_EQ(rng.next(), c.after);
  }
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace pscd
