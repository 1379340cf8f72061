// Unit tests for src/common: ids, time, rng, statistics, the JSONL codec.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/jsonl.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/statistics.h"

namespace cfds {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  NodeId id;
  EXPECT_FALSE(id.is_valid());
  EXPECT_EQ(id, NodeId::invalid());
}

TEST(StrongId, OrderingFollowsValue) {
  EXPECT_LT(NodeId{3}, NodeId{7});
  EXPECT_EQ(NodeId{5}, NodeId{5});
  EXPECT_NE(NodeId{5}, NodeId{6});
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<NodeId, ClusterId>);
  static_assert(!std::is_convertible_v<NodeId, ClusterId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<NodeId> set;
  set.insert(NodeId{1});
  set.insert(NodeId{1});
  set.insert(NodeId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(SimTime, UnitConversions) {
  EXPECT_EQ(SimTime::seconds(2).as_micros(), 2'000'000);
  EXPECT_EQ(SimTime::millis(3).as_micros(), 3'000);
  EXPECT_DOUBLE_EQ(SimTime::millis(1500).as_seconds(), 1.5);
}

TEST(SimTime, Arithmetic) {
  const SimTime a = SimTime::millis(100);
  EXPECT_EQ(a + a, SimTime::millis(200));
  EXPECT_EQ(3 * a, SimTime::millis(300));
  EXPECT_EQ(a * 3 - a, SimTime::millis(200));
  EXPECT_LT(a, 2 * a);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    stats.add(u);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BelowIsUnbiased) {
  Rng rng(5);
  std::array<int, 7> counts{};
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) counts[rng.below(7)]++;
  for (int c : counts) EXPECT_NEAR(double(c), trials / 7.0, 600.0);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(double(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.fork();
  // The child stream should not replay the parent's continuation.
  Rng parent2(7);
  (void)parent2();  // advance past the fork draw
  EXPECT_NE(child(), parent2());
}

TEST(RunningStats, KnownMoments) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(ProportionEstimator, EstimateAndConsistency) {
  ProportionEstimator est;
  for (int i = 0; i < 1000; ++i) est.add(i % 4 == 0);
  EXPECT_DOUBLE_EQ(est.estimate(), 0.25);
  EXPECT_TRUE(est.consistent_with(0.25));
  EXPECT_TRUE(est.consistent_with(0.27));
  EXPECT_FALSE(est.consistent_with(0.50));
}

TEST(ProportionEstimator, ZeroSuccessesStillBracketsSmallTruth) {
  ProportionEstimator est;
  for (int i = 0; i < 1000; ++i) est.add(false);
  // Rule-of-three style fallback: 0/1000 is consistent with p ~ 1e-3.
  EXPECT_TRUE(est.consistent_with(1e-3));
  EXPECT_FALSE(est.consistent_with(0.1));
}

TEST(ProportionEstimator, MergeMatchesSequentialCounting) {
  ProportionEstimator whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const bool hit = i % 3 == 0;
    whole.add(hit);
    (i < 200 ? left : right).add(hit);
  }
  left.merge(right);
  EXPECT_EQ(left.trials(), whole.trials());
  EXPECT_EQ(left.successes(), whole.successes());
  EXPECT_DOUBLE_EQ(left.estimate(), whole.estimate());
}

TEST(ProportionEstimator, FromCountsRoundTrips) {
  const auto est = ProportionEstimator::from_counts(25, 100);
  EXPECT_EQ(est.successes(), 25);
  EXPECT_EQ(est.trials(), 100);
  EXPECT_DOUBLE_EQ(est.estimate(), 0.25);
}

TEST(WilsonInterval, BracketsTheEstimateAndStaysInUnitRange) {
  const auto mid = wilson_ci99(250, 1000);
  EXPECT_LT(mid.lo, 0.25);
  EXPECT_GT(mid.hi, 0.25);
  // Near the edges the Wilson interval stays in [0, 1] and keeps nonzero
  // width, unlike the normal approximation.
  const auto zero = wilson_ci99(0, 1000);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);
  EXPECT_LT(zero.hi, 0.02);
  const auto all = wilson_ci99(1000, 1000);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  // No observations: the interval is vacuous, not NaN.
  const auto none = wilson_ci99(0, 0);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

TEST(WilsonInterval, TightensWithSampleSize) {
  const auto small = wilson_ci99(5, 20);
  const auto large = wilson_ci99(5000, 20000);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
}

TEST(Histogram, QuantilesOfUniformFill) {
  Histogram hist(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) hist.add(double(i) + 0.5);
  EXPECT_EQ(hist.total(), 100);
  EXPECT_NEAR(hist.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(hist.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, ClampsOutOfRangeSamples) {
  Histogram hist(0.0, 10.0, 10);
  hist.add(-5.0);
  hist.add(25.0);
  EXPECT_EQ(hist.total(), 2);
  EXPECT_EQ(hist.bins().front(), 1);
  EXPECT_EQ(hist.bins().back(), 1);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  std::uint64_t state2 = 0;
  EXPECT_EQ(first, splitmix64(state2));
  EXPECT_NE(splitmix64(state), first);
}

TEST(Jsonl, U32ListFollowsTheScalarRules) {
  using List = std::vector<std::uint32_t>;
  const auto read = [](const std::string& value, List* out) {
    return jsonl::find_u32_list("{\"k\":" + value + "}", "k", out);
  };
  List out = {7};
  ASSERT_TRUE(read("[]", &out));
  EXPECT_EQ(out, List{});
  ASSERT_TRUE(read("[0,4294967295]", &out));
  EXPECT_EQ(out, (List{0, 4294967295U}));
  for (const char* bad : {"[4294967296]", "[-1]", "[+1]", "[1.5]", "[1e3]",
                          "[1,]", "[,1]", "[1 ,2]", "[1", "1", "[1,,2]",
                          "[1[2]"}) {
    out = {7};
    EXPECT_FALSE(read(bad, &out)) << bad;
    EXPECT_EQ(out, List{7}) << bad;  // untouched on failure
  }
  EXPECT_EQ(jsonl::u32_list({3, 0, 4294967295U}), "[3,0,4294967295]");
  EXPECT_EQ(jsonl::u32_list({}), "[]");
}

TEST(Jsonl, BoolIsAWholeWord) {
  bool out = false;
  EXPECT_TRUE(jsonl::find_bool("{\"k\":true}", "k", &out));
  EXPECT_TRUE(out);
  EXPECT_TRUE(jsonl::find_bool("{\"k\":false,\"j\":1}", "k", &out));
  EXPECT_FALSE(out);
  for (const char* bad : {"{\"k\":truex}", "{\"k\":1}", "{\"k\":fals}",
                          "{\"k\":\"true\"}", "{\"j\":true}"}) {
    out = true;
    EXPECT_FALSE(jsonl::find_bool(bad, "k", &out)) << bad;
    EXPECT_TRUE(out) << bad;
  }
}

TEST(Jsonl, UnsignedScalarsRejectEitherSign) {
  std::uint64_t out = 9;
  EXPECT_FALSE(jsonl::find_u64("{\"k\":+1}", "k", &out));
  EXPECT_FALSE(jsonl::find_u64("{\"k\":-1}", "k", &out));
  EXPECT_EQ(out, 9U);
  EXPECT_TRUE(jsonl::find_u64("{\"k\": 18446744073709551615}", "k", &out));
  EXPECT_EQ(out, 18446744073709551615ULL);
}

TEST(Jsonl, ShortestDoubleReadsBackExactly) {
  for (const double v : {0.1, 1.0 / 3.0, -2.5e-300, 12.5}) {
    const std::string line = "{\"k\":" + jsonl::shortest(v) + "}";
    double back = 0.0;
    ASSERT_TRUE(jsonl::find_number(line, "k", &back)) << line;
    EXPECT_EQ(back, v) << line;
  }
  EXPECT_EQ(jsonl::shortest(1.0 / 3.0), "0.3333333333333333");
}

}  // namespace
}  // namespace cfds
