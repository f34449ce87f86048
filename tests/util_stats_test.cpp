#include "src/util/stats.hpp"

#include <gtest/gtest.h>

namespace mhhea::util {
namespace {

TEST(RunningStats, HandComputedMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, DegenerateCases) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Quartiles, InterpolatesOrderStatistics) {
  // Unsorted input; positions (n - 1) * q = 1.75, 3.5 and 5.25.
  const Quartiles q = quartiles({9.0, 2.0, 5.0, 4.0, 7.0, 4.0, 5.0, 4.0});
  EXPECT_DOUBLE_EQ(q.q25, 4.0);
  EXPECT_DOUBLE_EQ(q.median, 4.5);
  EXPECT_DOUBLE_EQ(q.q75, 5.5);
  const Quartiles one = quartiles({3.0});
  EXPECT_DOUBLE_EQ(one.q25, 3.0);
  EXPECT_DOUBLE_EQ(one.q75, 3.0);
  EXPECT_DOUBLE_EQ(quartiles({}).median, 0.0);
}

}  // namespace
}  // namespace mhhea::util
