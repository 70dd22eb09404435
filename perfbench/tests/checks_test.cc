// Each benchmark check fires on a deliberately broken output.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "checks.h"

namespace perfbench {
namespace {

using qnn::Shape;
using qnn::Tensor;

TEST(Checks, OffGridValueIsCounted) {
  Tensor t(Shape{2, 3}, {0.25f, -0.5f, 1.0f, 0.0f, 1.75f, -2.0f});
  EXPECT_EQ(off_grid_count(t, 0.25, -2.0, 1.75), 0);
  t[1] = -0.5f + 0.125f;  // half a step off the 0.25 grid
  EXPECT_EQ(off_grid_count(t, 0.25, -2.0, 1.75), 1);
  t[1] = 2.0f;  // on the grid but above the range
  EXPECT_EQ(off_grid_count(t, 0.25, -2.0, 1.75), 1);
}

TEST(Checks, SwappedBatchRowsAreCaught) {
  const Tensor batch(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  const std::vector<Tensor> singles = {Tensor(Shape{1, 2}, {1.0f, 2.0f}),
                                       Tensor(Shape{1, 2}, {3.0f, 4.0f})};
  EXPECT_TRUE(rows_match_singles(batch, singles));
  const Tensor swapped(Shape{2, 2}, {3.0f, 4.0f, 1.0f, 2.0f});
  EXPECT_FALSE(rows_match_singles(swapped, singles));
}

TEST(Checks, NonConservedServeCountsAreCaught) {
  ServeCounts c;
  c.offered = 100;
  c.served = 90;
  c.rejected = 4;
  c.expired = 3;
  c.failed = 3;
  EXPECT_TRUE(conserved(c));
  ++c.served;
  EXPECT_FALSE(conserved(c));
}

TEST(Checks, ReorderedEnergyTableIsCaught) {
  EXPECT_TRUE(strictly_decreasing({71.9, 58.9, 27.4, 13.3, 12.8, 6.7, 4.9}));
  EXPECT_FALSE(strictly_decreasing({71.9, 58.9, 13.3, 27.4, 12.8, 6.7, 4.9}));
  EXPECT_FALSE(strictly_decreasing({71.9, 71.9}));
}

TEST(Checks, NonFiniteAndByteDifferencesAreCaught) {
  Tensor a(Shape{1, 2}, {1.0f, 2.0f});
  Tensor b = a;
  EXPECT_TRUE(all_finite(a));
  EXPECT_TRUE(bytes_equal(a, b));
  b[1] = 2.0000002f;
  EXPECT_FALSE(bytes_equal(a, b));
  EXPECT_GT(max_abs_diff(a, b), 0.0);
  b[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(all_finite(b));
}

}  // namespace
}  // namespace perfbench
