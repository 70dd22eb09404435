#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

bool all_finite(const qnn::Tensor& t) {
  for (std::int64_t i = 0; i < t.count(); ++i)
    if (!std::isfinite(t.data()[i])) return false;
  return true;
}

std::int64_t off_grid_count(const qnn::Tensor& t, double step, double lo,
                            double hi) {
  std::int64_t bad = 0;
  for (std::int64_t i = 0; i < t.count(); ++i) {
    const double v = t.data()[i];
    const double q = v / step;
    if (q != std::nearbyint(q) || v < lo || v > hi) ++bad;
  }
  return bad;
}

bool rows_match_singles(const qnn::Tensor& batch,
                        const std::vector<qnn::Tensor>& singles) {
  if (batch.shape()[0] != static_cast<std::int64_t>(singles.size()))
    return false;
  const std::int64_t row = batch.count() / batch.shape()[0];
  for (std::size_t i = 0; i < singles.size(); ++i) {
    if (singles[i].count() != row) return false;
    if (std::memcmp(batch.data() + static_cast<std::int64_t>(i) * row,
                    singles[i].data(), sizeof(float) * row) != 0)
      return false;
  }
  return true;
}

bool bytes_equal(const qnn::Tensor& a, const qnn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.count()) == 0;
}

double max_abs_diff(const qnn::Tensor& a, const qnn::Tensor& b) {
  if (a.count() != b.count()) return INFINITY;
  double m = 0.0;
  for (std::int64_t i = 0; i < a.count(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(a.data()[i]) -
                              static_cast<double>(b.data()[i])));
  return m;
}

bool conserved(const ServeCounts& c) {
  return c.offered == c.served + c.rejected + c.expired + c.failed;
}

bool strictly_decreasing(const std::vector<double>& values) {
  for (std::size_t i = 1; i < values.size(); ++i)
    if (!(values[i] < values[i - 1])) return false;
  return true;
}

const std::vector<PublishedSaving>& table4_lenet_savings() {
  // Hashemi et al. 2017, Table IV, LeNet / MNIST "energy saving" column.
  static const std::vector<PublishedSaving> kSavings = {
      {"fixed_32_32", 12.9}, {"fixed_16_16", 59.5}, {"fixed_8_8", 85.4},
      {"fixed_4_4", 92.9},   {"pow2_6_16", 86.1},   {"binary_1_16", 94.1},
  };
  return kSavings;
}

}  // namespace perfbench
