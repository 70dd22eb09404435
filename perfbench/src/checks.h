// Correctness predicates of the benchmark, computed from properties the
// method must have, never from a saved copy of an earlier output. Kept
// free of workload state so the benchmark's own tests can show that
// each one fires.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

bool all_finite(const qnn::Tensor& t);

// Values that are not an integer multiple of `step` or lie outside
// [lo, hi] — a fixed-point output must have none.
std::int64_t off_grid_count(const qnn::Tensor& t, double step, double lo,
                            double hi);

// True when row i of `batch` equals `singles[i]` (a (1, ...) tensor)
// byte for byte, for every row.
bool rows_match_singles(const qnn::Tensor& batch,
                        const std::vector<qnn::Tensor>& singles);

bool bytes_equal(const qnn::Tensor& a, const qnn::Tensor& b);

// Largest |a - b| over all elements (a and b of equal size).
double max_abs_diff(const qnn::Tensor& a, const qnn::Tensor& b);

// Serving conservation: every offered request left exactly once.
struct ServeCounts {
  std::int64_t offered = 0;
  std::int64_t served = 0;
  std::int64_t rejected = 0;
  std::int64_t expired = 0;
  std::int64_t failed = 0;
};
bool conserved(const ServeCounts& c);

// True when `values` strictly decreases in the order given.
bool strictly_decreasing(const std::vector<double>& values);

// The paper's Table IV (LeNet on MNIST): published energy savings in
// percent against float, for fixed (32,32), (16,16), (8,8), (4,4),
// pow2 (6,16) and binary (1,16), keyed by PrecisionConfig::id().
struct PublishedSaving {
  const char* id;
  double percent;
};
const std::vector<PublishedSaving>& table4_lenet_savings();

}  // namespace perfbench
