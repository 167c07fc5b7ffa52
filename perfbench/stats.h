#ifndef T2M_PERFBENCH_STATS_H
#define T2M_PERFBENCH_STATS_H

// Order statistics for the benchmark's reported timings.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile of `values` at q in [0, 1] (the rank
/// q * (n - 1) between the two neighbouring order statistics); 0 for no
/// values.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Samples beyond the q-quantile: n - ceil(q * n), so p90 of 100 samples
/// has 10 beyond it and p90 of 99 has 9.
std::size_t samples_beyond(std::size_t n, double q);

/// The q-quantile, or nothing when fewer than `min_tail` samples lie
/// beyond it: a tail percentile read off fewer samples is noise.
std::optional<double> tail_quantile(const std::vector<double>& values, double q,
                                    std::size_t min_tail = 10);

/// The tail figure a workload reports as its p90: the 0.9-quantile over
/// cases when at least ten cases lie beyond it, else the largest value. A
/// small, fixed case set has no stable p90, but its slowest case does.
struct TailReport {
  double value = 0.0;
  double q = 1.0;  ///< the quantile actually reported (1 = the maximum)
};
TailReport reported_tail(const std::vector<double>& values, double wanted_q = 0.9,
                         std::size_t min_tail = 10);

}  // namespace perfbench

#endif  // T2M_PERFBENCH_STATS_H
