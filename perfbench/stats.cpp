#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::size_t samples_beyond(std::size_t n, double q) {
  // The nearest-rank view: ceil(q * n) samples are at or below the
  // q-quantile (the epsilon absorbs rounding in q * n).
  const auto at_or_below = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, at_or_below);
}

std::optional<double> tail_quantile(const std::vector<double>& values, double q,
                                    std::size_t min_tail) {
  if (samples_beyond(values.size(), q) < min_tail) return std::nullopt;
  return quantile(values, q);
}

TailReport reported_tail(const std::vector<double>& values, double wanted_q,
                         std::size_t min_tail) {
  if (const auto v = tail_quantile(values, wanted_q, min_tail)) return {*v, wanted_q};
  return {quantile(values, 1.0), 1.0};
}

}  // namespace perfbench
