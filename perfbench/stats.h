// Statistics the serving benchmark reports: order-statistic percentiles that
// refuse to extrapolate past their sample, the goodput search over fixed
// arrival rates, SLO attainment with failures counted as misses, and the
// stratified draws that make a workload's inputs steady across seeds.
// Header-only so serve_bench and stats_test share one definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

// Nearest-rank percentile of `samples` at fraction p in (0, 1): the
// ceil(p*n)-th smallest value. `beyond` counts the samples ranked above it,
// so a tail percentile is only as trustworthy as that count.
struct Percentile {
  double value = 0;
  int64_t n = 0;
  int64_t beyond = 0;
};

// Samples that must lie beyond a reported percentile.
inline constexpr int64_t kMinBeyond = 10;

inline Percentile ComputePercentile(std::vector<double> samples, double p) {
  if (!(p > 0 && p < 1)) throw std::invalid_argument("percentile out of (0,1)");
  Percentile r;
  r.n = static_cast<int64_t>(samples.size());
  if (r.n == 0) return r;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(r.n)));
  const int64_t idx = std::clamp<int64_t>(rank, 1, r.n) - 1;
  r.value = samples[static_cast<size_t>(idx)];
  r.beyond = r.n - (idx + 1);
  return r;
}

inline bool Supported(const Percentile& p) { return p.beyond >= kMinBeyond; }

// The percentile, or an exception naming the metric and its sample count
// when fewer than kMinBeyond samples lie beyond it.
inline Percentile RequirePercentile(const std::vector<double>& samples,
                                    double p, const std::string& name) {
  Percentile r = ComputePercentile(samples, p);
  if (!Supported(r)) {
    throw std::runtime_error(name + ": only " + std::to_string(r.beyond) +
                             " of " + std::to_string(r.n) +
                             " samples lie beyond p" +
                             std::to_string(static_cast<int>(p * 100)) +
                             " (need " + std::to_string(kMinBeyond) + ")");
  }
  return r;
}

// One attempted request as the SLO check sees it.
struct Outcome {
  bool completed = false;
  double ttft = 0;  // seconds
  double tpot = 0;  // mean seconds per output token after the first
};

// Share of `attempted` requests that completed within both limits. A
// request that failed, was refused, or is missing from `outcomes` counts as
// a miss.
inline double SloFraction(const std::vector<Outcome>& outcomes,
                          int64_t attempted, double ttft_limit,
                          double tpot_limit) {
  if (attempted <= 0) return 0;
  int64_t met = 0;
  for (const Outcome& o : outcomes)
    met += o.completed && o.ttft <= ttft_limit && o.tpot <= tpot_limit;
  return static_cast<double>(met) / static_cast<double>(attempted);
}

// Highest rate in `rates` (any order) whose SLO fraction, as returned by
// `slo_frac_at`, reaches `target`; 0 when none does. Every rate is
// evaluated, so a non-monotone curve cannot hide a passing higher rate.
inline double GoodputRate(const std::vector<double>& rates, double target,
                          const std::function<double(double)>& slo_frac_at) {
  double best = 0;
  for (double r : rates)
    if (slo_frac_at(r) >= target) best = std::max(best, r);
  return best;
}

// Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>& v, tsi::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.NextBelow(i)]);
}

// `n` values evenly covering [lo, hi] (bucket midpoints, rounded), in an
// order shuffled by `rng`: the seed changes which request gets which
// length, never the length mix itself.
inline std::vector<int64_t> StratifiedLengths(int64_t n, int64_t lo, int64_t hi,
                                              tsi::Rng& rng) {
  std::vector<int64_t> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    out[static_cast<size_t>(i)] =
        lo + static_cast<int64_t>(std::floor(u * static_cast<double>(hi - lo + 1)));
  }
  Shuffle(out, rng);
  return out;
}

// Open-loop Poisson-shaped arrivals at `rate` per second: the n
// inter-arrival gaps are the exponential distribution's quantiles at evenly
// spaced probabilities, shuffled by `rng`. Returns cumulative arrival times
// starting at 0.
inline std::vector<double> StratifiedArrivals(int64_t n, double rate,
                                              tsi::Rng& rng) {
  std::vector<double> gaps(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    gaps[static_cast<size_t>(i)] = -std::log1p(-u) / rate;
  }
  Shuffle(gaps, rng);
  std::vector<double> arrivals(static_cast<size_t>(n));
  double t = 0;
  for (int64_t i = 0; i < n; ++i) {
    arrivals[static_cast<size_t>(i)] = t;
    t += gaps[static_cast<size_t>(i)];
  }
  return arrivals;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
