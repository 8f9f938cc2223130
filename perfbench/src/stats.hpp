#pragma once

// Small statistics helpers shared by every workload: percentiles that carry
// their sample count, ratios that carry their base, and timed-phase deltas
// of the runtime's metrics snapshots.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

/// One percentile read off a sample set. `q` is the percentile actually
/// reported, which can be lower than the one asked for (see tail()).
struct Percentile {
  double q = 0.0;
  double value = 0.0;
  uint64_t n = 0;
  std::string label() const;  ///< e.g. "p99 of 1234" or "p95 of 480"
};

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr uint64_t kTailSamples = 10;

/// Nearest-rank percentile of `samples` (unsorted is fine; copied).
Percentile percentile(std::vector<double> samples, double q);

/// The highest percentile no higher than `q_max` that leaves at least
/// kTailSamples samples beyond it, from the ladder p99.9, p99, p95, p90,
/// p75, p50. With fewer than 2 * kTailSamples samples it falls back to
/// p50.
double tail_quantile(uint64_t n, double q_max);
Percentile tail(std::vector<double> samples, double q_max = 0.99);

/// A ratio with its base: printed as "value (num/den)", value 0 when the
/// base is empty.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den > 0.0 ? num / den : 0.0; }
  std::string base() const;
};

/// Per-point or per-launch normalisation of a counter delta.
inline Ratio per(double delta, double base) { return Ratio{delta, base}; }

/// Label filter: every listed (key, value) must be present on a series.
using LabelFilter = std::vector<std::pair<std::string, std::string>>;

/// after - before of the summed counter (gauge, histogram count) values of
/// family `name` over the series that match `filter`; 0 when absent.
double delta(const idxl::obs::MetricsSnapshot& before,
             const idxl::obs::MetricsSnapshot& after, std::string_view name,
             const LabelFilter& filter = {});

/// Power-of-two histogram increments between two snapshots, merged over the
/// series that match `filter`. counts[i] is the number of observations in
/// bucket i (bucket upper edge obs::Histogram::bucket_bound(i)).
struct HistDelta {
  std::vector<uint64_t> counts;
  uint64_t n = 0;
  uint64_t sum = 0;
  /// Upper bucket edge at percentile `q` (nearest rank); the reported
  /// quantile follows the same tail rule as tail() when `tail_rule` is set.
  Percentile at(double q, bool tail_rule = false) const;
};
HistDelta hist_delta(const idxl::obs::MetricsSnapshot& before,
                     const idxl::obs::MetricsSnapshot& after, std::string_view name,
                     const LabelFilter& filter = {});

/// Median of a small sample set (0 when empty).
double median(std::vector<double> v);

}  // namespace perfbench
