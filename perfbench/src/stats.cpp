#include "stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

bool matches(const idxl::obs::Labels& labels, const LabelFilter& filter) {
  for (const auto& [k, v] : filter) {
    const auto it = std::find_if(labels.begin(), labels.end(),
                                 [&](const auto& kv) { return kv.first == k; });
    if (it == labels.end() || it->second != v) return false;
  }
  return true;
}

/// 0-based nearest-rank index of percentile q in n sorted samples.
uint64_t rank_index(uint64_t n, double q) {
  const auto r = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  return r == 0 ? 0 : std::min(r, n) - 1;
}

/// Sum of the values of family `name` over the series that match `filter`.
double sum_series(const idxl::obs::MetricsSnapshot& snap, std::string_view name,
                  const LabelFilter& filter) {
  const idxl::obs::FamilySnapshot* fam = snap.family(name);
  if (fam == nullptr) return 0.0;
  double total = 0.0;
  for (const idxl::obs::SeriesSnapshot& s : fam->series) {
    if (!matches(s.labels, filter)) continue;
    switch (fam->kind) {
      case idxl::obs::MetricKind::kCounter:
        total += static_cast<double>(s.counter);
        break;
      case idxl::obs::MetricKind::kGauge:
        total += static_cast<double>(s.gauge);
        break;
      case idxl::obs::MetricKind::kHistogram:
        total += static_cast<double>(s.count);
        break;
    }
  }
  return total;
}

}  // namespace

std::string Percentile::label() const {
  char buf[64];
  const double pct = q * 100.0;
  if (std::abs(pct - std::round(pct)) < 1e-9)
    std::snprintf(buf, sizeof(buf), "p%.0f of %llu", pct,
                  static_cast<unsigned long long>(n));
  else
    std::snprintf(buf, sizeof(buf), "p%.1f of %llu", pct,
                  static_cast<unsigned long long>(n));
  return buf;
}

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.n = samples.size();
  if (samples.empty()) return p;
  const uint64_t i = rank_index(p.n, q);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(i),
                   samples.end());
  p.value = samples[i];
  return p;
}

double tail_quantile(uint64_t n, double q_max) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (q > q_max + 1e-12) continue;
    if (n - std::min(n, rank_index(n, q) + 1) >= kTailSamples) return q;
  }
  return 0.5;
}

Percentile tail(std::vector<double> samples, double q_max) {
  const double q = tail_quantile(samples.size(), q_max);
  return percentile(std::move(samples), q);
}

std::string Ratio::base() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.6g/%.6g", num, den);
  return buf;
}

double delta(const idxl::obs::MetricsSnapshot& before,
             const idxl::obs::MetricsSnapshot& after, std::string_view name,
             const LabelFilter& filter) {
  return sum_series(after, name, filter) - sum_series(before, name, filter);
}

namespace {

/// Non-cumulative bucket counts of family `name`, merged over matching
/// series, plus merged count and sum.
HistDelta merged(const idxl::obs::MetricsSnapshot& snap, std::string_view name,
                 const LabelFilter& filter) {
  HistDelta h;
  h.counts.assign(idxl::obs::kHistogramBuckets, 0);
  const idxl::obs::FamilySnapshot* fam = snap.family(name);
  if (fam == nullptr || fam->kind != idxl::obs::MetricKind::kHistogram) return h;
  for (const idxl::obs::SeriesSnapshot& s : fam->series) {
    if (!matches(s.labels, filter)) continue;
    // Snapshots list only non-empty buckets, as (upper edge, cumulative
    // count); edge 2^i - 1 belongs to bucket i.
    uint64_t prev = 0;
    for (const auto& [le, cumulative] : s.buckets) {
      const std::size_t i = le == UINT64_MAX ? idxl::obs::kHistogramBuckets - 1
                                             : static_cast<std::size_t>(std::bit_width(le));
      h.counts[std::min(i, h.counts.size() - 1)] += cumulative - prev;
      prev = cumulative;
    }
    h.n += s.count;
    h.sum += s.sum;
  }
  return h;
}

}  // namespace

HistDelta hist_delta(const idxl::obs::MetricsSnapshot& before,
                     const idxl::obs::MetricsSnapshot& after, std::string_view name,
                     const LabelFilter& filter) {
  HistDelta a = merged(after, name, filter);
  const HistDelta b = merged(before, name, filter);
  for (std::size_t i = 0; i < a.counts.size(); ++i)
    a.counts[i] -= std::min(a.counts[i], b.counts[i]);
  a.n -= std::min(a.n, b.n);
  a.sum -= std::min(a.sum, b.sum);
  return a;
}

Percentile HistDelta::at(double q, bool tail_rule) const {
  Percentile p;
  p.q = tail_rule ? tail_quantile(n, q) : q;
  p.n = n;
  if (n == 0) return p;
  const uint64_t target = rank_index(n, p.q) + 1;
  uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= target) {
      p.value = static_cast<double>(idxl::obs::Histogram::bucket_bound(i));
      return p;
    }
  }
  p.value = static_cast<double>(UINT64_MAX);
  return p;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
