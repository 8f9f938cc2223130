#pragma once

// What one benchmark run reports: the correctness verdict, operation counts
// and the metrics of the chosen mode, in the fixed catalogue below.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (tracing off), on every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed with --trace 1, on every workload. A metric whose layer a
/// workload does not enter reads 0, with the base "not on this path".
const std::vector<MetricSpec>& per_layer_metrics();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< what the value was computed from (human output only)
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::string detail;                 ///< human-readable tables
  std::vector<Metric> metrics;

  /// Set a catalogued metric; aborts on a name outside the catalogue.
  void set(const std::string& name, double value, std::string base = "");
  void fail(std::string why);
  /// The metrics of one mode in catalogue order, unset ones as 0.
  std::vector<Metric> select(bool trace) const;
  /// Human table, then the one-line JSON result as the last line.
  std::string render(bool trace) const;
};

}  // namespace perfbench
