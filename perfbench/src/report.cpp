#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"tasks_per_s", "1/s"},
      {"cpu_us_per_task", "us"},
      {"rtt_p50_us", "us"},
      {"peak_rss_mib", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // Bimodal under outside load (0.6 ms against 6-15 ms on the service),
      // so it is reported here, without a bound, rather than end to end.
      {"rtt_p99_us", "us"},
      {"runtime.issue_us_p50", "us"},
      {"runtime.issue_us_p99", "us"},
      {"runtime.issue_share", "ratio"},
      {"runtime.fence_ms", "ms"},
      {"runtime.fence_share", "ratio"},
      {"runtime.dep_tests_per_point", "count"},
      {"runtime.dep_edges_per_point", "count"},
      {"runtime.group_launch_ratio", "ratio"},
      {"runtime.calls_per_point", "count"},
      {"runtime.body_share", "ratio"},
      {"runtime.ready_wait_us_p50", "us"},
      {"runtime.ready_wait_us_p99", "us"},
      {"runtime.launcher_bytes", "B"},
      {"runtime.encode_ns", "ns"},
      {"runtime.decode_ns", "ns"},
      {"analysis.verdict_hit_ratio", "ratio"},
      {"analysis.dynamic_points_setup", "count"},
      {"analysis.dynamic_points_timed", "count"},
      {"dist.issue_us_p50", "us"},
      {"dist.issue_us_p99", "us"},
      {"dist.fence_ms", "ms"},
      {"dist.xfer_launches_per_launch", "count"},
      {"dist.payload_bytes_per_launch", "B"},
      {"dist.transfers_per_launch", "count"},
      {"dist.rank_peak_rss_mib", "MiB"},
      {"net.control_frames_per_launch", "count"},
      {"net.route_frames_per_launch", "count"},
      {"net.task_done_frames_per_launch", "count"},
      {"net.bytes_per_launch", "B"},
      {"net.transfer_latency_us_p50", "us"},
      {"net.transfer_latency_us_p99", "us"},
      {"service.launch_us_p50", "us"},
      {"service.launch_us_p99", "us"},
      {"service.fence_us_p50", "us"},
      {"service.fence_us_p99", "us"},
      {"service.queue_wait_us_p99", "us"},
      {"service.flush_us_p50", "us"},
      {"service.launches_per_epoch", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.recorder_overwritten", "count"},
      {"apps.serial_ref_tasks_per_s", "1/s"},
  };
  return specs;
}

namespace {

const MetricSpec* find_spec(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
    for (const MetricSpec& s : *list)
      if (name == s.name) return &s;
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value, std::string base) {
  const MetricSpec* spec = find_spec(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: metric %s is not in the catalogue\n",
                 name.c_str());
    std::abort();
  }
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  for (Metric& m : metrics)
    if (m.name == name) {
      m.value = value;
      m.base = std::move(base);
      return;
    }
  metrics.push_back(Metric{name, value, spec->unit, std::move(base)});
}

void Report::fail(std::string why) {
  correct = false;
  problems.push_back(std::move(why));
}

std::vector<Metric> Report::select(bool trace) const {
  std::vector<Metric> out;
  for (const MetricSpec& s : trace ? per_layer_metrics() : end_to_end_metrics()) {
    Metric m{s.name, 0.0, s.unit, "not on this path"};
    for (const Metric& have : metrics)
      if (have.name == s.name) m = have;
    out.push_back(std::move(m));
  }
  return out;
}

std::string Report::render(bool trace) const {
  std::string out = detail;
  char buf[512];
  const std::vector<Metric> chosen = select(trace);
  out += "\nmetric                              value        unit   base\n";
  for (const Metric& m : chosen) {
    std::snprintf(buf, sizeof(buf), "%-32s %14.6g %-6s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.base.c_str());
    out += buf;
  }
  for (const std::string& p : problems) out += "FAILED CHECK: " + p + "\n";
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += buf;
  bool first = true;
  for (const Metric& m : chosen) {
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}\n";
  return out;
}

}  // namespace perfbench
