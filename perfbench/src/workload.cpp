#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "runtime/serialize.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/// Mean encode and decode time of serialize_launcher / deserialize_launcher
/// over `launchers`, and their mean encoded size. Decoded launchers must
/// re-encode to the same bytes.
struct CodecTiming {
  double bytes = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  bool round_trip_ok = true;
};

CodecTiming time_codec(const std::vector<idxl::IndexLauncher>& launchers, int reps) {
  CodecTiming t;
  if (launchers.empty() || reps <= 0) return t;
  for (const idxl::IndexLauncher& l : launchers) {
    std::vector<std::byte> bytes = idxl::serialize_launcher(l);
    t.bytes += static_cast<double>(bytes.size());
    const uint64_t e0 = now_ns();
    for (int i = 0; i < reps; ++i) bytes = idxl::serialize_launcher(l);
    const uint64_t e1 = now_ns();
    idxl::IndexLauncher back;
    for (int i = 0; i < reps; ++i) back = idxl::deserialize_launcher(bytes);
    const uint64_t d1 = now_ns();
    t.encode_ns += static_cast<double>(e1 - e0) / reps;
    t.decode_ns += static_cast<double>(d1 - e1) / reps;
    t.round_trip_ok = t.round_trip_ok && idxl::serialize_launcher(back) == bytes;
  }
  const auto n = static_cast<double>(launchers.size());
  t.bytes /= n;
  t.encode_ns /= n;
  t.decode_ns /= n;
  return t;
}

}  // namespace

void set_ratio(Report& r, const std::string& name, const Ratio& q, const std::string& what) {
  r.set(name, q.value(), q.base() + " " + what);
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double children_peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

double cpu_of(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace

double cpu_seconds() { return cpu_of(RUSAGE_SELF); }
double children_cpu_seconds() { return cpu_of(RUSAGE_CHILDREN); }

void report_cpu(Report& r, double cpu_s, uint64_t points, const char* whose) {
  char base[160];
  std::snprintf(base, sizeof(base), "%.3f CPU s of %s / %llu points", cpu_s, whose,
                static_cast<unsigned long long>(points));
  r.set("cpu_us_per_task", points > 0 ? cpu_s * 1e6 / static_cast<double>(points) : 0.0, base);
}

int setup_repeats(const Options& o) { return o.tiny ? 2 : 31; }

void report_setup(Report& r, const std::vector<double>& setups) {
  r.set("setup_s", median(setups), std::to_string(setups.size()) + " set-ups, median");
  if (setups.empty()) return;
  char line[160];
  std::snprintf(line, sizeof(line), "set-ups: min %.6g s, median %.6g s, max %.6g s\n",
                *std::min_element(setups.begin(), setups.end()), median(setups),
                *std::max_element(setups.begin(), setups.end()));
  r.detail += line;
}

void Phase::merge(const Phase& block) {
  wall_s += block.wall_s;
  rounds += block.rounds;
  points += block.points;
  launches += block.launches;
  runtime_launches += block.runtime_launches;
  runtime_points += block.runtime_points;
  round_us.insert(round_us.end(), block.round_us.begin(), block.round_us.end());
}

void report_runtime_counters(
    Report& r, const CounterWindow& w, const Phase& p, double slots,
    const std::vector<std::pair<std::string, std::string>>& label) {
  const idxl::RuntimeStats& a = w.before;
  const idxl::RuntimeStats& b = w.after;
  const auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  const auto points = static_cast<double>(p.points);
  const auto launches = static_cast<double>(p.launches);
  const double wall_s = p.wall_s;
  set_ratio(r, "runtime.dep_tests_per_point", per(d(a.dependence_tests, b.dependence_tests), points),
      "tests/points");
  set_ratio(r, "runtime.dep_edges_per_point", per(d(a.dependence_edges, b.dependence_edges), points),
      "edges/points");
  set_ratio(r, "runtime.group_launch_ratio", per(d(a.group_launches, b.group_launches), launches),
      "group/index launches");
  set_ratio(r, "runtime.calls_per_point", per(d(a.runtime_calls, b.runtime_calls), points),
      "calls/points");
  const double lookups = d(a.verdict_cache_hits, b.verdict_cache_hits) +
                         d(a.verdict_cache_misses, b.verdict_cache_misses);
  set_ratio(r, "analysis.verdict_hit_ratio", per(d(a.verdict_cache_hits, b.verdict_cache_hits), lookups),
      "hits/lookups");
  r.set("analysis.dynamic_points_timed", d(a.dynamic_check_points, b.dynamic_check_points),
        "functor evaluations in the traced phase");

  const HistDelta body = hist_delta(w.m_before, w.m_after, "idxl_task_duration_ns", label);
  set_ratio(r, "runtime.body_share", per(static_cast<double>(body.sum) / 1e9, wall_s * slots),
      "body s/(wall s x pool workers)");
  const HistDelta ready = hist_delta(w.m_before, w.m_after, "idxl_task_queue_wait_ns", label);
  const Percentile r50 = ready.at(0.5), r99 = ready.at(0.99, /*tail_rule=*/true);
  r.set("runtime.ready_wait_us_p50", r50.value / 1e3, r50.label() + " tasks, bucket edge");
  r.set("runtime.ready_wait_us_p99", r99.value / 1e3, r99.label() + " tasks, bucket edge");
  r.set("obs.recorder_overwritten",
        delta(w.m_before, w.m_after, "idxl_flight_recorder_overwritten", label),
        "events lost to ring wraparound");
}

Phase Blocks::all() const {
  Phase p;
  for (const auto* side : {&untraced, &traced})
    for (const Phase& b : *side) p.merge(b);
  return p;
}

double Blocks::traced_wall() const {
  double s = 0.0;
  for (const Phase& b : traced) s += b.wall_s;
  return s;
}

Phase faster_half(std::vector<Phase> blocks) {
  std::sort(blocks.begin(), blocks.end(), [](const Phase& a, const Phase& b) {
    return a.tasks_per_s() > b.tasks_per_s();
  });
  Phase p;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, blocks.size() / 2) && i < blocks.size(); ++i)
    p.merge(blocks[i]);
  return p;
}

void report_rounds(Report& r, const Blocks& b) {
  const Phase best = faster_half(b.untraced);
  Phase all;
  for (const Phase& block : b.untraced) all.merge(block);
  char base[160];
  std::snprintf(base, sizeof(base), "%llu points in %.3f s, faster %zu of %zu blocks",
                static_cast<unsigned long long>(best.points), best.wall_s,
                std::max<std::size_t>(1, b.untraced.size() / 2), b.untraced.size());
  r.set("tasks_per_s", best.tasks_per_s(), base);
  const Percentile p50 = percentile(best.round_us, 0.5);
  const Percentile p99 = tail(best.round_us, 0.99);
  r.set("rtt_p50_us", p50.value, p50.label() + " rounds");
  r.set("rtt_p99_us", p99.value, p99.label() + " rounds");
  const Percentile all50 = percentile(all.round_us, 0.5);
  const Percentile all99 = tail(all.round_us, 0.99);
  char line[256];
  std::snprintf(line, sizeof(line),
                "all untraced blocks: %.6g tasks/s, rtt %s %.6g us, %s %.6g us\n",
                all.tasks_per_s(), all50.label().c_str(), all50.value,
                all99.label().c_str(), all99.value);
  r.detail += line;
}

std::vector<SpanRow> report_traced(Report& r, const Options& o, const Blocks& b,
                                   const SpanRecorder& rec,
                                   const std::vector<idxl::IndexLauncher>& launchers,
                                   uint64_t setup_dynamic_points) {
  const Ratio overhead =
      per(faster_half(b.untraced).tasks_per_s(), faster_half(b.traced).tasks_per_s());
  set_ratio(r, "obs.trace_overhead_ratio", overhead,
            "untraced/traced tasks/s, faster half of blocks");
  r.set("analysis.dynamic_points_setup", static_cast<double>(setup_dynamic_points),
        "functor evaluations in the last set-up");
  const CodecTiming codec = time_codec(launchers, o.tiny ? 10 : 5000);
  r.set("runtime.launcher_bytes", codec.bytes, "mean over the workload's launchers");
  r.set("runtime.encode_ns", codec.encode_ns, "serialize_launcher, mean per call");
  r.set("runtime.decode_ns", codec.decode_ns, "deserialize_launcher, mean per call");
  if (!codec.round_trip_ok) r.fail("launcher codec round trip changed the bytes");

  std::vector<SpanRow> rows = span_rows(rec.spans());
  char head[128];
  std::snprintf(head, sizeof(head), "spans of the traced blocks (wall %.3f s):\n",
                b.traced_wall());
  r.detail += head + span_table(rows, b.traced_wall());
  if (!o.trace_out.empty() && !rec.write_chrome(o.trace_out))
    r.fail("cannot write the Chrome trace to " + o.trace_out);
  else if (!o.trace_out.empty())
    r.detail += "chrome trace: " + o.trace_out + "\n";
  return rows;
}

void report_span_percentiles(Report& r, const std::string& prefix, const SpanRow& row,
                             const char* what) {
  const Percentile p50 = percentile(row.durations_us, 0.5);
  const Percentile p99 = tail(row.durations_us, 0.99);
  r.set(prefix + "_p50", p50.value, p50.label() + " " + what);
  r.set(prefix + "_p99", p99.value, p99.label() + " " + what);
}

void report_local_runtime_spans(Report& r, const std::vector<SpanRow>& rows, double wall_s) {
  for (const SpanRow& row : rows) {
    if (row.layer != "runtime") continue;
    const Ratio share = per(row.busy_s, wall_s);
    if (row.name == "execute_index") {
      report_span_percentiles(r, "runtime.issue_us", row, "launches");
      set_ratio(r, "runtime.issue_share", share, "issue s/wall s");
    } else if (row.name == "wait_all") {
      const Percentile f50 = percentile(row.durations_us, 0.5);
      r.set("runtime.fence_ms", f50.value / 1e3, f50.label() + " fences");
      set_ratio(r, "runtime.fence_share", share, "fence s/wall s");
    }
  }
}

bool run_workload(const Options& o, Report* out) {
  if (o.workload == "circuit_local") *out = run_circuit_local(o);
  else if (o.workload == "stencil_dist4") *out = run_stencil_dist4(o);
  else if (o.workload == "service_2tenants") *out = run_service_2tenants(o);
  else return false;
  return true;
}

}  // namespace perfbench
