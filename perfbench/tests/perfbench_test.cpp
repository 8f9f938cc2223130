// Tests of the benchmark's own helpers, plus a tiny-size smoke run of every
// workload in both modes.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

Span span(uint64_t id, uint64_t parent, uint64_t start, uint64_t end, const char* name) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = "test";
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

const SpanRow& row(const std::vector<SpanRow>& rows, const std::string& name) {
  for (const SpanRow& r : rows)
    if (r.name == name) return r;
  ADD_FAILURE() << "no row " << name;
  return rows.front();
}

}  // namespace

TEST(Percentile, NearestRankCarriesSampleCount) {
  const Percentile p = percentile(one_to(100), 0.5);
  EXPECT_EQ(p.value, 50);
  EXPECT_EQ(p.n, 100u);
  EXPECT_EQ(p.label(), "p50 of 100");
  EXPECT_EQ(percentile(one_to(100), 0.99).value, 99);
  EXPECT_EQ(percentile({}, 0.5).n, 0u);
}

TEST(Percentile, TailLeavesTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(tail_quantile(1000, 0.99), 0.99);  // 10 beyond p99
  EXPECT_DOUBLE_EQ(tail_quantile(999, 0.99), 0.95);   // only 9 beyond p99
  EXPECT_DOUBLE_EQ(tail_quantile(100000, 0.99), 0.99);  // capped at q_max
  EXPECT_DOUBLE_EQ(tail_quantile(100000, 1.0), 0.999);
  EXPECT_DOUBLE_EQ(tail_quantile(100, 0.99), 0.90);
  EXPECT_DOUBLE_EQ(tail_quantile(50, 0.99), 0.75);
  EXPECT_DOUBLE_EQ(tail_quantile(10, 0.99), 0.5);
  const Percentile t = tail(one_to(200), 0.99);
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_EQ(t.value, 190);
  EXPECT_EQ(t.label(), "p95 of 200");
}

TEST(Percentile, HistogramDeltaUsesBucketEdges) {
  idxl::obs::MetricsRegistry reg;
  const idxl::obs::Histogram h = reg.histogram("lat_ns", "", {{"tenant", "a"}});
  const idxl::obs::Histogram g = reg.histogram("lat_ns", "", {{"tenant", "b"}});
  for (int i = 0; i < 50; ++i) h.observe(1000);  // before the window
  const idxl::obs::MetricsSnapshot before = reg.snapshot();
  for (int i = 0; i < 990; ++i) h.observe(100);     // bucket edge 127
  for (int i = 0; i < 10; ++i) g.observe(5000);     // bucket edge 8191
  const idxl::obs::MetricsSnapshot after = reg.snapshot();
  const HistDelta d = hist_delta(before, after, "lat_ns");
  EXPECT_EQ(d.n, 1000u);
  EXPECT_EQ(d.sum, 990u * 100 + 10u * 5000);
  EXPECT_EQ(d.at(0.5).value, 127);
  const Percentile p99 = d.at(0.99, /*tail_rule=*/true);
  EXPECT_DOUBLE_EQ(p99.q, 0.99);
  EXPECT_EQ(p99.value, 127);
  EXPECT_EQ(d.at(0.999).value, 8191);
  EXPECT_EQ(hist_delta(before, after, "lat_ns", {{"tenant", "b"}}).n, 10u);
}

TEST(Normalise, CounterDeltasPerPointAndPerLaunch) {
  idxl::obs::MetricsRegistry reg;
  const idxl::obs::Counter route = reg.counter("frames", "", {{"rank", "all"}, {"type", "route"}});
  const idxl::obs::Counter done =
      reg.counter("frames", "", {{"rank", "all"}, {"type", "task-done"}});
  const idxl::obs::Counter other = reg.counter("frames", "", {{"rank", "1"}, {"type", "route"}});
  route.inc(7);
  const idxl::obs::MetricsSnapshot before = reg.snapshot();
  route.inc(300);
  done.inc(100);
  other.inc(1000);
  const idxl::obs::MetricsSnapshot after = reg.snapshot();
  const double launches = 10, points = 160;
  const Ratio per_launch = per(delta(before, after, "frames", {{"rank", "all"}}), launches);
  EXPECT_DOUBLE_EQ(per_launch.value(), 40.0);
  EXPECT_EQ(per_launch.base(), "400/10");
  EXPECT_DOUBLE_EQ(
      per(delta(before, after, "frames", {{"rank", "all"}, {"type", "route"}}), points).value(),
      300.0 / 160.0);
  EXPECT_DOUBLE_EQ(per(5, 0).value(), 0.0);  // empty base reads 0, not inf
  EXPECT_DOUBLE_EQ(delta(before, after, "absent"), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<SpanRow> rows = span_rows({
      span(1, 0, 0, 100, "outer"),
      span(2, 1, 10, 30, "child"),
      span(3, 1, 20, 50, "child"),    // overlaps the previous child
      span(4, 1, 60, 70, "leaf"),
      span(5, 1, 90, 120, "leaf"),    // sticks out of the parent: clipped
      span(6, 2, 12, 14, "grandchild"),  // counts against span 2 only
  });
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(row(rows, "outer").self_s, (100 - (40 + 10 + 10)) * 1e-9);
  EXPECT_DOUBLE_EQ(row(rows, "outer").busy_s, 100e-9);
  EXPECT_DOUBLE_EQ(row(rows, "child").self_s, (20 - 2 + 30) * 1e-9);
  EXPECT_EQ(row(rows, "child").count, 2u);
  EXPECT_DOUBLE_EQ(row(rows, "leaf").self_s, (10 + 30) * 1e-9);
}

TEST(Spans, ScopedSpansLinkParentsAndExportChromeTrace) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "bench", "round", 7);
    { ScopedSpan a(&rec, "runtime", "execute_index", 7); }
    { ScopedSpan b(&rec, "runtime", "wait_all", 7); }
  }
  { ScopedSpan off(nullptr, "runtime", "untraced"); }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span& outer = spans.back();  // closes last
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(spans[0].parent, outer.id);
  EXPECT_EQ(spans[1].parent, outer.id);
  EXPECT_EQ(spans[0].round, 7u);
  const std::string json = rec.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"runtime\""), std::string::npos);
  EXPECT_LT(json.find("\"round\""), json.find("\"execute_index\""));  // sorted by start
}

TEST(Report, EveryCatalogueMetricIsPrintedOnce) {
  Report r;
  r.set("tasks_per_s", 123.5, "base");
  r.set("tasks_per_s", 124.5, "base");
  r.attempted = 10;
  const std::string out = r.render(/*trace=*/false);
  const std::string last = out.substr(out.rfind('{', out.find("\"metrics\"")));
  EXPECT_NE(last.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(out.find("\"tasks_per_s\": {\"value\": 124.5, \"unit\": \"1/s\"}"),
            std::string::npos);
  for (const MetricSpec& s : end_to_end_metrics())
    EXPECT_NE(out.find(std::string("\"") + s.name + "\""), std::string::npos) << s.name;
  EXPECT_EQ(r.select(true).size(), per_layer_metrics().size());
  r.fail("mismatch");
  EXPECT_NE(r.render(false).find("\"correct\": false"), std::string::npos);
}

class Smoke : public ::testing::TestWithParam<const char*> {};

TEST_P(Smoke, TinyRunPassesItsChecksInBothModes) {
  for (const bool trace : {false, true}) {
    Options o;
    o.workload = GetParam();
    o.seed = 3;
    o.seconds = 0.2;
    o.trace = trace;
    o.tiny = true;
    o.start_ns = now_ns();
    Report r;
    ASSERT_TRUE(run_workload(o, &r));
    EXPECT_TRUE(r.correct) << r.render(trace);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
    for (const Metric& m : r.select(trace)) {
      if (!trace || m.name == "obs.trace_overhead_ratio") {
        EXPECT_GT(m.value, 0.0) << m.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("circuit_local", "stencil_dist4",
                                           "service_2tenants"));

TEST(Dispatch, UnknownWorkloadIsRefused) {
  Options o;
  o.workload = "nope";
  Report r;
  EXPECT_FALSE(run_workload(o, &r));
}
