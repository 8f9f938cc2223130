// circuit_local: CircuitApp on the local Runtime, issue-bound.
//
// 256 pieces of 16 nodes and 32 wires, 10% external wires, graph drawn from
// the seed; 3 pool workers plus the issuing thread. Every launch goes
// through the aliased ghost partition, so the per-point dependence tier of
// the `runtime` layer does most of the work. One round is one timestep
// (3 index launches) closed by wait_all.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "apps/circuit.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using Run = TimestepRun<Traced<idxl::Runtime>, idxl::apps::CircuitApp>;
constexpr unsigned kWorkers = 3;
constexpr uint64_t kLaunchesPerStep = 3;

}  // namespace

Report run_circuit_local(const Options& o) {
  Report r;
  idxl::apps::CircuitParams p;
  p.pieces = o.tiny ? 8 : 256;
  p.nodes_per_piece = 16;
  p.wires_per_piece = 32;
  p.pct_external = 10;
  p.seed = o.seed;
  const auto points_per_launch = static_cast<uint64_t>(p.pieces);
  idxl::RuntimeConfig rc;
  rc.workers = kWorkers;

  // Set-up: runtime, graph and region build, one warm-up timestep. Repeated;
  // the last one stays for the timed phase.
  Run run;
  const std::vector<double> setups = set_up_timesteps(o, run, [&](Run& fresh) {
    fresh.rt = std::make_unique<Traced<idxl::Runtime>>("runtime", rc);
    fresh.app = std::make_unique<idxl::apps::CircuitApp>(*fresh.rt, p);
  });
  const idxl::RuntimeStats after_setup = run.rt->stats();

  SpanRecorder rec;
  CounterWindow w;
  if (o.trace) {
    w.before = run.rt->stats();
    w.m_before = run.rt->metrics().snapshot();
  }
  const double cpu0 = cpu_seconds();
  const Blocks blocks = run_blocks(o.seconds, o.trace ? &rec : nullptr,
                                   [&](double s, SpanRecorder* on) {
                                     return timestep_phase(run, kLaunchesPerStep, points_per_launch,
                                                           s, on);
                                   });
  const double cpu_s = cpu_seconds() - cpu0;
  const Phase main = blocks.all();
  if (o.trace) {
    w.after = run.rt->stats();
    w.m_after = run.rt->metrics().snapshot();
    report_runtime_counters(r, w, main, kWorkers, {});
    const std::vector<SpanRow> rows = report_traced(r, o, blocks, rec, run.rt->captured(),
                                                    after_setup.dynamic_check_points);
    report_local_runtime_spans(r, rows, blocks.traced_wall());
  }
  if (main.runtime_launches != main.launches || main.runtime_points != main.points)
    r.fail("the runtime counted other launches or points than were issued");
  report_setup(r, setups);
  report_rounds(r, blocks);
  report_cpu(r, cpu_s, main.points, "this process");

  // Output check against the serial reference (timed: the apps baseline).
  const std::vector<double> got = run.app->voltages();
  const uint64_t ref0 = now_ns();
  const std::vector<double> want =
      idxl::apps::CircuitApp::reference_voltages(p, run.steps);
  const double ref_s = static_cast<double>(now_ns() - ref0) / 1e9;
  const double ref_tasks = static_cast<double>(run.steps) * kLaunchesPerStep *
                           static_cast<double>(p.pieces);
  r.set("apps.serial_ref_tasks_per_s", ref_s > 0 ? ref_tasks / ref_s : 0.0,
        std::to_string(run.steps) + " timesteps of the serial reference");
  double max_err = got.size() == want.size() ? 0.0 : HUGE_VAL;
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
    max_err = std::max(max_err, std::abs(got[i] - want[i]) / std::max(1.0, std::abs(want[i])));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "circuit_local: %lld pieces, %d timesteps, max relative error %.3g\n",
                static_cast<long long>(p.pieces), run.steps, max_err);
  r.detail += buf;
  if (!(max_err <= 1e-9)) r.fail("voltages differ from CircuitApp::reference_voltages");

  const idxl::FaultReport faults = run.rt->fault_report();
  r.attempted = main.points;
  r.failed = faults.failures.size() + faults.poisoned.size();
  if (!faults.ok()) r.fail("fault report is not empty: " + faults.to_string());
  r.set("peak_rss_mib", peak_rss_mib(), "ru_maxrss of this process");
  return r;
}

}  // namespace perfbench
