// stencil_dist4: StencilApp on a fork-mode DistributedRuntime, 4 ranks.
//
// Grid 512^2, radius 2, 4x4 blocks (16,384 cells per point task), one pool
// worker per rank, default delta+p2p data plane. Task bodies and the
// dist/net control plane dominate. One round is one timestep (2 index
// launches) closed by wait_all, the cross-rank fence.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "apps/stencil.hpp"
#include "dist/dist_runtime.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using Run = TimestepRun<Traced<idxl::dist::DistributedRuntime>, idxl::apps::StencilApp>;
constexpr uint32_t kRanks = 4;
constexpr unsigned kWorkersPerRank = 1;
constexpr uint64_t kLaunchesPerStep = 2;

double frames(const CounterWindow& w, const char* type) {
  return delta(w.m_before, w.m_after, "idxl_net_frames_sent_total",
               {{"rank", "all"}, {"type", type}});
}

}  // namespace

Report run_stencil_dist4(const Options& o) {
  Report r;
  idxl::apps::StencilParams p;
  p.nx = p.ny = o.tiny ? 64 : 512;
  p.px = p.py = 4;
  p.radius = 2;
  const uint64_t points_per_launch = static_cast<uint64_t>(p.px * p.py);
  idxl::dist::DistConfig dc;
  dc.ranks = kRanks;
  dc.runtime.workers = kWorkersPerRank;

  // Set-up: grid build, fork and handshake of the ranks (at the first
  // launch), one warm-up timestep. Repeated; the last one stays.
  // cpu_us_per_task covers the driver and the ranks from the start of the
  // last set-up to the ranks' shutdown: the ranks' CPU time is only
  // readable once they are reaped, so both sides use that one window (the
  // driver's minus the traced run's own reporting). The set-up, read-back
  // and shutdown in it add a fixed cost, which shrinks as --seconds grows.
  Run run;
  double cpu0 = 0.0, ranks_cpu0 = 0.0;
  const std::vector<double> setups = set_up_timesteps(o, run, [&](Run& fresh) {
    cpu0 = cpu_seconds();
    ranks_cpu0 = children_cpu_seconds();  // every earlier set of ranks
    fresh.rt = std::make_unique<Traced<idxl::dist::DistributedRuntime>>("dist", dc);
    fresh.app = std::make_unique<idxl::apps::StencilApp>(*fresh.rt, p);
  });
  const idxl::RuntimeStats after_setup = run.rt->stats();

  SpanRecorder rec;
  CounterWindow w;
  idxl::dist::DataPlaneStats d0;
  if (o.trace) {
    w.before = run.rt->stats();
    w.m_before = run.rt->cluster_metrics();
    d0 = run.rt->data_plane_stats();
  }
  const Blocks blocks = run_blocks(o.seconds, o.trace ? &rec : nullptr, [&](double s, SpanRecorder* on) {
    return timestep_phase(run, kLaunchesPerStep, points_per_launch, s, on);
  });
  double driver_cpu_s = cpu_seconds() - cpu0;
  const Phase main = blocks.all();
  if (o.trace) {
    w.after = run.rt->stats();
    const idxl::dist::DataPlaneStats d1 = run.rt->data_plane_stats();
    w.m_after = run.rt->cluster_metrics();
    report_runtime_counters(r, w, main, kRanks * kWorkersPerRank, {{"rank", "all"}});
    const double launches = static_cast<double>(main.launches);
    set_ratio(r, "dist.xfer_launches_per_launch",
        per(static_cast<double>(w.after.single_launches - w.before.single_launches), launches),
        "single/index launches");
    set_ratio(r, "dist.payload_bytes_per_launch",
        per(static_cast<double>(d1.bytes_total() - d0.bytes_total()), launches),
        "payload bytes/launches");
    set_ratio(r, "dist.transfers_per_launch",
        per(static_cast<double>(d1.transfers - d0.transfers), launches), "transfers/launches");
    const double control = frames(w, "launch") + frames(w, "single") + frames(w, "route") +
                           frames(w, "task-done") + frames(w, "fence") +
                           frames(w, "fence-ack");
    set_ratio(r, "net.control_frames_per_launch", per(control, launches),
        "launch+single+route+task-done+fence+fence-ack frames sent/launches");
    set_ratio(r, "net.route_frames_per_launch", per(frames(w, "route"), launches), "frames/launches");
    set_ratio(r, "net.task_done_frames_per_launch", per(frames(w, "task-done"), launches),
        "frames/launches");
    set_ratio(r, "net.bytes_per_launch",
        per(delta(w.m_before, w.m_after, "idxl_net_bytes_sent_total", {{"rank", "all"}}),
            launches),
        "bytes sent cluster-wide/launches");
    const HistDelta lat = hist_delta(w.m_before, w.m_after, "idxl_net_transfer_latency_ns",
                                     {{"rank", "all"}});
    const Percentile l50 = lat.at(0.5), l99 = lat.at(0.99, /*tail_rule=*/true);
    r.set("net.transfer_latency_us_p50", l50.value / 1e3, l50.label() + " transfers, bucket edge");
    r.set("net.transfer_latency_us_p99", l99.value / 1e3, l99.label() + " transfers, bucket edge");

    const std::vector<SpanRow> rows = report_traced(r, o, blocks, rec, run.rt->captured(),
                                                    after_setup.dynamic_check_points);
    for (const SpanRow& row : rows) {
      if (row.layer != "dist") continue;
      if (row.name == "execute_index") {
        report_span_percentiles(r, "dist.issue_us", row, "launches");
      } else if (row.name == "wait_all") {
        const Percentile f50 = percentile(row.durations_us, 0.5);
        r.set("dist.fence_ms", f50.value / 1e3, f50.label() + " fences");
      }
    }
  }
  // The driver counts the replicated idxl_xfer single launches as point
  // tasks too, so only its index launches are checked.
  if (main.runtime_launches != main.launches)
    r.fail("the driver counted other index launches than were issued");
  report_setup(r, setups);
  report_rounds(r, blocks);
  r.set("peak_rss_mib", peak_rss_mib(), "ru_maxrss of the driver process");

  // Output and faults, then shut the ranks down so their peak memory and
  // CPU time are readable.
  const double cpu1 = cpu_seconds();
  const std::vector<double> got = run.app->output();
  const idxl::FaultReport faults = run.rt->fault_report();
  const int steps = run.steps;
  run = Run{};
  driver_cpu_s += cpu_seconds() - cpu1;
  report_cpu(r, driver_cpu_s + children_cpu_seconds() - ranks_cpu0, main.points,
             "the driver and the ranks from the last set-up to shutdown");
  r.set("dist.rank_peak_rss_mib", children_peak_rss_mib(), "RUSAGE_CHILDREN ru_maxrss");

  // Output check against the serial reference (timed: the apps baseline).
  const uint64_t ref0 = now_ns();
  const std::vector<double> want = idxl::apps::StencilApp::reference_output(p, steps);
  const double ref_s = static_cast<double>(now_ns() - ref0) / 1e9;
  const double ref_tasks = static_cast<double>(steps) * kLaunchesPerStep *
                           static_cast<double>(points_per_launch);
  r.set("apps.serial_ref_tasks_per_s", ref_s > 0 ? ref_tasks / ref_s : 0.0,
        std::to_string(steps) + " timesteps of the serial reference");
  double max_err = got.size() == want.size() ? 0.0 : HUGE_VAL;
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i)
    max_err = std::max(max_err, std::abs(got[i] - want[i]));
  r.attempted = main.points;
  r.failed = faults.failures.size() + faults.poisoned.size();
  if (!faults.ok()) r.fail("fault report is not empty: " + faults.to_string());
  if (!(max_err < 1e-12)) r.fail("output differs from StencilApp::reference_output");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "stencil_dist4: %lldx%lld grid, %u ranks, %d timesteps, max error %.3g, "
                "largest rank peak RSS %.1f MiB\n",
                static_cast<long long>(p.nx), static_cast<long long>(p.ny), kRanks,
                steps, max_err, children_peak_rss_mib());
  r.detail += buf;
  return r;
}

}  // namespace perfbench
