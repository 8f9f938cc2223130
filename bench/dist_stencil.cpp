// Figure 7's stencil, re-run for real on the distributed backend: the same
// PRK star workload across 1-4 actual OS processes (fork-mode workers), with
// results verified against the serial reference. Writes BENCH_dist.json.
//
// Unlike the fig7 binary (which simulates the paper's 512-node sweep), every
// number here is a measured wall-clock throughput of real multi-process
// execution, so the series doubles as a regression check on the wire path.
// Each rank count runs twice — the star-hub baseline (every task outcome
// broadcast everywhere) and the delta data plane (halo-only transfers over
// direct worker links) — and the JSON carries both series plus the measured
// bytes-moved reduction, which CI gates against bench/baselines/dist.json.
// It also counts the control frames a steady 4-rank step sends, by type and
// per index launch, and the replicated transfer launches per index launch:
// deterministic numbers that CI gates exactly.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/stencil.hpp"
#include "dist/dist_runtime.hpp"
#include "dist/smoke_tasks.hpp"
#include "fig_common.hpp"
#include "region/partition_ops.hpp"

using namespace idxl;

namespace {

struct Result {
  uint32_t ranks;
  double cells_per_s;
  double seconds;
  double max_err;
  dist::DataPlaneStats stats;
  int rounds = 1;
};

/// The stencil grid of one run: region, partitions and the two launches.
struct Stencil {
  RegionId grid;
  FieldId fin = 0, fout = 0;
  PartitionId blocks, halos;
  TaskFnId st = 0, inc = 0, noop = 0;
  dist::smoke::StencilArgs args;
  Domain dom;

  Stencil(dist::DistributedRuntime& rt, const apps::StencilParams& params);
  void step(dist::DistributedRuntime& rt) const;
};

Stencil::Stencil(dist::DistributedRuntime& rt, const apps::StencilParams& params) {
  auto& forest = rt.forest();
  const IndexSpaceId is =
      forest.create_index_space(Domain(Rect::box2(params.nx, params.ny)));
  const FieldSpaceId fs = forest.create_field_space();
  fin = forest.allocate_field(fs, sizeof(double), "in");
  fout = forest.allocate_field(fs, sizeof(double), "out");
  grid = forest.create_region(is, fs);
  blocks = partition_equal(forest, is, Rect::box2(params.px, params.py));
  halos = partition_halo(forest, is, blocks, params.radius);
  {
    Accessor<double> in(forest, grid, fin, Privilege::kWrite);
    Accessor<double> out(forest, grid, fout, Privilege::kWrite);
    for (const Point& p : Rect::box2(params.nx, params.ny)) {
      in.write(p, static_cast<double>(p[0] + p[1]));
      out.write(p, 0.0);
    }
  }
  st = rt.register_task("smoke_stencil", dist::smoke::stencil_body);
  inc = rt.register_task("smoke_increment", dist::smoke::increment_body);
  noop = rt.register_task("bench_noop", [](TaskContext&) {});
  args.fin = fin;
  args.fout = fout;
  args.radius = params.radius;
  args.nx = params.nx;
  args.ny = params.ny;
  dom = Domain(Rect::box2(params.px, params.py));
}

void Stencil::step(dist::DistributedRuntime& rt) const {
  const auto id = ProjectionFunctor::identity(2);
  rt.execute_index(IndexLauncher::over(dom)
                       .with_task(st)
                       .scalars(ArgBuffer::of(args))
                       .region(grid, halos, id, {fin}, Privilege::kRead)
                       .region(grid, blocks, id, {fout}, Privilege::kReadWrite));
  rt.execute_index(IndexLauncher::over(dom)
                       .with_task(inc)
                       .scalars(ArgBuffer::of(args))
                       .region(grid, blocks, id, {fin}, Privilege::kReadWrite));
}

/// One measured run. `traced` turns on full distributed tracing (profiling
/// in every process, clock probes, merged trace at shutdown); `trace_path`
/// and `metrics_path` additionally write the merged Chrome trace and the
/// rank-aggregated metrics JSON — the CI artifacts. Steps run in rounds of
/// `iters`, each closed by a cross-rank fence: at least `rounds` of them,
/// and more until `min_seconds` have passed.
Result run_once(uint32_t ranks, const apps::StencilParams& params, int iters,
                bool delta, bool traced = false,
                const std::string& trace_path = "",
                const std::string& metrics_path = "", bool warmup = false,
                int rounds = 1, double min_seconds = 0.0) {
  dist::DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.delta_transfers = delta;
  dc.runtime.enable_profiling = traced;
  dc.trace_path = trace_path;
  dist::DistributedRuntime rt(dc);
  const Stencil s(rt, params);

  // The first launch forks and handshakes the workers; the overhead gate
  // compares steady-state iteration cost, so it warms that up off-clock
  // with a read-only no-op that leaves the grid untouched.
  if (warmup) {
    rt.execute_index(IndexLauncher::over(s.dom)
                         .with_task(s.noop)
                         .region(s.grid, s.blocks, ProjectionFunctor::identity(2),
                                 {s.fin}, Privilege::kRead));
    rt.wait_all();
  }

  const auto start = std::chrono::steady_clock::now();
  double seconds = 0.0;
  int done = 0;
  for (int round = 0; round < rounds || seconds < min_seconds; ++round) {
    for (int it = 0; it < iters; ++it) s.step(rt);
    rt.wait_all();
    done += iters;
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  }

  Result r{ranks, 0.0, 0.0, 0.0, {}};
  r.seconds = seconds;
  r.rounds = done / iters;
  r.cells_per_s =
      static_cast<double>(params.nx) * static_cast<double>(params.ny) * done /
      seconds;
  r.stats = rt.data_plane_stats();
  if (!metrics_path.empty()) {
    const std::string json = rt.cluster_metrics_json();
    if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  const std::vector<double> expect =
      apps::StencilApp::reference_output(params, done);
  auto acc = rt.read_region<double>(s.grid, s.fout);
  std::size_t i = 0;
  for (const Point& p : Rect::box2(params.nx, params.ny))
    r.max_err = std::max(r.max_err, std::abs(acc.read(p) - expect[i++]));
  if (!rt.fault_report().ok()) r.max_err = HUGE_VAL;
  return r;
}

/// Frames of `type` sent cluster-wide (the rank="all" roll-up).
double frames_sent(const obs::MetricsSnapshot& m, const std::string& type) {
  double n = 0;
  const obs::FamilySnapshot* f = m.family("idxl_net_frames_sent_total");
  if (f == nullptr) return 0;
  for (const obs::SeriesSnapshot& series : f->series) {
    bool all = false, typed = false;
    for (const auto& [k, v] : series.labels) {
      all = all || (k == "rank" && v == "all");
      typed = typed || (k == "type" && v == type);
    }
    if (all && typed) n += static_cast<double>(series.counter);
  }
  return n;
}

/// Control-plane cost of `steps` fenced steady steps on 4 ranks, delta+p2p,
/// per index launch: frames sent cluster-wide by type, and the replicated
/// transfer (single) launches the driver issued. A warm-up step first, so
/// every counted stencil launch ships halos. The window holds one fence per
/// step and the closing cluster_metrics() fence. Deterministic.
struct ControlCounts {
  std::vector<std::pair<std::string, double>> frames;  ///< (type, per launch)
  double control_total = 0;
  double xfer_launches = 0;
};

ControlCounts count_control(const apps::StencilParams& params, int steps) {
  dist::DistConfig dc;
  dc.ranks = 4;
  dc.runtime.workers = 2;
  dist::DistributedRuntime rt(dc);
  const Stencil s(rt, params);
  s.step(rt);
  rt.wait_all();
  const obs::MetricsSnapshot m0 = rt.cluster_metrics();
  const uint64_t singles0 = rt.stats().single_launches;
  for (int i = 0; i < steps; ++i) {
    s.step(rt);
    rt.wait_all();
  }
  const uint64_t singles1 = rt.stats().single_launches;
  const obs::MetricsSnapshot m1 = rt.cluster_metrics();
  const double launches = 2.0 * steps;
  ControlCounts c;
  for (const char* type :
       {"launch", "single", "route", "task-done", "fence", "fence-ack"}) {
    const double per = (frames_sent(m1, type) - frames_sent(m0, type)) / launches;
    c.frames.emplace_back(type, per);
    c.control_total += per;
  }
  c.xfer_launches = static_cast<double>(singles1 - singles0) / launches;
  return c;
}

}  // namespace

/// Directory prefix shared with BENCH_dist.json for the trace/metrics
/// artifacts ($IDXL_BENCH_DIR, default cwd).
std::string artifact_path(const char* file) {
  std::string path;
  if (const char* dir = std::getenv("IDXL_BENCH_DIR")) {
    path = dir;
    if (!path.empty() && path.back() != '/') path += '/';
  }
  path += file;
  return path;
}

int main() {
  // The tracing-overhead comparison below needs the untraced arms genuinely
  // untraced; a stray IDXL_TRACE from the environment would force profiling
  // on in every run and hide the cost being measured.
  unsetenv("IDXL_TRACE");
  apps::StencilParams params;
  params.nx = params.ny = 96;
  params.px = params.py = 4;
  params.radius = 1;
  const int iters = 8;

  std::printf("Distributed stencil (real processes): %lldx%lld grid, "
              "%lldx%lld blocks, %d iterations\n",
              static_cast<long long>(params.nx),
              static_cast<long long>(params.ny),
              static_cast<long long>(params.px),
              static_cast<long long>(params.py), iters);
  std::printf("%8s %10s %14s %12s %12s %12s %10s\n", "ranks", "plane",
              "cells/s", "hub_bytes", "relay_bytes", "p2p_bytes", "max_err");

  bool ok = true;
  std::string points_hub = "[", points_delta = "[";
  Result hub4{}, delta4{};
  for (const uint32_t ranks : {1u, 2u, 3u, 4u}) {
    for (const bool delta : {false, true}) {
      const Result r = run_once(ranks, params, iters, delta);
      std::printf("%8u %10s %14.3e %12llu %12llu %12llu %10.3g\n", r.ranks,
                  delta ? "delta+p2p" : "star-hub", r.cells_per_s,
                  static_cast<unsigned long long>(r.stats.bytes_hub),
                  static_cast<unsigned long long>(r.stats.bytes_relay),
                  static_cast<unsigned long long>(r.stats.bytes_p2p),
                  r.max_err);
      ok = ok && r.max_err < 1e-12;
      std::string& points = delta ? points_delta : points_hub;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s[%u, %.6g, %llu]",
                    points.size() > 1 ? "," : "", r.ranks, r.cells_per_s,
                    static_cast<unsigned long long>(r.stats.bytes_total()));
      points += buf;
      if (ranks == 4) (delta ? delta4 : hub4) = r;
    }
  }
  points_hub += ']';
  points_delta += ']';

  // The tentpole number: payload bytes moved at 4 processes, delta+p2p
  // against the star-hub broadcast of the same program.
  const double reduction =
      delta4.stats.bytes_total() > 0
          ? static_cast<double>(hub4.stats.bytes_total()) /
                static_cast<double>(delta4.stats.bytes_total())
          : 0.0;
  std::printf("bytes moved @4 ranks: star-hub %llu, delta+p2p %llu "
              "(%.2fx reduction)\n",
              static_cast<unsigned long long>(hub4.stats.bytes_total()),
              static_cast<unsigned long long>(delta4.stats.bytes_total()),
              reduction);

  const int count_steps = 4;
  const ControlCounts control = count_control(params, count_steps);
  std::string frames_json = "{";
  std::printf("control frames per index launch @4 ranks (%d fenced steps):",
              count_steps);
  for (const auto& [type, per] : control.frames) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.6g",
                  frames_json.size() > 1 ? ", " : "", type.c_str(), per);
    frames_json += buf;
    std::printf(" %s %.4g", type.c_str(), per);
  }
  frames_json += '}';
  std::printf(" (total %.4g); idxl_xfer launches per index launch %.4g\n",
              control.control_total, control.xfer_launches);

  // Tracing overhead at 4 ranks, delta+p2p: best-of-5 wall clock with the
  // full distributed-tracing stack on (profiling in every process, clock
  // probes, trace-context stamping) against best-of-5 with it off. CI gates
  // the ratio at 1.05. The last traced run also writes the CI artifacts:
  // the merged clock-aligned Chrome trace and the cluster metrics JSON.
  const std::string trace_artifact = artifact_path("dist_stencil_trace.json");
  const std::string metrics_artifact =
      artifact_path("dist_stencil_cluster_metrics.json");
  // The sweep above uses deliberately tiny blocks (576 cells) to stress the
  // wire path; there an iteration is almost entirely IPC wake/sleep latency,
  // and a 5% budget on a mostly-idle denominator gates scheduler jitter, not
  // tracing. The overhead arms use production-shaped blocks instead so the
  // ratio measures tracing cost against real work.
  //
  // Each arm is sized by wall time, at least ~0.5 s: the first untraced
  // arm runs fenced rounds of `oiters` steps until 0.5 s have passed, and
  // every later arm runs as many rounds. An arm of a fixed iteration count
  // shrinks as rounds get faster, and its ratio then gates jitter. Each
  // round ends in a fence because an unfenced pipeline that long slows
  // down with its own length.
  apps::StencilParams oparams = params;
  oparams.nx = oparams.ny = 512;  // 16k cells per block task
  constexpr double kMinArmSeconds = 0.5;
  const int oiters = iters * 2;
  int orounds = 0;
  double best_off = HUGE_VAL, best_on = HUGE_VAL;
  bool traced_ok = true;
  const int reps = 5;  // best-of-5: the gate compares floors, not averages
  for (int rep = 0; rep < reps; ++rep) {
    const Result off = run_once(4, oparams, oiters, /*delta=*/true,
                                /*traced=*/false, "", "", /*warmup=*/true,
                                orounds, rep == 0 ? kMinArmSeconds : 0.0);
    orounds = off.rounds;
    best_off = std::min(best_off, off.seconds);
    const bool last = rep == reps - 1;
    const Result on =
        run_once(4, oparams, oiters, /*delta=*/true, /*traced=*/true,
                 last ? trace_artifact : std::string(),
                 last ? metrics_artifact : std::string(), /*warmup=*/true,
                 orounds);
    best_on = std::min(best_on, on.seconds);
    traced_ok = traced_ok && off.max_err < 1e-12 && on.max_err < 1e-12;
  }
  ok = ok && traced_ok;
  const double overhead_ratio = best_off > 0 ? best_on / best_off : HUGE_VAL;
  std::printf("tracing overhead @4 ranks, %d rounds of %d steps per arm: off "
              "%.3fs, on %.3fs (ratio %.3f)\n",
              orounds, oiters, best_off, best_on, overhead_ratio);
  std::printf("artifacts: %s, %s\n", trace_artifact.c_str(),
              metrics_artifact.c_str());

  bench::BenchJson payload;
  payload
      .field("description",
             "PRK star stencil on the DistributedRuntime, 1-4 fork-mode "
             "processes; points are [ranks, cells/s, payload_bytes] per data "
             "plane, verified bit-identical to the serial reference")
      .field("grid", std::to_string(params.nx) + "x" + std::to_string(params.ny))
      .field("iterations", iters)
      .raw("points_star_hub", points_hub)
      .raw("points_delta_p2p", points_delta)
      .field("bytes_hub_4ranks", hub4.stats.bytes_total())
      .field("bytes_delta_4ranks", delta4.stats.bytes_total())
      .field("bytes_p2p_4ranks", delta4.stats.bytes_p2p)
      .field("bytes_reduction_4ranks", reduction)
      .field("cells_per_s_hub_4ranks", hub4.cells_per_s)
      .field("cells_per_s_delta_4ranks", delta4.cells_per_s)
      .raw("control_frames_per_launch_4ranks", frames_json)
      .field("control_frames_total_per_launch_4ranks", control.control_total)
      .field("xfer_launches_per_launch_4ranks", control.xfer_launches)
      .field("tracing_iterations", orounds * oiters)
      .field("tracing_off_best_s", best_off)
      .field("tracing_on_best_s", best_on)
      .field("tracing_overhead_ratio", overhead_ratio)
      .field("verified", ok ? "true" : "false");
  bench::write_bench_json("dist", std::move(payload));

  if (!ok) {
    std::printf("FAILED: distributed result diverged from the reference\n");
    return 1;
  }
  return 0;
}
