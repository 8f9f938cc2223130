#pragma once

// Shared pieces of the three workloads: run options, the span-recording
// wrapper around a runtime backend, and small measuring helpers.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "report.hpp"
#include "runtime/api.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;           ///< smoke-test sizes, for the in-process tests
  std::string trace_out;       ///< Chrome trace path for --trace 1 ("" = none)
  std::string work_dir;        ///< where transient files go ("" = cwd)
  uint64_t start_ns = 0;       ///< process start, for the first set-up
};

/// A runtime backend whose execute_index and wait_all are wrapped in spans
/// while a recorder is attached. It also keeps copies of the first few
/// launchers it saw, so the launcher codec can be timed on the workload's
/// own descriptors. `Base` is Runtime or dist::DistributedRuntime.
template <typename Base>
class Traced : public Base {
 public:
  static constexpr std::size_t kCaptured = 4;

  template <typename... A>
  explicit Traced(const char* layer, A&&... args)
      : Base(std::forward<A>(args)...), layer_(layer) {}

  void attach(SpanRecorder* rec) { rec_.store(rec, std::memory_order_release); }
  void set_round(uint64_t r) { round_.store(r, std::memory_order_relaxed); }
  const std::vector<idxl::IndexLauncher>& captured() const { return captured_; }

  idxl::LaunchResult execute_index(const idxl::IndexLauncher& l) override {
    if (captured_.size() < kCaptured) captured_.push_back(l);
    ScopedSpan span(rec_.load(std::memory_order_acquire), layer_, "execute_index",
                    round_.load(std::memory_order_relaxed));
    return Base::execute_index(l);
  }
  void wait_all() override {
    ScopedSpan span(rec_.load(std::memory_order_acquire), layer_, "wait_all",
                    round_.load(std::memory_order_relaxed));
    Base::wait_all();
  }

 private:
  const char* layer_;
  std::atomic<SpanRecorder*> rec_{nullptr};
  std::atomic<uint64_t> round_{0};
  std::vector<idxl::IndexLauncher> captured_;  // issuing thread only
};

/// A ratio metric, printed with its base and what it divides.
void set_ratio(Report& r, const std::string& name, const Ratio& q, const std::string& what);

/// Peak resident set of this process / of the largest waited-for child.
double peak_rss_mib();
double children_peak_rss_mib();

/// User plus system CPU seconds of this process / of its waited-for children.
double cpu_seconds();
double children_cpu_seconds();

/// cpu_us_per_task: CPU time the timed phase cost per point task. Outside
/// load on the machine stretches wall time far more than CPU time.
void report_cpu(Report& r, double cpu_s, uint64_t points, const char* whose);

/// Set-ups per run: set-up time is the median of these.
int setup_repeats(const Options& o);

/// setup_s from the set-up times of one run; the human table also gets
/// their spread.
void report_setup(Report& r, const std::vector<double>& setups);

/// Round latencies plus the throughput of a closed-loop timed phase.
struct Phase {
  double wall_s = 0.0;
  uint64_t rounds = 0;
  uint64_t points = 0;
  uint64_t launches = 0;
  uint64_t runtime_launches = 0;  ///< index launches the runtime's stats() counted
  uint64_t runtime_points = 0;    ///< point tasks the runtime's stats() counted
  std::vector<double> round_us;
  double tasks_per_s() const { return wall_s > 0 ? static_cast<double>(points) / wall_s : 0.0; }
  void merge(const Phase& block);
};

/// The timed phase, run as consecutive blocks of about kBlockSeconds. With
/// a recorder every other block is traced, so drift over the run (warming
/// caches, a machine that slows down) affects both sides alike.
inline constexpr double kBlockSeconds = 0.5;
struct Blocks {
  std::vector<Phase> untraced;
  std::vector<Phase> traced;
  Phase all() const;  ///< every block merged
  double traced_wall() const;
};
template <typename RunBlock>  // Phase run_block(double seconds, SpanRecorder* rec)
Blocks run_blocks(double seconds, SpanRecorder* rec, RunBlock run_block) {
  const int n = std::max(2, static_cast<int>(seconds / kBlockSeconds + 0.5));
  Blocks b;
  for (int i = 0; i < n; ++i) {
    const bool traced = rec != nullptr && i % 2 == 1;
    (traced ? b.traced : b.untraced).push_back(run_block(seconds / n, traced ? rec : nullptr));
  }
  return b;
}

/// The blocks least disturbed by other load on the machine: the faster
/// half by throughput, merged. Timing metrics are read from these.
Phase faster_half(std::vector<Phase> blocks);

/// A workload whose round is one timestep of `App` on a Traced runtime,
/// closed by wait_all (circuit_local, stencil_dist4).
template <typename Rt, typename App>
struct TimestepRun {
  std::unique_ptr<Rt> rt;
  std::unique_ptr<App> app;
  int steps = 0;  ///< timesteps issued so far, warm-up included
};

/// Set-up of a TimestepRun, done setup_repeats(o) times; the last one stays
/// in `run`. `make(run)` builds the runtime and the app, then one warm-up
/// timestep runs. The first set-up is timed from process start. Returns
/// the set-up times in seconds.
template <typename Run, typename Make>
std::vector<double> set_up_timesteps(const Options& o, Run& run, Make make) {
  std::vector<double> setups;
  for (int i = 0; i < setup_repeats(o); ++i) {
    run = Run{};
    const uint64_t t0 = i == 0 ? o.start_ns : now_ns();
    make(run);
    run.app->run_iteration();
    run.rt->wait_all();
    run.steps = 1;
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return setups;
}

/// One block of a TimestepRun's closed-loop timed phase: timesteps closed
/// by wait_all until `seconds` pass. The work issued is counted as
/// `launches_per_step` index launches of `points_per_launch` points per
/// round; what the runtime's stats() counted goes next to it, for the
/// workload to check.
template <typename Run>
Phase timestep_phase(Run& run, uint64_t launches_per_step, uint64_t points_per_launch,
                     double seconds, SpanRecorder* rec) {
  Phase ph;
  run.rt->attach(rec);
  const idxl::RuntimeStats s0 = run.rt->stats();
  const uint64_t start = now_ns();
  const auto deadline = start + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t t = start; ph.rounds == 0 || t < deadline;) {
    const auto round_id = static_cast<uint64_t>(run.steps) + ph.rounds;
    run.rt->set_round(round_id);
    {
      ScopedSpan round(rec, "bench", "round", round_id);
      run.app->run_iteration();
      run.rt->wait_all();
    }
    const uint64_t t1 = now_ns();
    ph.round_us.push_back(static_cast<double>(t1 - t) / 1e3);
    ++ph.rounds;
    t = t1;
  }
  ph.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  run.rt->attach(nullptr);
  const idxl::RuntimeStats s1 = run.rt->stats();
  ph.launches = ph.rounds * launches_per_step;
  ph.points = ph.launches * points_per_launch;
  ph.runtime_launches = s1.index_launches - s0.index_launches;
  ph.runtime_points = s1.point_tasks - s0.point_tasks;
  run.steps += static_cast<int>(ph.rounds);
  return ph;
}

/// Counter readings at both ends of the traced phase.
struct CounterWindow {
  idxl::RuntimeStats before;
  idxl::RuntimeStats after;
  idxl::obs::MetricsSnapshot m_before;
  idxl::obs::MetricsSnapshot m_after;
};

/// The `runtime.*` counter metrics (dependence tests and edges per point,
/// group-launch ratio, calls per point, body share, ready wait) and
/// `analysis.verdict_hit_ratio` / `analysis.dynamic_points_timed` from
/// timed-phase deltas, normalised by the workload's own point tasks and
/// index launches in `p`. `label` selects series in the snapshots (the
/// rank="all" roll-up of a cluster snapshot), `slots` is pool workers
/// summed over processes.
void report_runtime_counters(Report& r, const CounterWindow& w, const Phase& p,
                             double slots, const std::vector<std::pair<std::string, std::string>>& label);

/// tasks_per_s / rtt_p50_us / rtt_p99_us from the faster half of the
/// untraced blocks; the human table also gets the all-blocks figures.
void report_rounds(Report& r, const Blocks& b);

/// What every workload's traced run reports alike: the tracing overhead,
/// dynamic checks in the last set-up, the launcher codec timed on
/// `launchers` (the workload's own), the per-layer span table, and the
/// Chrome trace to o.trace_out when set. Returns the span rows.
std::vector<SpanRow> report_traced(Report& r, const Options& o, const Blocks& b,
                                   const SpanRecorder& rec,
                                   const std::vector<idxl::IndexLauncher>& launchers,
                                   uint64_t setup_dynamic_points);

/// `<prefix>_p50` and `<prefix>_p99` from the durations (µs) of one span row.
void report_span_percentiles(Report& r, const std::string& prefix, const SpanRow& row,
                             const char* what);

/// runtime.issue_us_p50/_p99, runtime.issue_share, runtime.fence_ms and
/// runtime.fence_share from the spans around a local Runtime's
/// execute_index and wait_all.
void report_local_runtime_spans(Report& r, const std::vector<SpanRow>& rows, double wall_s);

Report run_circuit_local(const Options& o);
Report run_stencil_dist4(const Options& o);
Report run_service_2tenants(const Options& o);

/// Dispatch by name; false when the workload is unknown.
bool run_workload(const Options& o, Report* out);

}  // namespace perfbench
