#include "runtime/runtime.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <unordered_set>

namespace idxl {

namespace {

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return !(v[0] == '0' || v[0] == 'n' || v[0] == 'N' || v[0] == 'f' || v[0] == 'F');
}

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// IDXL_* environment overrides for the observability knobs, so a hung
/// production run can be re-launched with a watchdog (or the recorder
/// resized) without a rebuild. Documented in docs/OBSERVABILITY.md.
RuntimeConfig apply_env_overrides(RuntimeConfig cfg) {
  cfg.enable_flight_recorder =
      env_flag("IDXL_FLIGHT_RECORDER", cfg.enable_flight_recorder);
  cfg.flight_recorder_capacity = static_cast<std::size_t>(
      env_u64("IDXL_FLIGHT_CAPACITY", cfg.flight_recorder_capacity));
  cfg.enable_watchdog = env_flag("IDXL_WATCHDOG", cfg.enable_watchdog);
  cfg.watchdog_check_period_ms = static_cast<uint32_t>(
      env_u64("IDXL_WATCHDOG_PERIOD_MS", cfg.watchdog_check_period_ms));
  cfg.watchdog_stall_window_ms = static_cast<uint32_t>(
      env_u64("IDXL_WATCHDOG_WINDOW_MS", cfg.watchdog_stall_window_ms));
  cfg.watchdog_abort = env_flag("IDXL_WATCHDOG_ABORT", cfg.watchdog_abort);
  cfg.watchdog_cancel = env_flag("IDXL_WATCHDOG_CANCEL", cfg.watchdog_cancel);
  if (const char* v = std::getenv("IDXL_WATCHDOG_DUMP")) cfg.watchdog_dump_path = v;
  if (auto plan = FaultPlan::from_env()) cfg.fault_plan = std::move(plan);
  return cfg;
}

obs::LifecycleDetail detail_of(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException: return obs::LifecycleDetail::kException;
    case FaultKind::kExplicit: return obs::LifecycleDetail::kExplicitFail;
    case FaultKind::kInjected: return obs::LifecycleDetail::kInjected;
    case FaultKind::kTimeout: return obs::LifecycleDetail::kTimeout;
    case FaultKind::kCancelled: return obs::LifecycleDetail::kCancel;
    default: return obs::LifecycleDetail::kNone;
  }
}

obs::LifecycleDetail detail_of(SafetyOutcome outcome) {
  switch (outcome) {
    case SafetyOutcome::kSafeStatic: return obs::LifecycleDetail::kSafeStatic;
    case SafetyOutcome::kSafeDynamic: return obs::LifecycleDetail::kSafeDynamic;
    case SafetyOutcome::kSafeUnchecked: return obs::LifecycleDetail::kSafeUnchecked;
    case SafetyOutcome::kUnsafe: return obs::LifecycleDetail::kUnsafe;
  }
  return obs::LifecycleDetail::kNone;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config, std::shared_ptr<RegionForest> forest)
    : config_(apply_env_overrides(std::move(config))),
      forest_(forest != nullptr ? std::move(forest)
                                : std::make_shared<RegionForest>()),
      tracker_(*forest_),
      group_(*forest_),
      profiler_(std::make_unique<Profiler>(config_.enable_profiling)),
      prof_(config_.enable_profiling ? profiler_.get() : nullptr),
      recorder_(config_.enable_flight_recorder, config_.flight_recorder_capacity,
                profiler_->epoch_ns()),
      rec_(config_.enable_flight_recorder ? &recorder_ : nullptr),
      pool_(std::make_unique<ThreadPool>(config_.workers)),
      live_enabled_(config_.enable_watchdog),
      fault_plan_(config_.fault_plan) {
  init_metrics();
  if (config_.enable_watchdog) {
    obs::WatchdogConfig wc;
    wc.check_period_ms = config_.watchdog_check_period_ms;
    wc.stall_window_ms = config_.watchdog_stall_window_ms;
    wc.tail_events = config_.watchdog_tail_events;
    wc.abort_on_stall = config_.watchdog_abort;
    wc.cancel_on_stall = config_.watchdog_cancel;
    wc.dump_path = config_.watchdog_dump_path;
    watchdog_ = std::make_unique<obs::Watchdog>(
        std::move(wc),
        [this] {
          const uint64_t done = cells_.tasks_completed.value();
          return std::pair<uint64_t, uint64_t>(
              done, cells_.point_tasks.value() - done);
        },
        [this] {
          if (rec_ != nullptr) {
            obs::FlightEvent ev;
            ev.kind = obs::LifecycleEvent::kStall;
            rec_->record(ev);
          }
          return stall_report();
        });
    watchdog_->set_stall_action([this] { cancel_all(); });
    watchdog_->start();
  }
}

void Runtime::cancel_all() { cancel_all_.store(true, std::memory_order_release); }

void Runtime::clear_faults() {
  faults_.clear();
  cancel_all_.store(false, std::memory_order_release);
}

Runtime::~Runtime() {
  if (watchdog_ != nullptr) watchdog_->stop();
  metrics_.stop_sampler();
  wait_all();
}

void Runtime::init_metrics() {
  obs::MetricsRegistry& m = metrics_;
  cells_.runtime_calls =
      m.counter("idxl_runtime_calls_total", "task issuance API calls");
  cells_.single_launches = m.counter("idxl_launches_total", "launches by kind",
                                     {{"kind", "single"}});
  cells_.index_launches = m.counter("idxl_launches_total", "", {{"kind", "index"}});
  cells_.point_tasks = m.counter("idxl_point_tasks_total", "point tasks issued");
  cells_.tasks_completed =
      m.counter("idxl_tasks_completed_total", "task bodies completed");
  cells_.dependence_edges =
      m.counter("idxl_dependence_edges_total", "dependence edges discovered");
  const char* safety_help = "index-launch safety verdicts by outcome";
  cells_.safe_static = m.counter("idxl_launch_safety_total", safety_help,
                                 {{"outcome", "safe_static"}});
  cells_.safe_dynamic = m.counter("idxl_launch_safety_total", safety_help,
                                  {{"outcome", "safe_dynamic"}});
  cells_.safe_unchecked = m.counter("idxl_launch_safety_total", safety_help,
                                    {{"outcome", "safe_unchecked"}});
  cells_.assumed_verified = m.counter("idxl_launch_safety_total", safety_help,
                                      {{"outcome", "assumed_verified"}});
  cells_.unsafe =
      m.counter("idxl_launch_safety_total", safety_help, {{"outcome", "unsafe"}});
  cells_.dynamic_check_points = m.counter(
      "idxl_dynamic_check_points_total", "functor evaluations in dynamic checks");
  cells_.traced_replayed = m.counter("idxl_traced_tasks_replayed_total",
                                     "tasks replayed from captured traces");
  cells_.cache_hit_launches =
      m.counter("idxl_verdict_cache_launches_total",
                "launches by verdict-cache result", {{"result", "hit"}});
  cells_.cache_miss_launches =
      m.counter("idxl_verdict_cache_launches_total", "", {{"result", "miss"}});
  cells_.group_launches = m.counter("idxl_group_launches_total",
                                    "index launches issued on the group path");
  cells_.group_edges = m.counter("idxl_group_edges_total",
                                 "launch-level summary conflicts (O(args))");
  cells_.group_fallbacks = m.counter(
      "idxl_group_fallbacks_total", "safe launches forced onto the per-point path");
  cells_.group_materializations = m.counter(
      "idxl_group_materializations_total", "trees flushed group -> per-point");
  cells_.interference_pair_tests =
      m.counter("idxl_interference_pair_tests_total",
                "inter-launch pair analyses run (cache misses)");
  cells_.interference_skips =
      m.counter("idxl_interference_skips_total",
                "group-walk skips authorized by checked pair certificates");
  const char* fault_help = "terminally failed tasks by root cause";
  cells_.fault_exception =
      m.counter("idxl_fault_tasks_total", fault_help, {{"kind", "exception"}});
  cells_.fault_explicit =
      m.counter("idxl_fault_tasks_total", "", {{"kind", "explicit"}});
  cells_.fault_injected =
      m.counter("idxl_fault_tasks_total", "", {{"kind", "injected"}});
  cells_.fault_timeout = m.counter("idxl_fault_tasks_total", "", {{"kind", "timeout"}});
  cells_.fault_cancelled =
      m.counter("idxl_fault_tasks_total", "", {{"kind", "cancelled"}});
  cells_.fault_poisoned = m.counter(
      "idxl_fault_poisoned_total", "tasks skipped because an upstream failure poisoned them");
  cells_.fault_injections =
      m.counter("idxl_fault_injections_total", "FaultPlan injections fired");
  cells_.retry_attempts =
      m.counter("idxl_retry_attempts_total", "failed attempts re-enqueued");
  cells_.retry_succeeded = m.counter("idxl_retry_succeeded_total",
                                     "tasks that succeeded after at least one retry");
  cells_.task_duration =
      m.histogram("idxl_task_duration_ns", "task body execution time");
  cells_.queue_wait =
      m.histogram("idxl_task_queue_wait_ns", "ready -> running scheduler latency");

  // Externally-owned values surface as gauges refreshed by a collector at
  // snapshot time — the trackers, verdict cache, pool and recorder keep
  // their own (thread-safe) counters.
  const obs::Gauge dep_tests = m.gauge(
      "idxl_dependence_tests", "per-use conflict tests, both tiers (live)");
  const obs::Gauge vc_hits =
      m.gauge("idxl_verdict_cache_hits", "verdict cache lookup hits");
  const obs::Gauge vc_misses =
      m.gauge("idxl_verdict_cache_misses", "verdict cache lookup misses");
  const obs::Gauge vc_uncacheable = m.gauge(
      "idxl_verdict_cache_uncacheable", "lookups skipped (opaque functor)");
  const obs::Gauge vc_entries =
      m.gauge("idxl_verdict_cache_entries", "verdicts currently cached");
  const obs::Gauge ic_hits =
      m.gauge("idxl_interference_cache_hits", "pair-verdict cache lookup hits");
  const obs::Gauge ic_misses =
      m.gauge("idxl_interference_cache_misses", "pair-verdict cache lookup misses");
  const obs::Gauge ic_imported = m.gauge("idxl_interference_cache_imported",
                                         "pair certificates received from a driver");
  const obs::Gauge ic_validated =
      m.gauge("idxl_interference_cache_validated",
              "imported pair certificates that passed the checker");
  const obs::Gauge ic_rejected =
      m.gauge("idxl_interference_cache_rejected",
              "imported pair certificates refused by the checker");
  const obs::Gauge ic_entries =
      m.gauge("idxl_interference_cache_entries", "pair verdicts currently cached");
  const obs::Gauge q_depth =
      m.gauge("idxl_pool_queue_depth", "ready tasks waiting for a worker");
  const obs::Gauge q_exec =
      m.gauge("idxl_pool_executing", "tasks mid-execution on workers");
  const obs::Gauge q_workers = m.gauge("idxl_pool_workers", "worker threads");
  const obs::Gauge fr_events = m.gauge("idxl_flight_recorder_events",
                                       "lifecycle events recorded (monotone)");
  const obs::Gauge fr_over = m.gauge("idxl_flight_recorder_overwritten",
                                     "lifecycle events lost to ring wraparound");
  m.add_collector([this, dep_tests, vc_hits, vc_misses, vc_uncacheable,
                   vc_entries, ic_hits, ic_misses, ic_imported, ic_validated,
                   ic_rejected, ic_entries, q_depth, q_exec, q_workers, fr_events,
                   fr_over] {
    dep_tests.set(static_cast<int64_t>(tracker_.dependence_tests() +
                                       group_.dependence_tests()));
    const VerdictCache::Counters c = verdict_cache_.counters();
    vc_hits.set(static_cast<int64_t>(c.hits));
    vc_misses.set(static_cast<int64_t>(c.misses));
    vc_uncacheable.set(static_cast<int64_t>(c.uncacheable));
    vc_entries.set(static_cast<int64_t>(verdict_cache_.size()));
    const InterferenceCache::Counters ic = interference_cache_.counters();
    ic_hits.set(static_cast<int64_t>(ic.hits));
    ic_misses.set(static_cast<int64_t>(ic.misses));
    ic_imported.set(static_cast<int64_t>(ic.imported));
    ic_validated.set(static_cast<int64_t>(ic.validated));
    ic_rejected.set(static_cast<int64_t>(ic.rejected));
    ic_entries.set(static_cast<int64_t>(interference_cache_.size()));
    q_depth.set(static_cast<int64_t>(pool_->queue_depth()));
    q_exec.set(static_cast<int64_t>(pool_->executing()));
    q_workers.set(static_cast<int64_t>(pool_->worker_count()));
    fr_events.set(static_cast<int64_t>(recorder_.recorded()));
    fr_over.set(static_cast<int64_t>(recorder_.overwritten()));
  });
}

RuntimeStats Runtime::stats() const {
  const obs::MetricsSnapshot snap = metrics_.snapshot();
  RuntimeStats s;
  s.runtime_calls = snap.value("idxl_runtime_calls_total");
  s.single_launches = snap.value("idxl_launches_total", {{"kind", "single"}});
  s.index_launches = snap.value("idxl_launches_total", {{"kind", "index"}});
  s.point_tasks = snap.value("idxl_point_tasks_total");
  s.tasks_completed = snap.value("idxl_tasks_completed_total");
  s.dependence_edges = snap.value("idxl_dependence_edges_total");
  s.launches_safe_static =
      snap.value("idxl_launch_safety_total", {{"outcome", "safe_static"}});
  s.launches_safe_dynamic =
      snap.value("idxl_launch_safety_total", {{"outcome", "safe_dynamic"}});
  s.launches_safe_unchecked =
      snap.value("idxl_launch_safety_total", {{"outcome", "safe_unchecked"}});
  s.launches_assumed_verified =
      snap.value("idxl_launch_safety_total", {{"outcome", "assumed_verified"}});
  s.launches_unsafe = snap.value("idxl_launch_safety_total", {{"outcome", "unsafe"}});
  s.dynamic_check_points = snap.value("idxl_dynamic_check_points_total");
  s.traced_tasks_replayed = snap.value("idxl_traced_tasks_replayed_total");
  s.dependence_tests = snap.value("idxl_dependence_tests");
  s.verdict_cache_hits =
      snap.value("idxl_verdict_cache_launches_total", {{"result", "hit"}});
  s.verdict_cache_misses =
      snap.value("idxl_verdict_cache_launches_total", {{"result", "miss"}});
  s.group_launches = snap.value("idxl_group_launches_total");
  s.group_edges = snap.value("idxl_group_edges_total");
  s.group_fallbacks = snap.value("idxl_group_fallbacks_total");
  s.group_materializations = snap.value("idxl_group_materializations_total");
  s.interference_pair_tests = snap.value("idxl_interference_pair_tests_total");
  s.interference_skips = snap.value("idxl_interference_skips_total");
  s.interference_cache_hits = snap.value("idxl_interference_cache_hits");
  s.interference_cache_misses = snap.value("idxl_interference_cache_misses");
  s.interference_imported = snap.value("idxl_interference_cache_imported");
  s.interference_validated = snap.value("idxl_interference_cache_validated");
  s.interference_rejected = snap.value("idxl_interference_cache_rejected");
  for (const char* kind : {"exception", "explicit", "injected", "timeout", "cancelled"})
    s.tasks_failed += snap.value("idxl_fault_tasks_total", {{"kind", kind}});
  s.tasks_poisoned = snap.value("idxl_fault_poisoned_total");
  s.fault_injections = snap.value("idxl_fault_injections_total");
  s.retry_attempts = snap.value("idxl_retry_attempts_total");
  s.retries_succeeded = snap.value("idxl_retry_succeeded_total");
  return s;
}

obs::Counter& Runtime::fault_cell(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException: return cells_.fault_exception;
    case FaultKind::kExplicit: return cells_.fault_explicit;
    case FaultKind::kInjected: return cells_.fault_injected;
    case FaultKind::kTimeout: return cells_.fault_timeout;
    case FaultKind::kCancelled: return cells_.fault_cancelled;
    default: return cells_.fault_poisoned;
  }
}

obs::StallReport Runtime::stall_report() const {
  obs::StallReport report;
  report.completed = cells_.tasks_completed.value();
  report.pending = cells_.point_tasks.value() - report.completed;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    report.blocked.reserve(live_.size());
    for (const auto& [seq, task] : live_) {
      obs::BlockedTask bt;
      bt.seq = seq;
      bt.launch = task.launch;
      bt.label = task.label;
      // Report only the waits-for edges still unsatisfied: a predecessor
      // that completed has left the live table.
      for (uint64_t dep : task.deps)
        if (live_.count(dep) != 0) bt.waits_for.push_back(dep);
      report.blocked.push_back(std::move(bt));
    }
  }
  std::sort(report.blocked.begin(), report.blocked.end(),
            [](const obs::BlockedTask& a, const obs::BlockedTask& b) {
              return a.seq < b.seq;
            });
  report.recent = recorder_.tail(config_.watchdog_tail_events);
  report.metrics = metrics_.snapshot();
  return report;
}

void Runtime::record_ready(const TaskNode& node, uint64_t edge) {
  if (rec_ == nullptr) return;
  obs::FlightEvent ev;
  ev.kind = obs::LifecycleEvent::kReady;
  ev.seq = node.seq;
  ev.launch = node.launch;
  ev.edge = edge;
  rec_->record(ev);
}

TaskFnId Runtime::register_task(std::string name, TaskFn fn) {
  IDXL_REQUIRE(static_cast<bool>(fn), "task body must be callable");
  task_prof_names_.push_back(prof_ != nullptr ? prof_->intern(name) : 0);
  task_registry_.emplace_back(std::move(name), std::move(fn));
  return static_cast<TaskFnId>(task_registry_.size() - 1);
}

namespace {

/// Apply a remote owner's outcome to an external node's mapped regions.
/// Full-block outcomes (has_data) carry every written argument's bytes in
/// order; slim delta-mode outcomes carry only the rect patches addressed to
/// this rank — usually none, because the data plane ships bytes lazily when
/// a later consumer actually reads them.
void apply_remote_outcome(const RemoteOutcome& o,
                          std::vector<PhysicalRegion>& regions) {
  if (o.has_data) {
    std::size_t off = 0;
    for (PhysicalRegion& r : regions)
      if (privilege_writes(r.privilege())) off = r.copy_in(o.region_bytes, off);
    IDXL_REQUIRE(off == o.region_bytes.size(),
                 "remote outcome bytes do not match the task's written regions");
    return;
  }
  for (const RegionPatch& p : o.patches) {
    IDXL_REQUIRE(p.arg < regions.size(),
                 "remote region patch names an argument out of range");
    regions[p.arg].copy_in_rect(p.field, p.rect, p.bytes);
  }
}

}  // namespace

LaunchResult Runtime::execute(const TaskLauncher& launcher) {
  ProfileScope issue_scope(prof_, ProfCategory::kIssue, Profiler::kNameIssue);
  cells_.runtime_calls.inc();
  cells_.single_launches.inc();
  const uint64_t launch_id = next_launch_id_++;
  // A replicated descriptor carries the launch id its origin assigned; a
  // disagreement means this rank's issue stream diverged from the driver's.
  IDXL_REQUIRE(
      !launcher.trace_ctx.valid() || launcher.trace_ctx.launch == launch_id,
      "replicated launch id diverged from the descriptor's trace context");
  LaunchResult result;  // single task: trivially safe, never an index launch
  result.launch_id = launch_id;
  std::shared_ptr<Future::State> collect;
  if (launcher.result_redop != ReductionOp::kNone) {
    collect = std::make_shared<Future::State>();
    collect->op = launcher.result_redop;
    collect->values.assign(1, 0.0);
    result.future.state_ = collect;
  }
  issue_point_task(launcher.task, launcher.point, launcher.launch_domain,
                   launcher.args, launcher.scalar_args, launch_id, collect,
                   collect != nullptr ? 0 : -1,
                   RetryPolicy{launcher.max_retries, launcher.retry_backoff_ms,
                               launcher.timeout_ms},
                   launcher.internal);
  return result;
}

std::vector<RegionArg> Runtime::project_args(const IndexLauncher& launcher,
                                             const Point& p) {
  std::vector<RegionArg> args;
  args.reserve(launcher.args.size());
  for (const ProjectedArg& pa : launcher.args) {
    const Point color = pa.functor(p);
    RegionArg ra;
    ra.region = forest_->subregion(pa.parent, pa.partition, color);
    ra.fields = pa.fields;
    ra.privilege = pa.privilege;
    ra.redop = pa.redop;
    args.push_back(std::move(ra));
  }
  return args;
}

void Runtime::expand_as_task_loop(const IndexLauncher& launcher,
                                  uint64_t launch_id,
                                  const std::shared_ptr<Future::State>& collect) {
  // The "original task loop" branch: |D| individual launches in program
  // order, each a separate runtime call (this is what the paper's No-IDX
  // configurations measure).
  const RetryPolicy policy{launcher.max_retries, launcher.retry_backoff_ms,
                           launcher.timeout_ms};
  int64_t rank = 0;
  launcher.domain.for_each([&](const Point& p) {
    cells_.runtime_calls.inc();
    cells_.single_launches.inc();
    issue_point_task(launcher.task, p, launcher.domain, project_args(launcher, p),
                     launcher.scalar_args, launch_id, collect, rank++, policy);
  });
}

bool Runtime::group_eligible(const IndexLauncher& launcher) {
  // Every argument must go through a disjoint partition with an analyzable
  // (symbolic) functor, on a tree that is not summarized by a *different*
  // partition and holds no un-summarized per-point state. A launch using
  // two different partitions of one tree cannot be summarized either.
  for (std::size_t i = 0; i < launcher.args.size(); ++i) {
    const ProjectedArg& pa = launcher.args[i];
    if (!forest_->is_disjoint(pa.partition)) return false;
    if (!pa.functor.is_symbolic()) return false;
    const uint32_t tree = forest_->region(pa.parent).tree_id;
    if (!group_.groupable(tree, pa.partition)) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (forest_->region(launcher.args[j].parent).tree_id == tree &&
          launcher.args[j].partition != pa.partition)
        return false;
    }
  }
  return true;
}

void Runtime::materialize_tree(uint32_t tree) {
  if (!group_.has_state(tree)) return;
  ProfileScope scope(prof_, ProfCategory::kDependence, Profiler::kNameMaterialize);
  if (group_.materialize_into(tracker_, tree)) cells_.group_materializations.inc();
}

bool Runtime::history_certified_disjoint(uint32_t tree, const LaunchArgSummary& s,
                                         LazyFingerprint& fp) {
  ProfileScope scope(prof_, ProfCategory::kSafety, Profiler::kNameSafetyCheck);
  uint64_t pair_tests = 0;
  const bool disjoint = interference_history_.certified_disjoint(
      tree, s, fp, interference_cache_, !config_.interference_import_only,
      &pair_tests);
  cells_.interference_pair_tests.inc(pair_tests);
  return disjoint;
}

std::vector<std::byte> Runtime::export_interference_bundle() const {
  return encode_interference_bundle(interference_cache_.exportable());
}

void Runtime::import_interference_bundle(const std::vector<std::byte>& bytes) {
  auto entries = decode_interference_bundle(bytes.data(), bytes.size());
  if (!entries.has_value()) return;  // malformed framing: refuse wholesale
  for (auto& [key, cert] : *entries)
    interference_cache_.insert_unchecked(key, std::move(cert));
}

LaunchResult Runtime::execute_index(const IndexLauncher& launcher) {
  IDXL_REQUIRE(launcher.task < task_registry_.size(), "unknown task id");
  IDXL_REQUIRE(!launcher.domain.empty(), "index launch over an empty domain");
  ProfileScope issue_scope(prof_, ProfCategory::kIssue,
                           prof_ != nullptr ? task_prof_names_[launcher.task]
                                            : Profiler::kNameIssue);

  // Materialize every argument's subregion table before any expansion path
  // resolves points: region ids are assigned at first touch, and the paths
  // below touch subregions in different orders (table-at-once vs per-point).
  // Pinning creation to argument-major table order keeps lazily-created ids
  // identical across replicated issue streams — the distributed runtime
  // ships RegionIds in routing directives, so every rank must agree.
  for (const ProjectedArg& pa : launcher.args)
    forest_->subregion_table(pa.parent, pa.partition);

  LaunchResult result;
  std::shared_ptr<Future::State> collect;
  if (launcher.result_redop != ReductionOp::kNone) {
    collect = std::make_shared<Future::State>();
    collect->op = launcher.result_redop;
    collect->values.assign(static_cast<std::size_t>(launcher.domain.volume()), 0.0);
    result.future.state_ = collect;
  }

  const uint64_t launch_id = next_launch_id_++;
  // See execute(): replicated descriptors assert launch-stream alignment.
  IDXL_REQUIRE(
      !launcher.trace_ctx.valid() || launcher.trace_ctx.launch == launch_id,
      "replicated launch id diverged from the descriptor's trace context");
  result.launch_id = launch_id;
  if (rec_ != nullptr) {
    obs::FlightEvent ev;
    ev.kind = obs::LifecycleEvent::kIssued;
    ev.launch = launch_id;
    rec_->record(ev);
  }

  if (!config_.enable_index_launches) {
    // No-IDX mode: the launch group is issued as individual tasks. Safety
    // is the application's own program order, so no analysis runs.
    expand_as_task_loop(launcher, launch_id, collect);
    return result;
  }

  cells_.runtime_calls.inc();  // one bulk issuance call (§5)

  // A descriptor shipped from a driver may carry an interference-certificate
  // bundle: adopt it (checker-gated, via lookup-time validation) so the group
  // walk can skip pairs the driver already proved disjoint.
  if (!launcher.analysis_bundle.empty()) {
    import_interference_bundle(launcher.analysis_bundle);
  }

  if (launcher.assume_verified) {
    cells_.assumed_verified.inc();
    result.safety.outcome = SafetyOutcome::kSafeUnchecked;
    if (rec_ != nullptr) {
      obs::FlightEvent ev;
      ev.kind = obs::LifecycleEvent::kAnalyzed;
      ev.launch = launch_id;
      ev.detail = obs::LifecycleDetail::kAssumedVerified;
      rec_->record(ev);
    }
  } else if (!replaying_) {
    // Hybrid safety analysis (§3/§4). When replaying a trace the launch was
    // already verified during capture.
    std::vector<CheckArg> check_args;
    check_args.reserve(launcher.args.size());
    for (const ProjectedArg& pa : launcher.args) {
      CheckArg ca;
      ca.functor = &pa.functor;
      ca.color_space = forest_->color_space(pa.partition);
      ca.partition_disjoint = forest_->is_disjoint(pa.partition);
      ca.partition_uid = pa.partition.id;
      ca.collection_uid = forest_->region(pa.parent).tree_id;
      ca.field_mask = field_mask(pa.fields);
      ca.priv = pa.privilege;
      ca.redop = pa.redop;
      check_args.push_back(ca);
    }
    AnalysisOptions options;
    options.enable_dynamic_checks = config_.enable_dynamic_checks;
    options.extended_static = config_.extended_static_analysis;
    options.profiler = prof_;
    if (config_.enable_verdict_cache) options.verdict_cache = &verdict_cache_;
    auto pair_independent = [&](std::size_t i, std::size_t j) {
      return forest_->partitions_independent(launcher.args[i].parent,
                                            launcher.args[i].partition,
                                            launcher.args[j].parent,
                                            launcher.args[j].partition);
    };
    {
      ProfileScope safety_scope(prof_, ProfCategory::kSafety,
                                Profiler::kNameSafetyCheck);
      result.safety = analyze_launch_safety(check_args, launcher.domain, options,
                                            pair_independent);
    }
    cells_.dynamic_check_points.inc(result.safety.dynamic_points);
    if (config_.enable_verdict_cache) {
      if (result.safety.cache_hit)
        cells_.cache_hit_launches.inc();
      else
        cells_.cache_miss_launches.inc();
    }
    if (rec_ != nullptr) {
      obs::FlightEvent ev;
      ev.kind = obs::LifecycleEvent::kAnalyzed;
      ev.launch = launch_id;
      ev.detail = detail_of(result.safety.outcome);
      rec_->record(ev);
    }

    switch (result.safety.outcome) {
      case SafetyOutcome::kSafeStatic: cells_.safe_static.inc(); break;
      case SafetyOutcome::kSafeDynamic: cells_.safe_dynamic.inc(); break;
      case SafetyOutcome::kSafeUnchecked: cells_.safe_unchecked.inc(); break;
      case SafetyOutcome::kUnsafe: {
        cells_.unsafe.inc();
        IDXL_REQUIRE(!config_.strict_unsafe,
                     ("unsafe index launch: " + result.safety.reason).c_str());
        expand_as_task_loop(launcher, launch_id, collect);
        return result;
      }
    }
  }

  // Safe: expand into point tasks. In this in-process executor "expansion"
  // assigns work directly to the scheduler; src/dist splits it across
  // ranks, and src/sim models sharded vs sliced distribution at scale.
  result.ran_as_index_launch = true;
  cells_.index_launches.inc();

  if (replaying_) {
    // Replay bypasses both dependence tiers: edges come from the capture.
    const RetryPolicy policy{launcher.max_retries, launcher.retry_backoff_ms,
                             launcher.timeout_ms};
    int64_t rank = 0;
    launcher.domain.for_each([&](const Point& p) {
      issue_point_task(launcher.task, p, launcher.domain, project_args(launcher, p),
                       launcher.scalar_args, launch_id, collect, rank++, policy);
    });
    if (rec_ != nullptr) {
      obs::FlightEvent ev;
      ev.kind = obs::LifecycleEvent::kExpanded;
      ev.launch = launch_id;
      ev.detail = obs::LifecycleDetail::kReplay;
      rec_->record(ev);
    }
    return result;
  }

  // Two-tier dependence analysis (§5): group-level when every argument is
  // analyzable at whole-partition granularity, per-point otherwise.
  const bool group_mode = config_.enable_group_analysis && group_eligible(launcher);
  if (group_mode) {
    cells_.group_launches.inc();
  } else if (config_.enable_group_analysis) {
    cells_.group_fallbacks.inc();
    if (rec_ != nullptr) {
      obs::FlightEvent ev;
      ev.kind = obs::LifecycleEvent::kGroupFallback;
      ev.launch = launch_id;
      rec_->record(ev);
    }
  }
  expand_index_launch(launcher, launch_id, collect, group_mode,
                      result.safety.outcome);
  if (rec_ != nullptr) {
    obs::FlightEvent ev;
    ev.kind = obs::LifecycleEvent::kExpanded;
    ev.launch = launch_id;
    rec_->record(ev);
  }
  return result;
}

/// Per-launch state shared between the issuing thread and the chunk jobs
/// that build point closures on pool workers. Kept alive by shared_ptr from
/// every chunk job and every point closure.
struct Runtime::LaunchArena {
  TaskFn body;  // copied: the registry may grow while workers run
  TaskFnId fn = UINT32_MAX;  // forwarded into TaskContext::fn for hooks
  ArgBuffer scalar;
  Domain launch_domain;
  std::shared_ptr<Future::State> collect;
  /// One prototype table per region argument; slots are filled by the
  /// issuing thread before the chunk jobs reading them are submitted.
  std::vector<std::shared_ptr<ProtoTable>> protos;
  std::size_t n_args = 0;
};

void Runtime::finalize_deps(const TaskNodePtr& node, std::vector<TaskNodePtr>& deps) {
  cells_.dependence_edges.inc(deps.size());
  if (live_enabled_) {
    LiveTask lt;
    lt.label = node->label;
    lt.launch = node->launch;
    lt.deps.reserve(deps.size());
    for (const TaskNodePtr& dep : deps) lt.deps.push_back(dep->seq);
    std::lock_guard<std::mutex> lock(live_mu_);
    live_.emplace(node->seq, std::move(lt));
  }
  if (config_.record_task_graph) {
    graph_nodes_.emplace_back(node->seq, node->label);
    for (const TaskNodePtr& dep : deps) graph_edges_.emplace_back(dep->seq, node->seq);
  }
  if (prof_ != nullptr) {
    std::vector<uint64_t> dep_seqs;
    dep_seqs.reserve(deps.size());
    for (const TaskNodePtr& dep : deps) dep_seqs.push_back(dep->seq);
    prof_->record_edges(node->seq, dep_seqs);
  }
}

void Runtime::capture_trace_step(TaskFnId fn, const Point& point,
                                 std::vector<uint32_t> ispaces,
                                 const std::vector<TaskNodePtr>& deps,
                                 const TaskNodePtr& node) {
  ProfileScope capture_scope(prof_, ProfCategory::kTrace,
                             Profiler::kNameTraceCapture, node->seq);
  TraceStep step;
  step.fn = fn;
  step.point = point;
  step.ispaces = std::move(ispaces);
  for (const TaskNodePtr& d : deps) {
    auto it = trace_index_.find(d.get());
    // Pre-trace dependencies are dropped: traces are fenced, so they are
    // satisfied by construction on replay.
    if (it != trace_index_.end()) step.dep_indices.push_back(it->second);
  }
  active_trace_->steps.push_back(std::move(step));
  trace_index_.emplace(node.get(), static_cast<uint32_t>(trace_nodes_.size()));
  trace_nodes_.push_back(node);
}

void Runtime::expand_index_launch(const IndexLauncher& launcher,
                                  uint64_t launch_id,
                                  const std::shared_ptr<Future::State>& collect,
                                  bool group_mode, SafetyOutcome outcome) {
  const std::size_t n_args = launcher.args.size();

  auto arena = std::make_shared<LaunchArena>();
  arena->body = task_registry_[launcher.task].second;
  arena->fn = launcher.task;
  arena->scalar = launcher.scalar_args;
  arena->launch_domain = launcher.domain;
  arena->collect = collect;
  arena->n_args = n_args;
  arena->protos.reserve(n_args);

  // Per-argument launch plan: everything the per-point loop needs, resolved
  // once. The subregion table memoizes forest lookups per color; prototype
  // PhysicalRegions are filled per color on first touch so chunk jobs never
  // read the forest from worker threads.
  struct ArgPlan {
    const std::vector<RegionId>* table = nullptr;  // subregion by color rank
    const Rect* colors = nullptr;
    const std::vector<FieldId>* fields = nullptr;
    const ProjectionFunctor* functor = nullptr;
    ProtoTable* protos = nullptr;
    std::size_t n_colors = 0;
    uint32_t tree = 0;
    PartitionId partition;
    bool disjoint = false;
    uint64_t mask = 0;
    bool writes = false;
    Privilege priv = Privilege::kRead;
    ReductionOp redop = ReductionOp::kNone;
    bool scan = true;  // group mode: walk the per-color lists at all?
  };
  std::vector<ArgPlan> plans;
  plans.reserve(n_args);
  for (const ProjectedArg& pa : launcher.args) {
    pa.functor.ensure_compiled();
    ArgPlan plan;
    plan.table = &forest_->subregion_table(pa.parent, pa.partition);
    plan.colors = &forest_->color_space(pa.partition);
    plan.fields = &pa.fields;
    plan.functor = &pa.functor;
    plan.n_colors = plan.table->size();
    plan.tree = forest_->region(pa.parent).tree_id;
    plan.partition = pa.partition;
    plan.disjoint = forest_->is_disjoint(pa.partition);
    plan.mask = field_mask(pa.fields);
    plan.writes = privilege_writes(pa.privilege);
    plan.priv = pa.privilege;
    plan.redop = pa.redop;
    const ProtoKey key{pa.parent.id, pa.partition.id, plan.mask, pa.privilege,
                       pa.redop};
    auto [it, inserted] = proto_cache_.try_emplace(key);
    if (inserted) it->second = std::make_shared<ProtoTable>(plan.n_colors);
    arena->protos.push_back(it->second);
    plan.protos = it->second.get();
    plans.push_back(std::move(plan));
  }

  if (group_mode) {
    // Launch-level summary tests: one O(1) field-mask test per argument is
    // the group→group edge discovery (idxl_group_edges_total counts hits).
    // Write arguments always walk their color lists — a safe launch's
    // writers are either injective (one point per color) or commuting
    // reductions that the executor orders serially, and only the list walk
    // chains the latter. Read arguments skip the walk entirely unless a
    // prior (or same-launch) writer could conflict.
    //
    // Inter-launch short-circuit: an argument certified kDisjoint against
    // *every* summary recorded on its tree since the fence skips the walk
    // even when the union-mask summary test fires — the certificate proves
    // the walk would discover nothing (disjoint fields, or image-separated
    // color sets of one disjoint partition). Writer skips additionally
    // require a kSafeStatic/kSafeDynamic launch (injective writers need no
    // ordering among their own points) and a plain write privilege —
    // commuting reductions are ordered serially by the walk, so they never
    // skip. Uncertified skips are impossible: kDisjoint only leaves the
    // analyzer/cache with a CertificateChecker-validated proof.
    const bool pair_analysis = config_.enable_interference_analysis &&
                               (outcome == SafetyOutcome::kSafeStatic ||
                                outcome == SafetyOutcome::kSafeDynamic);
    std::vector<LaunchArgSummary> summaries;
    std::vector<LazyFingerprint> fps;
    if (config_.enable_interference_analysis) {
      summaries.reserve(n_args);
      fps.resize(n_args);  // fingerprints build lazily, on first pair test
      for (std::size_t a = 0; a < n_args; ++a) {
        const ArgPlan& plan = plans[a];
        LaunchArgSummary s;
        s.functor = launcher.args[a].functor;
        s.domain = launcher.domain;
        s.color_space = *plan.colors;
        s.partition_uid = plan.partition.id;
        s.partition_disjoint = plan.disjoint;
        s.collection_uid = plan.tree;
        s.field_mask = plan.mask;
        s.priv = plan.priv;
        s.redop = plan.redop;
        summaries.push_back(std::move(s));
      }
    }
    for (std::size_t a = 0; a < n_args; ++a) {
      ArgPlan& plan = plans[a];
      const bool conflict =
          group_.summary_conflict(plan.tree, plan.mask, plan.writes);
      if (conflict) cells_.group_edges.inc();
      plan.scan = conflict || plan.writes;
      bool same_launch_overlap = false;
      for (std::size_t o = 0; o < n_args; ++o)
        if (o != a && plans[o].tree == plan.tree && (plans[o].mask & plan.mask) &&
            (plans[o].writes || plan.writes))
          same_launch_overlap = true;
      if (!plan.scan && same_launch_overlap) plan.scan = true;
      if (plan.scan && pair_analysis && !same_launch_overlap &&
          plan.priv != Privilege::kReduce &&
          history_certified_disjoint(plan.tree, summaries[a], fps[a])) {
        plan.scan = false;
        cells_.interference_skips.inc();
      }
    }
    // Record this launch's summaries only after every argument was tested —
    // self-pairs are handled by the same-launch overlap test above.
    if (config_.enable_interference_analysis)
      for (std::size_t a = 0; a < n_args; ++a)
        interference_history_.record(plans[a].tree, std::move(summaries[a]),
                                     std::move(fps[a]));
  } else {
    // Per-point mode: any summarized state on the touched trees must be
    // visible to the per-point tracker, and the trees stay per-point until
    // the next fence.
    for (const ArgPlan& plan : plans) {
      materialize_tree(plan.tree);
      group_.mark_per_point(plan.tree);
    }
  }

  ProfileScope dep_scope(prof_, ProfCategory::kDependence,
                         group_mode ? Profiler::kNameGroupDependence
                                    : Profiler::kNameDependence);

  const bool labeling = config_.record_task_graph || live_enabled_;
  const std::string& task_name = task_registry_[launcher.task].first;
  const uint32_t prof_name = prof_ != nullptr ? task_prof_names_[launcher.task] : 0;

  // Per-point kIssued events share one timestamp (read here, on the issuing
  // thread) but are constructed and recorded inside the chunk jobs, from the
  // nodes the chunks already carry — the always-on recorder adds no
  // per-point work to the issue loop's critical path.
  constexpr std::size_t kChunk = 64;
  const uint64_t issue_ts = rec_ != nullptr ? rec_->now_ns() : 0;

  // Chunked deferred expansion: the issuing thread wires dependence edges
  // and holds a "closure guard" on each node's pending count; chunk jobs on
  // pool workers copy the prototype PhysicalRegions, install node->work and
  // release the guard. All chunks of a launch enqueue under one lock
  // (ThreadPool::submit_batch).
  struct ChunkRecord {
    TaskNodePtr node;
    Point point;
    int64_t rank = -1;
  };
  std::vector<ChunkRecord> records;
  std::vector<uint32_t> records_cranks;  // n_args color ranks per record
  std::vector<std::function<void()>> chunk_jobs;
  records.reserve(kChunk);
  records_cranks.reserve(kChunk * n_args);

  auto flush_chunk = [&] {
    if (records.empty()) return;
    chunk_jobs.push_back([this, arena, issue_ts, recs = std::move(records),
                          cranks = std::move(records_cranks)]() mutable {
      ProfileScope chunk_scope(prof_, ProfCategory::kIssue,
                               Profiler::kNameExpandChunk);
      if (rec_ != nullptr) {
        // One pre-stamped batch per chunk; ts-sorted snapshots still show
        // these kIssued events before the tasks' later lifecycle stages.
        std::vector<obs::FlightEvent> issued;
        issued.reserve(recs.size());
        for (const ChunkRecord& rec : recs) {
          obs::FlightEvent ev;
          ev.ts_ns = issue_ts;
          ev.kind = obs::LifecycleEvent::kIssued;
          ev.seq = rec.node->seq;
          ev.launch = rec.node->launch;
          ev.set_point(rec.point.c.data(), rec.point.dim);
          issued.push_back(ev);
        }
        rec_->record_batch(issued);
      }
      const std::size_t args = arena->n_args;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        ChunkRecord& rec = recs[i];
        std::vector<PhysicalRegion> regions;
        regions.reserve(args);
        for (std::size_t a = 0; a < args; ++a)
          regions.push_back(*(*arena->protos[a])[cranks[i * args + a]]);
        if (rec.node->external) {
          // Remote-owned point: instead of the body, install the closure
          // that applies the owner's outcome (written-region bytes + return
          // value) once it arrives. `self` is raw: node_job holds the
          // shared_ptr while this runs, and a shared capture would cycle.
          rec.node->work = [arena, rank = rec.rank, self = rec.node.get(),
                            regions = std::move(regions)]() mutable {
            const RemoteOutcome& o = *self->remote;
            apply_remote_outcome(o, regions);
            if (arena->collect != nullptr) {
              IDXL_ASSERT(rank >= 0 && rank < static_cast<int64_t>(
                                                  arena->collect->values.size()));
              arena->collect->values[static_cast<std::size_t>(rank)] = o.ret;
            }
          };
        } else {
        rec.node->work = [this, arena, point = rec.point, rank = rec.rank,
                          self = rec.node.get(),
                          regions = std::move(regions)]() mutable {
          TaskContext ctx;
          ctx.point = point;
          ctx.launch_domain = arena->launch_domain;
          ctx.fn = arena->fn;
          ctx.scalar_args = &arena->scalar;
          ctx.regions = std::move(regions);
          arena->body(ctx);
          if (arena->collect != nullptr) {
            IDXL_ASSERT(rank >= 0 && rank < static_cast<int64_t>(
                                                arena->collect->values.size()));
            arena->collect->values[static_cast<std::size_t>(rank)] =
                ctx.return_value;
          }
          // Ship the outcome while the mapped regions are still alive.
          if (config_.on_task_success)
            config_.on_task_success(self->seq, self->launch, point, ctx);
        };
        }
        // Release the closure guard; the node may become ready right here
        // when its dependence edges were already satisfied.
        if (rec.node->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          record_ready(*rec.node, obs::FlightEvent::kNone);
          make_ready(rec.node);
        }
      }
    });
    records = {};
    records_cranks = {};
    records.reserve(kChunk);
    records_cranks.reserve(kChunk * n_args);
  };

  std::vector<TaskNodePtr> deps;
  std::vector<std::size_t> point_cranks(n_args);
  int64_t rank = 0;
  try {
    launcher.domain.for_each([&](const Point& p) {
      // Phase 1 — throw-prone resolution, no side effects on trackers:
      // evaluate the (compiled) functors, validate colors, fill prototypes.
      for (std::size_t a = 0; a < n_args; ++a) {
        const ArgPlan& plan = plans[a];
        int64_t buf[kMaxDim] = {};
        plan.functor->eval_into(p, buf);
        Point color;
        color.dim = plan.functor->output_dim();
        for (int d = 0; d < color.dim; ++d) color[d] = buf[d];
        IDXL_REQUIRE(plan.colors->contains(color),
                     "projection functor selected a color outside the partition");
        const auto crank = static_cast<std::size_t>(plan.colors->linearize(color));
        point_cranks[a] = crank;
        std::optional<PhysicalRegion>& slot = (*plan.protos)[crank];
        if (!slot.has_value())
          slot.emplace(*forest_, (*plan.table)[crank], *plan.fields, plan.priv,
                       plan.redop);
      }

      // Phase 2 — no-throw: create the node, wire edges, schedule.
      cells_.point_tasks.inc();
      auto node = std::make_shared<TaskNode>();
      node->seq = next_seq_++;
      node->launch = launch_id;
      node->prof_name = prof_name;
      node->point = p;
      node->max_retries = launcher.max_retries;
      node->backoff_ms = launcher.retry_backoff_ms;
      node->timeout_ms = launcher.timeout_ms;
      if (labeling) node->label = task_name + "@" + p.to_string();

      deps.clear();
      for (std::size_t a = 0; a < n_args; ++a) {
        const ArgPlan& plan = plans[a];
        // While capturing a trace, keep cleanly-completed predecessors in
        // the tracker and record their edges: replay re-executes them
        // concurrently, so "already done" does not order the replayed run.
        const bool capturing = active_trace_ != nullptr;
        if (group_mode) {
          group_.record_point_use(plan.tree, plan.partition, plan.n_colors,
                                  point_cranks[a], plan.mask, plan.writes,
                                  plan.scan, node, deps, capturing);
        } else {
          const RegionInfo& info = forest_->region((*plan.table)[point_cranks[a]]);
          tracker_.record_use(plan.tree, info.ispace, plan.mask, plan.writes,
                              plan.partition, plan.disjoint, node, deps, capturing);
        }
      }
      // Dedupe; drop self-edges (a launch whose arguments alias can surface
      // the node's own earlier-argument use — a self-edge would deadlock).
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      std::erase(deps, node);

      if (active_trace_ != nullptr) {
        std::vector<uint32_t> ispaces;
        ispaces.reserve(n_args);
        for (std::size_t a = 0; a < n_args; ++a)
          ispaces.push_back(
              forest_->region((*plans[a].table)[point_cranks[a]]).ispace.id);
        capture_trace_step(launcher.task, p, std::move(ispaces), deps, node);
      }
      finalize_deps(node, deps);

      // Closure guard BEFORE register_external: the latter publishes the
      // node to the distributed recv threads, and the closure guard (held
      // until the chunk job installs node->work) keeps an early remote
      // outcome from readying a node that has no closure yet.
      node->pending.fetch_add(1, std::memory_order_relaxed);  // closure guard
      if (config_.point_owned != nullptr &&
          !config_.point_owned(launch_id, p, launcher.domain))
        register_external(node);
      schedule(node, deps);

      records.push_back(ChunkRecord{std::move(node), p, rank++});
      for (std::size_t a = 0; a < n_args; ++a)
        records_cranks.push_back(static_cast<uint32_t>(point_cranks[a]));
      if (records.size() >= kChunk) flush_chunk();
    });
  } catch (...) {
    // Nodes of completed points are scheduled and hold closure guards;
    // their chunks must still run or wait_all would hang. The failing point
    // itself had no side effects (phase 1 throws before phase 2 mutates).
    flush_chunk();
    pool_->submit_batch(std::move(chunk_jobs));
    throw;
  }
  flush_chunk();
  dep_scope.close();
  pool_->submit_batch(std::move(chunk_jobs));
}

const Runtime::RetryPolicy Runtime::kNoRetry{};

void Runtime::issue_point_task(TaskFnId fn, const Point& point,
                               const Domain& launch_domain,
                               const std::vector<RegionArg>& args,
                               const ArgBuffer& scalar_args, uint64_t launch_id,
                               const std::shared_ptr<Future::State>& collect,
                               int64_t rank, const RetryPolicy& policy,
                               bool internal) {
  IDXL_REQUIRE(fn < task_registry_.size(), "unknown task id");
  cells_.point_tasks.inc();

  auto node = std::make_shared<TaskNode>();
  node->seq = next_seq_++;
  node->launch = launch_id;
  node->internal = internal;
  node->label = task_registry_[fn].first + "@" + point.to_string();
  node->prof_name = prof_ != nullptr ? task_prof_names_[fn] : 0;
  node->point = point;
  node->max_retries = policy.retries;
  node->backoff_ms = policy.backoff_ms;
  node->timeout_ms = policy.timeout_ms;
  if (rec_ != nullptr) {
    obs::FlightEvent ev;
    ev.kind = obs::LifecycleEvent::kIssued;
    ev.seq = node->seq;
    ev.launch = launch_id;
    ev.set_point(point.c.data(), point.dim);
    rec_->record(ev);
  }

  // Build the closure now; regions resolve to storage views at execution.
  std::vector<PhysicalRegion> regions;
  regions.reserve(args.size());
  for (const RegionArg& ra : args) {
    IDXL_REQUIRE(ra.region.valid(), "launcher has an invalid region argument");
    regions.emplace_back(*forest_, ra.region, ra.fields, ra.privilege, ra.redop);
  }
  const bool external = config_.point_owned != nullptr &&
                        !config_.point_owned(launch_id, point, launch_domain);
  if (external) {
    // Remote-owned point — apply the owner's outcome instead of the body.
    node->work = [self = node.get(), regions = std::move(regions), collect,
                  rank]() mutable {
      const RemoteOutcome& o = *self->remote;
      apply_remote_outcome(o, regions);
      if (collect != nullptr) {
        IDXL_ASSERT(rank >= 0 &&
                    rank < static_cast<int64_t>(collect->values.size()));
        collect->values[static_cast<std::size_t>(rank)] = o.ret;
      }
    };
  } else {
  const TaskFn& body = task_registry_[fn].second;
  ArgBuffer scalar_copy = scalar_args;
  node->work = [this, body, point, launch_domain, fn, self = node.get(),
                scalar = std::move(scalar_copy), regions = std::move(regions),
                collect, rank]() mutable {
    TaskContext ctx;
    ctx.point = point;
    ctx.launch_domain = launch_domain;
    ctx.fn = fn;
    ctx.scalar_args = &scalar;
    ctx.regions = std::move(regions);
    body(ctx);
    if (collect != nullptr) {
      IDXL_ASSERT(rank >= 0 &&
                  rank < static_cast<int64_t>(collect->values.size()));
      // Each task owns its slot; no synchronization needed beyond the
      // wait_all() barrier in Future::get().
      collect->values[static_cast<std::size_t>(rank)] = ctx.return_value;
    }
    // Ship the outcome while the mapped regions are still alive.
    if (config_.on_task_success)
      config_.on_task_success(self->seq, self->launch, point, ctx);
  };
  }

  // --- dependence discovery: tracker scan, or trace replay ---
  std::vector<TaskNodePtr> deps;
  if (replaying_) {
    ProfileScope replay_scope(prof_, ProfCategory::kTrace,
                              Profiler::kNameTraceReplay, node->seq);
    IDXL_REQUIRE(replay_cursor_ < active_trace_->steps.size(),
                 "trace replay issued more tasks than were captured");
    const TraceStep& step = active_trace_->steps[replay_cursor_];
    IDXL_REQUIRE(step.fn == fn && step.point == point,
                 "trace replay diverged from the captured task sequence");
    for (std::size_t i = 0; i < args.size(); ++i) {
      const RegionInfo& info = forest_->region(args[i].region);
      IDXL_REQUIRE(i < step.ispaces.size() && step.ispaces[i] == info.ispace.id,
                   "trace replay diverged in region arguments");
    }
    for (uint32_t dep_idx : step.dep_indices) deps.push_back(trace_nodes_[dep_idx]);
    ++replay_cursor_;
    cells_.traced_replayed.inc();
    trace_nodes_.push_back(node);
  } else {
    {
      ProfileScope dep_scope(prof_, ProfCategory::kDependence,
                             Profiler::kNameDependence, node->seq);
      for (const RegionArg& ra : args) {
        const RegionInfo& info = forest_->region(ra.region);
        // A per-point use makes any group summary of this tree stale: flush
        // it first, and keep the tree per-point until the next fence.
        materialize_tree(info.tree_id);
        group_.mark_per_point(info.tree_id);
        const bool through_disjoint =
            info.through.valid() && forest_->is_disjoint(info.through);
        tracker_.record_use(info.tree_id, info.ispace, field_mask(ra.fields),
                            privilege_writes(ra.privilege), info.through,
                            through_disjoint, node, deps,
                            /*keep_done=*/active_trace_ != nullptr);
      }
      // Dedupe (one arg pair can surface the same predecessor repeatedly);
      // drop self-edges from aliasing argument pairs.
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      std::erase(deps, node);
    }

    if (active_trace_ != nullptr)
      capture_trace_step(fn, point,
                         [&] {
                           std::vector<uint32_t> ispaces;
                           ispaces.reserve(args.size());
                           for (const RegionArg& ra : args)
                             ispaces.push_back(forest_->region(ra.region).ispace.id);
                           return ispaces;
                         }(),
                         deps, node);
  }

  finalize_deps(node, deps);
  if (external) {
    // Registration guard: keeps a racing complete_external() from readying
    // the node before schedule() has wired it into the graph.
    node->pending.fetch_add(1, std::memory_order_relaxed);
    register_external(node);
  }
  schedule(node, deps);
  if (external &&
      node->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    record_ready(*node, obs::FlightEvent::kNone);
    make_ready(node);
  }
}

std::string Runtime::export_task_graph_dot() const {
  IDXL_REQUIRE(config_.record_task_graph,
               "enable RuntimeConfig::record_task_graph to export the graph");
  // Pre-size the output and append in place: the old chained operator+
  // version built several temporaries per line, and reallocation churn made
  // large graphs painfully slow to export.
  std::size_t size = 64;
  for (const auto& [seq, label] : graph_nodes_) size += label.size() + 32;
  size += graph_edges_.size() * 32;
  std::string dot;
  dot.reserve(size);
  dot += "digraph tasks {\n  rankdir=TB;\n  node [shape=box];\n";
  char buf[24];
  auto append_num = [&](uint64_t v) {
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    dot.append(buf, end);
  };
  for (const auto& [seq, label] : graph_nodes_) {
    dot += "  t";
    append_num(seq);
    dot += " [label=\"";
    dot += label;
    dot += "\"];\n";
  }
  for (const auto& [from, to] : graph_edges_) {
    dot += "  t";
    append_num(from);
    dot += " -> t";
    append_num(to);
    dot += ";\n";
  }
  dot += "}\n";
  return dot;
}

void Runtime::schedule(const TaskNodePtr& node, const std::vector<TaskNodePtr>& deps) {
  // `pending` starts at 1 (issue guard); each live predecessor adds one.
  // The increment must happen *before* the edge is published: a dependency
  // can complete and decrement the instant add_successor releases its lock,
  // and must never observe a count our side hasn't raised yet (double-ready).
  for (const TaskNodePtr& dep : deps) {
    node->pending.fetch_add(1, std::memory_order_relaxed);
    if (!dep->add_successor(node)) {
      // Already complete: the edge is trivially satisfied — but a faulted
      // dep's poison must still flow, since its fan-out already happened.
      inherit_poison(*dep, *node);
      node->pending.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (node->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Readied by the issuing thread itself — no completion edge to name.
    record_ready(*node, obs::FlightEvent::kNone);
    make_ready(node);
  }
}

std::function<void()> Runtime::node_job(TaskNodePtr node) {
  // `ready_ns` is taken here — the moment every dependence was satisfied —
  // so the recorded queue wait is pure scheduler latency. The profiler and
  // the flight recorder share one timebase, so a single pair of clock reads
  // serves both.
  const bool timed = prof_ != nullptr || rec_ != nullptr;
  const uint64_t ready_ns = timed ? recorder_.now_ns() : 0;
  return [this, node = std::move(node), ready_ns, timed] {
    // --- external (remote-owned) node: apply the owner's outcome ---
    // The local fault gates and the injection plan deliberately do NOT run
    // here: the owner already made those decisions, and determinism across
    // processes requires every rank to record the owner's verdict verbatim
    // (a poisoned remote point arrives as a kPoisoned outcome).
    if (node->external) {
      const RemoteOutcome& o = *node->remote;
      if (o.kind != FaultKind::kNone) {
        finish_fault(node, o.kind, o.root, o.attempts, o.message);
        return;
      }
      try {
        node->work();
      } catch (const std::exception& e) {
        finish_fault(node, FaultKind::kException, node->seq, 1, e.what());
        return;
      }
      cells_.tasks_completed.inc();
      if (live_enabled_) {
        std::lock_guard<std::mutex> lock(live_mu_);
        live_.erase(node->seq);
      }
      node->work = nullptr;
      node->remote.reset();
      fan_out(node, obs::FlightEvent::kNone);
      return;
    }

    // --- fault gates: settle without running the body ---
    const uint64_t proot = node->poison_root.load(std::memory_order_acquire);
    if (proot != UINT64_MAX) {
      finish_fault(node, FaultKind::kPoisoned, proot, 0, {});
      return;
    }
    if (cancel_all_.load(std::memory_order_acquire) ||
        node->cancel_flag.load(std::memory_order_acquire)) {
      finish_fault(node, FaultKind::kCancelled, node->seq, 0,
                   "cancelled before start");
      return;
    }

    // --- execute one attempt ---
    FaultKind fk = FaultKind::kNone;
    std::string msg;
    if (fault_plan_ != nullptr &&
        fault_plan_->should_fail(node->launch, node->point, node->attempt)) {
      cells_.fault_injections.inc();
      fk = FaultKind::kInjected;
      msg = "injected fault";
    } else {
      uint64_t timer = 0;
      if (node->timeout_ms > 0) {
        // The timer fires on the pool's timer thread (never a worker), so a
        // timeout lands even when every worker is stuck; the shared_ptr
        // capture keeps the node alive if the task wins the race.
        timer = pool_->submit_after(
            [n = node] {
              n->timed_out.store(true, std::memory_order_release);
              n->cancel_flag.store(true, std::memory_order_release);
            },
            node->timeout_ms);
      }
      const uint64_t start_ns = timed ? recorder_.now_ns() : 0;
      try {
        FaultFrameScope frame(
            FaultFrame{&node->cancel_flag, &cancel_all_, node->attempt});
        node->work();
      } catch (const TaskCancelled&) {
        fk = node->timed_out.load(std::memory_order_acquire) ? FaultKind::kTimeout
                                                             : FaultKind::kCancelled;
        msg = fk == FaultKind::kTimeout ? "timed out" : "cancelled";
      } catch (const TaskFailure& e) {
        fk = FaultKind::kExplicit;
        msg = e.what();
      } catch (const std::exception& e) {
        fk = FaultKind::kException;
        msg = e.what();
      } catch (...) {
        fk = FaultKind::kException;
        msg = "unknown exception";
      }
      if (timer != 0) pool_->cancel_timer(timer);
      if (fk == FaultKind::kNone && timed) {
        const uint64_t end_ns = recorder_.now_ns();
        if (prof_ != nullptr)
          prof_->record(ProfCategory::kTask, node->prof_name, start_ns, end_ns,
                        node->seq, start_ns - ready_ns, node->launch);
        if (rec_ != nullptr) {
          obs::FlightEvent run;
          run.ts_ns = start_ns;
          run.kind = obs::LifecycleEvent::kRunning;
          run.seq = node->seq;
          run.launch = node->launch;
          obs::FlightEvent done = run;
          done.ts_ns = end_ns;
          done.kind = obs::LifecycleEvent::kComplete;
          rec_->record2(run, done);
        }
        cells_.task_duration.observe(end_ns - start_ns);
        cells_.queue_wait.observe(start_ns - ready_ns);
      }
    }

    if (fk == FaultKind::kNone) {
      if (node->attempt > 0) cells_.retry_succeeded.inc();
      cells_.tasks_completed.inc();
      if (live_enabled_) {
        std::lock_guard<std::mutex> lock(live_mu_);
        live_.erase(node->seq);
      }
      node->work = nullptr;  // release captured resources promptly
      fan_out(node, obs::FlightEvent::kNone);
      return;
    }

    // --- failed attempt: retry under the launch policy, or settle ---
    const bool retryable = fk == FaultKind::kException ||
                           fk == FaultKind::kExplicit || fk == FaultKind::kInjected;
    if (retryable && node->attempt < node->max_retries) {
      ++node->attempt;  // the executing worker owns this field
      cells_.retry_attempts.inc();
      if (rec_ != nullptr) {
        obs::FlightEvent ev;
        ev.kind = obs::LifecycleEvent::kRetry;
        ev.seq = node->seq;
        ev.launch = node->launch;
        ev.edge = node->attempt;  // attempt number about to run
        ev.detail = detail_of(fk);
        ev.set_point(node->point.c.data(), node->point.dim);
        rec_->record(ev);
      }
      // Exponential backoff: backoff_ms, 2*backoff_ms, 4*backoff_ms, ...
      const uint64_t delay =
          node->backoff_ms == 0
              ? 0
              : static_cast<uint64_t>(node->backoff_ms) << (node->attempt - 1);
      if (delay == 0) {
        pool_->submit(node_job(node));
      } else {
        // The pending timer holds the pool open (wait_idle waits for it).
        pool_->submit_after(
            [this, n = node]() mutable { pool_->submit(node_job(std::move(n))); },
            delay);
      }
      return;
    }
    finish_fault(node, fk, node->seq, node->attempt + 1, std::move(msg));
  };
}

void Runtime::finish_fault(const TaskNodePtr& node, FaultKind kind, uint64_t root,
                           uint32_t attempts, std::string message) {
  node->fault.store(static_cast<uint8_t>(kind), std::memory_order_release);
  // Publish the root for late edges (inherit_poison) before complete() —
  // by now every predecessor has fanned out, so no store can race this.
  node->poison_root.store(root, std::memory_order_release);

  TaskFault fault;
  fault.seq = node->seq;
  fault.launch = node->launch;
  fault.point = node->point;
  fault.attempts = attempts;
  fault.kind = kind;
  fault.root = root;
  fault.message = std::move(message);
  // Broadcast owned terminal outcomes (external nodes' faults came FROM the
  // owner; re-broadcasting would echo forever). Runtime-generated helper
  // tasks (delta transfers) still broadcast — every rank must poison the
  // same downstream set — but stay out of the user-facing FaultReport so
  // reports compare equal across data-plane configurations.
  if (config_.on_task_fault && !node->external) config_.on_task_fault(fault);
  if (!node->internal) faults_.record(std::move(fault));

  if (kind == FaultKind::kPoisoned)
    cells_.fault_poisoned.inc();
  else
    fault_cell(kind).inc();

  if (rec_ != nullptr) {
    obs::FlightEvent ev;
    ev.kind = kind == FaultKind::kPoisoned    ? obs::LifecycleEvent::kPoisoned
              : kind == FaultKind::kCancelled ? obs::LifecycleEvent::kCancelled
                                              : obs::LifecycleEvent::kFailed;
    ev.seq = node->seq;
    ev.launch = node->launch;
    ev.detail = detail_of(kind);
    if (kind == FaultKind::kPoisoned) ev.edge = root;  // the culprit
    ev.set_point(node->point.c.data(), node->point.dim);
    rec_->record(ev);
  }

  // A settled task is progress: terminal faults count toward the completed
  // counter so pending drains to zero (no false watchdog stalls, fences
  // return). stats().tasks_failed/"poisoned" break the composition out.
  cells_.tasks_completed.inc();
  if (live_enabled_) {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_.erase(node->seq);
  }
  node->work = nullptr;
  fan_out(node, root);
}

void Runtime::fan_out(const TaskNodePtr& node, uint64_t poison) {
  // Fan out to every successor this completion readied, in one batch.
  std::vector<TaskNodePtr> ready;
  for (const TaskNodePtr& succ : node->complete()) {
    if (poison != obs::FlightEvent::kNone) {
      // Atomic-min CAS: a successor's poison root settles to the smallest
      // failed-ancestor seq. All marking happens before the successor's
      // pending count reaches zero, so the value is deterministic whatever
      // order the predecessors completed in.
      uint64_t cur = succ->poison_root.load(std::memory_order_relaxed);
      while (poison < cur && !succ->poison_root.compare_exchange_weak(
                                 cur, poison, std::memory_order_acq_rel)) {
      }
    }
    if (succ->pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      ready.push_back(succ);
  }
  if (rec_ != nullptr && !ready.empty()) {
    // This completion was the last unblocker of every task in `ready`:
    // the waits-for edge the stall report names is (succ <- node).
    std::vector<obs::FlightEvent> events;
    events.reserve(ready.size());
    const uint64_t ts = recorder_.now_ns();
    for (const TaskNodePtr& succ : ready) {
      obs::FlightEvent ev;
      ev.ts_ns = ts;
      ev.kind = obs::LifecycleEvent::kReady;
      ev.seq = succ->seq;
      ev.launch = succ->launch;
      ev.edge = node->seq;
      events.push_back(ev);
    }
    rec_->record_batch(events);
  }
  if (ready.size() == 1) {
    make_ready(ready.front());
  } else if (!ready.empty()) {
    std::vector<std::function<void()>> jobs;
    jobs.reserve(ready.size());
    for (TaskNodePtr& succ : ready) jobs.push_back(node_job(std::move(succ)));
    pool_->submit_batch(std::move(jobs));
  }
}

void Runtime::make_ready(const TaskNodePtr& node) { pool_->submit(node_job(node)); }

void Runtime::begin_trace(uint32_t trace_id) {
  IDXL_REQUIRE(active_trace_ == nullptr, "traces cannot nest");
  wait_all();
  tracker_.reset();  // the fence makes prior state irrelevant
  group_.reset();
  interference_history_.clear();
  Trace& trace = traces_[trace_id];
  if (rec_ != nullptr) {
    obs::FlightEvent ev;
    ev.kind = obs::LifecycleEvent::kTraceBegin;
    if (trace.captured) ev.detail = obs::LifecycleDetail::kReplay;
    rec_->record(ev);
  }
  active_trace_ = &trace;
  replaying_ = trace.captured;
  replay_cursor_ = 0;
  trace_nodes_.clear();
  trace_index_.clear();
  // Faults recorded between here and end_trace invalidate the trace: a
  // capture containing a failed step must not be replayed (the poisoned
  // closure never ran, so its dependence record is not the real program's).
  trace_fault_epoch_ = faults_.epoch();
}

void Runtime::end_trace(uint32_t trace_id) {
  IDXL_REQUIRE(active_trace_ == &traces_[trace_id], "end_trace without begin_trace");
  // Quiesce before validating: every fault a traced task will ever produce
  // is in the log once the fence returns (the trackers are reset below,
  // after the trace bookkeeping — wait_all skips them mid-trace).
  wait_all();
  const bool faulted = faults_.epoch() != trace_fault_epoch_;
  if (replaying_) {
    IDXL_REQUIRE(replay_cursor_ == active_trace_->steps.size(),
                 "trace replay issued fewer tasks than were captured");
    if (faulted) {
      // The replayed execution failed: drop the capture so the next
      // begin_trace re-captures against the (possibly changed) program.
      active_trace_->captured = false;
      active_trace_->steps.clear();
    }
  } else if (faulted) {
    // A trace containing a failed step is invalidated, not replayed: the
    // poisoned closure never executed, so the captured dependence record
    // does not describe a successful run. Next begin_trace re-captures.
    active_trace_->captured = false;
    active_trace_->steps.clear();
  } else {
    active_trace_->captured = true;
  }
  active_trace_ = nullptr;
  replaying_ = false;
  trace_nodes_.clear();
  trace_index_.clear();
  if (rec_ != nullptr) {
    obs::FlightEvent ev;
    ev.kind = obs::LifecycleEvent::kTraceEnd;
    rec_->record(ev);
  }
  tracker_.reset();
  group_.reset();
  interference_history_.clear();
}

TaskFnId Runtime::fill_task() {
  if (fill_task_ == UINT32_MAX) {
    fill_task_ = register_task("idxl_fill", [](TaskContext& ctx) {
      const auto& args = ctx.arg<FillArgs>();
      ctx.region(0).fill_bytes(args.field, args.pattern, args.size);
    });
  }
  return fill_task_;
}

void Runtime::register_external(const TaskNodePtr& node) {
  node->external = true;
  node->pending.fetch_add(1, std::memory_order_relaxed);  // remote guard
  std::optional<RemoteOutcome> early;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    auto it = early_outcomes_.find(node->seq);
    if (it != early_outcomes_.end()) {
      early = std::move(it->second);
      early_outcomes_.erase(it);
    } else {
      externals_.emplace(node->seq, node);
    }
  }
  // A forwarded outcome can overtake the launch frame that issues its node;
  // apply the buffered one here. Releasing the remote guard is safe — the
  // caller still holds a closure/registration guard, so the node cannot
  // become ready under us.
  if (early.has_value()) {
    node->remote = std::make_unique<RemoteOutcome>(std::move(*early));
    node->pending.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Runtime::complete_external(uint64_t seq, RemoteOutcome outcome) {
  TaskNodePtr node;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    auto it = externals_.find(seq);
    if (it == externals_.end()) {
      // Outcome beat the launch frame (or `seq` is owned here and this is a
      // stray echo — the protocol never sends those). Buffer for issue time.
      early_outcomes_.emplace(seq, std::move(outcome));
      return;
    }
    node = it->second;
  }
  deliver_external(node, std::move(outcome));
  {
    // Erase only after delivery: wait_all observing externals_ empty must
    // imply every outcome's pool job (if any) was already submitted.
    std::lock_guard<std::mutex> lock(ext_mu_);
    externals_.erase(seq);
  }
  ext_cv_.notify_all();
}

std::vector<std::pair<uint64_t, std::string>> Runtime::pending_externals()
    const {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::lock_guard<std::mutex> lock(ext_mu_);
  out.reserve(externals_.size());
  for (const auto& [seq, node] : externals_) out.emplace_back(seq, node->label);
  return out;
}

void Runtime::abandon_externals(const std::string& why) {
  for (;;) {
    uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(ext_mu_);
      if (externals_.empty()) return;
      seq = externals_.begin()->first;
    }
    RemoteOutcome o;
    o.kind = FaultKind::kCancelled;
    o.root = seq;
    o.attempts = 0;
    o.message = why;
    complete_external(seq, std::move(o));
  }
}

void Runtime::deliver_external(const TaskNodePtr& node, RemoteOutcome outcome) {
  node->remote = std::make_unique<RemoteOutcome>(std::move(outcome));
  if (node->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    record_ready(*node, obs::FlightEvent::kNone);
    make_ready(node);
  }
}

void Runtime::fill_bytes_region(RegionId r, FieldId f, const void* pattern,
                                std::size_t size) {
  FillArgs args{};
  IDXL_REQUIRE(size > 0 && size <= sizeof(args.pattern),
               "fill pattern too large");
  IDXL_REQUIRE(forest_->field(forest_->region(r).fspace, f).size == size,
               "fill value type does not match the field size");
  args.field = f;
  args.size = size;
  std::memcpy(args.pattern, pattern, size);
  TaskLauncher launcher;
  launcher.task = fill_task();
  launcher.scalar_args = ArgBuffer::of(args);
  launcher.args = {{r, {f}, Privilege::kWrite, ReductionOp::kNone}};
  execute(launcher);
}

void Runtime::wait_all() {
  ProfileScope wait_scope(prof_, ProfCategory::kRuntime, Profiler::kNameWaitAll);
  // External nodes first: their pool jobs exist only once the owning process
  // delivers an outcome, so an idle pool does not imply quiescence. The recv
  // threads only ever *remove* entries (externals are registered by this —
  // the issuing — thread), so once empty the set stays empty.
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(ext_mu_);
      ext_cv_.wait(lk, [&] { return externals_.empty(); });
    }
    pool_->wait_idle();
    std::lock_guard<std::mutex> lock(ext_mu_);
    if (externals_.empty()) break;
  }
  if (rec_ != nullptr) {
    obs::FlightEvent ev;
    ev.kind = obs::LifecycleEvent::kFence;
    rec_->record(ev);
  }
  // First-responder dump: a quiesce that surfaces new failures writes the
  // stall-report bundle (waits-for graph is empty here, but the recorder
  // tail and metrics capture the run-up) to stderr before anyone asks.
  // Opt out with IDXL_DUMP_ON_FAULT=0; read per call so tests can toggle.
  if (env_flag("IDXL_DUMP_ON_FAULT", true)) {
    const FaultReport report = faults_.report();
    const uint64_t total = report.failures.size() + report.poisoned.size();
    if (total != 0 && total != last_fault_dump_count_) {
      last_fault_dump_count_ = total;
      std::fputs("idxl: fence observed new task faults (", stderr);
      std::fprintf(stderr, "%zu failures, %zu poisoned); dumping state\n",
                   report.failures.size(), report.poisoned.size());
      std::fputs(stall_report().to_string().c_str(), stderr);
    }
  }
  if (active_trace_ == nullptr) {
    // Quiescence is a natural fence: every recorded task has completed, so
    // both dependence tiers can drop their state. Trees that were
    // summarized or contaminated mid-run become group-analyzable again.
    tracker_.reset();
    group_.reset();
    interference_history_.clear();
  }
}

double Future::get(Runtime& rt) const {
  IDXL_REQUIRE(valid(), "get() on an empty Future");
  rt.wait_all();
  ProfileScope reduce_scope(rt.prof_, ProfCategory::kReduce,
                            Profiler::kNameFutureReduce);
  IDXL_ASSERT(!state_->values.empty());
  double acc = state_->values.front();
  for (std::size_t i = 1; i < state_->values.size(); ++i)
    acc = apply_reduction(state_->op, acc, state_->values[i]);
  return acc;
}

}  // namespace idxl
