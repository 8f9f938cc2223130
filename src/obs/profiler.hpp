#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"

namespace idxl {

/// Where a profiled span's time was spent — the pipeline stages the paper's
/// evaluation attributes time to (issuance, dependence analysis, safety
/// checks, execution), plus the subsystems layered on top of them.
enum class ProfCategory : uint8_t {
  kTask,        ///< a point task executing on a worker
  kIssue,       ///< execute()/execute_index() issuance, end to end
  kDependence,  ///< dependence discovery (tracker scan)
  kSafety,      ///< hybrid safety analysis (static + dynamic)
  kTrace,       ///< trace capture / replay bookkeeping
  kReduce,      ///< future reduction (Future::get)
  kExchange,    ///< cross-rank data movement (transfer and outcome apply)
  kPhase,       ///< application-defined phase timer
  kRuntime,     ///< other runtime work (wait_all, ...)
};

const char* category_name(ProfCategory cat);

/// Thread-pool worker identity of the calling thread, for event tagging.
/// Set once by each pool worker at startup; -1 on issuance threads.
void prof_set_current_worker(int worker);
int prof_current_worker();

/// One closed span. `tid` is the profiler lane (one per recording thread);
/// `worker` is the thread-pool worker id (-1 for issuance threads). Task
/// events additionally carry the task's global sequence number and the time
/// the task sat ready in the queue before a worker picked it up.
struct ProfileEvent {
  uint32_t name = 0;  ///< interned name id — see Profiler::name()
  ProfCategory cat = ProfCategory::kRuntime;
  int32_t worker = -1;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t seq = kNoSeq;
  uint64_t queue_wait_ns = 0;
  /// Launch id of the index/single launch a task span expanded from —
  /// shared with the flight recorder's events, so a Chrome-trace span and
  /// the recorder's lifecycle history cross-link by (launch, seq).
  uint64_t launch = kNoSeq;
  /// Causal parent on another rank: `parent` is the parent span's task
  /// sequence number and `origin` the rank whose trace holds it (control
  /// replication keeps seqs identical everywhere, so the pair is a global
  /// span id). kNoSeq/kNoRank on purely local spans.
  uint64_t parent = kNoSeq;
  uint32_t origin = kNoRank;

  static constexpr uint64_t kNoSeq = UINT64_MAX;
  static constexpr uint32_t kNoRank = UINT32_MAX;

  /// True when this span claims a parent span on another rank's trace.
  bool remote_parent() const { return origin != kNoRank && parent != kNoSeq; }
};

/// A task-graph node as the critical-path analyzer sees it: duration plus
/// the sequence numbers of its dependence-graph predecessors.
struct TaskSample {
  uint64_t seq = 0;
  uint64_t dur_ns = 0;
  std::vector<uint64_t> deps;
};

/// Longest weighted chain through the recorded task graph. With P workers
/// the program cannot finish faster than the critical path, so
/// `max_speedup()` bounds what any scheduler could achieve — the first
/// number to look at before blaming the runtime for poor scaling.
struct CriticalPathReport {
  uint64_t total_task_ns = 0;     ///< sum of all task durations
  uint64_t critical_path_ns = 0;  ///< longest dur-weighted dependence chain
  std::vector<uint64_t> path;     ///< seqs along that chain, program order
  double max_speedup() const {
    return critical_path_ns == 0
               ? 1.0
               : static_cast<double>(total_task_ns) /
                     static_cast<double>(critical_path_ns);
  }
};

/// Critical path over hand-supplied samples (exposed separately so tests
/// can validate the analysis on known graphs). Samples must be in issue
/// order: every dependence seq refers to an earlier sample.
CriticalPathReport critical_path(std::span<const TaskSample> samples);

/// Low-overhead span recorder. Each recording thread appends to a private
/// buffer it alone writes (registration of a new thread takes the mutex
/// once; the record path is wait-free), so workers never contend while
/// profiling. Reading — export, summary, critical path — merges the
/// buffers and is meant for quiescent moments (after wait_all()).
///
/// A disabled profiler records nothing and every record path bails on a
/// single branch; RuntimeConfig::enable_profiling is the gate.
class Profiler {
 public:
  /// Names the instrumentation records against fixed ids, pre-interned so
  /// the hot path never touches the intern table.
  enum WellKnown : uint32_t {
    kNameIssue = 0,
    kNameDependence,
    kNameSafetyCheck,
    kNameSafetyStatic,
    kNameSafetyDynamic,
    kNameSafetyCache,
    kNameTraceCapture,
    kNameTraceReplay,
    kNameFutureReduce,
    kNameWaitAll,
    kNameGroupDependence,  ///< group-level (whole-partition) dependence pass
    kNameMaterialize,      ///< group state flushed into the per-point tracker
    kNameExpandChunk,      ///< one bulk-expansion chunk building closures
    kWellKnownCount,
  };

  explicit Profiler(bool enabled = true);
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_; }

  /// Nanoseconds since this profiler was constructed (steady clock).
  uint64_t now_ns() const;
  /// The construction-time steady-clock origin — share it with a
  /// FlightRecorder so both subsystems stamp directly comparable times.
  uint64_t epoch_ns() const { return epoch_ns_; }

  /// Intern `name`, returning a stable id. Thread-safe; takes a lock — call
  /// at setup time (task registration), not per event.
  uint32_t intern(std::string_view name);
  const std::string& name(uint32_t id) const;
  /// Snapshot of the whole intern table, indexed by name id — ships with a
  /// rank's spans so the merged cluster trace can resolve names.
  std::vector<std::string> names() const;

  /// Append one closed span to the calling thread's buffer. No-op when
  /// disabled. `worker` tags thread-pool lanes (ThreadPool::current_worker()).
  void record(ProfCategory cat, uint32_t name, uint64_t start_ns, uint64_t end_ns,
              uint64_t seq = ProfileEvent::kNoSeq, uint64_t queue_wait_ns = 0,
              uint64_t launch = ProfileEvent::kNoSeq);

  /// Append a fully specified span (cross-rank parent and all). `tid` and
  /// `worker` are stamped from the calling thread's buffer; every other
  /// field is taken as given. No-op when disabled.
  void record(const ProfileEvent& event);

  /// Record task `seq`'s dependence-graph predecessors (for the critical
  /// path). Durations are joined later from the matching kTask events.
  void record_edges(uint64_t seq, std::span<const uint64_t> deps);

  /// Merged snapshot of every buffer, sorted by (tid, start). Quiescent use.
  std::vector<ProfileEvent> events() const;
  uint64_t event_count() const;

  /// The recorded task graph, joined and sorted by seq. Quiescent use.
  std::vector<TaskSample> task_samples() const;
  CriticalPathReport critical_path() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps)
  /// — load in about:tracing or https://ui.perfetto.dev.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;

  /// Plain-text report: per-task-name count/total/p50/p95/max plus busy
  /// time per category and the critical-path bound.
  std::string summary() const;

  /// Drop all recorded events and edges (buffers stay registered).
  void reset();

  /// RAII span: records [construction, destruction) under `name`. Inactive
  /// (single branch, no clock read) when `p` is null or disabled.
  class Scope {
   public:
    Scope() = default;
    Scope(Profiler* p, ProfCategory cat, uint32_t name,
          uint64_t seq = ProfileEvent::kNoSeq)
        : prof_(p != nullptr && p->enabled() ? p : nullptr),
          cat_(cat),
          name_(name),
          seq_(seq),
          start_(prof_ != nullptr ? prof_->now_ns() : 0) {}
    Scope(Scope&& other) noexcept { *this = std::move(other); }
    Scope& operator=(Scope&& other) noexcept {
      close();
      prof_ = other.prof_;
      cat_ = other.cat_;
      name_ = other.name_;
      seq_ = other.seq_;
      start_ = other.start_;
      other.prof_ = nullptr;
      return *this;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// End the span now instead of at scope exit.
    void close() {
      if (prof_ == nullptr) return;
      prof_->record(cat_, name_, start_, prof_->now_ns(), seq_);
      prof_ = nullptr;
    }

   private:
    Profiler* prof_ = nullptr;
    ProfCategory cat_ = ProfCategory::kRuntime;
    uint32_t name_ = 0;
    uint64_t seq_ = ProfileEvent::kNoSeq;
    uint64_t start_ = 0;
  };

  /// Application phase timer: `auto s = prof.phase("init");`. Interns the
  /// name — fine at phase granularity.
  Scope phase(std::string_view name) {
    return Scope(this, ProfCategory::kPhase, enabled_ ? intern(name) : 0);
  }

 private:
  struct Buffer;

  Buffer& local_buffer();

  const bool enabled_;
  const uint64_t id_;  ///< process-unique, keys the thread-local cache
  uint64_t epoch_ns_ = 0;

  mutable std::mutex mu_;  // guards buffers_ registration and names_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;
};

using ProfileScope = Profiler::Scope;

}  // namespace idxl
