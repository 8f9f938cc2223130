#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_context.hpp"
#include "obs/watchdog.hpp"
#include "region/region_forest.hpp"
#include "runtime/fault.hpp"
#include "runtime/physical.hpp"
#include "runtime/serialize.hpp"
#include "runtime/task_graph.hpp"

namespace idxl::dist {

/// Steady-clock nanoseconds; stamps RegionData::sent_ns (same-host latency).
uint64_t steady_now_ns();

/// Delta mode ships written bytes only for footprints the driver can mirror
/// in its coherence map: dense write domains. A sparse write domain makes
/// the whole task fall back to a full-block broadcast outcome, and so does
/// a reduction: the executor orders reductions into one subregion like
/// writes, so points of a single launch can chain through it, and a
/// transfer planned ahead of the launch would ship the data before the
/// earlier reducer ran. This must compute identically on the owning rank
/// (from the mapped regions) and on the driver's planner (from the forest),
/// or currency tracking diverges.
inline bool needs_full_outcome(Privilege priv, const Domain& domain) {
  return priv == Privilege::kReduce || (privilege_writes(priv) && !domain.dense());
}
inline bool needs_full_outcome(const TaskContext& ctx) {
  for (const PhysicalRegion& pr : ctx.regions)
    if (needs_full_outcome(pr.privilege(), pr.domain())) return true;
  return false;
}

/// Protocol messages of the distributed runtime, carried as the `type` byte
/// of a net frame (src/net/frame.hpp). Control replication keeps the
/// vocabulary small: the driver broadcasts the launch stream verbatim and
/// the only data that crosses per task is its terminal outcome.
enum class Msg : uint8_t {
  kHello = 1,   ///< driver -> worker: rank assignment + run parameters
  kHelloAck,    ///< worker -> driver: handshake complete
  kSetup,       ///< driver -> worker (exec mode): forest journal + task names
  kLaunch,      ///< driver -> worker: one serialized IndexLauncher
  kSingle,      ///< driver -> worker: one serialized TaskLauncher
  kTaskDone,    ///< owner -> everyone (via driver): terminal task outcome
  kFence,       ///< driver -> worker: quiesce and report
  kFenceAck,    ///< worker -> driver: fence id + serialized FaultReport
  kShutdown,    ///< driver -> worker: drain and exit
  kBye,         ///< worker -> driver: teardown complete
  kPing,          ///< heartbeat + clock probe, either direction (net/clock.hpp)
  kRoute,         ///< driver -> worker: a launch's transfer directives (v5)
  kRegionData,    ///< src rank -> dest rank, direct or driver-relayed (v3)
  kTelemetryReq,  ///< driver -> worker: ship your trace + metrics (v4)
  kTelemetry,     ///< worker -> driver: spans, recorder tail, metrics (v4)
};

/// Metric-label name per message type (NetObs::type_name).
const char* msg_name(uint8_t type);

// --- payload codecs ------------------------------------------------------

struct Hello {
  uint32_t rank = 0;
  uint32_t nranks = 0;
  uint32_t workers = 0;           ///< local thread-pool width per process
  uint32_t heartbeat_period_ms = 1000;
  uint32_t peer_stall_window_ms = 10000;
  uint8_t delta_transfers = 1;    ///< 0 = star-hub full-block baseline
  uint8_t p2p = 0;                ///< direct worker links available (fork mode)
  uint8_t enable_profiling = 0;   ///< record spans for the cluster trace (v4)
  std::string fault_plan;         ///< FaultPlan::to_string spec; "" = none
};
std::vector<std::byte> encode_hello(const Hello& h);
Hello decode_hello(const std::vector<std::byte>& bytes);

/// Exec-mode bootstrap: everything a fresh process needs to mirror the
/// driver's pre-launch state — the forest construction journal, the task
/// names in registration order (resolved against the worker's named task
/// registry), and the current root-region storage bytes.
struct Setup {
  std::vector<SetupOp> journal;
  std::vector<std::string> tasks;
  /// (root region id, field id, bytes) triples.
  struct Storage {
    uint32_t region = 0;
    FieldId field = 0;
    std::vector<std::byte> bytes;
  };
  std::vector<Storage> storage;
};
std::vector<std::byte> encode_setup(const Setup& s);
Setup decode_setup(const std::vector<std::byte>& bytes);

/// Terminal outcome of one owned task, broadcast so every other rank can
/// complete its external placeholder node. In star-hub mode success carries
/// the full written-region bytes (copy_out order); in delta mode outcomes
/// are slim (has_data = false) and the bytes travel as kRegionData to the
/// one rank that reads them. Faults carry the fault fields and no bytes.
/// A transfer task sends no TaskDone on success; its fault notice is
/// addressed to the transfer's destination alone (`dest`).
struct TaskDone {
  /// dest value meaning "every other rank".
  static constexpr uint32_t kNoDest = UINT32_MAX;

  uint64_t seq = 0;
  /// The one rank this outcome is for (a transfer's fault notice), or
  /// kNoDest. The driver forwards an addressed outcome to that rank only.
  uint32_t dest = kNoDest;
  /// Causal parent of the external completion: the executing rank and the
  /// task's launch id there (span = seq; replication makes it global).
  obs::TraceContext ctx;
  RemoteOutcome outcome;
};
std::vector<std::byte> encode_task_done(const TaskDone& t);
TaskDone decode_task_done(const std::vector<std::byte>& bytes);

/// Routing directive: every rank issues the same replicated transfer task,
/// pinned to `src`, pushing `rects` x `field` of the root behind `producer`
/// to `dest`. Payload-free: the bytes move as kRegionData from src directly
/// (or via driver relay on peer-link loss). One route carries every rect a
/// plan ships from one producer between the same pair of ranks.
struct Route {
  uint32_t src = 0;
  uint32_t dest = 0;
  RegionId producer;  ///< subregion argument of the transfer task
  FieldId field = 0;
  std::vector<Rect> rects;  ///< never empty; one kRegionData patch each
  /// Launch id the replicated transfer task will be assigned: identical on
  /// every rank by control replication, so receivers assert equality (a
  /// mismatch means the launch streams diverged) and spans correlate.
  uint64_t launch = UINT64_MAX;
};
/// A kRoute frame: every route one launch plans, in issue order (wire v5).
/// Decoding rejects an empty list, an empty rect list, and any count the
/// remaining bytes cannot hold.
std::vector<std::byte> encode_routes(const std::vector<Route>& routes);
std::vector<Route> decode_routes(const std::vector<std::byte>& bytes);

/// The launcher every rank builds from a Route: identical by construction,
/// so seq numbers and launch ids stay replicated. The route rides in the
/// scalar arguments (xfer_route reads it back on the source rank), and the
/// point `p1(src)` names the source in labels and fault identities.
TaskLauncher make_xfer_launcher(TaskFnId task, const Route& r, uint32_t nranks);
Route xfer_route(const TaskContext& ctx);

/// Delta payload: the patches completing external node `seq` on rank
/// `dest`. Travels src -> dest on a direct worker link when one is up,
/// src -> driver -> dest otherwise (dest 0 terminates at the driver).
struct RegionData {
  uint64_t seq = 0;
  uint32_t dest = 0;
  uint64_t sent_ns = 0;  ///< sender steady-clock; same-host latency probe
  /// Causal parent: the producing transfer task's span on the sending rank
  /// (span = seq — replicated — so origin + seq finds it in the merge).
  obs::TraceContext ctx;
  std::vector<RegionPatch> patches;
};
std::vector<std::byte> encode_region_data(const RegionData& r);
/// What a transfer's source sends: one patch per rect of `r`, copied out of
/// the transfer task's producer region (`task.region(0)`).
RegionData make_region_data(uint64_t seq, const obs::TraceContext& ctx,
                            const Route& r, TaskContext& task);
RegionData decode_region_data(const std::vector<std::byte>& bytes);

/// Cumulative per-process data-plane byte counters, piggybacked on every
/// FenceAck so the driver can aggregate bytes-moved across all ranks
/// (including direct worker->worker legs it never sees).
struct DataPlaneCounters {
  uint64_t bytes_hub = 0;    ///< full-block outcome payload bytes sent
  uint64_t bytes_relay = 0;  ///< delta patch bytes sent via the driver
  uint64_t bytes_p2p = 0;    ///< delta patch bytes sent on direct links
  uint64_t transfers = 0;    ///< kRegionData messages sent
};

struct FenceAck {
  uint64_t fence = 0;
  FaultReport report;
  DataPlaneCounters net;
  /// Serialized MetricsSnapshot of the worker's registry, present only
  /// when the fence asked for it (Fence::want_metrics); empty otherwise.
  std::vector<std::byte> metrics;
};
/// A kFence frame. Only cluster_metrics() sets `want_metrics`: a snapshot
/// is kilobytes of serialization per rank that other fences never read.
struct Fence {
  uint64_t id = 0;
  bool want_metrics = false;
};
std::vector<std::byte> encode_fence(const Fence& f);
Fence decode_fence(const std::vector<std::byte>& bytes);
std::vector<std::byte> encode_fence_ack(const FenceAck& a);
FenceAck decode_fence_ack(const std::vector<std::byte>& bytes);

/// MetricsSnapshot codec, reused by FenceAck piggybacking and kTelemetry.
std::vector<std::byte> serialize_metrics_snapshot(const obs::MetricsSnapshot& m);
obs::MetricsSnapshot deserialize_metrics_snapshot(
    const std::vector<std::byte>& bytes);

/// Why a rank shipped its telemetry.
enum class TelemetryFlavor : uint8_t {
  kShutdownPull = 0,  ///< answering the driver's kTelemetryReq at shutdown
  kStallPush = 1,     ///< the rank's own watchdog declared a stall
};

/// One rank's observability state on the wire: everything the driver needs
/// for the clock-aligned trace merge (spans + intern table + epoch), the
/// flight-recorder tail, a metrics snapshot, and — for stall pushes — the
/// waits-for graph so the distributed watchdog can name the blocking rank.
struct Telemetry {
  uint32_t rank = 0;
  uint8_t flavor = 0;     ///< TelemetryFlavor
  uint64_t epoch_ns = 0;  ///< profiler epoch, absolute steady-clock ns
  std::vector<std::string> names;  ///< profiler intern table
  std::vector<ProfileEvent> spans;
  std::vector<TaskSample> samples;
  std::vector<obs::FlightEvent> recent;
  obs::MetricsSnapshot metrics;
  // Stall-push fields (zero/empty on shutdown pulls).
  uint64_t completed = 0;
  uint64_t pending = 0;
  uint64_t window_ms = 0;
  std::vector<obs::BlockedTask> blocked;
  /// Task seqs this rank still expects TaskDone/kRegionData for.
  std::vector<uint64_t> pending_externals;
};
std::vector<std::byte> encode_telemetry(const Telemetry& t);
Telemetry decode_telemetry(const std::vector<std::byte>& bytes);

}  // namespace idxl::dist
