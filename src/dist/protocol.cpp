#include "dist/protocol.hpp"

#include <chrono>

#include "support/error.hpp"

namespace idxl::dist {

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* msg_name(uint8_t type) {
  switch (static_cast<Msg>(type)) {
    case Msg::kHello: return "hello";
    case Msg::kHelloAck: return "hello-ack";
    case Msg::kSetup: return "setup";
    case Msg::kLaunch: return "launch";
    case Msg::kSingle: return "single";
    case Msg::kTaskDone: return "task-done";
    case Msg::kFence: return "fence";
    case Msg::kFenceAck: return "fence-ack";
    case Msg::kShutdown: return "shutdown";
    case Msg::kBye: return "bye";
    case Msg::kPing: return "ping";
    case Msg::kRoute: return "route";
    case Msg::kRegionData: return "region-data";
    case Msg::kTelemetryReq: return "telemetry-req";
    case Msg::kTelemetry: return "telemetry";
  }
  return "unknown";
}

std::vector<std::byte> encode_hello(const Hello& h) {
  Serializer s;
  s.put_header();
  s.put_u32(h.rank);
  s.put_u32(h.nranks);
  s.put_u32(h.workers);
  s.put_u32(h.heartbeat_period_ms);
  s.put_u32(h.peer_stall_window_ms);
  s.put_u8(h.delta_transfers);
  s.put_u8(h.p2p);
  s.put_u8(h.enable_profiling);
  s.put_string(h.fault_plan);
  return s.take();
}

Hello decode_hello(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("hello message");
  Hello h;
  h.rank = d.get_u32();
  h.nranks = d.get_u32();
  h.workers = d.get_u32();
  h.heartbeat_period_ms = d.get_u32();
  h.peer_stall_window_ms = d.get_u32();
  h.delta_transfers = d.get_u8();
  h.p2p = d.get_u8();
  h.enable_profiling = d.get_u8();
  h.fault_plan = d.get_string();
  return h;
}

namespace {

void put_rect(Serializer& s, const Rect& r) {
  s.put_point(r.lo);
  s.put_point(r.hi);
}

Rect get_rect(Deserializer& d) {
  const Point lo = d.get_point();
  const Point hi = d.get_point();
  return Rect(lo, hi);
}

void put_trace_ctx(Serializer& s, const obs::TraceContext& ctx) {
  s.put_u64(ctx.launch);
  s.put_u64(ctx.span);
  s.put_u32(ctx.origin);
}

obs::TraceContext get_trace_ctx(Deserializer& d) {
  obs::TraceContext ctx;
  ctx.launch = d.get_u64();
  ctx.span = d.get_u64();
  ctx.origin = d.get_u32();
  return ctx;
}

// Smallest encodings of the repeated elements below. A point is a
// dimension byte and at least one coordinate.
constexpr std::size_t kPointMin = 1 + 8;
constexpr std::size_t kRectMin = 2 * kPointMin;
constexpr std::size_t kDomainMin = 1 + 8;  // sparse flag + point count
constexpr std::size_t kStringMin = 4;
constexpr std::size_t kSetupOpMin =
    1 + kDomainMin + 4 + 4 + kStringMin + kRectMin + 4 + 1 + kPointMin;
constexpr std::size_t kStorageMin = 4 + 4 + 4;
constexpr std::size_t kRouteMin = 4 * 4 + 4 + kRectMin + 8;
constexpr std::size_t kPatchMin = 4 + 4 + kRectMin + 4;
constexpr std::size_t kFamilyMin = kStringMin + kStringMin + 1 + 4;
constexpr std::size_t kSeriesMin = 4 + 4 * 8 + 4;
constexpr std::size_t kLabelMin = 2 * kStringMin;
constexpr std::size_t kBucketMin = 8 + 8;
constexpr std::size_t kSpanBytes = 4 + 1 + 8 + 4 + 8 * 6 + 4;
constexpr std::size_t kSampleMin = 8 + 8 + 4;
constexpr std::size_t kFlightEventBytes =
    8 * 4 + 8 * obs::FlightEvent::kMaxPointDim + 3 + 8;
constexpr std::size_t kBlockedMin = 8 + 8 + kStringMin + 4;

/// Read a u32 element count and check it against the bytes left: each
/// element takes at least `min_bytes`, so a larger count is corrupt. Runs
/// before any reserve, so a hostile count cannot allocate.
uint32_t get_count(Deserializer& d, std::size_t min_bytes, const char* what) {
  const uint32_t n = d.get_u32();
  IDXL_REQUIRE(n <= d.remaining() / min_bytes,
               std::string("corrupt ") + what + " count in message");
  return n;
}

void put_route(Serializer& s, const Route& r) {
  s.put_u32(r.src);
  s.put_u32(r.dest);
  s.put_u32(r.producer.id);
  s.put_u32(r.field);
  s.put_u32(static_cast<uint32_t>(r.rects.size()));
  for (const Rect& rect : r.rects) put_rect(s, rect);
  s.put_u64(r.launch);
}

Route get_route(Deserializer& d) {
  Route r;
  r.src = d.get_u32();
  r.dest = d.get_u32();
  r.producer.id = d.get_u32();
  r.field = d.get_u32();
  const uint32_t nrects = get_count(d, kRectMin, "route rect");
  IDXL_REQUIRE(nrects > 0, "route carries no rects");
  r.rects.reserve(nrects);
  for (uint32_t i = 0; i < nrects; ++i) r.rects.push_back(get_rect(d));
  r.launch = d.get_u64();
  return r;
}

}  // namespace

std::vector<std::byte> encode_setup(const Setup& su) {
  Serializer s;
  s.put_header();
  s.put_u32(static_cast<uint32_t>(su.journal.size()));
  for (const SetupOp& op : su.journal) {
    s.put_u8(static_cast<uint8_t>(op.kind));
    serialize_domain(s, op.domain);
    s.put_u32(op.a);
    s.put_u32(op.b);
    s.put_string(op.name);
    put_rect(s, op.color_space);
    s.put_u32(static_cast<uint32_t>(op.subspaces.size()));
    for (const Domain& sub : op.subspaces) serialize_domain(s, sub);
    s.put_u8(op.disjointness);
    s.put_point(op.color);
  }
  s.put_u32(static_cast<uint32_t>(su.tasks.size()));
  for (const std::string& t : su.tasks) s.put_string(t);
  s.put_u32(static_cast<uint32_t>(su.storage.size()));
  for (const Setup::Storage& st : su.storage) {
    s.put_u32(st.region);
    s.put_u32(st.field);
    s.put_blob(st.bytes);
  }
  return s.take();
}

Setup decode_setup(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("setup message");
  Setup su;
  const uint32_t nops = get_count(d, kSetupOpMin, "setup journal");
  su.journal.reserve(nops);
  for (uint32_t i = 0; i < nops; ++i) {
    SetupOp op;
    op.kind = d.get_enum(SetupOp::Kind::kSubregion, "setup op kind");
    op.domain = deserialize_domain(d);
    op.a = d.get_u32();
    op.b = d.get_u32();
    op.name = d.get_string();
    op.color_space = get_rect(d);
    const uint32_t nsub = get_count(d, kDomainMin, "setup subspace");
    op.subspaces.reserve(nsub);
    for (uint32_t j = 0; j < nsub; ++j)
      op.subspaces.push_back(deserialize_domain(d));
    op.disjointness = d.get_u8();
    op.color = d.get_point();
    su.journal.push_back(std::move(op));
  }
  const uint32_t ntasks = get_count(d, kStringMin, "setup task");
  su.tasks.reserve(ntasks);
  for (uint32_t i = 0; i < ntasks; ++i) su.tasks.push_back(d.get_string());
  const uint32_t nstore = get_count(d, kStorageMin, "setup storage");
  su.storage.reserve(nstore);
  for (uint32_t i = 0; i < nstore; ++i) {
    Setup::Storage st;
    st.region = d.get_u32();
    st.field = d.get_u32();
    st.bytes = d.get_blob();
    su.storage.push_back(std::move(st));
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after setup message");
  return su;
}

std::vector<std::byte> encode_task_done(const TaskDone& t) {
  Serializer s;
  s.put_header();
  s.put_u64(t.seq);
  s.put_u32(t.dest);
  put_trace_ctx(s, t.ctx);
  s.put_u8(static_cast<uint8_t>(t.outcome.kind));
  s.put_u64(t.outcome.root);
  s.put_u32(t.outcome.attempts);
  s.put_string(t.outcome.message);
  s.put_f64(t.outcome.ret);
  s.put_u8(t.outcome.has_data ? 1 : 0);
  s.put_blob(t.outcome.region_bytes);
  return s.take();
}

TaskDone decode_task_done(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("task-done message");
  TaskDone t;
  t.seq = d.get_u64();
  t.dest = d.get_u32();
  t.ctx = get_trace_ctx(d);
  t.outcome.kind = d.get_enum(FaultKind::kPoisoned, "fault kind");
  t.outcome.root = d.get_u64();
  t.outcome.attempts = d.get_u32();
  t.outcome.message = d.get_string();
  t.outcome.ret = d.get_f64();
  t.outcome.has_data = d.get_u8() != 0;
  t.outcome.region_bytes = d.get_blob();
  IDXL_REQUIRE(d.done(), "trailing bytes after task-done message");
  return t;
}

std::vector<std::byte> encode_routes(const std::vector<Route>& routes) {
  Serializer s;
  s.put_header();
  s.put_u32(static_cast<uint32_t>(routes.size()));
  for (const Route& r : routes) put_route(s, r);
  return s.take();
}

std::vector<Route> decode_routes(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("route message");
  const uint32_t n = get_count(d, kRouteMin, "route");
  IDXL_REQUIRE(n > 0, "route message carries no routes");
  std::vector<Route> routes;
  routes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) routes.push_back(get_route(d));
  IDXL_REQUIRE(d.done(), "trailing bytes after route message");
  return routes;
}

TaskLauncher make_xfer_launcher(TaskFnId task, const Route& r, uint32_t nranks) {
  Serializer args;
  put_route(args, r);
  return TaskLauncher::for_task(task)
      .region(r.producer, {r.field}, Privilege::kReadWrite)
      .scalars(ArgBuffer::from_bytes(args.take()))
      .at(Point::p1(r.src), Domain::line(static_cast<int64_t>(nranks)))
      .as_internal();
}

Route xfer_route(const TaskContext& ctx) {
  Deserializer d(ctx.scalar_args->raw());
  return get_route(d);
}

std::vector<std::byte> encode_region_data(const RegionData& r) {
  Serializer s;
  s.put_header();
  s.put_u64(r.seq);
  s.put_u32(r.dest);
  s.put_u64(r.sent_ns);
  put_trace_ctx(s, r.ctx);
  s.put_u32(static_cast<uint32_t>(r.patches.size()));
  for (const RegionPatch& p : r.patches) {
    s.put_u32(p.arg);
    s.put_u32(p.field);
    put_rect(s, p.rect);
    s.put_blob(p.bytes);
  }
  return s.take();
}

RegionData make_region_data(uint64_t seq, const obs::TraceContext& ctx,
                            const Route& r, TaskContext& task) {
  RegionData rd;
  rd.seq = seq;
  rd.dest = r.dest;
  rd.sent_ns = steady_now_ns();
  rd.ctx = ctx;
  rd.patches.resize(r.rects.size());
  for (std::size_t i = 0; i < r.rects.size(); ++i) {
    RegionPatch& patch = rd.patches[i];
    patch.arg = 0;
    patch.field = r.field;
    patch.rect = r.rects[i];
    task.region(0).copy_out_rect(r.field, r.rects[i], patch.bytes);
  }
  return rd;
}

RegionData decode_region_data(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("region-data message");
  RegionData r;
  r.seq = d.get_u64();
  r.dest = d.get_u32();
  r.sent_ns = d.get_u64();
  r.ctx = get_trace_ctx(d);
  const uint32_t n = get_count(d, kPatchMin, "region-data patch");
  r.patches.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RegionPatch p;
    p.arg = d.get_u32();
    p.field = d.get_u32();
    p.rect = get_rect(d);
    p.bytes = d.get_blob();
    r.patches.push_back(std::move(p));
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after region-data message");
  return r;
}

std::vector<std::byte> encode_fence(const Fence& f) {
  Serializer s;
  s.put_header();
  s.put_u64(f.id);
  s.put_u8(f.want_metrics ? 1 : 0);
  return s.take();
}

Fence decode_fence(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("fence message");
  Fence f;
  f.id = d.get_u64();
  f.want_metrics = d.get_u8() != 0;
  IDXL_REQUIRE(d.done(), "trailing bytes after fence message");
  return f;
}

std::vector<std::byte> encode_fence_ack(const FenceAck& a) {
  Serializer s;
  s.put_header();
  s.put_u64(a.fence);
  s.put_blob(serialize_fault_report(a.report));
  s.put_u64(a.net.bytes_hub);
  s.put_u64(a.net.bytes_relay);
  s.put_u64(a.net.bytes_p2p);
  s.put_u64(a.net.transfers);
  s.put_blob(a.metrics);
  return s.take();
}

FenceAck decode_fence_ack(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("fence-ack message");
  FenceAck a;
  a.fence = d.get_u64();
  a.report = deserialize_fault_report(d.get_blob());
  a.net.bytes_hub = d.get_u64();
  a.net.bytes_relay = d.get_u64();
  a.net.bytes_p2p = d.get_u64();
  a.net.transfers = d.get_u64();
  a.metrics = d.get_blob();
  IDXL_REQUIRE(d.done(), "trailing bytes after fence-ack message");
  return a;
}

std::vector<std::byte> serialize_metrics_snapshot(const obs::MetricsSnapshot& m) {
  Serializer s;
  s.put_u64(m.taken_ns);
  s.put_u32(static_cast<uint32_t>(m.families.size()));
  for (const obs::FamilySnapshot& f : m.families) {
    s.put_string(f.name);
    s.put_string(f.help);
    s.put_u8(static_cast<uint8_t>(f.kind));
    s.put_u32(static_cast<uint32_t>(f.series.size()));
    for (const obs::SeriesSnapshot& series : f.series) {
      s.put_u32(static_cast<uint32_t>(series.labels.size()));
      for (const auto& [k, v] : series.labels) {
        s.put_string(k);
        s.put_string(v);
      }
      s.put_u64(series.counter);
      s.put_i64(series.gauge);
      s.put_u64(series.count);
      s.put_u64(series.sum);
      s.put_u32(static_cast<uint32_t>(series.buckets.size()));
      for (const auto& [le, cumulative] : series.buckets) {
        s.put_u64(le);
        s.put_u64(cumulative);
      }
    }
  }
  return s.take();
}

obs::MetricsSnapshot deserialize_metrics_snapshot(
    const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  obs::MetricsSnapshot m;
  m.taken_ns = d.get_u64();
  const uint32_t nfamilies = get_count(d, kFamilyMin, "metric family");
  m.families.reserve(nfamilies);
  for (uint32_t i = 0; i < nfamilies; ++i) {
    obs::FamilySnapshot f;
    f.name = d.get_string();
    f.help = d.get_string();
    f.kind = d.get_enum(obs::MetricKind::kHistogram, "metric kind");
    const uint32_t nseries = get_count(d, kSeriesMin, "metric series");
    f.series.reserve(nseries);
    for (uint32_t j = 0; j < nseries; ++j) {
      obs::SeriesSnapshot series;
      const uint32_t nlabels = get_count(d, kLabelMin, "metric label");
      series.labels.reserve(nlabels);
      for (uint32_t k = 0; k < nlabels; ++k) {
        std::string key = d.get_string();
        series.labels.emplace_back(std::move(key), d.get_string());
      }
      series.counter = d.get_u64();
      series.gauge = d.get_i64();
      series.count = d.get_u64();
      series.sum = d.get_u64();
      const uint32_t nbuckets = get_count(d, kBucketMin, "histogram bucket");
      series.buckets.reserve(nbuckets);
      for (uint32_t b = 0; b < nbuckets; ++b) {
        const uint64_t le = d.get_u64();
        series.buckets.emplace_back(le, d.get_u64());
      }
      f.series.push_back(std::move(series));
    }
    m.families.push_back(std::move(f));
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after metrics snapshot");
  return m;
}

std::vector<std::byte> encode_telemetry(const Telemetry& t) {
  Serializer s;
  s.put_header();
  s.put_u32(t.rank);
  s.put_u8(t.flavor);
  s.put_u64(t.epoch_ns);
  s.put_u32(static_cast<uint32_t>(t.names.size()));
  for (const std::string& n : t.names) s.put_string(n);
  s.put_u32(static_cast<uint32_t>(t.spans.size()));
  for (const ProfileEvent& ev : t.spans) {
    s.put_u32(ev.name);
    s.put_u8(static_cast<uint8_t>(ev.cat));
    s.put_i64(ev.worker);
    s.put_u32(ev.tid);
    s.put_u64(ev.start_ns);
    s.put_u64(ev.dur_ns);
    s.put_u64(ev.seq);
    s.put_u64(ev.queue_wait_ns);
    s.put_u64(ev.launch);
    s.put_u64(ev.parent);
    s.put_u32(ev.origin);
  }
  s.put_u32(static_cast<uint32_t>(t.samples.size()));
  for (const TaskSample& sample : t.samples) {
    s.put_u64(sample.seq);
    s.put_u64(sample.dur_ns);
    s.put_u32(static_cast<uint32_t>(sample.deps.size()));
    for (uint64_t dep : sample.deps) s.put_u64(dep);
  }
  s.put_u32(static_cast<uint32_t>(t.recent.size()));
  for (const obs::FlightEvent& ev : t.recent) {
    s.put_u64(ev.ts_ns);
    s.put_u64(ev.seq);
    s.put_u64(ev.launch);
    s.put_u64(ev.edge);
    for (int i = 0; i < obs::FlightEvent::kMaxPointDim; ++i)
      s.put_i64(ev.coord[i]);
    s.put_u8(static_cast<uint8_t>(ev.kind));
    s.put_u8(static_cast<uint8_t>(ev.detail));
    s.put_u8(static_cast<uint8_t>(ev.dim));
    s.put_i64(ev.worker);
  }
  s.put_blob(serialize_metrics_snapshot(t.metrics));
  s.put_u64(t.completed);
  s.put_u64(t.pending);
  s.put_u64(t.window_ms);
  s.put_u32(static_cast<uint32_t>(t.blocked.size()));
  for (const obs::BlockedTask& b : t.blocked) {
    s.put_u64(b.seq);
    s.put_u64(b.launch);
    s.put_string(b.label);
    s.put_u32(static_cast<uint32_t>(b.waits_for.size()));
    for (uint64_t dep : b.waits_for) s.put_u64(dep);
  }
  s.put_u32(static_cast<uint32_t>(t.pending_externals.size()));
  for (uint64_t seq : t.pending_externals) s.put_u64(seq);
  return s.take();
}

Telemetry decode_telemetry(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("telemetry message");
  Telemetry t;
  t.rank = d.get_u32();
  t.flavor = d.get_u8();
  t.epoch_ns = d.get_u64();
  const uint32_t nnames = get_count(d, kStringMin, "telemetry name");
  t.names.reserve(nnames);
  for (uint32_t i = 0; i < nnames; ++i) t.names.push_back(d.get_string());
  const uint32_t nspans = get_count(d, kSpanBytes, "telemetry span");
  t.spans.reserve(nspans);
  for (uint32_t i = 0; i < nspans; ++i) {
    ProfileEvent ev;
    ev.name = d.get_u32();
    ev.cat = d.get_enum(ProfCategory::kRuntime, "profile category");
    ev.worker = static_cast<int32_t>(d.get_i64());
    ev.tid = d.get_u32();
    ev.start_ns = d.get_u64();
    ev.dur_ns = d.get_u64();
    ev.seq = d.get_u64();
    ev.queue_wait_ns = d.get_u64();
    ev.launch = d.get_u64();
    ev.parent = d.get_u64();
    ev.origin = d.get_u32();
    t.spans.push_back(ev);
  }
  const uint32_t nsamples = get_count(d, kSampleMin, "telemetry sample");
  t.samples.reserve(nsamples);
  for (uint32_t i = 0; i < nsamples; ++i) {
    TaskSample sample;
    sample.seq = d.get_u64();
    sample.dur_ns = d.get_u64();
    const uint32_t ndeps = get_count(d, 8, "telemetry sample dependence");
    sample.deps.reserve(ndeps);
    for (uint32_t j = 0; j < ndeps; ++j) sample.deps.push_back(d.get_u64());
    t.samples.push_back(std::move(sample));
  }
  const uint32_t nrecent = get_count(d, kFlightEventBytes, "telemetry event");
  t.recent.reserve(nrecent);
  for (uint32_t i = 0; i < nrecent; ++i) {
    obs::FlightEvent ev;
    ev.ts_ns = d.get_u64();
    ev.seq = d.get_u64();
    ev.launch = d.get_u64();
    ev.edge = d.get_u64();
    for (int j = 0; j < obs::FlightEvent::kMaxPointDim; ++j)
      ev.coord[j] = d.get_i64();
    ev.kind = d.get_enum(obs::LifecycleEvent::kEvicted, "lifecycle event");
    ev.detail = d.get_enum(obs::LifecycleDetail::kCancel, "lifecycle detail");
    ev.dim = static_cast<int8_t>(d.get_u8());
    ev.worker = static_cast<int32_t>(d.get_i64());
    t.recent.push_back(ev);
  }
  t.metrics = deserialize_metrics_snapshot(d.get_blob());
  t.completed = d.get_u64();
  t.pending = d.get_u64();
  t.window_ms = d.get_u64();
  const uint32_t nblocked = get_count(d, kBlockedMin, "telemetry blocked task");
  t.blocked.reserve(nblocked);
  for (uint32_t i = 0; i < nblocked; ++i) {
    obs::BlockedTask b;
    b.seq = d.get_u64();
    b.launch = d.get_u64();
    b.label = d.get_string();
    const uint32_t ndeps = get_count(d, 8, "telemetry waits-for");
    b.waits_for.reserve(ndeps);
    for (uint32_t j = 0; j < ndeps; ++j) b.waits_for.push_back(d.get_u64());
    t.blocked.push_back(std::move(b));
  }
  const uint32_t nexternals = get_count(d, 8, "telemetry external");
  t.pending_externals.reserve(nexternals);
  for (uint32_t i = 0; i < nexternals; ++i)
    t.pending_externals.push_back(d.get_u64());
  IDXL_REQUIRE(d.done(), "trailing bytes after telemetry message");
  return t;
}

}  // namespace idxl::dist
