#include "dist/dist_runtime.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "dist/fill_task.hpp"
#include "dist/task_registry.hpp"
#include "dist/worker.hpp"
#include "obs/aggregate.hpp"
#include "support/error.hpp"

namespace idxl::dist {

namespace {

bool reports_equal(const FaultReport& a, const FaultReport& b) {
  return a.failures == b.failures && a.poisoned == b.poisoned;
}

}  // namespace

DistributedRuntime::DistributedRuntime(DistConfig config)
    : config_(std::move(config)), forest_(std::make_shared<RegionForest>()) {
  IDXL_REQUIRE(config_.ranks >= 1, "DistConfig::ranks must be >= 1");
  IDXL_REQUIRE(config_.workers.empty() ||
                   config_.workers.size() == config_.ranks - 1,
               "DistConfig::workers must list exactly ranks - 1 endpoints");
  // Pre-register the runtime helper tasks: Runtime's own lazy registration
  // would assign ids in first-use order, which cannot be replicated. Ids are
  // positional — fill is 0, the delta transfer task is 1 — on every rank.
  const TaskFn* fill = find_named_task("idxl_dist_fill");
  tasks_.emplace_back("idxl_dist_fill", *fill);
  fill_task_ = 0;
  const TaskFn* xfer = find_named_task("idxl_xfer");
  tasks_.emplace_back("idxl_xfer", *xfer);
  xfer_task_ = 1;
}

DistributedRuntime::~DistributedRuntime() {
  try {
    shutdown();
  } catch (const std::exception&) {
    // Destructor: peers may already be gone; nothing useful to do.
  }
}

TaskFnId DistributedRuntime::register_task(std::string name, TaskFn fn) {
  IDXL_REQUIRE(!started_,
               "register_task after the first launch: task ids are "
               "positional and must be fixed before workers start");
  tasks_.emplace_back(std::move(name), std::move(fn));
  return static_cast<TaskFnId>(tasks_.size() - 1);
}

std::string DistributedRuntime::fault_plan_spec() const {
  if (config_.runtime.fault_plan != nullptr)
    return config_.runtime.fault_plan->to_string();
  // Exec-mode daemons do not inherit this process's environment; forward
  // the env plan explicitly so IDXL_FAULT_PLAN works across processes.
  if (auto env = FaultPlan::from_env(); env != nullptr) return env->to_string();
  return {};
}

std::vector<std::byte> DistributedRuntime::setup_bytes() const {
  Setup su;
  su.journal = forest_->setup_journal();
  for (const auto& [name, fn] : tasks_) su.tasks.push_back(name);
  for (uint32_t i = 0; i < forest_->region_count(); ++i) {
    const RegionId r{i};
    const RegionInfo& info = forest_->region(r);
    if (info.root != info.handle) continue;
    const std::size_t vol =
        static_cast<std::size_t>(forest_->storage_bounds(r).volume());
    for (const FieldInfo& fi : forest_->fields(info.fspace)) {
      Setup::Storage st;
      st.region = i;
      st.field = fi.id;
      const std::byte* data = forest_->field_data(r, fi.id);
      st.bytes.assign(data, data + vol * fi.size);
      su.storage.push_back(std::move(st));
    }
  }
  return encode_setup(su);
}

std::vector<net::Socket> DistributedRuntime::start_fork_workers() {
  const uint32_t nranks = config_.ranks;
  const std::size_t nworkers = nranks - 1;
  // All pairs exist before the first fork so each child can drop every fd
  // that is not its own. Forking here is safe precisely because no Runtime,
  // Connection or monitor thread exists yet.
  std::vector<std::pair<net::Socket, net::Socket>> pairs;
  pairs.reserve(nworkers);
  for (std::size_t i = 0; i < nworkers; ++i) pairs.push_back(net::Socket::pair());
  // Direct worker<->worker links: one socketpair per worker pair, also all
  // created up front. Rank a keeps the first end, rank b the second; every
  // child drops the rows that are not its own, and the driver drops them
  // all.
  const bool p2p = delta_ && config_.p2p && nworkers >= 2;
  struct PeerPair {
    uint32_t a, b;  // worker ranks, a < b
    std::pair<net::Socket, net::Socket> socks;
  };
  std::vector<PeerPair> peer_pairs;
  if (p2p)
    for (uint32_t a = 1; a <= nworkers; ++a)
      for (uint32_t b = a + 1; b <= nworkers; ++b)
        peer_pairs.push_back(PeerPair{a, b, net::Socket::pair()});
  for (std::size_t i = 0; i < nworkers; ++i) {
    const pid_t pid = ::fork();
    IDXL_REQUIRE(pid >= 0, "fork failed");
    if (pid == 0) {
      int status = 0;
      {
        const uint32_t rank = static_cast<uint32_t>(i + 1);
        net::Socket mine = std::move(pairs[i].second);
        pairs.clear();  // closes every other end, parent sides included
        WorkerDataPlane dp;
        dp.delta = delta_;
        dp.p2p = p2p;
        dp.fail_peer_links = config_.fail_peer_links;
        dp.xfer_task = xfer_task_;
        for (PeerPair& pp : peer_pairs) {
          if (pp.a == rank)
            dp.peers.emplace_back(pp.b, std::move(pp.socks.first));
          else if (pp.b == rank)
            dp.peers.emplace_back(pp.a, std::move(pp.socks.second));
        }
        peer_pairs.clear();  // closes every link end that is not this child's
        try {
          WorkerSession session(std::move(mine), rank, nranks, config_.runtime,
                                forest_, tasks_, config_.heartbeat_period_ms,
                                config_.peer_stall_window_ms, std::move(dp));
          session.run();
        } catch (const std::exception&) {
          status = 1;
        }
      }
      ::_exit(status);
    }
    children_.push_back(pid);
    pairs[i].second = net::Socket();  // parent drops the child's end
  }
  peer_pairs.clear();  // the driver holds no peer-link ends
  std::vector<net::Socket> driver_ends;
  driver_ends.reserve(nworkers);
  for (auto& p : pairs) driver_ends.push_back(std::move(p.first));
  return driver_ends;
}

std::vector<net::Socket> DistributedRuntime::start_exec_workers() {
  std::vector<net::Socket> socks;
  socks.reserve(config_.workers.size());
  for (const std::string& endpoint : config_.workers) {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      socks.push_back(net::Socket::connect_unix(endpoint));
    } else {
      const std::string host = endpoint.substr(0, colon);
      const int port = std::stoi(endpoint.substr(colon + 1));
      socks.push_back(net::Socket::connect_tcp(host, static_cast<uint16_t>(port)));
    }
  }
  return socks;
}

void DistributedRuntime::ensure_started() {
  if (started_) return;
  started_ = true;
  const std::size_t nworkers = config_.ranks - 1;
  peer_errors_.assign(nworkers, "");
  worker_closed_.assign(nworkers, false);
  worker_net_.assign(nworkers, DataPlaneCounters{});
  worker_metrics_.assign(nworkers, obs::MetricsSnapshot{});

  // Cluster tracing: IDXL_TRACE overrides DistConfig::trace_path, and a
  // requested trace forces profiling on everywhere. This must run before
  // the fork below — fork-mode workers inherit config_.runtime by memory.
  trace_path_ = config_.trace_path;
  if (const char* v = std::getenv("IDXL_TRACE"); v != nullptr && v[0] != '\0') {
    if (v[0] == '0' && v[1] == '\0') {
      trace_path_.clear();
    } else {
      trace_path_ = (v[0] == '1' && v[1] == '\0') ? "idxl_trace.json" : v;
    }
  }
  if (!trace_path_.empty()) config_.runtime.enable_profiling = true;

  // Effective data-plane mode: delta needs at least one worker to talk to
  // and at most 64 ranks (the coherence map's currency bitmask). The
  // star-hub baseline has no such limits.
  delta_ = config_.delta_transfers && nworkers > 0 && config_.ranks <= 64;
  if (delta_) vmap_ = std::make_unique<VersionMap>(config_.ranks);

  const bool exec_mode = !config_.workers.empty();
  std::vector<net::Socket> socks =
      nworkers == 0 ? std::vector<net::Socket>{}
      : exec_mode   ? start_exec_workers()
                    : start_fork_workers();

  // The driver is rank 0 of the replicated run: same hooks as any worker,
  // with outcomes broadcast instead of sent up.
  RuntimeConfig rc = config_.runtime;
  const uint32_t nranks = config_.ranks;
  rc.point_owned = [this, nranks](uint64_t, const Point& p,
                                  const Domain& domain) {
    if (const Route* r = xfers_.issuing()) return r->dest != 0;
    return owner_of(domain, p, nranks) == 0;
  };
  rc.on_task_success = [this](uint64_t seq, uint64_t launch, const Point&,
                              TaskContext& ctx) {
    if (delta_ && ctx.fn == xfer_task_) {
      const Route r = xfer_route(ctx);
      if (r.src == 0) send_xfer_data(seq, launch, r, ctx);
      xfers_.settle(launch);
      return;
    }
    TaskDone td;
    td.seq = seq;
    td.ctx = obs::TraceContext{launch, seq, 0};
    td.outcome.ret = ctx.return_value;
    if (!delta_ || needs_full_outcome(ctx)) {
      for (PhysicalRegion& pr : ctx.regions)
        if (privilege_writes(pr.privilege())) pr.copy_out(td.outcome.region_bytes);
    } else {
      // Delta mode: the written data stays on rank 0; the coherence map
      // routes it on demand.
      td.outcome.has_data = false;
    }
    if (!td.outcome.region_bytes.empty())
      net_.bytes_hub.fetch_add(td.outcome.region_bytes.size() * conns_.size(),
                               std::memory_order_relaxed);
    send_task_done(td);
  };
  rc.on_task_fault = [this](const TaskFault& fault) {
    TaskDone td;
    td.seq = fault.seq;
    td.ctx = obs::TraceContext{fault.launch, fault.seq, 0};
    td.outcome.kind = fault.kind;
    td.outcome.root = fault.root;
    td.outcome.attempts = fault.attempts;
    td.outcome.message = fault.message;
    if (const auto ends = xfers_.settle(fault.launch)) {
      // A failed or poisoned transfer: the notice goes to its destination
      // only; a bystander driver sends nothing (see TransferBook).
      if (ends->src != 0) return;
      td.dest = ends->dest;
      try {
        conns_[ends->dest - 1]->send(static_cast<uint8_t>(Msg::kTaskDone),
                                     encode_task_done(td));
      } catch (const std::exception&) {
        // Dead peer; fence() reports the loss.
      }
      return;
    }
    send_task_done(td);
  };
  local_ = std::make_unique<Runtime>(std::move(rc), forest_);
  for (const auto& [name, fn] : tasks_) local_->register_task(name, fn);
  clocks_ = std::make_unique<net::ClockTable>(&local_->metrics());
  name_xfer_apply_ = local_->profiler().intern("xfer-apply");
  name_done_apply_ = local_->profiler().intern("done-apply");
  // Distributed watchdog: when the driver's own watchdog fires, follow the
  // local dump with the merged cross-rank view (worker watchdogs push their
  // stall state as kTelemetry; see distributed_stall_dump).
  if (obs::Watchdog* wd = local_->watchdog())
    wd->set_on_stall([this](const obs::StallReport&) {
      std::fputs(distributed_stall_dump().c_str(), stderr);
    });

  obs::MetricsRegistry& mreg = local_->metrics();
  m_bytes_hub_ = mreg.counter("idxl_net_data_bytes_total",
                              "Data-plane payload bytes moved, by kind and route",
                              {{"kind", "full"}, {"route", "hub"}});
  m_bytes_relay_ = mreg.counter("idxl_net_data_bytes_total",
                                "Data-plane payload bytes moved, by kind and route",
                                {{"kind", "delta"}, {"route", "relay"}});
  m_bytes_p2p_ = mreg.counter("idxl_net_data_bytes_total",
                              "Data-plane payload bytes moved, by kind and route",
                              {{"kind", "delta"}, {"route", "p2p"}});
  m_transfers_ = mreg.counter("idxl_net_transfers_total",
                              "kRegionData transfer messages sent, run-wide");
  m_xfer_size_ = mreg.histogram("idxl_net_transfer_bytes",
                                "Per-transfer payload bytes (sender side)");
  m_xfer_latency_ = mreg.histogram(
      "idxl_net_transfer_latency_ns",
      "Transfer send-to-apply latency, steady-clock ns (receiver side)");

  if (nworkers == 0) return;

  net::NetObs obs;
  obs.metrics = &local_->metrics();
  obs.recorder = local_->config().enable_flight_recorder
                     ? &local_->flight_recorder()
                     : nullptr;
  obs.type_name = msg_name;
  conns_.reserve(nworkers);
  for (std::size_t i = 0; i < nworkers; ++i)
    conns_.push_back(std::make_unique<net::Connection>(
        std::move(socks[i]), "rank-" + std::to_string(i + 1), obs));

  if (exec_mode) {
    const std::vector<std::byte> setup = setup_bytes();
    for (std::size_t i = 0; i < nworkers; ++i) {
      Hello h;
      h.rank = static_cast<uint32_t>(i + 1);
      h.nranks = nranks;
      h.workers = config_.runtime.workers;
      h.heartbeat_period_ms = config_.heartbeat_period_ms;
      h.peer_stall_window_ms = config_.peer_stall_window_ms;
      h.delta_transfers = delta_ ? 1 : 0;
      h.p2p = 0;  // exec daemons have no route to each other
      h.enable_profiling = config_.runtime.enable_profiling ? 1 : 0;
      h.fault_plan = fault_plan_spec();
      conns_[i]->send(static_cast<uint8_t>(Msg::kHello), encode_hello(h));
      conns_[i]->send(static_cast<uint8_t>(Msg::kSetup), setup);
    }
  }

  for (std::size_t i = 0; i < nworkers; ++i)
    conns_[i]->start_recv(
        [this, i](net::Frame& frame) { on_worker_frame(i, frame); },
        [this, i](const std::string& error) { on_worker_close(i, error); });

  // Handshake: every worker acks (or is declared lost) before first launch.
  {
    std::unique_lock<std::mutex> lk(fence_mu_);
    fence_cv_.wait(lk, [&] {
      return hello_acks_ + closed_count_locked() >= nworkers;
    });
    for (std::size_t i = 0; i < nworkers; ++i)
      IDXL_REQUIRE(!worker_closed_[i], "worker rank " + std::to_string(i + 1) +
                                           " lost during handshake: " +
                                           peer_errors_[i]);
  }

  std::vector<net::Connection*> peers;
  for (auto& c : conns_) peers.push_back(c.get());
  monitor_ = std::make_unique<net::PeerMonitor>(
      std::move(peers), static_cast<uint8_t>(Msg::kPing),
      config_.heartbeat_period_ms, config_.peer_stall_window_ms,
      &local_->metrics(), nullptr, &net::ClockTable::make_ping);
}

std::size_t DistributedRuntime::closed_count_locked() const {
  std::size_t n = 0;
  for (const bool c : worker_closed_)
    if (c) ++n;
  return n;
}

void DistributedRuntime::broadcast(Msg type, const std::vector<std::byte>& payload) {
  for (auto& c : conns_) {
    try {
      c->send(static_cast<uint8_t>(type), payload);
    } catch (const std::exception&) {
      // Dead peer; fence() reports the loss.
    }
  }
}

void DistributedRuntime::send_task_done(const TaskDone& done) {
  broadcast(Msg::kTaskDone, encode_task_done(done));
}

// --- delta data plane (driver side) ----------------------------------------

void DistributedRuntime::add_transfer(std::vector<Route>& routes,
                                      const Transfer& t, uint32_t dest) {
  // Merging moves t's rect up to the earlier route's place in the stream.
  // Every transfer is read-write on its producer, so that keeps every
  // dependence edge and poison fate unless a transfer planned in between
  // touches an overlapping producer: then t starts a route of its own.
  // Routes of different producers never merge, or one producer's failure
  // would poison the consumers of another's data.
  for (auto it = routes.rbegin(); it != routes.rend(); ++it) {
    if (it->src == t.src && it->dest == dest && it->producer == t.producer &&
        it->field == t.field) {
      it->rects.push_back(t.rect);
      return;
    }
    if (forest_->regions_interfere(it->producer, t.producer)) break;
  }
  Route r;
  r.src = t.src;
  r.dest = dest;
  r.producer = t.producer;
  r.field = t.field;
  r.rects.push_back(t.rect);
  routes.push_back(std::move(r));
}

void DistributedRuntime::issue_routes(std::vector<Route>& routes) {
  if (routes.empty()) return;
  // The launch ids the replicated transfers will be assigned, identical on
  // every rank, so receivers assert their streams stayed aligned.
  uint64_t launch = local_->peek_next_launch_id();
  for (Route& r : routes) r.launch = launch++;
  // Directives first, on every connection, then the identical local issue:
  // all ranks observe the transfers at the same place in the launch stream.
  broadcast(Msg::kRoute, encode_routes(routes));
  xfers_.issue(*local_, xfer_task_, routes, config_.ranks);
}

void DistributedRuntime::plan_point_task(const Domain& domain, const Point& p,
                                         const std::vector<RegionArg>& args,
                                         std::vector<Route>& routes) {
  const uint32_t owner = owner_of(domain, p, config_.ranks);
  // Reads first: every transfer the consumer depends on must enter the
  // stream (kRoute + replicated issue) before the consumer itself.
  std::vector<Transfer> transfers;
  for (const RegionArg& ra : args) {
    if (ra.privilege == Privilege::kWrite) continue;  // no read half
    const RegionInfo& info = forest_->region(ra.region);
    const Rect bounds = forest_->region_domain(ra.region).bounds();
    for (FieldId f : ra.fields) {
      transfers.clear();
      vmap_->plan_read(info.root, f, bounds, owner, transfers);
      for (const Transfer& t : transfers) add_transfer(routes, t, owner);
    }
  }
  // Writes. A sparse write footprint or a reduction makes the owner
  // broadcast the whole task outcome (needs_full_outcome) — mirror that
  // here, or the map would claim data that never shipped.
  bool full = false;
  for (const RegionArg& ra : args)
    if (needs_full_outcome(ra.privilege, forest_->region_domain(ra.region)))
      full = true;
  for (const RegionArg& ra : args) {
    if (!privilege_writes(ra.privilege)) continue;
    const RegionInfo& info = forest_->region(ra.region);
    const Domain& dom = forest_->region_domain(ra.region);
    for (FieldId f : ra.fields) {
      if (!full) {
        vmap_->note_write(info.root, f, dom.bounds(), owner, ra.region);
      } else if (dom.dense()) {
        vmap_->note_write_everywhere(info.root, f, dom.bounds(), owner,
                                     ra.region);
      } else {
        // A sparse footprint's bounding box would erase records of newer
        // data the task never touched — record the exact points instead.
        dom.for_each([&](const Point& q) {
          vmap_->note_write_everywhere(info.root, f, Rect(q, q), owner,
                                       ra.region);
        });
      }
    }
  }
}

void DistributedRuntime::plan_index_launch(const IndexLauncher& launcher,
                                           std::vector<Route>& routes) {
  // Planning runs before the launch is broadcast, so any subregion the plan
  // is first to touch gets its RegionId here, on the driver only. Force the
  // same argument-major table order Runtime::execute_index uses, or the
  // lazily-assigned ids diverge from the workers' and the RegionIds shipped
  // in kRoute directives resolve to the wrong subregion remotely.
  for (const ProjectedArg& pa : launcher.args)
    forest_->subregion_table(pa.parent, pa.partition);
  launcher.domain.for_each([&](const Point& p) {
    std::vector<RegionArg> args;
    args.reserve(launcher.args.size());
    for (const ProjectedArg& pa : launcher.args)
      args.push_back(RegionArg{
          forest_->subregion(pa.parent, pa.partition, pa.functor(p)),
          pa.fields, pa.privilege, pa.redop});
    plan_point_task(launcher.domain, p, args, routes);
  });
}

void DistributedRuntime::send_xfer_data(uint64_t seq, uint64_t launch,
                                        const Route& r, TaskContext& ctx) {
  IDXL_REQUIRE(r.dest >= 1 && r.dest <= conns_.size(),
               "driver transfer task routed to an invalid destination");
  const RegionData rd =
      make_region_data(seq, obs::TraceContext{launch, seq, 0}, r, ctx);
  uint64_t nbytes = 0;
  for (const RegionPatch& p : rd.patches) nbytes += p.bytes.size();
  try {
    conns_[r.dest - 1]->send(static_cast<uint8_t>(Msg::kRegionData),
                             encode_region_data(rd));
    net_.bytes_relay.fetch_add(nbytes, std::memory_order_relaxed);
    net_.transfers.fetch_add(1, std::memory_order_relaxed);
    m_xfer_size_.observe(nbytes);
  } catch (const std::exception&) {
    // Dead peer; fence() reports the loss.
  }
}

void DistributedRuntime::on_worker_frame(std::size_t worker, net::Frame& frame) {
  switch (static_cast<Msg>(frame.type)) {
    case Msg::kHelloAck: {
      {
        std::lock_guard<std::mutex> lock(fence_mu_);
        ++hello_acks_;
      }
      fence_cv_.notify_all();
      break;
    }
    case Msg::kTaskDone: {
      // Star topology: relay the owner's outcome to the other workers
      // *before* completing locally, so on every per-connection FIFO all
      // outcomes a fence depends on precede the fence frame itself. An
      // outcome addressed to one rank (a transfer's fault notice) goes to
      // that rank only.
      TaskDone td = decode_task_done(frame.payload);
      if (td.dest != TaskDone::kNoDest && td.dest != 0) {
        IDXL_REQUIRE(td.dest <= conns_.size() && td.dest != worker + 1,
                     "task-done frame addressed to an invalid rank");
        try {
          conns_[td.dest - 1]->send(frame.type, frame.payload);
        } catch (const std::exception&) {
        }
        break;
      }
      if (td.dest == TaskDone::kNoDest) {
        std::size_t relays = 0;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
          if (i == worker) continue;
          try {
            conns_[i]->send(frame.type, frame.payload);
            ++relays;
          } catch (const std::exception&) {
          }
        }
        if (!td.outcome.region_bytes.empty())
          net_.bytes_hub.fetch_add(td.outcome.region_bytes.size() * relays,
                                   std::memory_order_relaxed);
      }
      const uint64_t span_start = local_->profiler().now_ns();
      const uint64_t seq = td.seq;
      const obs::TraceContext ctx = td.ctx;
      // Span first: the completion is what a fence observes, so it must
      // order the profiler write before collect_cluster_trace reads it.
      record_apply_span(name_done_apply_, seq, ctx, span_start);
      local_->complete_external(seq, std::move(td.outcome));
      break;
    }
    case Msg::kRegionData: {
      RegionData rd = decode_region_data(frame.payload);
      if (rd.dest == 0) {
        // A transfer to the driver (a sync_for_read recall) completes as
        // its payload lands.
        const uint64_t now = steady_now_ns();
        if (rd.sent_ns != 0 && now >= rd.sent_ns)
          m_xfer_latency_.observe(now - rd.sent_ns);
        const uint64_t span_start = local_->profiler().now_ns();
        RemoteOutcome o;
        o.has_data = false;
        o.patches = std::move(rd.patches);
        record_apply_span(name_xfer_apply_, rd.seq, rd.ctx, span_start);
        local_->complete_external(rd.seq, std::move(o));
        break;
      }
      // Relay leg of the fallback ladder: forward verbatim to the
      // destination. The second wire hop is counted — route labels measure
      // bytes on wires, not logical transfers.
      //
      // Fence invariant. The driver's own copy of this transfer completed
      // locally, so its wait_all() does not wait for this relay. A fence
      // frame overtaking the payload on dest's connection would deadlock
      // dest, whose receive thread waits inside the fence for this very
      // transfer. It cannot: every transfer is planned for a consumer on
      // dest that depends on it, and the driver's fence waits for that
      // consumer's task-done. Dest sends that only after the payload was
      // applied, so the relay below precedes the fence frame on dest's
      // connection. (Transfers to the driver have no such consumer; the
      // driver's own wait_all() waits for them instead.)
      IDXL_REQUIRE(rd.dest <= conns_.size(),
                   "region-data frame routed to an invalid destination");
      uint64_t nbytes = 0;
      for (const RegionPatch& p : rd.patches) nbytes += p.bytes.size();
      try {
        conns_[rd.dest - 1]->send(frame.type, frame.payload);
        net_.bytes_relay.fetch_add(nbytes, std::memory_order_relaxed);
      } catch (const std::exception&) {
      }
      break;
    }
    case Msg::kFenceAck: {
      FenceAck ack = decode_fence_ack(frame.payload);
      {
        std::lock_guard<std::mutex> lock(fence_mu_);
        fence_acks_[ack.fence].emplace(worker, std::move(ack));
      }
      fence_cv_.notify_all();
      break;
    }
    case Msg::kTelemetry: {
      Telemetry t = decode_telemetry(frame.payload);
      const bool stall =
          t.flavor == static_cast<uint8_t>(TelemetryFlavor::kStallPush);
      {
        std::lock_guard<std::mutex> lock(fence_mu_);
        (stall ? stall_push_ : telemetry_)[t.rank] = std::move(t);
      }
      if (!stall) fence_cv_.notify_all();
      break;
    }
    case Msg::kBye:
      break;  // the recv loop ends right after; on_worker_close records it
    case Msg::kPing: {
      // Heartbeat carrying a clock probe: answer pings with a stamped pong,
      // fold pongs into this worker's offset estimate.
      const std::vector<std::byte> reply =
          clocks_->on_probe(static_cast<uint32_t>(worker + 1), frame.payload);
      if (!reply.empty()) {
        try {
          conns_[worker]->send(static_cast<uint8_t>(Msg::kPing), reply);
        } catch (const std::exception&) {
          // Dead peer; fence() reports the loss.
        }
      }
      break;
    }
    default:
      // Throwing here lands in recv_loop's catch: the connection is
      // reported closed with this message.
      IDXL_REQUIRE(false, "driver received unexpected frame type " +
                              std::to_string(frame.type) + " (" +
                              msg_name(frame.type) + ")");
  }
}

void DistributedRuntime::record_apply_span(uint32_t name, uint64_t seq,
                                           const obs::TraceContext& ctx,
                                           uint64_t start_ns) {
  Profiler& prof = local_->profiler();
  if (!prof.enabled() || !ctx.valid()) return;
  ProfileEvent ev;
  ev.name = name;
  ev.cat = ProfCategory::kExchange;
  ev.start_ns = start_ns;
  ev.dur_ns = prof.now_ns() - start_ns;
  ev.seq = seq;
  ev.launch = ctx.launch;
  ev.parent = ctx.span;
  ev.origin = ctx.origin;
  prof.record(ev);
}

void DistributedRuntime::on_worker_close(std::size_t worker,
                                         const std::string& error) {
  bool teardown;
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    worker_closed_[worker] = true;
    if (!error.empty() && peer_errors_[worker].empty())
      peer_errors_[worker] = error;
    teardown = tearing_down_;
  }
  if (!teardown) {
    // Outcomes owned by this worker will never arrive; resolve its
    // externals as cancelled so wait_all()/teardown cannot hang. (Externals
    // owned by still-live workers are cancelled too — a lost rank ends the
    // run, matching the fence error below.)
    local_->abandon_externals("worker rank " + std::to_string(worker + 1) +
                              " lost: " +
                              (error.empty() ? "connection closed" : error));
  }
  fence_cv_.notify_all();
}

void DistributedRuntime::publish_net_metrics_locked() {
  DataPlaneStats t;
  t.bytes_hub = net_.bytes_hub.load(std::memory_order_relaxed);
  t.bytes_relay = net_.bytes_relay.load(std::memory_order_relaxed);
  t.bytes_p2p = net_.bytes_p2p.load(std::memory_order_relaxed);
  t.transfers = net_.transfers.load(std::memory_order_relaxed);
  for (const DataPlaneCounters& w : worker_net_) {
    t.bytes_hub += w.bytes_hub;
    t.bytes_relay += w.bytes_relay;
    t.bytes_p2p += w.bytes_p2p;
    t.transfers += w.transfers;
  }
  m_bytes_hub_.inc(t.bytes_hub - metrics_emitted_.bytes_hub);
  m_bytes_relay_.inc(t.bytes_relay - metrics_emitted_.bytes_relay);
  m_bytes_p2p_.inc(t.bytes_p2p - metrics_emitted_.bytes_p2p);
  m_transfers_.inc(t.transfers - metrics_emitted_.transfers);
  metrics_emitted_ = t;
}

bool DistributedRuntime::fence(bool nothrow, bool want_metrics) {
  local_->wait_all();
  const std::size_t nworkers = conns_.size();
  if (nworkers == 0) return true;
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    id = ++next_fence_;
  }
  broadcast(Msg::kFence, encode_fence(Fence{id, want_metrics}));
  std::map<std::size_t, FenceAck> acks;
  std::string problem;
  {
    std::unique_lock<std::mutex> lk(fence_mu_);
    fence_cv_.wait(lk, [&] {
      const auto it = fence_acks_.find(id);
      for (std::size_t i = 0; i < nworkers; ++i) {
        const bool acked = it != fence_acks_.end() && it->second.count(i) != 0;
        if (!acked && !worker_closed_[i]) return false;
      }
      return true;
    });
    acks = std::move(fence_acks_[id]);
    fence_acks_.erase(id);
    // Fold each worker's cumulative data-plane counters in, then publish
    // run-wide totals to the idxl_net_* series. A metrics snapshot, when
    // asked for, refreshes the per-rank cluster view.
    for (const auto& [worker, ack] : acks) {
      worker_net_[worker] = ack.net;
      if (!ack.metrics.empty())
        worker_metrics_[worker] = deserialize_metrics_snapshot(ack.metrics);
    }
    publish_net_metrics_locked();
    for (std::size_t i = 0; i < nworkers; ++i) {
      if (acks.count(i) != 0) continue;
      problem = "worker rank " + std::to_string(i + 1) +
                " lost before fence " + std::to_string(id) + ": " +
                (peer_errors_[i].empty() ? "connection closed"
                                         : peer_errors_[i]);
      break;
    }
  }
  if (problem.empty() && config_.verify_reports) {
    const FaultReport mine = local_->fault_report();
    for (const auto& [worker, ack] : acks) {
      if (reports_equal(mine, ack.report)) continue;
      problem = "fault-report divergence at fence " + std::to_string(id) +
                ": rank " + std::to_string(worker + 1) + " disagrees with "
                "rank 0 (control replication bug — reports must be "
                "identical on every rank)";
      break;
    }
  }
  if (problem.empty()) return true;
  if (nothrow) return false;
  throw RuntimeError(problem);
}

LaunchResult DistributedRuntime::execute(const TaskLauncher& launcher) {
  ensure_started();
  if (conns_.empty()) return local_->execute(launcher);
  // Serialize first: an unserializable launcher must throw before any
  // rank sees a frame, or the replicated streams diverge.
  (void)serialize_task_launcher(launcher);
  // Plan before the consumer's frame goes out: its kRoute frame must
  // precede it on every connection so all replicated streams agree.
  std::vector<Route> routes;
  if (delta_ && !launcher.internal)
    plan_point_task(launcher.launch_domain, launcher.point, launcher.args,
                    routes);
  issue_routes(routes);
  // Stamp the trace context after planning — the plan's transfer issues
  // consume launch ids, so only now is the next id this descriptor's.
  TaskLauncher annotated = launcher;
  annotated.trace_ctx = obs::TraceContext{local_->peek_next_launch_id(),
                                          obs::TraceContext::kNone, 0};
  broadcast(Msg::kSingle, serialize_task_launcher(annotated));
  return local_->execute(annotated);
}

LaunchResult DistributedRuntime::execute_index(const IndexLauncher& launcher) {
  ensure_started();
  if (conns_.empty()) return local_->execute_index(launcher);
  // Validate serializability before any rank (rank 0 included) observes the
  // launch: a throw here must leave every replicated stream untouched.
  (void)serialize_launcher(launcher);
  std::vector<Route> routes;
  if (delta_) plan_index_launch(launcher, routes);
  issue_routes(routes);
  // Issue on the driver first — rank 0's analysis populates the certificate
  // cache with this launch's pair verdicts — then ship the cache as a bundle
  // on the descriptor, so import-only workers validate the certificates
  // instead of re-running the analysis. Issue order is preserved: frames go
  // out on this thread in program order, and issuance is asynchronous, so
  // no task outcome can precede its launch frame.
  LaunchResult result = local_->execute_index(launcher);
  IndexLauncher annotated = launcher;
  annotated.analysis_bundle = local_->export_interference_bundle();
  // Replicas assert they assign the same launch id rank 0 just did.
  annotated.trace_ctx =
      obs::TraceContext{result.launch_id, obs::TraceContext::kNone, 0};
  broadcast(Msg::kLaunch, serialize_launcher(annotated));
  return result;
}

void DistributedRuntime::wait_all() {
  if (!started_) return;
  fence(/*nothrow=*/false);
}

void DistributedRuntime::sync_for_read() {
  if (started_ && delta_ && local_ != nullptr && !conns_.empty()) {
    // Recall: route every span some worker produced back to rank 0 so a
    // direct read of the forest sees current data. Spans already current
    // here ship nothing.
    std::vector<Route> routes;
    std::vector<Transfer> transfers;
    for (uint32_t i = 0; i < forest_->region_count(); ++i) {
      const RegionId r{i};
      const RegionInfo& info = forest_->region(r);
      if (info.root != info.handle) continue;
      const Rect bounds = forest_->storage_bounds(r);
      for (const FieldInfo& fi : forest_->fields(info.fspace)) {
        transfers.clear();
        vmap_->plan_read(r, fi.id, bounds, /*dest=*/0, transfers);
        for (const Transfer& t : transfers) add_transfer(routes, t, /*dest=*/0);
      }
    }
    issue_routes(routes);
  }
  wait_all();
}

DataPlaneStats DistributedRuntime::data_plane_stats() {
  // A fence pulls every worker's current counters in via its ack.
  if (started_ && local_ != nullptr && !conns_.empty()) fence(/*nothrow=*/true);
  std::lock_guard<std::mutex> lock(fence_mu_);
  DataPlaneStats t;
  t.bytes_hub = net_.bytes_hub.load(std::memory_order_relaxed);
  t.bytes_relay = net_.bytes_relay.load(std::memory_order_relaxed);
  t.bytes_p2p = net_.bytes_p2p.load(std::memory_order_relaxed);
  t.transfers = net_.transfers.load(std::memory_order_relaxed);
  for (const DataPlaneCounters& w : worker_net_) {
    t.bytes_hub += w.bytes_hub;
    t.bytes_relay += w.bytes_relay;
    t.bytes_p2p += w.bytes_p2p;
    t.transfers += w.transfers;
  }
  return t;
}

obs::MetricsSnapshot DistributedRuntime::cluster_metrics() {
  ensure_started();
  // The only fence that asks for every worker's snapshot.
  if (local_ != nullptr && !conns_.empty())
    fence(/*nothrow=*/true, /*want_metrics=*/true);
  std::vector<std::pair<uint32_t, obs::MetricsSnapshot>> ranks;
  ranks.emplace_back(0, local_->metrics().snapshot());
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    for (std::size_t i = 0; i < worker_metrics_.size(); ++i)
      if (!worker_metrics_[i].families.empty())
        ranks.emplace_back(static_cast<uint32_t>(i + 1), worker_metrics_[i]);
  }
  return obs::aggregate_cluster(ranks);
}

std::string DistributedRuntime::cluster_prometheus() {
  return cluster_metrics().prometheus_text();
}

std::string DistributedRuntime::cluster_metrics_json() {
  return cluster_metrics().json();
}

obs::ClusterTrace DistributedRuntime::collect_cluster_trace() {
  ensure_started();
  obs::ClusterTrace trace;
  if (!conns_.empty()) {
    // Quiesce first: workers' recv threads are their issuing threads, and a
    // telemetry read of the span buffers is only safe with idle pools.
    fence(/*nothrow=*/true);
    {
      std::lock_guard<std::mutex> lock(fence_mu_);
      telemetry_.clear();
    }
    broadcast(Msg::kTelemetryReq, {});
    std::unique_lock<std::mutex> lk(fence_mu_);
    fence_cv_.wait_for(lk, std::chrono::seconds(10), [&] {
      return telemetry_.size() + closed_count_locked() >= conns_.size();
    });
  }
  obs::RankTrace r0;
  r0.rank = 0;
  const Profiler& prof = local_->profiler();
  r0.epoch_ns = prof.epoch_ns();
  if (prof.enabled()) {
    r0.names = prof.names();
    r0.spans = prof.events();
    r0.samples = prof.task_samples();
  }
  r0.recent = local_->flight_recorder().tail(256);
  trace.ranks.push_back(std::move(r0));
  std::lock_guard<std::mutex> lock(fence_mu_);
  for (auto& [rank, t] : telemetry_) {
    obs::RankTrace rt;
    rt.rank = rank;
    const net::ClockEstimate est = clocks_->estimate(rank);
    rt.clock_offset_ns = est.valid ? est.offset_ns : 0;
    rt.rtt_ns = est.valid ? est.rtt_ns : 0;
    rt.epoch_ns = t.epoch_ns;
    rt.names = std::move(t.names);
    rt.spans = std::move(t.spans);
    rt.samples = std::move(t.samples);
    rt.recent = std::move(t.recent);
    trace.ranks.push_back(std::move(rt));
  }
  telemetry_.clear();
  return trace;
}

void DistributedRuntime::write_merged_trace(const std::string& path) {
  collect_cluster_trace().write_chrome_trace(path);
}

std::string DistributedRuntime::distributed_stall_dump() {
  std::vector<obs::RankStall> ranks;
  obs::RankStall mine;
  mine.rank = 0;
  mine.report = local_->stall_report();
  for (const auto& [seq, label] : local_->pending_externals())
    mine.pending_externals.push_back(seq);
  ranks.push_back(std::move(mine));
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    for (const auto& [rank, t] : stall_push_) {
      obs::RankStall rs;
      rs.rank = rank;
      rs.report.completed = t.completed;
      rs.report.pending = t.pending;
      rs.report.window_ms = t.window_ms;
      rs.report.blocked = t.blocked;
      rs.report.recent = t.recent;
      rs.report.metrics = t.metrics;
      rs.pending_externals = t.pending_externals;
      ranks.push_back(std::move(rs));
    }
  }
  return obs::merged_stall_dump(ranks);
}

FaultReport DistributedRuntime::fault_report() const {
  return local_ != nullptr ? local_->fault_report() : FaultReport{};
}

RuntimeStats DistributedRuntime::stats() const {
  return local_ != nullptr ? local_->stats() : RuntimeStats{};
}

obs::MetricsRegistry& DistributedRuntime::metrics() {
  ensure_started();
  return local_->metrics();
}

void DistributedRuntime::fill_bytes_region(RegionId r, FieldId f,
                                           const void* pattern,
                                           std::size_t size) {
  DistFillArgs args{};
  IDXL_REQUIRE(size > 0 && size <= sizeof(args.pattern),
               "fill pattern too large");
  IDXL_REQUIRE(forest_->field(forest_->region(r).fspace, f).size == size,
               "fill value type does not match the field size");
  args.field = f;
  args.size = size;
  std::memcpy(args.pattern, pattern, size);
  TaskLauncher launcher;
  launcher.task = fill_task_;
  launcher.scalar_args = ArgBuffer::of(args);
  launcher.args = {{r, {f}, Privilege::kWrite, ReductionOp::kNone}};
  execute(launcher);
}

void DistributedRuntime::shutdown() {
  if (!started_ || local_ == nullptr) {
    local_.reset();
    return;
  }
  if (!trace_path_.empty()) {
    // Workers are quiescent after the fence inside collect_cluster_trace()
    // and still listening — the last moment every rank's spans are whole.
    try {
      write_merged_trace(trace_path_);
    } catch (const std::exception&) {
      // Tracing must never turn a clean shutdown into a failure.
    }
  }
  if (!conns_.empty()) {
    fence(/*nothrow=*/true);
    if (monitor_ != nullptr) monitor_->stop();
    {
      std::lock_guard<std::mutex> lock(fence_mu_);
      tearing_down_ = true;
    }
    broadcast(Msg::kShutdown, {});
    {
      std::unique_lock<std::mutex> lk(fence_mu_);
      fence_cv_.wait_for(lk, std::chrono::seconds(30), [&] {
        return closed_count_locked() >= conns_.size();
      });
    }
    for (auto& c : conns_) c->close();
    conns_.clear();
  }
  for (const pid_t pid : children_) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  children_.clear();
  local_.reset();
  started_ = false;
}

}  // namespace idxl::dist
