// service_2tenants: an in-process ServiceRuntime over a local Runtime with
// 2 pool workers, driven by 2 client threads over Unix sockets.
//
// Each client is one tenant (weights 1 and 2) with its own region; its size
// and the order in which the client's launches alternate between the
// region's two fields are drawn from the seed. A client runs a closed loop:
// 8 pipelined launches of a 4-point disjoint increment, then fence. One
// round is one such window plus its fence.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "dist/smoke_tasks.hpp"
#include "net/socket.hpp"
#include "runtime/runtime.hpp"
#include "service/client.hpp"
#include "service/service_runtime.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using Rt = Traced<idxl::Runtime>;
constexpr unsigned kWorkers = 2;
constexpr int kClients = 2;
constexpr int kWindow = 8;
constexpr int64_t kBlocks = 4;

/// One tenant: its connection, its region and what the server acknowledged.
struct Tenant {
  std::unique_ptr<idxl::service::ServiceClient> client;
  idxl::RegionId region{};
  idxl::FieldId field[2] = {0, 0};
  idxl::IndexLauncher launcher[2];
  std::mt19937_64 rng;
  uint64_t acked[2] = {0, 0};  ///< increments the server acknowledged, per field
  uint64_t rejected = 0;
  uint64_t windows = 0;
  std::vector<double> rtt_us;
  std::string error;
};

void open_tenant(Tenant& t, const std::string& sock, int index, uint64_t seed) {
  idxl::service::ClientHello hello;
  hello.tenant = "tenant" + std::to_string(index);
  hello.weight = static_cast<uint32_t>(index + 1);
  t.client = std::make_unique<idxl::service::ServiceClient>(
      idxl::net::Socket::connect_unix(sock), hello);
  t.rng.seed(seed * 1000003u + static_cast<uint64_t>(index));
  idxl::service::ServiceClient& c = *t.client;
  // Region size from the seed: 4 blocks of 8..64 elements.
  const int64_t per_block = 8 + static_cast<int64_t>(t.rng() % 57);
  const int64_t elems = per_block * kBlocks;
  const idxl::IndexSpaceId is = c.create_index_space(idxl::Domain(idxl::Rect::line(elems)));
  const idxl::FieldSpaceId fs = c.create_field_space();
  t.field[0] = c.allocate_field(fs, sizeof(double), "a");
  t.field[1] = c.allocate_field(fs, sizeof(double), "b");
  std::vector<idxl::Domain> blocks;
  for (int64_t b = 0; b < kBlocks; ++b)
    blocks.emplace_back(idxl::Rect(idxl::Point::p1(b * per_block),
                                   idxl::Point::p1((b + 1) * per_block - 1)));
  const idxl::PartitionId part = c.create_partition(is, idxl::Rect::line(kBlocks), blocks,
                                                    idxl::Disjointness::kDisjoint);
  t.region = c.create_region(is, fs);
  const idxl::IndexLauncher increment = idxl::IndexLauncher::over(idxl::Domain::line(kBlocks))
                                            .with_task(c.task_id("smoke_increment"));
  for (int f = 0; f < 2; ++f) {
    c.fill(t.region, t.field[f], 0.0);
    idxl::dist::smoke::StencilArgs args;
    args.fin = t.field[f];
    t.launcher[f] = increment;
    t.launcher[f]
        .region(t.region, part, idxl::ProjectionFunctor::identity(1), {t.field[f]},
                idxl::Privilege::kReadWrite)
        .scalars(args);
  }
}

/// One closed-loop round: a window of pipelined launches, then fence. The
/// fence waits for every ack, so collecting them afterwards does not block;
/// it keeps the client from holding one ack per launch for the whole run.
bool window(Tenant& t, SpanRecorder* rec) {
  const uint64_t round = t.windows++;
  const uint64_t t0 = now_ns();
  {
    ScopedSpan span(rec, "bench", "round", round);
    std::pair<uint64_t, int> sent[kWindow];  // (tag, field)
    for (auto& [tag, f] : sent) {
      f = static_cast<int>(t.rng() & 1);
      ScopedSpan launch(rec, "service", "launch", round);
      tag = t.client->launch(t.launcher[f]);
    }
    {
      ScopedSpan fence(rec, "service", "fence", round);
      if (!t.client->fence().ok()) {
        t.error = "fence reported faults";
        return false;
      }
    }
    for (const auto& [tag, f] : sent) {
      if (t.client->await_ack(tag).code == idxl::service::Err::kOk) ++t.acked[f];
      else ++t.rejected;
    }
  }
  t.rtt_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  return true;
}

void client_loop(Tenant* t, uint64_t deadline, SpanRecorder* rec) {
  try {
    while (now_ns() < deadline)
      if (!window(*t, rec)) return;
  } catch (const std::exception& e) {
    t->error = e.what();
  }
}

struct Server {
  Rt* backend = nullptr;  // owned by `service`
  std::unique_ptr<idxl::service::ServiceRuntime> service;
  std::vector<Tenant> tenants;
};

Phase timed_phase(Server& s, double seconds, SpanRecorder* rec) {
  s.backend->attach(rec);
  uint64_t before = 0;
  for (Tenant& t : s.tenants) {
    t.rtt_us.clear();
    before += t.acked[0] + t.acked[1];
  }
  const uint64_t start = now_ns();
  const auto deadline = start + static_cast<uint64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (Tenant& t : s.tenants) threads.emplace_back(client_loop, &t, deadline, rec);
    for (std::thread& th : threads) th.join();
  }
  Phase ph;
  ph.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  s.backend->attach(nullptr);
  for (Tenant& t : s.tenants) {
    ph.launches += t.acked[0] + t.acked[1];
    ph.rounds += t.rtt_us.size();
    ph.round_us.insert(ph.round_us.end(), t.rtt_us.begin(), t.rtt_us.end());
  }
  ph.launches -= before;
  ph.points = ph.launches * kBlocks;
  return ph;
}

/// Field values the server holds against the increments it acknowledged.
bool check_tenant(Tenant& t, std::string* why) {
  if (!t.error.empty()) {
    *why = "client error: " + t.error;
    return false;
  }
  for (int f = 0; f < 2; ++f) {
    const std::vector<std::byte> bytes = t.client->read_field(t.region, t.field[f]);
    std::vector<double> v(bytes.size() / sizeof(double));
    std::memcpy(v.data(), bytes.data(), v.size() * sizeof(double));
    if (v.empty()) {
      *why = "read_field returned no elements";
      return false;
    }
    for (const double x : v)
      if (x != static_cast<double>(t.acked[f])) {
        *why = "read_field differs from the acknowledged increments";
        return false;
      }
  }
  return true;
}

void shut_down(Server& s) {
  for (Tenant& t : s.tenants)
    if (t.client) t.client->goodbye();
  if (s.service) s.service->drain();
  s = Server{};
}

}  // namespace

Report run_service_2tenants(const Options& o) {
  Report r;
  const std::string sock =
      (o.work_dir.empty() ? std::string(".") : o.work_dir) + "/svc-" +
      std::to_string(::getpid()) + ".sock";
  idxl::RuntimeConfig rc;
  rc.workers = kWorkers;

  // Set-up: server, listener, both sessions with their regions, and one
  // warm-up window per client. Repeated; the last one stays.
  Server s;
  std::vector<double> setups;
  for (int i = 0; i < setup_repeats(o); ++i) {
    shut_down(s);
    const uint64_t t0 = i == 0 ? o.start_ns : now_ns();
    auto backend = std::make_unique<Rt>("runtime", rc);
    s.backend = backend.get();
    s.service = std::make_unique<idxl::service::ServiceRuntime>(std::move(backend));
    s.service->listen_unix(sock);
    s.tenants.resize(kClients);
    for (int c = 0; c < kClients; ++c) open_tenant(s.tenants[c], sock, c, o.seed);
    for (Tenant& t : s.tenants)
      if (!window(t, nullptr)) r.fail("warm-up window failed: " + t.error);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const idxl::RuntimeStats after_setup = s.backend->stats();
  report_setup(r, setups);

  SpanRecorder rec;
  CounterWindow w;
  idxl::obs::MetricsSnapshot sv0;
  if (o.trace) {
    w.before = s.backend->stats();
    w.m_before = s.backend->metrics().snapshot();
    sv0 = s.service->metrics().snapshot();
  }
  const double cpu0 = cpu_seconds();
  const Blocks blocks = run_blocks(o.seconds, o.trace ? &rec : nullptr,
                                   [&](double sec, SpanRecorder* on) { return timed_phase(s, sec, on); });
  const double cpu_s = cpu_seconds() - cpu0;
  const Phase main = blocks.all();
  if (o.trace) {
    w.after = s.backend->stats();
    w.m_after = s.backend->metrics().snapshot();
    const idxl::obs::MetricsSnapshot sv1 = s.service->metrics().snapshot();
    report_runtime_counters(r, w, main, kWorkers, {});

    const HistDelta qw = hist_delta(sv0, sv1, "idxl_task_queue_wait_ns");
    const Percentile q99 = qw.at(0.99, /*tail_rule=*/true);
    r.set("service.queue_wait_us_p99", q99.value / 1e3,
          q99.label() + " admissions, both tenants, bucket edge");
    const HistDelta flush = hist_delta(sv0, sv1, "idxl_service_flush_ns");
    const Percentile f50 = flush.at(0.5);
    r.set("service.flush_us_p50", f50.value / 1e3, f50.label() + " epochs, bucket edge");
    const Ratio per_epoch = per(delta(sv0, sv1, "idxl_service_launches_total"),
                                delta(sv0, sv1, "idxl_service_epochs_total"));
    r.set("service.launches_per_epoch", per_epoch.value(), per_epoch.base() + " launches/epochs");

    std::vector<idxl::IndexLauncher> launchers;
    for (const Tenant& t : s.tenants)
      for (const idxl::IndexLauncher& l : t.launcher) launchers.push_back(l);
    const std::vector<SpanRow> rows =
        report_traced(r, o, blocks, rec, launchers, after_setup.dynamic_check_points);
    // The backend's spans come from the server's scheduler thread: issue of
    // each admitted launch and the wait_all of each epoch flush.
    report_local_runtime_spans(r, rows, blocks.traced_wall());
    for (const SpanRow& row : rows) {
      if (row.layer == "service" && row.name == "launch")
        report_span_percentiles(r, "service.launch_us", row, "calls");
      else if (row.layer == "service" && row.name == "fence")
        report_span_percentiles(r, "service.fence_us", row, "calls");
    }
  }
  report_rounds(r, blocks);
  report_cpu(r, cpu_s, main.points, "this process");

  uint64_t rejects = 0, client_errors = 0;
  for (Tenant& t : s.tenants) {
    std::string why;
    if (!check_tenant(t, &why)) r.fail(why);
    rejects += t.rejected;
    client_errors += t.error.empty() ? 0 : 1;
  }
  r.attempted = main.points + rejects * kBlocks;
  const idxl::FaultReport faults = s.backend->fault_report();
  r.failed = rejects * kBlocks + client_errors + faults.failures.size() + faults.poisoned.size();
  if (!faults.ok()) r.fail("fault report is not empty: " + faults.to_string());
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "service_2tenants: %d clients, %llu launches, %llu rejects, %llu client "
                "errors\n",
                kClients, static_cast<unsigned long long>(main.launches),
                static_cast<unsigned long long>(rejects),
                static_cast<unsigned long long>(client_errors));
  r.detail += buf;
  shut_down(s);
  ::unlink(sock.c_str());
  r.set("peak_rss_mib", peak_rss_mib(), "ru_maxrss of this process (server and clients)");
  return r;
}

}  // namespace perfbench
