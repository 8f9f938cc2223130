// service_soak — soak test of the multi-tenant session server.
//
// Drives hundreds of concurrent clients against one in-process
// ServiceRuntime over a Unix socket: each client builds its own small
// partitioned region, then loops ⟨window of pipelined index launches,
// fence⟩ until the deadline. Reports sustained launch throughput and the
// p99 admission→issue queue wait (from the per-tenant
// idxl_task_queue_wait_ns histograms) into BENCH_service.json; the CI
// service-soak lane gates both against bench/baselines/service.json.
//
// Usage:
//   service_soak [--clients N] [--seconds S] [--window W] [--workers N]
//
// Environment: IDXL_BENCH_JSON / IDXL_BENCH_DIR place the json artifact,
// IDXL_SOAK_DIAG_DIR dumps the flight recorder + metrics on exit.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dist/smoke_tasks.hpp"
#include "fig_common.hpp"
#include "runtime/runtime.hpp"
#include "service/client.hpp"
#include "service/service_runtime.hpp"

using namespace idxl;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  int clients = 200;
  double seconds = 5.0;
  int window = 8;
  unsigned workers = 2;
};

struct ClientResult {
  uint64_t launches = 0;
  uint64_t rejects = 0;
  std::string error;
};

void run_client(const std::string& sock_path, int index, Clock::time_point deadline,
                int window, ClientResult* out) {
  try {
    service::ClientHello hello;
    hello.tenant = "soak-" + std::to_string(index % 8);  // 8 tenant labels
    hello.weight = static_cast<uint32_t>(1 + index % 4);
    service::ServiceClient client =
        service::ServiceClient::connect_unix(sock_path, hello);

    constexpr int64_t kElems = 32;
    constexpr int64_t kBlocks = 4;
    const IndexSpaceId is = client.create_index_space(Domain(Rect::line(kElems)));
    const FieldSpaceId fs = client.create_field_space();
    const FieldId f = client.allocate_field(fs, sizeof(double), "v");
    std::vector<Domain> blocks;
    for (int64_t b = 0; b < kBlocks; ++b)
      blocks.emplace_back(Rect(Point::p1(b * (kElems / kBlocks)),
                               Point::p1((b + 1) * (kElems / kBlocks) - 1)));
    const PartitionId part = client.create_partition(
        is, Rect::line(kBlocks), blocks, Disjointness::kDisjoint);
    const RegionId region = client.create_region(is, fs);
    client.fill(region, f, 0.0);

    dist::smoke::StencilArgs args;
    args.fin = f;
    const IndexLauncher launcher =
        IndexLauncher::over(Domain(Rect::line(kBlocks)))
            .with_task(client.task_id("smoke_increment"))
            .region(region, part, ProjectionFunctor::identity(1), {f},
                    Privilege::kReadWrite)
            .scalars(args);

    while (Clock::now() < deadline) {
      for (int i = 0; i < window; ++i) client.launch(launcher);
      out->launches += static_cast<uint64_t>(window);
      if (!client.fence().ok()) {
        out->error = "fence reported faults";
        return;
      }
    }
    out->rejects = client.rejects();
    client.goodbye();
  } catch (const std::exception& e) {
    out->error = e.what();
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--clients" && i + 1 < argc) opt.clients = std::atoi(argv[++i]);
    else if (arg == "--seconds" && i + 1 < argc) opt.seconds = std::atof(argv[++i]);
    else if (arg == "--window" && i + 1 < argc) opt.window = std::atoi(argv[++i]);
    else if (arg == "--workers" && i + 1 < argc)
      opt.workers = static_cast<unsigned>(std::atoi(argv[++i]));
    else {
      std::fprintf(stderr,
                   "usage: %s [--clients N] [--seconds S] [--window W]"
                   " [--workers N]\n", argv[0]);
      return 2;
    }
  }

  RuntimeConfig rc;
  rc.workers = opt.workers;
  service::ServiceConfig sc;
  sc.max_sessions = static_cast<uint32_t>(opt.clients) + 8;
  service::ServiceRuntime server(std::make_unique<Runtime>(rc), sc);
  const std::string sock_path =
      "/tmp/idxl-soak-" + std::to_string(::getpid()) + ".sock";
  server.listen_unix(sock_path);

  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::microseconds(static_cast<int64_t>(opt.seconds * 1e6));
  std::vector<ClientResult> results(static_cast<std::size_t>(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (int i = 0; i < opt.clients; ++i)
    threads.emplace_back(run_client, sock_path, i, deadline, opt.window,
                         &results[static_cast<std::size_t>(i)]);
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  uint64_t launches = 0, rejects = 0;
  int failed = 0;
  for (const ClientResult& r : results) {
    launches += r.launches;
    rejects += r.rejects;
    if (!r.error.empty()) {
      if (failed < 5)
        std::fprintf(stderr, "service_soak: client failed: %s\n", r.error.c_str());
      ++failed;
    }
  }
  server.drain();

  const obs::MetricsSnapshot snap = server.metrics().snapshot();
  // p99 upper bound over the merged per-tenant queue-wait histograms
  // (power-of-two buckets: the bound is the bucket's `le` edge).
  const obs::FamilySnapshot* queue_wait = snap.family("idxl_task_queue_wait_ns");
  const uint64_t p99_ns = queue_wait != nullptr ? queue_wait->percentile_bound(99) : 0;
  const double throughput = launches / elapsed;

  std::printf(
      "service_soak: %d clients, %.1fs: %llu launches (%.0f/s), "
      "p99 queue wait %.3f ms, %llu rejects, %d failed clients, "
      "%llu sessions opened\n",
      opt.clients, elapsed, static_cast<unsigned long long>(launches),
      throughput, static_cast<double>(p99_ns) / 1e6,
      static_cast<unsigned long long>(rejects), failed,
      static_cast<unsigned long long>(
          snap.value("idxl_service_sessions_total", {{"event", "opened"}})));

  bench::BenchJson payload;
  payload.field("clients", opt.clients)
      .field("window", opt.window)
      .field("elapsed_s", elapsed)
      .field("launches", launches)
      .field("throughput_per_s", throughput)
      .field("p99_queue_wait_ns", p99_ns)
      .field("rejects", rejects)
      .field("failed_clients", failed)
      .field("sessions",
             snap.value("idxl_service_sessions_total", {{"event", "opened"}}));
  bench::write_bench_json("service", std::move(payload), snap);

  if (const char* dir = std::getenv("IDXL_SOAK_DIAG_DIR")) {
    std::ofstream(std::string(dir) + "/service_flight.json")
        << server.flight_recorder().json();
    std::ofstream(std::string(dir) + "/service_metrics.prom")
        << snap.prometheus_text();
  }
  ::unlink(sock_path.c_str());
  return failed == 0 ? 0 : 1;
}
