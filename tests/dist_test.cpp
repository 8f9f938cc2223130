// End-to-end tests of the multi-process runtime (src/dist): fork-mode
// workers are real child processes connected over socketpairs, so these
// tests exercise the full wire protocol — handshake, launch broadcast,
// TaskDone relay, fence report verification and shutdown drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "dist/dist_runtime.hpp"
#include "dist/protocol.hpp"
#include "dist/smoke_tasks.hpp"
#include "functor/expr.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "runtime/serialize.hpp"

namespace idxl::dist {
namespace {

struct Grid {
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fin;
  FieldId fout;
  RegionId region;
  PartitionId blocks;
  PartitionId halos;
};

constexpr int64_t kNx = 24, kNy = 24, kPx = 2, kPy = 2, kRadius = 1;
constexpr int kIters = 3;

Grid make_grid(RegionForest& forest) {
  Grid g;
  g.is = forest.create_index_space(Domain(Rect::box2(kNx, kNy)));
  g.fs = forest.create_field_space();
  g.fin = forest.allocate_field(g.fs, sizeof(double), "in");
  g.fout = forest.allocate_field(g.fs, sizeof(double), "out");
  g.region = forest.create_region(g.is, g.fs);
  g.blocks = partition_equal(forest, g.is, Rect::box2(kPx, kPy));
  g.halos = partition_halo(forest, g.is, g.blocks, kRadius);
  return g;
}

void init_grid(RegionForest& forest, const Grid& g) {
  Accessor<double> in(forest, g.region, g.fin, Privilege::kWrite);
  Accessor<double> out(forest, g.region, g.fout, Privilege::kWrite);
  for (const Point& p : Rect::box2(kNx, kNy)) {
    in.write(p, static_cast<double>(p[0] + p[1]));
    out.write(p, 0.0);
  }
}

smoke::StencilArgs stencil_args() {
  smoke::StencilArgs a;
  a.fin = 0;
  a.fout = 1;
  a.radius = kRadius;
  a.nx = kNx;
  a.ny = kNy;
  return a;
}

/// Issue `iters` stencil+increment iterations — the identical stream on
/// whichever backend `rt` is.
void run_stencil(RuntimeApi& rt, const Grid& g, TaskFnId stencil,
                 TaskFnId increment, int iters, uint32_t retries = 0) {
  const Domain dom = Domain(Rect::box2(kPx, kPy));
  const auto id = ProjectionFunctor::identity(2);
  const auto args = ArgBuffer::of(stencil_args());
  for (int it = 0; it < iters; ++it) {
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(stencil)
                         .scalars(args)
                         .retries(retries)
                         .region(g.region, g.halos, id, {g.fin},
                                 Privilege::kRead)
                         .region(g.region, g.blocks, id, {g.fout},
                                 Privilege::kReadWrite));
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(increment)
                         .scalars(args)
                         .retries(retries)
                         .region(g.region, g.blocks, id, {g.fin},
                                 Privilege::kReadWrite));
  }
  rt.wait_all();
}

std::vector<double> read_field(RuntimeApi& rt, const Grid& g, FieldId f) {
  auto acc = rt.read_region<double>(g.region, f);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(kNx * kNy));
  for (const Point& p : Rect::box2(kNx, kNy)) out.push_back(acc.read(p));
  return out;
}

/// The same workload on a plain local Runtime — the reference every
/// distributed assertion compares against.
struct LocalRun {
  std::vector<double> fin, fout;
  FaultReport report;
};

LocalRun run_local(std::shared_ptr<const FaultPlan> plan = nullptr,
                   uint32_t retries = 0) {
  RuntimeConfig rc;
  rc.workers = 2;
  rc.fault_plan = std::move(plan);
  Runtime rt(std::move(rc));
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  // Id parity with the dist backend's pre-registered fill/xfer pair.
  const TaskFnId fill = rt.register_task("idxl_dist_fill", [](TaskContext&) {});
  (void)fill;
  const TaskFnId xfer = rt.register_task("idxl_xfer", [](TaskContext&) {});
  (void)xfer;
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, kIters, retries);
  LocalRun out;
  out.fin = read_field(rt, g, g.fin);
  out.fout = read_field(rt, g, g.fout);
  out.report = rt.fault_report();
  return out;
}

struct DistRun {
  std::vector<double> fin, fout;
  FaultReport report;
  uint64_t launch_bytes = 0;  ///< wire bytes of kLaunch frames to rank 1
  uint64_t launch_frames = 0;
};

DistRun run_dist(uint32_t ranks, std::shared_ptr<const FaultPlan> plan = nullptr,
                 uint32_t retries = 0, int iters = kIters, bool delta = true) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.runtime.fault_plan = std::move(plan);
  dc.delta_transfers = delta;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, iters, retries);
  DistRun out;
  out.fin = read_field(rt, g, g.fin);
  out.fout = read_field(rt, g, g.fout);
  out.report = rt.fault_report();
  if (ranks > 1) {
    const auto snap = rt.metrics().snapshot();
    const obs::Labels labels{{"peer", "rank-1"}, {"type", "launch"}};
    out.launch_bytes = snap.value("idxl_net_bytes_sent_total", labels);
    out.launch_frames = snap.value("idxl_net_frames_sent_total", labels);
  }
  return out;
}

TEST(DistTest, StencilBitIdenticalAcrossProcesses) {
  const LocalRun local = run_local();
  ASSERT_TRUE(local.report.ok());
  for (const uint32_t ranks : {2u, 3u}) {
    const DistRun dist = run_dist(ranks);
    EXPECT_TRUE(dist.report.ok());
    // Bit-identical, not approximately equal: both backends execute the
    // same launch stream over the same deterministic task bodies.
    EXPECT_EQ(local.fout, dist.fout) << "ranks=" << ranks;
    EXPECT_EQ(local.fin, dist.fin) << "ranks=" << ranks;
  }
}

TEST(DistTest, DegenerateSingleRank) {
  const DistRun solo = run_dist(1);
  const LocalRun local = run_local();
  EXPECT_TRUE(solo.report.ok());
  EXPECT_EQ(local.fout, solo.fout);
}

TEST(DistTest, RemoteFaultMatchesLocalPoisonClosure) {
  // Point (1,1) of launch 0 is owned by the last rank (owner_of on the 2x2
  // domain), so the injection fires in a *remote* process; the merged report
  // must match the one a purely local run produces, fault for fault.
  // Delta transfers interleave xfer nodes into the seq stream (and a
  // poisoned producer legitimately poisons them too), so the seq-by-seq
  // closure comparison runs against the star-hub data plane; the delta
  // planes' fault semantics are covered by dist_data_plane_test.
  auto plan = std::make_shared<const FaultPlan>(
      FaultPlan().fail(/*launch=*/0, Point::p2(1, 1)));
  const LocalRun local = run_local(plan);
  const DistRun dist = run_dist(2, plan, 0, kIters, /*delta=*/false);
  ASSERT_FALSE(local.report.ok());
  EXPECT_EQ(local.report.failures, dist.report.failures);
  EXPECT_EQ(local.report.poisoned, dist.report.poisoned);
  // Survivor data is also identical: poisoning skipped the same tasks.
  EXPECT_EQ(local.fout, dist.fout);
}

TEST(DistTest, RemoteRetrySucceeds) {
  // One injected failure on attempt 0 of a remote point; with a retry
  // budget the second attempt succeeds and the run is clean.
  auto plan = std::make_shared<const FaultPlan>(
      FaultPlan().fail(/*launch=*/0, Point::p2(1, 1), /*attempt=*/0));
  const DistRun dist = run_dist(2, plan, /*retries=*/2);
  EXPECT_TRUE(dist.report.ok())
      << "failures=" << dist.report.failures.size();
  const LocalRun clean = run_local();
  EXPECT_EQ(clean.fout, dist.fout);
}

TEST(DistTest, LaunchWireBytesIndependentOfDomainVolume) {
  // The paper's core claim carried onto the wire: a dense index launch
  // ships as an O(1) descriptor, so bytes-per-launch cannot grow with |D|.
  const auto id = ProjectionFunctor::identity(1);
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(1024));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId r = forest.create_region(is, fs);
  const PartitionId small = partition_equal(forest, is, Rect::line(4));
  const PartitionId large = partition_equal(forest, is, Rect::line(256));

  const auto bytes_for = [&](int64_t pieces, PartitionId part) {
    return serialize_launcher(IndexLauncher::over(Domain::line(pieces))
                                  .with_task(0)
                                  .region(r, part, id, {f}, Privilege::kWrite))
        .size();
  };
  EXPECT_EQ(bytes_for(4, small), bytes_for(256, large));
}

TEST(DistTest, LaunchFramesAndPerLaunchBytesScaleWithLaunchCountOnly) {
  // Same assertion measured on the actual wire: double the iteration count
  // and kLaunch traffic doubles — bytes per launch frame stays constant,
  // independent of how many point tasks each launch expands to (16 here).
  const DistRun three = run_dist(2, nullptr, 0, /*iters=*/3);
  const DistRun six = run_dist(2, nullptr, 0, /*iters=*/6);
  ASSERT_GT(three.launch_frames, 0u);
  EXPECT_EQ(six.launch_frames, 2 * three.launch_frames);
  EXPECT_EQ(six.launch_bytes, 2 * three.launch_bytes);
  EXPECT_EQ(three.launch_bytes % three.launch_frames, 0u);
}

/// Two single-field writer launches per iteration — group-eligible (disjoint
/// blocks, identity functor) with a certified kDisjoint pair (disjoint field
/// masks), so the driver analyzes, skips the cross-launch walk, and ships
/// the certificate bundle on every kLaunch frame.
struct FieldWriterRun {
  std::vector<double> fin, fout;
  RuntimeStats stats;
  uint64_t launch_bytes = 0;
};

FieldWriterRun run_field_writers(uint32_t ranks, bool analysis, int iters) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.runtime.enable_interference_analysis = analysis;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId win = rt.register_task("write_in", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0] - p[1])); });
  });
  const TaskFnId wout = rt.register_task("write_out", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(1);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0] * p[1])); });
  });
  const Domain dom = Domain(Rect::box2(kPx, kPy));
  const auto id = ProjectionFunctor::identity(2);
  for (int it = 0; it < iters; ++it) {
    rt.execute_index(IndexLauncher::over(dom).with_task(win).region(
        g.region, g.blocks, id, {g.fin}, Privilege::kWrite));
    rt.execute_index(IndexLauncher::over(dom).with_task(wout).region(
        g.region, g.blocks, id, {g.fout}, Privilege::kWrite));
  }
  rt.wait_all();
  FieldWriterRun out;
  out.fin = read_field(rt, g, g.fin);
  out.fout = read_field(rt, g, g.fout);
  out.stats = rt.stats();
  if (ranks > 1) {
    const auto snap = rt.metrics().snapshot();
    out.launch_bytes = snap.value("idxl_net_bytes_sent_total",
                                  obs::Labels{{"peer", "rank-1"}, {"type", "launch"}});
  }
  return out;
}

TEST(DistTest, CertificateBundleFlowsToWorkers) {
  // Driver side of the certificate pipeline, observed end to end: rank 0
  // analyzes the disjoint-field pair once, skips the cross-launch walks,
  // and the kLaunch frames to rank 1 carry the (non-empty) bundle — they
  // are strictly larger than the same program's frames with the analysis
  // off. Worker-side validation of a shipped bundle is pinned down
  // in-process by interference_runtime_test (same descriptor path).
  const FieldWriterRun on = run_field_writers(2, /*analysis=*/true, /*iters=*/3);
  const FieldWriterRun off = run_field_writers(2, /*analysis=*/false, /*iters=*/3);
  EXPECT_GE(on.stats.interference_pair_tests, 1u);
  EXPECT_GE(on.stats.interference_skips, 1u);
  EXPECT_EQ(off.stats.interference_pair_tests, 0u);
  EXPECT_EQ(off.stats.interference_skips, 0u);
  ASSERT_GT(on.launch_bytes, 0u);
  EXPECT_GT(on.launch_bytes, off.launch_bytes);
  // The skip changes scheduling only, never data: all three runs agree.
  const FieldWriterRun solo = run_field_writers(1, /*analysis=*/true, /*iters=*/3);
  EXPECT_EQ(on.fin, off.fin);
  EXPECT_EQ(on.fout, off.fout);
  EXPECT_EQ(on.fin, solo.fin);
  EXPECT_EQ(on.fout, solo.fout);
}

TEST(DistTest, PoisonedCertificateOnWireIsRejected) {
  // A worker trusts nothing: corrupt one certificate byte inside an
  // otherwise well-formed bundle, round-trip it through the actual kLaunch
  // wire encoding (serialize_launcher → deserialize_launcher, the exact
  // path WorkerSession::on_frame runs), and the import-only rank must
  // reject the forgery at first lookup and fall back to the full walk.
  RuntimeConfig driver_rc;
  driver_rc.workers = 2;
  Runtime driver(std::move(driver_rc));
  const Grid dg = make_grid(driver.forest());
  const TaskFnId dnop = driver.register_task("nop", [](TaskContext&) {});
  const Domain dom = Domain(Rect::box2(kPx, kPy));
  const auto id = ProjectionFunctor::identity(2);
  driver.execute_index(IndexLauncher::over(dom).with_task(dnop).region(
      dg.region, dg.blocks, id, {dg.fin}, Privilege::kWrite));
  driver.execute_index(IndexLauncher::over(dom).with_task(dnop).region(
      dg.region, dg.blocks, id, {dg.fout}, Privilege::kWrite));
  driver.wait_all();
  std::vector<std::byte> bundle = driver.export_interference_bundle();
  ASSERT_GT(driver.interference_cache().size(), 0u);
  bundle.back() ^= std::byte{0x01};  // flip one bit of the last cert blob

  RuntimeConfig worker_rc;
  worker_rc.workers = 2;
  worker_rc.interference_import_only = true;
  Runtime worker(std::move(worker_rc));
  const Grid wg = make_grid(worker.forest());
  const TaskFnId wnop = worker.register_task("nop", [](TaskContext&) {});
  auto launch = [&](FieldId f, std::vector<std::byte> payload) {
    IndexLauncher l = IndexLauncher::over(dom).with_task(wnop).region(
        wg.region, wg.blocks, id, {f}, Privilege::kWrite);
    l.analysis_bundle = std::move(payload);
    worker.execute_index(deserialize_launcher(serialize_launcher(l)));
  };
  launch(wg.fin, bundle);
  launch(wg.fout, {});
  worker.wait_all();
  const auto c = worker.interference_cache().counters();
  EXPECT_GE(c.imported, 1u);
  EXPECT_GE(c.rejected, 1u);
  EXPECT_EQ(c.validated, 0u);
  EXPECT_EQ(worker.stats().interference_skips, 0u);
}

class ShardedWavefront : public ::testing::TestWithParam<bool> {};

TEST_P(ShardedWavefront, SparseWavefrontsWithDynamicChecksUnderDcr) {
  // A DOM-style sweep under control replication: sparse diagonal launch
  // domains whose wrapped plane-projection functors only the dynamic check
  // can prove safe. Each wavefront runs as one index launch split across
  // three ranks, on the delta (true) or star-hub (false) data plane, and
  // the sweep equals the serial recurrence
  // cell (x,y) = max(left, up) + 1 = x + y + 1.
  const int64_t bx = 3, by = 3;
  const bool delta = GetParam();
  DistConfig dc;
  dc.ranks = 3;
  dc.runtime.workers = 2;
  dc.delta_transfers = delta;
  DistributedRuntime rt(dc);
  auto& forest = rt.forest();
  const IndexSpaceId plane_is = forest.create_index_space(Domain(Rect::box2(bx, by)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId plane = forest.create_region(plane_is, fs);
  const PartitionId cells = partition_equal(forest, plane_is, Rect::box2(bx, by));
  // Boundary cells skip the wrapped reads.
  const TaskFnId relax = rt.register_task("relax", [](TaskContext& ctx) {
    auto own = ctx.region(0).accessor<double>(0);
    auto left = ctx.region(1).accessor<double>(0);
    auto up = ctx.region(2).accessor<double>(0);
    const Point p = ctx.point;
    double best = 0;
    if (p[0] > 0) best = std::max(best, left.read(Point::p2(p[0] - 1, p[1])));
    if (p[1] > 0) best = std::max(best, up.read(Point::p2(p[0], p[1] - 1)));
    own.write(p, best + 1.0);
  });
  // ((x + bx - 1) mod bx, y) and (x, (y + by - 1) mod by): non-affine, so
  // every multi-point wavefront goes through the dynamic check.
  const auto f_left = ProjectionFunctor::symbolic(
      {make_mod(make_add(make_coord(0), make_const(bx - 1)), make_const(bx)),
       make_coord(1)},
      "left");
  const auto f_up = ProjectionFunctor::symbolic(
      {make_coord(0),
       make_mod(make_add(make_coord(1), make_const(by - 1)), make_const(by))},
      "up");
  for (int64_t w = 0; w <= bx + by - 2; ++w) {
    std::vector<Point> wave;
    for (int64_t x = 0; x < bx; ++x)
      for (int64_t y = 0; y < by; ++y)
        if (x + y == w) wave.push_back(Point::p2(x, y));
    const bool multi = wave.size() > 1;
    const LaunchResult r = rt.execute_index(
        IndexLauncher::over(Domain::from_points(std::move(wave)))
            .with_task(relax)
            .region(plane, cells, ProjectionFunctor::identity(2), {fv},
                    Privilege::kWrite)
            .region(plane, cells, f_left, {fv}, Privilege::kRead)
            .region(plane, cells, f_up, {fv}, Privilege::kRead));
    EXPECT_TRUE(r.ran_as_index_launch) << "wave " << w;
    if (multi) {
      EXPECT_TRUE(r.safety.used_dynamic()) << "wave " << w;
    }
  }
  rt.wait_all();
  EXPECT_TRUE(rt.fault_report().ok());
  auto acc = rt.read_region<double>(plane, fv);
  for (int64_t x = 0; x < bx; ++x)
    for (int64_t y = 0; y < by; ++y)
      EXPECT_EQ(acc.read(Point::p2(x, y)), static_cast<double>(x + y + 1))
          << (delta ? "delta" : "star-hub") << " (" << x << "," << y << ")";
}

INSTANTIATE_TEST_SUITE_P(Storage, ShardedWavefront, ::testing::Bool());

TEST(DistTest, RegisterAfterStartThrows) {
  DistConfig dc;
  dc.ranks = 1;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, 1);
  EXPECT_THROW(rt.register_task("late", smoke::stencil_body), RuntimeError);
}

TEST(DistTest, OwnerOfPartitionsEveryDomain) {
  // Every point maps to exactly one rank and the blocks are contiguous and
  // balanced; rank 0 owns degenerate domains outright.
  const Domain dom(Rect::box2(4, 4));
  for (const uint32_t nranks : {1u, 2u, 3u, 5u, 16u, 17u}) {
    std::vector<int64_t> counts(nranks, 0);
    uint32_t last = 0;
    for (const Point& p : Rect::box2(4, 4)) {
      const uint32_t o = owner_of(dom, p, nranks);
      ASSERT_LT(o, nranks);
      ASSERT_GE(o, last) << "ownership must be monotone in row-major order";
      last = o;
      ++counts[o];
    }
    const int64_t lo = dom.volume() / nranks;
    for (const int64_t c : counts) {
      EXPECT_GE(c, std::max<int64_t>(lo, 0));
      EXPECT_LE(c, lo + 1);
    }
  }
  EXPECT_EQ(owner_of(Domain::line(1), Point::p1(0), 8), 0u);
}

// --- control replication on forked ranks ----------------------------------
// The Sharded*/MappingTest suites below keep the names they had when an
// in-process sharded backend ran them; the programs now run on real ranks,
// with owner_of as the point-to-rank map.

TEST(MappingTest, BlockShardingPartitionsDomain) {
  const Domain d = Domain::line(100);
  std::vector<int> counts(4, 0);
  d.for_each([&](const Point& p) { ++counts[owner_of(d, p, 4)]; });
  for (int c : counts) EXPECT_EQ(c, 25);
  // Contiguity: rank of point 0 is 0, of point 99 is 3.
  EXPECT_EQ(owner_of(d, Point::p1(0), 4), 0u);
  EXPECT_EQ(owner_of(d, Point::p1(99), 4), 3u);
}

TEST(MappingTest, ShardingWorksOnSparseDomains) {
  // Sparse domains split by enumeration order, not by coordinate.
  std::vector<Point> pts;
  for (int i = 0; i < 12; i += 2) pts.push_back(Point::p1(i));
  const Domain d = Domain::from_points(pts);
  std::vector<int> counts(2, 0);
  d.for_each([&](const Point& p) { ++counts[owner_of(d, p, 2)]; });
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
}

/// A 1-D three-point stencil (v += left + right via a scratch field w) over
/// `pieces` blocks with radius-1 halos, on a DistributedRuntime.
struct LineStencil {
  DistributedRuntime rt;
  RegionId grid;
  PartitionId blocks, halos;
  FieldId fv = 0, fw = 0;
  TaskFnId init = 0, step = 0, copy = 0;
  int64_t n, pieces;

  LineStencil(const DistConfig& dc, int64_t n_, int64_t pieces_)
      : rt(dc), n(n_), pieces(pieces_) {
    auto& forest = rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(n));
    const FieldSpaceId fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    fw = forest.allocate_field(fs, sizeof(double), "w");
    grid = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
    halos = partition_halo(forest, is, blocks, 1);
    init = rt.register_task("init", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each(
          [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
    });
    step = rt.register_task("step", [](TaskContext& ctx) {
      auto in = ctx.region(0).accessor<double>(0);
      auto out = ctx.region(1).accessor<double>(1);
      const Domain& halo = ctx.region(0).domain();
      ctx.region(1).domain().for_each([&](const Point& p) {
        double v = in.read(p);
        const Point l = Point::p1(p[0] - 1), r = Point::p1(p[0] + 1);
        if (halo.contains(l)) v += in.read(l);
        if (halo.contains(r)) v += in.read(r);
        out.write(p, v);
      });
    });
    copy = rt.register_task("copy", [](TaskContext& ctx) {
      auto in = ctx.region(0).accessor<double>(1);
      auto out = ctx.region(1).accessor<double>(0);
      ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, in.read(p)); });
    });
  }

  void run(int iterations) {
    const auto id = ProjectionFunctor::identity(1);
    const Domain dom = Domain::line(pieces);
    rt.execute_index(IndexLauncher::over(dom).with_task(init).region(
        grid, blocks, id, {fv}, Privilege::kWrite));
    for (int it = 0; it < iterations; ++it) {
      rt.execute_index(IndexLauncher::over(dom)
                           .with_task(step)
                           .region(grid, halos, id, {fv}, Privilege::kRead)
                           .region(grid, blocks, id, {fw}, Privilege::kWrite));
      rt.execute_index(IndexLauncher::over(dom)
                           .with_task(copy)
                           .region(grid, blocks, id, {fw}, Privilege::kRead)
                           .region(grid, blocks, id, {fv}, Privilege::kWrite));
    }
    rt.wait_all();
  }

  std::vector<double> values() {
    auto acc = rt.read_region<double>(grid, fv);
    std::vector<double> out;
    for (int64_t i = 0; i < n; ++i) out.push_back(acc.read(Point::p1(i)));
    return out;
  }
};

std::vector<double> serial_line_stencil(int64_t n, int iterations) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = static_cast<double>(i);
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> next(static_cast<std::size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      double x = v[static_cast<std::size_t>(i)];
      if (i > 0) x += v[static_cast<std::size_t>(i - 1)];
      if (i < n - 1) x += v[static_cast<std::size_t>(i + 1)];
      next[static_cast<std::size_t>(i)] = x;
    }
    v = std::move(next);
  }
  return v;
}

/// (ranks, pieces, delta data plane)
class ShardedStencil
    : public ::testing::TestWithParam<std::tuple<uint32_t, int64_t, bool>> {};

TEST_P(ShardedStencil, MatchesSerialReferenceAcrossShardCounts) {
  const auto [ranks, pieces, delta] = GetParam();
  const int64_t n = 48;
  const int iterations = 6;
  DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 1;
  dc.delta_transfers = delta;
  LineStencil st(dc, n, pieces);
  st.run(iterations);
  EXPECT_TRUE(st.rt.fault_report().ok());
  const auto expected = serial_line_stencil(n, iterations);
  const auto actual = st.values();
  for (int64_t i = 0; i < n; ++i)
    ASSERT_NEAR(actual[static_cast<std::size_t>(i)],
                expected[static_cast<std::size_t>(i)], 1e-9)
        << i;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ShardedStencil,
    ::testing::Values(std::make_tuple(1u, 8, false), std::make_tuple(2u, 8, false),
                      std::make_tuple(4u, 8, false), std::make_tuple(3u, 6, false),
                      std::make_tuple(8u, 8, false), std::make_tuple(1u, 8, true),
                      std::make_tuple(2u, 8, true), std::make_tuple(4u, 8, true),
                      std::make_tuple(3u, 6, true), std::make_tuple(8u, 8, true)));

TEST(ShardedRuntimeTest, InterferenceKnobOffMatchesResults) {
  // Same stencil program with and without the inter-launch analysis: the
  // skip must never change observable results, only the probe counts.
  std::vector<double> results[2];
  for (int variant = 0; variant < 2; ++variant) {
    DistConfig dc;
    dc.ranks = 2;
    dc.runtime.workers = 1;
    dc.runtime.enable_interference_analysis = variant == 0;
    LineStencil st(dc, 24, 4);
    st.run(3);
    results[variant] = st.values();
    if (variant != 0) {
      EXPECT_EQ(st.rt.stats().interference_pair_tests, 0u);
    }
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], serial_line_stencil(24, 3));
}

bool poisoned_contains(const FaultReport& report, uint64_t launch, const Point& point) {
  for (const TaskFault& f : report.poisoned)
    if (f.launch == launch && f.point == point) return true;
  return false;
}

TEST(ShardedFaultTest, FaultReportPropagatesAcrossShards) {
  // Star-hub data plane: the launch ids of the poison closure are the user
  // launches only (delta mode interleaves transfer nodes).
  DistConfig dc;
  dc.ranks = 2;
  dc.runtime.workers = 1;
  dc.delta_transfers = false;
  // Point 1 of the 4-point writer is owned by rank 0.
  dc.runtime.fault_plan =
      std::make_shared<const FaultPlan>(FaultPlan().fail(0, Point::p1(1)));
  DistributedRuntime rt(dc);
  auto& forest = rt.forest();
  const auto is = forest.create_index_space(Domain::line(8));
  const auto fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const FieldId fw = forest.allocate_field(fs, sizeof(double), "w");
  const RegionId grid = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(4));
  const PartitionId halos = partition_halo(forest, is, blocks, 1);
  const TaskFnId writer = rt.register_task("writer", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
  });
  const TaskFnId reader = rt.register_task("reader", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(1);
    ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, in.read(p)); });
  });
  const auto id = ProjectionFunctor::identity(1);
  rt.execute_index(IndexLauncher::over(Domain::line(4)).with_task(writer).region(
      grid, blocks, id, {fv}, Privilege::kWrite));
  rt.execute_index(IndexLauncher::over(Domain::line(4))
                       .with_task(reader)
                       .region(grid, halos, id, {fv}, Privilege::kRead)
                       .region(grid, blocks, id, {fw}, Privilege::kWrite));
  rt.wait_all();
  const FaultReport report = rt.fault_report();
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].kind, FaultKind::kInjected);
  EXPECT_EQ(report.failures[0].launch, 0u);
  EXPECT_EQ(report.failures[0].point, Point::p1(1));
  // The failed writer (rank 0's point 1) poisons halo readers 0..2 — point 2
  // is owned by rank 1, so the poison crossed the rank boundary.
  EXPECT_TRUE(poisoned_contains(report, 1, Point::p1(0)));
  EXPECT_TRUE(poisoned_contains(report, 1, Point::p1(1)));
  EXPECT_TRUE(poisoned_contains(report, 1, Point::p1(2)));
  EXPECT_FALSE(poisoned_contains(report, 1, Point::p1(3)));
}

TEST(ShardedFaultTest, RetryRecoversAcrossShards) {
  DistConfig dc;
  dc.ranks = 2;
  dc.runtime.workers = 1;
  // Point 3 is owned by rank 1 and fails on its first attempt only.
  dc.runtime.fault_plan =
      std::make_shared<const FaultPlan>(FaultPlan().fail(0, Point::p1(3), 0));
  DistributedRuntime rt(dc);
  auto& forest = rt.forest();
  const auto is = forest.create_index_space(Domain::line(8));
  const auto fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId grid = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(4));
  const TaskFnId fill = rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  rt.execute_index(IndexLauncher::over(Domain::line(4))
                       .with_task(fill)
                       .retries(2)
                       .region(grid, blocks, ProjectionFunctor::identity(1), {fv},
                               Privilege::kWrite));
  rt.wait_all();
  EXPECT_TRUE(rt.fault_report().ok());
  auto acc = rt.read_region<double>(grid, fv);
  for (int64_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(acc.read(Point::p1(i)), static_cast<double>(i));
  // The retry ran on rank 1 and its counter reaches the cluster view.
  EXPECT_EQ(rt.cluster_metrics().value("idxl_retry_succeeded_total", {{"rank", "all"}}),
            1u);
}

}  // namespace
}  // namespace idxl::dist
