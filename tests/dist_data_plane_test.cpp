// Data-plane tests for the distributed runtime (docs/DISTRIBUTED.md "Data
// plane"): VersionMap coherence planning in isolation, then the three wire
// configurations — star-hub broadcast, delta via driver relay, delta over
// direct worker links — run differentially against the local reference,
// including forced peer-link failure and fault-poison merging, and the
// exact control-plane cost of one four-rank stencil step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/stencil.hpp"
#include "dist/dist_runtime.hpp"
#include "dist/smoke_tasks.hpp"
#include "dist/version_map.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"

namespace idxl::dist {
namespace {

// --- VersionMap unit tests -------------------------------------------------

const RegionId kRoot{0};
const RegionId kProdA{10};
const RegionId kProdB{11};

TEST(VersionMapTest, UntouchedSpaceIsCurrentEverywhere) {
  VersionMap vm(4);
  std::vector<Transfer> out;
  vm.plan_read(kRoot, 0, Rect::box2(8, 8), /*dest=*/3, out);
  EXPECT_TRUE(out.empty());  // version 0 = the broadcast bootstrap state
  EXPECT_EQ(vm.entry_count(kRoot, 0), 0u);
}

TEST(VersionMapTest, WriteThenRemoteReadShipsOnce) {
  VersionMap vm(2);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  vm.note_write(kRoot, 0, block, /*owner=*/1, kProdA);

  std::vector<Transfer> out;
  vm.plan_read(kRoot, 0, block, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, 1u);
  EXPECT_EQ(out[0].producer, kProdA);
  EXPECT_EQ(out[0].rect, block);

  // The shipped span is now current at dest: planning again is a no-op.
  out.clear();
  vm.plan_read(kRoot, 0, block, /*dest=*/0, out);
  EXPECT_TRUE(out.empty());
}

TEST(VersionMapTest, OwnerNeverShipsToItself) {
  VersionMap vm(2);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  vm.note_write(kRoot, 0, block, /*owner=*/1, kProdA);
  std::vector<Transfer> out;
  vm.plan_read(kRoot, 0, block, /*dest=*/1, out);
  EXPECT_TRUE(out.empty());
}

TEST(VersionMapTest, HaloReadClipsToWrittenSpan) {
  // Stencil shape: rank 1 wrote its 4x4 block; rank 0 reads a halo rect one
  // cell into it. Only the overlap strip ships — not the whole block, and
  // nothing for the halo's version-0 remainder.
  VersionMap vm(2);
  const Rect block{Point::p2(4, 0), Point::p2(7, 3)};
  vm.note_write(kRoot, 0, block, /*owner=*/1, kProdA);
  const Rect halo{Point::p2(0, 0), Point::p2(4, 3)};
  std::vector<Transfer> out;
  vm.plan_read(kRoot, 0, halo, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rect, Rect(Point::p2(4, 0), Point::p2(4, 3)));
  // The entry split: the shipped strip and the still-exclusive remainder.
  EXPECT_EQ(vm.entry_count(kRoot, 0), 2u);
}

TEST(VersionMapTest, NewWriteInvalidatesShippedCopies) {
  VersionMap vm(2);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  vm.note_write(kRoot, 0, block, /*owner=*/1, kProdA);
  std::vector<Transfer> out;
  vm.plan_read(kRoot, 0, block, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);

  // Version bump: the old copy at rank 0 is stale again.
  vm.note_write(kRoot, 0, block, /*owner=*/1, kProdB);
  out.clear();
  vm.plan_read(kRoot, 0, block, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].producer, kProdB);
  EXPECT_GT(out[0].version, 1u);
}

TEST(VersionMapTest, BroadcastWriteNeedsNoTransfers) {
  VersionMap vm(4);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  vm.note_write_everywhere(kRoot, 0, block, /*owner=*/2, kProdA);
  std::vector<Transfer> out;
  for (uint32_t dest = 0; dest < 4; ++dest)
    vm.plan_read(kRoot, 0, block, dest, out);
  EXPECT_TRUE(out.empty());
}

TEST(VersionMapTest, OverlappingWritesStayDisjoint) {
  // A second write punching through the middle of an earlier one must leave
  // a disjoint partition: reads see each span's latest producer exactly once.
  VersionMap vm(2);
  vm.note_write(kRoot, 0, Rect{Point::p2(0, 0), Point::p2(7, 7)}, 1, kProdA);
  vm.note_write(kRoot, 0, Rect{Point::p2(2, 2), Point::p2(5, 5)}, 1, kProdB);
  std::vector<Transfer> out;
  vm.plan_read(kRoot, 0, Rect{Point::p2(0, 0), Point::p2(7, 7)}, 0, out);
  int64_t covered = 0;
  for (const Transfer& t : out) {
    covered += t.rect.volume();
    for (const Transfer& u : out)
      if (&t != &u) EXPECT_TRUE(t.rect.intersection(u.rect).empty());
  }
  EXPECT_EQ(covered, 64);
  const int64_t inner = std::accumulate(
      out.begin(), out.end(), int64_t{0}, [](int64_t acc, const Transfer& t) {
        return acc + (t.producer == kProdB ? t.rect.volume() : 0);
      });
  EXPECT_EQ(inner, 16);  // exactly the punched 4x4 belongs to the new write
}

// --- differential wire-configuration tests ---------------------------------

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

void run_stencil(RuntimeApi& rt, const Grid& g, TaskFnId stencil,
                 TaskFnId increment, int iters) {
  smoke::StencilArgs a;
  a.fin = 0;
  a.fout = 1;
  a.radius = kRadius;
  a.nx = kNx;
  a.ny = kNy;
  const Domain dom = Domain(Rect::box2(kPx, kPy));
  const auto id = ProjectionFunctor::identity(2);
  const auto args = ArgBuffer::of(a);
  for (int it = 0; it < iters; ++it) {
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(stencil)
                         .scalars(args)
                         .region(g.region, g.halos, id, {g.fin},
                                 Privilege::kRead)
                         .region(g.region, g.blocks, id, {g.fout},
                                 Privilege::kReadWrite));
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(increment)
                         .scalars(args)
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

struct PlaneRun {
  std::vector<double> fin, fout;
  FaultReport report;
  DataPlaneStats stats;
  bool delta = false;
};

PlaneRun run_plane(uint32_t ranks, bool delta, bool p2p, bool fail_links,
                   std::shared_ptr<const FaultPlan> plan = nullptr) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.runtime.fault_plan = std::move(plan);
  dc.delta_transfers = delta;
  dc.p2p = p2p;
  dc.fail_peer_links = fail_links;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, kIters);
  PlaneRun out;
  out.stats = rt.data_plane_stats();
  out.delta = rt.delta_transfers();
  out.fin = read_field(rt, g, g.fin);
  out.fout = read_field(rt, g, g.fout);
  out.report = rt.fault_report();
  return out;
}

std::vector<double> local_reference(
    std::shared_ptr<const FaultPlan> plan, std::vector<double>* fin_out,
    FaultReport* report_out) {
  RuntimeConfig rc;
  rc.workers = 2;
  rc.fault_plan = std::move(plan);
  Runtime rt(std::move(rc));
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  // Id parity with the dist backend's pre-registered fill/xfer pair.
  (void)rt.register_task("idxl_dist_fill", [](TaskContext&) {});
  (void)rt.register_task("idxl_xfer", [](TaskContext&) {});
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, kIters);
  if (fin_out) *fin_out = read_field(rt, g, g.fin);
  if (report_out) *report_out = rt.fault_report();
  return read_field(rt, g, g.fout);
}

TEST(DataPlaneTest, ThreeConfigurationsBitIdentical) {
  std::vector<double> ref_fin;
  const std::vector<double> ref_fout =
      local_reference(nullptr, &ref_fin, nullptr);

  const PlaneRun hub = run_plane(3, /*delta=*/false, /*p2p=*/false, false);
  const PlaneRun relay = run_plane(3, /*delta=*/true, /*p2p=*/false, false);
  const PlaneRun p2p = run_plane(3, /*delta=*/true, /*p2p=*/true, false);

  for (const PlaneRun* r : {&hub, &relay, &p2p}) {
    EXPECT_TRUE(r->report.ok());
    EXPECT_EQ(r->fout, ref_fout);
    EXPECT_EQ(r->fin, ref_fin);
  }

  // Every byte on the expected route and nowhere else.
  EXPECT_GT(hub.stats.bytes_hub, 0u);
  EXPECT_EQ(hub.stats.bytes_delta(), 0u);
  EXPECT_GT(relay.stats.bytes_relay, 0u);
  EXPECT_EQ(relay.stats.bytes_p2p, 0u);
  EXPECT_GT(p2p.stats.bytes_p2p, 0u);

  // The point of the delta plane: strictly fewer payload bytes than the
  // star-hub broadcast of every written block to every rank.
  EXPECT_LT(relay.stats.bytes_total(), hub.stats.bytes_total());
  EXPECT_LT(p2p.stats.bytes_total(), hub.stats.bytes_total());
}

TEST(DataPlaneTest, SeveredPeerLinksFallBackToRelay) {
  // fail_peer_links brings the direct links up, then severs them before
  // first use: every delta payload must fail over to the driver relay and
  // the answer must not change.
  const std::vector<double> ref_fout = local_reference(nullptr, nullptr, nullptr);
  const PlaneRun broken = run_plane(3, /*delta=*/true, /*p2p=*/true,
                                    /*fail_links=*/true);
  EXPECT_TRUE(broken.report.ok());
  EXPECT_EQ(broken.fout, ref_fout);
  EXPECT_EQ(broken.stats.bytes_p2p, 0u);
  EXPECT_GT(broken.stats.bytes_relay, 0u);
}

/// Config-independent fault identity. Both seq and launch ids are stream
/// positions, and delta transfer launches interleave the stream — so
/// normalize each report's launch ids to their rank among the launches the
/// report mentions (only user launches appear; internal transfers are kept
/// out of FaultReport), and pair that with the task's point.
struct FaultIds {
  std::vector<std::tuple<uint64_t, int64_t, int64_t>> failures, poisoned;
  friend bool operator==(const FaultIds& a, const FaultIds& b) {
    return a.failures == b.failures && a.poisoned == b.poisoned;
  }
};

FaultIds fault_ids(const FaultReport& report) {
  std::vector<uint64_t> launches;
  for (const TaskFault& f : report.failures) launches.push_back(f.launch);
  for (const TaskFault& f : report.poisoned) launches.push_back(f.launch);
  std::sort(launches.begin(), launches.end());
  launches.erase(std::unique(launches.begin(), launches.end()),
                 launches.end());
  const auto rank_of = [&](uint64_t launch) {
    return static_cast<uint64_t>(
        std::lower_bound(launches.begin(), launches.end(), launch) -
        launches.begin());
  };
  FaultIds out;
  const auto collect = [&](const std::vector<TaskFault>& faults,
                           std::vector<std::tuple<uint64_t, int64_t, int64_t>>&
                               ids) {
    for (const TaskFault& f : faults)
      ids.emplace_back(rank_of(f.launch), f.point[0],
                       f.point.dim > 1 ? f.point[1] : 0);
    std::sort(ids.begin(), ids.end());
  };
  collect(report.failures, out.failures);
  collect(report.poisoned, out.poisoned);
  return out;
}

TEST(DataPlaneTest, PoisonClosureAgreesAcrossConfigurations) {
  // Inject a remote fault and compare the merged reports: the relay and p2p
  // planes replicate the identical stream, so their reports match field for
  // field; the star-hub run numbers its (xfer-free) stream differently but
  // must fail and poison the same user tasks, and every configuration's
  // survivor data must match the local reference.
  auto plan = std::make_shared<const FaultPlan>(
      FaultPlan().fail(/*launch=*/0, Point::p2(1, 1)));
  std::vector<double> ref_fin;
  FaultReport ref_report;
  const std::vector<double> ref_fout =
      local_reference(plan, &ref_fin, &ref_report);
  ASSERT_FALSE(ref_report.ok());

  const PlaneRun hub = run_plane(2, false, false, false, plan);
  const PlaneRun relay = run_plane(2, true, false, false, plan);
  const PlaneRun p2p = run_plane(2, true, true, false, plan);

  EXPECT_EQ(relay.report.failures, p2p.report.failures);
  EXPECT_EQ(relay.report.poisoned, p2p.report.poisoned);

  const FaultIds ref_ids = fault_ids(ref_report);
  for (const PlaneRun* r : {&hub, &relay, &p2p}) {
    EXPECT_TRUE(fault_ids(r->report) == ref_ids);
    EXPECT_EQ(r->fout, ref_fout);
    EXPECT_EQ(r->fin, ref_fin);
  }
}

// --- four ranks: transfer bystanders ----------------------------------------

struct AppRun {
  std::vector<double> out, in;
  FaultReport report;
};

AppRun run_app(RuntimeApi& rt, const apps::StencilParams& params) {
  apps::StencilApp app(rt, params);
  app.run(params.iterations);
  AppRun r;
  r.out = app.output();
  r.in = app.input();
  r.report = rt.fault_report();
  return r;
}

TEST(DataPlaneTest, BystanderFaultClosureMatchesLocalReference) {
  // On four ranks a transfer between two of them has two bystanders, which
  // complete it locally with the poison fate their own graph gives it. A
  // failed increment poisons the transfers out of its block; the merged
  // report and the surviving data must equal a local run's. Transfers are
  // merged per producer block: merging every block one rank sends another
  // would poison consumers that never read the failed block.
  apps::StencilParams params;
  params.nx = params.ny = 128;
  params.px = params.py = 4;
  params.radius = 2;
  params.iterations = 3;
  for (const Point& at : {Point::p2(1, 1), Point::p2(2, 0)}) {
    SCOPED_TRACE(at.to_string());
    auto plan = std::make_shared<const FaultPlan>(FaultPlan().fail(/*launch=*/1, at));
    // The ranks fork first: no thread of the local runtime may exist yet.
    DistConfig dc;
    dc.ranks = 4;
    dc.runtime.workers = 1;
    dc.runtime.fault_plan = plan;
    AppRun dist;
    {
      DistributedRuntime rt(dc);
      dist = run_app(rt, params);
    }
    RuntimeConfig rc;
    rc.workers = 1;
    rc.fault_plan = plan;
    Runtime local(rc);
    const AppRun ref = run_app(local, params);
    ASSERT_FALSE(ref.report.ok());
    EXPECT_TRUE(fault_ids(dist.report) == fault_ids(ref.report));
    EXPECT_EQ(dist.report.poisoned.size(), ref.report.poisoned.size());
    EXPECT_EQ(dist.out, ref.out);
    EXPECT_EQ(dist.in, ref.in);
  }
}

// --- four ranks: exact control-plane counts ---------------------------------

/// Frames of `type` sent cluster-wide (the rank="all" roll-up).
uint64_t frames_sent(const obs::MetricsSnapshot& m, const std::string& type) {
  uint64_t n = 0;
  const obs::FamilySnapshot* f = m.family("idxl_net_frames_sent_total");
  if (f == nullptr) return 0;
  for (const obs::SeriesSnapshot& s : f->series) {
    bool all = false, typed = false;
    for (const auto& [k, v] : s.labels) {
      all = all || (k == "rank" && v == "all");
      typed = typed || (k == "type" && v == type);
    }
    if (all && typed) n += s.counter;
  }
  return n;
}

/// Distinct (src, dest, producer block) triples one stencil launch must
/// ship on `ranks` ranks: a block owned elsewhere that meets the bounding
/// box of a consumer's halo. Computed from geometry alone.
uint64_t producer_groups(int64_t n, int64_t blocks, int64_t radius, uint32_t ranks) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(n, n)));
  const FieldSpaceId fs = forest.create_field_space();
  (void)forest.allocate_field(fs, sizeof(double), "in");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId block_part = partition_equal(forest, is, Rect::box2(blocks, blocks));
  const PartitionId halo_part = partition_halo(forest, is, block_part, radius);
  const Domain dom(Rect::box2(blocks, blocks));
  std::set<std::tuple<uint32_t, uint32_t, int64_t>> groups;
  for (const Point& p : Rect::box2(blocks, blocks)) {
    const uint32_t dest = owner_of(dom, p, ranks);
    const Rect halo = forest.region_domain(forest.subregion(region, halo_part, p)).bounds();
    for (const Point& q : Rect::box2(blocks, blocks)) {
      const uint32_t src = owner_of(dom, q, ranks);
      const Rect block = forest.region_domain(forest.subregion(region, block_part, q)).bounds();
      if (src != dest && !halo.intersection(block).empty())
        groups.emplace(src, dest, dom.linear_index(q));
    }
  }
  return groups.size();
}

TEST(DataPlaneTest, ControlFramesPerStencilStepAreExact) {
  // One stencil step on four ranks, counted frame by frame. The stencil
  // launch sends one route frame per worker and issues one transfer per
  // (src, dest, producer block); the increment plans nothing. Task-done
  // frames are the point tasks' fan-out alone (each outcome reaches the
  // three other ranks), none for transfers. The counts are deterministic,
  // so they are asserted exactly, on two steps in a row.
  constexpr uint32_t kRanks = 4;
  constexpr int64_t kN = 64, kR = 2;
  // (blocks per side, transfers per step): each rank boundary ships every
  // block along it, both ways.
  for (const auto& [blocks, want_groups] :
       {std::pair<int64_t, uint64_t>{4, 24}, std::pair<int64_t, uint64_t>{8, 48}}) {
    SCOPED_TRACE("blocks " + std::to_string(blocks));
    const uint64_t groups = producer_groups(kN, blocks, kR, kRanks);
    EXPECT_EQ(groups, want_groups);
    const uint64_t points = static_cast<uint64_t>(blocks * blocks);

    DistConfig dc;
    dc.ranks = kRanks;
    dc.runtime.workers = 1;
    DistributedRuntime rt(dc);
    RegionForest& forest = rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(kN, kN)));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId fin = forest.allocate_field(fs, sizeof(double), "in");
    const FieldId fout = forest.allocate_field(fs, sizeof(double), "out");
    const RegionId region = forest.create_region(is, fs);
    const PartitionId block_part = partition_equal(forest, is, Rect::box2(blocks, blocks));
    const PartitionId halo_part = partition_halo(forest, is, block_part, kR);
    const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
    const TaskFnId inc = rt.register_task("smoke_increment", smoke::increment_body);
    smoke::StencilArgs a;
    a.fin = fin;
    a.fout = fout;
    a.radius = kR;
    a.nx = kN;
    a.ny = kN;
    const Domain dom(Rect::box2(blocks, blocks));
    const auto id = ProjectionFunctor::identity(2);
    const auto stencil = [&] {
      rt.execute_index(IndexLauncher::over(dom)
                           .with_task(st)
                           .scalars(ArgBuffer::of(a))
                           .region(region, halo_part, id, {fin}, Privilege::kRead)
                           .region(region, block_part, id, {fout}, Privilege::kReadWrite));
    };
    const auto increment = [&] {
      rt.execute_index(IndexLauncher::over(dom)
                           .with_task(inc)
                           .scalars(ArgBuffer::of(a))
                           .region(region, block_part, id, {fin}, Privilege::kReadWrite));
    };
    // Warm-up step: the first stencil reads bootstrap data, current on
    // every rank, and plans no transfer.
    stencil();
    increment();
    for (int step = 0; step < 2; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const obs::MetricsSnapshot m0 = rt.cluster_metrics();
      const uint64_t s0 = rt.stats().single_launches;
      stencil();
      const obs::MetricsSnapshot m1 = rt.cluster_metrics();
      const uint64_t s1 = rt.stats().single_launches;
      increment();
      const obs::MetricsSnapshot m2 = rt.cluster_metrics();
      const uint64_t s2 = rt.stats().single_launches;
      EXPECT_EQ(frames_sent(m1, "route") - frames_sent(m0, "route"), kRanks - 1);
      EXPECT_EQ(frames_sent(m2, "route") - frames_sent(m1, "route"), 0u);
      EXPECT_EQ(s1 - s0, groups);
      EXPECT_EQ(s2 - s1, 0u);
      EXPECT_EQ(frames_sent(m1, "task-done") - frames_sent(m0, "task-done"),
                points * (kRanks - 1));
      EXPECT_EQ(frames_sent(m2, "task-done") - frames_sent(m1, "task-done"),
                points * (kRanks - 1));
    }
    EXPECT_TRUE(rt.fault_report().ok());
  }
}

TEST(VersionMapTest, RejectsRanksBeyondMaskWidth) {
  // The currency mask is 64 bits wide; DistributedRuntime auto-disables the
  // delta plane past that, so the map itself must refuse rather than wrap.
  EXPECT_THROW(VersionMap(65), RuntimeError);
  EXPECT_NO_THROW(VersionMap(64));
}

}  // namespace
}  // namespace idxl::dist
