#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <thread>

#include "region/partition_ops.hpp"
#include "runtime/mapping.hpp"
#include "runtime/runtime.hpp"

namespace idxl {
namespace {

struct Fixture {
  Runtime rt;
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fv = 0;
  RegionId region;
  PartitionId blocks;

  explicit Fixture(int64_t n, int64_t pieces, RuntimeConfig cfg = {}) : rt(cfg) {
    auto& forest = rt.forest();
    is = forest.create_index_space(Domain::line(n));
    fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    region = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
  }
};

TEST(RuntimeTest, SingleTaskWritesRegion) {
  Fixture fx(8, 1);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  fx.rt.execute(TaskLauncher::for_task(fill).region(fx.region, {fx.fv},
                                                    Privilege::kWrite));
  fx.rt.wait_all();
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(5)), 5.0);
  EXPECT_EQ(fx.rt.stats().point_tasks, 1u);
}

TEST(RuntimeTest, IndexLaunchIdentityIsSafeStaticAndOneCall) {
  Fixture fx(64, 16);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });
  const LaunchResult result = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(16))
          .with_task(fill)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();

  EXPECT_TRUE(result.ran_as_index_launch);
  EXPECT_EQ(result.safety.outcome, SafetyOutcome::kSafeStatic);
  // O(1) issuance: one runtime call for 16 tasks.
  EXPECT_EQ(fx.rt.stats().runtime_calls, 1u);
  EXPECT_EQ(fx.rt.stats().point_tasks, 16u);

  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  // Element 63 belongs to block 15.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(63)), 15.0);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 0.0);
}

TEST(RuntimeTest, NoIdxModeIssuesPerTaskCalls) {
  RuntimeConfig cfg;
  cfg.enable_index_launches = false;
  Fixture fx(64, 16, cfg);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });
  const LaunchResult result = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(16))
          .with_task(fill)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();

  EXPECT_FALSE(result.ran_as_index_launch);
  // O(P) issuance in No-IDX mode (the paper's baseline configuration).
  EXPECT_EQ(fx.rt.stats().runtime_calls, 16u);
  EXPECT_EQ(fx.rt.stats().point_tasks, 16u);
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(63)), 15.0);
}

TEST(RuntimeTest, ProgramOrderAcrossLaunches) {
  // Launch 1 writes v[i] = i; launch 2 reads left neighbor's halo and adds.
  Fixture fx(40, 4);
  auto& forest = fx.rt.forest();
  const PartitionId halos = partition_halo(forest, fx.is, fx.blocks, 1);

  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId smooth = fx.rt.register_task("smooth", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(0);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& p) {
      double sum = in.read(p);
      const Point l = Point::p1(p[0] - 1), r = Point::p1(p[0] + 1);
      if (halo.contains(l)) sum += in.read(l);
      if (halo.contains(r)) sum += in.read(r);
      out.write(p, sum);
    });
  });

  // Second region for output (separate tree).
  const RegionId out_region = forest.create_region(fx.is, fx.fs);

  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(fill)
                          .region(fx.region, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));

  const auto r2 = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(4))
          .with_task(smooth)
          .region(fx.region, halos, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kRead)
          .region(out_region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_TRUE(r2.ran_as_index_launch);

  auto acc = fx.rt.read_region<double>(out_region, fx.fv);
  // Interior point 17: 16+17+18.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(17)), 51.0);
  // Block-boundary point 9 reads neighbor block's value 10 via the halo —
  // this is only correct if launch 2 waited for *all* of launch 1's
  // relevant writers.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(9)), 8.0 + 9.0 + 10.0);
  // Edge point 0: 0+1.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 1.0);
}

TEST(RuntimeTest, UnsafeLaunchFallsBackSequentially) {
  // write q[i % 3] over [0,6): unsafe as an index launch; the fallback task
  // loop must still produce the sequential semantics: q[c] ends up with the
  // LAST i mapping to c.
  Fixture fx(3, 3);
  const TaskFnId stamp = fx.rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });
  const LaunchResult result = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(6))
          .with_task(stamp)
          .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(0, 3),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();

  EXPECT_FALSE(result.ran_as_index_launch);
  EXPECT_EQ(result.safety.outcome, SafetyOutcome::kUnsafe);
  EXPECT_EQ(fx.rt.stats().launches_unsafe, 1u);

  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  // Block c is last written by i = c + 3.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 3.0);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(1)), 4.0);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(2)), 5.0);
}

TEST(RuntimeTest, StrictUnsafeThrows) {
  RuntimeConfig cfg;
  cfg.strict_unsafe = true;
  Fixture fx(3, 3, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  EXPECT_THROW(
      fx.rt.execute_index(
          IndexLauncher::over(Domain::line(6))
              .with_task(noop)
              .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(0, 3),
                      {fx.fv}, Privilege::kWrite)),
      RuntimeError);
}

TEST(RuntimeTest, ReductionIntoSingleCell) {
  // Every task of the launch reduces its block's sum into one global cell
  // via a constant projection functor — safe because reductions are exempt
  // from self-checks.
  Fixture fx(100, 10);
  auto& forest = fx.rt.forest();
  const IndexSpaceId sum_is = forest.create_index_space(Domain::line(1));
  const RegionId sum_region = forest.create_region(sum_is, fx.fs);
  const PartitionId sum_part = partition_equal(forest, sum_is, Rect::line(1));

  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId reduce = fx.rt.register_task("reduce", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(0);
    double sum = 0;
    ctx.region(0).domain().for_each([&](const Point& p) { sum += in.read(p); });
    out.reduce(Point::p1(0), sum);
  });

  fx.rt.execute_index(IndexLauncher::over(Domain::line(10))
                          .with_task(fill)
                          .region(fx.region, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));

  const auto r = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(10))
          .with_task(reduce)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kRead)
          .region(sum_region, sum_part,
                  ProjectionFunctor::symbolic({make_const(0)}), {fx.fv},
                  Privilege::kReduce, ReductionOp::kSum));
  fx.rt.wait_all();
  EXPECT_TRUE(r.ran_as_index_launch);

  auto acc = fx.rt.read_region<double>(sum_region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 99.0 * 100.0 / 2.0);
}

TEST(RuntimeTest, ScalarArgsReachTasks) {
  Fixture fx(4, 1);
  struct Params {
    double scale;
    int64_t offset;
  };
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    const auto& params = ctx.arg<Params>();
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, params.scale * static_cast<double>(p[0] + params.offset));
    });
  });
  fx.rt.execute(TaskLauncher::for_task(fill)
                    .region(fx.region, {fx.fv}, Privilege::kWrite)
                    .scalars(Params{2.5, 10}));
  fx.rt.wait_all();
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(3)), 2.5 * 13.0);
}

TEST(RuntimeTest, IterativeStencilMatchesSerialReference) {
  const int64_t n = 60, pieces = 6, iters = 8;
  Fixture fx(n, pieces);
  auto& forest = fx.rt.forest();
  const FieldId f_new = forest.allocate_field(fx.fs, sizeof(double), "v_new");
  // Recreate region so it has both fields.
  const RegionId grid = forest.create_region(fx.is, fx.fs);
  const PartitionId blocks = partition_equal(forest, fx.is, Rect::line(pieces));
  const PartitionId halos = partition_halo(forest, fx.is, blocks, 1);

  const TaskFnId init = fx.rt.register_task("init", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, p[0] % 7 == 0 ? 100.0 : 0.0);
    });
  });
  const TaskFnId step = fx.rt.register_task("step", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(f_new);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& p) {
      double acc_val = in.read(p) * 0.5;
      const Point l = Point::p1(p[0] - 1), r = Point::p1(p[0] + 1);
      if (halo.contains(l)) acc_val += in.read(l) * 0.25;
      if (halo.contains(r)) acc_val += in.read(r) * 0.25;
      out.write(p, acc_val);
    });
  });
  const TaskFnId copy_back = fx.rt.register_task("copy", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(f_new);
    auto out = ctx.region(1).accessor<double>(0);
    ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, in.read(p)); });
  });

  fx.rt.execute(
      TaskLauncher::for_task(init).region(grid, {fx.fv}, Privilege::kWrite));

  for (int64_t it = 0; it < iters; ++it) {
    const auto rs = fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(step)
            .region(grid, halos, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kWrite));
    EXPECT_TRUE(rs.ran_as_index_launch);

    fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(copy_back)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kWrite));
  }
  fx.rt.wait_all();

  // Serial reference.
  std::vector<double> ref(n);
  for (int64_t i = 0; i < n; ++i) ref[static_cast<std::size_t>(i)] = i % 7 == 0 ? 100.0 : 0.0;
  for (int64_t it = 0; it < iters; ++it) {
    std::vector<double> next(n);
    for (int64_t i = 0; i < n; ++i) {
      double v = ref[static_cast<std::size_t>(i)] * 0.5;
      if (i > 0) v += ref[static_cast<std::size_t>(i - 1)] * 0.25;
      if (i < n - 1) v += ref[static_cast<std::size_t>(i + 1)] * 0.25;
      next[static_cast<std::size_t>(i)] = v;
    }
    ref = std::move(next);
  }
  auto acc = fx.rt.read_region<double>(grid, fx.fv);
  for (int64_t i = 0; i < n; ++i)
    ASSERT_NEAR(acc.read(Point::p1(i)), ref[static_cast<std::size_t>(i)], 1e-12) << i;
}

TEST(RuntimeTest, TraceCaptureAndReplayProduceSameResults) {
  const int64_t n = 32, pieces = 4;
  Fixture fx(n, pieces);
  auto& forest = fx.rt.forest();
  const PartitionId halos = partition_halo(forest, fx.is, fx.blocks, 1);
  const FieldId f_new = forest.allocate_field(fx.fs, sizeof(double), "v_new");
  const RegionId grid = forest.create_region(fx.is, fx.fs);
  const PartitionId blocks = partition_equal(forest, fx.is, Rect::line(pieces));
  const PartitionId ghosts = partition_halo(forest, fx.is, blocks, 1);
  (void)halos;

  const TaskFnId init = fx.rt.register_task("init", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId step = fx.rt.register_task("step", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(f_new);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& p) {
      double v = in.read(p);
      const Point l = Point::p1(p[0] - 1);
      if (halo.contains(l)) v += in.read(l);
      out.write(p, v);
    });
  });
  const TaskFnId copy_back = fx.rt.register_task("copy", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(f_new);
    auto out = ctx.region(1).accessor<double>(0);
    ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, in.read(p)); });
  });

  fx.rt.execute(
      TaskLauncher::for_task(init).region(grid, {fx.fv}, Privilege::kWrite));

  auto run_iteration = [&] {
    fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(step)
            .region(grid, ghosts, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kWrite));
    fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(copy_back)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kWrite));
  };

  // Iteration 1 captures the trace; iterations 2..5 replay it.
  for (int it = 0; it < 5; ++it) {
    fx.rt.begin_trace(7);
    run_iteration();
    fx.rt.end_trace(7);
  }
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 4u * 2u * pieces);

  // Serial reference: v[i] += v[i-1], 5 times (Jacobi-style with copy).
  std::vector<double> ref(n);
  std::iota(ref.begin(), ref.end(), 0.0);
  for (int it = 0; it < 5; ++it) {
    std::vector<double> next(n);
    for (int64_t i = 0; i < n; ++i)
      next[static_cast<std::size_t>(i)] =
          ref[static_cast<std::size_t>(i)] + (i > 0 ? ref[static_cast<std::size_t>(i - 1)] : 0.0);
    ref = std::move(next);
  }
  auto acc = fx.rt.read_region<double>(grid, fx.fv);
  for (int64_t i = 0; i < n; ++i)
    ASSERT_NEAR(acc.read(Point::p1(i)), ref[static_cast<std::size_t>(i)], 1e-9) << i;
}

TEST(RuntimeTest, TraceReplayDivergenceDetected) {
  Fixture fx(8, 2);
  const TaskFnId a = fx.rt.register_task("a", [](TaskContext&) {});
  const TaskFnId b = fx.rt.register_task("b", [](TaskContext&) {});

  fx.rt.begin_trace(1);
  fx.rt.execute(TaskLauncher::for_task(a));
  fx.rt.end_trace(1);

  fx.rt.begin_trace(1);
  EXPECT_THROW(fx.rt.execute(TaskLauncher::for_task(b)),
               RuntimeError);  // diverges from capture
}

// Regression: a predecessor that had already *completed* by the time a later
// conflicting task was analyzed used to compact out of the trackers without
// reporting an edge. During trace capture that edge is load-bearing — on
// replay both tasks re-execute concurrently, and the missing ordering
// surfaced as an intermittent data race (ASan flake in
// DifferentialTest.RegionContentsMatchAcrossConfigs). Capture must keep
// done-clean uses and record their edges; covers both dependence tiers.
TEST(RuntimeTest, TraceCaptureKeepsEdgesToCompletedPredecessors) {
  for (const bool group : {true, false}) {
    RuntimeConfig cfg;
    cfg.record_task_graph = true;
    cfg.enable_group_analysis = group;
    Fixture fx(16, 4, cfg);
    const TaskFnId bump = fx.rt.register_task("bump", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each(
          [&](const Point& p) { acc.write(p, acc.read(p) + 1.0); });
    });
    const IndexLauncher launcher =
        IndexLauncher::over(Domain::line(4))
            .with_task(bump)
            .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                    {fx.fv}, Privilege::kReadWrite);

    fx.rt.begin_trace(11);
    fx.rt.execute_index(launcher);
    // Let the first launch fully retire mid-capture: its tracker uses are
    // now done-clean — exactly the state that used to vanish edgeless.
    fx.rt.pool().wait_idle();
    fx.rt.execute_index(launcher);
    fx.rt.end_trace(11);
    fx.rt.wait_all();
    // Point i of launch 2 (seq 4+i) must order after point i of launch 1
    // (seq i); cross-color pairs of the disjoint partition stay edge-free.
    ASSERT_EQ(fx.rt.task_graph_edges().size(), 4u) << "group=" << group;
    for (const auto& [from, to] : fx.rt.task_graph_edges())
      EXPECT_EQ(to, from + 4) << "group=" << group;

    // Replay re-executes both launches; the captured edges must come along.
    fx.rt.begin_trace(11);
    fx.rt.execute_index(launcher);
    fx.rt.execute_index(launcher);
    fx.rt.end_trace(11);
    fx.rt.wait_all();
    EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 8u) << "group=" << group;
    ASSERT_EQ(fx.rt.task_graph_edges().size(), 8u) << "group=" << group;
    for (const auto& [from, to] : fx.rt.task_graph_edges())
      EXPECT_EQ(to, from + 4) << "group=" << group;
  }
}

TEST(RuntimeTest, TaskGraphExport) {
  RuntimeConfig cfg;
  cfg.record_task_graph = true;
  Fixture fx(16, 4, cfg);
  // Pause the pool so launch 1's points are still live when launch 2's
  // dependences are analyzed; completed uses are compacted out of the
  // tracker, so ungated tiny tasks would race the edge count below.
  // Paused workers enqueue without executing — a deterministic gate.
  fx.rt.pool().pause();
  const TaskFnId stamp = fx.rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
  });
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(4))
          .with_task(stamp)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kReadWrite);
  fx.rt.execute_index(launcher);
  fx.rt.execute_index(launcher);
  fx.rt.pool().resume();
  fx.rt.wait_all();

  const std::string dot = fx.rt.export_task_graph_dot();
  // 8 nodes; launch 2's task i depends on launch 1's task i -> 4 edges.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '['), 1 + 8);  // node attrs + header
  EXPECT_NE(dot.find("stamp@(0)"), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(dot.begin(), dot.end(), '>')), 4);

  // Without recording, export throws.
  Fixture plain(16, 4);
  EXPECT_THROW(plain.rt.export_task_graph_dot(), RuntimeError);
}

TEST(RuntimeTest, EmptyDomainLaunchThrows) {
  Fixture fx(8, 2);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  EXPECT_THROW(fx.rt.execute_index(
                   IndexLauncher::over(Domain::from_points({})).with_task(noop)),
               RuntimeError);
}

TEST(RuntimeTest, UnknownTaskIdThrows) {
  Fixture fx(8, 2);
  EXPECT_THROW(
      fx.rt.execute_index(IndexLauncher::over(Domain::line(2)).with_task(999)),
      RuntimeError);
  EXPECT_THROW(fx.rt.execute(TaskLauncher::for_task(999)), RuntimeError);
}

TEST(RuntimeTest, FunctorColorOutsidePartitionThrows) {
  Fixture fx(8, 2);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  // Functor maps beyond the 2-color partition; reads are exempt from
  // safety checks, so the failure surfaces at subregion resolution.
  EXPECT_THROW(
      fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                              .with_task(noop)
                              .region(fx.region, fx.blocks,
                                      ProjectionFunctor::identity(1), {fx.fv},
                                      Privilege::kRead)),
      RuntimeError);
}

TEST(RuntimeDeathTest, ReadWithoutPrivilegeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx(8, 2);
  const TaskFnId bad = fx.rt.register_task("bad", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    (void)acc.read(Point::p1(0));  // declared write-only
  });
  const TaskLauncher launcher = TaskLauncher::for_task(bad).region(
      fx.region, {fx.fv}, Privilege::kWrite);
  EXPECT_DEATH(
      {
        fx.rt.execute(launcher);
        fx.rt.wait_all();
      },
      "privilege");
}

TEST(RuntimeDeathTest, OutOfBoundsAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx(8, 2);
  const TaskFnId bad = fx.rt.register_task("bad", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    acc.write(Point::p1(7), 1.0);  // block 0 covers [0, 4)
  });
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(1))
          .with_task(bad)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite);
  EXPECT_DEATH(
      {
        fx.rt.execute_index(launcher);
        fx.rt.wait_all();
      },
      "bounds");
}

// Row views in task bodies: each checks the argument's privilege and the
// block's bounds once, and each index against the row length.
void expect_body_aborts(Privilege priv, const char* message,
                        std::function<void(TaskContext&)> body) {
  Fixture fx(8, 2);
  const TaskFnId bad = fx.rt.register_task("bad", std::move(body));
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(1))
          .with_task(bad)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv}, priv);
  EXPECT_DEATH(
      {
        fx.rt.execute_index(launcher);
        fx.rt.wait_all();
      },
      message);
}

TEST(RuntimeDeathTest, RowCrossingTheBlockEdgeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  expect_body_aborts(Privilege::kReadWrite, "row view out of privilege", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    (void)acc.rw_row(Point::p1(2), 3);  // block 0 covers [0, 4)
  });
}

TEST(RuntimeDeathTest, ReadRowOnWriteOnlyArgumentAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  expect_body_aborts(Privilege::kWrite, "read_row without read privilege", [](TaskContext& ctx) {
    const auto acc = ctx.region(0).accessor<double>(0);
    (void)acc.read_row(Point::p1(0), 4);
  });
}

TEST(RuntimeDeathTest, WriteRowOnReadOnlyArgumentAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  expect_body_aborts(Privilege::kRead, "write_row without write privilege", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    (void)acc.write_row(Point::p1(0), 4);
  });
}

TEST(RuntimeDeathTest, RowIndexPastTheEndAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  expect_body_aborts(Privilege::kWrite, "row index past the row end", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    const WriteRow<double> row = acc.write_row(Point::p1(0), 4);
    for (std::size_t i = 0; i <= row.size(); ++i) row.write(i, 1.0);
  });
}

// ---------- PhysicalRegion row-by-row copies ----------

/// A region over `bounds` with an int64 field `fa` holding each element's
/// row-major index and a double field `fb`. sub() makes a subregion over a
/// domain, view() maps a region on both fields.
struct CopyFixture {
  RegionForest forest;
  IndexSpaceId is;
  FieldId fa = 0, fb = 0;
  RegionId root;

  explicit CopyFixture(const Rect& bounds) {
    is = forest.create_index_space(Domain(bounds));
    const FieldSpaceId fs = forest.create_field_space();
    fa = forest.allocate_field(fs, sizeof(int64_t), "a");
    fb = forest.allocate_field(fs, sizeof(double), "b");
    root = forest.create_region(is, fs);
    Accessor<int64_t> a(forest, root, fa, Privilege::kWrite);
    Accessor<double> b(forest, root, fb, Privilege::kWrite);
    for (const Point& p : bounds) {
      a.write(p, bounds.linearize(p));
      b.write(p, 0.5 * static_cast<double>(bounds.linearize(p)));
    }
  }

  RegionId sub(const Domain& d) {
    const PartitionId p =
        forest.create_partition(is, Rect::line(1), {d}, Disjointness::kDisjoint);
    return forest.subregion(root, p, Point::p1(0));
  }

  PhysicalRegion view(RegionId r, Privilege priv) {
    return PhysicalRegion(forest, r, {fa, fb}, priv, ReductionOp::kNone);
  }

  /// What copy_out must produce: both fields, element by element.
  std::vector<std::byte> expected_bytes(const Domain& d) {
    std::vector<std::byte> out;
    const Accessor<int64_t> a(forest, root, fa, Privilege::kRead);
    const Accessor<double> b(forest, root, fb, Privilege::kRead);
    d.for_each([&](const Point& p) { append(out, a.read(p)); });
    d.for_each([&](const Point& p) { append(out, b.read(p)); });
    return out;
  }

  template <typename T>
  static void append(std::vector<std::byte>& out, const T& v) {
    const auto* b = reinterpret_cast<const std::byte*>(&v);
    out.insert(out.end(), b, b + sizeof(T));
  }
};

void expect_round_trip(const Rect& bounds, const Domain& sub_domain, const Rect& strip) {
  CopyFixture src(bounds);
  const RegionId sub = src.sub(sub_domain);
  std::vector<std::byte> bytes;
  src.view(sub, Privilege::kRead).copy_out(bytes);
  EXPECT_EQ(bytes, src.expected_bytes(sub_domain));

  // Apply to a zeroed copy: exactly the view's elements come back.
  const std::byte zeros[8] = {};
  CopyFixture dst(bounds);
  dst.view(dst.root, Privilege::kWrite).fill_bytes(dst.fa, zeros, sizeof(zeros));
  dst.view(dst.root, Privilege::kWrite).fill_bytes(dst.fb, zeros, sizeof(zeros));
  PhysicalRegion dst_view = dst.view(dst.sub(sub_domain), Privilege::kWrite);
  EXPECT_EQ(dst_view.copy_in(bytes, 0), bytes.size());
  const Accessor<int64_t> a(dst.forest, dst.root, dst.fa, Privilege::kRead);
  for (const Point& p : bounds)
    EXPECT_EQ(a.read(p), sub_domain.contains(p) ? bounds.linearize(p) : 0) << p;
  EXPECT_THROW(dst_view.copy_in(bytes, 1), RuntimeError);  // one byte short

  // A strip in row-major order, and back into a zeroed copy.
  std::vector<std::byte> strip_bytes;
  src.view(src.root, Privilege::kRead).copy_out_rect(src.fa, strip, strip_bytes);
  std::vector<std::byte> want;
  for (const Point& p : strip) CopyFixture::append(want, bounds.linearize(p));
  EXPECT_EQ(strip_bytes, want);
  CopyFixture back(bounds);
  back.view(back.root, Privilege::kWrite).fill_bytes(back.fa, zeros, sizeof(zeros));
  back.view(back.root, Privilege::kWrite).copy_in_rect(back.fa, strip, strip_bytes);
  const Accessor<int64_t> c(back.forest, back.root, back.fa, Privilege::kRead);
  for (const Point& p : bounds)
    EXPECT_EQ(c.read(p), strip.contains(p) ? bounds.linearize(p) : 0) << p;
}

TEST(PhysicalRegionTest, RoundTrip1D) {
  expect_round_trip(Rect::line(20), Domain(Rect(Point::p1(3), Point::p1(11))),
                    Rect(Point::p1(5), Point::p1(17)));
}

TEST(PhysicalRegionTest, RoundTrip2D) {
  expect_round_trip(Rect::box2(7, 9), Domain(Rect(Point::p2(1, 2), Point::p2(5, 6))),
                    Rect(Point::p2(0, 7), Point::p2(6, 8)));
}

TEST(PhysicalRegionTest, RoundTrip3D) {
  expect_round_trip(Rect::box3(4, 5, 6),
                    Domain(Rect(Point::p3(1, 0, 2), Point::p3(3, 4, 4))),
                    Rect(Point::p3(2, 1, 0), Point::p3(3, 3, 5)));
}

TEST(PhysicalRegionTest, RoundTripSparseDomain) {
  expect_round_trip(Rect::box2(6, 6),
                    Domain::from_points({Point::p2(0, 5), Point::p2(2, 1), Point::p2(2, 2),
                                         Point::p2(4, 3), Point::p2(5, 0)}),
                    Rect(Point::p2(1, 1), Point::p2(1, 4)));
}

TEST(PhysicalRegionTest, FillWritesOnlyTheView) {
  CopyFixture fx(Rect::box2(5, 5));
  const Domain d(Rect(Point::p2(1, 1), Point::p2(3, 2)));
  const int64_t pattern = -7;
  fx.view(fx.sub(d), Privilege::kWrite).fill_bytes(fx.fa, &pattern, sizeof(pattern));
  const Accessor<int64_t> a(fx.forest, fx.root, fx.fa, Privilege::kRead);
  for (const Point& p : Rect::box2(5, 5))
    EXPECT_EQ(a.read(p), d.contains(p) ? -7 : Rect::box2(5, 5).linearize(p)) << p;
}

TEST(RuntimeTest, FutureReducesTaskReturnValues) {
  Fixture fx(100, 10);
  const TaskFnId block_sum = fx.rt.register_task("block_sum", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    double sum = 0;
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(p[0]));
      sum += static_cast<double>(p[0]);
    });
    ctx.return_value = sum;
  });
  IndexLauncher launcher =
      IndexLauncher::over(Domain::line(10))
          .with_task(block_sum)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite)
          .reduce(ReductionOp::kSum);
  LaunchResult r = fx.rt.execute_index(launcher);
  ASSERT_TRUE(r.future.valid());
  EXPECT_DOUBLE_EQ(r.future.get(fx.rt), 99.0 * 100.0 / 2.0);

  // Max across blocks: block b holds values up to 10b+9.
  launcher.result_redop = ReductionOp::kMax;
  const TaskFnId block_max = fx.rt.register_task("block_max", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    double best = -1e300;
    ctx.region(0).domain().for_each([&](const Point& p) {
      best = std::max(best, acc.read(p));
      acc.write(p, best);
    });
    ctx.return_value = best;
  });
  launcher.task = block_max;
  launcher.args[0].privilege = Privilege::kReadWrite;
  LaunchResult r2 = fx.rt.execute_index(launcher);
  EXPECT_DOUBLE_EQ(r2.future.get(fx.rt), 99.0);
}

TEST(RuntimeTest, FutureWorksInNoIdxAndFallbackModes) {
  auto run_mode = [](bool idx, const ProjectionFunctor& functor, int64_t domain) {
    RuntimeConfig cfg;
    cfg.enable_index_launches = idx;
    Fixture fx(30, 3, cfg);
    const TaskFnId one = fx.rt.register_task("one", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
      ctx.return_value = 1.0;
    });
    return fx.rt
        .execute_index(IndexLauncher::over(Domain::line(domain))
                           .with_task(one)
                           .region(fx.region, fx.blocks, functor, {fx.fv},
                                   Privilege::kWrite)
                           .reduce(ReductionOp::kSum))
        .future.get(fx.rt);
  };
  // Index-launch path, task-loop (No-IDX) path, and the unsafe-fallback
  // path (i % 3 over 6 points) all produce the complete reduction.
  EXPECT_DOUBLE_EQ(run_mode(true, ProjectionFunctor::identity(1), 3), 3.0);
  EXPECT_DOUBLE_EQ(run_mode(false, ProjectionFunctor::identity(1), 3), 3.0);
  EXPECT_DOUBLE_EQ(run_mode(true, ProjectionFunctor::modular1d(0, 3), 6), 6.0);
}

TEST(RuntimeTest, EmptyFutureThrows) {
  Fixture fx(8, 2);
  Future empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.get(fx.rt), RuntimeError);
}

TEST(RuntimeTest, ExtendedStaticAnalysisAvoidsDynamicCheck) {
  RuntimeConfig cfg;
  cfg.extended_static_analysis = true;
  Fixture fx(40, 10, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const LaunchResult r = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(10))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(3, 10),
                  {fx.fv}, Privilege::kWrite));
  EXPECT_EQ(r.safety.outcome, SafetyOutcome::kSafeStatic);
  EXPECT_EQ(r.safety.dynamic_points, 0u);
  fx.rt.wait_all();
}

TEST(RuntimeTest, RepeatedLaunchesHitVerdictCache) {
  // Iterative workloads re-launch the same site every step; after the first
  // analysis, the verdict comes from the launch-site cache.
  Fixture fx(40, 10);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const auto launch = [&] {
    return fx.rt.execute_index(
        IndexLauncher::over(Domain::line(10))
            .with_task(noop)
            .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(3, 10),
                    {fx.fv}, Privilege::kWrite));
  };
  const LaunchResult first = launch();
  EXPECT_FALSE(first.safety.cache_hit);
  EXPECT_EQ(first.safety.outcome, SafetyOutcome::kSafeDynamic);
  EXPECT_EQ(first.safety.dynamic_points, 10u);
  for (int i = 0; i < 4; ++i) {
    const LaunchResult r = launch();
    EXPECT_TRUE(r.safety.cache_hit);
    EXPECT_EQ(r.safety.outcome, SafetyOutcome::kSafeDynamic);
    EXPECT_EQ(r.safety.dynamic_points, 0u);  // analysis was not redone
  }
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().verdict_cache_hits, 4u);
  EXPECT_EQ(fx.rt.stats().verdict_cache_misses, 1u);
  EXPECT_EQ(fx.rt.verdict_cache().counters().hits, 4u);
}

TEST(RuntimeTest, VerdictCacheCanBeDisabled) {
  RuntimeConfig cfg;
  cfg.enable_verdict_cache = false;
  Fixture fx(40, 10, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  for (int i = 0; i < 3; ++i) {
    const LaunchResult r = fx.rt.execute_index(
        IndexLauncher::over(Domain::line(10))
            .with_task(noop)
            .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(3, 10),
                    {fx.fv}, Privilege::kWrite));
    EXPECT_FALSE(r.safety.cache_hit);
    EXPECT_EQ(r.safety.dynamic_points, 10u);  // re-analyzed every launch
  }
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().verdict_cache_hits, 0u);
  EXPECT_EQ(fx.rt.verdict_cache().size(), 0u);
}

TEST(RuntimeTest, RapidReissueStress) {
  // Regression test for an issuance race: a dependency that completes the
  // instant its successor edge is published must not double-trigger the
  // successor. Reproduces with no-op tasks whose predecessors finish faster
  // than the issuing thread can raise the pending count.
  RuntimeConfig cfg;
  cfg.workers = 2;
  Fixture fx(256, 64, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(64))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kReadWrite);
  for (int i = 0; i < 50; ++i) fx.rt.execute_index(launcher);
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().point_tasks, 50u * 64u);
}

TEST(RuntimeTest, DisjointPartitionSkipsDomainTests) {
  // Whole-partition reasoning in the tracker: repeated launches over one
  // disjoint partition should need far fewer pairwise dependence tests
  // than the quadratic all-pairs scan.
  Fixture fx(256, 64);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(64))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kReadWrite);
  for (int i = 0; i < 10; ++i) fx.rt.execute_index(launcher);
  fx.rt.wait_all();
  // Each task conflicts only with its same-color predecessor: the tests
  // performed stay linear in tasks, far below the 64x64 pairwise bound.
  EXPECT_LT(fx.rt.stats().dependence_tests, 10u * 64u * 8u);
}

// ---------- slicing functors ----------

TEST(MappingTest, BinarySlicingCoversDomainExactly) {
  BinarySlicingFunctor slicer;
  Slice root;
  root.domain = Domain(Rect::box2(16, 16));
  root.node_lo = 0;
  root.node_hi = 7;

  // Recursively expand to leaves and verify the leaves tile the domain with
  // one leaf per node.
  std::vector<Slice> leaves;
  auto expand = [&](auto&& self, const Slice& s) -> void {
    const auto children = slicer.slice(s);
    if (children.size() == 1 && children[0].node_lo == s.node_lo &&
        children[0].node_hi == s.node_hi) {
      leaves.push_back(s);
      return;
    }
    for (const Slice& c : children) self(self, c);
  };
  expand(expand, root);

  ASSERT_EQ(leaves.size(), 8u);
  int64_t total = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].node_lo, leaves[i].node_hi);
    total += leaves[i].domain.volume();
    for (std::size_t j = i + 1; j < leaves.size(); ++j)
      EXPECT_TRUE(leaves[i].domain.disjoint_from(leaves[j].domain));
  }
  EXPECT_EQ(total, 256);
}

TEST(MappingTest, BinarySlicingSparseDomain) {
  BinarySlicingFunctor slicer;
  std::vector<Point> pts;
  for (int i = 0; i < 7; ++i) pts.push_back(Point::p1(i * 3));
  Slice root;
  root.domain = Domain::from_points(pts);
  root.node_lo = 0;
  root.node_hi = 1;
  const auto children = slicer.slice(root);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0].domain.volume() + children[1].domain.volume(), 7);
  EXPECT_TRUE(children[0].domain.disjoint_from(children[1].domain));
}

}  // namespace
}  // namespace idxl
