// The RuntimeApi facade contract: one workload, written once against the
// interface, must produce identical results on the local, sharded and
// distributed backends, and make_runtime() must honour config and
// $IDXL_BACKEND.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "dist/backend.hpp"
#include "apps/stencil.hpp"
#include "dist/dist_runtime.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "shard/sharded_runtime.hpp"

namespace idxl {
namespace {

constexpr int64_t kElements = 64;
constexpr int64_t kPieces = 8;

/// The backend-independent workload: fill, one statically-safe launch, one
/// launch only the dynamic check can prove, then read back.
std::vector<double> run_workload(RuntimeApi& rt) {
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId value = forest.allocate_field(fs, sizeof(double), "value");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId pieces = partition_equal(forest, is, Rect::line(kPieces));

  const TaskFnId write_idx = rt.register_task("write_idx", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] + 1));
    });
  });
  const TaskFnId scale = rt.register_task("scale", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, acc.read(p) * 10.0); });
  });

  rt.fill(region, value, -1.0);
  rt.execute_index(IndexLauncher::over(Domain::line(kPieces))
                       .with_task(write_idx)
                       .region(region, pieces, ProjectionFunctor::identity(1),
                               {value}, Privilege::kWrite));
  rt.execute_index(IndexLauncher::over(Domain::line(kPieces))
                       .with_task(scale)
                       .region(region, pieces,
                               ProjectionFunctor::modular1d(3, kPieces),
                               {value}, Privilege::kReadWrite));
  rt.wait_all();
  EXPECT_TRUE(rt.fault_report().ok());

  auto acc = rt.read_region<double>(region, value);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

std::vector<double> expected() {
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i)
    out.push_back(static_cast<double>(i / (kElements / kPieces) + 1) * 10.0);
  return out;
}

TEST(RuntimeApiTest, SameWorkloadOnEveryBackend) {
  for (const dist::Backend backend :
       {dist::Backend::kLocal, dist::Backend::kSharded, dist::Backend::kDist}) {
    dist::BackendConfig config;
    config.backend = backend;
    config.runtime.workers = 2;
    config.shards = 2;
    config.dist.ranks = 2;
    const auto rt = dist::make_runtime(config);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(run_workload(*rt), expected())
        << "backend=" << dist::backend_name(backend);
  }
}

TEST(RuntimeApiTest, StatsMapOntoCommonShape) {
  dist::BackendConfig config;
  config.runtime.workers = 2;
  for (const dist::Backend backend :
       {dist::Backend::kLocal, dist::Backend::kSharded, dist::Backend::kDist}) {
    config.backend = backend;
    const auto rt = dist::make_runtime(config);
    run_workload(*rt);
    const RuntimeStats stats = rt->stats();
    // 3 issuance calls (fill + 2 launches) expanded to kPieces point tasks
    // each — every backend reports through the same counters. The sharded
    // backend replays the stream once per shard, so point totals there are
    // per-shard sums; all backends agree the launches were index launches.
    EXPECT_GE(stats.index_launches, 2u) << dist::backend_name(backend);
    EXPECT_GE(stats.point_tasks, static_cast<uint64_t>(2 * kPieces));
    EXPECT_EQ(stats.tasks_failed, 0u);
  }
}

TEST(RuntimeApiTest, ShardedSingleTaskLaunchThrows) {
  // ShardContext has no partition-free region arguments, so the sharded
  // facade cannot express a single-task launch; it must refuse loudly.
  dist::BackendConfig config;
  config.backend = dist::Backend::kSharded;
  const auto rt = dist::make_runtime(config);
  const TaskFnId noop = rt->register_task("noop", [](TaskContext&) {});
  EXPECT_THROW(rt->execute(TaskLauncher::for_task(noop)), RuntimeError);
}

TEST(RuntimeApiTest, RunContractOnEveryBackend) {
  // RuntimeApi::run = program + fence + merged report, on any backend.
  for (const dist::Backend backend :
       {dist::Backend::kLocal, dist::Backend::kSharded, dist::Backend::kDist}) {
    dist::BackendConfig config;
    config.backend = backend;
    config.runtime.workers = 2;
    const auto rt = dist::make_runtime(config);
    std::vector<double> got;
    const FaultReport report =
        rt->run([&](RuntimeApi& api) { got = run_workload(api); });
    EXPECT_TRUE(report.ok()) << dist::backend_name(backend);
    EXPECT_EQ(got, expected()) << dist::backend_name(backend);
  }
}

TEST(RuntimeApiTest, StencilBitIdenticalOnLocalAndFourRanks) {
  // The stencil bodies read and write through row views; on one process
  // and on four forked ranks the result equals the serial reference
  // exactly, not merely to a tolerance.
  apps::StencilParams params;
  params.nx = 48;
  params.ny = 40;
  params.px = 2;
  params.py = 2;
  params.radius = 2;
  params.iterations = 3;
  const std::vector<double> want =
      apps::StencilApp::reference_output(params, params.iterations);

  // The ranks fork first: no thread of the local runtime may exist yet.
  dist::DistConfig dc;
  dc.ranks = 4;
  dist::DistributedRuntime ranks(dc);
  apps::StencilApp dist_app(ranks, params);
  dist_app.run(params.iterations);
  EXPECT_EQ(dist_app.output(), want);
  EXPECT_TRUE(ranks.fault_report().ok());

  RuntimeConfig local_config;
  local_config.workers = 1;
  Runtime local(local_config);
  apps::StencilApp local_app(local, params);
  local_app.run(params.iterations);
  EXPECT_EQ(local_app.output(), want);
}

TEST(RuntimeApiTest, EnvSelectsBackend) {
  ASSERT_EQ(setenv("IDXL_BACKEND", "sharded", 1), 0);
  auto rt = dist::make_runtime();
  EXPECT_NE(dynamic_cast<ShardedRuntime*>(rt.get()), nullptr);

  ASSERT_EQ(setenv("IDXL_BACKEND", "dist", 1), 0);
  ASSERT_EQ(setenv("IDXL_DIST_RANKS", "1", 1), 0);
  rt = dist::make_runtime();
  auto* dist_rt = dynamic_cast<dist::DistributedRuntime*>(rt.get());
  ASSERT_NE(dist_rt, nullptr);
  EXPECT_EQ(dist_rt->ranks(), 1u);

  ASSERT_EQ(setenv("IDXL_BACKEND", "local", 1), 0);
  rt = dist::make_runtime();
  EXPECT_NE(dynamic_cast<Runtime*>(rt.get()), nullptr);

  ASSERT_EQ(setenv("IDXL_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(dist::make_runtime(), RuntimeError);
  ASSERT_EQ(unsetenv("IDXL_BACKEND"), 0);
  ASSERT_EQ(unsetenv("IDXL_DIST_RANKS"), 0);
}

TEST(RuntimeApiTest, DeprecatedFutureShimStillWorks) {
  // Future::get(Runtime&) predates RuntimeApi::get; both resolve the same
  // reduction.
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(8));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId pieces = partition_equal(forest, is, Rect::line(8));
  const TaskFnId one = rt.register_task("one", [](TaskContext& ctx) {
    ctx.return_value = 1.0;
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
  });
  const LaunchResult r = rt.execute_index(
      IndexLauncher::over(Domain::line(8))
          .with_task(one)
          .reduce(ReductionOp::kSum)
          .region(region, pieces, ProjectionFunctor::identity(1), {f},
                  Privilege::kWrite));
  ASSERT_TRUE(r.future.valid());
  EXPECT_EQ(rt.get(r.future), 8.0);       // the RuntimeApi way
  EXPECT_EQ(r.future.get(rt), 8.0);       // the deprecated shim
}

}  // namespace
}  // namespace idxl
