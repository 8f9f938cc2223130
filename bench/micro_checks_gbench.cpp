// google-benchmark microbenchmarks of the dynamic-check kernels backing
// Tables 2/3 — finer-grained statistics (per-point ns, big-O fit) than the
// paper-format tables, useful when tuning the checker itself. Also the
// cost of one stencil task body (a 128x128 block, radius 2) read through
// per-element accessor calls against checked row views.
#include <benchmark/benchmark.h>

#include "analysis/dynamic_check.hpp"
#include "apps/stencil.hpp"

namespace idxl {
namespace {

void BM_SelfCheckIdentity(benchmark::State& state) {
  const auto f = ProjectionFunctor::identity(1);
  const int64_t n = state.range(0);
  const Domain domain = Domain::line(n);
  const Rect colors = Rect::line(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic_self_check(f, colors, domain));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SelfCheckIdentity)->Range(1 << 10, 1 << 20)->Complexity(benchmark::oN);

void BM_SelfCheckModular(benchmark::State& state) {
  const int64_t n = state.range(0);
  const auto f = ProjectionFunctor::modular1d(5, n);
  const Domain domain = Domain::line(n);
  const Rect colors = Rect::line(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic_self_check(f, colors, domain));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SelfCheckModular)->Range(1 << 10, 1 << 20)->Complexity(benchmark::oN);

void BM_SelfCheckQuadratic(benchmark::State& state) {
  const auto f = ProjectionFunctor::symbolic(
      {make_add(make_mul(make_coord(0), make_coord(0)), make_coord(0))});
  const int64_t n = state.range(0);
  const Domain domain = Domain::line(n);
  const Rect colors = Rect::line(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic_self_check(f, colors, domain));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SelfCheckQuadratic)->Range(1 << 10, 1 << 20)->Complexity(benchmark::oN);

void BM_SelfCheckOpaque(benchmark::State& state) {
  // The generic (non-specialized) path: an opaque callable.
  const auto f = ProjectionFunctor::opaque(
      [](const Point& p) { return Point::p1(p[0] * 3 + 1); }, 1, "opaque affine");
  const int64_t n = state.range(0);
  const Domain domain = Domain::line(n);
  const Rect colors = Rect::line(3 * n + 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic_self_check(f, colors, domain));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SelfCheckOpaque)->Range(1 << 10, 1 << 18)->Complexity(benchmark::oN);

void BM_CrossCheckArgs(benchmark::State& state) {
  const int64_t n = 1 << 16;
  const auto num_args = static_cast<int>(state.range(0));
  const Domain domain = Domain::line(n);
  const Rect colors = Rect::line(2 * n);
  std::vector<ProjectionFunctor> functors;
  functors.push_back(ProjectionFunctor::affine1d(2, 0));
  for (int a = 1; a < num_args; ++a)
    functors.push_back(ProjectionFunctor::affine1d(2, 1));
  std::vector<CheckArg> args;
  for (int a = 0; a < num_args; ++a) {
    CheckArg ca;
    ca.functor = &functors[static_cast<std::size_t>(a)];
    ca.color_space = colors;
    ca.partition_disjoint = true;
    ca.partition_uid = 1;
    ca.collection_uid = 1;
    ca.priv = a == 0 ? Privilege::kWrite : Privilege::kRead;
    args.push_back(ca);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dynamic_cross_check(args, domain));
  }
}
BENCHMARK(BM_CrossCheckArgs)->DenseRange(2, 5);

/// A 128x128 block with its halo, in x + y / 0 like StencilApp. The radius
/// comes from the benchmark argument, so no loop bound is a constant.
struct StencilBlock {
  static constexpr int64_t kBlock = 128;
  int64_t radius;
  RegionForest forest;
  RegionId region;
  FieldId f_in = 0, f_out = 0;
  Rect cells;

  explicit StencilBlock(int64_t r)
      : radius(r), cells(Point::p2(r, r), Point::p2(r + kBlock - 1, r + kBlock - 1)) {
    const int64_t side = kBlock + 2 * r;
    const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(side, side)));
    const FieldSpaceId fs = forest.create_field_space();
    f_in = forest.allocate_field(fs, sizeof(double), "in");
    f_out = forest.allocate_field(fs, sizeof(double), "out");
    region = forest.create_region(is, fs);
    Accessor<double> in(forest, region, f_in, Privilege::kWrite);
    Accessor<double> out(forest, region, f_out, Privilege::kWrite);
    for (const Point& p : Rect::box2(side, side)) {
      in.write(p, static_cast<double>(p[0] + p[1]));
      out.write(p, 0.0);
    }
  }
};

void BM_StencilBlockPerElement(benchmark::State& state) {
  StencilBlock b(state.range(0));
  const Accessor<double> in(b.forest, b.region, b.f_in, Privilege::kRead);
  Accessor<double> out(b.forest, b.region, b.f_out, Privilege::kReadWrite);
  std::byte* written = b.forest.field_data(b.region, b.f_out);
  // Weights hoisted as in stencil_block, so the two cases differ only in
  // how they reach the data.
  const int64_t radius = b.radius;
  std::vector<double> w_pos(static_cast<std::size_t>(radius) + 1), w_neg(w_pos.size());
  for (int64_t k = 1; k <= radius; ++k) {
    w_pos[static_cast<std::size_t>(k)] = apps::stencil_weight(k, radius);
    w_neg[static_cast<std::size_t>(k)] = apps::stencil_weight(-k, radius);
  }
  for (auto _ : state) {
    for (const Point& p : b.cells) {
      double acc = out.read(p);
      for (int64_t k = 1; k <= radius; ++k) {
        const auto i = static_cast<std::size_t>(k);
        acc += w_pos[i] * in.read(Point::p2(p[0] + k, p[1]));
        acc += w_neg[i] * in.read(Point::p2(p[0] - k, p[1]));
        acc += w_pos[i] * in.read(Point::p2(p[0], p[1] + k));
        acc += w_neg[i] * in.read(Point::p2(p[0], p[1] - k));
      }
      out.write(p, acc);
    }
    benchmark::DoNotOptimize(written);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * b.cells.volume());
}
BENCHMARK(BM_StencilBlockPerElement)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_StencilBlockRowView(benchmark::State& state) {
  StencilBlock b(state.range(0));
  const Accessor<double> in(b.forest, b.region, b.f_in, Privilege::kRead);
  Accessor<double> out(b.forest, b.region, b.f_out, Privilege::kReadWrite);
  std::byte* written = b.forest.field_data(b.region, b.f_out);
  for (auto _ : state) {
    apps::stencil_block(in, out, b.cells, b.radius);
    benchmark::DoNotOptimize(written);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * b.cells.volume());
}
BENCHMARK(BM_StencilBlockRowView)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace idxl

BENCHMARK_MAIN();
