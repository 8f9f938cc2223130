#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "analysis/certificate.hpp"
#include "analysis/interference.hpp"
#include "analysis/witness.hpp"
#include "dist/dist_runtime.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace idxl {
namespace {

// Differential fuzzing of the execution strategies. A random sequence of
// index launches — random functors (many non-injective), privileges and
// domains — is run under several configurations. Because unsafe launches
// fall back to the sequential task loop, *every* generated program is
// valid, and all configurations must produce bit-identical region contents:
//
//   * index launches enabled (hybrid checks decide per launch)
//   * index launches disabled (the paper's No-IDX baseline)
//   * extended static analysis (more launches verified without checks)
//
// This exercises the safety analysis, the fallback branch, dependence
// tracking across random read/write/reduce patterns, and the executor.

constexpr int64_t kElements = 60;
constexpr int64_t kPieces = 6;

struct Program {
  struct Launch {
    int64_t domain_size;     // 1..6
    int functor_kind;        // selects from the pool below
    int64_t k;               // functor parameter
    int privilege_kind;      // 0 write, 1 read-write, 2 reduce
    bool sparse_domain;
  };
  std::vector<Launch> launches;
};

Program random_program(uint64_t seed) {
  Rng rng(seed);
  Program prog;
  const int n = static_cast<int>(rng.next_in(4, 14));
  for (int i = 0; i < n; ++i) {
    Program::Launch l;
    l.domain_size = rng.next_in(2, kPieces);
    l.functor_kind = static_cast<int>(rng.next_below(5));
    l.k = rng.next_in(0, 5);
    l.privilege_kind = static_cast<int>(rng.next_below(3));
    l.sparse_domain = rng.next_below(4) == 0;
    prog.launches.push_back(l);
  }
  return prog;
}

ProjectionFunctor make_functor(const Program::Launch& l) {
  switch (l.functor_kind) {
    case 0: return ProjectionFunctor::identity(1);
    case 1: return ProjectionFunctor::modular1d(l.k, kPieces);  // (i+k) mod 6
    case 2:  // (i*i + k) mod 6 — quadratic, often non-injective
      return ProjectionFunctor::symbolic(
          {make_mod(make_add(make_mul(make_coord(0), make_coord(0)), make_const(l.k)),
                    make_const(kPieces))});
    case 3:  // (2i + k) mod 6
      return ProjectionFunctor::symbolic(
          {make_mod(make_add(make_mul(make_const(2), make_coord(0)), make_const(l.k)),
                    make_const(kPieces))});
    default:  // i / 2 — non-injective gather
      return ProjectionFunctor::symbolic({make_div(make_coord(0), make_const(2))});
  }
}

std::vector<double> run_program(const Program& prog, const RuntimeConfig& cfg) {
  Runtime rt(cfg);
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPieces));

  {
    Accessor<double> acc(forest, region, fv, Privilege::kWrite);
    for (int64_t i = 0; i < kElements; ++i)
      acc.write(Point::p1(i), static_cast<double>(i % 7));
  }

  // Task bodies for the three privilege kinds. Each mixes the launch point
  // into the data so ordering mistakes change results.
  const TaskFnId t_write = rt.register_task("w", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] + p[0] % 3));
    });
  });
  const TaskFnId t_rw = rt.register_task("rw", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, acc.read(p) * 0.5 + static_cast<double>(ctx.point[0]));
    });
  });
  const TaskFnId t_reduce = rt.register_task("red", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.reduce(p, static_cast<double>(1 + ctx.point[0])); });
  });

  for (const Program::Launch& l : prog.launches) {
    IndexLauncher launcher;
    launcher.domain = Domain::line(l.domain_size);
    if (l.sparse_domain) {
      std::vector<Point> pts;
      for (int64_t i = 0; i < l.domain_size; i += 2) pts.push_back(Point::p1(i));
      if (pts.empty()) pts.push_back(Point::p1(0));
      launcher.domain = Domain::from_points(std::move(pts));
    }
    ProjectedArg arg;
    arg.parent = region;
    arg.partition = blocks;
    arg.functor = make_functor(l);
    arg.fields = {fv};
    switch (l.privilege_kind) {
      case 0:
        launcher.task = t_write;
        arg.privilege = Privilege::kWrite;
        break;
      case 1:
        launcher.task = t_rw;
        arg.privilege = Privilege::kReadWrite;
        break;
      default:
        launcher.task = t_reduce;
        arg.privilege = Privilege::kReduce;
        arg.redop = ReductionOp::kSum;
        break;
    }
    launcher.args = {arg};
    rt.execute_index(launcher);
  }
  rt.wait_all();

  auto acc = rt.read_region<double>(region, fv);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzz, AllStrategiesAgree) {
  for (uint64_t trial = 0; trial < 8; ++trial) {
    const Program prog = random_program(GetParam() * 1000 + trial);

    RuntimeConfig idx;
    RuntimeConfig noidx;
    noidx.enable_index_launches = false;
    RuntimeConfig extended;
    extended.extended_static_analysis = true;
    RuntimeConfig few_workers;
    few_workers.workers = 1;

    const auto baseline = run_program(prog, idx);
    EXPECT_EQ(run_program(prog, noidx), baseline) << "No-IDX diverged";
    EXPECT_EQ(run_program(prog, extended), baseline) << "extended-static diverged";
    EXPECT_EQ(run_program(prog, few_workers), baseline) << "1-worker diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range<uint64_t>(1, 9));

// Two-argument variant: launches carry a read and a write argument on the
// same partition, driving the §3 cross-check rules (static image tests,
// field-disjointness, the multi-argument dynamic bitmask) plus fallback.
std::vector<double> run_two_arg_program(uint64_t seed, const RuntimeConfig& cfg) {
  Rng rng(seed);
  Runtime rt(cfg);
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fa = forest.allocate_field(fs, sizeof(double), "a");
  const FieldId fb = forest.allocate_field(fs, sizeof(double), "b");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPieces));

  {
    Accessor<double> a(forest, region, fa, Privilege::kWrite);
    Accessor<double> b(forest, region, fb, Privilege::kWrite);
    for (int64_t i = 0; i < kElements; ++i) {
      a.write(Point::p1(i), static_cast<double>(i));
      b.write(Point::p1(i), static_cast<double>(-i));
    }
  }

  const TaskFnId mix = rt.register_task("mix", [](TaskContext& ctx) {
    const FieldId in_field = ctx.arg<FieldId>();
    auto in = ctx.region(0).accessor<double>(in_field);
    auto out = ctx.region(1).accessor<double>(in_field ^ 1u);
    double sum = static_cast<double>(ctx.point[0]);
    ctx.region(0).domain().for_each([&](const Point& p) { sum += in.read(p) * 0.125; });
    ctx.region(1).domain().for_each(
        [&](const Point& p) { out.write(p, sum + static_cast<double>(p[0] % 5)); });
  });

  const int launches = static_cast<int>(rng.next_in(4, 10));
  for (int l = 0; l < launches; ++l) {
    IndexLauncher launcher;
    launcher.task = mix;
    launcher.domain = Domain::line(rng.next_in(2, kPieces));
    const FieldId in_field = rng.next_below(2) ? fa : fb;
    launcher.scalar_args = ArgBuffer::of(in_field);

    auto pick = [&rng]() -> ProjectionFunctor {
      switch (rng.next_below(4)) {
        case 0: return ProjectionFunctor::identity(1);
        case 1: return ProjectionFunctor::modular1d(rng.next_in(0, 5), kPieces);
        case 2: return ProjectionFunctor::affine1d(1, rng.next_in(0, 2));
        default:
          return ProjectionFunctor::symbolic(
              {make_mod(make_mul(make_const(2), make_coord(0)), make_const(kPieces))});
      }
    };
    launcher.args = {
        {region, blocks, pick(), {in_field}, Privilege::kRead, ReductionOp::kNone},
        {region, blocks, pick(), {in_field ^ 1u}, Privilege::kWrite, ReductionOp::kNone}};

    // Affine offsets can select colors beyond the partition; such launches
    // are invalid and must throw identically in every configuration. Probe
    // with the functor directly and skip those.
    bool in_bounds = true;
    launcher.domain.for_each([&](const Point& p) {
      for (const auto& arg : launcher.args)
        if (arg.functor(p)[0] >= kPieces) in_bounds = false;
    });
    if (!in_bounds) continue;
    rt.execute_index(launcher);
  }
  rt.wait_all();

  auto a = rt.read_region<double>(region, fa);
  auto b = rt.read_region<double>(region, fb);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) {
    out.push_back(a.read(Point::p1(i)));
    out.push_back(b.read(Point::p1(i)));
  }
  return out;
}

class TwoArgDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwoArgDifferentialFuzz, AllStrategiesAgree) {
  for (uint64_t trial = 0; trial < 8; ++trial) {
    const uint64_t seed = GetParam() * 7919 + trial;
    RuntimeConfig idx;
    RuntimeConfig noidx;
    noidx.enable_index_launches = false;
    RuntimeConfig extended;
    extended.extended_static_analysis = true;

    const auto baseline = run_two_arg_program(seed, idx);
    EXPECT_EQ(run_two_arg_program(seed, noidx), baseline) << "No-IDX diverged";
    EXPECT_EQ(run_two_arg_program(seed, extended), baseline)
        << "extended-static diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoArgDifferentialFuzz,
                         ::testing::Range<uint64_t>(1, 7));

// Cross-runtime fuzz: the same random program on the single in-process
// runtime and on forked DistributedRuntime ranks — with the delta data plane
// and with the star-hub baseline — must produce identical region contents.
// The functor pool is constrained to launches that are safe as index
// launches (injective writers; reductions may alias), so every launch is
// split across the ranks rather than run as a sequential loop.
struct SafeLaunch {
  int64_t domain_size;
  int functor_kind;  // 0 identity, 1 (i+k)%6 full period, 2 reduce-quadratic
  int64_t k;
  int privilege_kind;  // 0 write, 1 rw, 2 reduce
};

std::vector<SafeLaunch> random_safe_program(uint64_t seed) {
  Rng rng(seed);
  std::vector<SafeLaunch> prog;
  const int n = static_cast<int>(rng.next_in(4, 12));
  for (int i = 0; i < n; ++i) {
    SafeLaunch l;
    l.privilege_kind = static_cast<int>(rng.next_below(3));
    if (l.privilege_kind == 2) {
      l.functor_kind = 2;  // reductions tolerate non-injective functors
      l.domain_size = rng.next_in(2, kPieces);
    } else {
      l.functor_kind = static_cast<int>(rng.next_below(2));
      // The modular functor is injective only over a full period.
      l.domain_size = l.functor_kind == 1 ? kPieces : rng.next_in(2, kPieces);
    }
    l.k = rng.next_in(0, 5);
    prog.push_back(l);
  }
  return prog;
}

template <typename IssueFn>
void issue_safe_program(const std::vector<SafeLaunch>& prog, RegionId region,
                        PartitionId blocks, FieldId fv, TaskFnId t_write, TaskFnId t_rw,
                        TaskFnId t_reduce, IssueFn&& issue) {
  for (const SafeLaunch& l : prog) {
    IndexLauncher launcher;
    launcher.domain = Domain::line(l.domain_size);
    ProjectedArg arg;
    arg.parent = region;
    arg.partition = blocks;
    arg.fields = {fv};
    switch (l.functor_kind) {
      case 0: arg.functor = ProjectionFunctor::identity(1); break;
      case 1: arg.functor = ProjectionFunctor::modular1d(l.k, kPieces); break;
      default:
        arg.functor = ProjectionFunctor::symbolic({make_mod(
            make_add(make_mul(make_coord(0), make_coord(0)), make_const(l.k)),
            make_const(kPieces))});
        break;
    }
    switch (l.privilege_kind) {
      case 0:
        launcher.task = t_write;
        arg.privilege = Privilege::kWrite;
        break;
      case 1:
        launcher.task = t_rw;
        arg.privilege = Privilege::kReadWrite;
        break;
      default:
        launcher.task = t_reduce;
        arg.privilege = Privilege::kReduce;
        arg.redop = ReductionOp::kSum;
        break;
    }
    launcher.args = {arg};
    issue(launcher);
  }
}

TaskFn fuzz_write_body() {
  return [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] * 2 + p[0] % 3));
    });
  };
}
TaskFn fuzz_rw_body() {
  return [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, acc.read(p) * 0.5 + static_cast<double>(ctx.point[0]));
    });
  };
}
TaskFn fuzz_reduce_body() {
  return [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.reduce(p, static_cast<double>(1 + ctx.point[0])); });
  };
}

std::vector<double> run_safe(RuntimeApi& rt, const std::vector<SafeLaunch>& prog) {
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPieces));
  {
    Accessor<double> acc(forest, region, fv, Privilege::kWrite);
    for (int64_t i = 0; i < kElements; ++i)
      acc.write(Point::p1(i), static_cast<double>(i % 7));
  }
  const TaskFnId w = rt.register_task("w", fuzz_write_body());
  const TaskFnId rw = rt.register_task("rw", fuzz_rw_body());
  const TaskFnId red = rt.register_task("red", fuzz_reduce_body());
  issue_safe_program(prog, region, blocks, fv, w, rw, red,
                     [&](const IndexLauncher& l) { rt.execute_index(l); });
  rt.wait_all();
  EXPECT_TRUE(rt.fault_report().ok());
  auto acc = rt.read_region<double>(region, fv);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

std::vector<double> run_safe_single(const std::vector<SafeLaunch>& prog) {
  Runtime rt;
  return run_safe(rt, prog);
}

std::vector<double> run_safe_dist(const std::vector<SafeLaunch>& prog,
                                  uint32_t ranks, bool delta) {
  dist::DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.delta_transfers = delta;
  dist::DistributedRuntime rt(dc);
  return run_safe(rt, prog);
}

class CrossRuntimeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossRuntimeFuzz, DistMatchesSingleRuntime) {
  for (uint64_t trial = 0; trial < 5; ++trial) {
    const auto prog = random_safe_program(GetParam() * 104729 + trial);
    const auto baseline = run_safe_single(prog);
    for (const uint32_t ranks : {1u, 3u, 4u})
      for (const bool delta : {true, false})
        EXPECT_EQ(run_safe_dist(prog, ranks, delta), baseline)
            << ranks << " ranks, " << (delta ? "delta" : "star-hub") << ", trial "
            << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossRuntimeFuzz, ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Differential oracle for the extended static classifier: random symbolic
// functors over random dense domains, checked against exhaustive evaluation.
// The abstract interpreter must never contradict the ground truth —
//
//   kYes ⇒ the exhaustive dynamic check finds no collision, and
//   kNo  ⇒ the reported witness pair actually collides (re-evaluated here).
//
// kUnknown is always permitted; the property under test is soundness.
// ---------------------------------------------------------------------------

ExprPtr random_expr(Rng& rng, int dim, int depth) {
  if (depth == 0 || rng.next_below(3) == 0) {
    return rng.next_below(2) == 0
               ? make_const(rng.next_in(-6, 6))
               : make_coord(static_cast<int>(rng.next_below(static_cast<uint64_t>(dim))));
  }
  switch (rng.next_below(7)) {
    case 0: return make_add(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1));
    case 1: return make_sub(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1));
    case 2: return make_mul(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1));
    case 3: return make_neg(random_expr(rng, dim, depth - 1));
    case 4: return make_div(random_expr(rng, dim, depth - 1), make_const(rng.next_in(1, 6)));
    default: return make_mod(random_expr(rng, dim, depth - 1), make_const(rng.next_in(1, 8)));
  }
}

class StaticOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaticOracleFuzz, ExtendedStaticNeverContradictsExhaustiveCheck) {
  Rng rng(GetParam() * 6151);
  int definite = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int dim = static_cast<int>(rng.next_in(1, 2));
    const int out_dim = static_cast<int>(rng.next_in(1, 2));
    std::vector<ExprPtr> exprs;
    for (int c = 0; c < out_dim; ++c) exprs.push_back(random_expr(rng, dim, 3));
    const ProjectionFunctor f = ProjectionFunctor::symbolic(std::move(exprs));

    Domain domain = dim == 1
        ? Domain::line(rng.next_in(1, 24))
        : Domain(Rect::box2(rng.next_in(1, 6), rng.next_in(1, 6)));
    if (rng.next_below(4) == 0) {
      // Shifted boxes exercise negative coordinates and mixed-sign ranges.
      const int64_t shift = rng.next_in(-8, 8);
      const Rect b = domain.bounds();
      Point lo = b.lo, hi = b.hi;
      for (int d = 0; d < b.dim(); ++d) {
        lo[d] += shift;
        hi[d] += shift;
      }
      domain = Domain(Rect(lo, hi));
    }

    // Exhaustive ground truth (no color-space clipping: the static verdict
    // speaks about functor collisions over the whole domain).
    std::unordered_set<std::string> seen;
    bool truth = true;
    domain.for_each([&](const Point& p) {
      if (truth && !seen.insert(f(p).to_string()).second) truth = false;
    });

    RaceWitness w;
    const Tri verdict = static_injectivity(f, domain, /*extended=*/true, &w);
    if (verdict == Tri::kYes) {
      EXPECT_TRUE(truth) << "unsound kYes for " << f.to_string() << " over "
                         << domain.to_string();
      ++definite;
    } else if (verdict == Tri::kNo) {
      EXPECT_FALSE(truth) << "kNo for injective " << f.to_string();
      EXPECT_TRUE(witness_valid(f, domain, w))
          << "bogus witness for " << f.to_string() << " over " << domain.to_string()
          << ": " << w.to_string();
      ++definite;
    }
  }
  // The classifier must actually decide a healthy share of random functors,
  // or the soundness assertions above would be vacuous.
  EXPECT_GT(definite, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticOracleFuzz, ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Differential oracle for the inter-launch pair analysis
// (analysis/interference.hpp): random launch-argument pairs, checked against
// exhaustive cross-evaluation of both functors. Soundness properties:
//
//   kDisjoint   ⇒ a certificate is present, the independent checker accepts
//                 it against the live sides, and the fact it claims is true
//                 (for image separation: no colliding point pair exists).
//   kInterferes ⇒ the witness re-validates, and the pair genuinely races
//                 (shared fields, shared collection, at least one writer,
//                 and the functors really collide at the witness points).
//
// kUnknown is always permitted; it only costs the dynamic walk.
// ---------------------------------------------------------------------------

LaunchArgSummary random_pair_summary(Rng& rng, int out_dim) {
  LaunchArgSummary s;
  std::vector<ExprPtr> exprs;
  for (int c = 0; c < out_dim; ++c) exprs.push_back(random_expr(rng, /*dim=*/1, 2));
  s.functor = ProjectionFunctor::symbolic(std::move(exprs));
  s.domain = Domain::line(rng.next_in(1, 12));
  s.color_space = Rect::line(8);
  s.partition_uid = 7;  // both sides share the partition unless flipped below
  s.partition_disjoint = rng.next_below(4) != 0;
  s.collection_uid = static_cast<uint32_t>(1 + rng.next_below(2));
  s.field_mask = static_cast<uint64_t>(rng.next_in(1, 3));
  switch (rng.next_below(4)) {
    case 0: s.priv = Privilege::kRead; break;
    case 1: s.priv = Privilege::kWrite; break;
    case 2: s.priv = Privilege::kReadWrite; break;
    default:
      s.priv = Privilege::kReduce;
      s.redop = ReductionOp::kSum;
      break;
  }
  return s;
}

bool images_collide(const LaunchArgSummary& a, const LaunchArgSummary& b) {
  bool collide = false;
  a.domain.for_each([&](const Point& pa) {
    if (collide) return;
    const Point ca = a.functor(pa);
    b.domain.for_each([&](const Point& pb) {
      if (!collide && ca == b.functor(pb)) collide = true;
    });
  });
  return collide;
}

class PairOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairOracleFuzz, PairVerdictsNeverContradictExhaustiveCheck) {
  Rng rng(GetParam() * 9973);
  int disjoint = 0, interferes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int out_dim = rng.next_below(4) == 0 ? 2 : 1;
    const int out_dim_b = rng.next_below(8) == 0 ? 3 - out_dim : out_dim;
    LaunchArgSummary a = random_pair_summary(rng, out_dim);
    LaunchArgSummary b = random_pair_summary(rng, out_dim_b);

    const InterferenceResult r = analyze_interference(a, b);
    if (r.verdict == PairVerdict::kDisjoint) {
      ++disjoint;
      ASSERT_TRUE(r.certificate.has_value()) << "uncertified kDisjoint: " << r.reason;
      std::string why;
      EXPECT_TRUE(CertificateChecker::validate(*r.certificate, a.side(), b.side(), &why))
          << "checker rejected the analyzer's own certificate: " << why;
      switch (r.certificate->kind) {
        case CertKind::kFieldsDisjoint:
          EXPECT_EQ(a.field_mask & b.field_mask, uint64_t{0}) << r.reason;
          break;
        case CertKind::kDistinctCollections:
          EXPECT_NE(a.collection_uid, b.collection_uid) << r.reason;
          break;
        case CertKind::kReadOnly:
          EXPECT_FALSE(a.writes() || b.writes()) << r.reason;
          break;
        case CertKind::kImageSeparation:
          EXPECT_FALSE(images_collide(a, b))
              << "unsound image separation for " << a.functor.to_string() << " vs "
              << b.functor.to_string() << ": " << r.reason;
          break;
      }
    } else if (r.verdict == PairVerdict::kInterferes) {
      ++interferes;
      ASSERT_TRUE(r.witness.has_value()) << "unwitnessed kInterferes: " << r.reason;
      EXPECT_TRUE(pair_witness_valid(a.functor, a.domain, b.functor, b.domain,
                                     *r.witness))
          << "bogus pair witness: " << r.witness->to_string();
      EXPECT_NE(a.field_mask & b.field_mask, uint64_t{0});
      EXPECT_EQ(a.collection_uid, b.collection_uid);
      EXPECT_TRUE(a.writes() || b.writes());
      EXPECT_TRUE(images_collide(a, b));
    }
  }
  // The analyzer must decide a healthy share of random pairs, or the
  // soundness assertions above would be vacuous.
  EXPECT_GT(disjoint, 50);
  EXPECT_GT(interferes, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairOracleFuzz, ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Certificate wire-format fuzz: every certificate the analyzer emits must
// survive an encode/decode round trip bit-exactly and still satisfy the
// checker, and *any* single-bit corruption of the encoded form must fail
// decode (the FNV-1a checksum turns transit corruption into a clean
// reject). The same holds one level up for certificate bundles: a flipped
// bit either breaks the framing outright or corrupts an entry whose
// certificate blob then refuses to decode — corruption is never silent.
// ---------------------------------------------------------------------------

class CertificateFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CertificateFuzz, RoundTripsSurviveAndBitFlipsAreRejected) {
  Rng rng(GetParam() * 7561);
  int certs = 0;
  std::vector<std::pair<std::string, std::vector<std::byte>>> entries;
  std::unordered_set<std::string> keys;
  for (int trial = 0; trial < 300; ++trial) {
    const int out_dim = rng.next_below(4) == 0 ? 2 : 1;
    LaunchArgSummary a = random_pair_summary(rng, out_dim);
    LaunchArgSummary b = random_pair_summary(rng, out_dim);
    const InterferenceResult r = analyze_interference(a, b);
    if (r.verdict != PairVerdict::kDisjoint) continue;
    ++certs;

    const std::vector<std::byte> bytes = encode_certificate(*r.certificate);
    const auto decoded = decode_certificate(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.has_value()) << "round trip failed";
    EXPECT_EQ(encode_certificate(*decoded), bytes) << "re-encode not canonical";
    EXPECT_TRUE(CertificateChecker::validate(*decoded, a.side(), b.side()))
        << "decoded certificate no longer validates";

    for (int flip = 0; flip < 16; ++flip) {
      std::vector<std::byte> bad = bytes;
      const std::size_t i = rng.next_below(bad.size());
      bad[i] ^= std::byte{static_cast<unsigned char>(1u << rng.next_below(8))};
      EXPECT_FALSE(decode_certificate(bad.data(), bad.size()).has_value())
          << "bit flip at byte " << i << " survived decode";
    }
    EXPECT_FALSE(decode_certificate(bytes.data(), bytes.size() - 1).has_value())
        << "truncation survived decode";

    const auto key = interference_key(a, b);
    if (key && keys.insert(*key).second) entries.emplace_back(*key, bytes);
  }
  ASSERT_GT(certs, 20) << "too few certificates generated to exercise the format";

  // Bundle framing round trip (entries come back sorted by key)...
  const std::vector<std::byte> bundle = encode_interference_bundle(entries);
  const auto dec = decode_interference_bundle(bundle.data(), bundle.size());
  ASSERT_TRUE(dec.has_value());
  std::sort(entries.begin(), entries.end());
  EXPECT_EQ(*dec, entries);

  // ...and corruption: a flip may land in the header/lengths (framing
  // reject), a key (entry mismatch), or a certificate blob (which must then
  // fail decode_certificate). It must never decode back to the original.
  for (int flip = 0; flip < 64; ++flip) {
    std::vector<std::byte> bad = bundle;
    const std::size_t i = rng.next_below(bad.size());
    bad[i] ^= std::byte{static_cast<unsigned char>(1u << rng.next_below(8))};
    const auto d2 = decode_interference_bundle(bad.data(), bad.size());
    if (!d2) continue;
    EXPECT_NE(*d2, entries) << "bit flip at byte " << i << " vanished";
    if (d2->size() != entries.size()) continue;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      const auto& cert_bytes = (*d2)[e].second;
      if (cert_bytes != entries[e].second) {
        EXPECT_FALSE(
            decode_certificate(cert_bytes.data(), cert_bytes.size()).has_value())
            << "corrupted certificate blob in entry " << e << " still decodes";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertificateFuzz, ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace idxl
