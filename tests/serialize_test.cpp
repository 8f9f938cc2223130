#include <gtest/gtest.h>

#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "runtime/serialize.hpp"
#include "support/rng.hpp"
#include "hostile_descriptors.hpp"

namespace idxl {
namespace {

IndexLauncher sample_launcher(int64_t domain_size) {
  IndexLauncher launcher;
  launcher.task = 7;
  launcher.domain = Domain::line(domain_size);
  launcher.scalar_args = ArgBuffer::of(int64_t{42});
  ProjectedArg arg;
  arg.parent = RegionId{3};
  arg.partition = PartitionId{5};
  arg.functor = ProjectionFunctor::modular1d(2, domain_size);
  arg.fields = {0, 2};
  arg.privilege = Privilege::kWrite;
  launcher.args = {arg};
  return launcher;
}

TEST(SerializeTest, DescriptorSizeIndependentOfDomainVolume) {
  // The paper's O(1) representation claim, directly: the encoded size of a
  // dense-domain index launch does not grow with the number of tasks.
  const auto small = serialize_launcher(sample_launcher(8));
  const auto large = serialize_launcher(sample_launcher(1'000'000));
  EXPECT_EQ(small.size(), large.size());
  EXPECT_LT(large.size(), 256u);  // a fraction of the simulator's slice size
}

TEST(SerializeTest, SparseDomainsEncodeTheirPoints) {
  IndexLauncher launcher = sample_launcher(8);
  std::vector<Point> wave;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      if (x + y == 3) wave.push_back(Point::p2(x, y));
  launcher.domain = Domain::from_points(wave);
  launcher.args[0].functor = ProjectionFunctor::symbolic({make_coord(0)});
  const auto bytes = serialize_launcher(launcher);
  const IndexLauncher back = deserialize_launcher(bytes);
  EXPECT_EQ(back.domain, launcher.domain);
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  IndexLauncher launcher = sample_launcher(64);
  launcher.assume_verified = true;
  launcher.result_redop = ReductionOp::kMax;
  ProjectedArg extra;
  extra.parent = RegionId{9};
  extra.partition = PartitionId{11};
  extra.functor = ProjectionFunctor::symbolic(
      {make_div(make_coord(0), make_const(4)),
       make_neg(make_sub(make_coord(0), make_const(2)))});
  extra.fields = {1};
  extra.privilege = Privilege::kReduce;
  extra.redop = ReductionOp::kSum;
  launcher.args.push_back(extra);

  const IndexLauncher back = deserialize_launcher(serialize_launcher(launcher));
  EXPECT_EQ(back.task, launcher.task);
  EXPECT_EQ(back.domain, launcher.domain);
  EXPECT_EQ(back.assume_verified, launcher.assume_verified);
  EXPECT_EQ(back.result_redop, launcher.result_redop);
  ASSERT_EQ(back.args.size(), launcher.args.size());
  for (std::size_t i = 0; i < back.args.size(); ++i) {
    EXPECT_EQ(back.args[i].parent.id, launcher.args[i].parent.id);
    EXPECT_EQ(back.args[i].partition.id, launcher.args[i].partition.id);
    EXPECT_EQ(back.args[i].privilege, launcher.args[i].privilege);
    EXPECT_EQ(back.args[i].redop, launcher.args[i].redop);
    EXPECT_EQ(back.args[i].fields, launcher.args[i].fields);
    EXPECT_TRUE(back.args[i].functor.definitely_equal(launcher.args[i].functor));
  }
  EXPECT_EQ(back.scalar_args.as<int64_t>(), 42);
}

TEST(SerializeTest, RoundTrippedLauncherExecutesIdentically) {
  auto run = [](bool round_trip) {
    Runtime rt;
    auto& forest = rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(24));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
    const RegionId region = forest.create_region(is, fs);
    const PartitionId blocks = partition_equal(forest, is, Rect::line(6));
    const TaskFnId stamp = rt.register_task("stamp", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each(
          [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
    });
    IndexLauncher launcher;
    launcher.task = stamp;
    launcher.domain = Domain::line(6);
    launcher.args = {{region, blocks, ProjectionFunctor::modular1d(2, 6), {fv},
                      Privilege::kWrite, ReductionOp::kNone}};
    if (round_trip) launcher = deserialize_launcher(serialize_launcher(launcher));
    rt.execute_index(launcher);
    rt.wait_all();
    std::vector<double> out;
    auto acc = rt.read_region<double>(region, fv);
    for (int64_t i = 0; i < 24; ++i) out.push_back(acc.read(Point::p1(i)));
    return out;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(SerializeTest, OpaqueFunctorRejected) {
  IndexLauncher launcher = sample_launcher(8);
  launcher.args[0].functor =
      ProjectionFunctor::opaque([](const Point& p) { return p; }, 1);
  EXPECT_THROW(serialize_launcher(launcher), RuntimeError);
}

TEST(SerializeTest, TruncatedInputThrows) {
  auto bytes = serialize_launcher(sample_launcher(8));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_launcher(bytes), RuntimeError);
}

TEST(SerializeTest, ExprRoundTripProperty) {
  Rng rng(321);
  for (int trial = 0; trial < 100; ++trial) {
    auto build = [&](auto&& self, int depth) -> ExprPtr {
      const uint64_t pick = rng.next_below(depth == 0 ? 2 : 8);
      switch (pick) {
        case 0: return make_const(rng.next_in(-100, 100));
        case 1: return make_coord(static_cast<int>(rng.next_below(3)));
        case 2: return make_add(self(self, depth - 1), self(self, depth - 1));
        case 3: return make_sub(self(self, depth - 1), self(self, depth - 1));
        case 4: return make_mul(self(self, depth - 1), self(self, depth - 1));
        case 5: return make_neg(self(self, depth - 1));
        case 6: return make_div(self(self, depth - 1), make_const(rng.next_in(1, 9)));
        default: return make_mod(self(self, depth - 1), make_const(rng.next_in(1, 9)));
      }
    };
    const ExprPtr e = build(build, 4);
    Serializer s;
    serialize_expr(s, *e);
    Deserializer d(s.bytes());
    const ExprPtr back = deserialize_expr(d);
    EXPECT_TRUE(expr_equal(*e, *back)) << e->to_string();
  }
}

TEST(SerializeTest, RejectsBadMagic) {
  // Every descriptor leads with the ⟨magic, version⟩ header; a stream that
  // does not is rejected before any field is parsed.
  auto bytes = serialize_launcher(sample_launcher(8));
  bytes[0] = std::byte{0xFF};
  EXPECT_THROW(deserialize_launcher(bytes), RuntimeError);
}

TEST(SerializeTest, RejectsVersionMismatch) {
  auto bytes = serialize_launcher(sample_launcher(8));
  bytes[4] = std::byte{kWireVersion + 1};  // version byte follows the magic
  EXPECT_THROW(deserialize_launcher(bytes), RuntimeError);
}

TEST(SerializeTest, RejectsTruncatedDescriptor) {
  auto bytes = serialize_launcher(sample_launcher(8));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(deserialize_launcher(bytes), RuntimeError);
}

// Decoder hardening: untrusted descriptor bytes end in RuntimeError, never
// in a stack overflow or an allocation failure.

ExprPtr negations(int depth) {
  ExprPtr e = make_coord(0);
  for (int i = 1; i < depth; ++i) e = make_neg(std::move(e));
  return e;
}

TEST(SerializeTest, ExprDepthCapMatchesTheSerializer) {
  Serializer ok;
  serialize_expr(ok, *negations(kMaxExprDepth));
  Deserializer d(ok.bytes());
  EXPECT_TRUE(expr_equal(*deserialize_expr(d), *negations(kMaxExprDepth)));

  Serializer deep;
  EXPECT_THROW(serialize_expr(deep, *negations(kMaxExprDepth + 1)), RuntimeError);
}

TEST(SerializeTest, NestedNegationInputThrows) {
  const std::vector<std::byte> bytes = hostile::nested_neg_launcher();
  ASSERT_GT(bytes.size(), 100'000u);
  EXPECT_THROW(deserialize_launcher(bytes), RuntimeError);
  // One level past the cap is refused too; the cap itself still decodes.
  EXPECT_THROW(deserialize_launcher(hostile::nested_neg_launcher(kMaxExprDepth)), RuntimeError);
  const IndexLauncher at_cap =
      deserialize_launcher(hostile::nested_neg_launcher(kMaxExprDepth - 1));
  EXPECT_EQ(at_cap.args.size(), 1u);
}

TEST(SerializeTest, SparsePointCountBeyondThePayloadThrows) {
  EXPECT_THROW(deserialize_launcher(hostile::sparse_count_launcher(-1)), RuntimeError);
  EXPECT_THROW(deserialize_launcher(hostile::sparse_count_launcher(int64_t{1} << 40)),
               RuntimeError);
  EXPECT_EQ(deserialize_launcher(hostile::sparse_count_launcher(2)).domain.volume(), 2);
}

TEST(SerializeTest, OutOfRangeEnumBytesThrow) {
  for (const hostile::EnumSite& site : hostile::descriptor_enum_sites()) {
    SCOPED_TRACE(site.what);
    EXPECT_NO_THROW(site.decode(site.bytes));
    for (const std::vector<std::byte>& bad : hostile::out_of_range(site)) {
      try {
        site.decode(bad);
        ADD_FAILURE() << "enum byte " << static_cast<int>(bad[site.offset]) << " decoded";
      } catch (const RuntimeError& e) {
        EXPECT_NE(std::string(e.what()).find("out-of-range"), std::string::npos) << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace idxl
