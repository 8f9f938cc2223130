#include "runtime/serialize.hpp"

#include <cstring>

namespace idxl {

void Serializer::put_u32(uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<uint8_t>(v >> (8 * i)));
}

void Serializer::put_i64(int64_t v) {
  const auto u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) put_u8(static_cast<uint8_t>(u >> (8 * i)));
}

void Serializer::put_f64(double v) {
  uint64_t u;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  put_u64(u);
}

void Serializer::put_point(const Point& p) {
  put_u8(static_cast<uint8_t>(p.dim));
  for (int d = 0; d < p.dim; ++d) put_i64(p[d]);
}

void Serializer::put_blob(const std::vector<std::byte>& blob) {
  put_u32(static_cast<uint32_t>(blob.size()));
  bytes_.insert(bytes_.end(), blob.begin(), blob.end());
}

void Serializer::put_string(const std::string& s) {
  put_u32(static_cast<uint32_t>(s.size()));
  for (char c : s) put_u8(static_cast<uint8_t>(c));
}

void Serializer::put_header() {
  put_u32(kWireMagic);
  put_u8(kWireVersion);
}

uint8_t Deserializer::get_u8() {
  IDXL_REQUIRE(cursor_ < bytes_->size(), "truncated launch descriptor");
  return static_cast<uint8_t>((*bytes_)[cursor_++]);
}

uint32_t Deserializer::get_u32() {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(get_u8()) << (8 * i);
  return v;
}

int64_t Deserializer::get_i64() {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(get_u8()) << (8 * i);
  return static_cast<int64_t>(v);
}

double Deserializer::get_f64() {
  const uint64_t u = get_u64();
  double v;
  std::memcpy(&v, &u, sizeof(v));
  return v;
}

Point Deserializer::get_point() {
  Point p;
  p.dim = get_u8();
  IDXL_REQUIRE(p.dim >= 1 && p.dim <= kMaxDim, "corrupt point in descriptor");
  for (int d = 0; d < p.dim; ++d) p[d] = get_i64();
  return p;
}

std::vector<std::byte> Deserializer::get_blob() {
  const uint32_t n = get_u32();
  IDXL_REQUIRE(cursor_ + n <= bytes_->size(), "truncated launch descriptor");
  std::vector<std::byte> blob(bytes_->begin() + static_cast<std::ptrdiff_t>(cursor_),
                              bytes_->begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
  cursor_ += n;
  return blob;
}

std::string Deserializer::get_string() {
  const uint32_t n = get_u32();
  IDXL_REQUIRE(cursor_ + n <= bytes_->size(), "truncated launch descriptor");
  std::string s(reinterpret_cast<const char*>(bytes_->data()) + cursor_, n);
  cursor_ += n;
  return s;
}

void Deserializer::check_header(const char* what) {
  IDXL_REQUIRE(get_u32() == kWireMagic,
               std::string(what) + ": bad magic (not an idxl descriptor)");
  const uint8_t version = get_u8();
  IDXL_REQUIRE(version == kWireVersion,
               std::string(what) + ": wire version " + std::to_string(version) +
                   " != expected " + std::to_string(kWireVersion));
}

namespace {

void serialize_expr_at(Serializer& s, const Expr& e, int depth) {
  IDXL_REQUIRE(depth <= kMaxExprDepth, "projection expression nested too deeply to serialize");
  s.put_u8(static_cast<uint8_t>(e.kind));
  switch (e.kind) {
    case ExprKind::kConst:
    case ExprKind::kCoord:
      s.put_i64(e.value);
      return;
    case ExprKind::kNeg:
      serialize_expr_at(s, *e.lhs, depth + 1);
      return;
    default:
      serialize_expr_at(s, *e.lhs, depth + 1);
      serialize_expr_at(s, *e.rhs, depth + 1);
      return;
  }
}

ExprPtr deserialize_expr_at(Deserializer& d, int depth) {
  IDXL_REQUIRE(depth <= kMaxExprDepth, "projection expression in descriptor nested too deeply");
  const auto kind = static_cast<ExprKind>(d.get_u8());
  const auto operand = [&] { return deserialize_expr_at(d, depth + 1); };
  switch (kind) {
    case ExprKind::kConst: return make_const(d.get_i64());
    case ExprKind::kCoord: return make_coord(static_cast<int>(d.get_i64()));
    case ExprKind::kNeg: return make_neg(operand());
    case ExprKind::kAdd: {
      auto l = operand();
      return make_add(std::move(l), operand());
    }
    case ExprKind::kSub: {
      auto l = operand();
      return make_sub(std::move(l), operand());
    }
    case ExprKind::kMul: {
      auto l = operand();
      return make_mul(std::move(l), operand());
    }
    case ExprKind::kDiv: {
      auto l = operand();
      return make_div(std::move(l), operand());
    }
    case ExprKind::kMod: {
      auto l = operand();
      return make_mod(std::move(l), operand());
    }
  }
  throw RuntimeError("idxl: corrupt expression in launch descriptor");
}

}  // namespace

void serialize_expr(Serializer& s, const Expr& e) { serialize_expr_at(s, e, 1); }

ExprPtr deserialize_expr(Deserializer& d) { return deserialize_expr_at(d, 1); }

void serialize_domain(Serializer& s, const Domain& domain) {
  s.put_u8(domain.dense() ? 1 : 0);
  if (domain.dense()) {
    // Dense: bounds only — the O(1) encoding, independent of volume.
    s.put_point(domain.bounds().lo);
    s.put_point(domain.bounds().hi);
    return;
  }
  s.put_i64(domain.volume());
  domain.for_each([&s](const Point& p) { s.put_point(p); });
}

Domain deserialize_domain(Deserializer& d) {
  if (d.get_u8() != 0) {
    const Point lo = d.get_point();
    const Point hi = d.get_point();
    return Domain(Rect(lo, hi));
  }
  const int64_t n = d.get_i64();
  // Each point takes at least a dimension byte and one coordinate, so a
  // count the remaining bytes cannot hold is corrupt; checked before the
  // reserve so a hostile count cannot allocate.
  constexpr int64_t kMinPointBytes = 1 + 8;
  IDXL_REQUIRE(n >= 0 && n <= static_cast<int64_t>(d.remaining()) / kMinPointBytes,
               "corrupt sparse-domain point count in descriptor");
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) pts.push_back(d.get_point());
  return Domain::from_points(std::move(pts));
}

std::vector<std::byte> serialize_launcher(const IndexLauncher& launcher) {
  Serializer s;
  s.put_header();
  s.put_u32(launcher.task);
  serialize_domain(s, launcher.domain);
  s.put_u8(launcher.assume_verified ? 1 : 0);
  s.put_u8(static_cast<uint8_t>(launcher.result_redop));
  // Retry policy is part of the descriptor: every rank of a distributed run
  // must apply the same failure semantics to the points it owns.
  s.put_u32(launcher.max_retries);
  s.put_u32(launcher.retry_backoff_ms);
  s.put_u32(launcher.timeout_ms);
  s.put_u32(static_cast<uint32_t>(launcher.args.size()));
  for (const ProjectedArg& arg : launcher.args) {
    IDXL_REQUIRE(arg.functor.is_symbolic(),
                 "opaque projection functors are not serializable");
    s.put_u32(arg.parent.id);
    s.put_u32(arg.partition.id);
    s.put_u8(static_cast<uint8_t>(arg.privilege));
    s.put_u8(static_cast<uint8_t>(arg.redop));
    s.put_u32(static_cast<uint32_t>(arg.functor.exprs().size()));
    for (const ExprPtr& e : arg.functor.exprs()) serialize_expr(s, *e);
    s.put_u32(static_cast<uint32_t>(arg.fields.size()));
    for (FieldId f : arg.fields) s.put_u32(f);
  }
  s.put_blob(launcher.scalar_args.raw());
  // v2: the analysis payload (interference-certificate bundle) rides the
  // descriptor so workers validate pair proofs instead of re-deriving them.
  s.put_blob(launcher.analysis_bundle);
  // v4: trace context — origin rank + the launch id the driver assigned.
  s.put_u32(launcher.trace_ctx.origin);
  s.put_u64(launcher.trace_ctx.launch);
  s.put_u64(launcher.trace_ctx.span);
  return s.take();
}

IndexLauncher deserialize_launcher(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("index-launch descriptor");
  IndexLauncher launcher;
  launcher.task = d.get_u32();
  launcher.domain = deserialize_domain(d);
  launcher.assume_verified = d.get_u8() != 0;
  launcher.result_redop = d.get_enum(ReductionOp::kMax, "reduction op");
  launcher.max_retries = d.get_u32();
  launcher.retry_backoff_ms = d.get_u32();
  launcher.timeout_ms = d.get_u32();
  const uint32_t nargs = d.get_u32();
  for (uint32_t a = 0; a < nargs; ++a) {
    ProjectedArg arg;
    arg.parent = RegionId{d.get_u32()};
    arg.partition = PartitionId{d.get_u32()};
    arg.privilege = d.get_enum(Privilege::kReduce, "privilege");
    arg.redop = d.get_enum(ReductionOp::kMax, "reduction op");
    const uint32_t nexprs = d.get_u32();
    std::vector<ExprPtr> exprs;
    exprs.reserve(nexprs);
    for (uint32_t e = 0; e < nexprs; ++e) exprs.push_back(deserialize_expr(d));
    arg.functor = ProjectionFunctor::symbolic(std::move(exprs));
    const uint32_t nfields = d.get_u32();
    for (uint32_t f = 0; f < nfields; ++f) arg.fields.push_back(d.get_u32());
    launcher.args.push_back(std::move(arg));
  }
  launcher.scalar_args = ArgBuffer::from_bytes(d.get_blob());
  launcher.analysis_bundle = d.get_blob();
  launcher.trace_ctx.origin = d.get_u32();
  launcher.trace_ctx.launch = d.get_u64();
  launcher.trace_ctx.span = d.get_u64();
  IDXL_REQUIRE(d.done(), "trailing bytes in launch descriptor");
  return launcher;
}

std::vector<std::byte> serialize_task_launcher(const TaskLauncher& launcher) {
  Serializer s;
  s.put_header();
  s.put_u32(launcher.task);
  s.put_point(launcher.point);
  serialize_domain(s, launcher.launch_domain);
  s.put_u8(static_cast<uint8_t>(launcher.result_redop));
  s.put_u32(launcher.max_retries);
  s.put_u32(launcher.retry_backoff_ms);
  s.put_u32(launcher.timeout_ms);
  s.put_u32(static_cast<uint32_t>(launcher.args.size()));
  for (const RegionArg& arg : launcher.args) {
    s.put_u32(arg.region.id);
    s.put_u8(static_cast<uint8_t>(arg.privilege));
    s.put_u8(static_cast<uint8_t>(arg.redop));
    s.put_u32(static_cast<uint32_t>(arg.fields.size()));
    for (FieldId f : arg.fields) s.put_u32(f);
  }
  s.put_blob(launcher.scalar_args.raw());
  // v4: trace context — origin rank + the launch id the driver assigned.
  s.put_u32(launcher.trace_ctx.origin);
  s.put_u64(launcher.trace_ctx.launch);
  s.put_u64(launcher.trace_ctx.span);
  return s.take();
}

TaskLauncher deserialize_task_launcher(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("task-launch descriptor");
  TaskLauncher launcher;
  launcher.task = d.get_u32();
  launcher.point = d.get_point();
  launcher.launch_domain = deserialize_domain(d);
  launcher.result_redop = d.get_enum(ReductionOp::kMax, "reduction op");
  launcher.max_retries = d.get_u32();
  launcher.retry_backoff_ms = d.get_u32();
  launcher.timeout_ms = d.get_u32();
  const uint32_t nargs = d.get_u32();
  for (uint32_t a = 0; a < nargs; ++a) {
    RegionArg arg;
    arg.region = RegionId{d.get_u32()};
    arg.privilege = d.get_enum(Privilege::kReduce, "privilege");
    arg.redop = d.get_enum(ReductionOp::kMax, "reduction op");
    const uint32_t nfields = d.get_u32();
    for (uint32_t f = 0; f < nfields; ++f) arg.fields.push_back(d.get_u32());
    launcher.args.push_back(std::move(arg));
  }
  launcher.scalar_args = ArgBuffer::from_bytes(d.get_blob());
  launcher.trace_ctx.origin = d.get_u32();
  launcher.trace_ctx.launch = d.get_u64();
  launcher.trace_ctx.span = d.get_u64();
  IDXL_REQUIRE(d.done(), "trailing bytes in launch descriptor");
  return launcher;
}

void serialize_fault(Serializer& s, const TaskFault& fault) {
  s.put_u64(fault.seq);
  s.put_u64(fault.launch);
  s.put_point(fault.point);
  s.put_u32(fault.attempts);
  s.put_u8(static_cast<uint8_t>(fault.kind));
  s.put_u64(fault.root);
  s.put_string(fault.message);
}

TaskFault deserialize_fault(Deserializer& d) {
  TaskFault fault;
  fault.seq = d.get_u64();
  fault.launch = d.get_u64();
  fault.point = d.get_point();
  fault.attempts = d.get_u32();
  fault.kind = d.get_enum(FaultKind::kPoisoned, "fault kind");
  fault.root = d.get_u64();
  fault.message = d.get_string();
  return fault;
}

std::vector<std::byte> serialize_fault_report(const FaultReport& report) {
  Serializer s;
  s.put_header();
  s.put_u32(static_cast<uint32_t>(report.failures.size()));
  for (const TaskFault& f : report.failures) serialize_fault(s, f);
  s.put_u32(static_cast<uint32_t>(report.poisoned.size()));
  for (const TaskFault& f : report.poisoned) serialize_fault(s, f);
  return s.take();
}

FaultReport deserialize_fault_report(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("fault report");
  FaultReport report;
  const uint32_t nfail = d.get_u32();
  for (uint32_t i = 0; i < nfail; ++i) report.failures.push_back(deserialize_fault(d));
  const uint32_t npoison = d.get_u32();
  for (uint32_t i = 0; i < npoison; ++i) report.poisoned.push_back(deserialize_fault(d));
  IDXL_REQUIRE(d.done(), "trailing bytes in fault report");
  return report;
}

}  // namespace idxl
