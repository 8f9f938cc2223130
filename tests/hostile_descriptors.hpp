// Hostile index-launch descriptors for the decoder regression tests: the
// exact shapes that once crashed deserialize_launcher. Each starts from a
// valid encoding and changes one field, so only the targeted check can
// reject it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/serialize.hpp"
#include "support/error.hpp"

namespace idxl::hostile {

inline constexpr int64_t kMarker = 0x1122334455667788;

/// A valid one-argument launcher whose projection is the constant kMarker.
inline IndexLauncher marker_launcher(Domain domain) {
  IndexLauncher l;
  l.domain = std::move(domain);
  ProjectedArg arg;
  arg.functor = ProjectionFunctor::symbolic({make_const(kMarker)});
  arg.fields = {0};
  arg.privilege = Privilege::kRead;
  l.args = {arg};
  return l;
}

/// ~100 KB of nested kNeg around one constant, in place of the projection
/// expression. A decoder without a depth bound recurses once per byte.
inline std::vector<std::byte> nested_neg_launcher(std::size_t depth = 100'000) {
  const std::vector<std::byte> bytes = serialize_launcher(marker_launcher(Domain::line(4)));
  Serializer leaf;
  serialize_expr(leaf, *make_const(kMarker));
  const auto at = std::search(bytes.begin(), bytes.end(), leaf.bytes().begin(), leaf.bytes().end());
  IDXL_ASSERT(at != bytes.end());
  std::vector<std::byte> out(bytes.begin(), at);
  out.insert(out.end(), depth, static_cast<std::byte>(ExprKind::kNeg));
  out.insert(out.end(), at, bytes.end());
  return out;
}

/// A sparse launch domain whose point count reads `count` (-1: all ones).
inline std::vector<std::byte> sparse_count_launcher(int64_t count = -1) {
  std::vector<std::byte> bytes =
      serialize_launcher(marker_launcher(Domain::from_points({Point::p1(0), Point::p1(2)})));
  // Header (5) and task id (4), then the domain: a dense flag and the count.
  constexpr std::size_t kFlag = 9;
  IDXL_ASSERT(bytes[kFlag] == std::byte{0});
  for (std::size_t i = 0; i < 8; ++i)
    bytes[kFlag + 1 + i] = static_cast<std::byte>(static_cast<uint64_t>(count) >> (8 * i));
  return bytes;
}

/// One enum byte inside a valid encoding. Decoders must reject `first_bad`
/// (one past the enum's last member) and every larger byte there.
struct EnumSite {
  std::string what;
  std::vector<std::byte> bytes;
  std::size_t offset = 0;
  uint8_t first_bad = 0;
  std::function<void(const std::vector<std::byte>&)> decode;
};

template <typename E>
uint8_t past(E last) {
  return static_cast<uint8_t>(static_cast<uint8_t>(last) + 1);
}

/// The site is the one byte where two valid encodings, differing only in
/// the enum value, disagree.
inline EnumSite enum_site(std::string what, std::vector<std::byte> bytes,
                          const std::vector<std::byte>& other, uint8_t first_bad,
                          std::function<void(const std::vector<std::byte>&)> decode) {
  IDXL_ASSERT(bytes.size() == other.size());
  const auto diff = std::mismatch(bytes.begin(), bytes.end(), other.begin());
  IDXL_ASSERT(diff.first != bytes.end());
  IDXL_ASSERT(std::equal(diff.first + 1, bytes.end(), diff.second + 1));
  const auto offset = static_cast<std::size_t>(diff.first - bytes.begin());
  return EnumSite{std::move(what), std::move(bytes), offset, first_bad, std::move(decode)};
}

/// The site's encoding with its enum byte set to first_bad, then to 0xFF.
inline std::vector<std::vector<std::byte>> out_of_range(const EnumSite& site) {
  std::vector<std::vector<std::byte>> out;
  for (const uint8_t v : {site.first_bad, uint8_t{0xFF}}) {
    out.push_back(site.bytes);
    out.back()[site.offset] = static_cast<std::byte>(v);
  }
  return out;
}

/// Every enum byte of the launch-descriptor and fault-report decoders.
inline std::vector<EnumSite> descriptor_enum_sites() {
  const auto index = [](const std::vector<std::byte>& b) { (void)deserialize_launcher(b); };
  const IndexLauncher read = marker_launcher(Domain::line(4));
  IndexLauncher write = read;
  write.args[0].privilege = Privilege::kWrite;
  IndexLauncher sum = read;
  sum.args[0].privilege = Privilege::kReduce;
  sum.args[0].redop = ReductionOp::kSum;
  IndexLauncher max = sum;
  max.args[0].redop = ReductionOp::kMax;
  IndexLauncher collect = read;
  collect.result_redop = ReductionOp::kSum;

  const auto single = [](const std::vector<std::byte>& b) {
    (void)deserialize_task_launcher(b);
  };
  TaskLauncher single_read;
  single_read.args = {RegionArg{RegionId{0}, {0}, Privilege::kRead, ReductionOp::kNone}};
  TaskLauncher single_write = single_read;
  single_write.args[0].privilege = Privilege::kWrite;

  const auto report = [](const std::vector<std::byte>& b) {
    (void)deserialize_fault_report(b);
  };
  FaultReport injected;
  TaskFault fault;
  fault.kind = FaultKind::kInjected;
  fault.attempts = 1;
  injected.failures = {fault};
  FaultReport explicit_fail = injected;
  explicit_fail.failures[0].kind = FaultKind::kExplicit;

  return {
      enum_site("launch privilege", serialize_launcher(read), serialize_launcher(write),
                past(Privilege::kReduce), index),
      enum_site("launch reduction op", serialize_launcher(sum), serialize_launcher(max),
                past(ReductionOp::kMax), index),
      enum_site("launch result op", serialize_launcher(read), serialize_launcher(collect),
                past(ReductionOp::kMax), index),
      enum_site("task-launch privilege", serialize_task_launcher(single_read),
                serialize_task_launcher(single_write), past(Privilege::kReduce), single),
      enum_site("fault kind", serialize_fault_report(injected),
                serialize_fault_report(explicit_fail), past(FaultKind::kPoisoned), report),
  };
}

}  // namespace idxl::hostile
