// Hostile index-launch descriptors for the decoder regression tests: the
// exact shapes that once crashed deserialize_launcher. Each starts from a
// valid encoding and changes one field, so only the targeted check can
// reject it.
#pragma once

#include <algorithm>
#include <cstdint>
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

}  // namespace idxl::hostile
