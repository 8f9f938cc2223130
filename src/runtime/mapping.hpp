#pragma once

#include <vector>

#include "region/domain.hpp"

namespace idxl {

/// One slice of an index launch in the non-DCR distribution path: a
/// sub-domain plus the contiguous node range it is destined for. Slices are
/// fixed-size descriptors (the domain inside a slice of a *dense* launch is
/// a rect), which is what makes the broadcast tree O(log |D|) in messages.
struct Slice {
  Domain domain;
  uint32_t node_lo = 0;
  uint32_t node_hi = 0;  // inclusive

  uint32_t node_count() const { return node_hi - node_lo + 1; }
};

/// Slicing functor (§5, non-DCR distribution): recursively split a slice
/// into sub-slices forwarded down a broadcast tree. Implementations must
/// partition both the domain and the node range.
class SlicingFunctor {
 public:
  virtual ~SlicingFunctor() = default;

  /// Split `slice` one level. Returning a single-element vector equal to the
  /// input stops recursion (the slice is expanded into tasks at its node).
  virtual std::vector<Slice> slice(const Slice& s) const = 0;
};

/// Default: binary split of the node range with a proportional split of the
/// (linearized) domain, yielding a balanced binary broadcast tree.
class BinarySlicingFunctor final : public SlicingFunctor {
 public:
  std::vector<Slice> slice(const Slice& s) const override;
};

}  // namespace idxl
