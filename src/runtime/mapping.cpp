#include "runtime/mapping.hpp"

#include <algorithm>

namespace idxl {

std::vector<Slice> BinarySlicingFunctor::slice(const Slice& s) const {
  if (s.node_count() <= 1 || s.domain.volume() <= 1) return {s};

  const uint32_t mid_nodes = s.node_lo + s.node_count() / 2;  // first node of right half
  Slice left, right;
  left.node_lo = s.node_lo;
  left.node_hi = mid_nodes - 1;
  right.node_lo = mid_nodes;
  right.node_hi = s.node_hi;

  if (s.domain.dense()) {
    // Split along the longest axis, proportionally to the node split so the
    // tree stays balanced for non-power-of-two node counts.
    const Rect& b = s.domain.bounds();
    int axis = 0;
    int64_t best = -1;
    for (int d = 0; d < b.dim(); ++d) {
      const int64_t extent = b.hi[d] - b.lo[d] + 1;
      if (extent > best) {
        best = extent;
        axis = d;
      }
    }
    const int64_t extent = b.hi[axis] - b.lo[axis] + 1;
    int64_t left_len = extent * (mid_nodes - s.node_lo) / s.node_count();
    left_len = std::clamp<int64_t>(left_len, 1, extent - 1);
    Rect lb = b, rb = b;
    lb.hi[axis] = b.lo[axis] + left_len - 1;
    rb.lo[axis] = b.lo[axis] + left_len;
    left.domain = Domain(lb);
    right.domain = Domain(rb);
  } else {
    auto pts = s.domain.points();
    const std::size_t cut =
        pts.size() * (mid_nodes - s.node_lo) / s.node_count();
    std::vector<Point> lp(pts.begin(), pts.begin() + static_cast<std::ptrdiff_t>(cut));
    std::vector<Point> rp(pts.begin() + static_cast<std::ptrdiff_t>(cut), pts.end());
    if (lp.empty() || rp.empty()) return {s};
    left.domain = Domain::from_points(std::move(lp));
    right.domain = Domain::from_points(std::move(rp));
  }
  return {left, right};
}

}  // namespace idxl
