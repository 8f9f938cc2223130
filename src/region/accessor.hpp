#pragma once

#include <type_traits>

#include "region/region_forest.hpp"

namespace idxl {

/// Privileges a task declares on a region argument (§2). Declared up front
/// so the dependence analysis can run *before* the task executes, and so
/// index-launch safety can be decided from the launch descriptor alone.
enum class Privilege : uint8_t {
  kRead,
  kWrite,      // write-only (write-discard)
  kReadWrite,
  kReduce,     // reduction with a commutative operator
};

inline bool privilege_writes(Privilege p) {
  return p == Privilege::kWrite || p == Privilege::kReadWrite ||
         p == Privilege::kReduce;
}
inline bool privilege_reads(Privilege p) {
  return p == Privilege::kRead || p == Privilege::kReadWrite;
}

inline const char* privilege_name(Privilege p) {
  switch (p) {
    case Privilege::kRead: return "read";
    case Privilege::kWrite: return "write";
    case Privilege::kReadWrite: return "read-write";
    case Privilege::kReduce: return "reduce";
  }
  return "?";
}

/// Built-in commutative reduction operators.
enum class ReductionOp : uint8_t { kNone, kSum, kProd, kMin, kMax };

template <typename T>
T apply_reduction(ReductionOp op, T lhs, T rhs) {
  switch (op) {
    case ReductionOp::kSum: return lhs + rhs;
    case ReductionOp::kProd: return lhs * rhs;
    case ReductionOp::kMin: return rhs < lhs ? rhs : lhs;
    case ReductionOp::kMax: return lhs < rhs ? rhs : lhs;
    case ReductionOp::kNone: break;
  }
  IDXL_ASSERT_MSG(false, "apply_reduction with kNone");
  return lhs;
}

/// Checked view of `n` consecutive elements along the last (fastest-varying)
/// dimension, returned by Accessor::read_row / rw_row. The accessor checked
/// the privilege and both ends of the run against the privilege domain and
/// the storage when it made the view; each index access is then one
/// unsigned compare against the row length. `Elem` is `const T` for a read
/// row and `T` for a read-write row.
template <typename Elem>
class RowView {
 public:
  std::size_t size() const { return n_; }

  Elem& operator[](std::size_t i) const {
    IDXL_ASSERT_MSG(i < n_, "row index past the row end");
    return data_[i];
  }

 private:
  template <typename>
  friend class Accessor;
  RowView(Elem* data, std::size_t n) : data_(data), n_(n) {}

  Elem* data_;
  std::size_t n_;
};

template <typename T>
using ReadRow = RowView<const T>;
template <typename T>
using RwRow = RowView<T>;

/// Write-only counterpart of RowView, returned by Accessor::write_row: a
/// write-discard argument may be written but never read back.
template <typename T>
class WriteRow {
 public:
  std::size_t size() const { return n_; }

  void write(std::size_t i, const T& v) const {
    IDXL_ASSERT_MSG(i < n_, "row index past the row end");
    data_[i] = v;
  }

 private:
  template <typename>
  friend class Accessor;
  WriteRow(T* data, std::size_t n) : data_(data), n_(n) {}

  T* data_;
  std::size_t n_;
};

/// Typed view of one field of a region. The accessor addresses the root's
/// storage (so sibling subregions alias the same memory, as in Legion) but
/// bounds-checks every access against the *subregion's* domain and the
/// declared privilege — this is how privilege violations surface in tests.
///
/// For a dense domain inside the storage (every partition the apps build),
/// the domain's bounds, the storage origin and the row-major strides are
/// computed once here, so the per-element check is a few integer compares
/// and the address a dot product. Sparse domains check each point with
/// Domain::contains. The row views check once per contiguous run.
template <typename T>
class Accessor {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Accessor(RegionForest& forest, RegionId r, FieldId f, Privilege priv,
           ReductionOp redop = ReductionOp::kNone)
      : data_(reinterpret_cast<T*>(forest.field_data(r, f))),
        storage_bounds_(forest.storage_bounds(r)),
        domain_(&forest.region_domain(r)),
        priv_(priv),
        redop_(redop) {
    IDXL_REQUIRE(forest.field(forest.region(r).fspace, f).size == sizeof(T),
                 "accessor element type does not match field size");
    IDXL_REQUIRE((priv == Privilege::kReduce) == (redop != ReductionOp::kNone),
                 "reduction op must be given iff privilege is reduce");
    precompute();
  }

  /// Construct from pre-resolved storage (used by PhysicalRegion, which
  /// captures pointers at issue time so task bodies never touch the forest
  /// concurrently with issuance). `field_size` is checked against T here.
  Accessor(std::byte* data, std::size_t field_size, const Rect& storage_bounds,
           const Domain* domain, Privilege priv, ReductionOp redop)
      : data_(reinterpret_cast<T*>(data)),
        storage_bounds_(storage_bounds),
        domain_(domain),
        priv_(priv),
        redop_(redop) {
    IDXL_REQUIRE(field_size == sizeof(T),
                 "accessor element type does not match field size");
    IDXL_REQUIRE((priv == Privilege::kReduce) == (redop != ReductionOp::kNone),
                 "reduction op must be given iff privilege is reduce");
    precompute();
  }

  const T& read(const Point& p) const {
    IDXL_ASSERT_MSG(privilege_reads(priv_), "read access without read privilege");
    return data_[slot(p)];
  }

  void write(const Point& p, const T& v) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kWrite || priv_ == Privilege::kReadWrite,
                    "write access without write privilege");
    data_[slot(p)] = v;
  }

  void reduce(const Point& p, const T& v) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kReduce, "reduce access without reduce privilege");
    const std::size_t i = slot(p);
    data_[i] = apply_reduction(redop_, data_[i], v);
  }

  /// Read-write shorthand for kReadWrite accessors.
  T& ref(const Point& p) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kReadWrite, "ref requires read-write privilege");
    return data_[slot(p)];
  }

  /// Row views over the `n` elements from `start` along the last dimension.
  /// The privilege and every point of the run are checked here, once.
  ReadRow<T> read_row(const Point& start, std::size_t n) const {
    IDXL_ASSERT_MSG(privilege_reads(priv_), "read_row without read privilege");
    return ReadRow<T>(data_ + row_slot(start, n), n);
  }

  WriteRow<T> write_row(const Point& start, std::size_t n) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kWrite || priv_ == Privilege::kReadWrite,
                    "write_row without write privilege");
    return WriteRow<T>(data_ + row_slot(start, n), n);
  }

  RwRow<T> rw_row(const Point& start, std::size_t n) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kReadWrite, "rw_row requires read-write privilege");
    return RwRow<T>(data_ + row_slot(start, n), n);
  }

  const Domain& domain() const { return *domain_; }

 private:
  void precompute() {
    dim_ = storage_bounds_.dim();
    int64_t stride = 1;
    for (int i = dim_ - 1; i >= 0; --i) {
      const auto d = static_cast<std::size_t>(i);
      stride_[d] = stride;
      stride *= storage_bounds_.hi.c[d] - storage_bounds_.lo.c[d] + 1;
    }
    // The fast path checks the domain's bounds only, so it needs the domain
    // to be exactly its bounds and to lie inside the storage.
    dense_ = domain_->dense() && domain_->dim() == dim_ &&
             storage_bounds_.contains(domain_->bounds());
    if (dense_) {
      lo_ = domain_->bounds().lo.c;
      hi_ = domain_->bounds().hi.c;
    }
  }

  bool in_dense_bounds(const Point& p) const {
    if (p.dim != dim_) return false;
    for (std::size_t i = 0; i < static_cast<std::size_t>(dim_); ++i)
      if (p.c[i] < lo_[i] || p.c[i] > hi_[i]) return false;
    return true;
  }

  std::size_t offset(const Point& p) const {
    int64_t idx = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(dim_); ++i)
      idx += (p.c[i] - storage_bounds_.lo.c[i]) * stride_[i];
    return static_cast<std::size_t>(idx);
  }

  std::size_t slot(const Point& p) const {
    if (dense_) {
      IDXL_ASSERT_MSG(in_dense_bounds(p), "region access out of privilege bounds");
      return offset(p);
    }
    IDXL_ASSERT_MSG(domain_->contains(p), "region access out of privilege bounds");
    return static_cast<std::size_t>(storage_bounds_.linearize(p));
  }

  /// Slot of `start` after checking that the run start .. start + n - 1
  /// along the last dimension lies in the privilege domain and the storage.
  /// An empty run addresses nothing, so it needs no check.
  std::size_t row_slot(const Point& start, std::size_t n) const {
    if (n == 0) return 0;
    IDXL_ASSERT_MSG(start.dim == dim_, "row start has the wrong dimension");
    const auto last = static_cast<std::size_t>(dim_ - 1);
    const Rect& bounds = dense_ ? domain_->bounds() : storage_bounds_;
    // Unsigned: a run longer than the room left in its row fails here
    // instead of overflowing the end coordinate.
    IDXL_ASSERT_MSG(bounds.contains(start) &&
                        n - 1 <= static_cast<uint64_t>(bounds.hi.c[last] - start.c[last]),
                    "row view out of privilege bounds");
    if (!dense_) {
      Point p = start;
      for (std::size_t i = 0; i < n; ++i, ++p.c[last])
        IDXL_ASSERT_MSG(domain_->contains(p), "row view out of privilege bounds");
    }
    return offset(start);
  }

  T* data_;
  Rect storage_bounds_;
  const Domain* domain_;
  Privilege priv_;
  ReductionOp redop_;
  int dim_ = 1;
  bool dense_ = false;
  std::array<int64_t, kMaxDim> lo_{}, hi_{}, stride_{};
};

}  // namespace idxl
