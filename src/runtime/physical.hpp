#pragma once

#include "region/accessor.hpp"
#include "runtime/fault.hpp"
#include "runtime/types.hpp"

namespace idxl {

/// A task's mapped view of one region argument. All forest lookups happen
/// here, at issue time ("mapping"); by execution the view is self-contained
/// raw pointers, so task bodies never race with concurrent issuance
/// mutating the forest (subregion creation). Accessors enforce the declared
/// privilege and field set.
class PhysicalRegion {
 public:
  PhysicalRegion(RegionForest& forest, RegionId region, const std::vector<FieldId>& fields,
                 Privilege priv, ReductionOp redop)
      : region_(region),
        domain_(&forest.region_domain(region)),
        storage_bounds_(forest.storage_bounds(region)),
        priv_(priv),
        redop_(redop) {
    const FieldSpaceId fspace = forest.region(region).fspace;
    resolved_.reserve(fields.size());
    for (FieldId f : fields)
      resolved_.push_back(
          ResolvedField{f, forest.field_data(region, f), forest.field(fspace, f).size});
  }

  struct ResolvedField {
    FieldId id;
    std::byte* data;
    std::size_t size;
  };

  template <typename T>
  Accessor<T> accessor(FieldId f) const {
    for (const ResolvedField& rf : resolved_)
      if (rf.id == f)
        return Accessor<T>(rf.data, rf.size, storage_bounds_, domain_, priv_, redop_);
    throw RuntimeError("idxl: field was not requested by this region argument");
  }

  RegionId region_id() const { return region_; }
  const Domain& domain() const { return *domain_; }
  Privilege privilege() const { return priv_; }

  /// Fill every element of `f` in this view with the `size`-byte pattern.
  /// Requires write privilege. Used by Runtime::fill; exposed for tasks
  /// that initialize type-erased data.
  void fill_bytes(FieldId f, const void* pattern, std::size_t size) {
    IDXL_REQUIRE(priv_ == Privilege::kWrite || priv_ == Privilege::kReadWrite,
                 "fill requires write privilege");
    for (const ResolvedField& rf : resolved_) {
      if (rf.id != f) continue;
      IDXL_REQUIRE(rf.size == size, "fill pattern size does not match the field");
      for_each_run([&](std::size_t slot, std::size_t n) {
        std::byte* dst = rf.data + slot * size;
        for (std::size_t i = 0; i < n; ++i) std::memcpy(dst + i * size, pattern, size);
      });
      return;
    }
    throw RuntimeError("idxl: field was not requested by this region argument");
  }

  /// Append every resolved field's bytes over this view's domain to `out`,
  /// fields in argument order, elements in Domain::for_each order. The
  /// symmetric pair to copy_in: the owning process extracts its written
  /// subregion, the others apply it — the explicit data movement Legion
  /// performs implicitly between memories.
  void copy_out(std::vector<std::byte>& out) const {
    for (const ResolvedField& rf : resolved_) {
      out.reserve(out.size() + static_cast<std::size_t>(domain_->volume()) * rf.size);
      for_each_run([&](std::size_t slot, std::size_t n) {
        const std::byte* src = rf.data + slot * rf.size;
        out.insert(out.end(), src, src + n * rf.size);
      });
    }
  }

  /// Apply bytes produced by copy_out on an identical view, reading from
  /// `in` starting at `offset`; returns the offset one past the consumed
  /// range. Throws RuntimeError if `in` is too short.
  std::size_t copy_in(const std::vector<std::byte>& in, std::size_t offset) {
    for (const ResolvedField& rf : resolved_) {
      for_each_run([&](std::size_t slot, std::size_t n) {
        const std::size_t bytes = n * rf.size;
        IDXL_REQUIRE(offset <= in.size() && bytes <= in.size() - offset,
                     "remote region payload shorter than the region view");
        std::memcpy(rf.data + slot * rf.size, in.data() + offset, bytes);
        offset += bytes;
      });
    }
    return offset;
  }

  /// Append field `f` over `rect` (row-major) to `out` — the delta-transfer
  /// extraction: a halo strip instead of the whole view. `rect` must lie
  /// within the root's storage bounds.
  void copy_out_rect(FieldId f, const Rect& rect, std::vector<std::byte>& out) const {
    const ResolvedField& rf = resolve(f);
    IDXL_REQUIRE(storage_bounds_.contains(rect),
                 "transfer rect escapes the region's storage bounds");
    out.reserve(out.size() + static_cast<std::size_t>(rect.volume()) * rf.size);
    for_each_row(rect, [&](std::size_t slot, std::size_t n) {
      const std::byte* src = rf.data + slot * rf.size;
      out.insert(out.end(), src, src + n * rf.size);
    });
  }

  /// Apply a copy_out_rect payload to field `f` over `rect`. The symmetric
  /// pair: byte count must match the rect exactly.
  void copy_in_rect(FieldId f, const Rect& rect, const std::vector<std::byte>& in) {
    const ResolvedField& rf = resolve(f);
    IDXL_REQUIRE(storage_bounds_.contains(rect),
                 "transfer rect escapes the region's storage bounds");
    IDXL_REQUIRE(in.size() == static_cast<std::size_t>(rect.volume()) * rf.size,
                 "region patch payload does not match its rect");
    std::size_t offset = 0;
    for_each_row(rect, [&](std::size_t slot, std::size_t n) {
      std::memcpy(rf.data + slot * rf.size, in.data() + offset, n * rf.size);
      offset += n * rf.size;
    });
  }

 private:
  const ResolvedField& resolve(FieldId f) const {
    for (const ResolvedField& rf : resolved_)
      if (rf.id == f) return rf;
    throw RuntimeError("idxl: field was not requested by this region argument");
  }

  /// Call `fn(slot, n)` for each row of `rect` along the last dimension, in
  /// row-major order: `n` elements starting at storage slot `slot`. Both
  /// ends of every row are checked against the storage bounds.
  template <typename Fn>
  void for_each_row(const Rect& rect, Fn&& fn) const {
    if (rect.empty()) return;
    const int last = rect.dim() - 1;
    Rect starts = rect;
    starts.hi[last] = rect.lo[last];
    const auto n = static_cast<std::size_t>(rect.hi[last] - rect.lo[last] + 1);
    for (const Point& start : starts) {
      Point end = start;
      end[last] = rect.hi[last];
      IDXL_ASSERT_MSG(storage_bounds_.contains(end), "row escapes the region's storage");
      fn(static_cast<std::size_t>(storage_bounds_.linearize(start)), n);
    }
  }

  /// for_each_row over this view's domain when it is dense; one point at a
  /// time, in Domain::for_each order, when it is sparse.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    if (domain_->dense()) {
      for_each_row(domain_->bounds(), fn);
    } else {
      domain_->for_each([&](const Point& p) {
        fn(static_cast<std::size_t>(storage_bounds_.linearize(p)), std::size_t{1});
      });
    }
  }

  RegionId region_;
  const Domain* domain_;
  Rect storage_bounds_;
  std::vector<ResolvedField> resolved_;
  Privilege priv_;
  ReductionOp redop_;
};

/// Everything a task body receives: its launch point, the launch domain,
/// by-value arguments and mapped regions.
struct TaskContext {
  Point point = Point::p1(0);
  Domain launch_domain = Domain::line(1);
  /// The executing task's function id — lets post-execution hooks
  /// (on_task_success) dispatch on *what* ran, e.g. the distributed
  /// runtime's transfer task vs. an application body.
  TaskFnId fn = UINT32_MAX;
  const ArgBuffer* scalar_args = nullptr;
  std::vector<PhysicalRegion> regions;
  /// Scalar result of this task; collected by index launches issued with a
  /// result_redop (ignored otherwise).
  double return_value = 0.0;

  PhysicalRegion& region(std::size_t i) {
    IDXL_REQUIRE(i < regions.size(), "region argument index out of range");
    return regions[i];
  }

  template <typename T>
  const T& arg() const {
    IDXL_REQUIRE(scalar_args != nullptr, "task has no scalar arguments");
    return scalar_args->as<T>();
  }

  // --- fault API (docs/ROBUSTNESS.md) ---

  /// True once this attempt has been cancelled (per-launch timeout fired,
  /// the watchdog cancelled the run, or Runtime::cancel_all). Cancellation
  /// is cooperative: a body that returns normally still counts as success.
  bool cancelled() const { return current_task_cancelled(); }

  /// Throw TaskCancelled if cancelled() — the idiomatic poll inside loops of
  /// long-running bodies. The runtime records the task as timed out or
  /// cancelled (not retried).
  void check_cancelled() const {
    if (current_task_cancelled()) throw TaskCancelled();
  }

  /// 0 on the first execution, k on the k-th retry.
  uint32_t attempt() const { return current_fault_frame().attempt; }

  /// Fail this task explicitly. Retried under the launch's retry policy;
  /// once retries are exhausted the failure poisons downstream tasks and
  /// surfaces in the FaultReport with `message`.
  [[noreturn]] void fail(const std::string& message) const { throw TaskFailure(message); }
};

using TaskFn = std::function<void(TaskContext&)>;

}  // namespace idxl
