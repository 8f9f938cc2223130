#pragma once

#include <vector>

#include "runtime/api.hpp"

namespace idxl::apps {

/// Configuration of the PRK-style 2-D star stencil (Van der Wijngaart &
/// Mattson [30], §6.1): out += W ⊛ in over a block-partitioned grid with
/// aliased halo partitions, followed by the PRK "in += 1" increment.
struct StencilParams {
  int64_t nx = 64, ny = 64;   ///< grid cells
  int64_t px = 2, py = 2;     ///< processor (task) grid
  int64_t radius = 2;         ///< star stencil radius
  int iterations = 4;
};

/// Two index launches per iteration, both with identity functors (the
/// paper's statically verified case):
///   stencil    reads `in` through the halo partition, read-writes `out`
///              through the disjoint block partition
///   increment  read-writes `in` through the block partition
class StencilApp {
 public:
  /// Backend-independent: runs unmodified on the local and distributed
  /// backends (construct `rt` via dist::make_runtime).
  StencilApp(RuntimeApi& rt, const StencilParams& params);

  bool run_iteration();
  void run(int iterations);

  std::vector<double> output();  ///< row-major `out` field
  std::vector<double> input();   ///< row-major `in` field

  /// Serial reference of the same computation.
  static std::vector<double> reference_output(const StencilParams& params,
                                              int iterations);

 private:
  RuntimeApi& rt_;
  StencilParams params_;
  RegionId grid_;
  PartitionId blocks_;
  PartitionId halos_;
  FieldId f_in_ = 0, f_out_ = 0;
  TaskFnId t_stencil_ = 0, t_increment_ = 0;
};

/// Star-stencil weights: weight(dx, dy) for |dx|+|dy| <= radius on the two
/// axes (PRK normalization).
double stencil_weight(int64_t offset, int64_t radius);

/// The stencil task's work on `cells` (a 2-D rect): out(x, y) += the
/// weighted star of `in` around (x, y), for every cell. Reads and writes go
/// through checked row views, and the additions run in the order of
/// StencilApp::reference_output, so the result is bit-identical to it.
void stencil_block(const Accessor<double>& in, Accessor<double>& out, const Rect& cells,
                   int64_t radius);

}  // namespace idxl::apps
