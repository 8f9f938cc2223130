#include "apps/stencil.hpp"

#include "region/partition_ops.hpp"

namespace idxl::apps {

double stencil_weight(int64_t offset, int64_t radius) {
  // PRK star weights: w(k) = 1 / (2 * k * radius) for offset k on an axis.
  IDXL_ASSERT(offset != 0 && std::abs(offset) <= radius);
  return 1.0 / (2.0 * static_cast<double>(std::abs(offset)) *
                static_cast<double>(radius)) *
         (offset > 0 ? 1.0 : -1.0);
}

void stencil_block(const Accessor<double>& in, Accessor<double>& out, const Rect& cells,
                   int64_t radius) {
  if (cells.empty()) return;
  const auto r = static_cast<std::size_t>(radius);
  std::vector<double> w_pos(r + 1), w_neg(r + 1);
  for (std::size_t k = 1; k <= r; ++k) {
    w_pos[k] = stencil_weight(static_cast<int64_t>(k), radius);
    w_neg[k] = stencil_weight(-static_cast<int64_t>(k), radius);
  }
  const int64_t y0 = cells.lo[1];
  const auto n = static_cast<std::size_t>(cells.hi[1] - y0 + 1);
  std::vector<ReadRow<double>> above, below;  // rows x + k and x - k
  for (int64_t x = cells.lo[0]; x <= cells.hi[0]; ++x) {
    const RwRow<double> dst = out.rw_row(Point::p2(x, y0), n);
    // Row x from y0 - radius: element j + r is cell (x, y0 + j).
    const ReadRow<double> row = in.read_row(Point::p2(x, y0 - radius), n + 2 * r);
    above.clear();
    below.clear();
    for (int64_t k = 1; k <= radius; ++k) {
      above.push_back(in.read_row(Point::p2(x + k, y0), n));
      below.push_back(in.read_row(Point::p2(x - k, y0), n));
    }
    for (std::size_t j = 0; j < n; ++j) {
      double acc = dst[j];
      for (std::size_t k = 1; k <= r; ++k) {
        acc += w_pos[k] * above[k - 1][j];
        acc += w_neg[k] * below[k - 1][j];
        acc += w_pos[k] * row[j + r + k];
        acc += w_neg[k] * row[j + r - k];
      }
      dst[j] = acc;
    }
  }
}

StencilApp::StencilApp(RuntimeApi& rt, const StencilParams& params)
    : rt_(rt), params_(params) {
  IDXL_REQUIRE(params.nx / params.px > params.radius &&
                   params.ny / params.py > params.radius,
               "blocks must be larger than the stencil radius");
  auto& forest = rt_.forest();
  const IndexSpaceId grid_is =
      forest.create_index_space(Domain(Rect::box2(params.nx, params.ny)));
  const FieldSpaceId fs = forest.create_field_space();
  f_in_ = forest.allocate_field(fs, sizeof(double), "in");
  f_out_ = forest.allocate_field(fs, sizeof(double), "out");
  grid_ = forest.create_region(grid_is, fs);
  blocks_ = partition_equal(forest, grid_is, Rect::box2(params.px, params.py));
  halos_ = partition_halo(forest, grid_is, blocks_, params.radius);

  // PRK initial condition: in(x, y) = x + y, out = 0.
  {
    Accessor<double> in(forest, grid_, f_in_, Privilege::kWrite);
    Accessor<double> out(forest, grid_, f_out_, Privilege::kWrite);
    for (const Point& p : Rect::box2(params.nx, params.ny)) {
      in.write(p, static_cast<double>(p[0] + p[1]));
      out.write(p, 0.0);
    }
  }

  const FieldId fin = f_in_, fout = f_out_;
  const int64_t radius = params.radius;
  const Rect interior(Point::p2(radius, radius),
                      Point::p2(params.nx - 1 - radius, params.ny - 1 - radius));

  // Both bodies walk their block one row (fixed x, consecutive y) at a
  // time through checked row views: the privilege and the ends of each row
  // are checked once, each element by one compare against the row length.
  t_stencil_ = rt_.register_task("stencil", [fin, fout, radius, interior](TaskContext& ctx) {
    auto out = ctx.region(1).accessor<double>(fout);
    // PRK skips the boundary ring.
    stencil_block(ctx.region(0).accessor<double>(fin), out,
                  ctx.region(1).domain().bounds().intersection(interior), radius);
  });

  t_increment_ = rt_.register_task("increment", [fin](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(fin);
    const Rect& cells = ctx.region(0).domain().bounds();
    if (cells.empty()) return;
    const auto n = static_cast<std::size_t>(cells.hi[1] - cells.lo[1] + 1);
    for (int64_t x = cells.lo[0]; x <= cells.hi[0]; ++x) {
      RwRow<double> row = in.rw_row(Point::p2(x, cells.lo[1]), n);
      for (std::size_t j = 0; j < n; ++j) row[j] += 1.0;
    }
  });
}

bool StencilApp::run_iteration() {
  const Domain launch_domain = Domain(Rect::box2(params_.px, params_.py));
  const auto id = ProjectionFunctor::identity(2);
  bool all_index = true;

  all_index &= rt_.execute_index(IndexLauncher::over(launch_domain)
                                     .with_task(t_stencil_)
                                     .region(grid_, halos_, id, {f_in_}, Privilege::kRead)
                                     .region(grid_, blocks_, id, {f_out_},
                                             Privilege::kReadWrite))
                   .ran_as_index_launch;

  all_index &= rt_.execute_index(IndexLauncher::over(launch_domain)
                                     .with_task(t_increment_)
                                     .region(grid_, blocks_, id, {f_in_},
                                             Privilege::kReadWrite))
                   .ran_as_index_launch;
  return all_index;
}

void StencilApp::run(int iterations) {
  for (int i = 0; i < iterations; ++i) run_iteration();
  rt_.wait_all();
}

std::vector<double> StencilApp::output() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(grid_, f_out_);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(params_.nx * params_.ny));
  for (const Point& p : Rect::box2(params_.nx, params_.ny)) out.push_back(acc.read(p));
  return out;
}

std::vector<double> StencilApp::input() {
  rt_.wait_all();
  auto acc = rt_.read_region<double>(grid_, f_in_);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(params_.nx * params_.ny));
  for (const Point& p : Rect::box2(params_.nx, params_.ny)) out.push_back(acc.read(p));
  return out;
}

std::vector<double> StencilApp::reference_output(const StencilParams& params,
                                                 int iterations) {
  const int64_t nx = params.nx, ny = params.ny, radius = params.radius;
  std::vector<double> in(static_cast<std::size_t>(nx * ny));
  std::vector<double> out(static_cast<std::size_t>(nx * ny), 0.0);
  auto at = [ny](int64_t x, int64_t y) { return static_cast<std::size_t>(x * ny + y); };
  for (int64_t x = 0; x < nx; ++x)
    for (int64_t y = 0; y < ny; ++y) in[at(x, y)] = static_cast<double>(x + y);

  for (int it = 0; it < iterations; ++it) {
    for (int64_t x = radius; x < nx - radius; ++x)
      for (int64_t y = radius; y < ny - radius; ++y) {
        double acc = out[at(x, y)];
        for (int64_t k = 1; k <= radius; ++k) {
          acc += stencil_weight(k, radius) * in[at(x + k, y)];
          acc += stencil_weight(-k, radius) * in[at(x - k, y)];
          acc += stencil_weight(k, radius) * in[at(x, y + k)];
          acc += stencil_weight(-k, radius) * in[at(x, y - k)];
        }
        out[at(x, y)] = acc;
      }
    for (auto& v : in) v += 1.0;
  }
  return out;
}

}  // namespace idxl::apps
