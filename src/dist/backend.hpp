#pragma once

#include <memory>
#include <string>

#include "dist/dist_runtime.hpp"

namespace idxl::dist {

/// The two RuntimeApi backends (docs/DISTRIBUTED.md):
///  * kLocal — one process, one thread pool (Runtime).
///  * kDist — dynamic control replication over real processes
///    (DistributedRuntime).
enum class Backend { kLocal, kDist };

const char* backend_name(Backend b);

struct BackendConfig {
  Backend backend = Backend::kLocal;
  /// Local runtime configuration; the dist backend derives its per-process
  /// runtime from it.
  RuntimeConfig runtime;
  /// Process count for kDist (IDXL_DIST_RANKS overrides); dist.runtime is
  /// replaced by `runtime` above.
  DistConfig dist;
};

/// Construct the backend `config` selects, with environment overrides:
/// IDXL_BACKEND=local|dist picks the backend, IDXL_DIST_RANKS sizes it.
/// Workloads written against RuntimeApi run unmodified under either — the
/// env vars are the switch.
std::unique_ptr<RuntimeApi> make_runtime(BackendConfig config = {});

}  // namespace idxl::dist
