#include "dist/backend.hpp"

#include <cstdlib>

#include "support/error.hpp"

namespace idxl::dist {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kLocal: return "local";
    case Backend::kDist: return "dist";
  }
  return "unknown";
}

namespace {

uint32_t env_u32(const char* name, uint32_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  IDXL_REQUIRE(parsed >= 1, std::string(name) + " must be a positive integer");
  return static_cast<uint32_t>(parsed);
}

}  // namespace

std::unique_ptr<RuntimeApi> make_runtime(BackendConfig config) {
  Backend backend = config.backend;
  if (const char* env = std::getenv("IDXL_BACKEND");
      env != nullptr && *env != '\0') {
    const std::string name(env);
    if (name == "local") backend = Backend::kLocal;
    else if (name == "dist") backend = Backend::kDist;
    else throw RuntimeError("IDXL_BACKEND must be local or dist (got '" +
                            name + "')");
  }
  switch (backend) {
    case Backend::kLocal:
      return std::make_unique<Runtime>(config.runtime);
    case Backend::kDist: {
      DistConfig dc = config.dist;
      dc.runtime = config.runtime;
      dc.ranks = env_u32("IDXL_DIST_RANKS", dc.ranks);
      return std::make_unique<DistributedRuntime>(std::move(dc));
    }
  }
  throw RuntimeError("unreachable backend");
}

}  // namespace idxl::dist
