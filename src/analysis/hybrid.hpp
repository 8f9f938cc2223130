#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "analysis/dynamic_check.hpp"
#include "analysis/static_analysis.hpp"

namespace idxl {

class Profiler;
class VerdictCache;

/// Knobs for the hybrid analysis.
struct AnalysisOptions {
  /// When false, arguments the static analyzer can't resolve are *trusted*
  /// (the paper: checks "can be disabled for production runs to eliminate
  /// any overheads; correct execution of the program does not rely on the
  /// result of the safety analysis").
  bool enable_dynamic_checks = true;
  /// Enable the extended static tier — the abstract interpreter over the
  /// interval × congruence domains (analysis/absint.hpp), deciding modular,
  /// strided, composed and multi-dimensional functor families the base
  /// classifier leaves to the dynamic check. Off by default to match the
  /// paper's constant/identity/affine baseline.
  bool extended_static = false;
  /// When set (and enabled), the analysis records `safety-check/static`,
  /// `safety-check/dynamic` and `safety-check/cache` spans so profiles
  /// attribute check time to the phase that spent it.
  Profiler* profiler = nullptr;
  /// Launch-site verdict cache: repeated launches with the same functor
  /// fingerprints, domain and privilege vector reuse the prior verdict and
  /// skip re-analysis entirely. nullptr disables caching.
  VerdictCache* verdict_cache = nullptr;
};

/// How a launch's safety was established (or refuted).
enum class SafetyOutcome : uint8_t {
  kSafeStatic,    ///< every condition discharged at "compile time"
  kSafeDynamic,   ///< static left residual args; dynamic check passed
  kSafeUnchecked, ///< residual args, but dynamic checks disabled — trusted
  kUnsafe,        ///< a conflict was proven (statically or dynamically)
};

struct SafetyReport {
  SafetyOutcome outcome = SafetyOutcome::kSafeStatic;
  uint64_t dynamic_points = 0;   ///< functor evaluations spent in dynamic checks
  uint64_t dynamic_bits = 0;     ///< bitmask bits initialized
  std::string reason;            ///< human-readable diagnosis when kUnsafe
  /// Indices of arguments the static analysis could not discharge (the set
  /// handed to — or, with checks disabled, *owed to* — the dynamic check).
  /// A compiler uses this to emit the Listing-3 guard for exactly these.
  std::vector<uint32_t> residual_args;
  /// Concrete racing pair backing an kUnsafe outcome, from either analysis
  /// tier: two launch points whose functors select the same color with
  /// interfering privileges. Arg indices refer to the analyzed `args` span.
  /// Absent for safe outcomes (and for the aliased-partition /
  /// interfering-partitions refutations, which need no point pair).
  std::optional<RaceWitness> witness;
  /// True when this report was served from the verdict cache (dynamic_points
  /// and dynamic_bits are then 0 — no work was redone).
  bool cache_hit = false;
  /// Cumulative hit/miss counters of the attached verdict cache at the time
  /// of this analysis (both 0 when no cache was attached).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  bool safe() const { return outcome != SafetyOutcome::kUnsafe; }
  bool used_dynamic() const { return outcome == SafetyOutcome::kSafeDynamic; }
};

/// Launch-site verdict cache. The safety verdict for an index launch is a
/// pure function of (functor fingerprints, launch domain, privilege vector,
/// partition identities, analysis options) — every bench/fig* workload
/// re-launches the same handful of sites hundreds of times, so re-running
/// even the static tier per launch is pure overhead (TaskTorrent's
/// observation that per-launch analysis cost is what separates toy runtimes
/// from usable ones). Keys are full-fidelity serializations, not hashes:
/// a hash collision would silently reuse the wrong verdict, which is a
/// soundness bug, so we spend the memory instead. Thread-safe.
class VerdictCache {
 public:
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t uncacheable = 0;  ///< lookups skipped (opaque functor present)
  };

  /// Cache key for a launch site, or nullopt when any functor is opaque
  /// (no finite fingerprint exists — such launches are analyzed afresh).
  static std::optional<std::string> key(std::span<const CheckArg> args,
                                        const Domain& domain,
                                        const AnalysisOptions& options);

  std::optional<SafetyReport> lookup(const std::string& k);
  void insert(const std::string& k, const SafetyReport& report);
  void note_uncacheable();
  void clear();
  std::size_t size() const;
  Counters counters() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, SafetyReport> map_;
  Counters counters_;
};

/// The full §3 non-interference decision for one index launch, §4-style:
/// self-checks and cross-checks are first attempted statically; residual
/// arguments are handed to the linear-time dynamic bitmask check.
///
/// `pair_independent(i, j)` answers cross-check rule 2 — whether args i and
/// j name partitions of collections that are themselves disjoint. Pass
/// nullptr to fall back to comparing CheckArg::collection_uid.
SafetyReport analyze_launch_safety(
    std::span<const CheckArg> args, const Domain& domain,
    const AnalysisOptions& options = {},
    const std::function<bool(std::size_t, std::size_t)>& pair_independent = nullptr);

}  // namespace idxl
