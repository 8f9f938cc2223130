#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/certificate.hpp"
#include "analysis/witness.hpp"
#include "functor/projection.hpp"
#include "region/accessor.hpp"
#include "region/domain.hpp"

namespace idxl {

/// Static verdict for a *pair of launches*: can any task of launch A and
/// any task of launch B touch the same data with interfering privileges?
/// Extends the paper's per-launch hybrid analysis across launch boundaries,
/// so the runtime can skip the dynamic pair test on the hot issue path.
enum class PairVerdict : uint8_t {
  kUnknown = 0,   ///< neither proven disjoint nor refuted — run the tracker
  kDisjoint = 1,  ///< provably independent; backed by a checked certificate
  kInterferes = 2 ///< a concrete racing pair exists; backed by a RaceWitness
};

const char* pair_verdict_name(PairVerdict v);

/// One region argument of a launch, summarized for cross-launch analysis
/// (the inter-launch sibling of CheckArg; owns its functor/domain copies so
/// summaries can outlive the launch that produced them).
struct LaunchArgSummary {
  ProjectionFunctor functor = ProjectionFunctor::identity(1);
  Domain domain;                  ///< launch domain the functor ranges over
  Rect color_space;               ///< partition's (dense) color space
  uint32_t partition_uid = 0;
  bool partition_disjoint = false;
  uint32_t collection_uid = 0;    ///< identity of the underlying tree
  uint64_t field_mask = ~uint64_t{0};
  Privilege priv = Privilege::kRead;
  ReductionOp redop = ReductionOp::kNone;

  bool writes() const { return privilege_writes(priv); }

  /// The checker-facing view (the functor pointer aliases this summary).
  CertSide side() const;

  /// Full-fidelity serialization, or nullopt when the functor is opaque (no
  /// finite fingerprint — such pairs are analyzed afresh, never cached).
  std::optional<std::string> fingerprint() const;
};

struct InterferenceResult {
  PairVerdict verdict = PairVerdict::kUnknown;
  /// Present and checker-validated for every kDisjoint verdict: the runtime
  /// refuses uncertified skips, so an unvalidated certificate downgrades
  /// the verdict to kUnknown before it ever reaches a caller.
  std::optional<Certificate> certificate;
  /// Present and pair_witness_valid()-validated for every kInterferes.
  std::optional<RaceWitness> witness;
  std::string reason;
};

/// Decide interference of two launch arguments. Rules, in order: disjoint
/// field masks; distinct collections; both sides read-only; cross-functor
/// image separation on some output component (same disjoint partition,
/// symbolic functors — residue-class or interval-gap proofs via the
/// interval × congruence domain, emitting a certificate the independent
/// checker validates before the verdict is returned); bounded brute-force
/// collision probe producing a validated witness. Anything else: kUnknown.
InterferenceResult analyze_interference(const LaunchArgSummary& a,
                                        const LaunchArgSummary& b);

/// Order-canonical cache key for a pair (nullopt if either side is opaque).
std::optional<std::string> interference_key(const LaunchArgSummary& a,
                                            const LaunchArgSummary& b);

/// Same key, built from two precomputed fingerprints (callers that keep
/// summaries around memoize the fingerprints instead of rebuilding them per
/// pair test).
std::string make_interference_key(const std::string& fp_a, const std::string& fp_b);

/// Deterministic wire form of (key, certificate-bytes) entries — the payload
/// a driver ships so workers validate certificates instead of re-analyzing.
/// Entries are sorted by key; each certificate blob carries its own
/// checksum, so the bundle itself is plain length-prefixed framing.
std::vector<std::byte> encode_interference_bundle(
    std::vector<std::pair<std::string, std::vector<std::byte>>> entries);

/// nullopt on any framing violation (bad magic/version, truncation, trailing
/// bytes). Certificate payloads are NOT validated here — that happens
/// against live launch descriptors at first lookup.
std::optional<std::vector<std::pair<std::string, std::vector<std::byte>>>>
decode_interference_bundle(const std::byte* data, std::size_t size);

/// Pair-verdict cache, shared across distributed ranks via the
/// export/import surface. Keys are full-fidelity fingerprints (never
/// hashes: a collision would reuse the wrong verdict, which is a soundness
/// bug). Entries imported from a remote rank carry
/// their certificate bytes but are *unchecked*: the first lookup re-decodes
/// and re-validates the certificate against the live launch descriptors and
/// either promotes the entry or rejects-and-erases it, so a poisoned
/// certificate can never authorize a skip.
class InterferenceCache {
 public:
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t uncacheable = 0;  ///< lookups skipped (opaque functor present)
    uint64_t imported = 0;     ///< entries received from a remote rank
    uint64_t validated = 0;    ///< imported certificates that passed the checker
    uint64_t rejected = 0;     ///< imported certificates refused by the checker
  };

  /// Verdict for `k`, validating a pending imported certificate against the
  /// two live sides first. kDisjoint is only ever returned checked.
  std::optional<PairVerdict> lookup(const std::string& k,
                                    const LaunchArgSummary& a,
                                    const LaunchArgSummary& b);

  /// Record a locally analyzed result (certificates were already validated
  /// by analyze_interference).
  void insert(const std::string& k, const InterferenceResult& r);

  /// Record an imported kDisjoint entry whose certificate has NOT been
  /// validated on this rank yet.
  void insert_unchecked(const std::string& k, std::vector<std::byte> cert);

  /// All checked kDisjoint entries as (key, certificate bytes) — the
  /// payload a driver ships to worker ranks.
  std::vector<std::pair<std::string, std::vector<std::byte>>> exportable() const;

  void note_uncacheable();
  void clear();
  std::size_t size() const;
  Counters counters() const;

 private:
  struct Entry {
    PairVerdict verdict = PairVerdict::kUnknown;
    std::vector<std::byte> cert;  ///< encoded certificate (kDisjoint only)
    bool checked = false;         ///< certificate validated on this rank
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  Counters counters_;
};

/// A summary fingerprint built at most once, on first demand. The issue
/// path threads one of these per argument through certified_disjoint() and
/// record() so the (string-heavy) serialization runs only for arguments
/// that actually face a pair test — and never twice.
struct LazyFingerprint {
  std::optional<std::string> value;
  bool built = false;

  const std::optional<std::string>& get(const LaunchArgSummary& s) {
    if (!built) {
      value = s.fingerprint();
      built = true;
    }
    return value;
  }
};

/// Per-fence record of every group-path launch argument a runtime issued on
/// each region tree — the "other side" of every pair test the group walk
/// would otherwise run dynamically. Cleared wherever the dependence tiers
/// reset (the recorded summaries must never outlive the uses they stand
/// for). Not internally locked: owned by a single issuing thread, like the
/// dependence trackers themselves.
///
/// Bookkeeping is amortized so enabling the analysis never slows a launch
/// stream that cannot profit from it: record() is an O(1) append (no
/// fingerprint build, no dedup), settled lazily by the next pair test on
/// the tree; a per-tree memo keyed by (fingerprint, epoch) answers repeated
/// identical launches — the steady state of iterative apps — in one hash
/// lookup instead of a full walk.
class InterferenceHistory {
 public:
  /// True iff `s` is certified kDisjoint against *every* summary recorded on
  /// `tree` (empty history: false — there is nothing to skip). Verdicts come
  /// from `cache` when fingerprints allow; unresolved pairs run the analyzer
  /// only when `analyze` is set (import-only worker ranks fail closed
  /// instead), bumping *pair_tests once per fresh analysis. The memo is
  /// sound because verdicts are properties of launch shapes: a fingerprint
  /// that tested disjoint against every record stays disjoint until a new
  /// record arrives (which bumps the epoch and invalidates the hit).
  bool certified_disjoint(uint32_t tree, const LaunchArgSummary& s,
                          LazyFingerprint& fp, InterferenceCache& cache,
                          bool analyze, uint64_t* pair_tests);

  /// Record one issued argument. Cheap by design: the fingerprint build and
  /// the dedup it enables are deferred to the next certified_disjoint() on
  /// this tree. Pass the pair test's LazyFingerprint so a fingerprint built
  /// there is reused rather than rebuilt.
  void record(uint32_t tree, LaunchArgSummary s, LazyFingerprint fp = {});

  void clear() { trees_.clear(); }

 private:
  struct Rec {
    LaunchArgSummary summary;
    std::optional<std::string> fp;
    bool fp_built = false;
  };
  struct Tree {
    std::vector<Rec> args;     ///< settled, fingerprinted, deduplicated
    std::vector<Rec> pending;  ///< appended by record(), settled lazily
    std::unordered_set<std::string> seen;
    /// Bumped once per settled insert; memo hits are valid only at the
    /// epoch they were stored under.
    uint64_t epoch = 0;
    /// fingerprint -> epoch at which it was certified against all records.
    std::unordered_map<std::string, uint64_t> memo;
  };
  /// Move pending records into args: build missing fingerprints, drop
  /// duplicates, bump the epoch per fresh insert.
  void settle(Tree& th);
  std::unordered_map<uint32_t, Tree> trees_;
};

}  // namespace idxl
