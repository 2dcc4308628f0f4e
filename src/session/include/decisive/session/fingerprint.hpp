// Content fingerprints for incremental safety analysis.
//
// DECISIVE is iterative: every change to the system definition re-runs the
// analysis (paper Section III). To recompute only what changed, each
// component gets a *unit fingerprint* — a content hash over exactly the
// model surface the graph-FMEA of that component reads:
//
//   - the component's qualified path, name, blockType and FIT,
//   - its boundary IONodes (identity + direction) and internal wiring
//     (ComponentRelationships, in declaration order),
//   - for every direct subcomponent: identity, name, blockType, FIT,
//     IONodes, failure modes (name, distribution, nature,
//     affected-component and hazard links), modelled safety mechanisms
//     (name, coverage, cost, covered modes), and whether it is composite,
//   - the analysis options (loss natures, mechanism deployment, recursion).
//
// Analysis *outputs* (the `safetyRelated` write-back and auto-attached
// FailureEffects) are deliberately excluded, so re-running an analysis never
// invalidates its own cache entries.
//
// A *subtree fingerprint* folds the unit fingerprint with all descendants'
// (bottom-up): equal subtree fingerprints at the analysis root mean the
// whole re-analysis can be skipped.
//
// fingerprint_model computes a snapshot in one full model pass.
// refresh_fingerprints keeps a snapshot current after announced edits in
// O(edit): it re-walks the subtree of each edited component and the unit of
// its parent, refolds the subtree hashes up the ancestor chain and refreshes
// the signal adjacency of what it re-walked. The result equals a fresh
// fingerprint_model pass (unit and subtree maps) as long as every edit was
// announced; AnalysisSession runs the full pass only on its first run, after
// its cache is replaced, and when asked to verify.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "decisive/core/graph_fmea.hpp"
#include "decisive/ssam/model.hpp"

namespace decisive::session {

/// A 128-bit content hash (two independently seeded 64-bit FNV-1a lanes).
/// Wide enough that the fingerprint-keyed result cache can treat equality as
/// content identity.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  auto operator<=>(const Fingerprint&) const = default;
};

/// Lower-case hex rendering, "hhhhhhhhhhhhhhhh:llllllllllllllll".
[[nodiscard]] std::string to_hex(const Fingerprint& fp);

/// Inverse of to_hex; throws ParseError on malformed input.
[[nodiscard]] Fingerprint fingerprint_from_hex(std::string_view text);

/// Incremental hasher used to build fingerprints field by field. Mixing is
/// word-at-a-time (one multiply-xor round per lane per 64 bits): the
/// fingerprint pass hashes every string in the subtree on every reanalyze,
/// so it must stay well under the cost of the analysis it avoids.
class FingerprintBuilder {
 public:
  FingerprintBuilder() = default;

  void mix(std::string_view text);
  void mix(std::uint64_t value) noexcept;
  void mix(double value);  ///< hashes the bit pattern — exact, no rounding
  void mix(bool value);
  void mix(const Fingerprint& other);

  [[nodiscard]] Fingerprint finish() const noexcept { return fp_; }

 private:
  Fingerprint fp_{0xcbf29ce484222325ULL, 0x84222325cbf29ce4ULL};
};

/// Per-component fingerprints of one model snapshot.
struct ModelFingerprints {
  /// Unit fingerprint: the surface the analysis *of this component* reads.
  std::map<ssam::ObjectId, Fingerprint> unit;
  /// Subtree fingerprint: unit hash folded with all descendants'.
  std::map<ssam::ObjectId, Fingerprint> subtree;
  /// Containment parent within the fingerprinted subtree (absent for the
  /// root). Lets callers map an edited leaf to the unit whose analysis
  /// covers it.
  std::map<ssam::ObjectId, ssam::ObjectId> parent;
  /// Direct subcomponents as last fingerprinted (absent for leaves), so a
  /// refresh can tell which components left the subtree.
  std::map<ssam::ObjectId, std::vector<ssam::ObjectId>> children;
  /// Qualified path from the analysis root, matching the paths graph-FMEA
  /// rows carry (root name, then "/"-joined component names).
  std::map<ssam::ObjectId, std::string> path;
  /// Signal adjacency within the subtree: components sharing a
  /// ComponentRelationship endpoint, one entry per linking relationship.
  /// This is the connected_components leg of core::impact_of_change,
  /// precomputed so dirty-set widening costs O(dirty) instead of a full
  /// repository scan per changed component.
  std::map<ssam::ObjectId, std::vector<ssam::ObjectId>> neighbours;
  /// IONode -> owning component, and the owner pairs each component's
  /// relationships link: what a refresh retracts from `neighbours` before
  /// re-linking a re-walked component's wiring.
  std::map<ssam::ObjectId, ssam::ObjectId> node_owner;
  std::map<ssam::ObjectId, std::vector<std::pair<ssam::ObjectId, ssam::ObjectId>>> wiring;
};

/// Fingerprints every component in the containment subtree of `root` in one
/// bottom-up pass. `options` is folded into every hash so a cache can never
/// serve results computed under different analysis settings.
[[nodiscard]] ModelFingerprints fingerprint_model(const ssam::SsamModel& ssam,
                                                  ssam::ObjectId root,
                                                  const core::GraphFmeaOptions& options);

/// Brings `fingerprints` (a fingerprint_model snapshot) up to date
/// after edits to the `edited` components, in place. Each edited component
/// must be in the snapshot (others are skipped); an edit is announced on the
/// component whose own attributes, failure modes, safety mechanisms,
/// IONodes, wiring or subcomponent list changed. Returns the components
/// whose unit fingerprint changed — appeared, disappeared, or hashes
/// differently — in ascending id order.
std::vector<ssam::ObjectId> refresh_fingerprints(ModelFingerprints& fingerprints,
                                                 const ssam::SsamModel& ssam,
                                                 const core::GraphFmeaOptions& options,
                                                 const std::set<ssam::ObjectId>& edited);

/// Components whose unit fingerprint changed between two snapshots —
/// appeared, disappeared, or hashes differently.
[[nodiscard]] std::vector<ssam::ObjectId> fingerprint_diff(const ModelFingerprints& before,
                                                           const ModelFingerprints& after);

}  // namespace decisive::session
