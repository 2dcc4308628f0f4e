// Fingerprint-keyed result cache for incremental graph-FMEA.
//
// Entries are content-addressed: the key is the *unit fingerprint* of the
// analysed component (see fingerprint.hpp), the value is the complete
// per-subcomponent record (FMEDA rows, warnings, verdict write-backs) that
// analyze_component emitted for it. Because the fingerprint covers every
// model fact the record depends on — including object identities and the
// analysis options — fingerprint equality implies the record replays
// byte-identically.
//
// The cache implements core::UnitResultCache, so analyze_component consults
// it directly. Before each run it must be bound to the current model
// snapshot (bind()): lookups resolve component → current fingerprint → entry
// and refuse the dirty units (the impact_of_change widening computed by
// AnalysisSession, plus the units analysing a widened component).
//
// Persistence is a versioned, checksummed text format. Loading is
// corruption-tolerant by construction: a bad magic line, version skew, a
// checksum mismatch, or any parse anomaly discards the file and leaves the
// cache empty — a poisoned cache is rebuilt, never trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "decisive/core/graph_fmea.hpp"
#include "decisive/session/fingerprint.hpp"

namespace decisive::session {

class ResultCache final : public core::UnitResultCache {
 public:
  ResultCache() = default;

  /// Binds the cache to a model snapshot for the next analyze_component run:
  /// `fingerprints` maps components to their current unit fingerprints;
  /// `dirty_units` miss unconditionally. Both pointers must outlive the run;
  /// pass nullptr to unbind.
  void bind(const ModelFingerprints* fingerprints, const std::set<ssam::ObjectId>* dirty_units);

  // -- core::UnitResultCache --------------------------------------------------
  [[nodiscard]] const core::UnitRecord* lookup(ssam::ObjectId component,
                                               const std::string& path) override;
  void store(core::UnitRecord record) override;

  // -- inspection -------------------------------------------------------------
  [[nodiscard]] size_t size() const noexcept { return entries_.size(); }
  void clear() noexcept {
    entries_.clear();
    ++generation_;
  }
  /// Moves whenever the entries are replaced wholesale (clear, load_file),
  /// so a session can tell that its cache no longer holds what it stored.
  [[nodiscard]] std::uint64_t generation() const noexcept { return generation_; }

  // -- persistence ------------------------------------------------------------
  struct LoadReport {
    bool loaded = false;   ///< false: file absent/corrupt — cache left empty
    size_t entries = 0;    ///< entries restored when loaded
    std::string note;      ///< human-readable reason when !loaded
  };

  /// Serialises every entry; throws IoError when the file cannot be written.
  void save_file(const std::string& path) const;

  /// Replaces the cache contents with the file's entries. Never throws on
  /// bad *content*: any corruption empties the cache and reports why.
  /// Throws IoError only when the path exists but cannot be read.
  LoadReport load_file(const std::string& path);

 private:
  std::map<Fingerprint, core::UnitRecord> entries_;
  const ModelFingerprints* fingerprints_ = nullptr;
  const std::set<ssam::ObjectId>* dirty_units_ = nullptr;
  std::uint64_t generation_ = 0;
};

}  // namespace decisive::session
