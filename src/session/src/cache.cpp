#include "decisive/session/cache.hpp"

#include <filesystem>
#include <sstream>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"

namespace decisive::session {

using core::UnitRecord;
using core::UnitSubRecord;
using ssam::ObjectId;

// ---------------------------------------------------------------------------
// Binding + lookup
// ---------------------------------------------------------------------------

void ResultCache::bind(const ModelFingerprints* fingerprints,
                       const std::set<ObjectId>* dirty_units) {
  fingerprints_ = fingerprints;
  dirty_units_ = dirty_units;
}

const UnitRecord* ResultCache::lookup(ObjectId component, const std::string& /*path*/) {
  if (fingerprints_ == nullptr) return nullptr;
  if (dirty_units_ != nullptr && dirty_units_->contains(component)) return nullptr;
  const auto fp = fingerprints_->unit.find(component);
  if (fp == fingerprints_->unit.end()) return nullptr;
  const auto entry = entries_.find(fp->second);
  return entry == entries_.end() ? nullptr : &entry->second;
}

void ResultCache::store(UnitRecord record) {
  if (fingerprints_ == nullptr) {
    throw ModelError("ResultCache::store called without a bound model snapshot");
  }
  const auto fp = fingerprints_->unit.find(record.component);
  if (fp == fingerprints_->unit.end()) {
    throw ModelError("ResultCache::store for a component outside the fingerprinted subtree");
  }
  entries_[fp->second] = std::move(record);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kMagic = "decisive-result-cache";
// Version 2: the unit fingerprints no longer mix the retired graph-FMEA
// `recursive` / `loss_natures` options, so every version-1 key is stale.
constexpr int kVersion = 2;

core::EffectClass effect_from_token(const std::string& token) {
  const std::uint64_t value = u64_from_token(token);
  if (value > 2) throw ParseError("bad effect class '" + token + "'");
  return static_cast<core::EffectClass>(value);
}

void write_record(std::ostream& out, const Fingerprint& fp, const UnitRecord& record) {
  out << "entry " << to_hex(fp) << ' ' << record.component << ' ' << escape_token(record.path) << ' '
      << record.subs.size() << '\n';
  for (const UnitSubRecord& sub : record.subs) {
    out << "sub " << sub.sub << ' ' << sub.rows.size() << ' ' << sub.warnings.size() << ' '
        << sub.verdicts.size() << '\n';
    for (const core::FmedaRow& row : sub.rows) {
      out << "row " << escape_token(row.component) << ' ' << escape_token(row.component_type) << ' '
          << row.component_id << ' ' << escape_token(row.component_path) << ' '
          << double_to_token(row.fit) << ' ' << escape_token(row.failure_mode) << ' '
          << double_to_token(row.distribution) << ' ' << (row.safety_related ? 1 : 0) << ' '
          << static_cast<int>(row.effect) << ' ' << escape_token(row.safety_mechanism) << ' '
          << double_to_token(row.sm_coverage) << ' ' << double_to_token(row.sm_cost_hours)
          << '\n';
    }
    for (const std::string& warning : sub.warnings) out << "warn " << escape_token(warning) << '\n';
    for (const core::UnitVerdict& verdict : sub.verdicts) {
      out << "verdict " << verdict.failure_mode << ' ' << (verdict.safety_related ? 1 : 0) << ' '
          << static_cast<int>(verdict.effect) << '\n';
    }
  }
}

/// Pull-based tokenizer over the payload lines.
struct LineReader {
  std::vector<std::string> lines;
  size_t next = 0;

  std::vector<std::string> take(const std::string& expected_tag) {
    if (next >= lines.size()) throw ParseError("unexpected end of cache file");
    std::vector<std::string> tokens = split(lines[next++], ' ');
    if (tokens.empty() || tokens.front() != expected_tag) {
      throw ParseError("expected '" + expected_tag + "' record");
    }
    tokens.erase(tokens.begin());
    return tokens;
  }
};

}  // namespace

void ResultCache::save_file(const std::string& path) const {
  std::ostringstream payload;
  payload << kMagic << ' ' << kVersion << ' ' << entries_.size() << '\n';
  for (const auto& [fp, record] : entries_) write_record(payload, fp, record);

  std::string body = payload.str();
  body += "checksum " + hash_to_hex(fnv1a64(body)) + '\n';
  // Atomic replacement: a crash mid-save must leave the previous cache
  // intact, never a truncated file (see persist.hpp).
  atomic_write_file(path, body);
}

ResultCache::LoadReport ResultCache::load_file(const std::string& path) {
  clear();
  LoadReport report;

  if (!std::filesystem::exists(path)) {
    report.note = "no cache file at '" + path + "'";
    return report;
  }
  const std::string content = read_whole_file(path, "result cache");

  // Split off the trailing checksum line and verify it before parsing
  // anything — truncated or bit-flipped files must never be trusted.
  const auto checksum_pos = content.rfind("checksum ");
  if (checksum_pos == std::string::npos || (checksum_pos != 0 && content[checksum_pos - 1] != '\n')) {
    report.note = "cache file has no checksum line; rebuilding";
    return report;
  }
  const std::string payload = content.substr(0, checksum_pos);
  const std::string checksum_line(trim(content.substr(checksum_pos)));
  const std::string expected = "checksum " + hash_to_hex(fnv1a64(payload));
  if (checksum_line != expected) {
    report.note = "cache file checksum mismatch; rebuilding";
    return report;
  }

  try {
    LineReader reader;
    for (const auto& line : split(payload, '\n')) {
      if (!trim(line).empty()) reader.lines.push_back(line);
    }
    if (reader.lines.empty()) throw ParseError("empty cache file");
    {
      const std::vector<std::string> header = split(reader.lines[0], ' ');
      if (header.size() != 3 || header[0] != kMagic) throw ParseError("bad magic");
      if (u64_from_token(header[1]) != static_cast<std::uint64_t>(kVersion)) {
        report.note = "cache file version " + header[1] + " != " + std::to_string(kVersion) +
                      "; rebuilding";
        return report;
      }
      reader.next = 1;
      const std::uint64_t entry_count = u64_from_token(header[2]);
      std::map<Fingerprint, UnitRecord> loaded;
      for (std::uint64_t e = 0; e < entry_count; ++e) {
        const auto entry_tokens = reader.take("entry");
        if (entry_tokens.size() != 4) throw ParseError("bad entry record");
        const Fingerprint fp = fingerprint_from_hex(entry_tokens[0]);
        UnitRecord record;
        record.component = u64_from_token(entry_tokens[1]);
        record.path = unescape_token(entry_tokens[2]);
        const std::uint64_t sub_count = u64_from_token(entry_tokens[3]);
        for (std::uint64_t s = 0; s < sub_count; ++s) {
          const auto sub_tokens = reader.take("sub");
          if (sub_tokens.size() != 4) throw ParseError("bad sub record");
          UnitSubRecord sub;
          sub.sub = u64_from_token(sub_tokens[0]);
          const std::uint64_t rows = u64_from_token(sub_tokens[1]);
          const std::uint64_t warnings = u64_from_token(sub_tokens[2]);
          const std::uint64_t verdicts = u64_from_token(sub_tokens[3]);
          for (std::uint64_t r = 0; r < rows; ++r) {
            const auto t = reader.take("row");
            if (t.size() != 12) throw ParseError("bad row record");
            core::FmedaRow row;
            row.component = unescape_token(t[0]);
            row.component_type = unescape_token(t[1]);
            row.component_id = u64_from_token(t[2]);
            row.component_path = unescape_token(t[3]);
            row.fit = double_from_token(t[4]);
            row.failure_mode = unescape_token(t[5]);
            row.distribution = double_from_token(t[6]);
            row.safety_related = u64_from_token(t[7]) != 0;
            row.effect = effect_from_token(t[8]);
            row.safety_mechanism = unescape_token(t[9]);
            row.sm_coverage = double_from_token(t[10]);
            row.sm_cost_hours = double_from_token(t[11]);
            sub.rows.push_back(std::move(row));
          }
          for (std::uint64_t w = 0; w < warnings; ++w) {
            const auto t = reader.take("warn");
            if (t.size() != 1) throw ParseError("bad warn record");
            sub.warnings.push_back(unescape_token(t[0]));
          }
          for (std::uint64_t v = 0; v < verdicts; ++v) {
            const auto t = reader.take("verdict");
            if (t.size() != 3) throw ParseError("bad verdict record");
            sub.verdicts.push_back(
                {u64_from_token(t[0]), u64_from_token(t[1]) != 0, effect_from_token(t[2])});
          }
          record.subs.push_back(std::move(sub));
        }
        loaded[fp] = std::move(record);
      }
      if (reader.next != reader.lines.size()) throw ParseError("trailing cache records");
      entries_ = std::move(loaded);
    }
  } catch (const Error& error) {
    entries_.clear();
    report.note = std::string("cache file corrupt (") + error.what() + "); rebuilding";
    return report;
  }

  report.loaded = true;
  report.entries = entries_.size();
  return report;
}

}  // namespace decisive::session
