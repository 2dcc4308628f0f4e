#include "decisive/core/campaign_journal.hpp"

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"
#include "decisive/core/campaign.hpp"

namespace decisive::core {

namespace {

constexpr const char* kJournalTag = "journal";
constexpr int kJournalVersion = 1;

/// Number of FmedaRow fields in one "row" record (journal_row_tokens): the
/// shared row codec's fields plus five campaign-outcome fields.
constexpr size_t kRowFieldCount = kFmedaRowTokenCount + 5;

/// Appends the framing checksum to a record body, producing the full line.
std::string seal_line(const std::string& body) {
  return body + ' ' + hash_to_hex(fnv1a64(body)) + '\n';
}

/// Verifies and strips the trailing checksum token of one line. Returns
/// false (leaving `tokens` untouched) on a short or mismatched line.
bool unseal_line(const std::string& line, std::vector<std::string>& tokens) {
  const auto checksum_pos = line.rfind(' ');
  if (checksum_pos == std::string::npos) return false;
  const std::string body = line.substr(0, checksum_pos);
  if (line.substr(checksum_pos + 1) != hash_to_hex(fnv1a64(body))) return false;
  tokens = split(body, ' ');
  return true;
}

std::string header_line(const CampaignJournalHeader& header) {
  std::ostringstream body;
  body << kJournalTag << ' ' << kJournalVersion << ' ' << hash_to_hex(header.fingerprint)
       << ' ' << header.task_count << ' ' << header.shard_index << ' ' << header.shard_count;
  return seal_line(body.str());
}

FaultOutcome outcome_from_token(const std::string& token) {
  const std::uint64_t value = u64_from_token(token);
  if (value >= kFaultOutcomeCount) throw ParseError("bad fault outcome '" + token + "'");
  return static_cast<FaultOutcome>(value);
}

int int_from_token(const std::string& token) {
  return static_cast<int>(u64_from_token(token));
}

std::uint64_t u64_from_hex(const std::string& token) {
  if (token.empty() || token.size() > 16) throw ParseError("bad hash '" + token + "'");
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 16);
  if (end == token.c_str() || *end != '\0') throw ParseError("bad hash '" + token + "'");
  return value;
}

}  // namespace

std::string journal_row_tokens(const FmedaRow& row) {
  std::ostringstream out;
  out << fmeda_row_tokens(row) << ' ' << static_cast<int>(row.outcome) << ' '
      << escape_token(row.outcome_detail) << ' ' << row.solver_iterations << ' '
      << row.ladder_rung << ' ' << row.retries;
  return out.str();
}

FmedaRow journal_row_from_tokens(const std::vector<std::string>& tokens, size_t first) {
  if (tokens.size() != first + kRowFieldCount) throw ParseError("bad row record arity");
  FmedaRow row = fmeda_row_from_tokens(tokens, first);
  const size_t outcome = first + kFmedaRowTokenCount;
  row.outcome = outcome_from_token(tokens[outcome + 0]);
  row.outcome_detail = unescape_token(tokens[outcome + 1]);
  row.solver_iterations = int_from_token(tokens[outcome + 2]);
  row.ladder_rung = int_from_token(tokens[outcome + 3]);
  row.retries = int_from_token(tokens[outcome + 4]);
  return row;
}

CampaignJournalReplay replay_campaign_journal(const std::string& path,
                                              const CampaignJournalHeader* expected) {
  CampaignJournalReplay replay;
  if (!std::filesystem::exists(path)) {
    replay.note = "no journal at '" + path + "'";
    return replay;
  }
  const std::string content = read_whole_file(path, "campaign journal");

  // Walk the lines, tracking the byte offset of the end of the last line
  // whose checksum verified: everything after that offset is a torn or
  // corrupt tail to be trimmed before appending resumes.
  size_t offset = 0;
  bool saw_header = false;
  std::uint64_t line_number = 0;
  while (offset < content.size()) {
    const size_t newline = content.find('\n', offset);
    if (newline == std::string::npos) {
      // No terminator: a torn final line (crash mid-append).
      replay.dropped_lines += 1;
      replay.note = "torn tail trimmed at byte " + std::to_string(replay.valid_bytes);
      break;
    }
    const std::string line = content.substr(offset, newline - offset);
    ++line_number;
    std::vector<std::string> tokens;
    bool ok = unseal_line(line, tokens);
    if (ok) {
      try {
        if (!saw_header) {
          if (tokens.size() != 6 || tokens[0] != kJournalTag) {
            throw ParseError("bad journal header");
          }
          if (u64_from_token(tokens[1]) != static_cast<std::uint64_t>(kJournalVersion)) {
            replay.note = "journal version " + tokens[1] + " != " +
                          std::to_string(kJournalVersion) + "; discarded";
            return replay;
          }
          replay.header.fingerprint = u64_from_hex(tokens[2]);
          replay.header.task_count = u64_from_token(tokens[3]);
          replay.header.shard_index = int_from_token(tokens[4]);
          replay.header.shard_count = int_from_token(tokens[5]);
          if (expected != nullptr && !(replay.header == *expected)) {
            replay.note = "journal belongs to a different campaign; discarded";
            return replay;
          }
          saw_header = true;
        } else if (tokens.size() >= 1 && tokens[0] == "skip") {
          if (tokens.size() != 2) throw ParseError("bad skip record");
          replay.skip_warnings.push_back(unescape_token(tokens[1]));
        } else if (tokens.size() >= 1 && tokens[0] == "row") {
          if (tokens.size() != 2 + kRowFieldCount) throw ParseError("bad row record");
          const std::uint64_t index = u64_from_token(tokens[1]);
          if (index >= replay.header.task_count) {
            throw ParseError("row index " + tokens[1] + " out of range");
          }
          replay.rows[index] = journal_row_from_tokens(tokens, 2);
        } else {
          throw ParseError("unknown record tag");
        }
      } catch (const Error&) {
        ok = false;
      }
    }
    if (!ok) {
      // A checksum-valid prefix followed by an invalid line: trim here. Count
      // every remaining line as dropped (they may be fine, but a record after
      // a corrupt one must not be trusted — tasks re-run instead).
      replay.dropped_lines += 1;
      size_t rest = newline + 1;
      while (rest < content.size()) {
        replay.dropped_lines += 1;
        const size_t next = content.find('\n', rest);
        if (next == std::string::npos) break;
        rest = next + 1;
      }
      replay.note = "corrupt record at line " + std::to_string(line_number) +
                    "; tail trimmed (" + std::to_string(replay.dropped_lines) +
                    " line(s) dropped)";
      break;
    }
    offset = newline + 1;
    replay.valid_bytes = offset;
  }

  if (!saw_header) {
    replay.note = replay.note.empty() ? "journal has no valid header; discarded"
                                      : replay.note + "; no valid header, discarded";
    replay.valid_bytes = 0;
    replay.rows.clear();
    replay.skip_warnings.clear();
    return replay;
  }
  replay.compatible = true;
  return replay;
}

CampaignJournal::CampaignJournal(std::string path, const CampaignJournalHeader& header,
                                 const std::vector<std::string>& skip_warnings,
                                 const CampaignJournalReplay* resume)
    : path_(std::move(path)) {
  if (const char* crash = std::getenv("DECISIVE_CAMPAIGN_CRASH_AFTER_APPENDS")) {
    crash_after_appends_ = std::strtol(crash, nullptr, 10);
  }
  const bool resuming = resume != nullptr && resume->compatible;
  if (resuming) {
    // Trim the torn/corrupt tail, then append after the valid prefix.
    std::error_code ec;
    std::filesystem::resize_file(path_, resume->valid_bytes, ec);
    if (ec) throw IoError("cannot trim campaign journal '" + path_ + "': " + ec.message());
    out_.open(path_, std::ios::binary | std::ios::app);
    if (!out_) throw IoError("cannot append to campaign journal '" + path_ + "'");
  } else {
    out_.open(path_, std::ios::binary | std::ios::trunc);
    if (!out_) throw IoError("cannot write campaign journal '" + path_ + "'");
    out_ << header_line(header);
    for (const std::string& warning : skip_warnings) {
      out_ << seal_line("skip " + escape_token(warning));
    }
    if (!out_.flush()) throw IoError("cannot write campaign journal '" + path_ + "'");
  }
}

void CampaignJournal::append(std::uint64_t task_index, const FmedaRow& row) {
  const std::string line =
      seal_line("row " + std::to_string(task_index) + ' ' + journal_row_tokens(row));
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << line;
  if (!out_.flush()) throw IoError("cannot append to campaign journal '" + path_ + "'");
  ++appends_;
  if (crash_after_appends_ >= 0 && appends_ >= static_cast<std::uint64_t>(crash_after_appends_)) {
    // Crash injection: die exactly as a preempted worker would — no unwind,
    // no destructors, the journal holding whatever was flushed so far.
    std::raise(SIGKILL);
  }
}

FmedaResult merge_campaign_journals(const std::vector<std::string>& paths) {
  if (paths.empty()) throw AnalysisError("merge: no journals given");

  CampaignJournalHeader campaign;
  std::map<std::uint64_t, FmedaRow> rows;
  std::vector<std::string> skip_warnings;
  std::vector<bool> shard_seen;
  for (size_t i = 0; i < paths.size(); ++i) {
    const CampaignJournalReplay replay = replay_campaign_journal(paths[i], nullptr);
    if (!replay.compatible) {
      throw AnalysisError("merge: '" + paths[i] + "' is not a campaign journal (" +
                          replay.note + ")");
    }
    if (i == 0) {
      campaign = replay.header;
      campaign.shard_index = 0;  // identity is fingerprint/count, not the shard
      if (replay.header.shard_count <= 0) {
        throw AnalysisError("merge: '" + paths[i] + "' has a bad shard count");
      }
      shard_seen.assign(static_cast<size_t>(replay.header.shard_count), false);
      skip_warnings = replay.skip_warnings;
    } else if (replay.header.fingerprint != campaign.fingerprint ||
               replay.header.task_count != campaign.task_count ||
               replay.header.shard_count != campaign.shard_count) {
      throw AnalysisError("merge: '" + paths[i] +
                          "' belongs to a different campaign than '" + paths[0] + "'");
    }
    if (replay.header.shard_index < 0 ||
        replay.header.shard_index >= replay.header.shard_count) {
      throw AnalysisError("merge: '" + paths[i] + "' has a bad shard index");
    }
    shard_seen[static_cast<size_t>(replay.header.shard_index)] = true;
    for (const auto& [index, row] : replay.rows) rows[index] = row;
  }

  for (size_t shard = 0; shard < shard_seen.size(); ++shard) {
    if (!shard_seen[shard]) {
      throw AnalysisError("merge: shard " + std::to_string(shard) + "/" +
                          std::to_string(shard_seen.size()) + " has no journal");
    }
  }
  std::vector<std::uint64_t> missing;
  for (std::uint64_t index = 0; index < campaign.task_count; ++index) {
    if (!rows.contains(index)) missing.push_back(index);
  }
  if (!missing.empty()) {
    throw AnalysisError(
        "merge: " + std::to_string(missing.size()) + " of " +
        std::to_string(campaign.task_count) + " task(s) have no checkpointed result " +
        "(first missing index " + std::to_string(missing.front()) +
        "); resume the incomplete shard(s) before merging");
  }

  // Assemble exactly as CampaignRunner::run() does: skip warnings first,
  // then rows (and their derived warnings) in global task order, then the
  // degenerate-SPFM note.
  FmedaResult result;
  result.system = "circuit";
  result.warnings = skip_warnings;
  for (auto& [index, row] : rows) {
    std::string warning = outcome_warning(row);
    if (!warning.empty()) result.warnings.push_back(std::move(warning));
    result.rows.push_back(std::move(row));
  }
  if (!result.has_safety_related()) {
    result.warnings.push_back(
        "no safety-related hardware identified; the SPFM denominator is empty and spfm() "
        "reports 1.0 by convention — this is not an ASIL-D claim");
  }
  return result;
}

}  // namespace decisive::core
