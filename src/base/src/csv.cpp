#include "decisive/base/csv.hpp"

#include <algorithm>
#include <array>

#include "decisive/base/error.hpp"
#include "decisive/base/persist.hpp"
#include "decisive/base/strings.hpp"

namespace decisive {

int CsvTable::column(std::string_view name) const noexcept {
  for (size_t i = 0; i < header.size(); ++i) {
    if (iequals(header[i], name)) return static_cast<int>(i);
  }
  return -1;
}

const std::string& CsvTable::at(size_t row, std::string_view column_name) const {
  const int col = column(column_name);
  if (col < 0) throw ModelError("csv table has no column '" + std::string(column_name) + "'");
  if (row >= rows.size()) throw ModelError("csv row index out of range");
  const auto& r = rows[row];
  if (static_cast<size_t>(col) >= r.size()) {
    static const std::string kEmpty;
    return kEmpty;
  }
  return r[static_cast<size_t>(col)];
}

CsvTable parse_csv(std::string_view text, char sep) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;

  auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"' && field.empty() && !field_started) {
      in_quotes = true;
      field_started = true;
    } else if (c == sep) {
      end_field();
    } else if (c == '\r') {
      // swallow; \n handles the record break
    } else if (c == '\n') {
      end_record();
    } else {
      field += c;
      field_started = true;
    }
  }
  if (in_quotes) throw ParseError("unterminated quoted field in CSV");
  if (field_started || !field.empty() || !record.empty()) end_record();

  CsvTable table;
  if (records.empty()) return table;
  table.header = std::move(records.front());
  for (auto& h : table.header) h = std::string(trim(h));
  table.rows.assign(std::make_move_iterator(records.begin() + 1),
                    std::make_move_iterator(records.end()));
  // Drop fully-empty trailing rows (common artefact of trailing newlines).
  while (!table.rows.empty()) {
    const auto& last = table.rows.back();
    bool all_empty = true;
    for (const auto& cell : last) {
      if (!trim(cell).empty()) { all_empty = false; break; }
    }
    if (!all_empty) break;
    table.rows.pop_back();
  }
  return table;
}

CsvTable read_csv_file(const std::string& path, char sep) {
  return parse_csv(read_whole_file(path, "CSV file"), sep);
}

namespace {

/// The bytes that force a cell into quotes (the separator, a quote and the
/// two line breaks), as a 256-entry table so the test costs one load a byte.
using QuoteTable = std::array<bool, 256>;

QuoteTable quote_table(char sep) {
  QuoteTable special{};
  for (const char c : {sep, '"', '\n', '\r'}) special[static_cast<unsigned char>(c)] = true;
  return special;
}

/// Appends one cell: a plain cell in one copy, any other one quoted, with
/// its quotes doubled.
void append_cell(std::string& out, const std::string& cell, const QuoteTable& special) {
  const bool plain = std::none_of(cell.begin(), cell.end(), [&special](char c) {
    return special[static_cast<unsigned char>(c)];
  });
  if (plain) {
    out += cell;
    return;
  }
  out += '"';
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void append_row(std::string& out, const std::vector<std::string>& row, char sep,
                const QuoteTable& special) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += sep;
    append_cell(out, row[i], special);
  }
  out += '\n';
}

size_t row_bytes(const std::vector<std::string>& row) {
  size_t bytes = row.size();  // separators plus the newline
  for (const auto& cell : row) bytes += cell.size();
  return bytes;
}

}  // namespace

std::string write_csv(const CsvTable& table, char sep) {
  // One sizing pass so the output grows once; quoting adds a few bytes at
  // most, which the final append absorbs.
  size_t bytes = row_bytes(table.header);
  for (const auto& row : table.rows) bytes += row_bytes(row);
  std::string out;
  out.reserve(bytes);
  const QuoteTable special = quote_table(sep);
  append_row(out, table.header, sep, special);
  for (const auto& row : table.rows) append_row(out, row, sep, special);
  return out;
}

void write_csv_file(const std::string& path, const CsvTable& table, char sep) {
  write_whole_file(path, write_csv(table, sep), "CSV file");
}

}  // namespace decisive
