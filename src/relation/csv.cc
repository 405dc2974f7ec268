#include "relation/csv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string_view>

#include "common/strings.h"
#include "relation/record_scanner.h"
#include "robust/safe_io.h"

namespace incognito {
namespace {

/// Gives each distinct raw field string of one column a dense code in
/// first-seen order: an open-addressing table of (hash, code) slots over
/// the strings, so a repeated cell costs one hash and one compare, not a
/// Value.
class FieldCodes {
 public:
  FieldCodes() : slots_(16) {}

  /// Returns the code of `field`, adding it when new.
  int32_t Intern(std::string_view field) {
    const uint64_t hash = std::hash<std::string_view>()(field);
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    for (; slots_[i].code >= 0; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.hash == hash &&
          strings_[static_cast<size_t>(slot.code)] == field) {
        return slot.code;
      }
    }
    const int32_t code = static_cast<int32_t>(strings_.size());
    strings_.emplace_back(field);
    slots_[i] = {hash, code};
    if (strings_.size() * 2 > slots_.size()) Grow();
    return code;
  }

  /// The distinct strings, indexed by code.
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    int32_t code = -1;  // -1: empty
  };

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.code < 0) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].code >= 0) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::string> strings_;
};

/// Infers the narrowest type all cells of a column satisfy, from its
/// distinct raw strings.
DataType InferColumnType(const std::vector<std::string>& cells) {
  bool all_int = true, all_double = true, any_value = false;
  for (const std::string& cell : cells) {
    if (cell.empty()) continue;  // NULL — compatible with every type.
    any_value = true;
    int64_t iv;
    double dv;
    if (!ParseInt64(cell, &iv)) all_int = false;
    if (!ParseDouble(cell, &dv)) all_double = false;
    if (!all_int && !all_double) break;
  }
  if (!any_value) return DataType::kString;
  if (all_int) return DataType::kInt64;
  if (all_double) return DataType::kDouble;
  return DataType::kString;
}

Value CellToValue(const std::string& cell, DataType type) {
  if (cell.empty()) return Value();
  switch (type) {
    case DataType::kInt64: {
      int64_t v = 0;
      ParseInt64(cell, &v);
      return Value(v);
    }
    case DataType::kDouble: {
      double v = 0;
      ParseDouble(cell, &v);
      return Value(v);
    }
    case DataType::kString:
      return Value(cell);
  }
  return Value(cell);
}

std::string EscapeField(const std::string& field, char sep) {
  bool needs_quotes = field.find(sep) != std::string::npos ||
                      field.find('"') != std::string::npos ||
                      field.find('\n') != std::string::npos ||
                      field.find('\r') != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Table> ParseCsv(const std::string& content,
                       const CsvReadOptions& options) {
  RecordScanner scanner(content, options.separator, /*quoting=*/true,
                        options.max_row_bytes);
  std::vector<std::string> header;
  std::vector<FieldCodes> distinct;
  std::vector<std::vector<int32_t>> columns;
  size_t arity = 0;
  while (scanner.Next()) {
    const size_t line_no = scanner.line_no();
    const std::string_view record = scanner.record();
    if (record.empty() && scanner.at_end()) break;
    if (scanner.unterminated_quote()) {
      return Status::InvalidArgument(
          StringPrintf("unterminated quote on line %zu", line_no));
    }
    if (options.max_row_bytes > 0 && record.size() > options.max_row_bytes) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu is %zu bytes, over the %zu-byte row limit", line_no,
          record.size(), options.max_row_bytes));
    }
    if (std::memchr(record.data(), '\0', record.size()) != nullptr) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu contains an embedded NUL byte", line_no));
    }
    const std::vector<std::string_view>& fields = scanner.fields();
    if (arity == 0) {
      arity = fields.size();
      distinct.resize(arity);
      columns.resize(arity);
      if (line_no == 1 && options.has_header) {
        header.assign(fields.begin(), fields.end());
        continue;
      }
    }
    if (fields.size() != arity) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu has %zu fields, expected %zu", line_no, fields.size(),
          arity));
    }
    for (size_t c = 0; c < arity; ++c) {
      columns[c].push_back(distinct[c].Intern(fields[c]));
    }
  }
  if (arity == 0) return Status::InvalidArgument("empty CSV input");

  // Type each column and build its dictionary from the distinct raw
  // strings in first-seen order. Raw codes are first-seen too, so the
  // dictionary order is the cell order's; spellings of one value ("07",
  // "7") merge into its first code, and the remap rewrites the column.
  std::vector<ColumnSpec> specs;
  specs.reserve(arity);
  std::vector<Dictionary> dictionaries(arity);
  for (size_t c = 0; c < arity; ++c) {
    const std::vector<std::string>& cells = distinct[c].strings();
    ColumnSpec spec;
    spec.name = options.has_header ? header[c] : StringPrintf("col%zu", c);
    spec.type =
        options.infer_types ? InferColumnType(cells) : DataType::kString;
    std::vector<int32_t> remap(cells.size());
    bool identity = true;
    for (size_t raw = 0; raw < cells.size(); ++raw) {
      remap[raw] =
          dictionaries[c].GetOrInsert(CellToValue(cells[raw], spec.type));
      identity = identity && remap[raw] == static_cast<int32_t>(raw);
    }
    if (!identity) {
      for (int32_t& code : columns[c]) code = remap[static_cast<size_t>(code)];
    }
    specs.push_back(std::move(spec));
  }
  return Table::FromColumns(Schema(std::move(specs)), std::move(dictionaries),
                            std::move(columns));
}

Result<Table> ReadCsv(const std::string& path, const CsvReadOptions& options) {
  Result<std::string> content = RetryWithBackoff(
      options.retry, [&] { return ReadFileToString(path, "csv.read"); });
  INCOGNITO_RETURN_IF_ERROR(content.status());
  return ParseCsv(content.value(), options);
}

std::string ToCsvString(const Table& table, char sep) {
  const size_t num_columns = table.num_columns();
  const size_t num_rows = table.num_rows();
  std::string out;
  for (size_t c = 0; c < num_columns; ++c) {
    if (c > 0) out += sep;
    out += EscapeField(table.schema().column(c).name, sep);
  }
  out += '\n';

  // Render and escape each dictionary value a column uses once, into one
  // arena per column, then copy the rows out by code into a buffer sized
  // exactly. A row adds one separator or newline per column.
  struct Cell {
    size_t size = 0;
    size_t offset = 0;
  };
  std::vector<std::string> arenas(num_columns);
  std::vector<std::vector<Cell>> cells(num_columns);
  std::vector<const int32_t*> codes(num_columns);
  size_t bytes = out.size() + num_rows * std::max<size_t>(num_columns, 1);
  for (size_t c = 0; c < num_columns; ++c) {
    const Dictionary& dict = table.dictionary(c);
    codes[c] = table.ColumnCodes(c).data();
    std::vector<size_t> uses(dict.size(), 0);
    for (size_t r = 0; r < num_rows; ++r) {
      ++uses[static_cast<size_t>(codes[c][r])];
    }
    cells[c].resize(dict.size());
    for (size_t code = 0; code < dict.size(); ++code) {
      if (uses[code] == 0) continue;
      const std::string text =
          EscapeField(dict.value(static_cast<int32_t>(code)).ToString(), sep);
      cells[c][code] = {text.size(), arenas[c].size()};
      arenas[c] += text;
      bytes += uses[code] * text.size();
    }
  }
  const size_t header_bytes = out.size();
  out.resize(bytes);
  char* p = out.data() + header_bytes;
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t c = 0; c < num_columns; ++c) {
      if (c > 0) *p++ = sep;
      const Cell& cell = cells[c][static_cast<size_t>(codes[c][r])];
      std::memcpy(p, arenas[c].data() + cell.offset, cell.size);
      p += cell.size;
    }
    *p++ = '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path, char sep) {
  return WriteFileAtomic(path, ToCsvString(table, sep), "csv.write");
}

}  // namespace incognito
