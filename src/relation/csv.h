#ifndef INCOGNITO_RELATION_CSV_H_
#define INCOGNITO_RELATION_CSV_H_

#include <string>

#include "common/status.h"
#include "relation/table.h"
#include "robust/retry.h"

namespace incognito {

/// Options controlling CSV import.
struct CsvReadOptions {
  /// Field separator.
  char separator = ',';
  /// If true, the first line is a header naming the columns.
  bool has_header = true;
  /// If true, attempt to parse each column as int64, then double, falling
  /// back to string (a column gets the narrowest type every row satisfies).
  bool infer_types = true;
  /// Records longer than this many bytes (all their lines, when a quoted
  /// field spans line breaks) are rejected with InvalidArgument (guards
  /// against pathological or corrupt input). 0 means unlimited.
  size_t max_row_bytes = 1 << 20;
  /// Retry policy for the file read (transient I/O errors only). Default
  /// RetryPolicy::None(): a failed open/read surfaces immediately, which
  /// the fault-injection CLI tests rely on. Opt in for flaky filesystems.
  RetryPolicy retry = RetryPolicy::None();
};

/// Reads a CSV file into a Table (RFC 4180). Fields may be double-quoted;
/// embedded quotes are escaped by doubling (""), and a quoted field may
/// hold separators and line breaks. One '\r' before a line break ending a
/// record is dropped. An unterminated quote fails with InvalidArgument
/// naming the line its record starts on. Each column's dictionary holds
/// its values in first-seen order.
Result<Table> ReadCsv(const std::string& path,
                      const CsvReadOptions& options = {});

/// Parses CSV from an in-memory string (same semantics as ReadCsv).
Result<Table> ParseCsv(const std::string& content,
                       const CsvReadOptions& options = {});

/// Writes a table to a CSV file with a header row. Values containing the
/// separator, quotes, '\n' or '\r' are quoted, so ReadCsv gives back
/// every value (Value::ToString renders doubles exactly).
Status WriteCsv(const Table& table, const std::string& path,
                char separator = ',');

/// Serializes a table to a CSV string (same semantics as WriteCsv).
std::string ToCsvString(const Table& table, char separator = ',');

}  // namespace incognito

#endif  // INCOGNITO_RELATION_CSV_H_
