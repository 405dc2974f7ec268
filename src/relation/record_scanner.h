#ifndef INCOGNITO_RELATION_RECORD_SCANNER_H_
#define INCOGNITO_RELATION_RECORD_SCANNER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace incognito {

/// Splits a text buffer into delimited records in one pass, the shared
/// front end of the table CSV and hierarchy CSV readers.
///
/// A record ends at '\n'; one '\r' right before it (or before the end of
/// the buffer) is dropped. Fields are the separator-delimited pieces of a
/// record, empty fields included. A record without a '"' is split with
/// memchr into views of the buffer itself. With `quoting`, a record that
/// holds a '"' takes the slow path: a field whose first character is '"'
/// is quoted, "" inside it is one literal quote, a separator or a line
/// break inside it is content (RFC 4180), and characters after its
/// closing quote are appended as they are. Such fields are unescaped into
/// scratch storage owned by the scanner. A quoted record stops taking
/// lines once it would grow past `max_record_bytes` (0: no cap), so a
/// stray '"' cannot pull the rest of the buffer into scratch; record()
/// then ends with the line that broke the cap and is longer than it, and
/// fields() hold only what came before that line.
///
/// The scanner reports what it found and never fails; callers decide which
/// records are errors (over-long, embedded NUL, unterminated quote, wrong
/// arity) and word the messages.
class RecordScanner {
 public:
  RecordScanner(std::string_view text, char separator, bool quoting,
                size_t max_record_bytes);

  /// Advances to the next record and splits it. Returns false once the
  /// buffer is exhausted. The views from fields() and record() stay valid
  /// until the next call.
  bool Next();

  /// The 1-based line the current record starts on.
  size_t line_no() const { return line_no_; }

  /// The current record's bytes: the lines it spans, without the final
  /// line terminator ('\n' and the '\r' before it).
  std::string_view record() const { return record_; }

  /// True when no '\n' follows the record (the buffer's last line).
  bool at_end() const { return at_end_; }

  /// True when a quoted field was still open at the end of the buffer.
  bool unterminated_quote() const { return unterminated_; }

  /// The current record's fields (unescaped when quoted).
  const std::vector<std::string_view>& fields() const { return fields_; }

 private:
  /// Finds the line starting at `pos_` and advances past it; sets
  /// `*line` to its bytes without the terminator and trailing '\r'.
  /// Returns true when a '\r' was dropped.
  bool TakeLine(std::string_view* line);
  void SplitPlain(std::string_view line);
  void SplitQuoted(std::string_view first_line, bool dropped_cr);

  std::string_view text_;
  char separator_;
  bool quoting_;
  size_t max_record_bytes_;
  size_t pos_ = 0;
  size_t next_line_no_ = 1;

  size_t line_no_ = 0;
  std::string_view record_;
  bool at_end_ = false;
  bool unterminated_ = false;
  std::vector<std::string_view> fields_;
  // Slow-path storage: unescaped field bytes back to back, and where each
  // field ends in them.
  std::string scratch_;
  std::vector<size_t> field_ends_;
};

}  // namespace incognito

#endif  // INCOGNITO_RELATION_RECORD_SCANNER_H_
