#include "relation/record_scanner.h"

#include <cstring>

namespace incognito {

RecordScanner::RecordScanner(std::string_view text, char separator,
                             bool quoting, size_t max_record_bytes)
    : text_(text),
      separator_(separator),
      quoting_(quoting),
      max_record_bytes_(max_record_bytes) {}

bool RecordScanner::TakeLine(std::string_view* line) {
  const char* begin = text_.data() + pos_;
  const size_t left = text_.size() - pos_;
  const char* nl = static_cast<const char*>(std::memchr(begin, '\n', left));
  const size_t len = nl != nullptr ? static_cast<size_t>(nl - begin) : left;
  pos_ += nl != nullptr ? len + 1 : len;
  at_end_ = nl == nullptr;
  ++next_line_no_;
  const bool cr = len > 0 && begin[len - 1] == '\r';
  *line = std::string_view(begin, cr ? len - 1 : len);
  return cr;
}

bool RecordScanner::Next() {
  if (pos_ >= text_.size()) return false;
  line_no_ = next_line_no_;
  unterminated_ = false;
  std::string_view line;
  const bool cr = TakeLine(&line);
  if (quoting_ && std::memchr(line.data(), '"', line.size()) != nullptr) {
    SplitQuoted(line, cr);
  } else {
    record_ = line;
    SplitPlain(line);
  }
  return true;
}

void RecordScanner::SplitPlain(std::string_view line) {
  fields_.clear();
  const char* p = line.data();
  const char* end = p + line.size();
  while (true) {
    const char* sep = static_cast<const char*>(
        std::memchr(p, separator_, static_cast<size_t>(end - p)));
    if (sep == nullptr) {
      fields_.emplace_back(p, static_cast<size_t>(end - p));
      return;
    }
    fields_.emplace_back(p, static_cast<size_t>(sep - p));
    p = sep + 1;
  }
}

void RecordScanner::SplitQuoted(std::string_view line, bool dropped_cr) {
  const char* record_begin = line.data();
  scratch_.clear();
  field_ends_.clear();
  size_t field_start = 0;
  bool in_quotes = false;
  while (true) {
    for (size_t i = 0; i < line.size(); ++i) {
      const char ch = line[i];
      if (in_quotes) {
        if (ch == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            scratch_ += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          scratch_ += ch;
        }
      } else if (ch == '"' && scratch_.size() == field_start) {
        in_quotes = true;
      } else if (ch == separator_) {
        field_ends_.push_back(scratch_.size());
        field_start = scratch_.size();
      } else {
        scratch_ += ch;
      }
    }
    if (!in_quotes) break;
    if (at_end_) {
      unterminated_ = true;
      break;
    }
    // The quoted field runs on past the line break, which is content,
    // unless the next line takes the record past the byte cap.
    const bool break_had_cr = dropped_cr;
    dropped_cr = TakeLine(&line);
    if (max_record_bytes_ > 0 &&
        static_cast<size_t>(line.data() + line.size() - record_begin) >
            max_record_bytes_) {
      break;
    }
    if (break_had_cr) scratch_ += '\r';
    scratch_ += '\n';
  }
  field_ends_.push_back(scratch_.size());
  record_ = std::string_view(
      record_begin, static_cast<size_t>(line.data() + line.size() -
                                        record_begin));
  fields_.clear();
  size_t begin = 0;
  for (size_t end : field_ends_) {
    fields_.emplace_back(scratch_.data() + begin, end - begin);
    begin = end;
  }
}

}  // namespace incognito
