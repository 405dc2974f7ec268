#include "hierarchy/csv_hierarchy.h"

#include <string_view>

#include "common/strings.h"
#include "hierarchy/builders.h"
#include "relation/record_scanner.h"
#include "robust/safe_io.h"

namespace incognito {

namespace {
/// Rows longer than this are rejected (corrupt-input guard).
constexpr size_t kMaxHierarchyRowBytes = 1 << 20;
}  // namespace

Result<ValueHierarchy> ParseHierarchyCsv(std::string attribute_name,
                                         const std::string& content,
                                         const Dictionary& base,
                                         char separator) {
  TaxonomyHierarchyBuilder builder{attribute_name};
  RecordScanner scanner(content, separator, /*quoting=*/false,
                        kMaxHierarchyRowBytes);
  size_t width = 0;
  while (scanner.Next()) {
    const size_t line_no = scanner.line_no();
    const std::string_view line = scanner.record();
    if (line.size() > kMaxHierarchyRowBytes) {
      return Status::InvalidArgument(StringPrintf(
          "hierarchy CSV '%s' line %zu is %zu bytes, over the %zu-byte row "
          "limit",
          attribute_name.c_str(), line_no, line.size(),
          kMaxHierarchyRowBytes));
    }
    if (line.find('\0') != std::string_view::npos) {
      return Status::InvalidArgument(StringPrintf(
          "hierarchy CSV '%s' line %zu contains an embedded NUL byte",
          attribute_name.c_str(), line_no));
    }
    if (StripWhitespace(line).empty()) continue;
    const std::vector<std::string_view>& fields = scanner.fields();
    if (fields.size() < 2) {
      return Status::InvalidArgument(StringPrintf(
          "hierarchy CSV '%s' line %zu: need at least leaf and one "
          "generalization level",
          attribute_name.c_str(), line_no));
    }
    if (width == 0) width = fields.size();
    if (fields.size() != width) {
      return Status::InvalidArgument(StringPrintf(
          "hierarchy CSV '%s' line %zu: %zu columns, expected %zu",
          attribute_name.c_str(), line_no, fields.size(), width));
    }
    // The leaf is matched against the base dictionary through the value's
    // string rendering (the builder keys leaves on labels), so numeric
    // leaves like "53715" match int64 dictionary values.
    std::vector<Value> ancestors;
    ancestors.reserve(width - 1);
    for (size_t c = 1; c < width; ++c) {
      ancestors.emplace_back(std::string(fields[c]));
    }
    builder.AddLeaf(Value(std::string(fields[0])), std::move(ancestors));
  }
  if (width == 0) {
    return Status::InvalidArgument("hierarchy CSV '" + attribute_name +
                                   "' is empty");
  }
  return builder.Build(base);
}

Result<ValueHierarchy> ReadHierarchyCsv(std::string attribute_name,
                                        const std::string& path,
                                        const Dictionary& base,
                                        char separator,
                                        const RetryPolicy& retry) {
  Result<std::string> content = RetryWithBackoff(
      retry, [&] { return ReadFileToString(path, "hierarchy_csv.read"); });
  INCOGNITO_RETURN_IF_ERROR(content.status());
  return ParseHierarchyCsv(std::move(attribute_name), content.value(), base,
                           separator);
}

std::string HierarchyToCsv(const ValueHierarchy& hierarchy, char separator) {
  std::string out;
  for (size_t base = 0; base < hierarchy.DomainSize(0); ++base) {
    for (size_t level = 0; level < hierarchy.num_levels(); ++level) {
      if (level > 0) out += separator;
      out += hierarchy
                 .LevelValue(level, hierarchy.Generalize(
                                        static_cast<int32_t>(base), level))
                 .ToString();
    }
    out += '\n';
  }
  return out;
}

Status WriteHierarchyCsv(const ValueHierarchy& hierarchy,
                         const std::string& path, char separator) {
  return WriteFileAtomic(path, HierarchyToCsv(hierarchy, separator),
                         "hierarchy_csv.write");
}

}  // namespace incognito
