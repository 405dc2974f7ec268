// libFuzzer harness for the CSV parser: any byte sequence must either
// parse into a table or come back as a clean InvalidArgument — never
// crash, leak, or trip a sanitizer — and every table it parses must
// survive a write→parse round trip unchanged. Build with
// -DINCOGNITO_FUZZERS=ON (see tests/fuzz/CMakeLists.txt for the smoke-run
// recipe).

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "relation/csv.h"

namespace {

/// Writes `table` and parses it back with `options` (no row limit: quoting
/// may lengthen a row); the result must hold the same tuples under the
/// same schema.
void CheckRoundTrip(const incognito::Table& table,
                    incognito::CsvReadOptions options) {
  options.max_row_bytes = 0;
  incognito::Result<incognito::Table> back =
      incognito::ParseCsv(incognito::ToCsvString(table), options);
  if (!back.ok() || !table.MultisetEquals(back.value())) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string content(reinterpret_cast<const char*>(data), size);

  // Default options (header + type inference).
  incognito::Result<incognito::Table> t1 = incognito::ParseCsv(content);
  if (t1.ok()) CheckRoundTrip(t1.value(), {});

  // Headerless, string-typed, with a tight row limit to exercise the
  // max-row-bytes guard. The writer always emits a header (col0, col1,
  // ...), so the round trip reads one.
  incognito::CsvReadOptions opts;
  opts.has_header = false;
  opts.infer_types = false;
  opts.max_row_bytes = 256;
  incognito::Result<incognito::Table> t2 = incognito::ParseCsv(content, opts);
  if (t2.ok()) {
    incognito::CsvReadOptions back_opts;
    back_opts.infer_types = false;
    CheckRoundTrip(t2.value(), back_opts);
  }
  return 0;
}
