#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "common/random.h"
#include "relation/csv.h"
#include "relation/record_scanner.h"
#include "test_util.h"

namespace incognito {
namespace {

TEST(CsvTest, ParseSimpleWithHeader) {
  Result<Table> t = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->schema().column(0).name, "a");
  EXPECT_EQ(t->schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(t->schema().column(1).type, DataType::kString);
  EXPECT_EQ(t->GetValue(1, 0), Value(int64_t{2}));
  EXPECT_EQ(t->GetValue(0, 1), Value("x"));
}

TEST(CsvTest, TypeInferenceDoubleAndFallback) {
  Result<Table> t = ParseCsv("a,b,c\n1.5,1,1\n2,x,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().column(0).type, DataType::kDouble);
  EXPECT_EQ(t->schema().column(1).type, DataType::kString);
  EXPECT_EQ(t->schema().column(2).type, DataType::kInt64);
}

TEST(CsvTest, NoHeaderNamesColumns) {
  CsvReadOptions opts;
  opts.has_header = false;
  Result<Table> t = ParseCsv("1,2\n3,4\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().column(0).name, "col0");
  EXPECT_EQ(t->num_rows(), 2u);
}

TEST(CsvTest, QuotedFields) {
  Result<Table> t = ParseCsv("a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 0), Value("x,y"));
  EXPECT_EQ(t->GetValue(0, 1), Value("he said \"hi\""));
}

TEST(CsvTest, EmptyFieldIsNull) {
  Result<Table> t = ParseCsv("a,b\n1,\n2,z\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->GetValue(0, 1).is_null());
  EXPECT_EQ(t->GetValue(1, 1), Value("z"));
}

TEST(CsvTest, ArityMismatchFails) {
  Result<Table> t = ParseCsv("a,b\n1,2\n3\n");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, UnterminatedQuoteFails) {
  Result<Table> t = ParseCsv("a\n\"oops\n");
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, EmptyInputFails) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, CrLfLineEndings) {
  Result<Table> t = ParseCsv("a,b\r\n1,x\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 1), Value("x"));
}

TEST(CsvTest, CustomSeparator) {
  CsvReadOptions opts;
  opts.separator = ';';
  Result<Table> t = ParseCsv("a;b\n1;2\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetValue(0, 1), Value(int64_t{2}));
}

TEST(CsvTest, DisableTypeInference) {
  CsvReadOptions opts;
  opts.infer_types = false;
  Result<Table> t = ParseCsv("a\n123\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().column(0).type, DataType::kString);
  EXPECT_EQ(t->GetValue(0, 0), Value("123"));
}

TEST(CsvTest, RoundTripThroughString) {
  Result<Table> t = ParseCsv("name,n\n\"a,b\",1\nplain,2\n");
  ASSERT_TRUE(t.ok());
  std::string serialized = ToCsvString(t.value());
  Result<Table> back = ParseCsv(serialized);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(t->MultisetEquals(back.value()));
}

TEST(CsvTest, RoundTripThroughFile) {
  Result<Table> t = ParseCsv("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  std::string path = ::testing::TempDir() + "/incognito_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t.value(), path).ok());
  Result<Table> back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(t->MultisetEquals(back.value()));
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/dir/x.csv").status().code(),
            StatusCode::kIOError);
}

std::string DataPath(const std::string& name) {
  return std::string(INCOGNITO_TEST_DATA_DIR) + "/" + name;
}

TEST(CsvTest, CrlfLineEndingsAreStripped) {
  Result<Table> t = ReadCsv(DataPath("crlf_rows.csv"));
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetValue(0, 1), Value("x"));  // no trailing \r in the cell
}

TEST(CsvTest, EmbeddedNulByteIsRejected) {
  Result<Table> t = ReadCsv(DataPath("malformed_nul.csv"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("NUL"), std::string::npos);
}

TEST(CsvTest, UnterminatedQuoteIsRejected) {
  Result<Table> t = ReadCsv(DataPath("malformed_unterminated.csv"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("unterminated"), std::string::npos);
}

TEST(CsvTest, RaggedRowIsRejected) {
  Result<Table> t = ReadCsv(DataPath("malformed_ragged.csv"));
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RowOverMaxRowBytesIsRejected) {
  CsvReadOptions opts;
  opts.max_row_bytes = 1024;  // the fixture's data row is ~2 KiB
  Result<Table> t = ReadCsv(DataPath("malformed_long_row.csv"), opts);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("row limit"), std::string::npos);
  // The default limit (1 MiB) accepts the same file.
  EXPECT_TRUE(ReadCsv(DataPath("malformed_long_row.csv")).ok());
  // max_row_bytes = 0 disables the guard entirely.
  opts.max_row_bytes = 0;
  EXPECT_TRUE(ReadCsv(DataPath("malformed_long_row.csv"), opts).ok());
}

TEST(CsvTest, QuotedNewlineIsFieldContent) {
  Result<Table> t = ParseCsv("a,b\n\"two\nlines\",1\n\"x\r\ny\",2\nz,3\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->GetValue(0, 0), Value("two\nlines"));
  EXPECT_EQ(t->GetValue(1, 0), Value("x\r\ny"));
  EXPECT_EQ(t->GetValue(2, 0), Value("z"));
  EXPECT_EQ(t->schema().column(1).type, DataType::kInt64);
}

TEST(CsvTest, UnterminatedQuoteNamesTheRecordsFirstLine) {
  Result<Table> t = ParseCsv("a,b\n1,2\n\"open,3\nmore\n4,5\n");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("unterminated quote on line 3"),
            std::string::npos)
      << t.status().message();
}

TEST(CsvTest, RowLimitCoversTheWholeRecord) {
  CsvReadOptions opts;
  opts.max_row_bytes = 10;
  // Each line of the quoted record is short; the record is not.
  Result<Table> t = ParseCsv("a\n\"12345\n12345\n12345\"\n", opts);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("row limit"), std::string::npos);
  opts.max_row_bytes = 0;
  EXPECT_TRUE(ParseCsv("a\n\"12345\n12345\n12345\"\n", opts).ok());
}

TEST(CsvTest, StrayQuoteStopsAtTheRowLimit) {
  // A stray quote opens a field that would run to the end of the buffer.
  std::string text = "a\n\"x\n";
  for (int i = 0; i < 10000; ++i) text += "bcdef\n";
  RecordScanner scanner(text, ',', /*quoting=*/true, /*max_record_bytes=*/64);
  ASSERT_TRUE(scanner.Next());
  ASSERT_TRUE(scanner.Next());
  EXPECT_FALSE(scanner.unterminated_quote());
  EXPECT_GT(scanner.record().size(), 64u);
  EXPECT_LE(scanner.record().size(), 64u + 6u);
  size_t scanned = 0;
  for (std::string_view field : scanner.fields()) scanned += field.size();
  EXPECT_LE(scanned, 64u);

  CsvReadOptions opts;
  opts.max_row_bytes = 64;
  Result<Table> t = ParseCsv(text, opts);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(t.status().message().find("line 2"), std::string::npos)
      << t.status().message();
  EXPECT_NE(t.status().message().find("row limit"), std::string::npos)
      << t.status().message();
  opts.max_row_bytes = 0;
  t = ParseCsv(text, opts);
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("unterminated quote on line 2"),
            std::string::npos)
      << t.status().message();
}

TEST(CsvTest, SpellingsOfOneValueShareTheFirstCode) {
  Result<Table> t = ParseCsv("n,s\n07,x\n7,y\n 7,x\n8,y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().column(0).type, DataType::kInt64);
  EXPECT_EQ(t->dictionary(0).size(), 2u);
  EXPECT_EQ(t->ColumnCodes(0), (std::vector<int32_t>{0, 0, 0, 1}));
  EXPECT_EQ(t->ColumnCodes(1), (std::vector<int32_t>{0, 1, 0, 1}));
}

TEST(CsvTest, NaNSpellingsShareOneCode) {
  Result<Table> t = ParseCsv("d\n1.5\nnan\nNaN\n1.5\nnan\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->schema().column(0).type, DataType::kDouble);
  EXPECT_EQ(t->dictionary(0).size(), 2u);
  EXPECT_EQ(t->ColumnCodes(0), (std::vector<int32_t>{0, 1, 1, 0, 1}));
}

TEST(CsvTest, WriterKeepsNewlinesCarriageReturnsAndDoubles) {
  Table t{Schema({{"s", DataType::kString}, {"d", DataType::kDouble}})};
  ASSERT_TRUE(t.AppendRow({Value("line\nbreak"), Value(1234567.25)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("trailing\r"), Value(0.1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value("plain"), Value(3.0)}).ok());
  std::string csv = ToCsvString(t);
  EXPECT_NE(csv.find("1234567.25"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"trailing\r\""), std::string::npos) << csv;
  EXPECT_NE(csv.find("3.0"), std::string::npos) << csv;
  Result<Table> back = ParseCsv(csv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(t.MultisetEquals(back.value()));
  EXPECT_EQ(back->GetValue(0, 1), Value(1234567.25));
  EXPECT_EQ(back->GetValue(1, 0), Value("trailing\r"));
}

/// A random string over characters the writer must quote or keep.
std::string RandomText(Rng& rng, size_t max_len) {
  static const char kChars[] = {'a', 'b', '7', ' ', ',', '"', '\n', '\r',
                                ';', '-'};
  std::string s;
  size_t len = rng.Uniform(max_len + 1);
  for (size_t i = 0; i < len; ++i) s += kChars[rng.Uniform(sizeof(kChars))];
  return s;
}

double RandomDouble(Rng& rng) {
  switch (rng.Uniform(8)) {
    case 0:
      return 1234567.25;
    case 1:
      return static_cast<double>(rng.UniformRange(-1000, 1000));  // integral
    case 2:
      return static_cast<double>(rng.UniformRange(-4000, 4000)) / 8.0;
    case 3:
      return 1.0 / static_cast<double>(rng.UniformRange(3, 99));
    case 4:
      return static_cast<double>(rng.UniformRange(1, 1 << 30)) * 1e300;
    case 5:
      return 1e16 + static_cast<double>(rng.Uniform(64)) * 2;  // big, integral
    case 6:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(rng.UniformRange(1, 1000));
    default:
      return (rng.NextDouble() - 0.5) * 1e6;
  }
}

TEST(CsvTest, WriteThenParseRoundTripsRandomTables) {
  Rng rng(20050614);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t num_columns = 1 + rng.Uniform(5);
    std::vector<ColumnSpec> specs;
    for (size_t c = 0; c < num_columns; ++c) {
      specs.push_back({RandomText(rng, 4) + StringPrintf("%zu", c),
                       static_cast<DataType>(rng.Uniform(3))});
    }
    Table table{Schema(specs)};
    const size_t num_rows = 1 + rng.Uniform(12);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < num_columns; ++c) {
        // Row 0 has no NULLs and a letter in every string, so reading the
        // file back infers each column's type again.
        if (r > 0 && rng.Uniform(5) == 0) {
          row.emplace_back();
          continue;
        }
        switch (specs[c].type) {
          case DataType::kInt64:
            row.emplace_back(rng.Uniform(4) == 0
                                 ? std::numeric_limits<int64_t>::min() +
                                       static_cast<int64_t>(rng.Uniform(2))
                                 : rng.UniformRange(-99, 99));
            break;
          case DataType::kDouble:
            row.emplace_back(RandomDouble(rng));
            break;
          case DataType::kString:
            row.emplace_back((r == 0 ? "a" : "") + RandomText(rng, 6));
            break;
        }
      }
      ASSERT_TRUE(table.AppendRow(row).ok());
    }
    std::string csv = ToCsvString(table);
    Result<Table> back = ParseCsv(csv, {});
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << csv;
    EXPECT_TRUE(table.MultisetEquals(back.value()))
        << table.ToString() << "\nread back as\n" << back->ToString();
  }
}

/// Random parser input over the bytes that steer the CSV grammar: a mix of
/// free byte strings and ragged grids of short cells.
std::string RandomCsvInput(Rng& rng) {
  static const char kBytes[] = {'a', '0', '7', '.', '-', ' ',
                                ',', '"', '\r', '\n', '\0'};
  auto byte = [&] { return kBytes[rng.Uniform(sizeof(kBytes))]; };
  std::string s;
  if (rng.Uniform(3) == 0) {
    size_t len = rng.Uniform(48);
    for (size_t i = 0; i < len; ++i) s += byte();
    return s;
  }
  static const char* const kCells[] = {
      "",  "7",    "07",  "0.7",   "-7",  " 7",     "7 ",  "a",
      ".", "-",    "0",   "-0",    "7.",  "\"a,7\"", "\"\"", "\"7\"\"\"",
      "a\"0", "\"0\"a", "0 7", "-.7", "\"\"\"", "7e7"};
  const size_t rows = rng.Uniform(7);
  const size_t cols = 1 + rng.Uniform(4);
  for (size_t r = 0; r < rows; ++r) {
    size_t width = rng.Uniform(8) == 0 ? 1 + rng.Uniform(4) : cols;
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) s += ',';
      if (rng.Uniform(10) == 0) {
        s += byte();
      } else {
        s += kCells[rng.Uniform(sizeof(kCells) / sizeof(kCells[0]))];
      }
    }
    if (r + 1 < rows || rng.Uniform(2) == 0) {
      s += rng.Uniform(4) == 0 ? "\r\n" : "\n";
    }
  }
  return s;
}

void ExpectSameTable(const Table& want, const Table& got,
                     const std::string& input) {
  ASSERT_TRUE(want.schema() == got.schema()) << input;
  ASSERT_EQ(want.num_rows(), got.num_rows()) << input;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Dictionary& a = want.dictionary(c);
    const Dictionary& b = got.dictionary(c);
    ASSERT_EQ(a.size(), b.size()) << "column " << c << " of " << input;
    for (size_t v = 0; v < a.size(); ++v) {
      const Value& x = a.value(static_cast<int32_t>(v));
      const Value& y = b.value(static_cast<int32_t>(v));
      EXPECT_TRUE(x == y && x.is_int64() == y.is_int64() &&
                  x.is_double() == y.is_double() &&
                  x.ToString() == y.ToString())
          << "column " << c << " value " << v << " of " << input;
    }
    EXPECT_EQ(want.ColumnCodes(c), got.ColumnCodes(c))
        << "column " << c << " of " << input;
  }
}

TEST(CsvTest, MatchesReferenceParserOnRandomInputs) {
  Rng rng(7);
  int compared_ok = 0, compared_error = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    std::string input = RandomCsvInput(rng);
    CsvReadOptions opts;
    opts.has_header = rng.Uniform(2) == 0;
    opts.infer_types = rng.Uniform(4) != 0;
    switch (rng.Uniform(3)) {
      case 0:
        opts.max_row_bytes = 1 + rng.Uniform(12);  // tight
        break;
      case 1:
        opts.max_row_bytes = 0;
        break;
      default:
        break;
    }
    Result<Table> want = testing_util::ReferenceParseCsv(input, opts);
    Result<Table> got = ParseCsv(input, opts);
    if (!want.ok() &&
        want.status().message().rfind("unterminated quote", 0) == 0) {
      // A line ending inside quotes: the new scanner reads the line break
      // as field content (RFC 4180), so the record may now be valid.
      EXPECT_TRUE(got.ok() ||
                  got.status().code() == StatusCode::kInvalidArgument)
          << input;
      continue;
    }
    ASSERT_EQ(want.ok(), got.ok())
        << "reference: " << want.status().ToString()
        << "\nnew: " << got.status().ToString() << "\ninput: " << input;
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << input;
      ++compared_error;
      continue;
    }
    ExpectSameTable(want.value(), got.value(), input);
    // What the parser accepts, the writer must give back (the fuzz
    // harness's check): the header comes back, quoting may lengthen rows.
    CsvReadOptions back_opts = opts;
    back_opts.has_header = true;
    back_opts.max_row_bytes = 0;
    Result<Table> back = ParseCsv(ToCsvString(got.value()), back_opts);
    ASSERT_TRUE(back.ok()) << input;
    EXPECT_TRUE(got->MultisetEquals(back.value())) << input;
    ++compared_ok;
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(compared_ok, 1000);
  EXPECT_GT(compared_error, 1000);
}

}  // namespace
}  // namespace incognito
