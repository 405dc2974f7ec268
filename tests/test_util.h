#ifndef INCOGNITO_TESTS_TEST_UTIL_H_
#define INCOGNITO_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "hierarchy/hierarchy.h"
#include "lattice/lattice.h"
#include "lattice/node.h"
#include "relation/csv.h"
#include "relation/table.h"

namespace incognito {
namespace testing_util {

/// A randomly generated dataset for property tests.
struct RandomDataset {
  Table table;
  QuasiIdentifier qid;
};

/// Builds a random well-formed hierarchy over `domain_size` base values
/// with `height` generalization levels. Level sizes shrink geometrically;
/// parent maps are random but surjective; the top level has one value.
inline ValueHierarchy MakeRandomHierarchy(const std::string& name,
                                          size_t domain_size, size_t height,
                                          Rng& rng) {
  std::vector<size_t> sizes(height + 1);
  sizes[0] = domain_size;
  for (size_t l = 1; l <= height; ++l) {
    size_t prev = sizes[l - 1];
    size_t next = std::max<size_t>(1, prev / 2);
    if (l == height) next = 1;  // single root
    if (next >= prev && prev > 1) next = prev - 1;
    sizes[l] = next;
  }
  std::vector<std::vector<Value>> level_values(height + 1);
  for (size_t l = 0; l <= height; ++l) {
    for (size_t c = 0; c < sizes[l]; ++c) {
      level_values[l].push_back(
          Value(StringPrintf("%s_L%zu_%zu", name.c_str(), l, c)));
    }
  }
  std::vector<std::vector<int32_t>> parents(height);
  for (size_t l = 0; l < height; ++l) {
    parents[l].resize(sizes[l]);
    // Surjectivity: the first sizes[l+1] children map to distinct parents.
    for (size_t c = 0; c < sizes[l]; ++c) {
      if (c < sizes[l + 1]) {
        parents[l][c] = static_cast<int32_t>(c);
      } else {
        parents[l][c] = static_cast<int32_t>(rng.Uniform(sizes[l + 1]));
      }
    }
  }
  Result<ValueHierarchy> h = ValueHierarchy::Create(name, level_values,
                                                    parents);
  // Test helper: construction from valid shapes cannot fail.
  return std::move(h).value();
}

/// Options for MakeRandomDataset.
struct RandomDatasetOptions {
  size_t num_attrs = 3;
  size_t min_domain = 2;
  size_t max_domain = 8;
  size_t max_height = 3;
  size_t num_rows = 60;
};

/// Builds a random table + quasi-identifier. Every value of every domain
/// is pre-inserted in the dictionaries so hierarchies align.
inline RandomDataset MakeRandomDataset(Rng& rng,
                                       const RandomDatasetOptions& opts = {}) {
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < opts.num_attrs; ++i) {
    specs.push_back({StringPrintf("attr%zu", i), DataType::kString});
  }
  Table table{Schema(specs)};

  std::vector<size_t> domain_sizes(opts.num_attrs);
  std::vector<size_t> heights(opts.num_attrs);
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < opts.num_attrs; ++i) {
    domain_sizes[i] =
        opts.min_domain + rng.Uniform(opts.max_domain - opts.min_domain + 1);
    heights[i] = 1 + rng.Uniform(opts.max_height);
    ValueHierarchy h = MakeRandomHierarchy(StringPrintf("attr%zu", i),
                                           domain_sizes[i], heights[i], rng);
    // Prefill the dictionary to match the hierarchy's base domain.
    Dictionary& dict = table.mutable_dictionary(i);
    for (size_t c = 0; c < domain_sizes[i]; ++c) {
      dict.GetOrInsert(h.LevelValue(0, static_cast<int32_t>(c)));
    }
    hierarchies.emplace_back(StringPrintf("attr%zu", i), std::move(h));
  }
  std::vector<int32_t> codes(opts.num_attrs);
  for (size_t r = 0; r < opts.num_rows; ++r) {
    for (size_t i = 0; i < opts.num_attrs; ++i) {
      codes[i] = static_cast<int32_t>(rng.Uniform(domain_sizes[i]));
    }
    table.AppendRowCodes(codes);
  }
  Result<QuasiIdentifier> qid =
      QuasiIdentifier::Create(table, std::move(hierarchies));
  RandomDataset out;
  out.table = std::move(table);
  out.qid = std::move(qid).value();
  return out;
}

/// Builds the vector-key fallback fixture: six attributes whose 4096-value
/// domains need 72 key bits — beyond the 64-bit packed fast path — each
/// with a two-level (value, '*') hierarchy. Row values are drawn from a
/// small range so groups repeat despite the huge domains. Deterministic:
/// the same `num_rows` always yields the same table.
inline RandomDataset MakeWideFallbackDataset(size_t num_rows) {
  const size_t kAttrs = 6;
  const size_t kDomain = 4096;
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < kAttrs; ++i) {
    specs.push_back({StringPrintf("a%zu", i), DataType::kInt64});
  }
  Table table{Schema(specs)};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < kAttrs; ++i) {
    Dictionary& dict = table.mutable_dictionary(i);
    std::vector<std::vector<Value>> levels(2);
    std::vector<std::vector<int32_t>> parents(1);
    for (size_t v = 0; v < kDomain; ++v) {
      Value value(static_cast<int64_t>(v));
      dict.GetOrInsert(value);
      levels[0].push_back(value);
      parents[0].push_back(0);
    }
    levels[1].push_back(Value("*"));
    hierarchies.emplace_back(
        StringPrintf("a%zu", i),
        ValueHierarchy::Create(StringPrintf("a%zu", i), levels, parents)
            .value());
  }
  Rng rng(31337);
  std::vector<int32_t> codes(kAttrs);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t i = 0; i < kAttrs; ++i) {
      codes[i] = static_cast<int32_t>(rng.Uniform(3));
    }
    table.AppendRowCodes(codes);
  }
  Result<QuasiIdentifier> qid =
      QuasiIdentifier::Create(table, std::move(hierarchies));
  RandomDataset out;
  out.table = std::move(table);
  out.qid = std::move(qid).value();
  return out;
}

/// Canonical comparable form of a node set.
inline std::set<std::string> NodeSet(const std::vector<SubsetNode>& nodes) {
  std::set<std::string> out;
  for (const SubsetNode& n : nodes) out.insert(n.ToString());
  return out;
}

/// The brute-force referee: every full-QID generalization in the lattice
/// with respect to which `table` is k-anonymous, each checked with its own
/// scan. Sound and complete by construction; exponential in the QID size.
inline std::set<std::string> Oracle(const Table& table,
                                    const QuasiIdentifier& qid,
                                    const AnonymizationConfig& config) {
  GeneralizationLattice lattice(qid.MaxLevels());
  std::set<std::string> out;
  for (const LevelVector& v : lattice.AllNodesByHeight()) {
    SubsetNode node = SubsetNode::Full(v);
    if (IsKAnonymous(table, qid, node, config)) out.insert(node.ToString());
  }
  return out;
}

/// One QID group of the (k, ℓ) oracle: its tuple count and the distinct
/// codes of the sensitive column among its tuples.
struct SensitiveGroup {
  int64_t count = 0;
  std::set<int32_t> sensitive;
};

/// A std::map GROUP BY of `node`'s generalized QID codes, collecting the
/// distinct sensitive codes per group. It reads only the table's codes and
/// the hierarchies' base-to-level maps, so it shares nothing with
/// src/freq.
inline std::map<std::vector<int32_t>, SensitiveGroup> SensitiveGroups(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    size_t sensitive_column) {
  std::map<std::vector<int32_t>, SensitiveGroup> groups;
  std::vector<int32_t> key(node.size());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < node.size(); ++i) {
      const size_t d = static_cast<size_t>(node.dims[i]);
      key[i] = qid.hierarchy(d).BaseToLevelMap(
          static_cast<size_t>(node.levels[i]))[static_cast<size_t>(
          table.GetCode(r, qid.column(d)))];
    }
    SensitiveGroup& group = groups[key];
    ++group.count;
    group.sensitive.insert(table.GetCode(r, sensitive_column));
  }
  return groups;
}

/// Tuples in groups of `node` with fewer than k tuples or fewer than l
/// distinct sensitive values.
inline int64_t DiversityViolations(const Table& table,
                                   const QuasiIdentifier& qid,
                                   const SubsetNode& node,
                                   size_t sensitive_column, int64_t k,
                                   int64_t l) {
  int64_t violating = 0;
  for (const auto& [key, group] :
       SensitiveGroups(table, qid, node, sensitive_column)) {
    (void)key;
    if (group.count < k ||
        static_cast<int64_t>(group.sensitive.size()) < l) {
      violating += group.count;
    }
  }
  return violating;
}

/// The (k, ℓ) brute-force referee: every full-QID generalization with at
/// most config.max_suppressed tuples in groups violating distinct
/// (k, ℓ)-diversity, each grouped on its own.
inline std::set<std::string> DiversityOracle(const Table& table,
                                             const QuasiIdentifier& qid,
                                             const AnonymizationConfig& config,
                                             size_t sensitive_column,
                                             int64_t l) {
  GeneralizationLattice lattice(qid.MaxLevels());
  std::set<std::string> out;
  for (const LevelVector& v : lattice.AllNodesByHeight()) {
    SubsetNode node = SubsetNode::Full(v);
    if (DiversityViolations(table, qid, node, sensitive_column, config.k,
                            l) <= config.max_suppressed) {
      out.insert(node.ToString());
    }
  }
  return out;
}

/// A few-row table whose QID has `num_attrs` height-1 attributes. Row r
/// (of 8) generalizes to bit (a % 3) of r in attribute a. Attributes with
/// a % 3 == 1 hold r / 2 (pairs of rows); the others hold r (all
/// distinct). With k = 2 an attribute subset is k-anonymous at full
/// generalization iff it covers at most two of the three bit classes, so
/// the subsets covering all three have no survivors and the Incognito
/// subset DAG never materializes most of them.
inline RandomDataset MakeWideQidDataset(size_t num_attrs) {
  const int32_t kRows = 8;
  std::vector<ColumnSpec> specs;
  for (size_t i = 0; i < num_attrs; ++i) {
    specs.push_back({StringPrintf("w%zu", i), DataType::kInt64});
  }
  Table table{Schema(specs)};
  std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
  for (size_t i = 0; i < num_attrs; ++i) {
    const int32_t bit = static_cast<int32_t>(i % 3);
    const int32_t shift = bit == 1 ? 1 : 0;  // value = r >> shift
    Dictionary& dict = table.mutable_dictionary(i);
    std::vector<std::vector<Value>> levels(2);
    std::vector<std::vector<int32_t>> parents(1);
    for (int32_t v = 0; v < (kRows >> shift); ++v) {
      Value value(static_cast<int64_t>(v));
      dict.GetOrInsert(value);
      levels[0].push_back(value);
      parents[0].push_back(((v << shift) >> bit) & 1);
    }
    levels[1] = {Value("b0"), Value("b1")};
    hierarchies.emplace_back(
        StringPrintf("w%zu", i),
        ValueHierarchy::Create(StringPrintf("w%zu", i), levels, parents)
            .value());
  }
  std::vector<int32_t> codes(num_attrs);
  for (int32_t r = 0; r < kRows; ++r) {
    for (size_t i = 0; i < num_attrs; ++i) {
      codes[i] = i % 3 == 1 ? r >> 1 : r;
    }
    table.AppendRowCodes(codes);
  }
  RandomDataset out;
  out.qid = QuasiIdentifier::Create(table, std::move(hierarchies)).value();
  out.table = std::move(table);
  return out;
}

/// The reference CSV parser: the line-at-a-time, Value-per-cell algorithm
/// ParseCsv replaced (getline per line, every cell kept as a string, type
/// inference and Value conversion per cell, AppendRow per row). Kept as a
/// referee for the code-level parser, like Oracle for the search. It does
/// not accept line breaks inside quoted fields ("unterminated quote").
inline Result<Table> ReferenceParseCsv(const std::string& content,
                                       const CsvReadOptions& options = {}) {
  auto split = [](const std::string& line, char sep,
                  std::vector<std::string>* fields) {
    fields->clear();
    std::string cur;
    bool in_quotes = false;
    for (size_t i = 0; i < line.size(); ++i) {
      char ch = line[i];
      if (in_quotes) {
        if (ch == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            cur += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          cur += ch;
        }
      } else if (ch == '"' && cur.empty()) {
        in_quotes = true;
      } else if (ch == sep) {
        fields->push_back(std::move(cur));
        cur.clear();
      } else {
        cur += ch;
      }
    }
    if (in_quotes) return false;
    fields->push_back(std::move(cur));
    return true;
  };
  auto infer = [](const std::vector<std::vector<std::string>>& rows,
                  size_t col) {
    bool all_int = true, all_double = true, any_value = false;
    for (const auto& row : rows) {
      const std::string& cell = row[col];
      if (cell.empty()) continue;
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
  };
  auto to_value = [](const std::string& cell, DataType type) {
    if (cell.empty()) return Value();
    if (type == DataType::kInt64) {
      int64_t v = 0;
      ParseInt64(cell, &v);
      return Value(v);
    }
    if (type == DataType::kDouble) {
      double v = 0;
      ParseDouble(cell, &v);
      return Value(v);
    }
    return Value(cell);
  };

  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::istringstream in(content);
  std::string line;
  size_t line_no = 0;
  size_t arity = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() && in.eof()) break;
    if (options.max_row_bytes > 0 && line.size() > options.max_row_bytes) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu is %zu bytes, over the %zu-byte row limit", line_no,
          line.size(), options.max_row_bytes));
    }
    if (line.find('\0') != std::string::npos) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu contains an embedded NUL byte", line_no));
    }
    std::vector<std::string> fields;
    if (!split(line, options.separator, &fields)) {
      return Status::InvalidArgument(
          StringPrintf("unterminated quote on line %zu", line_no));
    }
    if (line_no == 1 && options.has_header) {
      header = std::move(fields);
      arity = header.size();
      continue;
    }
    if (arity == 0) arity = fields.size();
    if (fields.size() != arity) {
      return Status::InvalidArgument(StringPrintf(
          "line %zu has %zu fields, expected %zu", line_no, fields.size(),
          arity));
    }
    rows.push_back(std::move(fields));
  }
  if (arity == 0) return Status::InvalidArgument("empty CSV input");

  std::vector<ColumnSpec> specs;
  for (size_t c = 0; c < arity; ++c) {
    ColumnSpec spec;
    spec.name = options.has_header ? header[c] : StringPrintf("col%zu", c);
    spec.type = options.infer_types && !rows.empty() ? infer(rows, c)
                                                     : DataType::kString;
    specs.push_back(std::move(spec));
  }
  Table table{Schema(std::move(specs))};
  std::vector<Value> row_values(arity);
  for (const auto& row : rows) {
    for (size_t c = 0; c < arity; ++c) {
      row_values[c] = to_value(row[c], table.schema().column(c).type);
    }
    Status appended = table.AppendRow(row_values);
    if (!appended.ok()) return appended;
  }
  return table;
}

/// Makes a full-QID SubsetNode from a level vector.
inline SubsetNode FullNode(std::vector<int32_t> levels) {
  return SubsetNode::Full(std::move(levels));
}

}  // namespace testing_util
}  // namespace incognito

#endif  // INCOGNITO_TESTS_TEST_UTIL_H_
