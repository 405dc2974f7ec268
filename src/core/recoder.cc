#include "core/recoder.h"

#include <set>
#include <unordered_set>

#include "common/strings.h"
#include "freq/frequency_set.h"
#include "freq/key_codec.h"

namespace incognito {

Status CheckFullNode(const QuasiIdentifier& qid, const SubsetNode& node) {
  if (node.size() != qid.size()) {
    return Status::InvalidArgument(
        "node must generalize the full quasi-identifier");
  }
  for (size_t i = 0; i < node.size(); ++i) {
    if (node.dims[i] != static_cast<int32_t>(i)) {
      return Status::InvalidArgument(
          "node dims must be 0..n-1 over the full quasi-identifier");
    }
    if (node.levels[i] < 0 ||
        static_cast<size_t>(node.levels[i]) > qid.hierarchy(i).height()) {
      return Status::OutOfRange(StringPrintf(
          "level %d out of range for attribute '%s'", node.levels[i],
          qid.name(i).c_str()));
    }
  }
  return Status::OK();
}

Result<RecodeResult> ApplyFullDomainGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const AnonymizationConfig& config) {
  INCOGNITO_RETURN_IF_ERROR(CheckFullNode(qid, node));

  // Identify the tuples to suppress: members of groups smaller than k.
  FrequencySet freq = FrequencySet::Compute(table, qid, node);
  int64_t to_suppress = freq.TuplesBelowK(config.k);
  if (to_suppress > config.max_suppressed) {
    return Status::FailedPrecondition(StringPrintf(
        "generalization %s is not %lld-anonymous: %lld tuples lie in "
        "undersized groups but the suppression budget is %lld",
        node.ToString(&qid).c_str(), static_cast<long long>(config.k),
        static_cast<long long>(to_suppress),
        static_cast<long long>(config.max_suppressed)));
  }

  // Suppress the members of the undersized groups.
  std::vector<int32_t> small_groups;
  freq.ForEachGroup([&](const int32_t* codes, int64_t count) {
    if (count < config.k) {
      small_groups.insert(small_groups.end(), codes, codes + qid.size());
    }
  });
  RecodeResult result;
  result.view = MaterializeView(table, qid, node, small_groups,
                                &result.suppressed_tuples);
  return result;
}

Table MaterializeView(const Table& table, const QuasiIdentifier& qid,
                      const SubsetNode& node,
                      const std::vector<int32_t>& suppressed_groups,
                      int64_t* suppressed_tuples) {
  const size_t n = qid.size();
  const size_t num_rows = table.num_rows();
  std::vector<const int32_t*> maps(n);
  std::vector<const int32_t*> cols(n);
  for (size_t i = 0; i < n; ++i) {
    maps[i] = qid.hierarchy(i)
                  .BaseToLevelMap(static_cast<size_t>(node.levels[i]))
                  .data();
    cols[i] = table.ColumnCodes(qid.column(i)).data();
  }

  // keep[r] == 0 marks a suppressed row; empty when nothing is suppressed.
  // Packed keys test membership in a set of 64-bit keys, wider keys in a
  // set of code vectors.
  std::vector<uint8_t> keep;
  *suppressed_tuples = 0;
  if (!suppressed_groups.empty()) {
    keep.assign(num_rows, 1);
    std::vector<size_t> cards(n);
    for (size_t i = 0; i < n; ++i) {
      cards[i] =
          qid.hierarchy(i).DomainSize(static_cast<size_t>(node.levels[i]));
    }
    const KeyCodec codec = KeyCodec::Create(cards);
    std::unordered_set<uint64_t> packed;
    std::set<std::vector<int32_t>> wide;
    for (size_t g = 0; g < suppressed_groups.size(); g += n) {
      const int32_t* codes = suppressed_groups.data() + g;
      if (codec.packed()) {
        packed.insert(codec.Pack(codes));
      } else {
        wide.emplace(codes, codes + n);
      }
    }
    std::vector<int32_t> gen(n);
    for (size_t r = 0; r < num_rows; ++r) {
      for (size_t i = 0; i < n; ++i) gen[i] = maps[i][cols[i][r]];
      const bool suppress = codec.packed()
                                ? packed.count(codec.Pack(gen.data())) > 0
                                : wide.count(gen) > 0;
      if (suppress) {
        keep[r] = 0;
        ++*suppressed_tuples;
      }
    }
  }

  // The QID attribute each column shows: a column generalized above level
  // 0 becomes a string column of level labels (the last such attribute
  // wins when two share a column).
  const size_t num_columns = table.num_columns();
  std::vector<ColumnSpec> specs(table.schema().columns());
  std::vector<int64_t> shown(num_columns, -1);
  for (size_t i = 0; i < n; ++i) {
    if (node.levels[i] > 0) {
      specs[qid.column(i)].type = DataType::kString;
      shown[qid.column(i)] = static_cast<int64_t>(i);
    }
  }
  const size_t kept = num_rows - static_cast<size_t>(*suppressed_tuples);
  std::vector<Dictionary> dictionaries(num_columns);
  std::vector<std::vector<int32_t>> columns(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    const int32_t* src = table.ColumnCodes(c).data();
    const Dictionary& source = table.dictionary(c);
    const ValueHierarchy* hierarchy = nullptr;
    const int32_t* map = nullptr;
    size_t level = 0;
    size_t domain = source.size();
    if (shown[c] >= 0) {
      const size_t i = static_cast<size_t>(shown[c]);
      hierarchy = &qid.hierarchy(i);
      map = maps[i];
      level = static_cast<size_t>(node.levels[i]);
      domain = hierarchy->DomainSize(level);
    }
    std::vector<int32_t> remap(domain, -1);
    Dictionary& dict = dictionaries[c];
    std::vector<int32_t>& out = columns[c];
    out.reserve(kept);
    for (size_t r = 0; r < num_rows; ++r) {
      if (!keep.empty() && keep[r] == 0) continue;
      const int32_t key = map != nullptr ? map[src[r]] : src[r];
      int32_t& code = remap[static_cast<size_t>(key)];
      if (code < 0) {
        code = map != nullptr
                   ? dict.GetOrInsert(
                         Value(hierarchy->LevelValue(level, key).ToString()))
                   : dict.GetOrInsert(source.value(key));
      }
      out.push_back(code);
    }
  }
  return Table::FromColumns(Schema(std::move(specs)), std::move(dictionaries),
                            std::move(columns));
}

}  // namespace incognito
