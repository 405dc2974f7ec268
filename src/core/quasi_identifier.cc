#include "core/quasi_identifier.h"

#include "hierarchy/validation.h"

namespace incognito {

Result<QuasiIdentifier> QuasiIdentifier::Create(
    const Table& table,
    std::vector<std::pair<std::string, ValueHierarchy>> attributes) {
  QuasiIdentifier qid;
  if (attributes.empty()) {
    return Status::InvalidArgument("quasi-identifier must be non-empty");
  }
  for (auto& [name, hierarchy] : attributes) {
    Result<size_t> col = table.schema().ColumnIndex(name);
    if (!col.ok()) return col.status();
    INCOGNITO_RETURN_IF_ERROR(
        CheckMatchesDictionary(hierarchy, table.dictionary(col.value())));
    QidAttribute attr;
    attr.column = col.value();
    attr.name = name;
    attr.hierarchy = std::move(hierarchy);
    qid.attrs_.push_back(std::move(attr));
  }
  return qid;
}

QuasiIdentifier QuasiIdentifier::Prefix(size_t n) const {
  QuasiIdentifier out;
  out.attrs_.assign(attrs_.begin(),
                    attrs_.begin() + static_cast<ptrdiff_t>(
                                         std::min(n, attrs_.size())));
  return out;
}

QuasiIdentifier QuasiIdentifier::WithSensitive(const Table& table,
                                               size_t column) const {
  const Dictionary& dict = table.dictionary(column);
  std::vector<Value> base;
  base.reserve(dict.size());
  for (size_t c = 0; c < dict.size(); ++c) {
    base.push_back(dict.value(static_cast<int32_t>(c)));
  }
  QidAttribute attr;
  attr.column = column;
  attr.name = table.schema().column(column).name;
  // One level and no parent maps is always a well-formed shape.
  attr.hierarchy =
      ValueHierarchy::Create(attr.name, {std::move(base)}, {}).value();
  QuasiIdentifier out = *this;
  out.attrs_.push_back(std::move(attr));
  return out;
}

std::vector<int32_t> QuasiIdentifier::MaxLevels() const {
  std::vector<int32_t> out;
  out.reserve(attrs_.size());
  for (const QidAttribute& a : attrs_) {
    out.push_back(static_cast<int32_t>(a.hierarchy.height()));
  }
  return out;
}

uint64_t QuasiIdentifier::LatticeSize() const {
  uint64_t n = 1;
  for (const QidAttribute& a : attrs_) {
    n *= static_cast<uint64_t>(a.hierarchy.height() + 1);
  }
  return n;
}

}  // namespace incognito
