#ifndef INCOGNITO_CORE_QUASI_IDENTIFIER_H_
#define INCOGNITO_CORE_QUASI_IDENTIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "hierarchy/hierarchy.h"
#include "relation/table.h"

namespace incognito {

/// One attribute of a quasi-identifier: a table column plus its domain
/// generalization hierarchy.
struct QidAttribute {
  size_t column;             ///< index of the column in the table schema
  std::string name;          ///< attribute name (schema column name)
  ValueHierarchy hierarchy;  ///< its DGH / value generalization hierarchy
};

/// A quasi-identifier: the ordered set of attributes that could be joined
/// with external data to re-identify individuals (paper §1.1), each paired
/// with its generalization hierarchy. All anonymization algorithms take the
/// microdata table and a QuasiIdentifier.
class QuasiIdentifier {
 public:
  QuasiIdentifier() = default;

  /// Binds hierarchies to columns of `table` by name. Validates that each
  /// hierarchy's base domain matches the column dictionary code-for-code.
  static Result<QuasiIdentifier> Create(
      const Table& table,
      std::vector<std::pair<std::string, ValueHierarchy>> attributes);

  /// Returns a new QuasiIdentifier over the first `n` attributes (used by
  /// the paper's QID-size sweeps, which add attributes in schema order).
  QuasiIdentifier Prefix(size_t n) const;

  size_t size() const { return attrs_.size(); }
  const QidAttribute& attr(size_t i) const { return attrs_[i]; }
  const ValueHierarchy& hierarchy(size_t i) const {
    return attrs_[i].hierarchy;
  }
  size_t column(size_t i) const { return attrs_[i].column; }
  const std::string& name(size_t i) const { return attrs_[i].name; }

  /// This quasi-identifier plus table column `column` as one more, last
  /// attribute whose hierarchy has height 0 over the column's dictionary.
  /// Frequency sets of node ∪ {S} for distinct ℓ-diversity key on it, with
  /// the sensitive attribute S at dimension size() (docs/ALGORITHMS.md).
  QuasiIdentifier WithSensitive(const Table& table, size_t column) const;

  /// The height of each attribute's hierarchy (the top level index).
  std::vector<int32_t> MaxLevels() const;

  /// Number of nodes in the full multi-attribute generalization lattice,
  /// i.e. the product of (height_i + 1).
  uint64_t LatticeSize() const;

 private:
  std::vector<QidAttribute> attrs_;
};

}  // namespace incognito

#endif  // INCOGNITO_CORE_QUASI_IDENTIFIER_H_
