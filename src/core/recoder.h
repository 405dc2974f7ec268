#ifndef INCOGNITO_CORE_RECODER_H_
#define INCOGNITO_CORE_RECODER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/checker.h"
#include "core/quasi_identifier.h"
#include "lattice/node.h"
#include "relation/table.h"

namespace incognito {

/// The anonymized view produced by applying a full-domain generalization.
struct RecodeResult {
  /// The k-anonymized view V of T: quasi-identifier values replaced by
  /// their φ_i images at the node's levels, outlier tuples (groups smaller
  /// than k) suppressed when the configuration allows. Non-QID columns are
  /// carried through unchanged.
  Table view;

  /// Number of tuples removed under the suppression threshold.
  int64_t suppressed_tuples = 0;
};

/// Materializes the full-domain generalization `node` of `table` — the
/// paper's "joining T with its dimension tables and projecting the
/// appropriate domain attributes". Requires `node` to be over the full
/// quasi-identifier. Fails with FailedPrecondition if the generalization
/// does not satisfy k-anonymity within the configured suppression budget
/// (so a successful call always returns a k-anonymous view).
///
/// Columns generalized to level > 0 become string-typed (the generalized
/// labels, e.g. "[20-29]", "5371*"); level-0 columns keep their values.
Result<RecodeResult> ApplyFullDomainGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const AnonymizationConfig& config);

/// OK when `node` spans the full quasi-identifier (dims 0..n-1) at levels
/// within each hierarchy; InvalidArgument or OutOfRange otherwise. Both
/// full-domain recoders check their node with it before touching data.
Status CheckFullNode(const QuasiIdentifier& qid, const SubsetNode& node);

/// The materialization step both full-domain recoders share (this one and
/// ApplyDiverseGeneralization): the view of `table` at `node`, a node that
/// passes CheckFullNode, without the rows whose generalized QID codes form
/// one of `suppressed_groups` (qid.size() codes per group, back to back);
/// *suppressed_tuples counts those rows. It works on codes: each output
/// column maps a source code (level 0 and non-QID columns) or a base→level
/// code to its view code through a first-seen remap, so the view
/// dictionaries get one insert per distinct code, in the order a
/// row-by-row build would insert them.
Table MaterializeView(const Table& table, const QuasiIdentifier& qid,
                      const SubsetNode& node,
                      const std::vector<int32_t>& suppressed_groups,
                      int64_t* suppressed_tuples);

}  // namespace incognito

#endif  // INCOGNITO_CORE_RECODER_H_
