#include "core/ldiversity.h"

#include "common/strings.h"
#include "core/incognito.h"
#include "core/recoder.h"
#include "obs/obs.h"

namespace incognito {

PartialResult<LDiversityResult> RunLDiversityIncognito(
    const Table& table, const QuasiIdentifier& qid,
    const LDiversityConfig& config, const RunContext& ctx) {
  INCOGNITO_SPAN("ldiversity.run");
  INCOGNITO_COUNT("ldiversity.runs");
  // The search validates k, l, the suppression budget and the QID.
  Result<size_t> sensitive =
      table.schema().ColumnIndex(config.sensitive_attribute);
  if (!sensitive.ok()) return sensitive.status();

  AnonymizationConfig kconfig;
  kconfig.k = config.k;
  kconfig.max_suppressed = config.max_suppressed;
  const DiversityPredicate diversity{sensitive.value(), config.l};
  PartialResult<IncognitoResult> run =
      RunIncognito(table, qid, kconfig, diversity, {}, ctx);
  if (run.hard_error()) return run.status();
  LDiversityResult result;
  result.diverse_nodes = std::move(run->anonymous_nodes);
  result.completed_iterations = run->completed_iterations;
  result.stats = run->stats;
  if (run.partial()) {
    return PartialResult<LDiversityResult>::Partial(run.status(),
                                                    std::move(result));
  }
  return result;
}

FrequencySet ComputeSensitiveSet(const Table& table,
                                 const QuasiIdentifier& qid,
                                 const SubsetNode& node,
                                 size_t sensitive_column) {
  SubsetNode with_s = node;
  with_s.dims.push_back(static_cast<int32_t>(qid.size()));
  with_s.levels.push_back(0);
  return FrequencySet::Compute(
      table, qid.WithSensitive(table, sensitive_column), with_s);
}

Result<DiverseRecodeResult> ApplyDiverseGeneralization(
    const Table& table, const QuasiIdentifier& qid, const SubsetNode& node,
    const LDiversityConfig& config) {
  INCOGNITO_RETURN_IF_ERROR(CheckFullNode(qid, node));
  Result<size_t> sensitive =
      table.schema().ColumnIndex(config.sensitive_attribute);
  if (!sensitive.ok()) return sensitive.status();

  FrequencySet freq =
      ComputeSensitiveSet(table, qid, node, sensitive.value());
  int64_t violating = freq.TuplesViolating(config.k, config.l);
  if (violating > config.max_suppressed) {
    return Status::FailedPrecondition(StringPrintf(
        "generalization %s violates (k=%lld, l=%lld) for %lld tuples, "
        "beyond the suppression budget %lld",
        node.ToString(&qid).c_str(), static_cast<long long>(config.k),
        static_cast<long long>(config.l), static_cast<long long>(violating),
        static_cast<long long>(config.max_suppressed)));
  }

  // Suppress the members of the violating groups.
  std::vector<int32_t> violating_groups;
  freq.ForEachQidGroup(
      [&](const int32_t* codes, int64_t count, int64_t distinct) {
        if (count < config.k || distinct < config.l) {
          violating_groups.insert(violating_groups.end(), codes,
                                  codes + qid.size());
        }
      });
  DiverseRecodeResult result;
  result.view = MaterializeView(table, qid, node, violating_groups,
                                &result.suppressed_tuples);
  return result;
}

}  // namespace incognito
