// Extension bench: the ℓ-diversity search (the paper's §7 "extending the
// algorithmic framework" future work) on the Adults database, using
// Salary-class as the sensitive attribute and the remaining 8 attributes
// as quasi-identifier prefixes.
//
// The search is RunIncognito's own (Basic variant, one worker here): its
// frequency sets are the ordinary ones over node ∪ {S}, S the sensitive
// column as the last key field at level 0, and a node passes when every
// QID group — a run of entries sharing all fields but S — has k tuples and
// a run length of at least ℓ (docs/ALGORITHMS.md §9). Scans, rollups and
// nodes checked are therefore counted exactly as for k-anonymity.
//
// Reports, per (QID size, ℓ): runtime, nodes checked, and how much the
// added diversity constraint shrinks the solution set relative to plain
// k-anonymity — the privacy/utility trade the extension buys.
//
// Flags: --rows=N (default 45222) --k=N (default 5) --max_qid=N (default 6)
//        --json[=FILE] (machine-readable BENCH_ext_ldiversity.json)

#include <cstdio>

#include "bench_util.h"
#include "core/ldiversity.h"
#include "data/adults.h"

using namespace incognito;
using namespace incognito::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  AdultsOptions opts;
  opts.num_rows = static_cast<size_t>(flags.GetInt("rows", 45222));
  int64_t k = flags.GetInt("k", 5);
  size_t max_qid = static_cast<size_t>(flags.GetInt("max_qid", 6));
  BenchReport report(flags, "ext_ldiversity");
  if (!flags.CheckUnknown()) return 2;

  Result<SyntheticDataset> adults = MakeAdultsDataset(opts);
  if (!adults.ok()) {
    fprintf(stderr, "adults generation failed\n");
    return 1;
  }
  // QID = prefix of the first 8 attributes; Salary-class (attribute 9) is
  // the sensitive attribute (2 values, so ℓ=2 demands both salary classes
  // in every equivalence class).
  printf("=== Extension: Incognito-style (k, l)-diversity search, Adults, "
         "k=%lld, sensitive=Salary-class ===\n",
         static_cast<long long>(k));
  printf("%4s %3s %10s %9s %8s %8s %10s\n", "qid", "l", "seconds", "checked",
         "scans", "rollups", "solutions");
  for (size_t qid_size = 3; qid_size <= max_qid; ++qid_size) {
    QuasiIdentifier qid = adults->qid.Prefix(qid_size);
    for (int64_t l : {1, 2}) {
      LDiversityConfig config;
      config.k = k;
      config.l = l;
      config.sensitive_attribute = "Salary-class";
      obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
      PartialResult<LDiversityResult> r =
          RunLDiversityIncognito(adults->table, qid, config);
      if (!r.ok()) {
        fprintf(stderr, "run failed: %s\n", r.status().ToString().c_str());
        continue;
      }
      printf("%4zu %3lld %10.3f %9lld %8lld %8lld %10zu\n", qid_size,
             static_cast<long long>(l), r->stats.total_seconds,
             static_cast<long long>(r->stats.nodes_checked),
             static_cast<long long>(r->stats.table_scans),
             static_cast<long long>(r->stats.rollups),
             r->diverse_nodes.size());
      fflush(stdout);
      report.Add("adults", k, qid_size, StringPrintf("l-diversity (l=%lld)",
                                                     static_cast<long long>(l)),
                 r->stats.total_seconds, r->diverse_nodes.size(), r->stats,
                 obs::MetricsSnapshot::Take().DeltaSince(before));
    }
  }
  printf(
      "\nl=1 reduces to plain k-anonymity; l=2 additionally requires both "
      "salary\nclasses in every equivalence class, shrinking the solution "
      "set.\n");
  return report.Write();
}
