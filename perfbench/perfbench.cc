// End-to-end benchmark program: whole anonymization jobs, file to released
// view, at the paper's scale. perfbench/README.md describes the workloads,
// the metrics and the correctness gate; perfbench/run.py builds this file
// and runs it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--corrupt-digest] [--workdir DIR]
//
// --trace 0 times jobs through the public job API (ExecuteJob, or the
// daemon's socket protocol for service-mixed) and prints the end-to-end
// metrics. --trace 1 replays the same jobs by calling each layer's public
// function from here, with a span around every call, and prints the
// per-layer metrics. The last line of stdout is one JSON object.

#include <malloc.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/incognito.h"
#include "core/ldiversity.h"
#include "core/minimality.h"
#include "core/quasi_identifier.h"
#include "core/recoder.h"
#include "data/adults.h"
#include "data/landsend.h"
#include "hierarchy/csv_hierarchy.h"
#include "models/koptimize.h"
#include "models/mondrian.h"
#include "obs/counters.h"
#include "obs/json_util.h"
#include "relation/binary_io.h"
#include "relation/csv.h"
#include "relation/ops.h"
#include "robust/checkpoint.h"
#include "service/job_spec.h"
#include "service/problem_loader.h"
#include "service/server.h"
#include "service/service.h"

namespace incognito {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Statistics and process measurements.

/// Linear-interpolation percentile (the "inclusive" method of Python's
/// statistics.quantiles); p in [0, 100]. Zero for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// User + system CPU seconds of this process (all threads, the in-process
/// daemon included).
double ProcessCpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// A "Vm*:" field of /proc/self/status in MiB; negative when unreadable.
double ProcStatusMiB(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// timed section's peak excludes set-up. False when the kernel refuses.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Jobs, answers and the correctness gate.

/// One job of a workload's pass. Jobs of the same `cell` ask the same
/// question (same data, model and parameters) and must agree byte for byte
/// whatever their variant or thread count.
struct Job {
  std::string label;  ///< e.g. "k=2/super-roots"
  std::string cell;   ///< e.g. "k=2"
  JobSpec spec;
};

/// The answer digest: sorted node strings, view CRC-32 and view rows.
struct Digest {
  int64_t num_nodes = 0;
  uint32_t nodes_crc = 0;
  uint32_t view_crc = 0;
  int64_t view_rows = 0;
  int64_t suppressed = 0;

  std::string ToString() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "nodes=%lld/%08x view_crc=%08x rows=%lld suppressed=%lld",
                  static_cast<long long>(num_nodes), nodes_crc, view_crc,
                  static_cast<long long>(view_rows),
                  static_cast<long long>(suppressed));
    return buf;
  }
};

/// A Digest::ToString without its view CRC, which depends on row order.
std::string WithoutViewCrc(const std::string& digest) {
  size_t at = digest.find(" view_crc=");
  if (at == std::string::npos) return digest;
  size_t end = digest.find(' ', at + 1);
  return digest.substr(0, at) +
         (end == std::string::npos ? "" : digest.substr(end));
}

Digest MakeDigest(const std::vector<std::string>& nodes, uint32_t view_crc,
                  int64_t view_rows, int64_t suppressed) {
  Digest d;
  d.num_nodes = static_cast<int64_t>(nodes.size());
  std::string joined;
  for (const std::string& node : nodes) joined += node + "\n";
  d.nodes_crc = Crc32(joined.data(), joined.size());
  d.view_crc = view_crc;
  d.view_rows = view_rows;
  d.suppressed = suppressed;
  return d;
}

Digest DigestOf(const JobResult& result) {
  return MakeDigest(result.nodes, result.view_crc32, result.view_rows,
                    result.suppressed_tuples);
}

/// What one timed job produced: its latency and either its digest or the
/// reason it failed.
struct Outcome {
  const Job* job = nullptr;
  double seconds = 0;
  bool ok = false;
  std::string error;
  Digest digest;
};

/// ExecuteJob with a fresh governor (armed only when the spec is governed).
JobResult ExecuteDirect(const JobSpec& spec) {
  ExecutionGovernor governor;
  return ExecuteJob(spec, &governor);
}

Outcome OutcomeOf(const Job& job, double seconds, const JobResult& result) {
  Outcome out;
  out.job = &job;
  out.seconds = seconds;
  if (!result.status.ok()) {
    out.error = result.status.ToString();
  } else if (result.partial) {
    out.error = "partial result";
  } else {
    out.ok = true;
    out.digest = DigestOf(result);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer-by-layer replay of one job (the traced path).

/// The per-layer record of one replayed job: span seconds by name (the
/// "job" span and the layer calls inside it), the obs counter and gauge
/// deltas around the search call, and the released view.
struct Replay {
  JobResult result;
  Table view;
  std::map<std::string, double> span_s;
  obs::MetricsSnapshot search_delta;
  double worker_util = 0;
  int64_t input_bytes = 0;
};

/// Runs `fn`, adds its wall time to `record->span_s[name]` and returns
/// its value.
template <typename Fn>
auto Span(Replay* record, const char* name, Fn&& fn) {
  Clock::time_point start = Clock::now();
  auto value = fn();
  record->span_s[name] += SecondsSince(start);
  return value;
}

/// The direct children of the "job" span. Their sum subtracted from the
/// job span is core.unattributed_s.
const char* const kJobChildren[] = {"service.load",  "core.search",
                                    "core.minimal",  "core.recode",
                                    "relation.view_csv", "service.digest"};

/// The job API's wire spelling of a variant.
const char* VariantName(IncognitoVariant variant) {
  switch (variant) {
    case IncognitoVariant::kBasic:
      return "basic";
    case IncognitoVariant::kSuperRoots:
      return "super-roots";
    case IncognitoVariant::kCube:
      return "cube";
  }
  return "?";
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// The same work as ExecuteJob (service/job_spec.cc) — load, search,
/// minimal node, recode, view CSV, CRC — issued one public layer call at
/// a time so each gets its own span.
Replay ReplayJob(const JobSpec& spec) {
  Replay rec;
  JobResult& out = rec.result;
  Clock::time_point job_start = Clock::now();
  LoadedProblem problem;
  Status loaded = Span(&rec, "service.load", [&]() -> Status {
    Result<Table> table = Span(&rec, "relation.read", [&] {
      return EndsWith(spec.input, ".inct") ? ReadTableBinary(spec.input)
                                           : ReadCsv(spec.input);
    });
    if (!table.ok()) return table.status();
    std::error_code ec;
    rec.input_bytes = static_cast<int64_t>(fs::file_size(spec.input, ec));
    std::vector<std::pair<std::string, ValueHierarchy>> hierarchies;
    Status built = Span(&rec, "hierarchy.load", [&]() -> Status {
      for (const std::string& name : spec.qid) {
        Result<size_t> col = table->schema().ColumnIndex(name);
        if (!col.ok()) return col.status();
        Result<ValueHierarchy> h = BuildHierarchyFromSpec(
            name, spec.hierarchies.at(name), table->dictionary(col.value()));
        if (!h.ok()) return h.status();
        hierarchies.emplace_back(name, std::move(h).value());
      }
      return Status::OK();
    });
    if (!built.ok()) return built;
    Result<QuasiIdentifier> qid =
        QuasiIdentifier::Create(table.value(), std::move(hierarchies));
    if (!qid.ok()) return qid.status();
    problem.table = std::move(table).value();
    problem.qid = std::move(qid).value();
    return Status::OK();
  });
  if (!loaded.ok()) {
    out.status = loaded;
    return rec;
  }

  ExecutionGovernor governor;
  RunContext ctx = spec.exec.MakeContext(&governor);
  AnonymizationConfig config;
  config.k = spec.k;
  config.max_suppressed = spec.max_suppressed;
  const Table& table = problem.table;
  const QuasiIdentifier& qid = problem.qid;
  obs::MetricsSnapshot before = obs::MetricsSnapshot::Take();
  auto end_search = [&] {
    rec.search_delta = obs::MetricsSnapshot::Take().DeltaSince(before);
  };
  auto node_strings = [&](const std::vector<SubsetNode>& nodes) {
    std::vector<std::string> strings;
    for (const SubsetNode& node : nodes) strings.push_back(node.ToString(&qid));
    std::sort(strings.begin(), strings.end());
    return strings;
  };
  auto fail = [&](const Status& status) {
    out.status = status;
    out.partial = false;
    return rec;
  };

  switch (spec.model) {
    case JobModel::kKAnonymity: {
      IncognitoOptions options;
      options.variant = spec.variant;
      PartialResult<IncognitoResult> r = Span(&rec, "core.search", [&] {
        return RunIncognito(table, qid, config, options, ctx);
      });
      end_search();
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return rec;
      out.nodes = node_strings(r->anonymous_nodes);
      out.stats = r->stats;
      rec.worker_util = Mean(r->worker_utilization);
      if (r->anonymous_nodes.empty()) break;
      SubsetNode minimal = Span(&rec, "core.minimal", [&] {
        return MinimalByHeight(r->anonymous_nodes).front();
      });
      Result<RecodeResult> view = Span(&rec, "core.recode", [&] {
        return ApplyFullDomainGeneralization(table, qid, minimal, config);
      });
      if (!view.ok()) return fail(view.status());
      rec.view = std::move(view->view);
      out.suppressed_tuples = view->suppressed_tuples;
      break;
    }
    case JobModel::kLDiversity: {
      LDiversityConfig dconfig;
      dconfig.k = spec.k;
      dconfig.l = spec.l;
      dconfig.max_suppressed = spec.max_suppressed;
      dconfig.sensitive_attribute = spec.sensitive_attribute;
      PartialResult<LDiversityResult> r = Span(&rec, "core.search", [&] {
        return RunLDiversityIncognito(table, qid, dconfig, ctx);
      });
      end_search();
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return rec;
      out.nodes = node_strings(r->diverse_nodes);
      out.stats = r->stats;
      if (r->diverse_nodes.empty()) break;
      SubsetNode minimal = Span(&rec, "core.minimal", [&] {
        return MinimalByHeight(r->diverse_nodes).front();
      });
      Result<DiverseRecodeResult> view = Span(&rec, "core.recode", [&] {
        return ApplyDiverseGeneralization(table, qid, minimal, dconfig);
      });
      if (!view.ok()) return fail(view.status());
      rec.view = std::move(view->view);
      out.suppressed_tuples = view->suppressed_tuples;
      break;
    }
    case JobModel::kKOptimize: {
      PartialResult<KOptimizeResult> r = Span(&rec, "core.search", [&] {
        return RunKOptimize(table, qid, config, {}, ctx);
      });
      end_search();
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return rec;
      out.stats = r->stats;
      out.suppressed_tuples = r->suppressed_tuples;
      rec.view = std::move(r->view);
      break;
    }
    case JobModel::kMondrian: {
      PartialResult<MondrianResult> r = Span(&rec, "core.search", [&] {
        return RunMondrian(table, qid, config, ctx);
      });
      end_search();
      out.status = r.status();
      out.partial = r.partial();
      if (r.hard_error()) return rec;
      out.stats = r->stats;
      rec.view = std::move(r->view);
      break;
    }
  }
  if (rec.view.num_columns() > 0) {
    std::string csv = Span(&rec, "relation.view_csv",
                           [&] { return ToCsvString(rec.view); });
    out.view_crc32 = Span(&rec, "service.digest",
                          [&] { return Crc32(csv.data(), csv.size()); });
    out.view_rows = static_cast<int64_t>(rec.view.num_rows());
  }
  rec.span_s["job"] = SecondsSince(job_start);
  return rec;
}

/// Checks a released view without src/freq: groups its QID columns with
/// relation/ops and requires every group to hold >= k rows (ℓ distinct
/// sensitive values for ℓ-diversity), and released + suppressed rows to
/// equal the input rows.
Status CheckView(const Table& view, const JobSpec& spec, int64_t input_rows,
                 int64_t suppressed) {
  if (static_cast<int64_t>(view.num_rows()) + suppressed != input_rows) {
    return Status::Internal(
        "view rows " + std::to_string(view.num_rows()) + " + suppressed " +
        std::to_string(suppressed) + " != input rows " +
        std::to_string(input_rows));
  }
  Result<Table> groups = GroupByCount(view, spec.qid);
  if (!groups.ok()) return groups.status();
  size_t count_col = groups->num_columns() - 1;
  for (size_t r = 0; r < groups->num_rows(); ++r) {
    int64_t count = groups->GetValue(r, count_col).int64();
    if (count < spec.k) {
      return Status::Internal("a released group has " +
                              std::to_string(count) + " < k=" +
                              std::to_string(spec.k) + " rows");
    }
  }
  if (spec.model != JobModel::kLDiversity) return Status::OK();
  std::vector<std::string> with_sensitive = spec.qid;
  with_sensitive.push_back(spec.sensitive_attribute);
  Result<Table> pairs = GroupByCount(view, with_sensitive);
  if (!pairs.ok()) return pairs.status();
  std::map<std::string, int64_t> distinct;
  for (size_t r = 0; r < pairs->num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < spec.qid.size(); ++c) {
      key += pairs->GetValue(r, c).ToString() + '\x1f';
    }
    ++distinct[key];
  }
  for (const auto& [key, values] : distinct) {
    if (values < spec.l) {
      return Status::Internal("a released group has " +
                              std::to_string(values) + " < l=" +
                              std::to_string(spec.l) +
                              " sensitive values");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Row-count multiplier (the self-test runs at a reduced size).
  double scale = 1;
  /// Self-test lever: flips one bit of the first cell's reference digest
  /// so the gate must report every job of that cell as failed.
  bool corrupt_digest = false;
  std::string workdir;
};

/// Everything a workload needs after set-up: its pass of jobs, its input
/// and, for service-mixed, the running daemon.
struct Workload {
  std::string name;
  std::vector<Job> jobs;
  size_t warmup = 0;  ///< index of the untimed warm-up job
  std::string input;
  int64_t input_rows = 0;
  int clients = 1;
  /// Pinned answer digests per cell at full scale (seed 0's view CRC).
  std::map<std::string, std::string> pinned;
  std::unique_ptr<ServiceCore> core;
  std::unique_ptr<ServiceServer> server;
  std::string socket;
};

/// Writes one generalization hierarchy file per QID attribute and returns
/// the "file:" specs the jobs reference.
Result<std::map<std::string, std::string>> WriteHierarchies(
    const SyntheticDataset& data, size_t num_attrs, const std::string& dir) {
  std::map<std::string, std::string> specs;
  for (size_t i = 0; i < num_attrs; ++i) {
    std::string path = dir + "/h_" + data.qid.name(i) + ".csv";
    Status written = WriteHierarchyCsv(data.qid.hierarchy(i), path);
    if (!written.ok()) return written;
    specs[data.qid.name(i)] = "file:" + path;
  }
  return specs;
}

std::vector<std::string> QidNames(const SyntheticDataset& data, size_t n) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) names.push_back(data.qid.name(i));
  return names;
}

/// The table's rows in a seeded random order (seed 0 keeps the order).
/// Every seed is a different input file holding the same multiset of
/// tuples, so the work and the anonymous node set do not depend on the
/// seed.
Table Permuted(Table table, uint64_t seed) {
  if (seed == 0) return table;
  std::vector<size_t> order(table.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  Table out = table.FilterRows(std::vector<bool>(table.num_rows(), false));
  std::vector<int32_t> codes(table.num_columns());
  for (size_t row : order) {
    for (size_t c = 0; c < codes.size(); ++c) codes[c] = table.GetCode(row, c);
    out.AppendRowCodes(codes);
  }
  return out;
}

size_t Scaled(size_t rows, double scale) {
  return std::max<size_t>(200, static_cast<size_t>(rows * scale));
}

/// Closed-loop clients of adults-q9. A single-threaded process's speed on
/// a shared 4-vCPU machine depends on which vCPU it lands on (identical
/// runs measured up to 1.7x apart in CPU time per job); four clients keep
/// every vCPU busy, so each run samples all of them.
constexpr int kAdultsClients = 4;

/// adults-q9: Adults 45,222 rows from .inct, full QID 9, k ∈ {2, 10} ×
/// {basic, super-roots, cube}, 1 thread per job, four clients.
Status SetUpAdultsQ9(const Args& args, Workload* w) {
  AdultsOptions options;
  options.num_rows = Scaled(options.num_rows, args.scale);
  Result<SyntheticDataset> data = MakeAdultsDataset(options);
  if (!data.ok()) return data.status();
  Result<std::map<std::string, std::string>> specs =
      WriteHierarchies(data.value(), 9, args.workdir);
  if (!specs.ok()) return specs.status();
  w->input = args.workdir + "/adults.inct";
  w->input_rows = static_cast<int64_t>(data->table.num_rows());
  INCOGNITO_RETURN_IF_ERROR(WriteTableBinary(
      Permuted(std::move(data->table), args.seed), w->input));
  w->jobs.clear();
  for (int64_t k : {2, 10}) {
    for (IncognitoVariant v :
         {IncognitoVariant::kBasic, IncognitoVariant::kSuperRoots,
          IncognitoVariant::kCube}) {
      Job job;
      job.cell = "k=" + std::to_string(k);
      job.label = job.cell + "/" + VariantName(v);
      job.spec.input = w->input;
      job.spec.qid = QidNames(data.value(), 9);
      job.spec.hierarchies = specs.value();
      job.spec.k = k;
      job.spec.variant = v;
      job.spec.exec.num_threads = 1;
      if (k == 10 && v == IncognitoVariant::kSuperRoots) {
        w->warmup = w->jobs.size();
      }
      w->jobs.push_back(std::move(job));
    }
  }
  w->clients = kAdultsClients;
  w->pinned = {
      {"k=2", "nodes=161/95dbf743 view_crc=703712e2 rows=45222 suppressed=0"},
      {"k=10", "nodes=87/b86476da view_crc=fa87333d rows=45222 suppressed=0"},
  };
  return Status::OK();
}

/// landsend-1m-csv: Lands End 1,000,000 rows from CSV, QID 6 (Zipcode ...
/// Quantity), k=10, basic, 4 threads, one client.
Status SetUpLandsEnd(const Args& args, Workload* w) {
  LandsEndOptions options;
  options.num_rows = Scaled(1'000'000, args.scale);
  Result<SyntheticDataset> data = MakeLandsEndDataset(options);
  if (!data.ok()) return data.status();
  Result<std::map<std::string, std::string>> specs =
      WriteHierarchies(data.value(), 6, args.workdir);
  if (!specs.ok()) return specs.status();
  w->input = args.workdir + "/landsend.csv";
  w->input_rows = static_cast<int64_t>(data->table.num_rows());
  INCOGNITO_RETURN_IF_ERROR(
      WriteCsv(Permuted(std::move(data->table), args.seed), w->input));
  Job job;
  job.cell = "k=10";
  job.label = "k=10/basic/4t";
  job.spec.input = w->input;
  job.spec.qid = QidNames(data.value(), 6);
  job.spec.hierarchies = specs.value();
  job.spec.k = 10;
  job.spec.variant = IncognitoVariant::kBasic;
  job.spec.exec.num_threads = 4;
  w->jobs = {std::move(job)};
  w->warmup = 0;
  w->pinned = {
      {"k=10",
       "nodes=162/cb897fa4 view_crc=5ec0a86a rows=1000000 suppressed=0"},
  };
  return Status::OK();
}

constexpr int64_t kServiceJobBudgetBytes = 256ll << 20;
constexpr int64_t kServiceJobDeadlineMs = 120'000;
constexpr int kServiceWorkers = 2;
constexpr int kServiceClients = 4;

/// service-mixed: ServiceCore (2 workers) behind ServiceServer on a Unix
/// socket; four closed-loop clients across two tenants cycle a mixed-model
/// job list on the Adults CSV, k=5, 1 thread per job, every job governed.
Status SetUpService(const Args& args, Workload* w) {
  AdultsOptions options;
  options.num_rows = Scaled(options.num_rows, args.scale);
  Result<SyntheticDataset> data = MakeAdultsDataset(options);
  if (!data.ok()) return data.status();
  Result<std::map<std::string, std::string>> specs =
      WriteHierarchies(data.value(), 9, args.workdir);
  if (!specs.ok()) return specs.status();
  w->input = args.workdir + "/adults.csv";
  w->input_rows = static_cast<int64_t>(data->table.num_rows());
  INCOGNITO_RETURN_IF_ERROR(
      WriteCsv(Permuted(std::move(data->table), args.seed), w->input));

  auto make = [&](const std::string& label, const std::string& cell,
                  JobModel model, std::vector<std::string> qid) {
    Job job;
    job.label = label;
    job.cell = cell;
    job.spec.input = w->input;
    job.spec.qid = std::move(qid);
    for (const std::string& name : job.spec.qid) {
      job.spec.hierarchies[name] = specs->at(name);
    }
    job.spec.model = model;
    job.spec.k = 5;
    job.spec.exec.num_threads = 1;
    job.spec.exec.deadline_ms = kServiceJobDeadlineMs;
    job.spec.exec.memory_budget_bytes = kServiceJobBudgetBytes;
    return job;
  };
  std::vector<std::string> qid6 = QidNames(data.value(), 6);
  w->jobs.clear();
  w->jobs.push_back(
      make("k-anonymity/basic", "k-anonymity", JobModel::kKAnonymity, qid6));
  Job super_roots = make("k-anonymity/super-roots", "k-anonymity",
                         JobModel::kKAnonymity, qid6);
  super_roots.spec.variant = IncognitoVariant::kSuperRoots;
  w->jobs.push_back(std::move(super_roots));
  Job diverse = make("l-diversity", "l-diversity", JobModel::kLDiversity, qid6);
  diverse.spec.l = 2;
  diverse.spec.sensitive_attribute = "Occupation";
  w->jobs.push_back(std::move(diverse));
  w->jobs.push_back(make("mondrian", "mondrian", JobModel::kMondrian, qid6));
  w->jobs.push_back(make("k-optimize", "k-optimize", JobModel::kKOptimize,
                         {"Gender", "Race", "Marital-status", "Salary-class"}));
  w->warmup = 0;
  w->clients = kServiceClients;

  ServiceConfig config;
  config.num_workers = kServiceWorkers;
  // Every client's job fits the lease pool, so admission never refuses.
  config.memory_limit_bytes = kServiceClients * kServiceJobBudgetBytes;
  w->server.reset();
  w->core = std::make_unique<ServiceCore>(config);
  w->socket = args.workdir + "/daemon.sock";
  w->server = std::make_unique<ServiceServer>(w->core.get(), w->socket);
  return w->server->Start();
}

// ---------------------------------------------------------------------------
// The daemon's wire protocol, client side.

/// One persistent NDJSON connection to the daemon.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Status Connect(const std::string& path) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IOError("socket() failed");
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::IOError("connect(" + path + ") failed: " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  /// Sends one request line and parses the one-line reply.
  Result<obs::JsonValue> Call(const std::string& request) {
    std::string line = request + "\n";
    size_t written = 0;
    while (written < line.size()) {
      ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Status::IOError("request write failed");
      written += static_cast<size_t>(n);
    }
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[8192];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("daemon closed the connection");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    std::string reply = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    obs::JsonValue parsed;
    std::string error;
    if (!obs::ParseJson(reply, &parsed, &error)) {
      return Status::Internal("bad reply JSON: " + error);
    }
    return parsed;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool ReplyOk(const obs::JsonValue& reply) {
  const obs::JsonValue* ok = reply.Find("ok");
  return ok != nullptr && ok->is_bool() && ok->b;
}

std::string ReplyError(const obs::JsonValue& reply) {
  const obs::JsonValue* status = reply.Find("status");
  const obs::JsonValue* error = reply.Find("error");
  return (status ? status->StringOr("?") : "?") + ": " +
         (error ? error->StringOr("") : "");
}

/// Daemon-side measurements of one job, taken only in traced runs.
struct DaemonTrace {
  double queue_wait_s = -1;
  double mem_peak_bytes = 0;
};

/// submit → (traced: poll status until it leaves "queued") → result wait
/// → (traced: status for the governor's high-water mark).
Outcome RunDaemonJob(Connection* conn, const Job& job,
                     const std::string& tenant, bool trace,
                     DaemonTrace* dtrace) {
  JobSpec spec = job.spec;
  spec.tenant = tenant;
  Clock::time_point start = Clock::now();
  Outcome out;
  out.job = &job;
  auto fail = [&](const std::string& error) {
    out.seconds = SecondsSince(start);
    out.error = error;
    return out;
  };
  Result<obs::JsonValue> submitted =
      conn->Call("{\"op\":\"submit\",\"spec\":" + JobSpecToJson(spec) + "}");
  if (!submitted.ok()) return fail(submitted.status().ToString());
  if (!ReplyOk(*submitted)) return fail("refused: " + ReplyError(*submitted));
  std::string id = std::to_string(
      static_cast<int64_t>(submitted->Find("id")->NumberOr(0)));
  if (trace) {
    for (;;) {
      Result<obs::JsonValue> status =
          conn->Call("{\"op\":\"status\",\"id\":" + id + "}");
      if (!status.ok()) return fail(status.status().ToString());
      const obs::JsonValue* state = status->Find("state");
      if (state == nullptr || state->StringOr("") != "queued") break;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    dtrace->queue_wait_s = SecondsSince(start);
  }
  Result<obs::JsonValue> reply =
      conn->Call("{\"op\":\"result\",\"id\":" + id + ",\"wait\":true}");
  if (!reply.ok()) return fail(reply.status().ToString());
  if (!ReplyOk(*reply)) return fail(ReplyError(*reply));
  const obs::JsonValue* payload = reply->Find("result");
  obs::JsonValue result;
  if (payload == nullptr || !obs::ParseJson(payload->StringOr(""), &result)) {
    return fail("result payload is not JSON");
  }
  const obs::JsonValue* partial = result.Find("partial");
  if (partial == nullptr || !partial->is_bool() || partial->b) {
    return fail("partial result");
  }
  std::vector<std::string> nodes;
  if (const obs::JsonValue* list = result.Find("nodes")) {
    for (const obs::JsonValue& node : list->array) nodes.push_back(node.str);
  }
  auto number = [&](const char* key) {
    const obs::JsonValue* v = result.Find(key);
    return v ? v->NumberOr(0) : 0;
  };
  out.digest = MakeDigest(nodes, static_cast<uint32_t>(number("view_crc32")),
                          static_cast<int64_t>(number("view_rows")),
                          static_cast<int64_t>(number("suppressed_tuples")));
  out.seconds = SecondsSince(start);
  out.ok = true;
  if (trace) {
    Result<obs::JsonValue> status =
        conn->Call("{\"op\":\"status\",\"id\":" + id + "}");
    if (status.ok() && status->Find("memory_peak_bytes") != nullptr) {
      dtrace->mem_peak_bytes =
          status->Find("memory_peak_bytes")->NumberOr(0);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::JsonString(metrics[i].name) + ": {\"value\": " +
           FormatNumber(metrics[i].value) +
           ", \"unit\": " + obs::JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The benchmark.

using SetUpFn = Status (*)(const Args&, Workload*);

SetUpFn SetUpFor(const std::string& name) {
  if (name == "adults-q9") return SetUpAdultsQ9;
  if (name == "landsend-1m-csv") return SetUpLandsEnd;
  if (name == "service-mixed") return SetUpService;
  return nullptr;
}

/// Set-up repetitions whose median is setup_s. Lands End's set-up is
/// dominated by generating and writing 48 MB, so it is repeated less.
int SetUpRepeats(const std::string& name) {
  return name == "landsend-1m-csv" ? 2 : 3;
}

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int Run() {
    SetUpFn set_up = SetUpFor(args_.workload);
    if (set_up == nullptr) {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   args_.workload.c_str());
      return 2;
    }
    w_.name = args_.workload;
    std::vector<double> setup_s;
    for (int rep = 0; rep < SetUpRepeats(w_.name); ++rep) {
      Clock::time_point start = Clock::now();
      Status ready = set_up(args_, &w_);
      if (ready.ok()) ready = Warmup();
      if (!ready.ok()) {
        std::fprintf(stderr, "error: set-up failed: %s\n",
                     ready.ToString().c_str());
        return 1;
      }
      setup_s.push_back(SecondsSince(start));
    }
    setup_s_ = Median(setup_s);
    if (warmup_ != nullptr) CheckReplay(w_.jobs[w_.warmup], *warmup_);
    warmup_.reset();
    std::printf("workload %s: %lld input rows, %zu jobs per pass, set-up "
                "%.3f s (median of %zu)\n",
                w_.name.c_str(), static_cast<long long>(w_.input_rows),
                w_.jobs.size(), setup_s_, setup_s.size());

    if (args_.trace) {
      TracedRun();
    } else {
      TimedRun();
    }
    StopDaemon();
    return Finish();
  }

 private:
  // --- set-up ----------------------------------------------------------

  /// One untimed job before timing starts (the first job of a process
  /// runs measurably slower). For the daemon it goes over the socket;
  /// otherwise it is a layer-by-layer replay — the same library calls as
  /// ExecuteJob — whose view the gate checks once set-up is timed.
  Status Warmup() {
    const Job& job = w_.jobs[w_.warmup];
    if (w_.server != nullptr) {
      Connection conn;
      INCOGNITO_RETURN_IF_ERROR(conn.Connect(w_.socket));
      DaemonTrace unused;
      Outcome out = RunDaemonJob(&conn, job, "warmup", false, &unused);
      return out.ok ? Status::OK() : Status::Internal(out.error);
    }
    warmup_ = std::make_unique<Replay>(ReplayJob(job.spec));
    return warmup_->result.status;
  }

  void StopDaemon() {
    if (w_.server != nullptr) w_.server->Stop();
    if (w_.core != nullptr) w_.core->Drain();
    w_.server.reset();
    w_.core.reset();
  }

  // --- timed (untraced) run -------------------------------------------

  void TimedRun() {
    // Hand set-up's freed heap back to the kernel first, so the peak
    // counts what the jobs hold rather than what generating the input
    // left behind.
    malloc_trim(0);
    bool rss_reset = ResetPeakRss();
    if (!rss_reset) {
      std::fprintf(stderr, "warning: cannot reset VmHWM; peak_rss_mb "
                           "includes set-up\n");
    }
    double cpu0 = ProcessCpuSeconds();
    Clock::time_point start = Clock::now();
    if (w_.server != nullptr) {
      DaemonLoop(false);
    } else {
      DirectLoop(start);
    }
    wall_s_ = SecondsSince(start);
    cpu_s_ = ProcessCpuSeconds() - cpu0;
    peak_rss_mb_ = ProcStatusMiB("VmHWM");
    Verify();
  }

  /// Closed-loop clients calling ExecuteJob directly. Each runs whole
  /// passes of the job list, starting at its own offset, so every run
  /// times the same job mix: as many passes as fit --seconds, rounded to
  /// the nearest pass (at least one).
  void DirectLoop(Clock::time_point start) {
    std::mutex mu;
    std::vector<std::thread> clients;
    for (int c = 0; c < w_.clients; ++c) {
      clients.emplace_back([&, c] {
        double pass_s = 0;
        do {
          Clock::time_point pass_start = Clock::now();
          for (size_t i = 0; i < w_.jobs.size(); ++i) {
            const Job& job = w_.jobs[(i + c) % w_.jobs.size()];
            Clock::time_point job_start = Clock::now();
            JobResult result = ExecuteDirect(job.spec);
            Outcome out = OutcomeOf(job, SecondsSince(job_start), result);
            std::lock_guard<std::mutex> lock(mu);
            outcomes_.push_back(std::move(out));
          }
          pass_s = SecondsSince(pass_start);
        } while (SecondsSince(start) + pass_s / 2 < args_.seconds);
      });
    }
    for (std::thread& t : clients) t.join();
  }

  /// Closed-loop clients against the daemon until --seconds have passed;
  /// each client then finishes the job it has in flight.
  void DaemonLoop(bool trace) {
    std::atomic<bool> stop{false};
    std::mutex mu;
    std::vector<std::thread> clients;
    for (int c = 0; c < w_.clients; ++c) {
      clients.emplace_back([&, c] {
        Connection conn;
        Status connected = conn.Connect(w_.socket);
        std::string tenant = c % 2 == 0 ? "tenant-a" : "tenant-b";
        for (size_t i = static_cast<size_t>(c); !stop.load(); ++i) {
          const Job& job = w_.jobs[i % w_.jobs.size()];
          DaemonTrace dtrace;
          Outcome out;
          if (connected.ok()) {
            out = RunDaemonJob(&conn, job, tenant, trace, &dtrace);
          } else {
            out.job = &job;
            out.error = connected.ToString();
          }
          std::lock_guard<std::mutex> lock(mu);
          outcomes_.push_back(out);
          if (trace && out.ok) {
            queue_wait_s_.push_back(dtrace.queue_wait_s);
            mem_peak_mb_ = std::max(mem_peak_mb_,
                                    dtrace.mem_peak_bytes / (1024.0 * 1024));
          }
          if (!connected.ok()) break;
        }
      });
    }
    Clock::time_point start = Clock::now();
    ServiceStats before = w_.core->stats();
    Connection pinger;
    bool ping_ok = trace && pinger.Connect(w_.socket).ok();
    while (SecondsSince(start) < args_.seconds) {
      if (ping_ok) {
        Clock::time_point sent = Clock::now();
        Result<obs::JsonValue> pong = pinger.Call("{\"op\":\"ping\"}");
        if (pong.ok() && ReplyOk(*pong)) ping_s_.push_back(SecondsSince(sent));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true);
    for (std::thread& t : clients) t.join();
    ServiceStats after = w_.core->stats();
    rejected_ = (after.rejected_draining - before.rejected_draining) +
                (after.rejected_queue_full - before.rejected_queue_full) +
                (after.rejected_tenant_quota - before.rejected_tenant_quota) +
                (after.rejected_memory - before.rejected_memory);
  }

  // --- traced run -------------------------------------------------------

  void AddReplay(const Job& job, const Replay& rec) {
    ++traced_jobs_;
    for (const auto& [name, secs] : rec.span_s) spans_[name] += secs;
    double children = 0;
    for (const char* child : kJobChildren) {
      auto it = rec.span_s.find(child);
      if (it != rec.span_s.end()) children += it->second;
    }
    auto job_it = rec.span_s.find("job");
    double job_s = job_it == rec.span_s.end() ? 0 : job_it->second;
    spans_["core.unattributed"] += job_s - children;
    for (const auto& [name, value] : rec.search_delta.counters) {
      counters_[name] += static_cast<double>(value);
    }
    for (const auto& [name, value] : rec.search_delta.gauges) {
      counters_[name] += value;
    }
    const AlgorithmStats& st = rec.result.stats;
    counters_["stats.kchecks"] += static_cast<double>(st.nodes_checked);
    counters_["stats.nodes_marked"] += static_cast<double>(st.nodes_marked);
    counters_["stats.sched_idle_s"] += st.scheduler_idle_seconds;
    counters_["stats.critical_path_s"] += st.critical_path_seconds;
    counters_["stats.tasks_scheduled"] +=
        static_cast<double>(st.tasks_scheduled);
    counters_["stats.worker_util"] += rec.worker_util;
    input_bytes_ += static_cast<double>(rec.input_bytes);
    model_s_[JobModelName(job.spec.model)].push_back(job_s);
    if (job.spec.model == JobModel::kKAnonymity) {
      variant_s_[VariantName(job.spec.variant)].push_back(job_s);
    }
    traced_job_s_.push_back(job_s);
  }

  /// Each job of a pass runs once untraced (ExecuteJob) and once as a
  /// traced replay, alternating which goes first, for
  /// trace_overhead_frac. The daemon workload first runs its traced
  /// client loop for --seconds, then one such pass.
  void TracedRun() {
    if (w_.server != nullptr) DaemonLoop(true);
    Clock::time_point start = Clock::now();
    size_t n = 0;
    double pass_s = 0;
    do {
      Clock::time_point pass_start = Clock::now();
      for (const Job& job : w_.jobs) {
        bool replay_first = (n++ % 2) == 1;
        if (!replay_first) RunUntraced(job);
        Replay rec = ReplayJob(job.spec);
        CheckReplay(job, rec);
        AddReplay(job, rec);
        if (replay_first) RunUntraced(job);
      }
      pass_s = SecondsSince(pass_start);
    } while (w_.server == nullptr &&
             SecondsSince(start) + pass_s / 2 < args_.seconds);
  }

  void RunUntraced(const Job& job) {
    Clock::time_point start = Clock::now();
    JobResult result = ExecuteDirect(job.spec);
    double secs = SecondsSince(start);
    untraced_job_s_.push_back(secs);
    outcomes_.push_back(OutcomeOf(job, secs, result));
  }

  // --- correctness gate -----------------------------------------------

  /// Replays one job of each cell the warm-up did not cover — its fastest
  /// in the timed section — layer by layer and checks its view
  /// independently; the replay's digest becomes the cell's reference.
  void Verify() {
    std::map<std::string, std::pair<double, const Job*>> fastest;
    for (const Outcome& out : outcomes_) {
      if (replay_digest_.count(out.job->cell) > 0) continue;
      auto [it, inserted] = fastest.emplace(
          out.job->cell, std::make_pair(out.seconds, out.job));
      if (!inserted && out.seconds < it->second.first) {
        it->second = {out.seconds, out.job};
      }
    }
    for (const auto& [cell, entry] : fastest) {
      CheckReplay(*entry.second, ReplayJob(entry.second->spec));
    }
  }

  void CheckReplay(const Job& job, const Replay& rec) {
    const JobResult& r = rec.result;
    std::string error;
    if (!r.status.ok()) {
      error = r.status.ToString();
    } else if (r.partial) {
      error = "partial result";
    } else {
      Status view = CheckView(rec.view, job.spec, w_.input_rows,
                              r.suppressed_tuples);
      if (!view.ok()) error = view.ToString();
    }
    if (!error.empty()) {
      gate_errors_.push_back("replay " + job.label + ": " + error);
      return;
    }
    std::string digest = DigestOf(r).ToString();
    auto [it, inserted] = replay_digest_.emplace(job.cell, digest);
    if (!inserted && it->second != digest) {
      gate_errors_.push_back("replay " + job.label + " gave " + digest +
                             ", another replay of the cell gave " +
                             it->second);
    }
  }

  /// The digest every job of `cell` must match: the independently checked
  /// replay's. At full scale it must also match the pin — entirely for
  /// seed 0, and except for the view CRC (the view keeps the input's row
  /// order) for every other seed.
  std::string Reference(const std::string& cell) {
    auto replay = replay_digest_.find(cell);
    std::string ref = replay == replay_digest_.end() ? "" : replay->second;
    auto pin = w_.pinned.find(cell);
    if (args_.scale == 1 && pin != w_.pinned.end()) {
      bool same = args_.seed == 0
                      ? ref == pin->second
                      : WithoutViewCrc(ref) == WithoutViewCrc(pin->second);
      if (!same) {
        gate_errors_.push_back("cell " + cell + ": replay gave '" + ref +
                               "', pinned '" + pin->second + "'");
      }
    }
    if (args_.corrupt_digest && cell == w_.jobs.front().cell &&
        !ref.empty()) {
      ref[ref.size() - 1] ^= 1;
    }
    return ref;
  }

  int Finish() {
    std::map<std::string, std::string> refs;
    for (const Job& job : w_.jobs) {
      if (refs.count(job.cell) == 0) refs[job.cell] = Reference(job.cell);
    }
    int64_t failed = 0;
    std::map<std::string, int> reported;
    for (const Outcome& out : outcomes_) {
      std::string error = out.error;
      if (out.ok) {
        const std::string& ref = refs[out.job->cell];
        std::string got = out.digest.ToString();
        if (ref.empty()) {
          error = "no checked reference for cell " + out.job->cell;
        } else if (got != ref) {
          error = "digest " + got + " != reference " + ref;
        }
      }
      if (error.empty()) continue;
      ++failed;
      if (reported[out.job->label]++ == 0) {
        std::printf("FAILED %s: %s\n", out.job->label.c_str(), error.c_str());
      }
    }
    for (const std::string& e : gate_errors_) {
      std::printf("GATE %s\n", e.c_str());
    }
    int64_t attempted = static_cast<int64_t>(outcomes_.size());
    bool correct = failed == 0 && gate_errors_.empty() && attempted > 0;
    std::vector<Metric> metrics =
        args_.trace ? LayerMetrics() : EndToEndMetrics(attempted, failed);
    for (const Metric& m : metrics) {
      std::printf("  %-32s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    PrintResult(correct, std::max<int64_t>(attempted, 1),
                attempted > 0 ? failed : 1, metrics);
    return correct ? 0 : 1;
  }

  std::vector<Metric> EndToEndMetrics(int64_t attempted, int64_t failed) {
    std::vector<double> latencies;
    std::map<std::string, std::vector<double>> by_label;
    for (const Outcome& out : outcomes_) {
      latencies.push_back(out.seconds);
      by_label[out.job->label].push_back(out.seconds);
    }
    for (const auto& [label, secs] : by_label) {
      std::printf("job %-28s n=%-4zu p50 %.4f s  min %.4f s  max %.4f s\n",
                  label.c_str(), secs.size(), Median(secs),
                  *std::min_element(secs.begin(), secs.end()),
                  *std::max_element(secs.begin(), secs.end()));
    }
    int64_t completed = attempted - failed;
    std::printf("timed section: %.3f s wall, %lld jobs attempted, %lld "
                "failed (failed_frac %.4f), latency samples %zu\n",
                wall_s_, static_cast<long long>(attempted),
                static_cast<long long>(failed),
                attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
                latencies.size());
    return {
        {"setup_s", setup_s_, "s"},
        {"jobs_per_s", wall_s_ > 0 ? completed / wall_s_ : 0, "jobs/s"},
        {"job_p50_s", Median(latencies), "s"},
        {"job_p90_s", Percentile(latencies, 90), "s"},
        {"cpu_s_per_job", completed > 0 ? cpu_s_ / completed : 0, "s"},
        {"peak_rss_mb", peak_rss_mb_, "MiB"},
    };
  }

  /// Per traced job means of the spans and counter deltas.
  std::vector<Metric> LayerMetrics() {
    double n = std::max<size_t>(traced_jobs_, 1);
    auto span = [&](const char* name) { return spans_[name] / n; };
    auto per_job = [&](std::initializer_list<const char*> names) {
      double sum = 0;
      for (const char* name : names) sum += counters_[name];
      return sum / n;
    };
    auto p50 = [](std::map<std::string, std::vector<double>>& m,
                  const char* key) { return Median(m[key]); };
    double read_s = spans_["relation.read"];
    double untraced = Median(untraced_job_s_);
    return {
        {"relation.read_s", span("relation.read"), "s"},
        {"relation.read_mb_per_s",
         read_s > 0 ? input_bytes_ / (1024.0 * 1024) / read_s : 0, "MiB/s"},
        {"relation.view_csv_s", span("relation.view_csv"), "s"},
        {"hierarchy.load_s", span("hierarchy.load"), "s"},
        {"service.load_s", span("service.load"), "s"},
        {"service.queue_wait_p50_s", Median(queue_wait_s_), "s"},
        {"service.queue_wait_p90_s", Percentile(queue_wait_s_, 90), "s"},
        {"service.ping_rtt_s", Median(ping_s_), "s"},
        {"service.rejected", static_cast<double>(rejected_), "count"},
        {"lattice.joined", per_job({"lattice.joined"}), "count"},
        {"lattice.pruned", per_job({"lattice.pruned"}), "count"},
        {"lattice.candidate_edges", per_job({"lattice.candidate_edges"}),
         "count"},
        {"lattice.gen_calls",
         per_job({"lattice.candidate_gen_calls",
                  "lattice.subset_candidate_gen_calls"}),
         "count"},
        {"lattice.candidate_gen_cpu_s",
         per_job({"phase.candidate_gen_seconds"}), "s"},
        {"freq.scan_rows", per_job({"freq.scan_rows"}), "count"},
        {"freq.scans", per_job({"freq.scans", "freq.batch_scans"}), "count"},
        {"freq.batch_scan_nodes", per_job({"freq.batch_scan_nodes"}),
         "count"},
        {"freq.rollups", per_job({"freq.rollups"}), "count"},
        {"freq.rollup_groups", per_job({"freq.rollup_groups"}), "count"},
        {"freq.projections", per_job({"freq.projections"}), "count"},
        {"freq.substrate_radix", per_job({"freq.substrate_radix"}), "count"},
        {"freq.substrate_hash", per_job({"freq.substrate_hash"}), "count"},
        {"freq.scan_cpu_s", per_job({"phase.freq_scan_seconds"}), "s"},
        {"freq.rollup_cpu_s", per_job({"phase.rollup_seconds"}), "s"},
        {"freq.cube_build_cpu_s", per_job({"phase.cube_build_seconds"}), "s"},
        {"freq.projection_cpu_s", per_job({"phase.projection_seconds"}), "s"},
        {"core.search_s", span("core.search"), "s"},
        {"core.kchecks", per_job({"stats.kchecks"}), "count"},
        {"core.nodes_marked", per_job({"stats.nodes_marked"}), "count"},
        {"core.kcheck_cpu_s", per_job({"phase.kcheck_seconds"}), "s"},
        {"core.minimal_s", span("core.minimal"), "s"},
        {"core.sched_idle_s", per_job({"stats.sched_idle_s"}), "s"},
        {"core.critical_path_s", per_job({"stats.critical_path_s"}), "s"},
        {"core.worker_util", per_job({"stats.worker_util"}), "ratio"},
        {"core.tasks_scheduled", per_job({"stats.tasks_scheduled"}), "count"},
        {"core.recode_s", span("core.recode"), "s"},
        {"core.unattributed_s", span("core.unattributed"), "s"},
        {"model.k-anonymity.p50_s", p50(model_s_, "k-anonymity"), "s"},
        {"model.l-diversity.p50_s", p50(model_s_, "l-diversity"), "s"},
        {"model.mondrian.p50_s", p50(model_s_, "mondrian"), "s"},
        {"model.k-optimize.p50_s", p50(model_s_, "k-optimize"), "s"},
        {"variant.basic.p50_s", p50(variant_s_, "basic"), "s"},
        {"variant.super-roots.p50_s", p50(variant_s_, "super-roots"), "s"},
        {"variant.cube.p50_s", p50(variant_s_, "cube"), "s"},
        {"robust.mem_peak_mb", mem_peak_mb_, "MiB"},
        {"trace_overhead_frac",
         untraced > 0 ? Median(traced_job_s_) / untraced - 1 : 0, "ratio"},
    };
  }

  Args args_;
  Workload w_;
  std::unique_ptr<Replay> warmup_;
  std::vector<Outcome> outcomes_;
  std::map<std::string, std::string> replay_digest_;
  std::vector<std::string> gate_errors_;

  double setup_s_ = 0;
  double wall_s_ = 0;
  double cpu_s_ = 0;
  double peak_rss_mb_ = 0;

  size_t traced_jobs_ = 0;
  std::map<std::string, double> spans_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> model_s_;
  std::map<std::string, std::vector<double>> variant_s_;
  std::vector<double> traced_job_s_;
  std::vector<double> untraced_job_s_;
  std::vector<double> queue_wait_s_;
  std::vector<double> ping_s_;
  double input_bytes_ = 0;
  double mem_peak_mb_ = 0;
  int64_t rejected_ = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--corrupt-digest") {
      args->corrupt_digest = true;
    } else if (flag == "--workload" && (v = value())) {
      args->workload = v;
    } else if (flag == "--seed" && (v = value())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds" && (v = value())) {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace" && (v = value())) {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--scale" && (v = value())) {
      args->scale = std::strtod(v, nullptr);
    } else if (flag == "--workdir" && (v = value())) {
      args->workdir = v;
    } else {
      std::fprintf(stderr, "error: bad argument '%s'\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0 && args->scale > 0;
}

}  // namespace
}  // namespace incognito

int main(int argc, char** argv) {
  using namespace incognito;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --workdir DIR [--seed N] "
                 "[--seconds S] [--trace 0|1] [--scale F] "
                 "[--corrupt-digest]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  int code = Bench(args).Run();
  fs::remove_all(args.workdir, ec);
  return code;
}
