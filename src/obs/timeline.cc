#include "obs/timeline.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace incognito {
namespace obs {
namespace {

int PopCount(uint64_t v) {
  int count = 0;
  for (; v != 0; v &= v - 1) ++count;
  return count;
}

double DurSeconds(const TaskEvent& e) {
  return e.end_ns > e.start_ns
             ? static_cast<double>(e.end_ns - e.start_ns) * 1e-9
             : 0.0;
}

}  // namespace

void TaskTimeline::Record(TaskEvent event) {
  INCOGNITO_HIST_NANOS(
      "task.run_seconds",
      static_cast<int64_t>(event.end_ns > event.start_ns
                               ? event.end_ns - event.start_ns
                               : 0));
  INCOGNITO_HIST_NANOS(
      "task.queue_wait_seconds",
      static_cast<int64_t>(event.enqueue_ns != 0 &&
                                   event.start_ns > event.enqueue_ns
                               ? event.start_ns - event.enqueue_ns
                               : 0));
  std::lock_guard<std::mutex> lock(mu_);
  if (event.id == 0) event.id = next_id_++;
  events_.push_back(std::move(event));
}

std::vector<TaskEvent> TaskTimeline::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t TaskTimeline::num_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

TimelineStats TaskTimeline::Derive() const {
  std::vector<TaskEvent> events = Snapshot();
  TimelineStats stats;
  stats.tasks = static_cast<int64_t>(events.size());
  int workers = num_workers_ > 0 ? num_workers_ : 1;
  for (const TaskEvent& e : events) {
    workers = std::max(workers, e.worker + 1);
  }
  stats.worker_utilization.assign(static_cast<size_t>(workers), 0.0);
  if (events.empty()) return stats;

  uint64_t t0 = events[0].start_ns, t1 = events[0].end_ns;
  std::vector<double> busy(static_cast<size_t>(workers), 0.0);
  // Per-batch slowest chunk (pool Run() phases) and per-mask duration
  // (the subset DAG) for the critical-path estimate.
  std::map<int64_t, double> batch_max;
  std::map<uint64_t, double> dag_dur;
  for (const TaskEvent& e : events) {
    uint64_t begin = e.enqueue_ns != 0 && e.enqueue_ns < e.start_ns
                         ? e.enqueue_ns
                         : e.start_ns;
    t0 = std::min(t0, begin);
    t1 = std::max(t1, e.end_ns);
    double dur = DurSeconds(e);
    busy[static_cast<size_t>(e.worker)] += dur;
    if (e.batch >= 0) {
      double& slot = batch_max[e.batch];
      slot = std::max(slot, dur);
    } else {
      double& slot = dag_dur[e.mask];
      slot = std::max(slot, dur);
    }
  }
  stats.makespan_seconds =
      t1 > t0 ? static_cast<double>(t1 - t0) * 1e-9 : 0.0;
  double total_busy = 0;
  for (int w = 0; w < workers; ++w) {
    total_busy += busy[static_cast<size_t>(w)];
    stats.worker_utilization[static_cast<size_t>(w)] =
        stats.makespan_seconds > 0
            ? busy[static_cast<size_t>(w)] / stats.makespan_seconds
            : 0.0;
  }
  stats.scheduler_idle_seconds =
      std::max(0.0, workers * stats.makespan_seconds - total_busy);

  // Pool batches run in sequence: each contributes its slowest chunk.
  double critical = 0;
  for (const auto& [batch, dur] : batch_max) {
    (void)batch;
    critical += dur;
  }
  // Subset-DAG tasks: mask m depends on every sub-mask one bit smaller,
  // so the longest path is a max-plus sweep in popcount order.
  std::vector<std::pair<uint64_t, double>> masks(dag_dur.begin(),
                                                dag_dur.end());
  std::sort(masks.begin(), masks.end(),
            [](const auto& a, const auto& b) {
              int pa = PopCount(a.first), pb = PopCount(b.first);
              return pa != pb ? pa < pb : a.first < b.first;
            });
  std::map<uint64_t, double> longest;
  double dag_critical = 0;
  for (const auto& [mask, dur] : masks) {
    double best = 0;
    for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      uint64_t sub = mask & ~(bits & ~(bits - 1));
      auto it = longest.find(sub);
      if (it != longest.end()) best = std::max(best, it->second);
    }
    longest[mask] = dur + best;
    dag_critical = std::max(dag_critical, longest[mask]);
  }
  stats.critical_path_seconds = critical + dag_critical;
  return stats;
}

void TaskTimeline::ExportTo(TraceRecorder& recorder) const {
  std::vector<TaskEvent> events = Snapshot();
  int workers = num_workers_ > 0 ? num_workers_ : 1;
  for (const TaskEvent& e : events) {
    workers = std::max(workers, e.worker + 1);
  }
  recorder.RecordMetadata("process_name", 0, 2, "\"name\":\"scheduler\"");
  for (int w = 0; w < workers; ++w) {
    recorder.RecordMetadata(
        "thread_name", static_cast<uint32_t>(w), 2,
        StringPrintf("\"name\":\"worker %d\"", w));
  }
  for (const TaskEvent& e : events) {
    double wait_us = e.enqueue_ns != 0 && e.start_ns > e.enqueue_ns
                         ? static_cast<double>(e.start_ns - e.enqueue_ns) /
                               1e3
                         : 0.0;
    std::string args = StringPrintf(
        "\"task\":%lld,\"queue_wait_us\":%.3f",
        static_cast<long long>(e.id), wait_us);
    if (e.batch < 0) {
      args += StringPrintf(",\"mask\":%llu",
                           static_cast<unsigned long long>(e.mask));
    } else {
      args += StringPrintf(",\"batch\":%lld", static_cast<long long>(e.batch));
    }
    recorder.RecordComplete(e.name.empty() ? "task" : e.name, e.start_ns,
                            e.end_ns, static_cast<uint32_t>(e.worker), 2,
                            std::move(args));
  }
}

}  // namespace obs
}  // namespace incognito
