#ifndef INCOGNITO_OBS_TIMELINE_H_
#define INCOGNITO_OBS_TIMELINE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace incognito {
namespace obs {

class TraceRecorder;

/// One scheduled unit of work as seen by a TaskTimeline: a subset-DAG
/// task of the Incognito search, or one worker's chunk of a
/// WorkerPool::Run. Timestamps are absolute TraceRecorder::NowNs values.
struct TaskEvent {
  int64_t id = 0;           ///< dense per-timeline task id
  uint64_t mask = 0;        ///< subset mask for DAG tasks, 0 otherwise
  int worker = 0;           ///< worker that executed the task (0 = caller)
  int64_t batch = -1;       ///< pool Run() generation for pool chunks;
                            ///< -1 for DAG tasks (deps come from `mask`)
  uint64_t enqueue_ns = 0;  ///< when the task became ready to run
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::string name;
};

/// Scheduler health figures derived from one timeline (see Derive()).
struct TimelineStats {
  /// Per-worker busy fraction of the timeline's makespan, indexed by
  /// worker id.
  std::vector<double> worker_utilization;
  /// The longest dependency-respecting chain of task durations: pool
  /// batches contribute their slowest chunk, the subset DAG its longest
  /// root-to-apex path. A lower bound on the run's serial time.
  double critical_path_seconds = 0;
  /// Worker-seconds not spent running tasks: workers * makespan - busy.
  double scheduler_idle_seconds = 0;
  double makespan_seconds = 0;
  int64_t tasks = 0;
};

/// Records per-task scheduling events (enqueue/start/end, worker, subset
/// mask) from the WorkerPool and the subset-DAG scheduler.
/// Thread-safe; Record also feeds the `task.run_seconds` and
/// `task.queue_wait_seconds` latency histograms. One timeline instance
/// covers one run — construct fresh per RunIncognito* call.
class TaskTimeline {
 public:
  explicit TaskTimeline(int num_workers) : num_workers_(num_workers) {}
  TaskTimeline(const TaskTimeline&) = delete;
  TaskTimeline& operator=(const TaskTimeline&) = delete;

  /// Appends one completed task. `event.id` is assigned here (dense,
  /// in completion order) when left at 0.
  void Record(TaskEvent event);

  std::vector<TaskEvent> Snapshot() const;
  size_t num_tasks() const;
  int num_workers() const { return num_workers_; }

  /// Derives utilization, critical path, and idle time from the recorded
  /// tasks. Call after the run is quiescent.
  TimelineStats Derive() const;

  /// Exports the timeline into `recorder` as Chrome trace "complete"
  /// events with tid = worker id under pid 2 ("scheduler"), plus
  /// thread_name/process_name metadata, so the DAG renders as per-worker
  /// swimlanes.
  void ExportTo(TraceRecorder& recorder) const;

 private:
  int num_workers_;
  mutable std::mutex mu_;
  int64_t next_id_ = 1;
  std::vector<TaskEvent> events_;
};

}  // namespace obs
}  // namespace incognito

#endif  // INCOGNITO_OBS_TIMELINE_H_
