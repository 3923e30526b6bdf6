// LocalCluster: the MapReduce runtime. Emulates a JobTracker + N
// TaskTracker workers with a thread pool, per-worker local directories,
// a directory-backed Dfs, and a CostModel for cluster overheads.
#ifndef I2MR_MR_CLUSTER_H_
#define I2MR_MR_CLUSTER_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "io/dfs.h"
#include "mr/cost_model.h"
#include "mr/job.h"

namespace i2mr {

class LocalCluster {
 public:
  /// Creates the cluster working directory layout under `root`:
  ///   <root>/dfs/       durable "distributed" storage + checkpoints
  ///   <root>/workers/   per-worker local state (MRBG files, caches)
  ///   <root>/jobs/      per-job shuffle spill space
  /// With `reset` (the default) any previous contents of `root` are wiped;
  /// pass reset=false to re-attach to an existing root and keep durable
  /// state (pipeline logs, committed epochs, preserved MRBGraphs) across
  /// process restarts. Multiple LocalCluster instances may share one root
  /// within a process (the serving layer's shard clusters): job scratch
  /// dirs carry a per-instance token so they never collide, and only the
  /// first re-attach to a root clears stale jobs/ leftovers — later
  /// attachers must not clobber a sibling's in-flight shuffle spills.
  LocalCluster(std::string root, int num_workers, CostModel cost = {},
               bool reset = true);
  ~LocalCluster();

  /// Run a complete MapReduce job (blocking). Map tasks run in parallel on
  /// the worker pool, then reduce tasks.
  JobResult RunJob(const JobSpec& spec);

  Dfs* dfs() { return &dfs_; }
  ThreadPool* pool() { return &pool_; }
  const CostModel& cost() const { return cost_; }
  int num_workers() const { return num_workers_; }
  const std::string& root() const { return root_; }

  /// Local directory of worker `w` (created on demand).
  std::string WorkerDir(int w) const;

  /// Fresh scratch directory for a job's shuffle spills.
  std::string NewJobDir(const std::string& name);

  /// Like NewJobDir, but the directory is not created: a job whose shuffle
  /// may stay in memory lets its first spill create it
  /// (ShuffleWriter::Finish) and removes it only if it exists.
  std::string ReserveJobDir(const std::string& name);

 private:
  std::string root_;
  int num_workers_;
  CostModel cost_;
  Dfs dfs_;
  ThreadPool pool_;
  int instance_;  // process-unique token namespacing this instance's job dirs
  std::atomic<int> job_seq_{0};
};

}  // namespace i2mr

#endif  // I2MR_MR_CLUSTER_H_
