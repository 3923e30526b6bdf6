#include "mr/cluster.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/timer.h"
#include "io/env.h"

namespace i2mr {
namespace {

// Process-wide book-keeping for clusters sharing a root (shard clusters
// under one serving root, or a test re-attaching while another instance is
// live). Guards the re-attach jobs/ wipe and hands out the per-instance
// token that namespaces job scratch dirs.
std::mutex g_cluster_roots_mu;
std::map<std::string, int>& LiveClusterRoots() {
  static auto* roots = new std::map<std::string, int>();
  return *roots;
}

int NextClusterInstanceToken() {
  static std::atomic<int> next{0};
  return next.fetch_add(1);
}

}  // namespace

LocalCluster::LocalCluster(std::string root, int num_workers, CostModel cost,
                           bool reset)
    : root_(std::move(root)),
      num_workers_(num_workers),
      cost_(cost),
      dfs_(JoinPath(root_, "dfs")),
      pool_(num_workers, "worker"),
      instance_(NextClusterInstanceToken()) {
  bool first_attach;
  {
    std::lock_guard<std::mutex> lock(g_cluster_roots_mu);
    first_attach = ++LiveClusterRoots()[root_] == 1;
  }
  if (reset) {
    I2MR_CHECK_OK(ResetDir(root_));
  } else if (first_attach) {
    // Re-attach keeps durable state, but jobs/ is per-process shuffle
    // scratch: spill files from a job that crashed mid-run must not
    // survive — a replayed job re-using the same job dir would merge the
    // stale spills into its reduce input. Only the FIRST attacher clears
    // it: a second instance sharing the root (N shards under one parent)
    // must not wipe a sibling's in-flight job dirs, and its own job dirs
    // are collision-free by instance token anyway.
    I2MR_CHECK_OK(ResetDir(JoinPath(root_, "jobs")));
  }
  I2MR_CHECK_OK(CreateDirs(JoinPath(root_, "dfs")));
  I2MR_CHECK_OK(CreateDirs(JoinPath(root_, "workers")));
  I2MR_CHECK_OK(CreateDirs(JoinPath(root_, "jobs")));
  for (int w = 0; w < num_workers_; ++w) {
    I2MR_CHECK_OK(CreateDirs(WorkerDir(w)));
  }
}

LocalCluster::~LocalCluster() {
  std::lock_guard<std::mutex> lock(g_cluster_roots_mu);
  auto it = LiveClusterRoots().find(root_);
  if (it != LiveClusterRoots().end() && --it->second <= 0) {
    LiveClusterRoots().erase(it);
  }
}

std::string LocalCluster::WorkerDir(int w) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "workers/w%03d", w);
  return JoinPath(root_, buf);
}

std::string LocalCluster::NewJobDir(const std::string& name) {
  std::string dir = ReserveJobDir(name);
  I2MR_CHECK_OK(CreateDirs(dir));
  return dir;
}

std::string LocalCluster::ReserveJobDir(const std::string& name) {
  int seq = job_seq_.fetch_add(1);
  // The instance token keeps job dirs disjoint across cluster instances
  // sharing one root (each instance has its own job_seq_ starting at 0).
  char buf[48];
  std::snprintf(buf, sizeof(buf), "-i%03d-%05d", instance_, seq);
  return JoinPath(root_, "jobs/" + name + buf);
}

JobResult LocalCluster::RunJob(const JobSpec& spec) {
  JobResult result;
  result.metrics = std::make_shared<StageMetrics>();
  WallTimer wall;

  if (!spec.mapper || !spec.reducer) {
    result.status = Status::InvalidArgument("job needs mapper and reducer");
    return result;
  }
  if (spec.num_reduce_tasks <= 0) {
    result.status = Status::InvalidArgument("num_reduce_tasks must be > 0");
    return result;
  }
  if (spec.output_dir.empty()) {
    result.status = Status::InvalidArgument("output_dir required");
    return result;
  }
  Status st = CreateDirs(spec.output_dir);
  if (!st.ok()) {
    result.status = st;
    return result;
  }

  cost_.ChargeJobStartup();
  std::string job_dir = NewJobDir(spec.name);
  const int num_maps = static_cast<int>(spec.input_parts.size());
  StageMetrics* metrics = result.metrics.get();

  JobSpec effective = spec;
  if (effective.remote_prefix.empty()) {
    effective.remote_prefix = dfs_.root();
  }
  const JobSpec& job = effective;

  // In-memory shuffle exchange for this job (null = disk spills only).
  std::unique_ptr<ShuffleExchange> exchange;
  if (EffectiveShuffleMode(job.shuffle_mode) == ShuffleMode::kInMemory) {
    exchange = std::make_unique<ShuffleExchange>(job.num_reduce_tasks,
                                                 job.shuffle_memory_bytes);
  }

  // Map phase.
  std::vector<Status> map_status(num_maps);
  ParallelFor(&pool_, num_maps, [&](int m) {
    map_status[m] = internal::RunTaskWithRetries(
        spec, TaskId::Kind::kMap, m, [&](int attempt) {
          return internal::RunMapTask(job, m, job.input_parts[m], job_dir,
                                      exchange.get(), cost_, metrics, attempt);
        });
  });
  for (int m = 0; m < num_maps; ++m) {
    if (!map_status[m].ok()) {
      result.status = map_status[m];
      return result;
    }
  }

  // Reduce phase.
  std::vector<Status> reduce_status(job.num_reduce_tasks);
  ParallelFor(&pool_, job.num_reduce_tasks, [&](int r) {
    reduce_status[r] = internal::RunTaskWithRetries(
        spec, TaskId::Kind::kReduce, r, [&](int attempt) {
          return internal::RunReduceTask(job, r, num_maps, job_dir,
                                         exchange.get(), cost_, metrics,
                                         attempt);
        });
  });
  for (int r = 0; r < job.num_reduce_tasks; ++r) {
    if (!reduce_status[r].ok()) {
      result.status = reduce_status[r];
      return result;
    }
  }

  for (int r = 0; r < job.num_reduce_tasks; ++r) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "part-%05d.dat", r);
    result.output_parts.push_back(JoinPath(job.output_dir, buf));
  }

  // Reclaim shuffle spill space.
  Status cleanup = RemoveAll(job_dir);
  if (!cleanup.ok()) LOG_WARN << "job dir cleanup failed: " << cleanup.ToString();

  result.wall_ms = wall.ElapsedMillis();
  result.status = Status::OK();
  return result;
}

}  // namespace i2mr
