// Table 4: performance optimizations in the MRBG-Store, measured on
// incremental PageRank. The four read strategies are enabled one by one:
//   index-only           - exact I/O per chunk: smallest rsize, most reads
//   single-fix-window    - one window thrashes across sorted batches:
//                          enormous rsize (reads useless data)
//   multi-fix-window     - per-batch windows: far fewer reads
//   multi-dynamic-window - Algorithm 1 windows: the fewest reads, fewer
//                          bytes than fixed (the i2MapReduce default)
//
// Only the reads/rsize ordering is claimed. The paper also reports the best
// merge time for multi-dynamic-window; here the modes' merge times are
// close and their order varies from run to run.
//
// The store runs its one on-disk layout (segment log + background
// compaction, the engine default), so the footprint column also shows that
// superseded chunk versions do not accumulate across refreshes.
#include "apps/pagerank.h"
#include "bench_util.h"
#include "core/incr_iter_engine.h"
#include "data/graph_gen.h"
#include "mr/cluster.h"

using namespace i2mr;
using namespace i2mr::bench;

int main() {
  Title("Table 4: MRBG-Store read strategies (incremental PageRank)");

  GraphGenOptions gen;
  gen.num_vertices = ScaledInt(10000);
  gen.avg_degree = 10;

  struct Row {
    ReadMode mode;
    uint64_t reads = 0;
    double rsize_mb = 0;
    double merge_ms = 0;
    double refresh_ms = 0;
    double mrbg_mb = 0;  // on-disk footprint after the last refresh
  };
  std::vector<Row> rows;

  for (ReadMode mode :
       {ReadMode::kIndexOnly, ReadMode::kSingleFixedWindow,
        ReadMode::kMultiFixedWindow, ReadMode::kMultiDynamicWindow}) {
    auto graph = GenGraph(gen);
    std::string root = std::string("table4_") + ReadModeName(mode);
    LocalCluster cluster(BenchRoot(root), Workers(), PaperCosts());
    IncrIterOptions options;
    options.filter_threshold = 0.1;
    options.store_options.read_mode = mode;
    options.store_options.fixed_window_bytes = 64u << 10;
    // Keep the paper's read-strategy comparison pure: the engine-default
    // appended-tail cache would absorb reads identically across all modes.
    options.store_options.tail_cache_bytes = 0;
    IncrementalIterativeEngine engine(
        &cluster, pagerank::MakeIterSpec("table4", Workers(), 40, 1e-3),
        options);
    I2MR_CHECK(engine.RunInitial(graph, UnitState(graph)).ok());

    // Several refreshes so the MRBGraph store accumulates multiple sorted
    // batches (the multi-window motivation, §5.2).
    Row row;
    row.mode = mode;
    for (int round = 0; round < 3; ++round) {
      GraphDeltaOptions dopt;
      dopt.update_fraction = 0.1;
      dopt.seed = 100 + round;
      auto delta = GenGraphDelta(gen, dopt, &graph);
      auto refresh = engine.RunIncremental(delta);
      I2MR_CHECK(refresh.ok()) << refresh.status().ToString();
      row.reads += refresh->store_io_reads;
      row.rsize_mb += refresh->store_bytes_read / 1e6;
      for (const auto& it : refresh->iterations) row.merge_ms += it.merge_ms;
      row.refresh_ms += refresh->wall_ms;
    }
    auto bytes = engine.MrbgFileBytes();
    if (bytes.ok()) row.mrbg_mb = *bytes / 1e6;
    rows.push_back(row);
  }

  std::printf("%-22s %10s %12s %12s %12s %12s\n", "technique", "# reads",
              "rsize (MB)", "merge time", "refresh", "mrbg (MB)");
  for (const auto& r : rows) {
    std::printf("%-22s %10llu %12.1f %10.0fms %10.0fms %12.1f\n",
                ReadModeName(r.mode), static_cast<unsigned long long>(r.reads),
                r.rsize_mb, r.merge_ms, r.refresh_ms, r.mrbg_mb);
  }
  std::printf(
      "\npaper shape (Table 4): index-only has the smallest rsize but the\n"
      "most reads; single-fix-window reads vastly more bytes (obsolete\n"
      "chunks of other batches); multi-dynamic-window needs the fewest\n"
      "reads and fewer bytes than multi-fix-window. Merge times are\n"
      "close across modes and not ordered by read strategy. Compaction\n"
      "keeps the on-disk footprint bounded across refreshes.\n");
  return 0;
}
