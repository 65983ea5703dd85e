// Zero-allocation steady-state contract of a warm engine.
//
// DESIGN.md "Engine workspace lifecycle": after a warm-up traversal, every
// subsequent run_into() on the same BfsRunner must perform zero heap
// allocations, the shared division plans must be computed once per phase
// per step (independent of the thread count), and a warm run must be
// bit-identical in depths and stats to a fresh engine's run — no state may
// leak between traversals.
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_count.h"
#include "apps/components.h"
#include "apps/pagerank.h"
#include "core/api.h"
#include "core/divide.h"
#include "gen/grid.h"
#include "gen/rmat.h"
#include "graph/csr.h"
#include "graph/stats.h"
#include "graph/validate.h"
#include "obs/metrics.h"
#include "obs/perf/perf_counters.h"
#include "obs/perf/perf_syscall.h"
#include "obs/trace.h"
#include "serve/service.h"

namespace fastbfs {
namespace {

// Minimal always-succeeding perf_event fake for the counters-armed warm
// gate: fixed tables only, so the fake itself cannot allocate inside the
// gated region. Values advance per read so span deltas are non-trivial.
namespace fakeperf {

struct Group {
  int leader_fd = -1;
  int n = 0;  // events in the group, leader included
};

struct Table {
  std::array<Group, 8> groups{};
  int n_groups = 0;
  int next_fd = 100;
  std::uint64_t ticks = 0;
};

Table g_table;

long fake_open(const void*, std::int32_t, std::int32_t, std::int32_t group_fd,
               unsigned long) {
  Table& t = g_table;
  if (group_fd < 0) {
    if (t.n_groups == static_cast<int>(t.groups.size())) return -24;  // EMFILE
    t.groups[static_cast<unsigned>(t.n_groups)] = {t.next_fd, 1};
    ++t.n_groups;
    return t.next_fd++;
  }
  for (int i = 0; i < t.n_groups; ++i) {
    if (t.groups[static_cast<unsigned>(i)].leader_fd == group_fd) {
      ++t.groups[static_cast<unsigned>(i)].n;
      return t.next_fd++;
    }
  }
  return -9;  // EBADF
}

long fake_read(int fd, void* buf, std::size_t count) {
  Table& t = g_table;
  for (int i = 0; i < t.n_groups; ++i) {
    const Group& g = t.groups[static_cast<unsigned>(i)];
    if (g.leader_fd != fd) continue;
    // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
    const std::size_t need =
        sizeof(std::uint64_t) * (3 + static_cast<unsigned>(g.n));
    if (count < need) return -22;  // EINVAL
    auto* out = static_cast<std::uint64_t*>(buf);
    out[0] = static_cast<std::uint64_t>(g.n);
    out[1] = 1000;
    out[2] = 1000;
    const std::uint64_t tick = ++t.ticks;
    for (int e = 0; e < g.n; ++e) {
      out[3 + static_cast<unsigned>(e)] =
          tick * 10 + static_cast<std::uint64_t>(e);
    }
    return static_cast<long>(need);
  }
  return -9;  // EBADF
}

long fake_close(int) { return 0; }

constexpr obs::perf::Syscalls kTable{fake_open, fake_read, fake_close};

}  // namespace fakeperf

// Tiny LLC override forces N_VIS > 1 and multi-bin PBV on a 1k-vertex
// graph, so the warm-run claim covers the partitioned code paths, not just
// the degenerate single-bin ones.
BfsOptions steady_opts() {
  BfsOptions opts;
  opts.n_threads = 4;
  opts.n_sockets = 2;
  opts.llc_bytes_override = 4096;
  opts.collect_stats = true;
  return opts;
}

// Counts vertices whose depth differs between two results.
std::uint64_t depth_mismatches(const BfsResult& a, const BfsResult& b) {
  EXPECT_EQ(a.dp.size(), b.dp.size());
  std::uint64_t mismatches = 0;
  for (vid_t v = 0; v < a.dp.size(); ++v) {
    if (a.dp.depth(v) != b.dp.depth(v)) ++mismatches;
  }
  return mismatches;
}

TEST(SteadyState, WarmRunIntoAllocatesNothing) {
  const CsrGraph g = rmat_graph(10, 8, /*seed=*/7);
  BfsRunner runner(g, steady_opts());
  const vid_t r1 = pick_nonisolated_root(g, 1);
  const vid_t r2 = pick_nonisolated_root(g, 2);

  if (!testing::allocation_counting_active()) {
    GTEST_SKIP() << "allocation-counting operator new not linked in";
  }

  // Warm-up: traversals grow every buffer to its high-water mark. Claim
  // distributions are race-dependent, so marks can creep for a few runs;
  // probe until a whole pair of runs is allocation-free (bounded), then
  // *require* the next pair to be. The metrics scrape a serving loop
  // would run (a reusable snapshot of the global registry, which each
  // traversal's epilogue updates) is part of the warm contract too.
  BfsResult out;
  obs::MetricsSnapshot snap;
  runner.run_into(r1, out);
  obs::metrics().snapshot_into(snap);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t probe = testing::allocation_count();
    runner.run_into(r1, out);
    runner.run_into(r2, out);
    obs::metrics().snapshot_into(snap);
    if (testing::allocation_count() == probe) break;
  }

  const std::uint64_t before = testing::allocation_count();
  runner.run_into(r1, out);
  runner.run_into(r2, out);
  obs::metrics().snapshot_into(snap);
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm run_into() + metrics snapshot must not touch the heap";
  EXPECT_GT(out.vertices_visited, 0u);
  EXPECT_GT(snap.samples.size(), 0u);
}

TEST(SteadyState, WarmAutoDirectionRunAllocatesNothing) {
  const CsrGraph g = rmat_graph(10, 8, /*seed=*/11);
  BfsOptions opts = steady_opts();
  opts.direction = DirectionMode::kAuto;  // RMAT triggers bottom-up steps
  BfsRunner runner(g, opts);
  const vid_t root = pick_nonisolated_root(g, 3);

  if (!testing::allocation_counting_active()) {
    GTEST_SKIP() << "allocation-counting operator new not linked in";
  }

  BfsResult out;
  runner.run_into(root, out);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t probe = testing::allocation_count();
    runner.run_into(root, out);
    if (testing::allocation_count() == probe) break;
  }

  const std::uint64_t before = testing::allocation_count();
  runner.run_into(root, out);
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_NE(runner.last_run_stats().direction_string().find('B'),
            std::string::npos)
      << "test graph was meant to exercise bottom-up steps";
}

TEST(SteadyState, WarmRunWithPerfArmedAllocatesNothing) {
  // The counters-armed extension of the warm contract: with the perf
  // subsystem live (fake PMU via the syscall seam, so the gate also runs
  // on machines where perf_event_open is blocked) — and, when tracing is
  // compiled in, with the recorder enabled so spans actually read and
  // accumulate counter deltas — a warm run_into() must still not touch
  // the heap. The read path writes into fixed tables and a preallocated
  // sample ring; this pins that.
  const CsrGraph g = rmat_graph(10, 8, /*seed=*/7);
  BfsRunner runner(g, steady_opts());
  const vid_t root = pick_nonisolated_root(g, 1);

  if (!testing::allocation_counting_active()) {
    GTEST_SKIP() << "allocation-counting operator new not linked in";
  }

  fakeperf::g_table = {};
  obs::perf::set_syscalls_for_testing(&fakeperf::kTable);
  if (obs::trace_compiled()) obs::enable();
  ASSERT_TRUE(obs::perf::arm());
  ASSERT_EQ(obs::perf::status(), obs::perf::PerfStatus::kHardware);

  BfsResult out;
  runner.run_into(root, out);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t probe = testing::allocation_count();
    runner.run_into(root, out);
    if (testing::allocation_count() == probe) break;
  }

  const std::uint64_t before = testing::allocation_count();
  runner.run_into(root, out);
  runner.run_into(root, out);
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm run_into() with counters armed must not touch the heap";
  EXPECT_GT(out.vertices_visited, 0u);

  if (obs::trace_compiled()) {
    // Tracing compiled in: the spans around each phase must have fed the
    // aggregation tables while staying allocation-free above.
    obs::perf::Reading now;
    EXPECT_TRUE(obs::perf::read_current(now));
    EXPECT_NE(now.valid_mask, 0u);
  }

  obs::perf::disarm();
  if (obs::trace_compiled()) obs::disable();
  obs::perf::set_syscalls_for_testing(nullptr);
}

// Shared body of the warm-batch gates: run_batch_into (validation on, the
// expensive configuration) must stop touching the heap once the runner and
// the recycled BatchResult are warm — the batch extension of the run_into
// zero-allocation contract, in both batch modes.
void expect_warm_batches_allocate_nothing(BatchMode mode) {
  const CsrGraph g = rmat_graph(10, 8, /*seed=*/13);
  BfsOptions opts = steady_opts();
  opts.batch_mode = mode;
  BfsRunner runner(g, opts);

  if (!testing::allocation_counting_active()) {
    GTEST_SKIP() << "allocation-counting operator new not linked in";
  }

  // Warm-up: record-count distributions downstream of the benign seen[]
  // race vary slightly run to run, so a per-thread high-water mark can
  // creep for a while (and a bit_ceil reserve can straddle a power-of-two
  // boundary). Require several consecutive allocation-free pairs before
  // measuring, so the measured pair would need a fresh all-time maximum
  // to fail.
  BatchResult out;
  runner.run_batch_into(g, 12, /*seed=*/21, out, /*validate=*/true);
  ASSERT_EQ(out.validated, out.runs);
  int stable = 0;
  for (int i = 0; i < 40 && stable < 3; ++i) {
    const std::uint64_t probe = testing::allocation_count();
    runner.run_batch_into(g, 12, 21, out, true);
    runner.run_batch_into(g, 7, 22, out, true);
    stable = testing::allocation_count() == probe ? stable + 1 : 0;
  }

  const std::uint64_t before = testing::allocation_count();
  runner.run_batch_into(g, 12, 21, out, true);
  runner.run_batch_into(g, 7, 22, out, true);
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm validated run_batch_into must not touch the heap";
  EXPECT_EQ(out.runs, 7u);
  EXPECT_EQ(out.validated, 7u);
}

TEST(SteadyState, WarmSequentialBatchAllocatesNothing) {
  expect_warm_batches_allocate_nothing(BatchMode::kSequential);
}

TEST(SteadyState, WarmMs64BatchAllocatesNothing) {
  expect_warm_batches_allocate_nothing(BatchMode::kMs64);
}

TEST(SteadyState, DividePlansOncePerPhasePerStep) {
  // High-diameter grid: stays strictly top-down, many steps. An all-top-
  // down run of S steps computes exactly 2*S plans — one plan1 per step
  // (the step-1 plan from prepare_run plus S-1 built in the end-of-step
  // windows; the final step exits before building a plan for a successor)
  // and one plan2 per step — regardless of how many threads run.
  const CsrGraph g = grid_graph(64, 64);
  std::vector<std::uint64_t> deltas;
  std::vector<std::size_t> step_counts;
  for (unsigned n_threads : {2u, 8u}) {  // >= 1 thread per socket
    BfsOptions opts = steady_opts();
    opts.n_threads = n_threads;
    BfsRunner runner(g, opts);
    BfsResult out;
    runner.run_into(0, out);  // warm-up; measurement starts below
    const std::uint64_t before = divide_bins_invocations();
    runner.run_into(0, out);
    deltas.push_back(divide_bins_invocations() - before);
    step_counts.push_back(runner.last_run_stats().steps.size());
  }
  ASSERT_EQ(step_counts[0], step_counts[1]);
  EXPECT_EQ(deltas[0], 2 * step_counts[0]);
  EXPECT_EQ(deltas[1], 2 * step_counts[1])
      << "plan count must be independent of the thread count";
}

TEST(SteadyState, WarmRunsMatchFreshEngines) {
  // Cross-run contamination audit: the N-th traversal on a warm runner
  // must be indistinguishable from the same traversal on a fresh engine.
  const CsrGraph g = rmat_graph(10, 8, /*seed=*/23);
  const BfsOptions opts = steady_opts();
  const vid_t r1 = pick_nonisolated_root(g, 5);
  const vid_t r2 = pick_nonisolated_root(g, 6);
  ASSERT_NE(r1, r2);

  BfsRunner warm(g, opts);
  BfsResult out;
  for (vid_t root : {r1, r2, r1}) {
    warm.run_into(root, out);
    BfsRunner fresh(g, opts);
    const BfsResult ref = fresh.run(root);

    EXPECT_EQ(depth_mismatches(out, ref), 0u) << "root " << root;
    EXPECT_EQ(out.root, root);
    EXPECT_EQ(out.vertices_visited, ref.vertices_visited);
    EXPECT_EQ(out.edges_traversed, ref.edges_traversed);
    EXPECT_EQ(out.depth_reached, ref.depth_reached);

    const RunStats& ws = warm.last_run_stats();
    const RunStats& fs = fresh.last_run_stats();
    EXPECT_EQ(ws.direction_string(), fs.direction_string());
    ASSERT_EQ(ws.steps.size(), fs.steps.size());
    for (std::size_t i = 0; i < ws.steps.size(); ++i) {
      EXPECT_EQ(ws.steps[i].frontier_size, fs.steps[i].frontier_size)
          << "step " << i;
      EXPECT_EQ(ws.steps[i].binned_items, fs.steps[i].binned_items)
          << "step " << i;
    }
    // The local/remote *split* is intentionally not compared: which
    // consumer of a shared PBV bin wins a child's VIS test varies run to
    // run (the paper's benign race), moving that child's accounting
    // between threads. Nor is the raw byte total: every race loser still
    // moves its 8 B DP probe (race_probes) and, when the dedup drops its
    // BV_N append, 4 B more (dup_emissions) — bytes a winner-only
    // schedule never moves. Less those, every byte follows from the BFS
    // levels alone, so that remainder pins the traffic audit exactly.
    const auto level_bytes = [](const RunStats& s) {
      return s.traffic.total_bytes() - 8 * s.race_probes -
             4 * s.dup_emissions;
    };
    EXPECT_EQ(level_bytes(ws), level_bytes(fs));

    const ValidationReport report = validate_bfs_tree(g, out);
    EXPECT_TRUE(report.ok) << report.error;
  }
}

TEST(SteadyState, RunIntoAdoptsForeignBuffer) {
  // run_into must cope with whatever buffer the caller hands it: empty,
  // wrong-sized, or recycled from another graph's run.
  const CsrGraph small = grid_graph(4, 4);
  const CsrGraph big = grid_graph(32, 32);
  BfsOptions opts = steady_opts();
  BfsRunner small_runner(small, opts);
  BfsRunner big_runner(big, opts);

  BfsResult out;
  small_runner.run_into(0, out);
  ASSERT_EQ(out.dp.size(), small.n_vertices());

  // Undersized buffer from the small graph gets replaced, not reused.
  big_runner.run_into(0, out);
  ASSERT_EQ(out.dp.size(), big.n_vertices());
  EXPECT_EQ(out.vertices_visited, big.n_vertices());
  EXPECT_EQ(out.dp.depth(big.n_vertices() - 1), 31u + 31u);

  // Oversized buffer likewise.
  small_runner.run_into(5, out);
  ASSERT_EQ(out.dp.size(), small.n_vertices());
  const ValidationReport report = validate_bfs_tree(small, out);
  EXPECT_TRUE(report.ok) << report.error;
}

// Serving-loop extension of the zero-allocation contract (the BFS-as-a-
// service warm path): once the service has seen both shapes of work, a
// mixed stream of sequential singletons and coalesced MS-64 waves —
// admission, batching, dispatch, and response fan-out included — must not
// touch the heap. Fixed slot pools in the batcher, recycled per-dispatcher
// result buffers, and the sink interface exist precisely for this gate.
TEST(SteadyState, WarmServingLoopAllocatesNothing) {
  /// Counts responses without storing them (storing would allocate).
  class CountingSink : public serve::ResponseSink {
   public:
    void on_response(const serve::ResponseView& view) override {
      ++responses;
      if (view.header.status == serve::Status::kOk) ++ok;
    }
    std::uint64_t responses = 0;
    std::uint64_t ok = 0;
  };

  const CsrGraph g = rmat_graph(10, 8, /*seed=*/17);
  serve::VirtualClock clock(1000);
  CountingSink sink;
  serve::ServiceConfig cfg;
  cfg.engine = steady_opts();
  cfg.batcher.window_ns = 0;  // dispatch whatever is queued at each pump
  serve::BfsService svc(cfg, clock, sink);
  svc.add_graph(g);

  if (!testing::allocation_counting_active()) {
    GTEST_SKIP() << "allocation-counting operator new not linked in";
  }

  std::array<vid_t, 8> roots;
  for (std::uint64_t i = 0; i < roots.size(); ++i) {
    roots[i] = pick_nonisolated_root(g, i);
  }
  std::uint64_t next_id = 0;
  // One iteration of the mixed stream: a lone query served on the
  // sequential fallback path, then a burst coalesced into one MS-64 wave.
  const auto serve_mixed = [&] {
    serve::QueryRequest q;
    q.root = roots[0];
    q.id = next_id++;
    ASSERT_EQ(svc.submit(q, nullptr), serve::Status::kOk);
    ASSERT_EQ(svc.pump(clock.now()), 1u);  // singleton -> run_into
    for (std::size_t i = 1; i < roots.size(); ++i) {
      q.root = roots[i];
      q.id = next_id++;
      ASSERT_EQ(svc.submit(q, nullptr), serve::Status::kOk);
    }
    ASSERT_EQ(svc.pump(clock.now()), 1u);  // burst -> one wave
    clock.advance(1'000'000);
  };

  // Warm-up (first pump builds the MS engine; buffer high-water marks can
  // creep for a few iterations, as in the run_into gate above).
  serve_mixed();
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t probe = testing::allocation_count();
    serve_mixed();
    if (testing::allocation_count() == probe) break;
  }

  const std::uint64_t before = testing::allocation_count();
  serve_mixed();
  serve_mixed();
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm serving loop (admit + batch + dispatch + respond) must "
         "not touch the heap";
  ASSERT_EQ(sink.responses, next_id);
  EXPECT_EQ(sink.ok, next_id);
  const serve::ServeCounters c = svc.counters();
  EXPECT_EQ(c.completed, next_id);
  EXPECT_GT(c.waves, 0u);
  EXPECT_GT(c.sequential_runs, 0u);
}

// EdgeMap-app extension of the zero-allocation contract: a warm PageRank
// or connected-components instance re-running on recycled result buffers
// must not touch the heap. This pins the whole stack at once — the apps'
// state vectors, the EdgeMap engine's lanes/plans/PBV streams, the claim
// epochs (never cleared, only CAS'd forward) and the metrics epilogue.
TEST(SteadyState, WarmEdgeMapAppAllocatesNothing) {
  const CsrGraph g = rmat_graph(10, 8, /*seed=*/37);
  BfsOptions opts = steady_opts();
  opts.direction = DirectionMode::kAuto;
  const AdjacencyArray adj(g, opts.n_sockets);

  apps::PageRankOptions po;
  po.tolerance = 0.0;  // fixed 8 iterations per run
  po.max_iterations = 8;
  apps::PageRank pr(adj, opts, po);
  apps::ConnectedComponents cc(adj, opts);

  if (!testing::allocation_counting_active()) {
    GTEST_SKIP() << "allocation-counting operator new not linked in";
  }

  apps::PageRankResult pr_out;
  apps::ComponentsResult cc_out;
  const auto run_both = [&] {
    pr.run_into(pr_out);
    cc.run_into(cc_out);
  };

  // Warm-up with the stable-probe-pair discipline of the batch gates:
  // CC claim distributions are race-dependent, so lane high-water marks
  // can creep for a few runs.
  run_both();
  int stable = 0;
  for (int i = 0; i < 40 && stable < 3; ++i) {
    const std::uint64_t probe = testing::allocation_count();
    run_both();
    stable = testing::allocation_count() == probe ? stable + 1 : 0;
  }
  ASSERT_EQ(stable, 3) << "EdgeMap app allocations never stabilized";

  const std::uint64_t before = testing::allocation_count();
  run_both();
  run_both();
  const std::uint64_t after = testing::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "warm EdgeMap app runs must not touch the heap";
  EXPECT_EQ(pr_out.iterations, po.max_iterations);
  EXPECT_GT(cc_out.giant_size, 0u);
}

TEST(SteadyState, WorkspacePlateausWhenWarm) {
  const CsrGraph g = rmat_graph(10, 8, /*seed=*/31);
  BfsRunner runner(g, steady_opts());
  const vid_t r1 = pick_nonisolated_root(g, 8);
  const vid_t r2 = pick_nonisolated_root(g, 9);

  // Buffer high-water marks depend on race-dependent claim distributions
  // (see WarmRunsMatchFreshEngines), so capacities converge over a few
  // runs rather than instantly. Warm until the workspace has held still
  // for several consecutive run pairs; it must then stay frozen, and it
  // must never have shrunk (reuse, not churn) nor ballooned.
  BfsResult out;
  runner.run_into(r1, out);
  const std::uint64_t first = runner.workspace_bytes();
  ASSERT_GT(first, 0u);

  std::uint64_t warm = first;
  int stable_pairs = 0;
  for (int i = 0; i < 48 && stable_pairs < 3; ++i) {
    runner.run_into(r1, out);
    runner.run_into(r2, out);
    const std::uint64_t now = runner.workspace_bytes();
    ASSERT_GE(now, warm) << "workspace shrank between runs";
    stable_pairs = now == warm ? stable_pairs + 1 : 0;
    warm = now;
  }
  ASSERT_EQ(stable_pairs, 3) << "workspace never stabilized";
  EXPECT_LT(warm, 4 * first) << "warm workspace far above first-run size";

  for (int i = 0; i < 4; ++i) {
    runner.run_into(r1, out);
    runner.run_into(r2, out);
    EXPECT_EQ(runner.workspace_bytes(), warm)
        << "workspace must plateau once the runner is warm";
  }
}

}  // namespace
}  // namespace fastbfs
