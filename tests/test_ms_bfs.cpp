// Multi-source (MS-BFS) engine: per-source equivalence with the
// single-source engines, wave packing, and the distinct-roots batch
// contract. (Tier-1 suite; the randomized 100-seed sweep that also covers
// MS-BFS lives in test_fuzz_engines.cpp under the fuzz label.)
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/api.h"
#include "core/ms_bfs.h"
#include "gen/adversarial.h"
#include "gen/rmat.h"
#include "gen/uniform.h"
#include "graph/builder.h"
#include "graph/stats.h"
#include "graph/validate.h"
#include "util/rng.h"

namespace fastbfs {
namespace {

/// Up to `k` distinct non-isolated roots by circular scan from a seeded
/// start (test-side mirror of the run_batch sampling contract).
std::vector<vid_t> distinct_roots(const CsrGraph& g, unsigned k,
                                  std::uint64_t seed) {
  std::vector<vid_t> roots;
  if (g.n_vertices() == 0) return roots;
  Xoshiro256 rng(seed);
  const vid_t start = static_cast<vid_t>(rng.next_below(g.n_vertices()));
  for (vid_t i = 0; i < g.n_vertices() && roots.size() < k; ++i) {
    const vid_t v = (start + i) % g.n_vertices();
    if (g.degree(v) > 0) roots.push_back(v);
  }
  return roots;
}

/// Runs one wave and checks every source against its own serial reference:
/// identical depths, a valid BFS tree, and exact per-source counters.
void check_wave(const CsrGraph& g, const BfsOptions& opts,
                const std::vector<vid_t>& roots) {
  const AdjacencyArray adj(g, opts.n_sockets);
  MsBfs engine(adj, opts);
  std::vector<BfsResult> results(roots.size());
  std::vector<BfsResult*> ptrs;
  for (auto& r : results) ptrs.push_back(&r);
  engine.run_wave(roots.data(), static_cast<unsigned>(roots.size()),
                  ptrs.data());

  ValidationWorkspace ws;
  for (std::size_t s = 0; s < roots.size(); ++s) {
    const BfsResult& r = results[s];
    const BfsResult ref = reference_bfs(g, roots[s]);
    ASSERT_EQ(r.root, roots[s]);
    ASSERT_EQ(r.dp.size(), ref.dp.size());
    for (vid_t v = 0; v < g.n_vertices(); ++v) {
      ASSERT_EQ(r.dp.depth(v), ref.dp.depth(v))
          << "source " << s << " (root " << roots[s] << ") diverges at "
          << "vertex " << v;
    }
    const ValidationReport report = validate_bfs_tree_into(g, r, ws);
    EXPECT_TRUE(report.ok) << "source " << s << ": " << report.error;
    EXPECT_EQ(r.vertices_visited, ref.vertices_visited) << "source " << s;
    EXPECT_EQ(r.depth_reached, ref.depth_reached) << "source " << s;
    // Threads that claim different sources of one vertex emit it once
    // between them (the claim-tag dedup merges their masks), so each
    // (vertex, source) pair is expanded once and the traversed-edge count
    // equals the single-source figure under any thread count.
    EXPECT_EQ(r.edges_traversed, ref.edges_traversed) << "source " << s;
    EXPECT_GT(r.seconds, 0.0);
  }
}

/// Engine knobs randomized per (shape, salt), like the fuzz sweep.
BfsOptions random_opts(std::uint64_t salt) {
  Xoshiro256 rng(salt);
  BfsOptions o;
  o.n_threads = 1 + static_cast<unsigned>(rng.next_below(6));
  o.n_sockets =
      1 + static_cast<unsigned>(rng.next_below(std::min(o.n_threads, 3u)));
  o.scheme = static_cast<SocketScheme>(rng.next_below(3));
  o.use_simd = rng.next_below(2) != 0;
  if (rng.next_below(2) != 0) {
    o.llc_bytes_override = 512 << rng.next_below(6);  // force multi-tile
  }
  return o;
}

TEST(MsBfs, CorpusShapesMatchReferencePerSource) {
  struct Shape {
    const char* name;
    CsrGraph graph;
  };
  const Shape shapes[] = {
      {"star", star_graph(2048)},
      {"collider", collider_graph(4, 512, /*leaf_ring=*/true)},
      {"deep-path", deep_path_graph(96, 2)},
      {"rmat", rmat_graph(10, 8, 17)},
      {"uniform", uniform_graph(1500, 6, 18)},
  };
  std::uint64_t salt = 100;
  for (const Shape& shape : shapes) {
    for (const unsigned k : {1u, 3u, 64u}) {
      const auto roots = distinct_roots(shape.graph, k, ++salt);
      ASSERT_FALSE(roots.empty()) << shape.name;
      SCOPED_TRACE(::testing::Message()
                   << shape.name << " k=" << roots.size());
      check_wave(shape.graph, random_opts(salt), roots);
    }
  }
}

TEST(MsBfs, SingleThreadCountersMatchSingleSourceEngine) {
  // One thread removes the benign race, so every per-source counter —
  // including traversed edges — must equal the single-source engine's.
  const CsrGraph g = rmat_graph(10, 8, 19);
  BfsOptions o;
  o.n_threads = 1;
  o.n_sockets = 1;
  const auto roots = distinct_roots(g, 8, 3);
  ASSERT_EQ(roots.size(), 8u);

  const AdjacencyArray adj(g, 1);
  MsBfs engine(adj, o);
  std::vector<BfsResult> results(roots.size());
  std::vector<BfsResult*> ptrs;
  for (auto& r : results) ptrs.push_back(&r);
  engine.run_wave(roots.data(), static_cast<unsigned>(roots.size()),
                  ptrs.data());

  BfsRunner single(g, o);
  for (std::size_t s = 0; s < roots.size(); ++s) {
    const BfsResult ref = single.run(roots[s]);
    EXPECT_EQ(results[s].vertices_visited, ref.vertices_visited)
        << "source " << s;
    EXPECT_EQ(results[s].edges_traversed, ref.edges_traversed)
        << "source " << s;
    EXPECT_EQ(results[s].depth_reached, ref.depth_reached) << "source " << s;
  }

  const MsWaveStats& ws = engine.last_wave_stats();
  EXPECT_EQ(ws.n_sources, 8u);
  EXPECT_GT(ws.levels, 1u);
  EXPECT_GT(ws.edges_scanned, 0u);
}

TEST(MsBfs, SharedSweepsScanFewerEdgesThanSequentialRuns) {
  // The engine's reason to exist: a 64-source wave must scan well under
  // 64x the adjacency entries that 64 separate runs would stream.
  const CsrGraph g = rmat_graph(12, 8, 23);
  BfsOptions o;
  o.n_threads = 2;
  o.n_sockets = 1;
  const auto roots = distinct_roots(g, 64, 5);
  ASSERT_EQ(roots.size(), 64u);

  const AdjacencyArray adj(g, 1);
  MsBfs engine(adj, o);
  std::vector<BfsResult> results(roots.size());
  std::vector<BfsResult*> ptrs;
  for (auto& r : results) ptrs.push_back(&r);
  engine.run_wave(roots.data(), 64, ptrs.data());

  std::uint64_t per_source_sum = 0;
  for (const BfsResult& r : results) per_source_sum += r.edges_traversed;
  const std::uint64_t shared = engine.last_wave_stats().edges_scanned;
  ASSERT_GT(shared, 0u);
  EXPECT_GE(per_source_sum, 4 * shared)
      << "wave amortization collapsed: " << shared << " scans served only "
      << per_source_sum << " per-source edge traversals";
}

TEST(MsBfs, DuplicateRootsEachGetFullResults) {
  const CsrGraph g = rmat_graph(9, 8, 29);
  const vid_t root = pick_nonisolated_root(g, 7);
  const std::vector<vid_t> roots = {root, root, root};
  check_wave(g, random_opts(31), roots);
}

TEST(MsBfs, RejectsBadWaves) {
  const CsrGraph g = rmat_graph(8, 8, 37);
  const AdjacencyArray adj(g, 1);
  BfsOptions o;
  o.n_threads = 2;
  o.n_sockets = 1;
  MsBfs engine(adj, o);
  BfsResult result;
  BfsResult* ptr = &result;
  const vid_t root = pick_nonisolated_root(g, 1);
  EXPECT_THROW(engine.run_wave(&root, 0, &ptr), std::invalid_argument);
  EXPECT_THROW(engine.run_wave(&root, kMsWaveWidth + 1, &ptr),
               std::invalid_argument);
  const vid_t bad = g.n_vertices();
  EXPECT_THROW(engine.run_wave(&bad, 1, &ptr), std::invalid_argument);
}

TEST(MsBatch, SixtyFiveRootsRunTwoWaves) {
  const CsrGraph g = rmat_graph(10, 8, 41);
  BfsOptions o;
  o.batch_mode = BatchMode::kMs64;
  BfsRunner runner(g, o);
  const BatchResult b = runner.run_batch(g, 65, /*seed=*/9);
  EXPECT_EQ(b.runs, 65u);
  EXPECT_EQ(b.validated, 65u);
  EXPECT_EQ(b.waves, 2u);
  EXPECT_GT(b.harmonic_teps, 0.0);
  ASSERT_NE(runner.ms_engine(), nullptr);
}

TEST(MsBatch, SequentialModeRunsNoWaves) {
  const CsrGraph g = rmat_graph(9, 8, 43);
  BfsRunner runner(g);  // default batch_mode = kSequential
  const BatchResult b = runner.run_batch(g, 5, 1);
  EXPECT_EQ(b.waves, 0u);
  EXPECT_EQ(runner.ms_engine(), nullptr);
}

TEST(MsBatch, ModesAgreeOnPerKeyTrees) {
  // Same seed -> same sampled keys; both modes must validate every tree
  // and visit identical per-key vertex counts (depths are pinned by the
  // validator + the equivalence tests above).
  const CsrGraph g = rmat_graph(10, 8, 47);
  BfsOptions seq;
  BfsOptions ms;
  ms.batch_mode = BatchMode::kMs64;
  BfsRunner seq_runner(g, seq);
  BfsRunner ms_runner(g, ms);
  const BatchResult a = seq_runner.run_batch(g, 20, /*seed=*/11);
  const BatchResult b = ms_runner.run_batch(g, 20, /*seed=*/11);
  ASSERT_EQ(a.roots, b.roots) << "same seed must sample the same keys";
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.validated, a.runs);
  EXPECT_EQ(b.validated, b.runs);
}

TEST(BatchRoots, SampledKeysAreDistinct) {
  const CsrGraph g = rmat_graph(10, 8, 53);
  BfsRunner runner(g);
  const BatchResult b = runner.run_batch(g, 48, /*seed=*/13);
  ASSERT_EQ(b.roots.size(), 48u);
  std::vector<vid_t> sorted = b.roots;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "run_batch sampled a duplicate search key";
  for (const vid_t r : b.roots) EXPECT_GT(g.degree(r), 0u);
}

TEST(BatchRoots, ExhaustsSmallGraphsExactly) {
  // 3 non-isolated vertices + 5 isolated ones: asking for 8 keys must
  // yield exactly the 3 distinct candidates, in any order.
  const CsrGraph g = build_csr({{0, 1}, {1, 2}}, 8);
  BfsRunner runner(g);
  const BatchResult b = runner.run_batch(g, 8, /*seed=*/17);
  EXPECT_EQ(b.runs, 3u);
  EXPECT_EQ(b.validated, 3u);
  std::vector<vid_t> sorted = b.roots;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<vid_t>{0, 1, 2}));
}

TEST(BatchRoots, DistinctAcrossWaveBoundaryInMsMode) {
  // Ms64 on a graph with fewer keys than requested: every produced key is
  // distinct and the wave count matches the clamped key count.
  const CsrGraph g = rmat_graph(8, 6, 59);  // 256 vertices
  BfsOptions o;
  o.batch_mode = BatchMode::kMs64;
  BfsRunner runner(g, o);
  const BatchResult b = runner.run_batch(g, 200, /*seed=*/19);
  EXPECT_LE(b.runs, 200u);
  EXPECT_EQ(b.validated, b.runs);
  EXPECT_EQ(b.waves, (b.runs + kMsWaveWidth - 1) / kMsWaveWidth);
  std::vector<vid_t> sorted = b.roots;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

}  // namespace
}  // namespace fastbfs
