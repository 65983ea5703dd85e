// Direction-optimizing engine properties (DESIGN.md "Direction-optimizing
// extension"):
//   - kAuto stays strictly top-down on high-diameter graphs (path, grid),
//   - forced kBottomUp is correct on adversarial inputs (disconnected
//     graphs, isolated roots, self-loops, duplicate edges) and under every
//     VIS representation,
//   - the RunStats direction log replays decide_direction() step-for-step
//     and the incremental edge bookkeeping satisfies its defining
//     identities,
//   - kAuto runs are deterministic: same (graph, root, options) twice
//     gives the same step sequence and the same parent array,
//   - VisMode::kNone is transparently upgraded when bottom-up is possible.
#include <gtest/gtest.h>

#include <vector>

#include "core/api.h"
#include "core/two_phase_bfs.h"
#include "gen/grid.h"
#include "gen/rmat.h"
#include "graph/stats.h"
#include "graph/validate.h"

namespace fastbfs {
namespace {

BfsOptions direction_opts(DirectionMode mode) {
  BfsOptions o;
  o.n_threads = 4;
  o.n_sockets = 2;
  o.direction = mode;
  return o;
}

void expect_matches_reference(const CsrGraph& g, const BfsResult& r,
                              const char* what) {
  const BfsResult ref = reference_bfs(g, r.root);
  ASSERT_EQ(r.dp.size(), ref.dp.size()) << what;
  for (vid_t v = 0; v < g.n_vertices(); ++v) {
    ASSERT_EQ(r.dp.depth(v), ref.dp.depth(v))
        << what << " diverges at vertex " << v;
  }
  EXPECT_EQ(r.vertices_visited, ref.vertices_visited) << what;
  EXPECT_EQ(r.depth_reached, ref.depth_reached) << what;
  const auto tree = validate_bfs_tree(g, r);
  EXPECT_TRUE(tree.ok) << what << ": " << tree.error;
}

// --- (a) kAuto never leaves top-down on high-diameter graphs ------------

TEST(Direction, AutoStaysTopDownOnGrid) {
  const CsrGraph g = grid_graph(64, 64, 1.0, 11);
  const AdjacencyArray adj(g, 2);
  TwoPhaseBfs engine(adj, direction_opts(DirectionMode::kAuto));
  engine.run(0);
  const RunStats& s = engine.last_run_stats();
  EXPECT_EQ(s.direction_switches, 0u);
  for (const StepStats& st : s.steps) {
    EXPECT_EQ(st.direction, StepDirection::kTopDown) << "step " << st.step;
  }
  EXPECT_EQ(s.bottom_up_probes, 0u);
}

TEST(Direction, AutoStaysTopDownOnPath) {
  // A 1 x N grid is a path: the frontier is a single vertex at every
  // level, the regime where a naive alpha-only test would flip to
  // bottom-up near exhaustion (unexplored edges -> 0).
  const CsrGraph g = grid_graph(1, 600, 1.0, 12);
  const AdjacencyArray adj(g, 2);
  TwoPhaseBfs engine(adj, direction_opts(DirectionMode::kAuto));
  engine.run(0);
  const RunStats& s = engine.last_run_stats();
  EXPECT_EQ(s.direction_switches, 0u);
  EXPECT_EQ(s.direction_string(), std::string(s.steps.size(), 'T'));
}

// --- (b) forced bottom-up on adversarial inputs -------------------------

TEST(Direction, BottomUpOnDisconnectedGraph) {
  // Two R-MAT islands with disjoint id ranges; bottom-up sweeps the whole
  // vertex range every step, so the unreached island must stay INF.
  EdgeList e = generate_rmat(8, 6, 21);
  const EdgeList second = generate_rmat(8, 6, 22);
  for (const Edge& x : second) e.push_back({x.u + 256, x.v + 256});
  const CsrGraph g = build_csr(e, 512);

  for (const VisMode vis : {VisMode::kAtomicBit, VisMode::kByte,
                            VisMode::kBit, VisMode::kPartitionedBit}) {
    BfsOptions o = direction_opts(DirectionMode::kBottomUp);
    o.vis_mode = vis;
    if (vis == VisMode::kPartitionedBit) o.llc_bytes_override = 64;
    const AdjacencyArray adj(g, o.n_sockets);
    TwoPhaseBfs engine(adj, o);
    for (const vid_t root : {vid_t{0}, vid_t{300}}) {
      BfsResult r = engine.run(root);
      expect_matches_reference(g, r, "forced bottom-up");
    }
    // Every step really ran bottom-up.
    for (const StepStats& st : engine.last_run_stats().steps) {
      EXPECT_EQ(st.direction, StepDirection::kBottomUp);
    }
    EXPECT_GT(engine.last_run_stats().bottom_up_probes, 0u);
  }
}

TEST(Direction, BottomUpFromIsolatedRoot) {
  const CsrGraph g = build_csr({{1, 2}}, 4);  // vertex 0 isolated
  const AdjacencyArray adj(g, 2);
  TwoPhaseBfs engine(adj, direction_opts(DirectionMode::kBottomUp));
  const BfsResult r = engine.run(0);
  EXPECT_EQ(r.vertices_visited, 1u);
  EXPECT_EQ(r.depth_reached, 0u);
  EXPECT_EQ(r.edges_traversed, 0u);
  EXPECT_TRUE(validate_bfs_tree(g, r).ok);
}

TEST(Direction, BottomUpWithSelfLoopsAndDuplicateEdges) {
  // Self-loops must never make a vertex its own BFS parent; duplicate
  // edges must not produce duplicate frontier entries.
  BuildOptions keep_everything;
  keep_everything.symmetrize = true;
  keep_everything.remove_self_loops = false;
  keep_everything.dedup = false;
  EdgeList e = generate_rmat(9, 8, 23);
  for (vid_t v = 0; v < 512; v += 7) e.push_back({v, v});    // self-loops
  for (vid_t v = 0; v + 1 < 512; v += 5) e.push_back({v, v + 1});
  for (vid_t v = 0; v + 1 < 512; v += 5) e.push_back({v, v + 1});  // dupes
  const CsrGraph g = build_csr(e, 512, keep_everything);

  const AdjacencyArray adj(g, 2);
  TwoPhaseBfs engine(adj, direction_opts(DirectionMode::kBottomUp));
  const BfsResult r = engine.run(pick_nonisolated_root(g, 1));
  expect_matches_reference(g, r, "bottom-up with loops/dupes");
  for (vid_t v = 0; v < g.n_vertices(); ++v) {
    if (v != r.root && r.dp.visited(v)) {
      EXPECT_NE(r.dp.parent(v), v) << "self-loop claimed as parent";
    }
  }
}

TEST(Direction, RejectsNonPositiveThresholds) {
  const CsrGraph g = rmat_graph(8, 4, 24);
  const AdjacencyArray adj(g, 2);
  BfsOptions o = direction_opts(DirectionMode::kAuto);
  o.alpha = 0.0;
  EXPECT_THROW(TwoPhaseBfs(adj, o), std::invalid_argument);
  o.alpha = 15.0;
  o.beta = -1.0;
  EXPECT_THROW(TwoPhaseBfs(adj, o), std::invalid_argument);
}

// --- (c) the RunStats log replays the documented decision rule ----------

TEST(Direction, AutoLogMatchesDecisionRuleStepForStep) {
  const CsrGraph g = rmat_graph(11, 8, 31);
  const AdjacencyArray adj(g, 2);
  BfsOptions o = direction_opts(DirectionMode::kAuto);
  TwoPhaseBfs engine(adj, o);
  const vid_t root = pick_nonisolated_root(g, 2);
  const BfsResult r = engine.run(root);
  expect_matches_reference(g, r, "kAuto");

  const RunStats& s = engine.last_run_stats();
  ASSERT_FALSE(s.steps.empty());

  // Low-diameter R-MAT at edge-factor 8 must actually exercise the
  // switch, otherwise this replay proves nothing.
  EXPECT_GE(s.direction_switches, 2u) << "log: " << s.direction_string();

  // Replay: the step-k direction is decide_direction applied to the
  // previous direction and the logged heuristic inputs.
  StepDirection prev = StepDirection::kTopDown;
  unsigned switches = 0;
  for (std::size_t k = 0; k < s.steps.size(); ++k) {
    const StepStats& st = s.steps[k];
    const StepDirection expected = decide_direction(
        prev, st.frontier_edges, st.unexplored_edges, st.frontier_size,
        g.n_vertices(), g.n_edges(), o.alpha, o.beta);
    EXPECT_EQ(st.direction, expected) << "step " << st.step;
    if (k > 0 && expected != prev) ++switches;
    prev = expected;
  }
  EXPECT_EQ(s.direction_switches, switches);

  // Bookkeeping identities: the root step sees everything-but-the-root
  // unexplored, and each step removes from unexplored_edges exactly the
  // out-edges of the frontier it discovered (the next step's m_f).
  EXPECT_EQ(s.steps[0].frontier_edges, adj.degree(root));
  EXPECT_EQ(s.steps[0].unexplored_edges,
            g.n_edges() - s.steps[0].frontier_edges);
  for (std::size_t k = 0; k + 1 < s.steps.size(); ++k) {
    EXPECT_EQ(s.steps[k + 1].unexplored_edges,
              s.steps[k].unexplored_edges - s.steps[k + 1].frontier_edges)
        << "between steps " << k + 1 << " and " << k + 2;
  }
}

// --- deterministic replay regression ------------------------------------

TEST(Direction, AutoRunsAreDeterministic) {
  // One thread per socket with static bin ownership makes even parent
  // choice single-writer, so two identical runs must agree bit-for-bit —
  // any divergence means a race in the direction/edge-count bookkeeping.
  const CsrGraph g = rmat_graph(11, 8, 41);
  const AdjacencyArray adj(g, 2);
  BfsOptions o;
  o.n_threads = 2;
  o.n_sockets = 2;
  o.scheme = SocketScheme::kSocketAware;
  o.direction = DirectionMode::kAuto;
  TwoPhaseBfs engine(adj, o);
  const vid_t root = pick_nonisolated_root(g, 3);

  const BfsResult first = engine.run(root);
  const RunStats a = engine.last_run_stats();
  const BfsResult second = engine.run(root);
  const RunStats& b = engine.last_run_stats();

  ASSERT_EQ(a.steps.size(), b.steps.size());
  EXPECT_GE(a.direction_switches, 1u) << "log: " << a.direction_string();
  EXPECT_EQ(a.direction_switches, b.direction_switches);
  for (std::size_t k = 0; k < a.steps.size(); ++k) {
    EXPECT_EQ(a.steps[k].direction, b.steps[k].direction) << "step " << k;
    EXPECT_EQ(a.steps[k].frontier_size, b.steps[k].frontier_size);
    EXPECT_EQ(a.steps[k].frontier_edges, b.steps[k].frontier_edges);
    EXPECT_EQ(a.steps[k].unexplored_edges, b.steps[k].unexplored_edges);
    EXPECT_EQ(a.steps[k].binned_items, b.steps[k].binned_items);
    EXPECT_EQ(a.steps[k].bottom_up_probes, b.steps[k].bottom_up_probes);
  }
  EXPECT_EQ(first.edges_traversed, second.edges_traversed);
  for (vid_t v = 0; v < g.n_vertices(); ++v) {
    ASSERT_EQ(first.dp.depth(v), second.dp.depth(v)) << v;
    ASSERT_EQ(first.dp.parent(v), second.dp.parent(v)) << v;
  }
}

// --- kNone-vis interaction guard ----------------------------------------

TEST(Direction, VisNoneUpgradedForBottomUpModes) {
  const CsrGraph g = rmat_graph(9, 8, 51);
  const AdjacencyArray adj(g, 2);

  for (const DirectionMode mode :
       {DirectionMode::kBottomUp, DirectionMode::kAuto}) {
    BfsOptions o = direction_opts(mode);
    o.vis_mode = VisMode::kNone;
    TwoPhaseBfs engine(adj, o);
    // Pinned behaviour: transparently upgraded to the bit array (not
    // rejected), because kNone has no bitmap for bottom-up probes.
    EXPECT_EQ(engine.options().vis_mode, VisMode::kBit);
    BfsResult r = engine.run(pick_nonisolated_root(g, 4));
    expect_matches_reference(g, r, "kNone upgraded");
  }

  // Pure top-down keeps the no-VIS comparison point untouched.
  BfsOptions td = direction_opts(DirectionMode::kTopDown);
  td.vis_mode = VisMode::kNone;
  TwoPhaseBfs engine(adj, td);
  EXPECT_EQ(engine.options().vis_mode, VisMode::kNone);
}

// --- mixed-mode sanity: auto equals forced variants ---------------------

TEST(Direction, AutoMatchesForcedModesOnRmat) {
  const CsrGraph g = rmat_graph(10, 16, 61);
  const AdjacencyArray adj(g, 2);
  const vid_t root = pick_nonisolated_root(g, 5);

  std::vector<BfsResult> results;
  for (const DirectionMode mode :
       {DirectionMode::kTopDown, DirectionMode::kBottomUp,
        DirectionMode::kAuto}) {
    TwoPhaseBfs engine(adj, direction_opts(mode));
    results.push_back(engine.run(root));
  }
  for (vid_t v = 0; v < g.n_vertices(); ++v) {
    ASSERT_EQ(results[0].dp.depth(v), results[1].dp.depth(v)) << v;
    ASSERT_EQ(results[0].dp.depth(v), results[2].dp.depth(v)) << v;
  }
  // The consumed-frontier accounting makes the work metric comparable
  // across directions: every mode counts exactly the out-edges of the
  // BFS levels (top-down steps drop benign-race duplicates before they
  // are counted), so none may report fewer than forced bottom-up.
  EXPECT_GE(results[0].edges_traversed, results[1].edges_traversed);
  EXPECT_GE(results[2].edges_traversed, results[1].edges_traversed);
}

}  // namespace
}  // namespace fastbfs
