// Correctness matrix for the two-phase engine: every VIS mode x every
// socket scheme x both PBV encodings, across structurally diverse graphs,
// must reproduce the reference BFS depths and pass the Graph500-style
// tree validation.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/two_phase_bfs.h"
#include "gen/grid.h"
#include "gen/rmat.h"
#include "gen/stress.h"
#include "gen/uniform.h"
#include "graph/stats.h"
#include "graph/validate.h"

namespace fastbfs {
namespace {

enum class GraphKind { kRmat, kUniform, kStress, kGrid, kDisconnected };

const char* kind_name(GraphKind k) {
  switch (k) {
    case GraphKind::kRmat: return "rmat";
    case GraphKind::kUniform: return "uniform";
    case GraphKind::kStress: return "stress";
    case GraphKind::kGrid: return "grid";
    case GraphKind::kDisconnected: return "disconnected";
  }
  return "?";
}

const CsrGraph& graph_of(GraphKind k) {
  static const CsrGraph rmat = rmat_graph(10, 8, 101);
  static const CsrGraph uniform = uniform_graph(2000, 4, 102);
  static const CsrGraph stress = stress_bipartite_graph(2048, 8, 103);
  static const CsrGraph grid = grid_graph(45, 45, 0.9, 104);
  static const CsrGraph disconnected = [] {
    // Two R-MAT islands with disjoint id ranges.
    EdgeList e = generate_rmat(8, 6, 105);
    const EdgeList second = generate_rmat(8, 6, 106);
    for (const Edge& x : second) {
      e.push_back({x.u + 256, x.v + 256});
    }
    return build_csr(e, 512);
  }();
  switch (k) {
    case GraphKind::kRmat: return rmat;
    case GraphKind::kUniform: return uniform;
    case GraphKind::kStress: return stress;
    case GraphKind::kGrid: return grid;
    case GraphKind::kDisconnected: return disconnected;
  }
  return rmat;
}

struct EngineCase {
  GraphKind graph;
  VisMode vis;
  SocketScheme scheme;
  PbvEncoding encoding;
};

std::string case_name(const ::testing::TestParamInfo<EngineCase>& info) {
  const auto& c = info.param;
  std::ostringstream os;
  os << kind_name(c.graph) << "_vis"
     << static_cast<int>(c.vis) << "_scheme" << static_cast<int>(c.scheme)
     << "_enc" << static_cast<int>(c.encoding);
  return os.str();
}

class EngineMatrix : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineMatrix, MatchesReferenceAndValidates) {
  const EngineCase& c = GetParam();
  const CsrGraph& g = graph_of(c.graph);

  BfsOptions opts;
  opts.n_threads = 4;
  opts.n_sockets = 2;
  opts.vis_mode = c.vis;
  opts.scheme = c.scheme;
  opts.pbv_encoding = c.encoding;
  // Tiny LLC so kPartitionedBit actually partitions on these small graphs.
  if (c.vis == VisMode::kPartitionedBit) {
    opts.llc_bytes_override = 64;  // bits/2 per partition -> several N_VIS
  }

  const AdjacencyArray adj(g, opts.n_sockets);
  TwoPhaseBfs engine(adj, opts);
  if (c.vis == VisMode::kPartitionedBit) {
    EXPECT_GT(engine.n_vis_partitions(), 1u);
  }

  for (const std::uint64_t seed : {1ull, 2ull}) {
    const vid_t root = pick_nonisolated_root(g, seed);
    ASSERT_NE(root, kInvalidVertex);
    const BfsResult r = engine.run(root);
    const auto depths = validate_depths_match(g, r);
    ASSERT_TRUE(depths.ok) << depths.error;
    const auto tree = validate_bfs_tree(g, r);
    ASSERT_TRUE(tree.ok) << tree.error;

    const BfsResult ref = reference_bfs(g, root);
    EXPECT_EQ(r.vertices_visited, ref.vertices_visited);
    EXPECT_EQ(r.depth_reached, ref.depth_reached);
    // The claim dedup keeps benign-race duplicates (the paper reports
    // <= 0.2% extra edges) out of the frontier, so the traversed edges
    // equal the reference's; never fewer, in any case.
    EXPECT_GE(r.edges_traversed, ref.edges_traversed);
    EXPECT_LE(r.edges_traversed, ref.edges_traversed * 11 / 10);
  }
}

std::vector<EngineCase> all_cases() {
  std::vector<EngineCase> cases;
  for (const GraphKind g : {GraphKind::kRmat, GraphKind::kUniform,
                            GraphKind::kStress, GraphKind::kGrid,
                            GraphKind::kDisconnected}) {
    for (const VisMode v :
         {VisMode::kNone, VisMode::kAtomicBit, VisMode::kByte, VisMode::kBit,
          VisMode::kPartitionedBit}) {
      for (const SocketScheme s :
           {SocketScheme::kNone, SocketScheme::kSocketAware,
            SocketScheme::kLoadBalanced}) {
        cases.push_back({g, v, s, PbvEncoding::kAuto});
      }
    }
    // Both explicit encodings on the full configuration.
    cases.push_back({g, VisMode::kPartitionedBit,
                     SocketScheme::kLoadBalanced, PbvEncoding::kMarkers});
    cases.push_back({g, VisMode::kPartitionedBit,
                     SocketScheme::kLoadBalanced, PbvEncoding::kPairs});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineMatrix,
                         ::testing::ValuesIn(all_cases()), case_name);

// --- targeted engine behaviours -----------------------------------------

BfsOptions default_opts() {
  BfsOptions o;
  o.n_threads = 4;
  o.n_sockets = 2;
  return o;
}

TEST(TwoPhase, SimdAndScalarProduceSameDepths) {
  const CsrGraph& g = graph_of(GraphKind::kRmat);
  const AdjacencyArray adj(g, 2);
  BfsOptions a = default_opts();
  a.use_simd = true;
  BfsOptions b = default_opts();
  b.use_simd = false;
  TwoPhaseBfs ea(adj, a), eb(adj, b);
  const BfsResult ra = ea.run(0), rb = eb.run(0);
  for (vid_t v = 0; v < g.n_vertices(); ++v) {
    ASSERT_EQ(ra.dp.depth(v), rb.dp.depth(v)) << v;
  }
}

TEST(TwoPhase, TogglesDoNotChangeResults) {
  const CsrGraph& g = graph_of(GraphKind::kStress);
  const AdjacencyArray adj(g, 2);
  for (const bool prefetch : {false, true}) {
    for (const bool rearrange : {false, true}) {
      BfsOptions o = default_opts();
      o.use_prefetch = prefetch;
      o.rearrange = rearrange;
      TwoPhaseBfs engine(adj, o);
      const BfsResult r = engine.run(0);
      const auto rep = validate_depths_match(g, r);
      ASSERT_TRUE(rep.ok) << "prefetch=" << prefetch
                          << " rearrange=" << rearrange << ": " << rep.error;
    }
  }
}

TEST(TwoPhase, SingleThreadSingleSocket) {
  const CsrGraph& g = graph_of(GraphKind::kUniform);
  const AdjacencyArray adj(g, 1);
  BfsOptions o;
  o.n_threads = 1;
  o.n_sockets = 1;
  TwoPhaseBfs engine(adj, o);
  const BfsResult r = engine.run(7);
  EXPECT_TRUE(validate_depths_match(g, r).ok);
}

TEST(TwoPhase, ManyThreadsManySockets) {
  const CsrGraph& g = graph_of(GraphKind::kRmat);
  const AdjacencyArray adj(g, 4);
  BfsOptions o;
  o.n_threads = 8;
  o.n_sockets = 4;
  TwoPhaseBfs engine(adj, o);
  const BfsResult r = engine.run(pick_nonisolated_root(g, 3));
  EXPECT_TRUE(validate_depths_match(g, r).ok);
}

TEST(TwoPhase, IsolatedRootTerminatesImmediately) {
  const CsrGraph g = build_csr({{1, 2}}, 4);  // vertex 0 isolated
  const AdjacencyArray adj(g, 2);
  TwoPhaseBfs engine(adj, default_opts());
  const BfsResult r = engine.run(0);
  EXPECT_EQ(r.vertices_visited, 1u);
  EXPECT_EQ(r.depth_reached, 0u);
  EXPECT_EQ(r.edges_traversed, 0u);
  EXPECT_TRUE(validate_bfs_tree(g, r).ok);
}

TEST(TwoPhase, RepeatedRunsAreIndependent) {
  const CsrGraph& g = graph_of(GraphKind::kGrid);
  const AdjacencyArray adj(g, 2);
  TwoPhaseBfs engine(adj, default_opts());
  const BfsResult first = engine.run(0);
  const BfsResult again = engine.run(0);
  EXPECT_EQ(first.vertices_visited, again.vertices_visited);
  EXPECT_EQ(first.depth_reached, again.depth_reached);
  // Different root afterwards.
  const BfsResult other = engine.run(44);
  EXPECT_TRUE(validate_depths_match(g, other).ok);
}

TEST(TwoPhase, RejectsBadConfig) {
  const CsrGraph& g = graph_of(GraphKind::kRmat);
  const AdjacencyArray adj(g, 2);
  BfsOptions o = default_opts();
  o.n_sockets = 4;  // mismatch vs adjacency partition
  EXPECT_THROW(TwoPhaseBfs(adj, o), std::invalid_argument);
  TwoPhaseBfs engine(adj, default_opts());
  EXPECT_THROW(engine.run(g.n_vertices()), std::invalid_argument);
}

TEST(TwoPhase, StatsAreCoherent) {
  const CsrGraph& g = graph_of(GraphKind::kRmat);
  const AdjacencyArray adj(g, 2);
  BfsOptions o = default_opts();
  TwoPhaseBfs engine(adj, o);
  const vid_t root = pick_nonisolated_root(g, 5);
  const BfsResult r = engine.run(root);
  const RunStats& s = engine.last_run_stats();
  // One StepStats per BFS level, plus the final step that scanned the
  // deepest frontier and found nothing new.
  EXPECT_EQ(s.steps.size(), r.depth_reached + 1);
  std::uint64_t frontier_total = 0;
  for (const auto& st : s.steps) frontier_total += st.frontier_size;
  // Every visited vertex entered the frontier exactly once (the claim
  // dedup drops benign-race duplicates); the root is counted in step 1's
  // frontier.
  EXPECT_GE(frontier_total, r.vertices_visited);
  EXPECT_GE(s.alpha_adj, 1.0 / o.n_sockets - 1e-9);
  EXPECT_LE(s.alpha_adj, 1.0 + 1e-9);
  EXPECT_GT(s.traffic.total_bytes(), 0u);
}

TEST(TwoPhase, SocketAwareUpdatesAreFullyLocal) {
  // DESIGN invariant 7: with static bin->socket ownership, every VIS/DP
  // update lands on the updating thread's own socket.
  const CsrGraph& g = graph_of(GraphKind::kRmat);
  const AdjacencyArray adj(g, 2);
  BfsOptions o = default_opts();
  o.scheme = SocketScheme::kSocketAware;
  TwoPhaseBfs engine(adj, o);
  engine.run(pick_nonisolated_root(g, 6));
  const RunStats& s = engine.last_run_stats();
  EXPECT_EQ(s.traffic.phase2_update.remote_bytes, 0u);
  EXPECT_GT(s.traffic.phase2_update.local_bytes, 0u);
}

TEST(TwoPhase, LoadBalancedKeepsMostUpdatesLocal) {
  const CsrGraph& g = graph_of(GraphKind::kRmat);
  const AdjacencyArray adj(g, 2);
  BfsOptions o = default_opts();
  o.scheme = SocketScheme::kLoadBalanced;
  TwoPhaseBfs engine(adj, o);
  engine.run(pick_nonisolated_root(g, 6));
  const auto& upd = engine.last_run_stats().traffic.phase2_update;
  // Only the <=2 shared partial bins per socket may go remote.
  EXPECT_LT(upd.remote_bytes, upd.local_bytes);
}

TEST(TwoPhase, StressGraphImbalanceVisibleToSocketAware) {
  // On the bipartite stress graph the frontier alternates sockets, so the
  // socket-aware division shows ~2x imbalance while load-balancing stays
  // flat (the Fig. 5 mechanism).
  const CsrGraph& g = graph_of(GraphKind::kStress);
  const AdjacencyArray adj(g, 2);

  BfsOptions aware = default_opts();
  aware.scheme = SocketScheme::kSocketAware;
  TwoPhaseBfs ea(adj, aware);
  ea.run(0);
  double worst_aware = 1.0;
  for (const auto& st : ea.last_run_stats().steps) {
    worst_aware = std::max(worst_aware, st.phase2_imbalance);
  }

  BfsOptions balanced = default_opts();
  balanced.scheme = SocketScheme::kLoadBalanced;
  TwoPhaseBfs eb(adj, balanced);
  eb.run(0);
  double worst_balanced = 1.0;
  for (const auto& st : eb.last_run_stats().steps) {
    // Tiny frontiers can't be cut evenly; judge only substantial steps.
    if (st.binned_items >= 64) {
      worst_balanced = std::max(worst_balanced, st.phase2_imbalance);
    }
  }

  EXPECT_GT(worst_aware, 1.8);
  EXPECT_LT(worst_balanced, 1.1);
}

TEST(TwoPhase, PairEncodingSelectedWhenBinsExceedDegree) {
  const CsrGraph g = uniform_graph(4096, 2, 9);  // avg degree 4 symmetrized
  const AdjacencyArray adj(g, 2);
  BfsOptions o = default_opts();
  o.vis_mode = VisMode::kPartitionedBit;
  o.llc_bytes_override = 16;  // many VIS partitions -> many bins
  TwoPhaseBfs engine(adj, o);
  EXPECT_GT(engine.n_pbv_bins(), 4u);
  EXPECT_TRUE(engine.uses_pair_encoding());

  BfsOptions few = default_opts();  // 2 bins vs degree 4 -> markers
  TwoPhaseBfs engine2(adj, few);
  EXPECT_FALSE(engine2.uses_pair_encoding());
}

}  // namespace
}  // namespace fastbfs
