// Tests for the parallel CSR builder: structural equivalence with the
// serial counting-sort builder across options and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "gen/rmat.h"
#include "gen/uniform.h"
#include "graph/parallel_builder.h"
#include "graph/stats.h"

namespace fastbfs {
namespace {

/// Equality up to neighbour order (the parallel scatter is unordered).
void expect_same_graph(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.n_vertices(), b.n_vertices());
  ASSERT_EQ(a.n_edges(), b.n_edges());
  for (vid_t v = 0; v < a.n_vertices(); ++v) {
    auto na = a.neighbors(v);
    auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "degree mismatch at " << v;
    std::vector<vid_t> sa(na.begin(), na.end()), sb(nb.begin(), nb.end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    ASSERT_EQ(sa, sb) << "adjacency mismatch at " << v;
  }
}

struct BuildCase {
  bool symmetrize;
  bool self_loops;
  // The test names print this struct byte by byte, so the two bytes of
  // alignment padding are an explicit zeroed member: left implicit they
  // hold stack garbage and the names change from run to run.
  std::uint16_t padding = 0;
  unsigned threads;
};

constexpr BuildCase build_case(bool symmetrize, bool self_loops,
                               unsigned threads) {
  return {.symmetrize = symmetrize, .self_loops = self_loops,
          .threads = threads};
}

class ParallelBuilder : public ::testing::TestWithParam<BuildCase> {};

TEST_P(ParallelBuilder, MatchesSerialBuilder) {
  const BuildCase& c = GetParam();
  EdgeList edges = generate_rmat(10, 8, 7);
  edges.push_back({3, 3});  // ensure a self loop exists
  BuildOptions opt;
  opt.symmetrize = c.symmetrize;
  opt.remove_self_loops = !c.self_loops;
  const CsrGraph serial = build_csr(edges, 1u << 10, opt);
  const CsrGraph parallel =
      build_csr_parallel(edges, 1u << 10, opt, c.threads);
  expect_same_graph(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelBuilder,
    ::testing::Values(build_case(true, false, 1), build_case(true, false, 4),
                      build_case(false, false, 4), build_case(true, true, 4),
                      build_case(false, true, 3), build_case(true, false, 8)));

TEST(ParallelBuilderExtra, SortedNeighborsAreIdenticalToSerial) {
  const EdgeList edges = generate_uniform(800, 6, 8);
  BuildOptions opt;
  opt.sort_neighbors = true;
  const CsrGraph serial = build_csr(edges, 800, opt);
  const CsrGraph parallel = build_csr_parallel(edges, 800, opt, 4);
  // With sorted adjacency the two builders are bit-identical.
  for (vid_t v = 0; v < 800; ++v) {
    const auto a = serial.neighbors(v);
    const auto b = parallel.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << v;
  }
}

TEST(ParallelBuilderExtra, TraversalAgreesWithSerialBuild) {
  const EdgeList edges = generate_rmat(11, 8, 9);
  const CsrGraph serial = build_csr(edges, 1u << 11);
  const CsrGraph parallel = build_csr_parallel(edges, 1u << 11, {}, 4);
  const vid_t root = pick_nonisolated_root(serial, 1);
  const BfsResult a = reference_bfs(serial, root);
  const BfsResult b = reference_bfs(parallel, root);
  for (vid_t v = 0; v < serial.n_vertices(); ++v) {
    ASSERT_EQ(a.dp.depth(v), b.dp.depth(v)) << v;
  }
}

TEST(ParallelBuilderExtra, Rejections) {
  BuildOptions dedup;
  dedup.dedup = true;
  EXPECT_THROW(build_csr_parallel({{0, 1}}, 2, dedup, 2),
               std::invalid_argument);
  EXPECT_THROW(build_csr_parallel({{0, 9}}, 2, {}, 2),
               std::invalid_argument);
}

TEST(ParallelBuilderExtra, ZeroThreadsMeansOne) {
  const CsrGraph g = build_csr_parallel({{0, 1}}, 2, {}, 0);
  EXPECT_EQ(g.n_edges(), 2u);
}

}  // namespace
}  // namespace fastbfs
