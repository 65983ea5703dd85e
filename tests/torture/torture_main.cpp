// Schedule-perturbation torture driver (ctest label: tier2-stress).
//
// Replays many chaos-perturbed schedules of the instrumented engine
// (FASTBFS_CHAOS build of src/core) across engine configurations x VIS
// schemes x direction modes x adversarial topologies, and checks every
// run against the serial oracle, the Graph500-style tree validator and
// the VIS audit, and the logical counters (frontier sizes and
// edges_traversed) against the visited set. The checks are deliberately the *same* for clean and
// mutated engines: the mutation-smoke tests prove this exact pipeline
// flags a broken DP re-check and a dropped VIS store, so a clean sweep
// means something.
//
// Budget knobs (environment):
//   FASTBFS_TORTURE_FULL=1   nightly cross-product sweep (thousands of
//                            schedules) instead of the bounded per-push set
//   FASTBFS_TORTURE_SEEDS=N  chaos seeds per (graph, config); defaults 6
//                            bounded / 40 full (TSan CI uses 2)
//
// Every failure prints a one-line ReplaySpec; the controller's decision
// stream for any (seed, point, thread, visit) is a pure function
// (chaos::action_for), so a printed seed replays its schedule decisions
// byte-identically — the TortureReplay tests pin this.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/components.h"
#include "apps/oracles.h"
#include "apps/pagerank.h"
#include "core/api.h"
#include "gen/adversarial.h"
#include "gen/grid.h"
#include "gen/rmat.h"
#include "graph/stats.h"
#include "graph/validate.h"
#include "obs/metrics.h"
#include "thread/chaos.h"

#ifndef FASTBFS_CHAOS
#error "the torture driver must be compiled with FASTBFS_CHAOS=1"
#endif

namespace fastbfs {
namespace {

unsigned env_unsigned(const char* name, unsigned fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<unsigned>(std::strtoul(value, nullptr, 10));
}

bool full_sweep() { return env_unsigned("FASTBFS_TORTURE_FULL", 0) != 0; }

// ---------------------------------------------------------------------------
// Sweep axes

struct EngineAxis {
  SocketScheme scheme = SocketScheme::kLoadBalanced;
  VisMode vis = VisMode::kBit;
  DirectionMode dir = DirectionMode::kTopDown;
  unsigned threads = 4;
  unsigned sockets = 2;
  std::size_t llc_override = 0;
};

BfsOptions axis_options(const EngineAxis& a) {
  BfsOptions o;
  o.scheme = a.scheme;
  o.vis_mode = a.vis;
  o.direction = a.dir;
  o.n_threads = a.threads;
  o.n_sockets = a.sockets;
  o.llc_bytes_override = a.llc_override;
  return o;
}

// The bounded per-push set: one representative per mechanism under test —
// both racy bit modes, the partitioned-VIS multi-bin path, the atomic and
// no-VIS reference points, bottom-up ownership claims, and the auto
// direction switch.
std::vector<EngineAxis> bounded_axes() {
  using S = SocketScheme;
  using V = VisMode;
  using D = DirectionMode;
  return {
      {S::kLoadBalanced, V::kBit, D::kTopDown, 4, 2, 0},
      {S::kLoadBalanced, V::kByte, D::kTopDown, 4, 2, 0},
      {S::kLoadBalanced, V::kPartitionedBit, D::kAuto, 4, 2, 512},
      {S::kLoadBalanced, V::kAtomicBit, D::kAuto, 3, 1, 0},
      {S::kSocketAware, V::kBit, D::kBottomUp, 4, 2, 0},
      {S::kNone, V::kNone, D::kTopDown, 4, 1, 0},
  };
}

// The nightly cross-product: every scheme x VIS mode x direction, plus
// thread-count variants of the most contended configuration.
std::vector<EngineAxis> full_axes() {
  std::vector<EngineAxis> axes;
  for (const SocketScheme s : {SocketScheme::kNone, SocketScheme::kSocketAware,
                               SocketScheme::kLoadBalanced}) {
    for (const VisMode v : {VisMode::kNone, VisMode::kAtomicBit, VisMode::kByte,
                            VisMode::kBit, VisMode::kPartitionedBit}) {
      for (const DirectionMode d : {DirectionMode::kTopDown,
                                    DirectionMode::kBottomUp,
                                    DirectionMode::kAuto}) {
        axes.push_back({s, v, d, 4, 2,
                        v == VisMode::kPartitionedBit ? std::size_t{512} : 0});
      }
    }
  }
  axes.push_back({SocketScheme::kLoadBalanced, VisMode::kBit,
                  DirectionMode::kAuto, 2, 1, 0});
  axes.push_back({SocketScheme::kLoadBalanced, VisMode::kBit,
                  DirectionMode::kAuto, 6, 2, 0});
  return axes;
}

// ---------------------------------------------------------------------------
// Replay spec: the one line a failure prints, parseable back into the
// exact (graph, config, chaos seed) coordinate.

struct ReplaySpec {
  std::string graph;
  EngineAxis axis;
  std::uint64_t chaos_seed = 0;
  unsigned act_per_256 = 0;

  std::string to_string() const {
    std::ostringstream out;
    out << "torture-replay graph=" << graph
        << " scheme=" << static_cast<unsigned>(axis.scheme)
        << " vis=" << static_cast<unsigned>(axis.vis)
        << " dir=" << static_cast<unsigned>(axis.dir)
        << " threads=" << axis.threads << " sockets=" << axis.sockets
        << " llc=" << axis.llc_override << " chaos=" << chaos_seed
        << " act=" << act_per_256;
    return out.str();
  }

  static bool parse(const std::string& line, ReplaySpec* spec) {
    std::istringstream in(line);
    std::string token;
    if (!(in >> token) || token != "torture-replay") return false;
    while (in >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) return false;
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      char* end = nullptr;
      const std::uint64_t n = std::strtoull(value.c_str(), &end, 10);
      if (key == "graph") {
        spec->graph = value;
        continue;
      }
      if (end == nullptr || *end != '\0') return false;
      if (key == "scheme") {
        spec->axis.scheme = static_cast<SocketScheme>(n);
      } else if (key == "vis") {
        spec->axis.vis = static_cast<VisMode>(n);
      } else if (key == "dir") {
        spec->axis.dir = static_cast<DirectionMode>(n);
      } else if (key == "threads") {
        spec->axis.threads = static_cast<unsigned>(n);
      } else if (key == "sockets") {
        spec->axis.sockets = static_cast<unsigned>(n);
      } else if (key == "llc") {
        spec->axis.llc_override = static_cast<std::size_t>(n);
      } else if (key == "chaos") {
        spec->chaos_seed = n;
      } else if (key == "act") {
        spec->act_per_256 = static_cast<unsigned>(n);
      } else {
        return false;
      }
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Corpus: adversarial shapes (see gen/adversarial.h) plus one grid and one
// R-MAT so the harness also covers ordinary frontier mixes.

struct TortureGraph {
  std::string name;
  CsrGraph graph;
  vid_t root;
  BfsResult oracle;
};

const std::vector<TortureGraph>& corpus() {
  static const std::vector<TortureGraph>* graphs = [] {
    auto* v = new std::vector<TortureGraph>;
    const auto add = [v](std::string name, CsrGraph g, vid_t root) {
      BfsResult oracle = reference_bfs(g, root);
      v->push_back({std::move(name), std::move(g), root, std::move(oracle)});
    };
    add("star-4096", star_graph(4096), 0);
    add("collider-4x2048", collider_graph(4, 2048, /*leaf_ring=*/true), 0);
    add("deep-path-256x2", deep_path_graph(256, 2), 0);
    add("grid-24", grid_graph(24, 24), 0);
    {
      CsrGraph g = rmat_graph(/*scale=*/10, /*edge_factor=*/8, /*seed=*/91);
      const vid_t root = pick_nonisolated_root(g, 1);
      add("rmat-10", std::move(g), root);
    }
    return v;
  }();
  return *graphs;
}

const TortureGraph& corpus_entry(const std::string& name) {
  for (const TortureGraph& tg : corpus()) {
    if (tg.name == name) return tg;
  }
  ADD_FAILURE() << "unknown corpus graph " << name;
  return corpus().front();
}

// ---------------------------------------------------------------------------
// One perturbed run + the invariant pipeline.

struct SweepStats {
  std::uint64_t runs = 0;
  std::uint64_t injected = 0;        // chaos actions performed
  std::uint64_t benign_missing = 0;  // lost VIS bits in lossy modes
  std::uint64_t dup_emissions = 0;   // same-step double claims dropped
};

chaos::Config sweep_config(std::uint64_t seed) {
  chaos::Config cfg;
  cfg.seed = seed;
  cfg.act_per_256 = 64;
  cfg.record_trace = false;
  return cfg;
}

// Wider windows for the mutation smokes: the skip-DP-re-check bug only
// turns into a wrong depth after a sibling-bit RMW loss, so stretch the
// load->store window hard.
chaos::Config mutation_config(std::uint64_t seed) {
  chaos::Config cfg;
  cfg.seed = seed;
  cfg.act_per_256 = 128;
  cfg.sleep_per_256 = 96;
  cfg.max_sleep_us = 30;
  cfg.record_trace = false;
  return cfg;
}

/// Every invariant a run must satisfy; empty string = pass. Identical for
/// clean and mutated engines (see file header).
std::string check_run(const TortureGraph& tg, const BfsRunner& runner,
                      const BfsResult& r, SweepStats* stats) {
  std::ostringstream fail;
  for (vid_t v = 0; v < tg.graph.n_vertices(); ++v) {
    if (r.dp.depth(v) != tg.oracle.dp.depth(v)) {
      fail << "depth mismatch at vertex " << v << ": engine "
           << r.dp.depth(v) << ", oracle " << tg.oracle.dp.depth(v);
      return fail.str();
    }
  }
  const ValidationReport report = validate_bfs_tree(tg.graph, r);
  if (!report.ok) {
    fail << "invalid BFS tree: " << report.error;
    return fail.str();
  }
  const VisAudit audit = runner.audit_vis(r);
  if (audit.audited) {
    if (audit.spurious != 0) {
      fail << audit.spurious
           << " spurious VIS bits (set without an assigned depth)";
      return fail.str();
    }
    if (audit.strict && audit.missing != 0) {
      fail << audit.missing << " lost VIS stores in a lossless mode";
      return fail.str();
    }
    stats->benign_missing += audit.missing;
  }
  // Same-step double claims are *legal* (two threads can pass the same
  // VIS test before either set lands; depths agree either way), but the
  // claim dedup keeps each claimed child in one BV_N, so the logical
  // counters are exact in every schedule: each visited vertex enters one
  // frontier and contributes its degree to edges_traversed once. The
  // dropped duplicates are tallied as a statistic.
  const RunStats& rs = runner.last_run_stats();
  std::uint64_t entered = 0;
  for (const StepStats& st : rs.steps) entered += st.frontier_size;
  if (entered != r.vertices_visited) {
    fail << "frontier sizes sum to " << entered << ", but "
         << r.vertices_visited << " vertices were visited ("
         << rs.direction_string() << ")";
    return fail.str();
  }
  std::uint64_t visited_degrees = 0;
  for (vid_t v = 0; v < tg.graph.n_vertices(); ++v) {
    if (r.dp.visited(v)) visited_degrees += tg.graph.degree(v);
  }
  if (r.edges_traversed != visited_degrees) {
    fail << "edges_traversed " << r.edges_traversed
         << " != degree sum of the visited vertices " << visited_degrees
         << " (" << rs.direction_string() << ")";
    return fail.str();
  }
  stats->dup_emissions += rs.dup_emissions;
  return {};
}

/// Runs one perturbed schedule and checks it. The chaos controller is
/// enabled only around the traversal.
std::string run_one(const TortureGraph& tg, const EngineAxis& axis,
                    const chaos::Config& cfg, SweepStats* stats) {
  chaos::enable(cfg);
  std::string failure;
  {
    BfsRunner runner(tg.graph, axis_options(axis));
    const BfsResult r = runner.run(tg.root);
    failure = check_run(tg, runner, r, stats);
  }
  stats->injected += chaos::injected_total();
  ++stats->runs;
  chaos::disable();
  return failure;
}

// ---------------------------------------------------------------------------
// Multi-source engine enrollment: one wave of kMsTortureSources per
// perturbed schedule, every source checked against its own precomputed
// serial oracle plus the tree validator. The MS axes drop the VIS/direction
// dimensions (masks replace VIS; waves are always top-down) and instead
// vary the scheme / thread / mask-tiling knobs the engine actually has.

constexpr unsigned kMsTortureSources = 16;

struct MsOracle {
  std::vector<vid_t> roots;
  std::vector<BfsResult> refs;
};

const MsOracle& ms_oracle(const TortureGraph& tg) {
  static std::map<std::string, MsOracle>* cache =
      new std::map<std::string, MsOracle>;
  auto it = cache->find(tg.name);
  if (it != cache->end()) return it->second;
  MsOracle o;
  o.roots.push_back(tg.root);
  for (vid_t v = 0; v < tg.graph.n_vertices() &&
                    o.roots.size() < kMsTortureSources;
       ++v) {
    if (tg.graph.degree(v) > 0 && v != tg.root) o.roots.push_back(v);
  }
  for (const vid_t r : o.roots) o.refs.push_back(reference_bfs(tg.graph, r));
  return cache->emplace(tg.name, std::move(o)).first->second;
}

std::vector<EngineAxis> ms_axes() {
  using S = SocketScheme;
  using V = VisMode;
  using D = DirectionMode;
  return {
      {S::kLoadBalanced, V::kBit, D::kTopDown, 4, 2, 0},
      {S::kLoadBalanced, V::kBit, D::kTopDown, 3, 1, 2048},  // multi-tile
      {S::kSocketAware, V::kBit, D::kTopDown, 4, 2, 512},
      {S::kNone, V::kBit, D::kTopDown, 2, 1, 0},  // single-bin path
  };
}

std::string run_one_ms(const TortureGraph& tg, const EngineAxis& axis,
                       const chaos::Config& cfg, SweepStats* stats) {
  const MsOracle& oracle = ms_oracle(tg);
  chaos::enable(cfg);
  std::string failure;
  {
    const AdjacencyArray adj(tg.graph, axis.sockets);
    MsBfs engine(adj, axis_options(axis));
    std::vector<BfsResult> results(oracle.roots.size());
    std::vector<BfsResult*> ptrs;
    for (auto& r : results) ptrs.push_back(&r);
    engine.run_wave(oracle.roots.data(),
                    static_cast<unsigned>(oracle.roots.size()), ptrs.data());
    ValidationWorkspace ws;
    for (std::size_t s = 0; s < oracle.roots.size() && failure.empty();
         ++s) {
      for (vid_t v = 0; v < tg.graph.n_vertices(); ++v) {
        if (results[s].dp.depth(v) != oracle.refs[s].dp.depth(v)) {
          std::ostringstream fail;
          fail << "ms-bfs source " << s << " (root " << oracle.roots[s]
               << ") depth mismatch at vertex " << v << ": engine "
               << results[s].dp.depth(v) << ", oracle "
               << oracle.refs[s].dp.depth(v);
          failure = fail.str();
          break;
        }
      }
      if (failure.empty()) {
        const ValidationReport report =
            validate_bfs_tree_into(tg.graph, results[s], ws);
        if (!report.ok) {
          failure = "ms-bfs source " + std::to_string(s) +
                    " invalid tree: " + report.error;
        }
      }
    }
  }
  stats->injected += chaos::injected_total();
  ++stats->runs;
  chaos::disable();
  return failure;
}

TEST(Torture, MsEngineSurvivesPerturbedSchedules) {
  const bool full = full_sweep();
  const unsigned seeds = env_unsigned("FASTBFS_TORTURE_SEEDS", full ? 40 : 6);
  SweepStats stats;
  for (const TortureGraph& tg : corpus()) {
    for (const EngineAxis& axis : ms_axes()) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const chaos::Config cfg = sweep_config(seed);
        const std::string failure = run_one_ms(tg, axis, cfg, &stats);
        if (!failure.empty()) {
          const ReplaySpec spec{tg.name, axis, seed, cfg.act_per_256};
          ADD_FAILURE() << failure << "\n  " << spec.to_string();
        }
      }
    }
  }
  std::cout << "[torture] ms-bfs: " << stats.runs
            << " perturbed waves x " << kMsTortureSources << " sources, "
            << stats.injected << " injected events\n";
}

// The MS hooks must sit inside the windows they claim to perturb: the
// seen[] load->OR->store gap (kMsMaskOr), the record-publication barrier
// (kMsPublish), and the shared DP re-check/phase-2 points.
TEST(Torture, ChaosReachesTheMsRacyWindows) {
  chaos::Config cfg = sweep_config(11);
  cfg.act_per_256 = 256;
  chaos::enable(cfg);
  {
    const TortureGraph& tg = corpus_entry("collider-4x2048");
    const AdjacencyArray adj(tg.graph, 2);
    MsBfs engine(adj, axis_options({SocketScheme::kLoadBalanced,
                                    VisMode::kBit, DirectionMode::kTopDown,
                                    4, 2, 0}));
    const MsOracle& oracle = ms_oracle(tg);
    std::vector<BfsResult> results(oracle.roots.size());
    std::vector<BfsResult*> ptrs;
    for (auto& r : results) ptrs.push_back(&r);
    engine.run_wave(oracle.roots.data(),
                    static_cast<unsigned>(oracle.roots.size()), ptrs.data());
    EXPECT_GT(chaos::visit_count(chaos::Point::kMsMaskOr), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kMsPublish), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kDpRecheck), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kPhase2Barrier), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kBarrierArrive), 0u);
    EXPECT_GT(chaos::injected_total(), 0u);
  }
  chaos::disable();
}

// ---------------------------------------------------------------------------
// EdgeMap app enrollment: the vertex-program layer (core/edge_map.h) runs
// its clients — async min-label CC (exact fixpoint) and synchronous
// PageRank (fixed iteration count, FP tolerance) — under the same
// perturbed schedules. This stresses the claim-epoch dedup CAS, the
// owner-computes dense scan and the refill rebuild, none of which the BFS
// sweeps exercise through a Program with engine-external state.

struct AppsOracle {
  std::vector<vid_t> labels;
  std::vector<double> rank;
};

apps::PageRankOptions apps_torture_pr_options() {
  apps::PageRankOptions po;
  po.tolerance = 0.0;  // fixed iteration count on both sides
  po.max_iterations = 6;
  return po;
}

const AppsOracle& apps_oracle(const TortureGraph& tg) {
  static std::map<std::string, AppsOracle>* cache =
      new std::map<std::string, AppsOracle>;
  auto it = cache->find(tg.name);
  if (it != cache->end()) return it->second;
  const AdjacencyArray adj(tg.graph, 1);
  AppsOracle o;
  o.labels = apps::cc_oracle(adj);
  o.rank = apps::pagerank_oracle(adj, apps_torture_pr_options());
  return cache->emplace(tg.name, std::move(o)).first->second;
}

std::vector<EngineAxis> apps_axes() {
  using S = SocketScheme;
  using V = VisMode;
  using D = DirectionMode;
  return {
      {S::kLoadBalanced, V::kBit, D::kAuto, 4, 2, 0},
      {S::kLoadBalanced, V::kPartitionedBit, D::kTopDown, 4, 2, 512},
      {S::kSocketAware, V::kBit, D::kBottomUp, 4, 2, 0},
  };
}

std::string run_one_apps(const TortureGraph& tg, const EngineAxis& axis,
                         const chaos::Config& cfg, SweepStats* stats) {
  const AppsOracle& oracle = apps_oracle(tg);
  chaos::enable(cfg);
  std::string failure;
  {
    const AdjacencyArray adj(tg.graph, axis.sockets);
    const BfsOptions o = axis_options(axis);
    apps::ConnectedComponents cc(adj, o);
    apps::ComponentsResult cr;
    cc.run_into(cr);
    for (vid_t v = 0; v < tg.graph.n_vertices(); ++v) {
      if (cr.label[v] != oracle.labels[v]) {
        std::ostringstream fail;
        fail << "cc label mismatch at vertex " << v << ": engine "
             << cr.label[v] << ", oracle " << oracle.labels[v];
        failure = fail.str();
        break;
      }
    }
    if (failure.empty()) {
      apps::PageRank pr(adj, o, apps_torture_pr_options());
      apps::PageRankResult prr;
      pr.run_into(prr);
      for (vid_t v = 0; v < tg.graph.n_vertices(); ++v) {
        if (std::abs(prr.rank[v] - oracle.rank[v]) > 1e-9) {
          std::ostringstream fail;
          fail << "pagerank divergence at vertex " << v << ": engine "
               << prr.rank[v] << ", oracle " << oracle.rank[v];
          failure = fail.str();
          break;
        }
      }
    }
  }
  stats->injected += chaos::injected_total();
  ++stats->runs;
  chaos::disable();
  return failure;
}

TEST(Torture, AppsSurvivePerturbedSchedules) {
  const unsigned seeds = env_unsigned("FASTBFS_TORTURE_SEEDS", 20);
  SweepStats stats;
  for (const char* name : {"collider-4x2048", "grid-24", "rmat-10"}) {
    const TortureGraph& tg = corpus_entry(name);
    for (const EngineAxis& axis : apps_axes()) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const chaos::Config cfg = sweep_config(seed);
        const std::string failure = run_one_apps(tg, axis, cfg, &stats);
        if (!failure.empty()) {
          const ReplaySpec spec{tg.name, axis, seed, cfg.act_per_256};
          ADD_FAILURE() << failure << "\n  " << spec.to_string();
        }
      }
    }
  }
  std::cout << "[torture] edge-map apps: " << stats.runs
            << " perturbed schedules (cc + pagerank each), "
            << stats.injected << " injected events\n";
}

// The EdgeMap hooks must sit inside the windows they claim to perturb:
// the sparse-phase update->claim-CAS gap (kEdgeMapSparseEmit) and the
// dense scan's frontier-probe->owner-update gap (kEdgeMapDenseClaim).
TEST(Torture, ChaosReachesTheEdgeMapWindows) {
  chaos::Config cfg = sweep_config(13);
  cfg.act_per_256 = 256;
  const TortureGraph& tg = corpus_entry("grid-24");
  const AdjacencyArray adj(tg.graph, 2);

  chaos::enable(cfg);
  {
    // Forced top-down keeps every step in the sparse phase-I/II path.
    apps::ConnectedComponents cc(
        adj, axis_options({SocketScheme::kLoadBalanced, VisMode::kBit,
                           DirectionMode::kTopDown, 4, 2, 0}));
    apps::ComponentsResult r;
    cc.run_into(r);
    EXPECT_GT(chaos::visit_count(chaos::Point::kEdgeMapSparseEmit), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kBarrierArrive), 0u);
    EXPECT_GT(chaos::injected_total(), 0u);
  }
  chaos::reset_run();
  {
    // Forced bottom-up keeps every step in the dense owner-computes scan.
    apps::ConnectedComponents cc(
        adj, axis_options({SocketScheme::kLoadBalanced, VisMode::kBit,
                           DirectionMode::kBottomUp, 4, 2, 0}));
    apps::ComponentsResult r;
    cc.run_into(r);
    EXPECT_GT(chaos::visit_count(chaos::Point::kEdgeMapDenseClaim), 0u);
  }
  chaos::disable();
}

class MutationGuard {
 public:
  explicit MutationGuard(chaos::Mutation m) { chaos::set_mutation(m); }
  ~MutationGuard() {
    chaos::set_mutation(chaos::Mutation::kNone);
    chaos::disable();
  }
};

// ---------------------------------------------------------------------------
// The clean sweep.

TEST(Torture, CleanEngineSurvivesPerturbedSchedules) {
  const bool full = full_sweep();
  const unsigned seeds = env_unsigned("FASTBFS_TORTURE_SEEDS", full ? 40 : 6);
  const std::vector<EngineAxis> axes = full ? full_axes() : bounded_axes();
  // The VIS audit also feeds the metrics registry (fastbfs_vis_*); scrape
  // the sweep's delta so the registry numbers are cross-checked against
  // the harness's own accounting below.
  obs::Registry& reg = obs::metrics();
  const std::uint64_t audits0 = reg.counter("fastbfs_vis_audits_total")->value();
  const std::uint64_t missing0 =
      reg.counter("fastbfs_vis_missing_total")->value();
  const std::uint64_t spurious0 =
      reg.counter("fastbfs_vis_spurious_total")->value();
  SweepStats stats;
  for (const TortureGraph& tg : corpus()) {
    for (const EngineAxis& axis : axes) {
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const chaos::Config cfg = sweep_config(seed);
        const std::string failure = run_one(tg, axis, cfg, &stats);
        if (!failure.empty()) {
          const ReplaySpec spec{tg.name, axis, seed, cfg.act_per_256};
          ADD_FAILURE() << failure << "\n  " << spec.to_string();
        }
      }
    }
  }
  std::cout << "[torture] " << stats.runs << " perturbed schedules, "
            << stats.injected << " injected events, " << stats.benign_missing
            << " benign lost VIS bits, " << stats.dup_emissions
            << " duplicate emissions dropped by the claim dedup\n";
  const std::uint64_t missing =
      reg.counter("fastbfs_vis_missing_total")->value() - missing0;
  std::cout << "[torture] metrics registry: "
            << reg.counter("fastbfs_vis_audits_total")->value() - audits0
            << " VIS audits, " << missing << " missing, "
            << reg.counter("fastbfs_vis_spurious_total")->value() - spurious0
            << " spurious\n";
  // Every run a clean sweep audits is spurious-free (check_run fails the
  // sweep otherwise), and the registry's missing tally is exactly the
  // benign losses the harness summed.
  EXPECT_EQ(missing, stats.benign_missing);
}

// The hooks must actually sit in the windows the harness claims to
// perturb — guards against the instrumentation silently compiling out.
TEST(Torture, ChaosReachesTheRacyWindows) {
  chaos::Config cfg = sweep_config(7);
  cfg.act_per_256 = 256;

  chaos::enable(cfg);
  {
    const TortureGraph& tg = corpus_entry("collider-4x2048");
    BfsRunner runner(tg.graph, axis_options({SocketScheme::kLoadBalanced,
                                             VisMode::kBit,
                                             DirectionMode::kTopDown, 4, 2,
                                             0}));
    runner.run(tg.root);
    EXPECT_GT(chaos::visit_count(chaos::Point::kVisTestSet), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kVisSetRmw), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kDpRecheck), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kPbvPublish), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kPhase2Barrier), 0u);
    EXPECT_GT(chaos::visit_count(chaos::Point::kBarrierArrive), 0u);
    EXPECT_GT(chaos::injected_total(), 0u);
  }
  chaos::reset_run();
  {
    const TortureGraph& tg = corpus_entry("grid-24");
    BfsRunner runner(tg.graph, axis_options({SocketScheme::kLoadBalanced,
                                             VisMode::kBit,
                                             DirectionMode::kBottomUp, 4, 2,
                                             0}));
    runner.run(tg.root);
    EXPECT_GT(chaos::visit_count(chaos::Point::kBottomUpClaim), 0u);
  }
  chaos::disable();
}

// ---------------------------------------------------------------------------
// Mutation smoke: the harness must flag deliberately broken engines.

constexpr std::uint64_t kMutationBudget = 500;  // schedules per mutant

// Skipping the DP re-check publishes a depth for every PBV entry that
// passes the VIS filter. That is only *wrong* when a vertex is re-offered
// after its bit was lost to a sibling-bit RMW race — the collider's shared
// contiguous leaves manufacture the loss, its leaf ring re-offers every
// leaf one level deeper, and the oracle check catches the overwrite.
TEST(TortureMutation, SkipDpRecheckIsCaught) {
  const TortureGraph& tg = corpus_entry("collider-4x2048");
  const EngineAxis axis{SocketScheme::kLoadBalanced, VisMode::kBit,
                        DirectionMode::kTopDown, 4, 2, 0};
  MutationGuard guard(chaos::Mutation::kSkipDpRecheck);
  SweepStats stats;
  std::uint64_t caught_at = 0;
  std::string failure;
  for (std::uint64_t seed = 1; seed <= kMutationBudget; ++seed) {
    failure = run_one(tg, axis, mutation_config(seed), &stats);
    if (!failure.empty()) {
      caught_at = seed;
      break;
    }
  }
  ASSERT_NE(caught_at, 0u) << "skip-DP-re-check mutant survived "
                           << kMutationBudget << " perturbed schedules";
  std::cout << "[torture] skip-dp-recheck caught at schedule " << caught_at
            << " of " << kMutationBudget << ": " << failure << "\n  "
            << ReplaySpec{tg.name, axis, caught_at,
                          mutation_config(caught_at).act_per_256}
                   .to_string()
            << "\n";
}

// Dropping the VIS store leaves the depth array *correct* — the DP
// re-check compensates, which is exactly why the benign race is benign —
// so only the VIS audit can see it: in kByte mode a missing bit is
// impossible for a healthy engine.
TEST(TortureMutation, DropVisStoreIsCaught) {
  const TortureGraph& tg = corpus_entry("collider-4x2048");
  const EngineAxis axis{SocketScheme::kLoadBalanced, VisMode::kByte,
                        DirectionMode::kTopDown, 4, 2, 0};
  MutationGuard guard(chaos::Mutation::kDropVisStore);
  SweepStats stats;
  std::uint64_t caught_at = 0;
  std::string failure;
  for (std::uint64_t seed = 1; seed <= kMutationBudget; ++seed) {
    failure = run_one(tg, axis, mutation_config(seed), &stats);
    if (!failure.empty()) {
      caught_at = seed;
      break;
    }
  }
  ASSERT_NE(caught_at, 0u) << "drop-VIS-store mutant survived "
                           << kMutationBudget << " perturbed schedules";
  EXPECT_NE(failure.find("lost VIS stores"), std::string::npos)
      << "expected the VIS audit to be the detector, got: " << failure;
  std::cout << "[torture] drop-vis-store caught at schedule " << caught_at
            << " of " << kMutationBudget << ": " << failure << "\n";
}

// ---------------------------------------------------------------------------
// Replay determinism: a printed seed reproduces the schedule decisions
// byte-for-byte.

bool barrier_family(chaos::Point p) {
  return p == chaos::Point::kPbvPublish || p == chaos::Point::kPhase2Barrier ||
         p == chaos::Point::kBarrierArrive;
}

std::vector<std::uint32_t> traced_run(const TortureGraph& tg,
                                      const EngineAxis& axis,
                                      std::uint64_t seed, unsigned tid) {
  chaos::Config cfg = sweep_config(seed);
  cfg.record_trace = true;
  chaos::enable(cfg);
  {
    BfsRunner runner(tg.graph, axis_options(axis));
    runner.run(tg.root);
  }
  std::vector<std::uint32_t> trace = chaos::trace(tid);
  chaos::disable();
  return trace;
}

// Single-threaded execution is fully deterministic, so the *entire*
// decision trace — every hook visit and the action taken — must replay
// byte-identically from the seed.
TEST(TortureReplay, SingleThreadTraceIsByteIdentical) {
  const TortureGraph& tg = corpus_entry("grid-24");
  const EngineAxis axis{SocketScheme::kNone, VisMode::kBit,
                        DirectionMode::kTopDown, 1, 1, 0};
  const std::vector<std::uint32_t> first = traced_run(tg, axis, 42, 0);
  const std::vector<std::uint32_t> second = traced_run(tg, axis, 42, 0);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  const std::vector<std::uint32_t> other = traced_run(tg, axis, 43, 0);
  EXPECT_NE(first, other) << "different seeds must perturb differently";
}

// Across racy multi-thread runs the VIS-window visit *counts* are
// race-dependent, but each thread's barrier-family subsequence is fixed by
// the (deterministic) top-down step structure — so that slice of the
// schedule replays byte-identically even with 4 threads racing.
TEST(TortureReplay, BarrierScheduleIsByteIdenticalAcrossRacyRuns) {
  const TortureGraph& tg = corpus_entry("collider-4x2048");
  const EngineAxis axis{SocketScheme::kLoadBalanced, VisMode::kBit,
                        DirectionMode::kTopDown, 4, 2, 0};
  const auto barrier_slice = [](const std::vector<std::uint32_t>& trace) {
    std::vector<std::uint32_t> slice;
    for (const std::uint32_t entry : trace) {
      if (barrier_family(chaos::trace_point(entry))) slice.push_back(entry);
    }
    return slice;
  };
  for (unsigned tid = 0; tid < 4; ++tid) {
    const auto first = barrier_slice(traced_run(tg, axis, 97, tid));
    const auto second = barrier_slice(traced_run(tg, axis, 97, tid));
    ASSERT_FALSE(first.empty()) << "thread " << tid;
    EXPECT_EQ(first, second) << "thread " << tid;
  }
}

TEST(TortureReplay, ReplaySpecRoundTrips) {
  const ReplaySpec spec{"collider-4x2048",
                        {SocketScheme::kSocketAware, VisMode::kPartitionedBit,
                         DirectionMode::kAuto, 6, 2, 512},
                        1234567890123ull,
                        128};
  ReplaySpec parsed;
  ASSERT_TRUE(ReplaySpec::parse(spec.to_string(), &parsed));
  EXPECT_EQ(parsed.graph, spec.graph);
  EXPECT_EQ(parsed.axis.scheme, spec.axis.scheme);
  EXPECT_EQ(parsed.axis.vis, spec.axis.vis);
  EXPECT_EQ(parsed.axis.dir, spec.axis.dir);
  EXPECT_EQ(parsed.axis.threads, spec.axis.threads);
  EXPECT_EQ(parsed.axis.sockets, spec.axis.sockets);
  EXPECT_EQ(parsed.axis.llc_override, spec.axis.llc_override);
  EXPECT_EQ(parsed.chaos_seed, spec.chaos_seed);
  EXPECT_EQ(parsed.act_per_256, spec.act_per_256);
  EXPECT_EQ(parsed.to_string(), spec.to_string());
  EXPECT_FALSE(ReplaySpec::parse("not-a-replay line", &parsed));
}

}  // namespace
}  // namespace fastbfs
