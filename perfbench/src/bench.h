// Shared pieces of the end-to-end benchmark driver: command-line
// arguments, the result report, clocks, the span recorder and the
// benchmark's own (program-independent) inputs and reference checks.
//
// Everything here is the benchmark's, not the library's: the inputs are
// generated without the library's generators, and every answer the
// program gives is checked against computations made in reference.cpp
// from the raw edge list, never against the library's own validators or
// oracles.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/builder.h"

namespace pb {

using fastbfs::Edge;
using fastbfs::EdgeList;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = ".bench_data";  // cached inputs and traces
};

// --- clocks ---------------------------------------------------------------

/// Seconds on the monotonic clock.
double now_s();
/// User + system CPU seconds of the whole process (all threads).
double cpu_s();
/// Peak resident set of the process so far, MiB.
double peak_rss_mib();

double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

// --- report ---------------------------------------------------------------

/// Collects one run's metrics and operation counts and prints the final
/// JSON line. End-to-end metrics are printed by untraced runs, per-layer
/// metrics by traced runs (which also print their end-to-end figures on
/// an earlier line, so the tracing overhead can be read off).
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);

  /// One operation whose output was checked; `error` empty means correct.
  void op(const std::string& what, const std::string& error);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print(bool trace) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> e2e_, layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- span recorder --------------------------------------------------------

/// In-memory span log of the benchmark's calls into the library, written
/// as a Chrome trace at exit. Disabled (every call a no-op) in untraced
/// runs. Thread-safe; each thread keeps its own stack of open spans so a
/// span's parent is the innermost span open on the same thread.
class Recorder {
 public:
  static Recorder& get();

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  int begin(const char* name, std::uint64_t query_id = 0);
  void end(int id);

  /// Sum over spans called `name` of their self time (duration minus the
  /// part covered by child spans), and their count.
  double self_seconds(const std::string& name, std::size_t* count) const;
  /// Mean self time of spans called `name`, milliseconds (0 if none).
  double mean_self_ms(const std::string& name) const;

  void write_chrome_trace(const std::string& path,
                          const std::string& stamp_json) const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int tid;
    std::uint64_t query_id;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// RAII span; records only when the recorder is enabled.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t query_id = 0)
      : id_(Recorder::get().enabled() ? Recorder::get().begin(name, query_id)
                                      : -1) {}
  ~Scope() {
    if (id_ >= 0) Recorder::get().end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// --- inputs ---------------------------------------------------------------

struct Input {
  fastbfs::vid_t n = 0;
  EdgeList edges;
};

/// Graph500-style Kronecker (RMAT a=.57 b=.19 c=.19 d=.05) edge list with
/// seeded vertex relabelling; cached under data_dir per (scale, ef, seed).
Input rmat_input(unsigned scale, unsigned edge_factor, std::uint64_t seed,
                 const std::string& data_dir);
/// width x height 4-neighbour grid, row-major ids.
Input grid_input(fastbfs::vid_t width, fastbfs::vid_t height);

// --- reference computations ----------------------------------------------

/// Runs f(0) .. f(n-1) on `threads` threads (the benchmark's own work,
/// outside every timed section).
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& f);

/// The benchmark's own adjacency, built from the edge list with the
/// library's documented default convention: symmetrized, self-loops
/// dropped, parallel edges kept.
struct RefGraph {
  std::vector<std::uint64_t> offsets;
  std::vector<fastbfs::vid_t> targets;
  fastbfs::vid_t n() const {
    return static_cast<fastbfs::vid_t>(offsets.size() - 1);
  }
  std::uint64_t degree(fastbfs::vid_t v) const {
    return offsets[v + 1] - offsets[v];
  }
};
RefGraph ref_graph(const Input& in);

inline constexpr std::uint16_t kRefInf = 0xffff;

/// Depths and summary of one serial queue BFS.
struct RefTree {
  fastbfs::vid_t root = 0;
  std::vector<std::uint16_t> depth;  // kRefInf = unreached
  std::uint64_t visited = 0;
  std::uint64_t edges = 0;  // sum of degrees over visited vertices
  unsigned max_depth = 0;
};
RefTree ref_bfs(const RefGraph& g, fastbfs::vid_t root);
/// ref_bfs for every root, on up to `threads` threads.
std::vector<RefTree> ref_bfs_all(const RefGraph& g,
                                 const std::vector<fastbfs::vid_t>& roots,
                                 unsigned threads);

/// `count` distinct vertices of non-zero degree, seeded.
std::vector<fastbfs::vid_t> pick_roots(const RefGraph& g, unsigned count,
                                       std::uint64_t seed);

/// Checks a packed depth<<32|parent array of n_packed entries (all-ones =
/// unreached; the size must be the vertex count) and the
/// reported counters against `ref`. Returns "" when everything holds:
/// equal depths, every parent a neighbour one level up, the root its own
/// parent, and visited / edges / depth_reached equal to the reference.
std::string check_tree(const RefGraph& g, const RefTree& ref,
                       const std::uint64_t* packed, std::size_t n_packed,
                       std::uint64_t visited, std::uint64_t edges,
                       unsigned depth_reached);
/// Counter-only form for responses that carry no tree.
std::string check_summary(const RefTree& ref, std::uint64_t visited,
                          std::uint64_t edges, unsigned depth_reached);

/// Label of every vertex = smallest id in its component.
std::vector<fastbfs::vid_t> ref_components(const RefGraph& g);

/// `iterations` synchronous PageRank steps with the library's documented
/// recurrence: rank_0 = 1/n, next(v) = (1-d)/n + d * sum over arcs (u,v)
/// of rank(u)/deg(u); no dangling redistribution.
std::vector<double> ref_pagerank(const RefGraph& g, double damping,
                                 unsigned iterations);
/// Relative tolerance the PageRank check allows (parallel sum order).
inline constexpr double kPageRankRelTol = 1e-9;

/// Compares the program's CSR with the reference adjacency: equal
/// degrees and, per vertex, the same multiset of neighbours (by sum and
/// xor of a hash of each id).
std::string check_csr(const RefGraph& g, const std::uint64_t* offsets,
                      const fastbfs::vid_t* targets, std::uint64_t n_targets);

// --- workloads ------------------------------------------------------------

void run_bfs_workload(const Args& args, Report& report);
void run_batch_workload(const Args& args, Report& report);
void run_serve_workload(const Args& args, Report& report);

/// Run-wide context shared by the workloads: the JSON stamp (build, ISA,
/// hardware) printed before the result line and written into the trace.
std::string stamp_json(const Args& args, const std::string& isa);

}  // namespace pb
