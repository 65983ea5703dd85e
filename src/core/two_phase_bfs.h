// The paper's BFS engine: two-phase, lock-free, atomic-free, locality-
// aware, load-balanced (Sec. III, Fig. 3).
//
// Per step:
//   Phase-I   divide the bin-grouped frontier among threads (Sec.
//             III-B3a), scan each assigned vertex's adjacency block with
//             software prefetch (III-C.3), and bin neighbours into the
//             per-thread PBV arrays with the SIMD kernel (III-C.4);
//   barrier;
//   Phase-II  divide the PBV bins among sockets/threads, decode parent
//             markers (III-C.6), and perform the atomic-free VIS filter +
//             DP update of Fig. 2(b), emitting the next frontier;
//   barrier;  claim dedup: each thread keeps only the BV_N entries whose
//             per-vertex owner tag it wrote last, so a child that several
//             threads raced past the VIS/DP check enters BV_N once;
//   rearrange each thread's next frontier by Adj page bin (III-B3b);
//   barrier;  sum frontier sizes; swap; repeat until empty.
//
// Engine-level derived quantities:
//   N_VIS  = vis_partitions(|V|, |C|)      (1 unless kPartitionedBit)
//   N_PBV  = N_S * N_VIS                   (1 when scheme == kNone)
//   bin(v) = v >> (log2|V_NS| - log2 N_VIS) — one shift, because both the
//            socket partition and the VIS partition are power-of-two
//            vertex ranges.
//
// The engine also runs the Fig. 4 comparison points (no-VIS, atomic-bit,
// byte, bit) by swapping the Phase-II update kernel, so the VIS axis is
// isolated from everything else.
//
// Direction optimization (DESIGN.md "Direction-optimizing extension"):
// when opts.direction allows it, a step may instead run *bottom-up* —
// every thread walks an aligned slice of its socket's vertex range and
// probes each unvisited vertex's neighbours against the current frontier
// held as a dense bitmap (the VIS bit-array machinery reused), claiming
// depth/parent with the same atomic-free owner-computes stores as
// Phase-II. kAuto picks per step via decide_direction() below, driven by
// incrementally tracked frontier/unexplored edge counts. Bottom-up
// requires a symmetric adjacency (the library's builder convention).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/divide.h"
#include "core/options.h"
#include "core/pbv.h"
#include "core/rearrange.h"
#include "core/vis.h"
#include "graph/adjacency_array.h"
#include "graph/bfs_result.h"
#include "platform/traffic.h"
#include "thread/thread_pool.h"

namespace fastbfs {

/// Direction a single BFS step executed in.
enum class StepDirection { kTopDown, kBottomUp };

/// The DirectionMode::kAuto decision rule, exposed as a pure function so
/// tests can replay it step-for-step against the RunStats log:
///   top-down -> bottom-up  when  frontier_edges * alpha > unexplored_edges
///                          and   frontier_edges * beta  > total_arcs
///   bottom-up -> top-down  when  frontier_vertices * beta < n_vertices
/// The first clause is Beamer's alpha test (the frontier is about to touch
/// a large share of the remaining edges); the second keeps high-diameter
/// graphs (grids, roads) strictly top-down — their frontiers never carry a
/// meaningful share of all arcs, even near exhaustion when
/// unexplored_edges alone would trigger the alpha test.
StepDirection decide_direction(StepDirection prev,
                               std::uint64_t frontier_edges,
                               std::uint64_t unexplored_edges,
                               std::uint64_t frontier_vertices,
                               std::uint64_t n_vertices,
                               std::uint64_t total_arcs, double alpha,
                               double beta);

/// Per-step diagnostics (Fig. 8 measures the per-phase split).
/// Hardware-counter deltas attributed to one phase (or to one step's
/// phases), harvested from the obs::perf per-(kind, step) tables when
/// counters are armed during a traced run. `valid` is false — and every
/// value zero — when tracing was off or counters were disarmed or
/// unavailable, so consumers can branch once. Values are sums over worker
/// threads; multiplex-scaled estimates where the PMU had to rotate
/// groups (see DESIGN.md §5k).
struct HwPhaseCounters {
  bool valid = false;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_load_misses = 0;
  std::uint64_t dtlb_load_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t stalled_cycles_backend = 0;
  std::uint64_t sw_task_clock_ns = 0;
  std::uint64_t sw_page_faults = 0;

  HwPhaseCounters& operator+=(const HwPhaseCounters& o);
};

struct StepStats {
  unsigned step = 0;
  StepDirection direction = StepDirection::kTopDown;
  std::uint64_t frontier_size = 0;   // vertices entering the step
  std::uint64_t binned_items = 0;    // PBV items produced (top-down only)
  /// Heuristic inputs, sampled when the step's direction was decided:
  /// out-edges of the entering frontier and edges of still-unvisited
  /// vertices. frontier_edges of step k+1 is exactly what step k removed
  /// from unexplored_edges (tests pin this bookkeeping identity).
  std::uint64_t frontier_edges = 0;
  std::uint64_t unexplored_edges = 0;
  std::uint64_t bottom_up_probes = 0;  // neighbour probes (bottom-up only)
  /// Work counters of the Sec. III-A benign race (top-down steps only; see
  /// RunStats). Reported, never folded into the logical counts above.
  std::uint64_t race_probes = 0;
  std::uint64_t dup_emissions = 0;
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;       // bottom-up scan time on BU steps
  double rearrange_seconds = 0.0;
  double phase1_imbalance = 1.0;     // max socket share / even share
  double phase2_imbalance = 1.0;
  /// Largest PBV bin's share of the step's binned items relative to an
  /// even spread (max bin / mean bin, 1.0 = perfectly even; top-down
  /// steps with a non-empty PBV only). Hub-heavy graphs skew this.
  double pbv_bin_skew = 1.0;
  /// This step's counter deltas summed over its phase spans (Phase-I +
  /// Phase-II/bottom-up + rearrange). Steps beyond the perf table's
  /// step bound fold into its last row, so very deep traversals see the
  /// tail aggregated onto one step.
  HwPhaseCounters hw;
};

/// Post-run cross-check of the VIS filter against the published depths —
/// the machine-checkable form of the Sec. III-A benign-race contract:
///   bit == 1  =>  depth definitely assigned   (spurious must be 0, always)
///   bit == 0  =>  depth possibly assigned     (missing > 0 only where a
///                 sibling-bit/byte race can lose a store)
/// `strict` marks modes where no loss is possible (kByte: whole-byte
/// stores; kAtomicBit: fetch_or), so there `missing` must also be 0. The
/// torture harness uses this to flag a dropped VIS store, which is
/// otherwise invisible in the depth array (the DP re-check compensates —
/// that is exactly why the benign race is benign).
struct VisAudit {
  bool audited = false;  // false for VisMode::kNone or a foreign result
  bool strict = false;   // missing == 0 is an invariant for this mode
  std::uint64_t missing = 0;   // depth assigned but filter bit clear
  std::uint64_t spurious = 0;  // filter bit set but no depth assigned
};

/// The per-step knobs an online tuner may change *mid-run*. Restricted by
/// design to latency-hiding toggles that alter only the memory-access
/// pattern — never a value the traversal stores — so a tuned run's
/// depths/parents are bit-identical to an untuned one (the DESIGN.md §5j
/// determinism contract; anything that can steer parent choice, like
/// direction thresholds or N_VIS, is a run-boundary decision instead).
struct StepTuning {
  bool use_prefetch = true;
  int prefetch_distance = kDefaultPrefetchDistance;
};

/// Called by thread 0 at each step boundary (inside the begin_step
/// single-writer window) with the just-completed step's stats and the
/// currently active tuning; the returned tuning takes effect for the next
/// step. Requires opts.collect_stats (no StepStats, no calls). Must be a
/// pure function of its arguments for replayable runs.
using StepTuner =
    std::function<StepTuning(const StepStats& completed,
                             const StepTuning& current)>;

struct RunStats {
  double phase1_seconds = 0.0;
  double phase2_seconds = 0.0;
  double rearrange_seconds = 0.0;
  double bottom_up_seconds = 0.0;
  double total_seconds = 0.0;
  PhaseTraffic traffic;              // local/remote byte audit
  /// Max over sockets of the fraction of adjacency bytes served by that
  /// socket's memory — the model's alpha_Adj (Sec. IV).
  double alpha_adj = 0.0;
  unsigned direction_switches = 0;   // kAuto direction changes
  /// Worker threads the run actually used (== opts.n_threads; the field
  /// exists so callers whose *requested* count was adjusted upstream —
  /// e.g. the planner clamping to hardware_concurrency — can report what
  /// really ran; see the fastbfs_thread_oversubscription warning).
  unsigned n_threads_effective = 0;
  /// Times an installed StepTuner changed the active StepTuning mid-run.
  unsigned tune_step_switches = 0;
  std::uint64_t bottom_up_probes = 0;
  /// Work the Sec. III-A benign race cost this run, summed over steps.
  /// Both vary run to run; every logical count (frontier sizes, binned
  /// items, edges_traversed, the heuristic inputs) is exact regardless.
  ///   race_probes    VIS passes (each charged an 8 B DP probe) that did
  ///                  not end in a kept BV_N entry: a DP re-check that
  ///                  found the child claimed, or an append the dedup
  ///                  dropped. 0 under kNone (no VIS) and kAtomicBit.
  ///   dup_emissions  BV_N appends (4 B each) the claim dedup dropped
  ///                  because another thread claimed the same child.
  /// Their bytes stay in traffic.phase2_update, so
  ///   traffic.total_bytes() - 8 * race_probes - 4 * dup_emissions
  /// depends only on the BFS levels, not on the schedule.
  std::uint64_t race_probes = 0;
  std::uint64_t dup_emissions = 0;
  /// Per-phase hardware-counter deltas for this run (valid only when the
  /// run was traced with obs::perf armed; see HwPhaseCounters). These
  /// measure what the Sec. IV model predicts — LLC misses, instructions —
  /// so model_check can compare predicted vs measured traffic directly.
  HwPhaseCounters hw_phase1;
  HwPhaseCounters hw_phase2;
  HwPhaseCounters hw_rearrange;
  HwPhaseCounters hw_bottom_up;
  std::vector<StepStats> steps;      // filled when opts.collect_stats

  /// Compact per-step direction log, e.g. "TTBBT" — one letter per step.
  std::string direction_string() const;

  /// Per-step CSV (header + one row per BFS level) for offline analysis
  /// of frontier shapes and phase costs.
  void write_steps_csv(std::ostream& out) const;

  /// Re-zeroes every counter for a new run, keeping the steps vector's
  /// capacity so a warm engine's stats collection allocates nothing.
  void reset();
};

class TwoPhaseBfs {
 public:
  /// The adjacency array must outlive the engine and must have been built
  /// with the same socket count as opts.n_sockets.
  TwoPhaseBfs(const AdjacencyArray& adj, const BfsOptions& opts);
  ~TwoPhaseBfs();

  TwoPhaseBfs(const TwoPhaseBfs&) = delete;
  TwoPhaseBfs& operator=(const TwoPhaseBfs&) = delete;

  BfsResult run(vid_t root);

  /// Buffer-recycling form of run(): fills `out` in place, reusing its
  /// depth/parent array when it already has the right size (out.dp from a
  /// previous run on the same graph qualifies). On a warm engine this —
  /// and the whole traversal behind it — performs no heap allocation; see
  /// DESIGN.md "Engine workspace lifecycle".
  void run_into(vid_t root, BfsResult& out);

  /// Bytes of reusable workspace the engine currently holds (PBV bins,
  /// frontier vectors, VIS + dense-frontier bitmaps, plan/scratch
  /// buffers). Plateaus after the first run from a given root; the
  /// steady-state bench reports it next to RSS.
  std::uint64_t workspace_bytes() const;

  const RunStats& last_run_stats() const { return run_stats_; }

  /// Compares the VIS bits left by the engine's most recent run against
  /// `result`'s depth array (which that run must have produced — the run
  /// moves dp out, so the engine cannot check by itself). See VisAudit.
  VisAudit audit_vis(const BfsResult& result) const;

  /// Installs (or clears, with nullptr behaviour via an empty function)
  /// the online step tuner — see StepTuner above. The tuner is consulted
  /// from the second step of every run; each run starts from the
  /// construction-time StepTuning baseline, so repeated runs of the same
  /// root are deterministic regardless of where the previous run's tuning
  /// ended up.
  void set_step_tuner(StepTuner tuner) { tuner_ = std::move(tuner); }

  unsigned n_vis_partitions() const { return n_vis_; }
  unsigned n_pbv_bins() const { return n_bins_; }
  /// Bytes of the VIS filter's backing store (0 for VisMode::kNone) — the
  /// model's S_VIS input.
  std::uint64_t vis_storage_bytes() const;
  bool uses_pair_encoding() const { return use_pairs_; }
  const BfsOptions& options() const { return opts_; }
  /// ISA level of the binning kernel table this engine captured at
  /// construction (kScalar when opts.use_simd is false). Later force_isa()
  /// calls do not retarget an already-built engine.
  IsaLevel isa_level() const { return kern_->level; }

 private:
  struct ThreadState;

  void worker(const ThreadContext& ctx);
  void phase1(const ThreadContext& ctx, depth_t step);
  void phase2(const ThreadContext& ctx, depth_t step);
  /// Claim dedup (after the post-emission barrier): drops every BV_N entry
  /// whose owner tag another thread wrote last and takes back its
  /// bvn_counts/bvn_edges share, so each claimed child stays in exactly
  /// one thread's BV_N.
  void drop_lost_claims(const ThreadContext& ctx, ThreadState& me);
  /// One Beamer-style bottom-up level: scan this thread's aligned slice of
  /// its socket's vertex range, probe unvisited vertices' neighbours
  /// against the dense frontier bitmap, claim parents without atomics
  /// (owner-computes: each vertex is examined by exactly one thread).
  void bottom_up_step(const ThreadContext& ctx, depth_t step);
  /// Decide + record this step's direction (thread 0, between barriers).
  void begin_step(depth_t step);
  /// Folds every thread's published BV_N into the heuristic counters, the
  /// run's race counters and (unless the frontier emptied) the next step's
  /// Phase-I plan. Runs once per step as the completion of the end-of-step
  /// barrier, so it has every ThreadState to itself.
  void end_step(StepDirection dir, depth_t step);

  /// Resets all per-run state (the reset()-lifecycle audit lives here) and
  /// seeds the root; dp_ must already hold the run's depth/parent buffer.
  void prepare_run(vid_t root);

  /// Gathers every thread's per-bin counts (`counts` selects which
  /// ThreadState array) into counts_scratch_ and refills `plan` via
  /// divide_bins_into. One thread only, inside a barrier-protected window
  /// (prepare_run or a barrier's completion function); allocation-free
  /// once warm.
  void build_shared_plan(std::vector<std::uint32_t> ThreadState::* counts,
                         DivisionPlan& plan);

  /// This thread's vertex range for bottom-up work: its share of its
  /// socket's partition, aligned to 64-vertex blocks so no two threads
  /// ever touch the same VIS/frontier bitmap byte.
  Range bottom_up_range(const ThreadContext& ctx) const;

  unsigned bin_of(vid_t v) const { return static_cast<unsigned>(v >> bin_shift_); }

  const AdjacencyArray& adj_;
  BfsOptions opts_;
  /// Kernel table resolved once at construction (runtime ISA dispatch,
  /// simd/dispatch.h); phase1 calls through it, never re-resolving.
  const BinningKernels* kern_;
  SocketTopology topo_;
  ThreadPool pool_;
  Rearranger rearranger_;

  unsigned n_vis_ = 1;     // N_VIS
  unsigned n_bins_ = 1;    // N_PBV
  unsigned bin_shift_ = 31;
  bool use_pairs_ = false;

  std::unique_ptr<VisArray> vis_;  // null for VisMode::kNone
  DepthParent dp_;
  /// Per-vertex owner tag of the claim dedup: every thread that emits a
  /// child stores its id with a relaxed (plain mov) store; after a barrier
  /// the last-written id keeps the child. A vertex is emitted in one step
  /// only, so stale tags from older steps or runs are never read. Empty
  /// when no two threads can emit the same child (one thread, or the
  /// fetch_or claim of kAtomicBit), which also skips the dedup barrier.
  std::vector<std::uint16_t> claim_tag_;

  // Direction optimization. The dense frontier bitmaps reuse the VIS
  // bit-array machinery (cache-resident partitions, relaxed byte access);
  // they are allocated only when opts.direction != kTopDown.
  std::unique_ptr<VisArray> front_cur_;   // frontier entering a BU step
  std::unique_ptr<VisArray> front_next_;  // frontier a BU step emits
  StepDirection step_dir_ = StepDirection::kTopDown;  // t0 writes, all read
  bool dense_frontier_valid_ = false;  // front_cur_ holds BV_C already
  /// True only on degenerate partitions (< 8 vertices per socket, i.e.
  /// toy graphs) where alignment cannot separate sockets' bitmap bytes;
  /// thread 0 then scans the whole vertex range alone.
  bool bu_serial_ = false;
  // Incremental heuristic bookkeeping: written by end_step inside the
  // end-of-step barrier, read by every thread after it.
  std::uint64_t frontier_edges_ = 0;     // m_f: out-edges of BV_C
  std::uint64_t unexplored_edges_ = 0;   // m_u: edges of unvisited vertices
  std::uint64_t frontier_vertices_ = 0;  // n_f: |BV_C|
  std::uint64_t bu_consumed_edges_ = 0;  // edges_traversed credit, BU steps

  std::vector<std::unique_ptr<ThreadState>> states_;
  RunStats run_stats_;
  unsigned final_step_ = 0;  // step at which the frontier emptied

  // Shared per-step division plans (Sec. III-B3a), computed once and
  // read by all workers, instead of N_T redundant divide_bins calls per
  // phase per step:
  //   plan1_  built by end_step inside the end-of-step barrier (from
  //           bvn_counts, which the swap turns into the next step's
  //           bvc_counts), and in prepare_run for step 1;
  //   plan2_  built after the PBV-publication barrier, published to the
  //           other workers through ThreadPool::publish.
  // Both are refilled in place (divide_bins_into) so a warm engine's
  // steady state allocates nothing.
  DivisionPlan plan1_;
  DivisionPlan plan2_;
  std::vector<std::uint32_t> counts_scratch_;      // [n_threads][n_bins]

  // Shared PBV capacities, raised inside the PBV-publication barrier and
  // reserved by every thread before its next Phase-I (see PbvCapTargets).
  PbvCapTargets pbv_caps_;
  std::vector<std::uint64_t> adj_by_socket_scratch_;

  // Hardware-counter harvest (obs/perf): the global per-(kind, step)
  // tables accumulate across runs and engines, so prepare_run snapshots a
  // baseline and the run epilogue attributes the delta to this run's
  // RunStats/StepStats. The baseline buffer is allocated on the first
  // counter-armed run only; warm armed runs reuse it (steady-state
  // allocation gate).
  bool hw_harvest_ = false;
  std::vector<std::uint64_t> hw_base_;
  std::function<void(const ThreadContext&)> job_;  // built once in ctor

  // Online step tuning (thread 0 only, applied in begin_step's
  // single-writer window). base_tuning_ is the construction-time
  // baseline prepare_run restores so every run starts identically.
  StepTuner tuner_;
  StepTuning base_tuning_;
};

/// One-call convenience wrapper (see core/api.h for the documented entry
/// point); constructs an engine and runs a single traversal.
BfsResult two_phase_bfs(const AdjacencyArray& adj, vid_t root,
                        const BfsOptions& opts);

}  // namespace fastbfs
