// EdgeMap: the two-phase pipeline generalized into a Ligra-style
// vertex-program layer (ROADMAP "Beyond BFS"; DESIGN.md Sec. 5i).
//
// The BFS engine's step structure — Phase-I SIMD binning of the sparse
// frontier into per-thread PBV streams, shared DivisionPlans, Phase-II
// decode + update, or a dense owner-computes scan when the Beamer
// heuristic flips — is reusable for any algorithm that maps a function
// over the edges incident to a frontier. EdgeMapEngine<Program> runs that
// loop with the update/condition logic supplied by a Program:
//
//   bool cond(vid_t d)                  cheap skip test for a target; a
//       dense scan also re-checks it after every update and breaks out of
//       the neighbour probe once it turns false (Ligra's early exit).
//   bool update_sparse(vid_t s, vid_t d)  push-side update along edge
//       (s, d). Multiple threads may race on the same d, so the update
//       must be a CAS loop or a benign race in the Sec. III-A sense;
//       return true when d became "active". The engine dedups activations
//       with a claim-epoch CAS, so returning true more than once per
//       (step, d) is fine.
//   bool update_dense(vid_t s, vid_t d)   pull-side update. The engine
//       guarantees owner-computes: exactly one thread touches d, and its
//       64-vertex-aligned range never shares a bitmap byte with another
//       thread, so plain loads/stores suffice. Reads of *source* state
//       (labels[s], dist[s]) still race with other owners' writes and
//       must be relaxed-atomic.
//   void begin_step(unsigned step)      thread-0 hook before the step's
//       barrier; single-writer window (record the step for depth stamps
//       etc.).
//   StepVerdict end_step(unsigned step, uint64_t emitted)  thread-0 hook
//       in the end-of-step exclusive window. kContinue adopts the emitted
//       vertices as the next frontier (an empty one terminates); kStop
//       terminates now; kRefill rebuilds the frontier from refill().
//   bool refill(vid_t v)                membership predicate for kRefill
//       (and for the initial frontier). Evaluated exactly once per vertex
//       per refill by v's owner thread, so monotone side effects on
//       v-indexed state are allowed (delta-stepping snapshots the
//       relaxed-at distance here, k-core peels here).
//
// Frontiers are VertexSubset values carrying both representations: the
// sparse one (per-lane bin-grouped vectors with per-bin counts — exactly
// the BV_C layout Phase-I's division consumes) and the dense one (a
// VisArray bitmap partitioned like VIS). The engine converts lazily, the
// same way the BFS engine promotes BV_C to a bitmap on the first
// bottom-up step, and the alpha/beta decide_direction() heuristic drives
// the sparse<->dense switch with the identical incremental bookkeeping —
// BFS routed through this layer reproduces the two-phase engine's
// per-step direction decisions (pinned by tests/test_edge_map.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/divide.h"
#include "core/engine_geometry.h"
#include "core/options.h"
#include "core/pbv.h"
#include "core/rearrange.h"
#include "core/two_phase_bfs.h"
#include "core/vis.h"
#include "graph/adjacency_array.h"
#include "platform/prefetch.h"
#include "simd/binning.h"
#include "thread/chaos.h"
#include "thread/thread_pool.h"
#include "util/timer.h"

namespace fastbfs {

/// Dual-representation vertex frontier. The sparse side is the engine's
/// native layout: one lane per worker thread, each lane's vertices grouped
/// by PBV bin with per-bin counts/offsets (the BV_C shape divide_bins
/// consumes). The dense side is a VIS-style bitmap, allocated only when
/// the subset was constructed dense-capable. The serial helpers at the
/// bottom (add / to_dense / to_sparse / contains / gather_sorted) exist
/// for app setup and the property tests; engine hot paths touch lanes and
/// the bitmap directly.
class VertexSubset {
 public:
  struct Lane {
    std::vector<vid_t> verts;             // bin-grouped vertex ids
    std::vector<std::uint32_t> counts;    // entries per bin
    std::vector<std::uint32_t> offsets;   // exclusive prefix of counts

    void compute_offsets();
    /// Empties verts and zeroes counts, keeping every capacity.
    void clear(unsigned n_bins);
  };

  VertexSubset() = default;
  /// n_dense_partitions == 0 leaves the subset sparse-only (no bitmap).
  VertexSubset(vid_t n_vertices, unsigned n_lanes, unsigned n_bins,
               unsigned bin_shift, unsigned n_dense_partitions);

  vid_t n_vertices() const { return n_vertices_; }
  unsigned n_lanes() const { return static_cast<unsigned>(lanes_.size()); }
  unsigned n_bins() const { return n_bins_; }
  unsigned bin_of(vid_t v) const {
    const auto b = static_cast<unsigned>(v >> bin_shift_);
    return b < n_bins_ ? b : n_bins_ - 1;
  }

  Lane& lane(unsigned t) { return lanes_[t]; }
  const Lane& lane(unsigned t) const { return lanes_[t]; }

  VisArray* dense() { return dense_.get(); }
  const VisArray* dense() const { return dense_.get(); }
  bool dense_valid() const { return dense_valid_; }
  void set_dense_valid(bool v) { dense_valid_ = v; }
  /// Swaps only the dense bitmaps (and their validity flags) with
  /// `other` — the engine's step epilogue promotes the freshly written
  /// next-frontier bitmap this way while each thread swaps its own lane.
  void swap_dense(VertexSubset& other);

  /// Number of member vertices (sum of lane sizes; the sparse side is
  /// authoritative — engine lanes are always maintained).
  std::uint64_t count() const;
  /// Sum over members of degree-weight supplied per lane by the engine;
  /// here for tests: linear scan membership test against the sparse side,
  /// or the bitmap when only the dense side is valid.
  bool contains(vid_t v) const;

  // --- serial helpers (tests / app seeding; O(n) or O(members)) --------
  /// Empties both representations.
  void clear();
  /// Appends v to lane `lane_hint % n_lanes`. Callers must add each
  /// lane's vertices in nondecreasing bin order (ascending ids qualify)
  /// to keep the bin-grouped invariant; offsets are recomputed.
  void add(vid_t v, unsigned lane_hint = 0);
  /// Builds the dense bitmap from the sparse lanes. Requires
  /// dense-capable construction.
  void to_dense();
  /// Rebuilds the sparse side (everything into lane 0, ascending) from
  /// the dense bitmap. Requires dense_valid().
  void to_sparse();
  /// Collects all members, sorted ascending, into out (cleared first).
  void gather_sorted(std::vector<vid_t>& out) const;

 private:
  vid_t n_vertices_ = 0;
  unsigned n_bins_ = 1;
  unsigned bin_shift_ = 31;
  std::vector<Lane> lanes_;
  std::unique_ptr<VisArray> dense_;
  bool dense_valid_ = false;
};

/// What end_step tells the engine to do next. kContinue adopts the step's
/// emissions as the next frontier and terminates when they are empty;
/// kRefill rebuilds the frontier from Program::refill (an empty rebuild
/// does NOT terminate — the program must eventually return kStop, e.g.
/// after advancing a bucket or peel level).
enum class StepVerdict { kContinue, kStop, kRefill };

struct EdgeMapStepStats {
  unsigned step = 0;
  StepDirection direction = StepDirection::kTopDown;
  std::uint64_t frontier_size = 0;   // vertices entering the step
  std::uint64_t frontier_edges = 0;  // their out-edges (heuristic input)
  std::uint64_t emitted = 0;         // deduped activations produced
};

struct EdgeMapStats {
  std::vector<EdgeMapStepStats> steps;
  unsigned direction_switches = 0;
  std::uint64_t refills = 0;
  double total_seconds = 0.0;

  /// Per-step direction log, e.g. "TTBBT" — comparable character-for-
  /// character with RunStats::direction_string().
  std::string direction_string() const;
  /// Re-zeroes for a new run keeping the steps vector's capacity.
  void reset();
};

template <class Program>
class EdgeMapEngine {
 public:
  /// The adjacency must outlive the engine and match opts.n_sockets.
  /// Geometry (bins, VIS partitions, encoding) resolves exactly as
  /// TwoPhaseBfs does, via the shared resolve_engine_geometry.
  EdgeMapEngine(const AdjacencyArray& adj, const BfsOptions& opts)
      : adj_(adj),
        opts_(opts),
        kern_(opts.use_simd ? &active_kernels()
                            : &kernels_for(IsaLevel::kScalar)),
        topo_(opts.n_sockets, opts.n_threads),
        pool_(topo_, opts.pin_threads),
        rearranger_(adj, opts.cache, opts.use_streaming_stores) {
    const EngineGeometry geo = resolve_engine_geometry(adj, opts_);
    opts_.vis_mode = geo.vis_mode;
    n_vis_ = geo.n_vis;
    n_bins_ = geo.n_bins;
    bin_shift_ = geo.bin_shift;
    use_pairs_ = geo.use_pairs;
    bu_serial_ = geo.bu_serial;

    const unsigned dense_parts =
        opts_.direction != DirectionMode::kTopDown ? n_vis_ : 0;
    cur_ = VertexSubset(adj.n_vertices(), opts_.n_threads, n_bins_,
                        bin_shift_, dense_parts);
    next_ = VertexSubset(adj.n_vertices(), opts_.n_threads, n_bins_,
                         bin_shift_, dense_parts);
    if (opts_.direction != DirectionMode::kTopDown &&
        (!(opts_.alpha > 0.0) || !(opts_.beta > 0.0))) {
      throw std::invalid_argument(
          "EdgeMapEngine: direction thresholds alpha/beta must be positive");
    }

    claim_epoch_.assign(adj.n_vertices(), 0);
    states_.reserve(opts_.n_threads);
    for (unsigned t = 0; t < opts_.n_threads; ++t) {
      states_.push_back(std::make_unique<ThreadState>());
    }
    dense_ranges_.resize(opts_.n_threads);
    for (unsigned t = 0; t < opts_.n_threads; ++t) {
      dense_ranges_[t] = compute_dense_range(t);
    }
    counts_scratch_.resize(static_cast<std::size_t>(opts_.n_threads) *
                           n_bins_);
    pbv_caps_ = PbvCapTargets(n_bins_);
    plan1_.reserve_shape(opts_.n_threads, opts_.n_sockets, opts_.n_threads,
                         n_bins_);
    plan2_.reserve_shape(opts_.n_threads, opts_.n_sockets, opts_.n_threads,
                         n_bins_);
    job_ = [this](const ThreadContext& ctx) { worker(ctx); };
  }

  EdgeMapEngine(const EdgeMapEngine&) = delete;
  EdgeMapEngine& operator=(const EdgeMapEngine&) = delete;

  /// Runs the program to termination. Allocation-free once warm: lanes,
  /// PBV bins, plans and the stats vector all retain their capacities
  /// across runs (same discipline as TwoPhaseBfs::run_into).
  void run(Program& prog) {
    prog_ = &prog;
    prepare_run();
    Timer timer;
    pool_.run(job_);
    stats_.total_seconds = timer.seconds();
    prog_ = nullptr;
    if (aborted_) {
      throw std::runtime_error(
          "EdgeMapEngine: step limit exceeded (program failed to converge)");
    }
  }

  const EdgeMapStats& last_stats() const { return stats_; }
  unsigned final_step() const { return final_step_; }
  unsigned n_vis_partitions() const { return n_vis_; }
  unsigned n_pbv_bins() const { return n_bins_; }
  bool uses_pair_encoding() const { return use_pairs_; }
  const BfsOptions& options() const { return opts_; }
  const SocketTopology& topology() const { return topo_; }

  /// Bytes of reusable workspace currently held (lanes, PBV bins, claim
  /// epochs, frontier bitmaps, plans). Plateaus once warm.
  std::uint64_t workspace_bytes() const {
    std::uint64_t total = 0;
    for (const auto& s : states_) {
      total += s->pbv.capacity_bytes();
      total += (s->pbv_items.capacity() + s->hist.capacity()) *
               sizeof(std::uint32_t);
      total += s->scratch.capacity() * sizeof(vid_t);
    }
    const auto subset_bytes = [this](const VertexSubset& vs) {
      std::uint64_t b = 0;
      for (unsigned t = 0; t < opts_.n_threads; ++t) {
        const VertexSubset::Lane& l = vs.lane(t);
        b += l.verts.capacity() * sizeof(vid_t);
        b += (l.counts.capacity() + l.offsets.capacity()) *
             sizeof(std::uint32_t);
      }
      if (vs.dense()) b += vs.dense()->storage_bytes();
      return b;
    };
    total += subset_bytes(cur_) + subset_bytes(next_);
    total += claim_epoch_.capacity() * sizeof(std::uint64_t);
    const auto plan_bytes = [](const DivisionPlan& p) {
      std::uint64_t b = p.per_socket_items.capacity() * sizeof(std::uint64_t);
      for (const auto& slices : p.per_thread) {
        b += slices.capacity() * sizeof(BinSlice);
      }
      return b;
    };
    total += plan_bytes(plan1_) + plan_bytes(plan2_);
    total += counts_scratch_.capacity() * sizeof(std::uint32_t);
    total += pbv_caps_.storage_bytes();
    return total;
  }

 private:
  struct ThreadState {
    PbvBinSet pbv;
    std::vector<std::uint32_t> pbv_items;  // per bin, in decode items
    std::vector<vid_t> scratch;            // rearrangement temp
    std::vector<std::uint32_t> hist;
    /// Sum of degrees of the vertices this thread emitted this step — the
    /// increment feeding the direction heuristic.
    std::uint64_t emit_edges = 0;
    /// Same sum for a refill phase (separate so a refill never leaks into
    /// the following step's emission count).
    std::uint64_t refill_edges = 0;

    void reset(unsigned n_bins, unsigned rearrange_bins) {
      if (pbv.n_bins() != n_bins) pbv = PbvBinSet(n_bins);
      pbv.clear_all();
      pbv_items.assign(n_bins, 0);
      hist.reserve(rearrange_bins);  // Rearranger::rearrange's histogram
      emit_edges = 0;
      refill_edges = 0;
    }
  };

  unsigned bin_of(vid_t v) const {
    return static_cast<unsigned>(v >> bin_shift_);
  }

  /// Claim-epoch CAS: dedups per-step activations without any per-step
  /// O(|V|) clearing — the epoch counter advances every step (and never
  /// resets across runs), so a stale slot simply fails the equality test.
  bool claim(vid_t d) {
    std::atomic_ref<std::uint64_t> slot(claim_epoch_[d]);
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur != epoch_) {
      if (slot.compare_exchange_weak(cur, epoch_,
                                     std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  Range compute_dense_range(unsigned thread) const {
    if (bu_serial_) {
      if (thread != 0) return {0, 0};
      return {0, static_cast<std::size_t>(adj_.n_vertices())};
    }
    const VertexPartition& part = adj_.partition();
    const unsigned socket = topo_.socket_of_thread(thread);
    const std::uint64_t lo = part.first_vertex_of(socket);
    const std::uint64_t hi = part.end_vertex_of(socket);
    if (lo >= hi) return {0, 0};
    // Whole 64-vertex blocks per thread so distinct threads never share a
    // bitmap byte (the owner-computes guarantee update_dense relies on).
    unsigned on_socket = 0, rank = 0;
    for (unsigned t = 0; t < topo_.n_threads(); ++t) {
      if (topo_.socket_of_thread(t) != socket) continue;
      if (t == thread) rank = on_socket;
      ++on_socket;
    }
    const std::uint64_t n_blocks = ceil_div(hi - lo, 64);
    const Range blocks = split_range(static_cast<std::size_t>(n_blocks),
                                     on_socket, rank);
    return {static_cast<std::size_t>(
                std::min<std::uint64_t>(lo + 64 * blocks.begin, hi)),
            static_cast<std::size_t>(
                std::min<std::uint64_t>(lo + 64 * blocks.end, hi))};
  }

  /// Grows `lane` to at least `n` vertices and the rearrange scratch to
  /// the lane's capacity. Owner-range appends (dense steps, refills) emit
  /// each owned vertex at most once, so reserving the whole range makes
  /// their lane capacity deterministic; and a scratch that follows the
  /// lanes is already warm when a program's first sparse step comes only
  /// after many dense-only runs.
  void reserve_lane(ThreadState& me, VertexSubset::Lane& lane,
                    std::size_t n) {
    if (lane.verts.capacity() < n) lane.verts.reserve(n);
    if (me.scratch.capacity() < lane.verts.capacity()) {
      me.scratch.reserve(lane.verts.capacity());
    }
  }

  /// Gathers per-lane bin counts of `vs` into counts_scratch_ and refills
  /// `plan`. Thread 0 only, inside a barrier-protected window.
  void build_plan_from_lanes(const VertexSubset& vs, DivisionPlan& plan) {
    for (unsigned src = 0; src < opts_.n_threads; ++src) {
      const auto& c = vs.lane(src).counts;
      std::copy(c.begin(), c.end(),
                counts_scratch_.begin() +
                    static_cast<std::size_t>(src) * n_bins_);
    }
    divide_bins_into(counts_scratch_, opts_.n_threads, n_bins_, topo_,
                     opts_.scheme, plan);
  }

  void build_plan_from_pbv(DivisionPlan& plan) {
    for (unsigned src = 0; src < opts_.n_threads; ++src) {
      const auto& c = states_[src]->pbv_items;
      std::copy(c.begin(), c.end(),
                counts_scratch_.begin() +
                    static_cast<std::size_t>(src) * n_bins_);
    }
    divide_bins_into(counts_scratch_, opts_.n_threads, n_bins_, topo_,
                     opts_.scheme, plan);
  }

  void begin_step(unsigned step) {
    ++epoch_;
    StepDirection want = step_dir_;
    switch (opts_.direction) {
      case DirectionMode::kTopDown:
        want = StepDirection::kTopDown;
        break;
      case DirectionMode::kBottomUp:
        want = StepDirection::kBottomUp;
        break;
      case DirectionMode::kAuto:
        want = decide_direction(step_dir_, frontier_edges_,
                                unexplored_edges_, frontier_vertices_,
                                adj_.n_vertices(), adj_.n_edges(),
                                opts_.alpha, opts_.beta);
        break;
    }
    if (step > 1 && want != step_dir_) ++stats_.direction_switches;
    step_dir_ = want;
    stats_.steps.push_back(EdgeMapStepStats{
        step, step_dir_, frontier_vertices_, frontier_edges_, 0});
    prog_->begin_step(step);
  }

  void phase1(const ThreadContext& ctx) {
    ThreadState& me = *states_[ctx.thread_id];
    const DivisionPlan& plan = plan1_;

    me.pbv.reserve_at_least(pbv_caps_.caps());  // bins are empty: no copy
    me.pbv.begin_appends();
    svid_t* const* ptrs = me.pbv.bin_ptrs();
    std::uint32_t* cur = me.pbv.cursors();
    const unsigned pfd =
        static_cast<unsigned>(std::max(opts_.prefetch_distance, 1));

    for (const BinSlice& sl : plan.per_thread[ctx.thread_id]) {
      const VertexSubset::Lane& src = cur_.lane(sl.src);
      const vid_t* base = src.verts.data() + src.offsets[sl.bin] + sl.begin;
      const std::uint32_t n = sl.size();
      for (std::uint32_t k = 0; k < n; ++k) {
        if (opts_.use_prefetch) {
          // Two-level prefetch (Sec. III-C.3), same as the BFS engine.
          const std::uint32_t pf_slot = k + pfd;
          if (pf_slot < n) prefetch_read(adj_.block_slot(base[pf_slot]));
          const std::uint32_t pf_blk = k + std::max(pfd / 2, 1u);
          if (pf_blk < n) prefetch_read(adj_.block(base[pf_blk]));
        }
        const vid_t u = base[k];
        const auto nbrs = adj_.neighbors(u);
        const auto deg = static_cast<std::uint32_t>(nbrs.size());
        if (use_pairs_) {
          for (unsigned b = 0; b < n_bins_; ++b) me.pbv.ensure(b, 2 * deg);
          for (const vid_t w : nbrs) {
            const std::uint32_t b = w >> bin_shift_;
            ptrs[b][cur[b]++] = static_cast<svid_t>(u);
            ptrs[b][cur[b]++] = static_cast<svid_t>(w);
          }
        } else {
          const svid_t marker = static_cast<svid_t>(~u);
          for (unsigned b = 0; b < n_bins_; ++b) {
            me.pbv.ensure(b, 1 + deg);
            ptrs[b][cur[b]++] = marker;
          }
          kern_->append_binned(nbrs.data(), deg, bin_shift_, ptrs, cur);
        }
      }
    }
    me.pbv.commit_appends();
    for (unsigned b = 0; b < n_bins_; ++b) {
      const std::uint32_t sz = me.pbv.bin(b).size();
      me.pbv_items[b] = use_pairs_ ? sz / 2 : sz;
    }
  }

  void phase2(const ThreadContext& ctx) {
    ThreadState& me = *states_[ctx.thread_id];
    const DivisionPlan& plan = plan2_;
    VertexSubset::Lane& out = next_.lane(ctx.thread_id);

    // Same reserve discipline as TwoPhaseBfs::phase2: the plan-assigned
    // item count bounds appends; claimed counts are race-dependent, so
    // sizing by observed growth could reallocate forever once warm.
    std::size_t assigned = 0;
    for (const BinSlice& sl : plan.per_thread[ctx.thread_id]) {
      assigned += sl.size();
    }
    reserve_lane(me, out,
                 out.verts.capacity() < assigned
                     ? std::bit_ceil(assigned + assigned / 8)
                     : 0);

    const auto update = [&](vid_t s, vid_t d, unsigned bin) {
      if (!prog_->cond(d)) return;
      if (!prog_->update_sparse(s, d)) return;
      FASTBFS_CHAOS_POINT(kEdgeMapSparseEmit);
      if (!claim(d)) return;
      out.verts.push_back(d);
      ++out.counts[bin];
      me.emit_edges += adj_.degree(d);
    };

    for (const BinSlice& sl : plan.per_thread[ctx.thread_id]) {
      ThreadState& src = *states_[sl.src];
      const svid_t* base = src.pbv.bin(sl.bin).data();
      const unsigned bin = sl.bin;
      if (use_pairs_) {
        decode_pair_slice(base, sl.begin, sl.end,
                          [&](vid_t p, vid_t c) { update(p, c, bin); });
      } else {
        decode_marker_slice(base, sl.begin, sl.end,
                            [&](vid_t p, vid_t c) { update(p, c, bin); });
      }
    }

    if (opts_.rearrange) {
      rearranger_.rearrange(out.verts, me.scratch, me.hist);
    }
  }

  void dense_step(const ThreadContext& ctx) {
    ThreadState& me = *states_[ctx.thread_id];
    SpinBarrier& bar = pool_.barrier();
    const Range range = dense_ranges_[ctx.thread_id];
    VisArray* fnext = next_.dense();
    VisArray* fcur = cur_.dense();

    // Frontier representation upkeep, mirroring bottom_up_step: zero this
    // thread's byte spans, then promote the sparse lanes to the bitmap
    // when the previous step left only a sparse frontier.
    fnext->zero_vertex_range(range.begin, range.end);
    if (!cur_.dense_valid()) {
      fcur->zero_vertex_range(range.begin, range.end);
      FASTBFS_CHAOS_POINT(kBarrierArrive);
      bar.arrive_and_wait();  // all spans zeroed before any bit lands
      for (const vid_t v : cur_.lane(ctx.thread_id).verts) {
        fcur->test_and_set_atomic(v);
      }
    }
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    bar.arrive_and_wait();  // dense frontier published

    VertexSubset::Lane& out = next_.lane(ctx.thread_id);
    reserve_lane(me, out, range.size());
    std::uint64_t emit_edges = 0;
    for (vid_t d = static_cast<vid_t>(range.begin);
         d < static_cast<vid_t>(range.end); ++d) {
      if (!prog_->cond(d)) continue;
      const auto nbrs = adj_.neighbors(d);
      bool emitted = false;
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        const vid_t s = nbrs[k];
        if (!fcur->test(s)) continue;
        FASTBFS_CHAOS_POINT(kEdgeMapDenseClaim);
        if (prog_->update_dense(s, d) && !emitted) {
          emitted = true;
          fnext->set(d);
          // Ascending d keeps the lane bin-grouped, so a following
          // sparse step consumes it as-is.
          out.verts.push_back(d);
          ++out.counts[bin_of(d)];
          emit_edges += nbrs.size();
        }
        if (!prog_->cond(d)) break;
      }
    }
    me.emit_edges += emit_edges;
  }

  /// Rebuilds the current frontier from Program::refill over this
  /// thread's owner range. Runs after the step epilogue swapped lanes, so
  /// it overwrites cur_'s lane in place.
  void refill_phase(const ThreadContext& ctx) {
    ThreadState& me = *states_[ctx.thread_id];
    SpinBarrier& bar = pool_.barrier();
    VertexSubset::Lane& lane = cur_.lane(ctx.thread_id);
    lane.clear(n_bins_);
    const Range r = dense_ranges_[ctx.thread_id];
    reserve_lane(me, lane, r.size());
    std::uint64_t edges = 0;
    for (vid_t v = static_cast<vid_t>(r.begin);
         v < static_cast<vid_t>(r.end); ++v) {
      if (!prog_->refill(v)) continue;
      lane.verts.push_back(v);
      ++lane.counts[bin_of(v)];
      edges += adj_.degree(v);
    }
    lane.compute_offsets();
    me.refill_edges = edges;
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    bar.arrive_and_wait();  // refilled lanes published
    if (ctx.thread_id == 0) {
      ++stats_.refills;
      std::uint64_t total = 0, total_edges = 0;
      for (unsigned t = 0; t < opts_.n_threads; ++t) {
        total += cur_.lane(t).verts.size();
        total_edges += states_[t]->refill_edges;
      }
      frontier_vertices_ = total;
      frontier_edges_ = total_edges;
      // unexplored_edges_ keeps its clamped value: non-monotone programs
      // have no meaningful "unexplored" notion, and for monotone ones the
      // per-step subtraction already tracked it.
      cur_.set_dense_valid(false);
      if (opts_.direction != DirectionMode::kBottomUp) {
        build_plan_from_lanes(cur_, plan1_);
      }
    }
    // No trailing barrier: thread 0's sums and next begin_step stay
    // single-writer until every thread passes the next step's barrier A,
    // exactly like the end-of-run -> prepare_run window.
  }

  void worker(const ThreadContext& ctx) {
    FASTBFS_CHAOS_REGISTER(ctx.thread_id);
    ThreadState& me = *states_[ctx.thread_id];
    SpinBarrier& bar = pool_.barrier();

    for (unsigned step = 1;; ++step) {
      if (ctx.thread_id == 0) begin_step(step);
      FASTBFS_CHAOS_POINT(kBarrierArrive);
      bar.arrive_and_wait();  // A: frontier state + step_dir_ published
      const StepDirection dir = step_dir_;

      if (dir == StepDirection::kTopDown) {
        phase1(ctx);
        // PBV-publication barrier; the completion hook builds the step's
        // single shared Phase-II plan (ThreadPool::publish).
        FASTBFS_CHAOS_POINT(kPbvPublish);
        pool_.publish([this] {
          build_plan_from_pbv(plan2_);
          for (const auto& s : states_) pbv_caps_.add(s->pbv);
          pbv_caps_.raise(opts_.n_threads);
        });
        phase2(ctx);
      } else {
        dense_step(ctx);  // internal barriers publish the bitmap
      }
      FASTBFS_CHAOS_POINT(kPhase2Barrier);
      bar.arrive_and_wait();  // B: emissions published

      // Everyone computes the same termination sum in the read-safe
      // window; thread 0 additionally folds the heuristic counters, asks
      // the program for a verdict, and pre-builds the next Phase-I plan.
      std::uint64_t next_total = 0;
      for (unsigned t = 0; t < opts_.n_threads; ++t) {
        next_total += next_.lane(t).verts.size();
      }
      if (ctx.thread_id == 0) {
        std::uint64_t next_edges = 0;
        for (const auto& s : states_) next_edges += s->emit_edges;
        unexplored_edges_ -= std::min(unexplored_edges_, next_edges);
        frontier_edges_ = next_edges;
        frontier_vertices_ = next_total;
        stats_.steps.back().emitted = next_total;
        next_.set_dense_valid(dir == StepDirection::kBottomUp);
        if (dir == StepDirection::kBottomUp) cur_.swap_dense(next_);
        verdict_ = prog_->end_step(step, next_total);
        if (step >= step_limit_) {
          aborted_ = true;
          verdict_ = StepVerdict::kStop;
        }
        const bool terminating =
            verdict_ == StepVerdict::kStop ||
            (verdict_ == StepVerdict::kContinue && next_total == 0);
        if (!terminating && verdict_ == StepVerdict::kContinue &&
            opts_.direction != DirectionMode::kBottomUp) {
          build_plan_from_lanes(next_, plan1_);
        }
      }
      FASTBFS_CHAOS_POINT(kBarrierArrive);
      bar.arrive_and_wait();  // C: verdict + plan published; mutation ok
      const StepVerdict verdict = verdict_;

      if (verdict == StepVerdict::kStop ||
          (verdict == StepVerdict::kContinue && next_total == 0)) {
        if (ctx.thread_id == 0) final_step_ = step;
        return;
      }

      // Step epilogue: adopt the emissions as the current frontier.
      {
        VertexSubset::Lane& mine = cur_.lane(ctx.thread_id);
        VertexSubset::Lane& emitted = next_.lane(ctx.thread_id);
        std::swap(mine.verts, emitted.verts);
        std::swap(mine.counts, emitted.counts);
        emitted.clear(n_bins_);
        mine.compute_offsets();
      }
      if (ctx.thread_id == 0) {
        // The dense bitmaps were already swapped in the read-safe window;
        // propagate validity onto the adopted frontier.
        cur_.set_dense_valid(dir == StepDirection::kBottomUp);
        next_.set_dense_valid(false);
      }
      me.pbv.clear_all();
      std::fill(me.pbv_items.begin(), me.pbv_items.end(), 0);
      me.emit_edges = 0;

      if (verdict == StepVerdict::kRefill) refill_phase(ctx);
    }
  }

  void prepare_run() {
    stats_.reset();
    final_step_ = 0;
    aborted_ = false;
    for (auto& s : states_) s->reset(n_bins_, rearranger_.n_bins());
    for (unsigned t = 0; t < opts_.n_threads; ++t) {
      cur_.lane(t).clear(n_bins_);
      next_.lane(t).clear(n_bins_);
    }
    cur_.set_dense_valid(false);
    next_.set_dense_valid(false);
    step_dir_ = opts_.direction == DirectionMode::kBottomUp
                    ? StepDirection::kBottomUp
                    : StepDirection::kTopDown;
    step_limit_ = 64 + 4u * adj_.n_vertices();

    // Initial frontier: the refill predicate evaluated serially in owner
    // order (same lane placement a parallel refill would produce).
    std::uint64_t fv = 0, fe = 0;
    for (unsigned t = 0; t < opts_.n_threads; ++t) {
      VertexSubset::Lane& lane = cur_.lane(t);
      const Range r = dense_ranges_[t];
      for (vid_t v = static_cast<vid_t>(r.begin);
           v < static_cast<vid_t>(r.end); ++v) {
        if (!prog_->refill(v)) continue;
        lane.verts.push_back(v);
        ++lane.counts[bin_of(v)];
        fe += adj_.degree(v);
        ++fv;
      }
      lane.compute_offsets();
    }
    frontier_vertices_ = fv;
    frontier_edges_ = fe;
    unexplored_edges_ =
        adj_.n_edges() - std::min<std::uint64_t>(adj_.n_edges(), fe);
    if (opts_.direction != DirectionMode::kBottomUp) {
      build_plan_from_lanes(cur_, plan1_);
    }
  }

  const AdjacencyArray& adj_;
  BfsOptions opts_;
  const BinningKernels* kern_;
  SocketTopology topo_;
  ThreadPool pool_;
  Rearranger rearranger_;

  unsigned n_vis_ = 1;
  unsigned n_bins_ = 1;
  unsigned bin_shift_ = 31;
  bool use_pairs_ = false;
  bool bu_serial_ = false;

  Program* prog_ = nullptr;
  VertexSubset cur_;   // frontier entering the step
  VertexSubset next_;  // emissions (deduped activations)
  std::vector<std::uint64_t> claim_epoch_;  // per vertex; CAS vs epoch_
  std::uint64_t epoch_ = 0;  // advances per step, never resets

  StepDirection step_dir_ = StepDirection::kTopDown;
  StepVerdict verdict_ = StepVerdict::kContinue;  // t0 writes, all read
  std::uint64_t frontier_edges_ = 0;
  std::uint64_t unexplored_edges_ = 0;
  std::uint64_t frontier_vertices_ = 0;
  unsigned final_step_ = 0;
  unsigned step_limit_ = 0;
  bool aborted_ = false;

  std::vector<std::unique_ptr<ThreadState>> states_;
  std::vector<Range> dense_ranges_;  // per thread, 64-aligned owner spans
  EdgeMapStats stats_;
  DivisionPlan plan1_;
  DivisionPlan plan2_;
  std::vector<std::uint32_t> counts_scratch_;
  // Shared PBV capacities, raised inside the PBV-publication barrier and
  // reserved by every thread before its next Phase-I (see PbvCapTargets).
  PbvCapTargets pbv_caps_;
  std::function<void(const ThreadContext&)> job_;  // built once in ctor
};

}  // namespace fastbfs
