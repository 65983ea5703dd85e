// Bit-parallel multi-source BFS (MS-BFS): up to 64 concurrent traversals
// sharing every edge sweep.
//
// The serving workload (Graph500 kernel 2, query batches) runs many BFS
// from distinct roots over the *same* graph; executed one at a time, each
// traversal re-streams the adjacency arrays through the cache. This
// engine packs K <= 64 sources into one wave and gives every vertex a
// 64-bit source mask, so one pass over a vertex's adjacency block
// advances all sources whose bit is set:
//
//   next[w] |= frontier[v] & ~seen[w]        (one OR per edge, all sources)
//
// The execution skeleton is the paper's two-phase engine, widened:
//   Phase-I   divide the bin-grouped (vertex, mask) frontier among threads
//             via the shared DivisionPlan, scan each vertex's adjacency
//             block once, and bin (child, parent, mask) records with the
//             mask-carrying SIMD kernel (simd/binning.h);
//   barrier   (plan-2 built once by the last thread to arrive);
//   Phase-II  divide the records among sockets/threads by destination
//             vertex range, filter each record's mask against the shared
//             seen[] array, OR the surviving bits in with a *plain* RMW,
//             and claim depth/parent per surviving source after re-checking
//             that source's DP — the multi-source form of the benign-race
//             discipline (Sec. III-A): seen[] is a lossy filter, the
//             per-source DP arrays are the truth;
//   barrier;  termination sum; swap; repeat until no source has a frontier.
//
// seen[] costs 8 bytes per vertex — 64x the VIS bit array — so it is tiled
// by the same cache-residency rule with 64x the partitions, and the PBV
// bins stay (socket x tile) vertex ranges addressed by a single shift.
// Depth/parent extraction lands directly in K caller-recycled BfsResult
// buffers, extending the zero-allocation steady state to batches.
// See DESIGN.md "Multi-source batching (MS-BFS)".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/divide.h"
#include "core/options.h"
#include "simd/dispatch.h"
#include "graph/adjacency_array.h"
#include "graph/bfs_result.h"
#include "thread/thread_pool.h"
#include "util/aligned_buffer.h"

namespace fastbfs {

/// Sources per wave: one bit of the per-vertex mask each.
inline constexpr unsigned kMsWaveWidth = 64;

/// One bit per source of a wave; bit s belongs to roots[s].
using source_mask_t = std::uint64_t;

/// Diagnostics of the most recent wave.
struct MsWaveStats {
  unsigned n_sources = 0;
  unsigned levels = 0;  // BFS steps executed (including the empty last one)
  /// Adjacency entries read — each frontier vertex is expanded once per
  /// wave regardless of how many sources ride it; the amortization the
  /// engine exists for is (sum of per-source traversed edges) / this.
  std::uint64_t edges_scanned = 0;
  std::uint64_t records_binned = 0;  // (child, parent, mask) PBV records
  double seconds = 0.0;              // wall time of the wave
};

class MsBfs {
 public:
  /// The adjacency array must outlive the engine and must have been built
  /// with the same socket count as opts.n_sockets. Direction optimization
  /// does not apply (waves are always top-down); vis_mode is likewise
  /// unused — the mask array plays the VIS role.
  MsBfs(const AdjacencyArray& adj, const BfsOptions& opts);
  ~MsBfs();

  MsBfs(const MsBfs&) = delete;
  MsBfs& operator=(const MsBfs&) = delete;

  /// Runs one wave: a full BFS from roots[s] for every s < n_roots
  /// (1 <= n_roots <= kMsWaveWidth, roots in range; the run_batch contract
  /// supplies distinct roots, duplicates are tolerated). results[s]
  /// receives source s's tree and counters, recycling its depth/parent
  /// buffer when already sized for this graph — a warm engine serving
  /// repeated waves through recycled buffers allocates nothing.
  /// results[s]->seconds is the *wave* wall time (all sources share it);
  /// edges_traversed/vertices_visited/depth_reached are per source.
  void run_wave(const vid_t* roots, unsigned n_roots,
                BfsResult* const* results);

  const MsWaveStats& last_wave_stats() const { return wave_stats_; }

  /// Bytes of reusable engine workspace currently held (mask array, PBV
  /// record bins, frontier vectors, plans). Plateaus once warm.
  std::uint64_t workspace_bytes() const;

  unsigned n_vis_partitions() const { return n_vis_; }
  unsigned n_pbv_bins() const { return n_bins_; }
  const BfsOptions& options() const { return opts_; }
  /// ISA level of the binning kernel table captured at construction
  /// (kScalar when opts.use_simd is false); see simd/dispatch.h.
  IsaLevel isa_level() const { return kern_->level; }

 private:
  struct ThreadState;

  void worker(const ThreadContext& ctx);
  void phase1(const ThreadContext& ctx);
  void phase2(const ThreadContext& ctx, depth_t step);
  /// Thread 0, inside the post-reset barrier window: store every root's
  /// depth-0 entry, set its seen bit, and append the (root, mask) seeds —
  /// bin-grouped — to the first thread of each root's owning socket.
  void seed_wave();
  /// After the claim-tag barrier: keeps the records this thread tagged
  /// last, drops the rest and flags their vertices (see claim_tag_).
  void drop_lost_records(const ThreadContext& ctx, ThreadState& me);
  /// Before the next Phase-I: rebuilds the mask of every kept record whose
  /// vertex another thread also emitted, as the exact set of sources that
  /// reached it this step (per-source DP depth == step).
  void merge_flagged_masks(ThreadState& me, depth_t step);
  void build_shared_plan(std::vector<std::uint32_t> ThreadState::* counts,
                         DivisionPlan& plan);

  unsigned bin_of(vid_t v) const {
    return static_cast<unsigned>(v >> bin_shift_);
  }

  const AdjacencyArray& adj_;
  BfsOptions opts_;
  /// Kernel table resolved once at construction (runtime ISA dispatch).
  const BinningKernels* kern_;
  SocketTopology topo_;
  ThreadPool pool_;

  unsigned n_vis_ = 1;     // mask-array tiles (64x the VIS density)
  unsigned n_bins_ = 1;    // N_S * n_vis_, 1 under SocketScheme::kNone
  unsigned bin_shift_ = 31;

  /// seen[v]: sources that have discovered v — a *filter* updated with
  /// plain load/OR/store (via relaxed atomic_ref, like VIS bytes). A
  /// concurrent OR on the same word can erase sibling bits; the per-source
  /// DP re-check in Phase-II repairs every loss, so no LOCK prefix ever
  /// executes on the hot path.
  AlignedBuffer<source_mask_t> seen_;

  /// claim_tag_[v]: the id of the thread that last emitted v as a
  /// next-frontier record this step (relaxed 2-byte store, no LOCK), plus
  /// kTagShared once another emitter dropped its record of v. Two threads
  /// claiming different sources of v each emit a (v, mask) record; the
  /// dedup keeps the last tagger's and widens its mask to the union, so v
  /// enters the next frontier once with every source that reached it. The
  /// next step's work then depends only on the frontier sets, not on the
  /// race outcome. Empty with one thread.
  std::vector<std::uint16_t> claim_tag_;
  static constexpr std::uint16_t kTagShared = 0x8000;

  // Per-wave wiring (set by run_wave, read by the SPMD workers).
  std::array<DepthParent*, kMsWaveWidth> dp_{};  // caller-owned, per source
  const vid_t* wave_roots_ = nullptr;
  unsigned wave_sources_ = 0;

  std::vector<std::unique_ptr<ThreadState>> states_;
  MsWaveStats wave_stats_;

  // Shared per-step division plans, exactly the two-phase engine's scheme:
  // plan1_ over frontier (vertex, mask) counts — seeded by thread 0, then
  // rebuilt in the end-of-step read-safe window; plan2_ over PBV record
  // counts, built by the publication barrier's completion hook. Refilled
  // in place, so a warm wave allocates nothing.
  DivisionPlan plan1_;
  DivisionPlan plan2_;
  std::vector<std::uint32_t> counts_scratch_;      // [n_threads][n_bins]
  std::function<void(const ThreadContext&)> job_;  // built once in ctor

  source_mask_t seen_load(vid_t v) const {
    return std::atomic_ref<const source_mask_t>(seen_[v])
        .load(std::memory_order_relaxed);
  }
  void seen_store(vid_t v, source_mask_t m) {
    std::atomic_ref<source_mask_t>(seen_[v])
        .store(m, std::memory_order_relaxed);
  }
};

}  // namespace fastbfs
