// Locality-aware, load-balanced division of binned work (Sec. III-B3a).
//
// Both phases face the same problem: every thread has produced items
// grouped into N_PBV bins (Phase-I divides the bin-grouped frontier BV_C;
// Phase-II divides the PBV streams), and the items must be re-divided
// among threads. The global item order is bin-major (all threads' items
// for bin 0, then bin 1, ...) with source threads concatenated in id order
// inside each bin. Three schemes from Fig. 5:
//   kNone         — sockets ignored: the item sequence is cut into
//                   n_threads equal ranges (pure load balance, worst
//                   locality);
//   kSocketAware  — socket s gets exactly its own bins
//                   [s*bins_per_socket, (s+1)*bins_per_socket): perfect
//                   locality, no balance guarantee;
//   kLoadBalanced — the paper's scheme: the sequence is cut into n_sockets
//                   equal ranges, so each socket receives whole bins plus
//                   at most two partial (shared) bins.
// Within a socket, each (partial) bin is split evenly among the socket's
// threads — all of a socket's threads walk the *same* bin concurrently,
// keeping exactly one VIS partition hot in that socket's LLC.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/options.h"
#include "numa/topology.h"

namespace fastbfs {

/// A contiguous run of items from one source thread's portion of one bin.
/// begin/end are item offsets *within that source's bin content*.
struct BinSlice {
  unsigned src;
  unsigned bin;
  std::uint32_t begin;
  std::uint32_t end;

  std::uint32_t size() const { return end - begin; }
  friend bool operator==(const BinSlice&, const BinSlice&) = default;
};

struct DivisionPlan {
  /// Slices assigned to each worker thread, in processing (bin-major) order.
  std::vector<std::vector<BinSlice>> per_thread;
  /// Items assigned to each socket (load-imbalance diagnostics, Fig. 5).
  std::vector<std::uint64_t> per_socket_items;
  std::uint64_t total_items = 0;

  /// max(per_socket_items) / (total / n_sockets); 1.0 == perfectly even.
  double socket_imbalance() const;

  /// Empties the plan for refilling while keeping every vector's capacity,
  /// so a steady-state caller (the engine replans every BFS step) never
  /// reallocates once warm.
  void clear(unsigned n_threads, unsigned n_sockets);

  /// clear()s and reserves every thread's slice list to the n_src * n_bins
  /// worst case a division of that shape can produce (see
  /// divide_bins_into). Engines call it at construction so a plan that is
  /// first built late — the Phase-II plan of a program whose first
  /// top-down step comes only after many bottom-up runs — does not
  /// allocate in a warm run.
  void reserve_shape(unsigned n_threads, unsigned n_sockets, unsigned n_src,
                     unsigned n_bins);
};

/// counts is row-major [n_src][n_bins]: items produced by source thread
/// `src` into bin `bin`. When scheme is kSocketAware, n_bins must be a
/// multiple of topo.n_sockets().
DivisionPlan divide_bins(std::span<const std::uint32_t> counts,
                         unsigned n_src, unsigned n_bins,
                         const SocketTopology& topo, SocketScheme scheme);

/// Reuse form of divide_bins: clear()s and refills a caller-owned plan
/// instead of constructing a fresh one. Allocation-free once `plan` has
/// been through one call of the same shape (same n_src, n_bins, and
/// topology): per-thread slice vectors are reserved to the deterministic
/// n_src * n_bins worst case up front, so race-dependent fluctuations in
/// the actual slice counts can never force a warm reallocation.
void divide_bins_into(std::span<const std::uint32_t> counts, unsigned n_src,
                      unsigned n_bins, const SocketTopology& topo,
                      SocketScheme scheme, DivisionPlan& plan);

/// Process-wide count of divide_bins/divide_bins_into calls (relaxed
/// atomic). Tests use deltas of this to pin the engine's plan-sharing
/// contract: one division per phase per step, independent of thread count.
std::uint64_t divide_bins_invocations();

}  // namespace fastbfs
