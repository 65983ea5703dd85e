// Potential Boundary Vertex bins (Sec. III-B3 / III-C items 4 & 6).
//
// Phase-I routes each frontier vertex's neighbours into N_PBV per-thread
// bins keyed by destination vertex range (one bin per (socket, VIS
// partition) pair, so bin index is a single shift of the id). Two stream
// encodings, per footnote 4 of the paper:
//   - markers: before binning a vertex u's neighbours, u is written to
//     every bin as a *parent marker*; children follow as plain ids.
//     Phase-II recovers each child's parent as "the latest marker seen".
//     We encode markers as ~u (bitwise NOT) rather than the paper's -u so
//     vertex 0 stays distinguishable; the decode is parent = ~entry.
//   - pairs: each edge stored as an explicit (parent, child) pair —
//     cheaper when N_PBV >= average degree, since markers would dominate.
//
// Appends go through raw pointer/cursor/capacity tables so the SIMD kernel
// (simd/binning.h) can write lanes directly. Protocol per slice of work:
//   begin_appends();            // sync tables with bin sizes
//   ensure(b, extra); ...       // per-vertex capacity guarantees
//   tables-based appends;       // bounds-check-free
//   commit_appends();           // publish cursors as bin sizes
#pragma once

#include <cstdint>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/types.h"

namespace fastbfs {

/// One growable bin of svid_t entries.
class PbvBin {
 public:
  svid_t* data() { return buf_.data(); }
  const svid_t* data() const { return buf_.data(); }
  std::uint32_t size() const { return size_; }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(buf_.size());
  }

  void clear() { size_ = 0; }
  void set_size(std::uint32_t s) { size_ = s; }

  /// Guarantees capacity for `extra` entries beyond `current` (geometric
  /// growth, contents preserved).
  void reserve_extra(std::uint32_t current, std::uint32_t extra);

  /// Grows the backing store to exactly `cap` entries if it holds fewer
  /// (the first size() entries are preserved); never shrinks.
  void reserve(std::uint32_t cap);

 private:
  /// Reallocates to `cap` entries, copying the first `keep`.
  void grow_to(std::uint32_t cap, std::uint32_t keep);

  AlignedBuffer<svid_t> buf_;
  std::uint32_t size_ = 0;
};

/// The N_PBV bins owned by one thread.
class PbvBinSet {
 public:
  PbvBinSet() = default;
  explicit PbvBinSet(unsigned n_bins);

  unsigned n_bins() const { return static_cast<unsigned>(bins_.size()); }
  PbvBin& bin(unsigned b) { return bins_[b]; }
  const PbvBin& bin(unsigned b) const { return bins_[b]; }

  void clear_all();

  /// Syncs the raw tables with the bins. Must be called before any
  /// table-based appends; bin sizes are stale until commit_appends().
  void begin_appends();

  /// Publishes the cursor table back into the bins' size counters.
  void commit_appends();

  /// Guarantees bin b can absorb `extra` more entries, refreshing its raw
  /// table row. Valid only between begin_appends and commit_appends.
  void ensure(unsigned b, std::uint32_t extra) {
    if (cursors_[b] + static_cast<std::uint64_t>(extra) > caps_[b]) grow(b, extra);
  }

  svid_t* const* bin_ptrs() const { return bin_ptrs_.data(); }
  std::uint32_t* cursors() { return cursors_.data(); }

  std::uint64_t total_entries() const;

  /// Grows every bin b to at least caps[b] entries. Outside a
  /// begin_appends/commit_appends window only.
  void reserve_at_least(const std::vector<std::uint32_t>& caps);

  /// Bytes of backing storage across all bins (capacities, not sizes).
  /// Feeds the engine's workspace_bytes() steady-state audit: once warm,
  /// this plateaus — repeated runs reuse, never regrow, the bins.
  std::uint64_t capacity_bytes() const;

 private:
  void grow(unsigned b, std::uint32_t extra);

  std::vector<PbvBin> bins_;
  std::vector<svid_t*> bin_ptrs_;
  std::vector<std::uint32_t> cursors_;
  std::vector<std::uint32_t> caps_;
};

/// Per-bin PBV capacity targets shared by a team of PbvBinSets, one set
/// per worker thread. Which thread holds which frontier vertex follows the
/// race-dependent claim distribution, so a thread's share of a bin moves
/// from run to run by whole vertex degrees; sizing each set by its own
/// high-water mark keeps it creeping whenever a rarely heavy share first
/// lands on some thread. The targets instead follow each bin's total over
/// all threads, which the traversal fixes: twice the mean per-thread
/// share, bucketed to a power of two, and never below any thread's
/// capacity. Every set reserves the targets before its next Phase-I, so
/// they are fixed once each root has been run; only a share above twice
/// the mean still regrows a bin, and then lifts every thread's at once.
class PbvCapTargets {
 public:
  PbvCapTargets() = default;
  explicit PbvCapTargets(unsigned n_bins) : caps_(n_bins, 0), fill_(n_bins, 0) {}

  /// Folds one thread's committed bins in. Call for every thread's set,
  /// then raise(), from one thread inside a barrier window.
  void add(const PbvBinSet& set);

  /// Raises the targets from the sets added since the last call.
  void raise(unsigned n_threads);

  const std::vector<std::uint32_t>& caps() const { return caps_; }
  std::uint64_t storage_bytes() const {
    return caps_.capacity() * sizeof(std::uint32_t) +
           fill_.capacity() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint32_t> caps_;  // entries per bin, per thread
  std::vector<std::uint64_t> fill_;  // entries per bin, summed over threads
};

/// Decodes a marker-encoded slice [begin, end) of one bin, invoking
/// visit(parent, child) per edge. `lookback_base` points at the start of
/// the bin so the decoder can scan backwards for the governing marker when
/// the slice starts mid-run (Sec. III-C item 6's Access_Parent).
template <typename Visit>
void decode_marker_slice(const svid_t* lookback_base, std::uint32_t begin,
                         std::uint32_t end, Visit&& visit) {
  vid_t parent = kInvalidVertex;
  // Backward scan: the nearest marker at or before `begin`.
  for (std::uint32_t i = begin; i-- > 0;) {
    if (lookback_base[i] < 0) {
      parent = static_cast<vid_t>(~lookback_base[i]);
      break;
    }
  }
  for (std::uint32_t i = begin; i < end; ++i) {
    const svid_t e = lookback_base[i];
    if (e < 0) {
      parent = static_cast<vid_t>(~e);
    } else {
      visit(parent, static_cast<vid_t>(e));
    }
  }
}

/// Decodes a pair-encoded slice: items [begin, end) where item i occupies
/// entries [2i, 2i+2).
template <typename Visit>
void decode_pair_slice(const svid_t* base, std::uint32_t begin,
                       std::uint32_t end, Visit&& visit) {
  for (std::uint32_t i = begin; i < end; ++i) {
    visit(static_cast<vid_t>(base[2 * i]),
          static_cast<vid_t>(base[2 * i + 1]));
  }
}

}  // namespace fastbfs
