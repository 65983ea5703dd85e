#include "core/pbv.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "simd/dispatch.h"

namespace fastbfs {

void PbvBin::reserve_extra(std::uint32_t current, std::uint32_t extra) {
  const std::uint64_t need = static_cast<std::uint64_t>(current) + extra;
  if (need <= buf_.size()) return;
  std::uint64_t cap = std::max<std::uint64_t>(buf_.size() * 2, 1024);
  cap = std::max(cap, need);
  grow_to(static_cast<std::uint32_t>(cap), current);
}

void PbvBin::reserve(std::uint32_t cap) {
  if (cap > buf_.size()) grow_to(cap, size_);
}

void PbvBin::grow_to(std::uint32_t cap, std::uint32_t keep) {
  AlignedBuffer<svid_t> grown(cap, kCacheLine);
  if (keep != 0) {
    // Sequential once-written growth copy: route through the resolved
    // streaming kernel (non-temporal above its threshold) so a large bin
    // grow does not cycle the LLC mid-phase.
    stream_copy_u32(reinterpret_cast<std::uint32_t*>(grown.data()),
                    reinterpret_cast<const std::uint32_t*>(buf_.data()),
                    keep);
  }
  buf_ = std::move(grown);
}

PbvBinSet::PbvBinSet(unsigned n_bins)
    : bins_(n_bins),
      bin_ptrs_(n_bins, nullptr),
      cursors_(n_bins, 0),
      caps_(n_bins, 0) {}

void PbvBinSet::clear_all() {
  for (auto& b : bins_) b.clear();
}

void PbvBinSet::begin_appends() {
  for (unsigned b = 0; b < bins_.size(); ++b) {
    bin_ptrs_[b] = bins_[b].data();
    cursors_[b] = bins_[b].size();
    caps_[b] = bins_[b].capacity();
  }
}

void PbvBinSet::commit_appends() {
  for (unsigned b = 0; b < bins_.size(); ++b) {
    bins_[b].set_size(cursors_[b]);
  }
}

void PbvBinSet::grow(unsigned b, std::uint32_t extra) {
  bins_[b].reserve_extra(cursors_[b], extra);
  bin_ptrs_[b] = bins_[b].data();
  caps_[b] = bins_[b].capacity();
}

std::uint64_t PbvBinSet::total_entries() const {
  std::uint64_t total = 0;
  for (const auto& b : bins_) total += b.size();
  return total;
}

void PbvBinSet::reserve_at_least(const std::vector<std::uint32_t>& caps) {
  for (unsigned b = 0; b < bins_.size(); ++b) bins_[b].reserve(caps[b]);
}

std::uint64_t PbvBinSet::capacity_bytes() const {
  std::uint64_t total = 0;
  for (const auto& b : bins_) total += b.capacity() * sizeof(svid_t);
  return total;
}

void PbvCapTargets::add(const PbvBinSet& set) {
  for (unsigned b = 0; b < caps_.size(); ++b) {
    fill_[b] += set.bin(b).size();
    caps_[b] = std::max(caps_[b], set.bin(b).capacity());
  }
}

void PbvCapTargets::raise(unsigned n_threads) {
  constexpr std::uint64_t kMaxCap = std::uint64_t{1} << 31;
  for (unsigned b = 0; b < caps_.size(); ++b) {
    const std::uint64_t share = (fill_[b] + n_threads - 1) / n_threads;
    fill_[b] = 0;
    if (share == 0) continue;
    const std::uint64_t want = std::min(std::bit_ceil(2 * share), kMaxCap);
    caps_[b] = std::max(caps_[b], static_cast<std::uint32_t>(want));
  }
}

}  // namespace fastbfs
