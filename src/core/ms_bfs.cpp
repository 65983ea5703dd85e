#include "core/ms_bfs.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "core/vis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/prefetch.h"
#include "simd/binning.h"
#include "thread/chaos.h"
#include "util/timer.h"

namespace fastbfs {

namespace {

/// One growable triple-stream record bin: record c of the bin is
/// (child[c], parent[c], mask[c]) — the (w, v, frontier-mask) update the
/// mask-carrying SIMD kernel appends in Phase-I and Phase-II filters
/// against seen[]. Streams share one cursor, so the append protocol is
/// PbvBinSet's: begin_appends / ensure / raw-table writes / commit.
class MsPbvBins {
 public:
  void configure(unsigned n_bins, const BinningKernels* kern) {
    kern_ = kern;
    if (bins_.size() == n_bins) return;
    bins_ = std::vector<Bin>(n_bins);
    sizes_.assign(n_bins, 0);
    caps_.assign(n_bins, 0);
    cursors_.assign(n_bins, 0);
    child_ptrs_.assign(n_bins, nullptr);
    parent_ptrs_.assign(n_bins, nullptr);
    mask_ptrs_.assign(n_bins, nullptr);
  }

  void clear_all() { std::fill(sizes_.begin(), sizes_.end(), 0); }

  void begin_appends() {
    std::copy(sizes_.begin(), sizes_.end(), cursors_.begin());
  }

  void commit_appends() {
    std::copy(cursors_.begin(), cursors_.end(), sizes_.begin());
  }

  void ensure(unsigned b, std::uint32_t extra) {
    if (cursors_[b] + static_cast<std::uint64_t>(extra) > caps_[b]) {
      grow(b, extra);
    }
  }

  vid_t* const* child_ptrs() const { return child_ptrs_.data(); }
  vid_t* const* parent_ptrs() const { return parent_ptrs_.data(); }
  source_mask_t* const* mask_ptrs() const { return mask_ptrs_.data(); }
  std::uint32_t* cursors() { return cursors_.data(); }

  std::uint32_t size(unsigned b) const { return sizes_[b]; }
  const vid_t* child_data(unsigned b) const { return bins_[b].child.data(); }
  const vid_t* parent_data(unsigned b) const {
    return bins_[b].parent.data();
  }
  const source_mask_t* mask_data(unsigned b) const {
    return bins_[b].mask.data();
  }

  std::uint64_t capacity_bytes() const {
    std::uint64_t total = 0;
    for (const std::uint32_t c : caps_) {
      total += c * (2 * sizeof(vid_t) + sizeof(source_mask_t));
    }
    return total;
  }

 private:
  struct Bin {
    AlignedBuffer<vid_t> child;
    AlignedBuffer<vid_t> parent;
    AlignedBuffer<source_mask_t> mask;
  };

  void grow(unsigned b, std::uint32_t extra) {
    const std::uint64_t need = cursors_[b] + static_cast<std::uint64_t>(extra);
    const std::uint64_t cap = std::max<std::uint64_t>(
        {64, std::bit_ceil(need), 2ull * caps_[b]});
    Bin grown{AlignedBuffer<vid_t>(cap), AlignedBuffer<vid_t>(cap),
              AlignedBuffer<source_mask_t>(cap)};
    Bin& bin = bins_[b];
    if (cursors_[b] > 0) {
      // Growth copies are sequential and only re-read after the whole bin
      // refills — the streaming kernel (non-temporal above its threshold)
      // keeps a big grow from flushing the seen[] working set.
      kern_->stream_copy_u32(grown.child.data(), bin.child.data(),
                             cursors_[b]);
      kern_->stream_copy_u32(grown.parent.data(), bin.parent.data(),
                             cursors_[b]);
      kern_->stream_copy_u64(grown.mask.data(), bin.mask.data(),
                             cursors_[b]);
    }
    bin = std::move(grown);
    caps_[b] = static_cast<std::uint32_t>(cap);
    child_ptrs_[b] = bin.child.data();
    parent_ptrs_[b] = bin.parent.data();
    mask_ptrs_[b] = bin.mask.data();
  }

  const BinningKernels* kern_ = nullptr;
  std::vector<Bin> bins_;
  std::vector<std::uint32_t> sizes_, caps_, cursors_;
  std::vector<vid_t*> child_ptrs_, parent_ptrs_;
  std::vector<source_mask_t*> mask_ptrs_;
};

constexpr std::uint32_t kMinPrefetchWindow = 1;

}  // namespace

struct MsBfs::ThreadState {
  // Sparse frontiers: parallel (vertex, mask) arrays, bin-grouped like the
  // single-source engine's BV_C/BV_N. No *shared* dense next-mask array
  // exists on purpose: a lost OR into a shared "next" word would silently
  // drop a source's whole subtree. Instead each thread merges the claims
  // it makes for a vertex in `agg` — a thread-private dense mask array, so
  // plain RMW, no lost updates — and emits one (vertex, merged-mask)
  // frontier entry per vertex it touched. This aggregation is what makes
  // the engine multi-source: without it every record would re-enter the
  // frontier with a near-singleton mask and the wave would degenerate to
  // 64 interleaved single-source traversals (64x the edge scans).
  // `agg` is self-cleaning: the emit pass zeroes every touched entry, so
  // it is all-zero between levels and between waves.
  std::vector<vid_t> bvc_v, bvn_v;
  std::vector<source_mask_t> bvc_m, bvn_m;
  std::vector<source_mask_t> agg;
  std::vector<std::uint32_t> bvc_counts, bvn_counts, bvc_offsets;
  MsPbvBins pbv;
  std::vector<std::uint32_t> pbv_items;

  std::uint64_t edges_scanned = 0;
  std::uint64_t records = 0;
  // Per-source tallies this thread contributes (folded by run_wave):
  // found[] is filled by the exact post-wave DP scan over a disjoint
  // vertex range (claim counting would double-count under the benign
  // race); source_edges/max_depth accumulate at expansion/claim time.
  std::array<std::uint64_t, kMsWaveWidth> found{};
  std::array<std::uint64_t, kMsWaveWidth> source_edges{};
  std::array<depth_t, kMsWaveWidth> max_depth{};

  void reset(unsigned n_bins, vid_t n_vertices,
             const BinningKernels* kern) {
    bvc_v.clear();
    bvn_v.clear();
    bvc_m.clear();
    bvn_m.clear();
    agg.resize(n_vertices);  // value-init zero on first growth only
    bvc_counts.assign(n_bins, 0);
    bvn_counts.assign(n_bins, 0);
    bvc_offsets.assign(n_bins, 0);
    pbv.configure(n_bins, kern);
    pbv.clear_all();
    pbv_items.assign(n_bins, 0);
    edges_scanned = 0;
    records = 0;
    found.fill(0);
    source_edges.fill(0);
    max_depth.fill(0);
  }

  void compute_bvc_offsets() {
    std::uint32_t run = 0;
    for (std::size_t b = 0; b < bvc_counts.size(); ++b) {
      bvc_offsets[b] = run;
      run += bvc_counts[b];
    }
  }
};

MsBfs::MsBfs(const AdjacencyArray& adj, const BfsOptions& opts)
    : adj_(adj),
      opts_(opts),
      kern_(opts.use_simd ? &active_kernels()
                          : &kernels_for(IsaLevel::kScalar)),
      topo_(opts.n_sockets, opts.n_threads),
      pool_(topo_, opts.pin_threads, opts.trace_lane_base),
      seen_(adj.n_vertices()) {
  if (adj.partition().n_sockets() != opts.n_sockets) {
    throw std::invalid_argument(
        "MsBfs: adjacency array built for a different socket count");
  }

  // Mask tiling: seen[] costs 8 bytes per vertex — 64x the VIS bit array —
  // so the same half-LLC residency rule (vis_partitions) is applied to 64
  // "virtual vertices" per real one, yielding 64x the partitions a VIS bit
  // array of this graph would get. Bins stay single-shift vertex ranges.
  n_vis_ = vis_partitions(64ull * adj.n_vertices(),
                          opts_.effective_llc_bytes());
  const std::uint64_t v_ns = adj.partition().vertices_per_socket();
  n_vis_ = static_cast<unsigned>(std::min<std::uint64_t>(n_vis_, v_ns));

  if (opts_.scheme == SocketScheme::kNone) {
    n_bins_ = 1;
    bin_shift_ = 31;
  } else {
    n_bins_ = opts_.n_sockets * n_vis_;
    bin_shift_ = adj.partition().shift() - floor_log2(n_vis_);
  }

  states_.reserve(opts_.n_threads);
  for (unsigned t = 0; t < opts_.n_threads; ++t) {
    states_.push_back(std::make_unique<ThreadState>());
  }
  counts_scratch_.resize(static_cast<std::size_t>(opts_.n_threads) * n_bins_);
  plan1_.reserve_shape(opts_.n_threads, opts_.n_sockets, opts_.n_threads,
                       n_bins_);
  plan2_.reserve_shape(opts_.n_threads, opts_.n_sockets, opts_.n_threads,
                       n_bins_);
  seen_.zero();
  if (opts_.n_threads > 1) {
    if (opts_.n_threads > kTagShared) {
      throw std::invalid_argument(
          "MsBfs: at most 32768 worker threads (15-bit claim tags)");
    }
    claim_tag_.resize(adj.n_vertices());
  }
  job_ = [this](const ThreadContext& ctx) { worker(ctx); };
}

MsBfs::~MsBfs() = default;

void MsBfs::build_shared_plan(
    std::vector<std::uint32_t> ThreadState::* counts, DivisionPlan& plan) {
  for (unsigned src = 0; src < opts_.n_threads; ++src) {
    const auto& c = (*states_[src]).*counts;
    std::copy(c.begin(), c.end(),
              counts_scratch_.begin() +
                  static_cast<std::size_t>(src) * n_bins_);
  }
  divide_bins_into(counts_scratch_, opts_.n_threads, n_bins_, topo_,
                   opts_.scheme, plan);
}

void MsBfs::seed_wave() {
  // Aggregate seed masks per distinct root (run_batch supplies distinct
  // roots; aggregation keeps the engine safe on duplicates), then append
  // in ascending vertex order — bins are contiguous vertex ranges, so
  // each owner's bv_c comes out bin-grouped.
  struct Seed {
    vid_t v;
    source_mask_t m;
  };
  std::array<Seed, kMsWaveWidth> seeds;
  unsigned n_seeds = 0;
  for (unsigned s = 0; s < wave_sources_; ++s) {
    const vid_t r = wave_roots_[s];
    const source_mask_t bit = source_mask_t{1} << s;
    dp_[s]->store(r, 0, r);
    seen_[r] |= bit;  // single-writer window: plain RMW is safe here
    unsigned j = 0;
    while (j < n_seeds && seeds[j].v != r) ++j;
    if (j == n_seeds) {
      seeds[n_seeds++] = Seed{r, bit};
    } else {
      seeds[j].m |= bit;
    }
  }
  std::sort(seeds.begin(), seeds.begin() + n_seeds,
            [](const Seed& a, const Seed& b) { return a.v < b.v; });
  for (unsigned j = 0; j < n_seeds; ++j) {
    const vid_t r = seeds[j].v;
    const unsigned owner =
        topo_.first_thread_of_socket(adj_.socket_of(r));
    ThreadState& st = *states_[owner];
    st.bvc_v.push_back(r);
    st.bvc_m.push_back(seeds[j].m);
    ++st.bvc_counts[bin_of(r)];
  }
  for (auto& st : states_) st->compute_bvc_offsets();
  build_shared_plan(&ThreadState::bvc_counts, plan1_);
}

void MsBfs::phase1(const ThreadContext& ctx) {
  ThreadState& me = *states_[ctx.thread_id];
  me.pbv.begin_appends();
  vid_t* const* cptr = me.pbv.child_ptrs();
  vid_t* const* pptr = me.pbv.parent_ptrs();
  source_mask_t* const* mptr = me.pbv.mask_ptrs();
  std::uint32_t* cur = me.pbv.cursors();
  const unsigned pfd =
      static_cast<unsigned>(std::max(opts_.prefetch_distance, 1));

  for (const BinSlice& sl : plan1_.per_thread[ctx.thread_id]) {
    ThreadState& src = *states_[sl.src];
    const std::uint32_t off = src.bvc_offsets[sl.bin] + sl.begin;
    const vid_t* vbase = src.bvc_v.data() + off;
    const source_mask_t* mbase = src.bvc_m.data() + off;
    const std::uint32_t n = sl.size();
    for (std::uint32_t k = 0; k < n; ++k) {
      if (opts_.use_prefetch) {
        const std::uint32_t pf_slot = k + pfd;
        if (pf_slot < n) prefetch_read(adj_.block_slot(vbase[pf_slot]));
        const std::uint32_t pf_blk =
            k + std::max(pfd / 2, kMinPrefetchWindow);
        if (pf_blk < n) prefetch_read(adj_.block(vbase[pf_blk]));
      }
      const vid_t u = vbase[k];
      const source_mask_t m = mbase[k];
      const auto nbrs = adj_.neighbors(u);
      const auto deg = static_cast<std::uint32_t>(nbrs.size());
      me.edges_scanned += deg;
      me.records += deg;
      // Every source riding u "traverses" u's out-edges — the arcs its
      // own single-source run would have scanned here.
      for (source_mask_t r = m; r != 0; r &= r - 1) {
        me.source_edges[std::countr_zero(r)] += deg;
      }
      for (unsigned b = 0; b < n_bins_; ++b) me.pbv.ensure(b, deg);
      kern_->append_binned_mask(nbrs.data(), deg, bin_shift_, u, m, cptr,
                                pptr, mptr, cur);
    }
  }
  me.pbv.commit_appends();
  for (unsigned b = 0; b < n_bins_; ++b) me.pbv_items[b] = me.pbv.size(b);
}

void MsBfs::phase2(const ThreadContext& ctx, depth_t step) {
  ThreadState& me = *states_[ctx.thread_id];

  // Same warm-capacity discipline as the single-source Phase-II: reserve
  // the next frontier to the plan-assigned record count, a hard bound on
  // this thread's emissions, in bit_ceil buckets with 1/8 head-room. The
  // plan cuts per-bin record totals, and with the record dedup below
  // those depend only on the frontier sets, so warm capacities converge.
  std::size_t assigned = 0;
  for (const BinSlice& sl : plan2_.per_thread[ctx.thread_id]) {
    assigned += sl.size();
  }
  if (me.bvn_v.capacity() < assigned) {
    me.bvn_v.reserve(std::bit_ceil(assigned + assigned / 8));
  }
  if (me.bvn_m.capacity() < assigned) {
    me.bvn_m.reserve(std::bit_ceil(assigned + assigned / 8));
  }

  std::uint16_t* const tags = claim_tag_.empty() ? nullptr : claim_tag_.data();
  const auto self = static_cast<std::uint16_t>(ctx.thread_id);

  for (const BinSlice& sl : plan2_.per_thread[ctx.thread_id]) {
    ThreadState& src = *states_[sl.src];
    const vid_t* child = src.pbv.child_data(sl.bin);
    const vid_t* parent = src.pbv.parent_data(sl.bin);
    const source_mask_t* mask = src.pbv.mask_data(sl.bin);
    const unsigned bin = sl.bin;
    for (std::uint32_t i = sl.begin; i < sl.end; ++i) {
      const vid_t w = child[i];
      const source_mask_t before = seen_load(w);
      const source_mask_t offered = mask[i] & ~before;
      if (offered == 0) continue;
      // The multi-source benign race: between this load and the store
      // below, a thread working another record of w can OR its own bits —
      // our plain store erases them (and theirs can erase ours). seen[] is
      // only a filter; the erased source's bits get re-offered by later
      // records and the per-source DP re-check keeps every claim correct.
      FASTBFS_CHAOS_POINT(kMsMaskOr);
      seen_store(w, before | offered);
      FASTBFS_CHAOS_POINT(kDpRecheck);
      const vid_t v = parent[i];
      source_mask_t claimed = 0;
      for (source_mask_t r = offered; r != 0; r &= r - 1) {
        const unsigned s = static_cast<unsigned>(std::countr_zero(r));
        DepthParent& dp = *dp_[s];
        if (!dp.visited(w)) {
          dp.store(w, step, v);
          claimed |= source_mask_t{1} << s;
          me.max_depth[s] = step;
        }
      }
      if (claimed != 0) {
        // Merge into this thread's private accumulator; the vertex enters
        // the next frontier once per *thread*, not once per record. Plan
        // slices arrive bin-major, so first-touch order keeps bvn_v
        // bin-grouped (the layout compute_bvc_offsets assumes).
        source_mask_t& acc = me.agg[w];
        if (acc == 0) {
          if (tags) {
            std::atomic_ref<std::uint16_t>(tags[w]).store(
                self, std::memory_order_relaxed);
          }
          me.bvn_v.push_back(w);
          ++me.bvn_counts[bin];
        }
        acc |= claimed;
      }
    }
  }

  // Emit pass: attach each touched vertex's merged mask and re-zero agg.
  me.bvn_m.resize(me.bvn_v.size());
  for (std::size_t j = 0; j < me.bvn_v.size(); ++j) {
    const vid_t w = me.bvn_v[j];
    me.bvn_m[j] = me.agg[w];
    me.agg[w] = 0;
  }

  if (tags) {
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    pool_.barrier().arrive_and_wait();  // every claim tag is final
    drop_lost_records(ctx, me);
  }
}

void MsBfs::drop_lost_records(const ThreadContext& ctx, ThreadState& me) {
  // Every emitter of w tagged it before the barrier, so all threads read
  // the same owner id; a loser's flag store keeps those low bits. The
  // compaction keeps bvn_v bin-grouped.
  const auto self = static_cast<std::uint16_t>(ctx.thread_id);
  std::size_t kept = 0;
  for (std::size_t j = 0; j < me.bvn_v.size(); ++j) {
    const vid_t w = me.bvn_v[j];
    std::atomic_ref<std::uint16_t> tag(claim_tag_[w]);
    const std::uint16_t t = tag.load(std::memory_order_relaxed);
    if ((t & ~kTagShared) == self) {
      me.bvn_v[kept] = w;
      me.bvn_m[kept] = me.bvn_m[j];
      ++kept;
    } else {
      --me.bvn_counts[bin_of(w)];
      tag.store(t | kTagShared, std::memory_order_relaxed);
    }
  }
  me.bvn_v.resize(kept);  // shrinking never reallocates
  me.bvn_m.resize(kept);
}

void MsBfs::merge_flagged_masks(ThreadState& me, depth_t step) {
  // No DP store or tag store is in flight here (between the end-of-step
  // barriers and the next Phase-I), and only w's owner touches its tag.
  for (std::size_t j = 0; j < me.bvc_v.size(); ++j) {
    const vid_t w = me.bvc_v[j];
    if ((claim_tag_[w] & kTagShared) == 0) continue;
    claim_tag_[w] &= static_cast<std::uint16_t>(~kTagShared);
    source_mask_t m = 0;
    for (unsigned s = 0; s < wave_sources_; ++s) {
      if (dp_[s]->depth(w) == step) m |= source_mask_t{1} << s;
    }
    me.bvc_m[j] = m;
  }
}

void MsBfs::worker(const ThreadContext& ctx) {
  FASTBFS_CHAOS_REGISTER(ctx.thread_id);
  FASTBFS_TRACE_REGISTER(opts_.trace_lane_base + ctx.thread_id,
                         ctx.socket_id);
  ThreadState& me = *states_[ctx.thread_id];
  SpinBarrier& bar = pool_.barrier();

  // ---- wave init ---------------------------------------------------------
  // Threads split the vertex range and reset every source's DP slice plus
  // their span of seen[] in parallel (the only O(K * |V|) cost of a wave);
  // thread 0 then seeds the roots in the single-writer window before the
  // loop's first barrier publishes them.
  const Range vr =
      split_range(adj_.n_vertices(), ctx.n_threads, ctx.thread_id);
  {
    FASTBFS_SPAN(kMsInit, 0);
    for (unsigned s = 0; s < wave_sources_; ++s) {
      std::uint64_t* d = dp_[s]->data();
      std::fill(d + vr.begin, d + vr.end, DepthParent::kInf);
    }
    if (vr.end > vr.begin) {
      std::memset(seen_.data() + vr.begin, 0,
                  (vr.end - vr.begin) * sizeof(source_mask_t));
    }
  }
  FASTBFS_CHAOS_POINT(kBarrierArrive);
  bar.arrive_and_wait();  // all resets done before any seed lands
  if (ctx.thread_id == 0) seed_wave();

  for (depth_t step = 1;; ++step) {
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    bar.arrive_and_wait();  // frontier + plan1_ published
    {
      FASTBFS_SPAN(kMsPhase1, step);
      phase1(ctx);
    }
    // Record-publication barrier; the completion hook builds the step's
    // shared Phase-II plan exactly once (ThreadPool::publish).
    FASTBFS_CHAOS_POINT(kMsPublish);
    pool_.publish([this] {
      build_shared_plan(&ThreadState::pbv_items, plan2_);
    });
    {
      FASTBFS_SPAN(kMsPhase2, step);
      phase2(ctx, step);
    }
    FASTBFS_CHAOS_POINT(kPhase2Barrier);
    bar.arrive_and_wait();  // next frontier published

    // Read-safe window: no thread mutates until the next barrier.
    std::uint64_t next_total = 0;
    for (const auto& st : states_) next_total += st->bvn_v.size();
    if (ctx.thread_id == 0) wave_stats_.levels = step;
    if (next_total == 0) break;
    if (ctx.thread_id == 0) {
      build_shared_plan(&ThreadState::bvn_counts, plan1_);
    }
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    bar.arrive_and_wait();  // sums + plan done; mutation may begin

    std::swap(me.bvc_v, me.bvn_v);
    std::swap(me.bvc_m, me.bvn_m);
    me.bvn_v.clear();
    me.bvn_m.clear();
    if (!claim_tag_.empty()) merge_flagged_masks(me, step);
    std::swap(me.bvc_counts, me.bvn_counts);
    std::fill(me.bvn_counts.begin(), me.bvn_counts.end(), 0);
    me.compute_bvc_offsets();
    me.pbv.clear_all();
    std::fill(me.pbv_items.begin(), me.pbv_items.end(), 0);
  }

  // ---- extraction --------------------------------------------------------
  // Exact per-source visited counts: the benign race can push the same
  // (vertex, source) claim from two threads, so claim counting would
  // overcount; a disjoint-range DP scan (all stores happen-before the
  // termination barrier) is exact, like the single-source engine's scan.
  FASTBFS_SPAN(kMsExtract, 0);
  for (vid_t v = static_cast<vid_t>(vr.begin);
       v < static_cast<vid_t>(vr.end); ++v) {
    for (unsigned s = 0; s < wave_sources_; ++s) {
      if (dp_[s]->visited(v)) ++me.found[s];
    }
  }
}

void MsBfs::run_wave(const vid_t* roots, unsigned n_roots,
                     BfsResult* const* results) {
  if (n_roots == 0 || n_roots > kMsWaveWidth) {
    throw std::invalid_argument("MsBfs::run_wave: 1..64 roots per wave");
  }
  for (unsigned s = 0; s < n_roots; ++s) {
    if (roots[s] >= adj_.n_vertices()) {
      throw std::invalid_argument("MsBfs::run_wave: root out of range");
    }
  }

  wave_roots_ = roots;
  wave_sources_ = n_roots;
  for (unsigned s = 0; s < n_roots; ++s) {
    BfsResult& r = *results[s];
    if (r.dp.size() != adj_.n_vertices()) {
      r.dp = DepthParent(adj_.n_vertices());
    }
    dp_[s] = &r.dp;
  }
  for (unsigned s = n_roots; s < kMsWaveWidth; ++s) dp_[s] = nullptr;
  wave_stats_ = MsWaveStats{};
  wave_stats_.n_sources = n_roots;
  // The bins only use the kern's stream copies; honor the streaming-store
  // ablation switch independently of use_simd.
  const BinningKernels* grow_kern =
      opts_.use_streaming_stores ? kern_ : &kernels_for(IsaLevel::kScalar);
  for (auto& st : states_) {
    st->reset(n_bins_, adj_.n_vertices(), grow_kern);
  }

  Timer timer;
  {
    FASTBFS_SPAN(kMsWave, wave_sources_);
    pool_.run(job_);
  }
  const double seconds = timer.seconds();

  wave_stats_.seconds = seconds;
  for (const auto& st : states_) {
    wave_stats_.edges_scanned += st->edges_scanned;
    wave_stats_.records_binned += st->records;
  }
  // One metrics batch per wave (handles cached, obs/metrics.h contract).
  static struct {
    obs::Counter* waves = obs::metrics().counter("fastbfs_ms_waves_total");
    obs::Counter* sources =
        obs::metrics().counter("fastbfs_ms_sources_total");
    obs::Counter* edges =
        obs::metrics().counter("fastbfs_ms_edges_scanned_total");
    obs::Counter* records =
        obs::metrics().counter("fastbfs_ms_records_binned_total");
    obs::Gauge* last_seconds =
        obs::metrics().gauge("fastbfs_ms_last_wave_seconds");
  } const mm;
  mm.waves->inc();
  mm.sources->add(wave_stats_.n_sources);
  mm.edges->add(wave_stats_.edges_scanned);
  mm.records->add(wave_stats_.records_binned);
  mm.last_seconds->set(seconds);
  for (unsigned s = 0; s < n_roots; ++s) {
    BfsResult& r = *results[s];
    r.root = roots[s];
    r.seconds = seconds;  // every source is charged the full wave
    r.vertices_visited = 0;
    r.edges_traversed = 0;
    r.depth_reached = 0;
    for (const auto& st : states_) {
      r.vertices_visited += st->found[s];
      r.edges_traversed += st->source_edges[s];
      r.depth_reached =
          std::max(r.depth_reached, static_cast<unsigned>(st->max_depth[s]));
    }
  }
}

std::uint64_t MsBfs::workspace_bytes() const {
  std::uint64_t total = 0;
  for (const auto& st : states_) {
    total += st->pbv.capacity_bytes();
    total += (st->bvc_v.capacity() + st->bvn_v.capacity()) * sizeof(vid_t);
    total += (st->bvc_m.capacity() + st->bvn_m.capacity() +
              st->agg.capacity()) *
             sizeof(source_mask_t);
    total += (st->bvc_counts.capacity() + st->bvn_counts.capacity() +
              st->bvc_offsets.capacity() + st->pbv_items.capacity()) *
             sizeof(std::uint32_t);
  }
  total += seen_.size() * sizeof(source_mask_t);
  const auto plan_bytes = [](const DivisionPlan& p) {
    std::uint64_t b = p.per_socket_items.capacity() * sizeof(std::uint64_t);
    for (const auto& slices : p.per_thread) {
      b += slices.capacity() * sizeof(BinSlice);
    }
    return b;
  };
  total += plan_bytes(plan1_) + plan_bytes(plan2_);
  total += counts_scratch_.capacity() * sizeof(std::uint32_t);
  return total;
}

}  // namespace fastbfs
