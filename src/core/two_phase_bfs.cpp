#include "core/two_phase_bfs.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "core/engine_geometry.h"
#include "obs/metrics.h"
#include "obs/perf/perf_counters.h"
#include "obs/trace.h"
#include "platform/prefetch.h"
#include "simd/binning.h"
#include "thread/chaos.h"
#include "util/timer.h"

namespace fastbfs {

namespace {
/// Phase-I reserves bin capacity per frontier vertex, so a chunk constant
/// is not needed; this caps the prefetch lookahead clamp instead.
constexpr std::uint32_t kMinPrefetchWindow = 1;

// Hardware-counter harvest geometry: the span kinds attributed to each
// phase bucket, and how many steps get individual baseline rows (matches
// the obs::perf default PerfConfig.max_steps; deeper steps fold into the
// table's last row).
constexpr obs::SpanKind kHwKinds[] = {
    obs::SpanKind::kPhase1, obs::SpanKind::kPhase2, obs::SpanKind::kRearrange,
    obs::SpanKind::kBottomUp};
constexpr unsigned kHwNumKinds = 4;
constexpr unsigned kHwHarvestSteps = 512;
constexpr unsigned kHwEvents = obs::perf::kNumEvents;

void fill_hw(HwPhaseCounters& out, const std::uint64_t* delta) {
  using obs::perf::HwEvent;
  out.valid = true;
  out.cycles = delta[static_cast<unsigned>(HwEvent::kCycles)];
  out.instructions = delta[static_cast<unsigned>(HwEvent::kInstructions)];
  out.llc_loads = delta[static_cast<unsigned>(HwEvent::kLlcLoads)];
  out.llc_load_misses =
      delta[static_cast<unsigned>(HwEvent::kLlcLoadMisses)];
  out.dtlb_load_misses =
      delta[static_cast<unsigned>(HwEvent::kDtlbLoadMisses)];
  out.branch_misses = delta[static_cast<unsigned>(HwEvent::kBranchMisses)];
  out.stalled_cycles_backend =
      delta[static_cast<unsigned>(HwEvent::kStalledBackend)];
  out.sw_task_clock_ns =
      delta[static_cast<unsigned>(HwEvent::kSwTaskClockNs)];
  out.sw_page_faults = delta[static_cast<unsigned>(HwEvent::kSwPageFaults)];
}
}  // namespace

HwPhaseCounters& HwPhaseCounters::operator+=(const HwPhaseCounters& o) {
  valid = valid || o.valid;
  cycles += o.cycles;
  instructions += o.instructions;
  llc_loads += o.llc_loads;
  llc_load_misses += o.llc_load_misses;
  dtlb_load_misses += o.dtlb_load_misses;
  branch_misses += o.branch_misses;
  stalled_cycles_backend += o.stalled_cycles_backend;
  sw_task_clock_ns += o.sw_task_clock_ns;
  sw_page_faults += o.sw_page_faults;
  return *this;
}

StepDirection decide_direction(StepDirection prev,
                               std::uint64_t frontier_edges,
                               std::uint64_t unexplored_edges,
                               std::uint64_t frontier_vertices,
                               std::uint64_t n_vertices,
                               std::uint64_t total_arcs, double alpha,
                               double beta) {
  const double m_f = static_cast<double>(frontier_edges);
  if (prev == StepDirection::kTopDown) {
    return m_f * alpha > static_cast<double>(unexplored_edges) &&
                   m_f * beta > static_cast<double>(total_arcs)
               ? StepDirection::kBottomUp
               : StepDirection::kTopDown;
  }
  return static_cast<double>(frontier_vertices) * beta <
                 static_cast<double>(n_vertices)
             ? StepDirection::kTopDown
             : StepDirection::kBottomUp;
}

std::string RunStats::direction_string() const {
  std::string s;
  s.reserve(steps.size());
  for (const StepStats& st : steps) {
    s.push_back(st.direction == StepDirection::kBottomUp ? 'B' : 'T');
  }
  return s;
}

void RunStats::reset() {
  phase1_seconds = 0.0;
  phase2_seconds = 0.0;
  rearrange_seconds = 0.0;
  bottom_up_seconds = 0.0;
  total_seconds = 0.0;
  traffic = PhaseTraffic{};
  alpha_adj = 0.0;
  direction_switches = 0;
  n_threads_effective = 0;
  tune_step_switches = 0;
  bottom_up_probes = 0;
  race_probes = 0;
  dup_emissions = 0;
  hw_phase1 = HwPhaseCounters{};
  hw_phase2 = HwPhaseCounters{};
  hw_rearrange = HwPhaseCounters{};
  hw_bottom_up = HwPhaseCounters{};
  steps.clear();  // capacity kept: a warm same-depth run re-pushes in place
}

void RunStats::write_steps_csv(std::ostream& out) const {
  out << "step,direction,frontier,binned_items,frontier_edges,"
         "unexplored_edges,bottom_up_probes,phase1_s,phase2_s,rearrange_s,"
         "phase1_imbalance,phase2_imbalance,pbv_bin_skew,"
         "hw_valid,hw_cycles,hw_instructions,hw_llc_loads,"
         "hw_llc_load_misses,hw_dtlb_load_misses,hw_branch_misses,"
         "hw_stalled_backend,hw_sw_task_clock_ns,hw_sw_page_faults,"
         "race_probes,dup_emissions\n";
  for (const StepStats& s : steps) {
    out << s.step << ','
        << (s.direction == StepDirection::kBottomUp ? "BU" : "TD") << ','
        << s.frontier_size << ',' << s.binned_items << ','
        << s.frontier_edges << ',' << s.unexplored_edges << ','
        << s.bottom_up_probes << ',' << s.phase1_seconds << ','
        << s.phase2_seconds << ',' << s.rearrange_seconds << ','
        << s.phase1_imbalance << ',' << s.phase2_imbalance << ','
        << s.pbv_bin_skew << ',' << (s.hw.valid ? 1 : 0) << ','
        << s.hw.cycles << ',' << s.hw.instructions << ','
        << s.hw.llc_loads << ',' << s.hw.llc_load_misses << ','
        << s.hw.dtlb_load_misses << ',' << s.hw.branch_misses << ','
        << s.hw.stalled_cycles_backend << ',' << s.hw.sw_task_clock_ns
        << ',' << s.hw.sw_page_faults << ',' << s.race_probes << ','
        << s.dup_emissions << '\n';
  }
}

struct TwoPhaseBfs::ThreadState {
  std::vector<vid_t> bv_c;                 // current frontier (bin-grouped)
  std::vector<vid_t> bv_n;                 // next frontier
  std::vector<std::uint32_t> bvc_counts;   // frontier entries per bin
  std::vector<std::uint32_t> bvn_counts;
  std::vector<std::uint32_t> bvc_offsets;  // exclusive prefix of bvc_counts
  PbvBinSet pbv;
  std::vector<std::uint32_t> pbv_items;    // per bin, in decode items

  std::vector<vid_t> scratch;              // rearrangement temp
  std::vector<std::uint32_t> hist;

  TrafficCounter t1, t2, t2u, tr;
  std::uint64_t edges = 0;
  /// Sum of degrees of the vertices this thread appended to bv_n this
  /// step — the increment feeding the direction heuristic's edge counts.
  std::uint64_t bvn_edges = 0;
  std::uint64_t bu_probes = 0;  // neighbour probes in this step's BU scan
  std::uint64_t race_probes = 0;    // this step's, see RunStats
  std::uint64_t dup_emissions = 0;  // this step's, see RunStats
  double rearrange_seconds = 0.0;
  std::vector<std::uint64_t> adj_bytes_by_socket;

  void reset(unsigned n_bins, unsigned n_sockets) {
    bv_c.clear();
    bv_n.clear();
    bvc_counts.assign(n_bins, 0);
    bvn_counts.assign(n_bins, 0);
    bvc_offsets.assign(n_bins, 0);
    if (pbv.n_bins() != n_bins) pbv = PbvBinSet(n_bins);
    pbv.clear_all();
    pbv_items.assign(n_bins, 0);
    t1 = t2 = t2u = tr = TrafficCounter{};
    edges = 0;
    bvn_edges = 0;
    bu_probes = 0;
    race_probes = 0;
    dup_emissions = 0;
    rearrange_seconds = 0.0;
    adj_bytes_by_socket.assign(n_sockets, 0);
  }

  void compute_bvc_offsets() {
    std::uint32_t run = 0;
    for (std::size_t b = 0; b < bvc_counts.size(); ++b) {
      bvc_offsets[b] = run;
      run += bvc_counts[b];
    }
  }
};

TwoPhaseBfs::TwoPhaseBfs(const AdjacencyArray& adj, const BfsOptions& opts)
    : adj_(adj),
      opts_(opts),
      kern_(opts.use_simd ? &active_kernels()
                          : &kernels_for(IsaLevel::kScalar)),
      topo_(opts.n_sockets, opts.n_threads),
      pool_(topo_, opts.pin_threads, opts.trace_lane_base),
      rearranger_(adj, opts.cache, opts.use_streaming_stores) {
  // Geometry (N_VIS, N_PBV, bin shift, encoding, VIS-mode resolution) is
  // shared with the EdgeMap layer so both engines bin and plan
  // identically; see core/engine_geometry.h. The throw on a socket-count
  // mismatch lives in the helper.
  const EngineGeometry geo = resolve_engine_geometry(adj, opts_);
  opts_.vis_mode = geo.vis_mode;
  n_vis_ = geo.n_vis;
  n_bins_ = geo.n_bins;
  bin_shift_ = geo.bin_shift;
  use_pairs_ = geo.use_pairs;

  switch (opts_.vis_mode) {
    case VisMode::kNone:
      break;
    case VisMode::kByte:
      vis_ = std::make_unique<VisArray>(adj.n_vertices(),
                                        VisArray::Kind::kByte);
      break;
    case VisMode::kAtomicBit:
    case VisMode::kBit:
      vis_ = std::make_unique<VisArray>(adj.n_vertices(),
                                        VisArray::Kind::kBit);
      break;
    case VisMode::kPartitionedBit:
      vis_ = std::make_unique<VisArray>(adj.n_vertices(),
                                        VisArray::Kind::kBit, n_vis_);
      break;
    case VisMode::kAuto:
      // Resolved to a concrete mode above.
      break;
  }

  // Owner tags for the claim dedup, wherever two threads can both pass a
  // child's claim check in one step: the atomic-free VIS modes and kNone
  // (plain DP test + store). kAtomicBit's fetch_or admits one winner.
  if (opts_.n_threads > 1 && opts_.vis_mode != VisMode::kAtomicBit) {
    if (opts_.n_threads > 0x10000u) {
      throw std::invalid_argument(
          "TwoPhaseBfs: at most 65536 worker threads (16-bit claim tags)");
    }
    claim_tag_.resize(adj.n_vertices());
  }

  if (opts_.direction != DirectionMode::kTopDown) {
    if (!(opts_.alpha > 0.0) || !(opts_.beta > 0.0)) {
      throw std::invalid_argument(
          "TwoPhaseBfs: direction thresholds alpha/beta must be positive");
    }
    // Same partition count as VIS so a hot bottom-up scan keeps at most
    // one frontier-bitmap partition resident per socket.
    front_cur_ = std::make_unique<VisArray>(adj.n_vertices(),
                                            VisArray::Kind::kBit, n_vis_);
    front_next_ = std::make_unique<VisArray>(adj.n_vertices(),
                                             VisArray::Kind::kBit, n_vis_);
    bu_serial_ = geo.bu_serial;
  }

  states_.reserve(opts_.n_threads);
  for (unsigned t = 0; t < opts_.n_threads; ++t) {
    states_.push_back(std::make_unique<ThreadState>());
  }

  // Steady-state workspace: the plan/counts staging buffers live on the
  // engine and are refilled in place every step, and the SPMD job closure
  // is built once so repeated runs construct no std::function.
  counts_scratch_.resize(static_cast<std::size_t>(opts_.n_threads) * n_bins_);
  pbv_caps_ = PbvCapTargets(n_bins_);
  adj_by_socket_scratch_.resize(opts_.n_sockets);
  plan1_.reserve_shape(opts_.n_threads, opts_.n_sockets, opts_.n_threads,
                       n_bins_);
  plan2_.reserve_shape(opts_.n_threads, opts_.n_sockets, opts_.n_threads,
                       n_bins_);
  job_ = [this](const ThreadContext& ctx) { worker(ctx); };
  base_tuning_ =
      StepTuning{opts_.use_prefetch, opts_.prefetch_distance};

  // Oversubscription is never silent: more workers than hardware threads
  // means the barriers spin against the scheduler and per-edge costs
  // degrade unpredictably. The engine still honors the request (tests
  // deliberately run 8 workers on small hosts to exercise schedules), but
  // it is surfaced once on stderr and permanently in the registry — the
  // same contract as fastbfs_cache_geometry_fallback.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  obs::metrics()
      .gauge("fastbfs_thread_oversubscription")
      ->set(opts_.n_threads > hw ? 1.0 : 0.0);
  if (opts_.n_threads > hw) {
    static std::once_flag warned;
    std::call_once(warned, [this, hw] {
      std::fprintf(stderr,
                   "fastbfs: %u worker threads requested but only %u "
                   "hardware threads exist; expect degraded, noisy "
                   "timings (RunStats::n_threads_effective records the "
                   "count actually run).\n",
                   opts_.n_threads, hw);
    });
  }
}

TwoPhaseBfs::~TwoPhaseBfs() = default;

void TwoPhaseBfs::build_shared_plan(
    std::vector<std::uint32_t> ThreadState::* counts, DivisionPlan& plan) {
  for (unsigned src = 0; src < opts_.n_threads; ++src) {
    const auto& c = (*states_[src]).*counts;
    std::copy(c.begin(), c.end(),
              counts_scratch_.begin() + static_cast<std::size_t>(src) * n_bins_);
  }
  divide_bins_into(counts_scratch_, opts_.n_threads, n_bins_, topo_,
                   opts_.scheme, plan);

  // Phase-II plans carry the step's PBV occupancy; fold its skew into the
  // step record while still inside the barrier's exclusive window.
  if (&plan == &plan2_ && opts_.collect_stats && !run_stats_.steps.empty()) {
    std::uint64_t total = 0, max_bin = 0;
    for (unsigned b = 0; b < n_bins_; ++b) {
      std::uint64_t bin_total = 0;
      for (unsigned t = 0; t < opts_.n_threads; ++t) {
        bin_total +=
            counts_scratch_[static_cast<std::size_t>(t) * n_bins_ + b];
      }
      total += bin_total;
      max_bin = std::max(max_bin, bin_total);
    }
    if (total > 0) {
      run_stats_.steps.back().pbv_bin_skew =
          static_cast<double>(max_bin) * n_bins_ / static_cast<double>(total);
    }
  }
}

void TwoPhaseBfs::phase1(const ThreadContext& ctx, depth_t /*step*/) {
  ThreadState& me = *states_[ctx.thread_id];
  const DivisionPlan& plan = plan1_;
  if (ctx.thread_id == 0 && opts_.collect_stats) {
    StepStats& cur = run_stats_.steps.back();
    cur.frontier_size = plan.total_items;
    cur.phase1_imbalance = plan.socket_imbalance();
  }

  me.pbv.reserve_at_least(pbv_caps_.caps());  // bins are empty: no copy
  me.pbv.begin_appends();
  svid_t* const* ptrs = me.pbv.bin_ptrs();
  std::uint32_t* cur = me.pbv.cursors();
  const unsigned pfd = static_cast<unsigned>(
      std::max(opts_.prefetch_distance, 1));

  for (const BinSlice& sl : plan.per_thread[ctx.thread_id]) {
    ThreadState& src = *states_[sl.src];
    const vid_t* base =
        src.bv_c.data() + src.bvc_offsets[sl.bin] + sl.begin;
    const std::uint32_t n = sl.size();
    const bool src_local =
        topo_.socket_of_thread(sl.src) == ctx.socket_id;
    me.t1.add(src_local, 4ull * n);

    std::uint64_t adj_local = 0, adj_remote = 0, pbv_bytes = 0, edges = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      if (opts_.use_prefetch) {
        // Two-level prefetch (Sec. III-C.3): the block-pointer slot at
        // full distance, the neighbour block at half distance (when its
        // pointer is likely resident).
        const std::uint32_t pf_slot = k + pfd;
        if (pf_slot < n) prefetch_read(adj_.block_slot(base[pf_slot]));
        const std::uint32_t pf_blk = k + std::max(pfd / 2, kMinPrefetchWindow);
        if (pf_blk < n) prefetch_read(adj_.block(base[pf_blk]));
      }
      const vid_t u = base[k];
      const auto nbrs = adj_.neighbors(u);
      const auto deg = static_cast<std::uint32_t>(nbrs.size());
      edges += deg;
      const unsigned u_socket = adj_.socket_of(u);
      const std::uint64_t adj_bytes = 8 + 4ull * (1 + deg);
      (u_socket == ctx.socket_id ? adj_local : adj_remote) += adj_bytes;
      me.adj_bytes_by_socket[u_socket] += adj_bytes;

      if (use_pairs_) {
        for (unsigned b = 0; b < n_bins_; ++b) me.pbv.ensure(b, 2 * deg);
        for (const vid_t w : nbrs) {
          const std::uint32_t b = w >> bin_shift_;
          ptrs[b][cur[b]++] = static_cast<svid_t>(u);
          ptrs[b][cur[b]++] = static_cast<svid_t>(w);
        }
        pbv_bytes += 8ull * deg;
      } else {
        // Marker to every bin (Sec. III-C.4), then SIMD-bin the children.
        const svid_t marker = static_cast<svid_t>(~u);
        for (unsigned b = 0; b < n_bins_; ++b) {
          me.pbv.ensure(b, 1 + deg);
          ptrs[b][cur[b]++] = marker;
        }
        kern_->append_binned(nbrs.data(), deg, bin_shift_, ptrs, cur);
        pbv_bytes += 4ull * (n_bins_ + deg);
      }
    }
    me.t1.local_bytes += adj_local + pbv_bytes;  // PBV writes are local
    me.t1.remote_bytes += adj_remote;
    me.edges += edges;
  }
  me.pbv.commit_appends();
  for (unsigned b = 0; b < n_bins_; ++b) {
    const std::uint32_t sz = me.pbv.bin(b).size();
    me.pbv_items[b] = use_pairs_ ? sz / 2 : sz;
  }
}

void TwoPhaseBfs::phase2(const ThreadContext& ctx, depth_t step) {
  ThreadState& me = *states_[ctx.thread_id];
  const DivisionPlan& plan = plan2_;
  if (ctx.thread_id == 0 && opts_.collect_stats) {
    StepStats& cur = run_stats_.steps.back();
    cur.binned_items = plan.total_items;
    cur.phase2_imbalance = plan.socket_imbalance();
  }

  VisArray* vis = vis_.get();
  std::uint16_t* const tags = claim_tag_.empty() ? nullptr : claim_tag_.data();
  const auto self = static_cast<std::uint16_t>(ctx.thread_id);
  std::uint64_t upd_local = 0, upd_remote = 0, lost = 0;

  // Reserve BV_N (and the rearrange scratch that mirrors it) to this
  // thread's assigned decode items — one append per item is the hard
  // ceiling. The *claimed* count is race-dependent (whichever consumer of
  // a shared bin tests the VIS bit first wins the child), so sizing by
  // observed growth would let an unlucky run reallocate forever; the
  // assigned bound is plan-determined up to slice-rounding jitter, so
  // reserving its bit_ceil (capacity buckets, like vector's own doubling)
  // with a 1/8 head-room band makes warm capacities converge and keeps
  // the steady state allocation-free even when the jitter straddles a
  // power-of-two boundary.
  std::size_t assigned = 0;
  for (const BinSlice& sl : plan.per_thread[ctx.thread_id]) {
    assigned += sl.size();
  }
  if (me.bv_n.capacity() < assigned) {
    me.bv_n.reserve(std::bit_ceil(assigned + assigned / 8));
  }
  if (me.scratch.capacity() < assigned) {
    me.scratch.reserve(std::bit_ceil(assigned + assigned / 8));
  }

  const auto update = [&](vid_t parent, vid_t child, unsigned bin) {
    std::uint64_t bytes = 0;
    bool updated = false;
    switch (opts_.vis_mode) {
      case VisMode::kNone:
        bytes = 8;  // DP probe
        if (!dp_.visited(child)) {
          dp_.store(child, step, parent);
          updated = true;
        }
        break;
      case VisMode::kAtomicBit:
        bytes = 1;  // VIS byte
        if (!vis->test_and_set_atomic(child)) {
          dp_.store(child, step, parent);
          bytes += 8;
          updated = true;
        }
        break;
      default:  // the atomic-free schemes, Fig. 2(b)
        bytes = 1;
        if (!vis->test(child)) {
          // Benign-race window: another thread can pass the same test
          // before our set lands (same bit), or erase our bit with its
          // own byte RMW (sibling bit). Either way the DP re-check below
          // keeps the published depths correct.
          FASTBFS_CHAOS_POINT(kVisTestSet);
          if (!FASTBFS_CHAOS_MUTATION(kDropVisStore)) vis->set(child);
          FASTBFS_CHAOS_POINT(kDpRecheck);
          bytes += 8;  // DP probe
          if (FASTBFS_CHAOS_MUTATION(kSkipDpRecheck) || !dp_.visited(child)) {
            dp_.store(child, step, parent);
            updated = true;
          } else {
            ++lost;  // a race_probe: VIS passed, the child was taken
          }
        }
        break;
    }
    const bool local = adj_.socket_of(child) == ctx.socket_id;
    (local ? upd_local : upd_remote) += bytes;
    if (updated) {
      // Owner tag for the dedup below: relaxed, so a plain 2-byte mov.
      if (tags) {
        std::atomic_ref<std::uint16_t>(tags[child])
            .store(self, std::memory_order_relaxed);
      }
      me.bv_n.push_back(child);
      ++me.bvn_counts[bin];
      me.bvn_edges += adj_.degree(child);
      upd_local += 4;  // BV_N append is always thread-local
    }
  };

  for (const BinSlice& sl : plan.per_thread[ctx.thread_id]) {
    ThreadState& src = *states_[sl.src];
    const svid_t* base = src.pbv.bin(sl.bin).data();
    const bool src_local =
        topo_.socket_of_thread(sl.src) == ctx.socket_id;
    const std::uint64_t entry_count =
        use_pairs_ ? 2ull * sl.size() : sl.size();
    me.t2.add(src_local, 4ull * entry_count);
    const unsigned bin = sl.bin;
    if (use_pairs_) {
      decode_pair_slice(base, sl.begin, sl.end,
                        [&](vid_t p, vid_t c) { update(p, c, bin); });
    } else {
      decode_marker_slice(base, sl.begin, sl.end,
                          [&](vid_t p, vid_t c) { update(p, c, bin); });
    }
  }
  me.t2u.local_bytes += upd_local;
  me.t2u.remote_bytes += upd_remote;
  me.race_probes += lost;

  if (tags) {
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    pool_.barrier().arrive_and_wait();  // every owner tag is final
    drop_lost_claims(ctx, me);
  }

  if (opts_.rearrange) {
    FASTBFS_SPAN(kRearrange, step);
    Timer t;
    rearranger_.rearrange(me.bv_n, me.scratch, me.hist);
    me.rearrange_seconds += t.seconds();
    me.tr.local_bytes += 24ull * me.bv_n.size();  // Eqn. IV.1d accounting
  }
}

void TwoPhaseBfs::drop_lost_claims(const ThreadContext& ctx,
                                   ThreadState& me) {
  // Every emitter of a child tagged it before the barrier and no one tags
  // it again this step, so all threads read the same last-written id:
  // exactly one emitter keeps the child. A thread never emits a child
  // twice (after its own DP store the child reads as visited), and the
  // compaction keeps BV_N's bin-grouped order.
  const auto self = static_cast<std::uint16_t>(ctx.thread_id);
  std::size_t kept = 0;
  std::uint64_t dropped_edges = 0;
  for (const vid_t v : me.bv_n) {
    if (std::atomic_ref<std::uint16_t>(claim_tag_[v])
            .load(std::memory_order_relaxed) == self) {
      me.bv_n[kept++] = v;
    } else {
      --me.bvn_counts[bin_of(v)];
      dropped_edges += adj_.degree(v);
    }
  }
  const std::uint64_t dropped = me.bv_n.size() - kept;
  me.bv_n.resize(kept);  // shrinking never reallocates
  me.bvn_edges -= dropped_edges;
  me.dup_emissions += dropped;
  // A dropped append also ends a VIS pass without a kept claim; kNone has
  // no VIS, so its every item's DP probe is charged either way.
  if (vis_) me.race_probes += dropped;
}

Range TwoPhaseBfs::bottom_up_range(const ThreadContext& ctx) const {
  // Degenerate partitions (< 8 vertices per socket, i.e. toy graphs) can
  // place two sockets' vertices in the same bitmap byte; one thread then
  // scans everything rather than sprinkling atomics over the hot path.
  if (bu_serial_) {
    if (ctx.thread_id != 0) return {0, 0};
    return {0, static_cast<std::size_t>(adj_.n_vertices())};
  }
  const VertexPartition& part = adj_.partition();
  const std::uint64_t lo = part.first_vertex_of(ctx.socket_id);
  const std::uint64_t hi = part.end_vertex_of(ctx.socket_id);
  if (lo >= hi) return {0, 0};
  // Split the socket range among its threads in whole 64-vertex blocks so
  // distinct threads never share a bitmap byte.
  const std::uint64_t n_blocks = ceil_div(hi - lo, 64);
  const Range blocks = split_range(static_cast<std::size_t>(n_blocks),
                                   ctx.threads_on_socket,
                                   ctx.rank_on_socket);
  return {static_cast<std::size_t>(std::min<std::uint64_t>(
              lo + 64 * blocks.begin, hi)),
          static_cast<std::size_t>(std::min<std::uint64_t>(
              lo + 64 * blocks.end, hi))};
}

void TwoPhaseBfs::bottom_up_step(const ThreadContext& ctx, depth_t step) {
  ThreadState& me = *states_[ctx.thread_id];
  SpinBarrier& bar = pool_.barrier();
  const Range range = bottom_up_range(ctx);

  // --- frontier representation upkeep -----------------------------------
  // Zero this thread's byte span of the bitmaps that will be (re)filled,
  // then convert the sparse per-thread BV_C into the dense bitmap when the
  // previous step left only a sparse frontier. Conversion uses atomic bit
  // sets because a thread's bv_c holds arbitrary vertex ids.
  front_next_->zero_vertex_range(range.begin, range.end);
  if (!dense_frontier_valid_) {
    front_cur_->zero_vertex_range(range.begin, range.end);
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    bar.arrive_and_wait();  // all spans zeroed before any bit lands
    for (const vid_t v : me.bv_c) front_cur_->test_and_set_atomic(v);
  }
  FASTBFS_CHAOS_POINT(kBarrierArrive);
  bar.arrive_and_wait();  // dense BV_C published

  if (ctx.thread_id == 0 && opts_.collect_stats) {
    run_stats_.steps.back().frontier_size = frontier_vertices_;
  }

  // --- the scan ----------------------------------------------------------
  // Owner-computes: only this thread examines vertices in [begin, end) and
  // the spans never share a bitmap byte, so DP stores, VIS sets and
  // next-frontier bits need no atomics. The scan order is fixed, so the
  // claimed parent — the first frontier neighbour in adjacency order — is
  // deterministic regardless of thread count.
  VisArray* vis = vis_.get();
  const VisArray* front = front_cur_.get();
  std::uint64_t probes = 0, found = 0, found_edges = 0, adj_bytes = 0;
  for (vid_t v = static_cast<vid_t>(range.begin);
       v < static_cast<vid_t>(range.end); ++v) {
    if (dp_.visited(v)) continue;
    const auto nbrs = adj_.neighbors(v);
    adj_bytes += 8 + 4ull * (1 + nbrs.size());
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      ++probes;
      const vid_t w = nbrs[k];
      if (!front->test(w)) continue;
      FASTBFS_CHAOS_POINT(kBottomUpClaim);
      dp_.store(v, step, w);
      if (vis) vis->set(v);
      front_next_->set(v);
      // Sparse mirror of the new frontier: ascending v keeps bv_n
      // bin-grouped, so a following top-down step consumes it as-is.
      me.bv_n.push_back(v);
      ++me.bvn_counts[bin_of(v)];
      ++found;
      found_edges += nbrs.size();
      break;
    }
  }
  me.bvn_edges += found_edges;
  me.bu_probes += probes;
  // Adjacency reads are socket-local by construction (owner-computes);
  // frontier-bitmap probes and DP/BV_N writes are modelled at one byte
  // and 12 bytes respectively, mirroring the Phase-II accounting.
  me.t1.add(true, adj_bytes);
  me.adj_bytes_by_socket[ctx.socket_id] += adj_bytes;
  me.t2u.local_bytes += probes + 12 * found;
}

void TwoPhaseBfs::begin_step(depth_t step) {
  // Online tuning first: the just-completed step's StepStats is
  // steps.back() (thread 0 finalized its timings right after the
  // end-of-step barrier), and every other thread is parked between that
  // barrier and barrier A, so mutating the latency-hiding knobs here is
  // single-writer and takes effect atomically for the whole next step.
  if (tuner_ && step > 1 && opts_.collect_stats &&
      !run_stats_.steps.empty()) {
    const StepTuning cur{opts_.use_prefetch, opts_.prefetch_distance};
    const StepTuning next = tuner_(run_stats_.steps.back(), cur);
    if (next.use_prefetch != cur.use_prefetch ||
        next.prefetch_distance != cur.prefetch_distance) {
      opts_.use_prefetch = next.use_prefetch;
      opts_.prefetch_distance = next.prefetch_distance;
      ++run_stats_.tune_step_switches;
    }
  }

  StepDirection want = step_dir_;
  switch (opts_.direction) {
    case DirectionMode::kTopDown:
      want = StepDirection::kTopDown;
      break;
    case DirectionMode::kBottomUp:
      want = StepDirection::kBottomUp;
      break;
    case DirectionMode::kAuto:
      want = decide_direction(step_dir_, frontier_edges_, unexplored_edges_,
                              frontier_vertices_, adj_.n_vertices(),
                              adj_.n_edges(), opts_.alpha, opts_.beta);
      break;
  }
  if (step > 1 && want != step_dir_) {
    ++run_stats_.direction_switches;
    FASTBFS_EVENT(kDirectionSwitch, step);
  }
  step_dir_ = want;
  if (opts_.collect_stats) {
    run_stats_.steps.push_back(StepStats{});
    StepStats& cur = run_stats_.steps.back();
    cur.step = step;
    cur.direction = step_dir_;
    cur.frontier_edges = frontier_edges_;
    cur.unexplored_edges = unexplored_edges_;
  }
}

void TwoPhaseBfs::worker(const ThreadContext& ctx) {
  FASTBFS_CHAOS_REGISTER(ctx.thread_id);
  FASTBFS_TRACE_REGISTER(opts_.trace_lane_base + ctx.thread_id,
                         ctx.socket_id);
  ThreadState& me = *states_[ctx.thread_id];
  SpinBarrier& bar = pool_.barrier();
  Timer timer;  // used by thread 0 only

  for (depth_t step = 1;; ++step) {
    FASTBFS_SPAN(kStep, step);
    // Thread 0 decides this step's direction here: every other thread is
    // between the previous termination barrier and barrier A, so the
    // heuristic state and step_dir_ are safely single-writer.
    if (ctx.thread_id == 0) begin_step(step);
    FASTBFS_CHAOS_POINT(kBarrierArrive);
    bar.arrive_and_wait();  // frontier state + step_dir_ published
    const StepDirection dir = step_dir_;

    if (ctx.thread_id == 0) timer.reset();
    const double rearr_before = me.rearrange_seconds;
    double p1 = 0.0;
    if (dir == StepDirection::kTopDown) {
      {
        FASTBFS_SPAN(kPhase1, step);
        phase1(ctx, step);
      }
      // PBV-publication barrier. Its completion hook folds the published
      // pbv_items into the step's single shared Phase-II plan — the last
      // thread to arrive builds it while the rest spin, so the sharing
      // costs no extra fence over the seed engine's barrier (previously
      // each thread recomputed the identical division inside phase2).
      FASTBFS_CHAOS_POINT(kPbvPublish);
      pool_.publish([this] {
        build_shared_plan(&ThreadState::pbv_items, plan2_);
        for (const auto& s : states_) pbv_caps_.add(s->pbv);
        pbv_caps_.raise(opts_.n_threads);
      });
      if (ctx.thread_id == 0) {
        p1 = timer.seconds();  // includes the shared plan-2 build
        timer.reset();
      }
      {
        FASTBFS_SPAN(kPhase2, step);
        phase2(ctx, step);
      }
    } else {
      FASTBFS_SPAN(kBottomUp, step);
      bottom_up_step(ctx, step);  // internal barriers publish the bitmap
    }
    FASTBFS_CHAOS_POINT(kPhase2Barrier);
    // BV_N published. The last thread to arrive runs end_step while the
    // rest spin, so the shared counters and the next step's Phase-I plan
    // are ready when the barrier opens and every thread may recycle its
    // own buffers at once.
    bar.arrive_and_wait_then([this, dir, step] { end_step(dir, step); });
    if (ctx.thread_id == 0 && opts_.collect_stats) {
      const double p2_total = timer.seconds();  // includes end_step
      const double rearr = me.rearrange_seconds - rearr_before;
      StepStats& cur = run_stats_.steps.back();
      cur.phase1_seconds = p1;
      cur.rearrange_seconds = rearr;
      cur.phase2_seconds = std::max(p2_total - rearr, 0.0);
    }
    // The final step scanned the deepest frontier and found nothing new;
    // it did real work (Phase-I or a bottom-up sweep), so its StepStats
    // entry is kept.
    if (frontier_vertices_ == 0) return;

    std::swap(me.bv_c, me.bv_n);
    me.bv_n.clear();
    std::swap(me.bvc_counts, me.bvn_counts);
    std::fill(me.bvn_counts.begin(), me.bvn_counts.end(), 0);
    me.compute_bvc_offsets();
    me.pbv.clear_all();
    std::fill(me.pbv_items.begin(), me.pbv_items.end(), 0);
    me.bvn_edges = 0;
    me.bu_probes = 0;
    me.race_probes = 0;
    me.dup_emissions = 0;
  }
}

void TwoPhaseBfs::end_step(StepDirection dir, depth_t step) {
  std::uint64_t next_total = 0, next_edges = 0, race = 0, dups = 0,
                bu_probes = 0;
  for (const auto& s : states_) {
    next_total += s->bv_n.size();
    next_edges += s->bvn_edges;
    race += s->race_probes;
    dups += s->dup_emissions;
    bu_probes += s->bu_probes;
  }
  run_stats_.race_probes += race;
  run_stats_.dup_emissions += dups;
  if (opts_.collect_stats) {
    StepStats& cur = run_stats_.steps.back();
    cur.race_probes = race;
    cur.dup_emissions = dups;
    if (dir == StepDirection::kBottomUp) cur.bottom_up_probes = bu_probes;
  }

  // A bottom-up step "traverses" the consumed frontier's out-edges — the
  // arcs a top-down step would have scanned — keeping edges_traversed
  // (and TEPS) comparable across directions; the probes actually
  // performed are reported separately in RunStats.
  if (dir == StepDirection::kBottomUp) bu_consumed_edges_ += frontier_edges_;
  unexplored_edges_ -= std::min(unexplored_edges_, next_edges);
  frontier_edges_ = next_edges;
  frontier_vertices_ = next_total;
  dense_frontier_valid_ = dir == StepDirection::kBottomUp;
  if (dense_frontier_valid_) std::swap(front_cur_, front_next_);

  if (next_total == 0) {
    final_step_ = step;
  } else if (opts_.direction != DirectionMode::kBottomUp) {
    // The published bvn_counts become the next step's bvc_counts (swap in
    // worker()), so they are that step's Phase-I plan. Skipped when every
    // step is forced bottom-up; under kAuto a plan for a step that then
    // runs bottom-up is simply unused.
    build_shared_plan(&ThreadState::bvn_counts, plan1_);
  }
}

void TwoPhaseBfs::prepare_run(vid_t root) {
  // ---- the reset()-lifecycle audit --------------------------------------
  // Reused as-is across runs (capacity retained, never re-zeroed here):
  //   * PBV bin storage, bv_c/bv_n, rearrange scratch/hist — cleared by
  //     ThreadState::reset / the per-step epilogue, capacities persist;
  //   * the dense frontier bitmaps front_cur_/front_next_ — each
  //     bottom-up step zeroes exactly the spans it is about to fill, and
  //     dense_frontier_valid_ = false below forces that re-zeroing on the
  //     first bottom-up step of a new run;
  //   * plan1_/plan2_/counts_scratch_ — refilled in place per step;
  //   * claim_tag_ — every emitter writes a child's tag before anyone
  //     reads it, so the last run's tags are never observed;
  //   * the RunStats steps vector's capacity and the pool's workers.
  // Re-zeroed for every run (each line is one cross-run contamination bug
  // if dropped; tests/test_steady_state.cpp pins them):
  run_stats_.reset();       // timings, traffic audit, switches, steps
  // Every run starts from the construction-time tuning baseline, so a
  // warm engine's runs are deterministic no matter where the previous
  // run's online tuning ended up.
  opts_.use_prefetch = base_tuning_.use_prefetch;
  opts_.prefetch_distance = base_tuning_.prefetch_distance;
  final_step_ = 0;          // else depth_reached leaks from the last run
  dp_.reset();              // every vertex back to unvisited
  if (vis_) vis_->clear();  // VIS filter bits from the last run's tree
  for (auto& s : states_) s->reset(n_bins_, opts_.n_sockets);

  // Direction-heuristic state: frontier = {root}, everything unexplored.
  step_dir_ = opts_.direction == DirectionMode::kBottomUp
                  ? StepDirection::kBottomUp
                  : StepDirection::kTopDown;
  dense_frontier_valid_ = false;
  frontier_vertices_ = 1;
  frontier_edges_ = adj_.degree(root);
  unexplored_edges_ = adj_.n_edges() - frontier_edges_;
  bu_consumed_edges_ = 0;

  // Seed the root on the first thread of its owning socket.
  dp_.store(root, 0, root);
  if (vis_) vis_->set(root);
  const unsigned owner =
      topo_.first_thread_of_socket(adj_.socket_of(root));
  states_[owner]->bv_c.push_back(root);
  states_[owner]->bvc_counts[bin_of(root)] = 1;
  states_[owner]->compute_bvc_offsets();

  // Step 1's shared Phase-I plan (later steps build theirs in the
  // end-of-step window; see worker()).
  if (opts_.direction != DirectionMode::kBottomUp) {
    build_shared_plan(&ThreadState::bvc_counts, plan1_);
  }

  // Hardware-counter baseline: the obs::perf tables are global and
  // accumulate across runs and engines, so snapshot the per-kind and
  // per-(kind, step) rows this engine will attribute to itself. The
  // buffer is sized once on the first counter-armed run.
  hw_harvest_ =
      obs::trace_compiled() && obs::enabled() && obs::perf::armed();
  if (hw_harvest_) {
    const std::size_t need =
        std::size_t{kHwNumKinds} * (1 + kHwHarvestSteps) * kHwEvents;
    if (hw_base_.size() != need) hw_base_.assign(need, 0);
    std::size_t i = 0;
    for (unsigned k = 0; k < kHwNumKinds; ++k) {
      const unsigned kind = static_cast<unsigned>(kHwKinds[k]);
      const obs::perf::CounterTotals kt = obs::perf::kind_totals(kind);
      for (unsigned e = 0; e < kHwEvents; ++e) hw_base_[i++] = kt.value[e];
      for (unsigned s = 0; s < kHwHarvestSteps; ++s) {
        const obs::perf::CounterTotals st = obs::perf::step_totals(kind, s);
        for (unsigned e = 0; e < kHwEvents; ++e) hw_base_[i++] = st.value[e];
      }
    }
  }
}

namespace {

/// Registry handles cached on first use (obs/metrics.h contract), so a
/// warm run's epilogue records one batch of relaxed atomics and never
/// touches the registry mutex.
struct EngineMetrics {
  obs::Counter* runs;
  obs::Counter* steps;
  obs::Counter* bottom_up_steps;
  obs::Counter* direction_switches;
  obs::Counter* edges;
  obs::Counter* vertices;
  obs::Counter* bottom_up_probes;
  obs::Counter* phase1_ns;
  obs::Counter* phase2_ns;
  obs::Counter* rearrange_ns;
  obs::Counter* bottom_up_ns;
  obs::Counter* local_bytes;
  obs::Counter* remote_bytes;
  obs::Histogram* frontier;
  obs::Gauge* last_seconds;
  obs::Gauge* last_alpha_adj;
  obs::Gauge* last_pbv_skew;
  obs::Gauge* trace_recorded;
  obs::Gauge* trace_dropped;
  obs::Gauge* barrier_wait_ns;

  static const EngineMetrics& get() {
    static const EngineMetrics m = [] {
      obs::Registry& r = obs::metrics();
      EngineMetrics e;
      e.runs = r.counter("fastbfs_runs_total");
      e.steps = r.counter("fastbfs_steps_total");
      e.bottom_up_steps = r.counter("fastbfs_bottom_up_steps_total");
      e.direction_switches = r.counter("fastbfs_direction_switches_total");
      e.edges = r.counter("fastbfs_edges_traversed_total");
      e.vertices = r.counter("fastbfs_vertices_visited_total");
      e.bottom_up_probes = r.counter("fastbfs_bottom_up_probes_total");
      e.phase1_ns = r.counter("fastbfs_phase1_ns_total");
      e.phase2_ns = r.counter("fastbfs_phase2_ns_total");
      e.rearrange_ns = r.counter("fastbfs_rearrange_ns_total");
      e.bottom_up_ns = r.counter("fastbfs_bottom_up_ns_total");
      e.local_bytes = r.counter("fastbfs_local_bytes_total");
      e.remote_bytes = r.counter("fastbfs_remote_bytes_total");
      e.frontier = r.histogram("fastbfs_frontier_vertices");
      e.last_seconds = r.gauge("fastbfs_last_run_seconds");
      e.last_alpha_adj = r.gauge("fastbfs_last_alpha_adj");
      e.last_pbv_skew = r.gauge("fastbfs_last_pbv_bin_skew");
      e.trace_recorded = r.gauge("fastbfs_trace_spans_recorded");
      e.trace_dropped = r.gauge("fastbfs_trace_spans_dropped");
      e.barrier_wait_ns = r.gauge("fastbfs_trace_barrier_wait_ns");
      return e;
    }();
    return m;
  }
};

std::uint64_t ns_of(double seconds) {
  return seconds > 0.0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0;
}

}  // namespace

void TwoPhaseBfs::run_into(vid_t root, BfsResult& out) {
  if (root >= adj_.n_vertices()) {
    throw std::invalid_argument("TwoPhaseBfs::run: root out of range");
  }
  // Recycle the caller's depth/parent buffer when it already has the right
  // size (any prior result from this graph qualifies); allocate only
  // otherwise. The engine traverses directly into it and hands it back.
  if (out.dp.size() != adj_.n_vertices()) {
    out.dp = DepthParent(adj_.n_vertices());
  }
  dp_ = std::move(out.dp);
  prepare_run(root);

  Timer timer;
  {
    // The caller is worker 0, so the run span lands on lane 0 and the
    // per-step spans nest inside it in the exported trace.
    FASTBFS_SPAN(kRun, 0);
    pool_.run(job_);
  }
  const double seconds = timer.seconds();

  // Aggregate run statistics.
  run_stats_.total_seconds = seconds;
  run_stats_.n_threads_effective = opts_.n_threads;
  std::vector<std::uint64_t>& adj_by_socket = adj_by_socket_scratch_;
  std::fill(adj_by_socket.begin(), adj_by_socket.end(), 0);
  for (const auto& s : states_) {
    run_stats_.traffic.phase1 += s->t1;
    run_stats_.traffic.phase2 += s->t2;
    run_stats_.traffic.phase2_update += s->t2u;
    run_stats_.traffic.rearrange += s->tr;
    for (unsigned k = 0; k < opts_.n_sockets; ++k) {
      adj_by_socket[k] += s->adj_bytes_by_socket[k];
    }
  }
  std::uint64_t adj_total = 0;
  for (const auto b : adj_by_socket) adj_total += b;
  if (adj_total > 0) {
    run_stats_.alpha_adj =
        static_cast<double>(
            *std::max_element(adj_by_socket.begin(), adj_by_socket.end())) /
        static_cast<double>(adj_total);
  }
  for (const auto& st : run_stats_.steps) {
    if (st.direction == StepDirection::kBottomUp) {
      run_stats_.bottom_up_seconds += st.phase2_seconds;
      run_stats_.bottom_up_probes += st.bottom_up_probes;
    } else {
      run_stats_.phase1_seconds += st.phase1_seconds;
      run_stats_.phase2_seconds += st.phase2_seconds;
    }
    run_stats_.rearrange_seconds += st.rearrange_seconds;
  }

  // Attribute this run's hardware-counter deltas (tables minus the
  // prepare_run baseline) to the per-phase RunStats buckets and to each
  // step's StepStats. Phase-II spans only exist on top-down steps and
  // bottom-up spans only on BU steps, so the split matches the timings.
  if (hw_harvest_) {
    HwPhaseCounters* const phase_of[kHwNumKinds] = {
        &run_stats_.hw_phase1, &run_stats_.hw_phase2,
        &run_stats_.hw_rearrange, &run_stats_.hw_bottom_up};
    std::uint64_t delta[kHwEvents];
    for (unsigned k = 0; k < kHwNumKinds; ++k) {
      const unsigned kind = static_cast<unsigned>(kHwKinds[k]);
      const std::size_t base =
          std::size_t{k} * (1 + kHwHarvestSteps) * kHwEvents;
      const obs::perf::CounterTotals kt = obs::perf::kind_totals(kind);
      for (unsigned e = 0; e < kHwEvents; ++e) {
        const std::uint64_t b = hw_base_[base + e];
        delta[e] = kt.value[e] >= b ? kt.value[e] - b : 0;
      }
      fill_hw(*phase_of[k], delta);
      for (StepStats& ss : run_stats_.steps) {
        const unsigned s =
            ss.step < kHwHarvestSteps ? ss.step : kHwHarvestSteps - 1;
        const obs::perf::CounterTotals st = obs::perf::step_totals(kind, s);
        const std::size_t sb = base + std::size_t{1 + s} * kHwEvents;
        for (unsigned e = 0; e < kHwEvents; ++e) {
          const std::uint64_t b = hw_base_[sb + e];
          delta[e] = st.value[e] >= b ? st.value[e] - b : 0;
        }
        HwPhaseCounters step_hw;
        fill_hw(step_hw, delta);
        ss.hw += step_hw;
      }
    }
  }

  out.root = root;
  out.seconds = seconds;
  out.edges_traversed = bu_consumed_edges_;
  for (const auto& s : states_) out.edges_traversed += s->edges;
  out.depth_reached = final_step_ > 0 ? final_step_ - 1 : 0;
  out.vertices_visited = 0;
  for (vid_t v = 0; v < adj_.n_vertices(); ++v) {
    if (dp_.visited(v)) ++out.vertices_visited;
  }
  out.dp = std::move(dp_);

  // One metrics batch per traversal (never per edge). steps_total uses
  // final_step_ so it is right even with collect_stats off; per-step
  // observations come from the steps vector and simply contribute nothing
  // in that case.
  const EngineMetrics& em = EngineMetrics::get();
  em.runs->inc();
  em.steps->add(final_step_);
  em.direction_switches->add(run_stats_.direction_switches);
  em.edges->add(out.edges_traversed);
  em.vertices->add(out.vertices_visited);
  em.bottom_up_probes->add(run_stats_.bottom_up_probes);
  em.phase1_ns->add(ns_of(run_stats_.phase1_seconds));
  em.phase2_ns->add(ns_of(run_stats_.phase2_seconds));
  em.rearrange_ns->add(ns_of(run_stats_.rearrange_seconds));
  em.bottom_up_ns->add(ns_of(run_stats_.bottom_up_seconds));
  em.local_bytes->add(run_stats_.traffic.total_bytes() -
                      run_stats_.traffic.total_remote_bytes());
  em.remote_bytes->add(run_stats_.traffic.total_remote_bytes());
  em.last_seconds->set(seconds);
  em.last_alpha_adj->set(run_stats_.alpha_adj);
  double max_skew = 1.0;
  std::uint64_t bu_steps = 0;
  for (const auto& st : run_stats_.steps) {
    em.frontier->observe(st.frontier_size);
    max_skew = std::max(max_skew, st.pbv_bin_skew);
    if (st.direction == StepDirection::kBottomUp) ++bu_steps;
  }
  em.last_pbv_skew->set(max_skew);
  em.bottom_up_steps->add(bu_steps);
  // Flight-recorder rollups, meaningful only while the recorder is armed
  // (all zero otherwise — the gauges then just report "no tracing").
  em.trace_recorded->set(static_cast<double>(obs::total_recorded()));
  em.trace_dropped->set(static_cast<double>(obs::total_dropped()));
  em.barrier_wait_ns->set(static_cast<double>(
      obs::kind_total(obs::SpanKind::kBarrierWait).total_ns));
}

BfsResult TwoPhaseBfs::run(vid_t root) {
  BfsResult result;
  run_into(root, result);
  return result;
}

std::uint64_t TwoPhaseBfs::workspace_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : states_) {
    total += s->pbv.capacity_bytes();
    total += (s->bv_c.capacity() + s->bv_n.capacity() + s->scratch.capacity()) *
             sizeof(vid_t);
    total += (s->bvc_counts.capacity() + s->bvn_counts.capacity() +
              s->bvc_offsets.capacity() + s->pbv_items.capacity() +
              s->hist.capacity()) *
             sizeof(std::uint32_t);
    total += s->adj_bytes_by_socket.capacity() * sizeof(std::uint64_t);
  }
  if (vis_) total += vis_->storage_bytes();
  if (front_cur_) total += front_cur_->storage_bytes();
  if (front_next_) total += front_next_->storage_bytes();
  total += claim_tag_.capacity() * sizeof(std::uint16_t);
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
  // dp_ is empty between runs: the depth/parent buffer lives in the
  // caller's BfsResult, which run_into recycles.
  total += dp_.size() * sizeof(std::uint64_t);
  return total;
}

std::uint64_t TwoPhaseBfs::vis_storage_bytes() const {
  return vis_ ? vis_->storage_bytes() : 0;
}

VisAudit TwoPhaseBfs::audit_vis(const BfsResult& result) const {
  VisAudit audit;
  if (!vis_ || result.dp.size() != adj_.n_vertices()) return audit;
  audit.audited = true;
  // kByte stores whole bytes and kAtomicBit uses fetch_or — neither can
  // lose a concurrent sibling's store, so every assigned depth must have
  // its bit. The plain-RMW bit modes can (Sec. III-A scenario 2); only the
  // reverse direction is an invariant there. Note opts_ reflects any
  // kNone -> kBit direction upgrade, so the mode tested is the mode run.
  audit.strict = opts_.vis_mode == VisMode::kByte ||
                 opts_.vis_mode == VisMode::kAtomicBit;
  for (vid_t v = 0; v < adj_.n_vertices(); ++v) {
    const bool bit = vis_->test(v);
    const bool assigned = result.dp.visited(v);
    if (assigned && !bit) ++audit.missing;
    if (!assigned && bit) ++audit.spurious;
  }
  // Surface the audit through the registry so torture/CI scrape VIS
  // health the same way they scrape everything else.
  static struct {
    obs::Counter* audits = obs::metrics().counter("fastbfs_vis_audits_total");
    obs::Counter* missing =
        obs::metrics().counter("fastbfs_vis_missing_total");
    obs::Counter* spurious =
        obs::metrics().counter("fastbfs_vis_spurious_total");
  } const am;
  am.audits->inc();
  am.missing->add(audit.missing);
  am.spurious->add(audit.spurious);
  return audit;
}

BfsResult two_phase_bfs(const AdjacencyArray& adj, vid_t root,
                        const BfsOptions& opts) {
  TwoPhaseBfs engine(adj, opts);
  return engine.run(root);
}

}  // namespace fastbfs
