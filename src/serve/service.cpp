#include "serve/service.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"

namespace fastbfs::serve {

namespace {

/// Relative microsecond budget -> absolute tick deadline, saturating
/// (0 = no deadline = kTickInf).
tick_t absolute_deadline(std::uint64_t deadline_us, tick_t now) {
  if (deadline_us == 0) return kTickInf;
  if (deadline_us > (kTickInf - now) / 1000) return kTickInf;
  return now + deadline_us * 1000;
}

}  // namespace

BfsService::BfsService(const ServiceConfig& cfg, TickClock& clock,
                       ResponseSink& sink)
    : cfg_(cfg), clock_(clock), sink_(sink) {
  auto& reg = obs::metrics();
  hooks_.admitted = reg.counter("fastbfs_serve_admitted_total");
  hooks_.completed = reg.counter("fastbfs_serve_completed_total");
  hooks_.rejected = reg.counter("fastbfs_serve_rejected_total");
  hooks_.expired = reg.counter("fastbfs_serve_deadline_dropped_total");
  hooks_.waves = reg.counter("fastbfs_serve_waves_total");
  hooks_.sequential = reg.counter("fastbfs_serve_sequential_total");
  hooks_.late = reg.counter("fastbfs_serve_late_total");
  hooks_.occupancy = reg.histogram("fastbfs_serve_wave_occupancy");
  hooks_.latency_ns = reg.histogram("fastbfs_serve_latency_ns");
  hooks_.queue_wait_ns = reg.histogram("fastbfs_serve_queue_wait_ns");
  hooks_.batch_wait_ns = reg.histogram("fastbfs_serve_batch_wait_ns");
  hooks_.run_ns = reg.histogram("fastbfs_serve_run_ns");
  hooks_.respond_ns = reg.histogram("fastbfs_serve_respond_ns");
  hooks_.queue_depth = reg.gauge("fastbfs_serve_queue_depth");
  // Which binning-kernel ISA the serving engines will traverse with
  // (0=scalar 1=sse4.2 2=avx2 3=avx512): scraped next to the latency
  // histograms so fleet-level throughput deltas are attributable.
  reg.gauge("fastbfs_isa_level")
      ->set(static_cast<double>(resolved_isa()));

  const unsigned n_disp = std::max(1u, cfg_.n_dispatchers);
  dispatchers_.reserve(n_disp);
  for (unsigned d = 0; d < n_disp; ++d) {
    auto disp = std::make_unique<Dispatcher>();
    for (unsigned s = 0; s < kMsWaveWidth; ++s) {
      disp->ptrs[s] = &disp->results[s];
    }
    dispatchers_.push_back(std::move(disp));
  }
}

BfsService::~BfsService() {
  if (running_) stop();
}

std::uint32_t BfsService::add_graph(const CsrGraph& csr) {
  if (batcher_) {
    throw std::logic_error(
        "BfsService::add_graph: graph set is frozen after the first "
        "submit/pump/start");
  }
  GraphEntry entry;
  entry.n_vertices = csr.n_vertices();

  // Autotuning (DESIGN.md §5j): plan this graph once against the
  // configured platform model and serve the planned knobs. The planner
  // never selects more workers than the host has, which is the serving
  // layer's guard against oversubscribing engine.n_threads across
  // n_dispatchers runner pools.
  BfsOptions opts = cfg_.engine;
  tune::TunedPlan plan;
  if (cfg_.engine.tune != TuneMode::kOff) {
    const tune::GraphProfile prof = tune::profile_graph(csr);
    tune::PlannerConfig pc;
    pc.n_sockets = opts.n_sockets;
    pc.max_threads = opts.n_threads;
    pc.llc_bytes = opts.effective_llc_bytes();
    plan = tune::plan_traversal(prof, cfg_.tune_params, pc);
    plan.apply(opts);
    tune::publish_plan_metrics(plan);  // last added graph's plan wins
  }

  entry.runners.reserve(dispatchers_.size());
  for (std::size_t d = 0; d < dispatchers_.size(); ++d) {
    // Every pooled runner keeps its worker threads alive concurrently;
    // disjoint lane bases keep their flight-recorder tracks separate.
    opts.trace_lane_base = next_trace_lane_base_;
    next_trace_lane_base_ += opts.n_threads;
    entry.runners.push_back(std::make_unique<BfsRunner>(csr, opts));
    if (cfg_.engine.tune == TuneMode::kOnline) {
      auto tuner = std::make_unique<tune::OnlineTuner>(plan);
      tuner->attach(*entry.runners.back());
      entry.tuners.push_back(std::move(tuner));
    }
  }
  graphs_.push_back(std::move(entry));
  return static_cast<std::uint32_t>(graphs_.size() - 1);
}

vid_t BfsService::graph_vertices(std::uint32_t graph_id) const {
  return graph_id < graphs_.size() ? graphs_[graph_id].n_vertices : 0;
}

void BfsService::ensure_batcher() {
  if (!batcher_) {
    batcher_ = std::make_unique<MicroBatcher>(
        cfg_.batcher, std::max<unsigned>(1, n_graphs()));
  }
}

void BfsService::respond_rejection(const QueryRequest& q, Status s,
                                   void* cookie, tick_t) {
  hooks_.rejected->inc();
  ResponseView view;
  view.header.id = q.id;
  view.header.status = s;
  view.header.root = q.root;
  view.cookie = cookie;
  sink_.on_response(view);
}

Status BfsService::submit(const QueryRequest& q, void* cookie) {
  const tick_t now = clock_.now();
  Status rejection = Status::kMalformed;
  if (q.graph_id >= graphs_.size()) {
    rejection = Status::kBadGraph;
  } else if (q.root >= graphs_[q.graph_id].n_vertices) {
    rejection = Status::kBadRoot;
  } else {
    PendingQuery p;
    p.id = q.id;
    p.graph_id = q.graph_id;
    p.root = q.root;
    p.deadline = absolute_deadline(q.deadline_us, now);
    p.want_tree = q.want_tree;
    p.cookie = cookie;
    p.trace_id = trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    p.admit_ns = FASTBFS_NOW_NS();
    {
      std::lock_guard<std::mutex> lk(mu_);
      ensure_batcher();
      if (!accepting_) {
        rejection = Status::kShuttingDown;
        ++counts_.shutdown_drained;
      } else {
        switch (batcher_->admit(p, now)) {
          case Admit::kAdmitted:
            ++counts_.admitted;
            hooks_.admitted->inc();
            hooks_.queue_depth->set(
                static_cast<double>(batcher_->pending()));
            FASTBFS_EVENT(kServeAdmit, p.trace_id);
            cv_.notify_one();
            return Status::kOk;
          case Admit::kExpired:
            rejection = Status::kDeadlineExpired;
            ++counts_.rejected_expired;
            break;
          case Admit::kOverloaded:
            rejection = Status::kOverloaded;
            ++counts_.rejected_overloaded;
            break;
        }
      }
    }
    respond_rejection(q, rejection, cookie, now);
    return rejection;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++counts_.rejected_bad;
  }
  respond_rejection(q, rejection, cookie, now);
  return rejection;
}

void BfsService::execute_plan(unsigned d, const WavePlan& plan) {
  Dispatcher& disp = *dispatchers_[d];
  // Wave-lifecycle tracing: this span covers expiry handling, the engine
  // run and response delivery; every per-query record inside it carries
  // the query's trace id, and the wave id in this span's arg is the
  // linkage that ties up to 64 serve_query lives to one dispatch.
  [[maybe_unused]] const std::uint32_t wave_id =
      wave_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  FASTBFS_SPAN(kServeWave, wave_id);

  // Queries that died in the queue: answered, never run.
  for (unsigned i = 0; i < plan.n_expired; ++i) {
    const PendingQuery& q = plan.expired[i];
    hooks_.expired->inc();
    FASTBFS_SPAN_AT(kServeQuery, q.admit_ns, FASTBFS_NOW_NS(), q.trace_id);
    ResponseView view;
    view.header.id = q.id;
    view.header.status = Status::kDeadlineExpired;
    view.header.root = q.root;
    view.cookie = q.cookie;
    sink_.on_response(view);
  }

  tick_t service_ns = 0;
  unsigned late = 0;
  if (plan.n > 0) {
    BfsRunner& runner = *graphs_[plan.graph_id].runners[d];
    const tick_t t0 = clock_.now();
    {
      FASTBFS_SPAN(kServeRun, wave_id);
      if (plan.n == 1) {
        // Singleton fallback: the sequential engine answers one query
        // without wave setup (and with direction optimization available).
        runner.run_into(plan.queries[0].root, disp.results[0]);
      } else {
        for (unsigned s = 0; s < plan.n; ++s) {
          disp.roots[s] = plan.queries[s].root;
        }
        runner.run_wave_into(disp.roots.data(), plan.n, disp.ptrs.data());
      }
    }
    const tick_t t1 = clock_.now();
    service_ns = t1 - t0;

    // Latency breakdown: the wave's batch wait is measured from its
    // oldest admission (what the coalescing window cost), each query's
    // queue wait from its own.
    tick_t oldest = t0;
    for (unsigned s = 0; s < plan.n; ++s) {
      oldest = std::min(oldest, plan.queries[s].enqueued_at);
    }
    hooks_.batch_wait_ns->observe(t0 - oldest);
    hooks_.run_ns->observe(service_ns);

    // Online autotuning observes the sequential path only: MS waves run a
    // different engine whose stats the run-boundary rules don't describe.
    // Each tuner belongs to exactly this dispatcher's runner, so the
    // rebuild (when one fires) races with nothing.
    GraphEntry& ge = graphs_[plan.graph_id];
    if (plan.n == 1 && d < ge.tuners.size() && ge.tuners[d]) {
      ge.tuners[d]->observe_run(runner, disp.results[0]);
    }

    hooks_.occupancy->observe(plan.n);
    if (plan.n == 1) {
      hooks_.sequential->inc();
    } else {
      hooks_.waves->inc();
    }
    {
      FASTBFS_SPAN(kServeRespond, wave_id);
      for (unsigned s = 0; s < plan.n; ++s) {
        const PendingQuery& q = plan.queries[s];
        const BfsResult& r = disp.results[s];
        const tick_t lat = t1 - q.enqueued_at;
        local_latency_ns_.observe(lat);
        hooks_.latency_ns->observe(lat);
        hooks_.queue_wait_ns->observe(t0 - q.enqueued_at);
        local_occupancy_.observe(plan.n);
        hooks_.completed->inc();
        FASTBFS_EVENT(kServeQuery, q.trace_id);  // wave linkage
        FASTBFS_SPAN_AT(kServeQuery, q.admit_ns, FASTBFS_NOW_NS(),
                        q.trace_id);

        ResponseView view;
        view.header.id = q.id;
        view.header.status = Status::kOk;
        view.header.has_tree = q.want_tree;
        view.header.deadline_missed = q.deadline != kTickInf && t1 > q.deadline;
        view.header.root = q.root;
        view.header.depth_reached = r.depth_reached;
        view.header.vertices_visited = r.vertices_visited;
        view.header.edges_traversed = r.edges_traversed;
        view.header.wave_size = plan.n;
        view.result = &r;
        view.cookie = q.cookie;
        if (view.header.deadline_missed) {
          ++late;
          hooks_.late->inc();
        }
        sink_.on_response(view);
      }
    }
    hooks_.respond_ns->observe(clock_.now() - t1);
  }

  std::lock_guard<std::mutex> lk(mu_);
  counts_.expired_at_dispatch += plan.n_expired;
  if (plan.n > 0) {
    counts_.completed += plan.n;
    counts_.late += late;
    if (plan.n == 1) {
      ++counts_.sequential_runs;
    } else {
      ++counts_.waves;
      counts_.wave_queries += plan.n;
    }
    batcher_->on_wave_done(service_ns);
  }
  hooks_.queue_depth->set(static_cast<double>(batcher_->pending()));
}

unsigned BfsService::pump(tick_t now) {
  assert(!running_ && "pump() must not be mixed with start()");
  unsigned ran = 0;
  for (;;) {
    WavePlan& plan = dispatchers_[0]->plan;
    {
      std::lock_guard<std::mutex> lk(mu_);
      ensure_batcher();
      if (!batcher_->next_wave(now, plan)) break;
    }
    execute_plan(0, plan);
    ++ran;
  }
  return ran;
}

tick_t BfsService::next_due(tick_t now) {
  std::lock_guard<std::mutex> lk(mu_);
  ensure_batcher();
  return batcher_->next_due(now);
}

void BfsService::dispatcher_loop(unsigned d) {
  std::unique_lock<std::mutex> lk(mu_);
  while (running_) {
    WavePlan& plan = dispatchers_[d]->plan;
    const tick_t now = clock_.now();
    if (batcher_->next_wave(now, plan)) {
      lk.unlock();
      execute_plan(d, plan);
      lk.lock();
      continue;
    }
    clock_.wait_until(cv_, lk, batcher_->next_due(now));
  }
}

void BfsService::start() {
  std::lock_guard<std::mutex> lk(mu_);
  if (running_) return;
  ensure_batcher();
  running_ = true;
  accepting_ = true;
  threads_.reserve(dispatchers_.size());
  for (unsigned d = 0; d < dispatchers_.size(); ++d) {
    threads_.emplace_back([this, d] { dispatcher_loop(d); });
  }
}

void BfsService::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    accepting_ = false;
    running_ = false;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();

  // Drain: everything still queued is answered kShuttingDown, not run.
  // (next_wave at the far-future tick frees every slot; which array a
  // query lands in no longer matters.)
  for (;;) {
    WavePlan& plan = dispatchers_[0]->plan;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!batcher_ || !batcher_->next_wave(kTickInf - 1, plan)) break;
    }
    const auto drain = [&](const PendingQuery& q) {
      ResponseView view;
      view.header.id = q.id;
      view.header.status = Status::kShuttingDown;
      view.header.root = q.root;
      view.cookie = q.cookie;
      sink_.on_response(view);
    };
    for (unsigned i = 0; i < plan.n; ++i) drain(plan.queries[i]);
    for (unsigned i = 0; i < plan.n_expired; ++i) drain(plan.expired[i]);
    std::lock_guard<std::mutex> lk(mu_);
    counts_.shutdown_drained += plan.n + plan.n_expired;
  }
}

ServeCounters BfsService::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_;
}

double BfsService::latency_quantile_ns(double q) const {
  const std::uint64_t total = local_latency_ns_.count();
  if (total == 0) return 0.0;
  if (!(q >= 0.0)) q = 0.0;  // NaN (and negatives) land on the minimum
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * (total - 1)) + 1;
  std::uint64_t cum = 0;
  for (unsigned b = 0; b < obs::Histogram::kBuckets; ++b) {
    cum += local_latency_ns_.bucket(b);
    if (cum >= target) {
      // Bucket b holds values in [2^(b-1), 2^b); report its midpoint.
      if (b == 0) return 0.0;
      const double lo = static_cast<double>(1ull << (b - 1));
      return 1.5 * lo;
    }
  }
  return 0.0;
}

const BfsRunner& BfsService::runner(std::uint32_t graph_id,
                                    unsigned d) const {
  return *graphs_.at(graph_id).runners.at(d);
}

}  // namespace fastbfs::serve
