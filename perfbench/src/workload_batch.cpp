// rmat-batch: 64-source MS-BFS waves through run_wave_into, then
// connected components and PageRank over the runner's adjacency — the
// EdgeMap apps, where every vertex starts active.
//
// Thread budget: the runner keeps a single-source pool and an MS pool
// alive and each app has its own, so engines run at 2 threads and each
// app is built only after the previous one is destroyed; that keeps the
// runnable threads within 4 cores.
#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/components.h"
#include "apps/pagerank.h"
#include "bench.h"
#include "core/api.h"
#include "graph/parallel_builder.h"

namespace pb {

namespace {

using fastbfs::BfsResult;
using fastbfs::kMsWaveWidth;
using fastbfs::StepDirection;

constexpr unsigned kThreads = 2;
constexpr unsigned kBuildThreads = 4;  // no engine pool is alive yet
constexpr unsigned kPageRankIters = 20;
constexpr double kDamping = 0.85;
// Waves take the first kWaveShare of the run's seconds, split over
// kWaveRunners runners built in turn; each runner's first wave is cold,
// then come warm waves (at least kMinWarmWaves) until its share is up.
// App rounds take the rest (at least kMinAppRounds). A round runs CC
// 1 + kCcPerRound times and PageRank 1 + kPrPerRound times.
constexpr unsigned kWaveRunners = 6;
// Waves cycle through kRootSets seeded sets of 64 roots. How much a wave
// scans depends on its roots (edges_scanned differs by a sixth between
// two seeds' sets), so a figure is the mean over the sets of the set's
// median.
constexpr unsigned kRootSets = 4;
constexpr double kWaveShare = 0.45;
constexpr unsigned kMinWarmWaves = 2, kMinAppRounds = 2;
constexpr unsigned kCcPerRound = 4, kPrPerRound = 3;

std::string check_labels(const std::vector<fastbfs::vid_t>& got,
                         const std::vector<fastbfs::vid_t>& want) {
  if (got.size() != want.size()) return "label array has the wrong size";
  for (std::size_t v = 0; v < want.size(); ++v) {
    if (got[v] != want[v]) {
      return "vertex " + std::to_string(v) + " labelled " +
             std::to_string(got[v]) + ", expected " + std::to_string(want[v]);
    }
  }
  return "";
}

std::string check_ranks(const std::vector<double>& got,
                        const std::vector<double>& want, double floor) {
  if (got.size() != want.size()) return "rank array has the wrong size";
  for (std::size_t v = 0; v < want.size(); ++v) {
    if (!(std::abs(got[v] - want[v]) <= kPageRankRelTol * want[v]) ||
        !(got[v] >= floor * (1.0 - kPageRankRelTol))) {
      return "vertex " + std::to_string(v) + " rank " + std::to_string(got[v]) +
             ", expected " + std::to_string(want[v]);
    }
  }
  return "";
}

}  // namespace

void run_batch_workload(const Args& args, Report& report) {
  Input in = rmat_input(18, 16, args.seed, args.data_dir);
  const RefGraph ref = ref_graph(in);
  const std::vector<fastbfs::vid_t> roots =
      pick_roots(ref, kMsWaveWidth * kRootSets, args.seed);
  const std::vector<RefTree> refs = ref_bfs_all(ref, roots, 4);
  const std::vector<fastbfs::vid_t> ref_labels = ref_components(ref);
  const std::vector<double> ref_ranks =
      ref_pagerank(ref, kDamping, kPageRankIters);
  const double rank_floor = (1.0 - kDamping) / ref.n();

  fastbfs::BfsOptions opts;
  opts.n_threads = kThreads;
  // The apps switch between sparse push and dense pull per step; MS waves
  // are always top-down whatever this says.
  fastbfs::BfsOptions app_opts = opts;
  app_opts.direction = fastbfs::DirectionMode::kAuto;

  const double t0 = now_s();
  fastbfs::CsrGraph csr;
  {
    Scope s("graph.build_csr_parallel");
    csr = fastbfs::build_csr_parallel(in.edges, in.n, {}, kBuildThreads);
  }
  const double t1 = now_s();
  std::unique_ptr<fastbfs::BfsRunner> runner;
  {
    Scope s("core.BfsRunner");
    runner = std::make_unique<fastbfs::BfsRunner>(csr, opts);
  }
  const double t2 = now_s();
  std::vector<double> ctor_s = {t2 - t1};
  in.edges = {};
  report.op("build_csr_parallel",
            check_csr(ref, csr.offsets().data(), csr.targets().data(),
                      csr.n_edges()));

  // Every source of a wave is checked; returns the wave's sum of
  // per-source edges.
  std::vector<BfsResult> results(kMsWaveWidth);
  std::vector<BfsResult*> ptrs;
  for (auto& r : results) ptrs.push_back(&r);
  const auto check_wave = [&](unsigned set) {
    Scope s("check.wave");
    std::vector<std::string> errors(kMsWaveWidth);
    parallel_for(kMsWaveWidth, 4, [&](std::size_t i) {
      const BfsResult& r = results[i];
      errors[i] = check_tree(ref, refs[set * kMsWaveWidth + i], r.dp.data(),
                             r.dp.size(),
                             r.vertices_visited, r.edges_traversed,
                             r.depth_reached);
    });
    double source_edges = 0;
    for (unsigned i = 0; i < kMsWaveWidth; ++i) {
      source_edges += static_cast<double>(results[i].edges_traversed);
      report.op("run_wave_into source", errors[i]);
    }
    return source_edges;
  };

  const double start = now_s();
  const auto elapsed = [&] { return now_s() - start; };

  // The runner's wave time varies by up to a fifth from one set of pool
  // threads to the next, so the waves are spread over several runners. A
  // runner builds its MS engine on its first wave, which is the cold
  // first query; the previous runner is destroyed first so no idle pool
  // shares the cores.
  std::vector<double> first_ms;
  struct SetSamples {
    std::vector<double> s, cpu, teps, levels, scanned, binned, per_scan;
  };
  std::vector<SetSamples> sets(kRootSets);
  const auto over_sets = [&](auto f) {
    double sum = 0;
    for (const SetSamples& x : sets) sum += median(f(x));
    return sum / kRootSets;
  };
  unsigned next_wave = 0;
  for (unsigned k = 0; k < kWaveRunners; ++k) {
    if (k > 0) {
      runner.reset();
      const double c0 = now_s();
      Scope s("core.BfsRunner");
      runner = std::make_unique<fastbfs::BfsRunner>(csr, opts);
      ctor_s.push_back(now_s() - c0);
    }
    const double cold0 = now_s();
    const unsigned cold_set = k % kRootSets;
    {
      Scope s("core.run_wave_into.cold");
      runner->run_wave_into(roots.data() + cold_set * kMsWaveWidth,
                            kMsWaveWidth, ptrs.data());
    }
    first_ms.push_back((now_s() - cold0) * 1e3);
    check_wave(cold_set);

    const double share_end = kWaveShare * args.seconds * (k + 1) / kWaveRunners;
    for (unsigned w = 0; w < kMinWarmWaves || elapsed() < share_end; ++w) {
      const unsigned set = next_wave++ % kRootSets;
      const double c0 = cpu_s(), w0 = now_s();
      {
        Scope s("core.run_wave_into");
        runner->run_wave_into(roots.data() + set * kMsWaveWidth, kMsWaveWidth,
                              ptrs.data());
      }
      const double w1 = now_s(), c1 = cpu_s();
      const fastbfs::MsWaveStats& st = runner->ms_engine()->last_wave_stats();
      const double source_edges = check_wave(set);
      SetSamples& x = sets[set];
      x.s.push_back(w1 - w0);
      x.cpu.push_back(c1 - c0);
      // Each source's undirected edges counted once, as on the graph
      // workloads.
      x.teps.push_back(source_edges / 2.0 / (w1 - w0));
      x.levels.push_back(st.levels);
      x.scanned.push_back(static_cast<double>(st.edges_scanned));
      x.binned.push_back(static_cast<double>(st.records_binned));
      x.per_scan.push_back(source_edges / static_cast<double>(st.edges_scanned));
    }
  }
  const double ms_workspace =
      static_cast<double>(runner->ms_engine()->workspace_bytes()) / (1 << 20);

  // Apps, in rounds until the run's time is up: each round builds CC, runs
  // it, destroys it, then does the same with PageRank, so both sample the
  // whole rest of the run. Each app's first run after its build is cold
  // and not counted.
  fastbfs::apps::PageRankOptions pro;
  pro.damping = kDamping;
  pro.tolerance = 0.0;
  pro.max_iterations = kPageRankIters;
  fastbfs::apps::ComponentsResult cc_out;
  fastbfs::apps::PageRankResult pr_out;
  std::vector<double> cc_s, cc_cpu, cc_steps, cc_dense, pr_s, pr_cpu;
  for (unsigned round = 0; round < kMinAppRounds || elapsed() < args.seconds;
       ++round) {
    {
      std::unique_ptr<fastbfs::apps::ConnectedComponents> cc;
      {
        Scope s("apps.ConnectedComponents");
        cc = std::make_unique<fastbfs::apps::ConnectedComponents>(
            runner->adjacency(), app_opts);
      }
      for (unsigned k = 0; k <= kCcPerRound; ++k) {
        const double c0 = cpu_s(), w0 = now_s();
        {
          Scope s("apps.cc.run_into");
          cc->run_into(cc_out);
        }
        const double w1 = now_s(), c1 = cpu_s();
        {
          Scope s("check.cc");
          report.op("ConnectedComponents::run_into",
                    check_labels(cc_out.label, ref_labels));
        }
        if (k == 0) continue;
        cc_s.push_back(w1 - w0);
        cc_cpu.push_back(c1 - c0);
        const auto& steps = cc->last_stats().steps;
        cc_steps.push_back(static_cast<double>(steps.size()));
        cc_dense.push_back(static_cast<double>(std::count_if(
            steps.begin(), steps.end(), [](const auto& st) {
              return st.direction == StepDirection::kBottomUp;
            })));
      }
    }
    std::unique_ptr<fastbfs::apps::PageRank> pr;
    {
      Scope s("apps.PageRank");
      pr = std::make_unique<fastbfs::apps::PageRank>(runner->adjacency(),
                                                      app_opts, pro);
    }
    for (unsigned k = 0; k <= kPrPerRound; ++k) {
      const double c0 = cpu_s(), w0 = now_s();
      {
        Scope s("apps.pagerank.run_into");
        pr->run_into(pr_out);
      }
      const double w1 = now_s(), c1 = cpu_s();
      {
        Scope s("check.pagerank");
        std::string err = check_ranks(pr_out.rank, ref_ranks, rank_floor);
        if (err.empty() && pr_out.iterations != kPageRankIters) {
          err = std::to_string(pr_out.iterations) + " iterations run";
        }
        report.op("PageRank::run_into", err);
      }
      if (k == 0) continue;
      pr_s.push_back(w1 - w0);
      pr_cpu.push_back(c1 - c0);
    }
  }

  report.e2e("setup_s", t2 - t0, "s");
  report.e2e("first_query_ms", median(first_ms), "ms");
  const double wave = over_sets([](const SetSamples& x) { return x.s; });
  report.e2e("query_ms", wave * 1e3, "ms");
  report.e2e("mteps", over_sets([](const SetSamples& x) { return x.teps; }) / 1e6,
             "MTEPS");
  report.e2e("job_s", wave + median(cc_s) + median(pr_s), "s");
  report.e2e("cpu_s",
             over_sets([](const SetSamples& x) { return x.cpu; }) +
                 median(cc_cpu) + median(pr_cpu),
             "s");
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");

  report.layer("graph.build_csr_s", t1 - t0, "s");
  report.layer("core.runner_ctor_s", median(ctor_s), "s");
  report.layer("core.workspace_mib",
               static_cast<double>(runner->workspace_bytes()) / (1 << 20), "MiB");
  report.layer("ms.levels", over_sets([](const SetSamples& x) { return x.levels; }), "count");
  report.layer("ms.edges_scanned", over_sets([](const SetSamples& x) { return x.scanned; }), "count");
  report.layer("ms.records_binned", over_sets([](const SetSamples& x) { return x.binned; }), "count");
  report.layer("ms.edges_per_scan", over_sets([](const SetSamples& x) { return x.per_scan; }), "ratio");
  report.layer("ms.workspace_mib", ms_workspace, "MiB");
  report.layer("ms.wave_self_ms", Recorder::get().mean_self_ms("core.run_wave_into"), "ms");
  report.layer("apps.cc_ms", median(cc_s) * 1e3, "ms");
  report.layer("apps.cc_steps", median(cc_steps), "count");
  report.layer("apps.cc_dense_steps", median(cc_dense), "count");
  report.layer("apps.pagerank_iter_ms", median(pr_s) * 1e3 / kPageRankIters, "ms");
}

}  // namespace pb
