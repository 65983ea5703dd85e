// RunStats reporting surface (core/two_phase_bfs.h): the per-step CSV's
// header/row shape (including the pbv_bin_skew column added with the
// observability layer and the hw_* hardware-counter columns added with
// the perf subsystem, then the benign-race work counters), direction
// letters and the bottom-up probe column, and reset() keeping the steps vector's capacity — the warm-engine
// stats-collection contract.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "core/api.h"
#include "core/two_phase_bfs.h"
#include "gen/rmat.h"
#include "graph/stats.h"

namespace fastbfs {
namespace {

constexpr const char* kHeader =
    "step,direction,frontier,binned_items,frontier_edges,"
    "unexplored_edges,bottom_up_probes,phase1_s,phase2_s,rearrange_s,"
    "phase1_imbalance,phase2_imbalance,pbv_bin_skew,hw_valid,hw_cycles,"
    "hw_instructions,hw_llc_loads,hw_llc_load_misses,hw_dtlb_load_misses,"
    "hw_branch_misses,hw_stalled_backend,hw_sw_task_clock_ns,"
    "hw_sw_page_faults,race_probes,dup_emissions";
constexpr unsigned kColumns = 25;

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::istringstream in(s);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
  return fields;
}

TEST(RunStatsCsv, HeaderAndRowShape) {
  RunStats stats;
  StepStats td;
  td.step = 1;
  td.direction = StepDirection::kTopDown;
  td.frontier_size = 1;
  td.binned_items = 8;
  td.frontier_edges = 8;
  td.unexplored_edges = 100;
  td.phase1_seconds = 0.25;
  td.phase2_seconds = 0.5;
  td.rearrange_seconds = 0.125;
  td.pbv_bin_skew = 1.5;
  td.race_probes = 5;
  td.dup_emissions = 3;
  StepStats bu;
  bu.step = 2;
  bu.direction = StepDirection::kBottomUp;
  bu.frontier_size = 40;
  bu.bottom_up_probes = 77;
  bu.hw.valid = true;
  bu.hw.cycles = 1000;
  bu.hw.llc_load_misses = 42;
  stats.steps = {td, bu};

  std::ostringstream out;
  stats.write_steps_csv(out);
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);  // header + one row per step
  EXPECT_EQ(lines[0], kHeader);

  const std::vector<std::string> row_td = split_fields(lines[1]);
  ASSERT_EQ(row_td.size(), kColumns);
  EXPECT_EQ(row_td[0], "1");
  EXPECT_EQ(row_td[1], "TD");
  EXPECT_EQ(row_td[2], "1");
  EXPECT_EQ(row_td[3], "8");
  EXPECT_EQ(row_td[4], "8");
  EXPECT_EQ(row_td[5], "100");
  EXPECT_EQ(row_td[6], "0");        // no probes on a top-down step
  EXPECT_EQ(row_td[7], "0.25");
  EXPECT_EQ(row_td[8], "0.5");
  EXPECT_EQ(row_td[9], "0.125");
  EXPECT_EQ(row_td[12], "1.5");     // pbv_bin_skew
  EXPECT_EQ(row_td[13], "0");       // hw_valid: no counters harvested
  EXPECT_EQ(row_td[14], "0");       // hw_cycles stays zero when invalid
  EXPECT_EQ(row_td[23], "5");       // race_probes
  EXPECT_EQ(row_td[24], "3");       // dup_emissions

  const std::vector<std::string> row_bu = split_fields(lines[2]);
  ASSERT_EQ(row_bu.size(), kColumns);
  EXPECT_EQ(row_bu[0], "2");
  EXPECT_EQ(row_bu[1], "BU");
  EXPECT_EQ(row_bu[2], "40");
  EXPECT_EQ(row_bu[6], "77");       // bottom_up_probes
  EXPECT_EQ(row_bu[12], "1");       // skew defaults to even on BU steps
  EXPECT_EQ(row_bu[13], "1");       // hw_valid
  EXPECT_EQ(row_bu[14], "1000");    // hw_cycles
  EXPECT_EQ(row_bu[17], "42");      // hw_llc_load_misses
  EXPECT_EQ(row_bu[24], "0");       // owner-computes BU never duplicates
}

TEST(RunStatsCsv, RealRunMatchesDirectionLog) {
  const CsrGraph g = rmat_graph(10, 8, 13);
  BfsOptions opts;
  opts.direction = DirectionMode::kAuto;  // RMAT triggers bottom-up steps
  BfsRunner runner(g, opts);
  runner.run(pick_nonisolated_root(g, 2));
  const RunStats& stats = runner.last_run_stats();
  ASSERT_FALSE(stats.steps.empty());

  std::ostringstream out;
  stats.write_steps_csv(out);
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), stats.steps.size() + 1);
  EXPECT_EQ(lines[0], kHeader);

  const std::string dirs = stats.direction_string();
  ASSERT_NE(dirs.find('B'), std::string::npos)
      << "test graph was meant to exercise bottom-up steps";
  bool bu_probes_seen = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> row = split_fields(lines[i]);
    ASSERT_EQ(row.size(), kColumns) << "line " << i << ": " << lines[i];
    EXPECT_EQ(row[0], std::to_string(i));
    EXPECT_EQ(row[1], dirs[i - 1] == 'B' ? "BU" : "TD");
    if (row[1] == "BU" && row[6] != "0") bu_probes_seen = true;
    // Top-down steps over a non-empty PBV report a skew >= 1.
    if (row[1] == "TD" && row[3] != "0") {
      EXPECT_GE(std::stod(row[12]), 1.0) << "line " << i;
    }
  }
  EXPECT_TRUE(bu_probes_seen)
      << "bottom-up steps should report their neighbour probes";
}

TEST(RunStats, ResetZeroesCountersAndKeepsCapacity) {
  RunStats stats;
  stats.phase1_seconds = 1.0;
  stats.phase2_seconds = 2.0;
  stats.rearrange_seconds = 3.0;
  stats.bottom_up_seconds = 4.0;
  stats.total_seconds = 10.0;
  stats.alpha_adj = 0.6;
  stats.direction_switches = 2;
  stats.bottom_up_probes = 99;
  stats.race_probes = 7;
  stats.dup_emissions = 5;
  stats.steps.resize(24);
  const std::size_t cap = stats.steps.capacity();
  ASSERT_GE(cap, 24u);

  stats.reset();
  EXPECT_EQ(stats.phase1_seconds, 0.0);
  EXPECT_EQ(stats.phase2_seconds, 0.0);
  EXPECT_EQ(stats.rearrange_seconds, 0.0);
  EXPECT_EQ(stats.bottom_up_seconds, 0.0);
  EXPECT_EQ(stats.total_seconds, 0.0);
  EXPECT_EQ(stats.alpha_adj, 0.0);
  EXPECT_EQ(stats.direction_switches, 0u);
  EXPECT_EQ(stats.bottom_up_probes, 0u);
  EXPECT_EQ(stats.race_probes, 0u);
  EXPECT_EQ(stats.dup_emissions, 0u);
  EXPECT_EQ(stats.traffic.total_bytes(), 0u);
  EXPECT_TRUE(stats.steps.empty());
  EXPECT_EQ(stats.steps.capacity(), cap)
      << "reset must keep capacity so warm stats collection is alloc-free";

  if (!testing::allocation_counting_active()) {
    GTEST_SKIP() << "allocation-counting operator new not linked in";
  }
  const std::uint64_t before = testing::allocation_count();
  for (int run = 0; run < 4; ++run) {
    stats.reset();
    for (int i = 0; i < 24; ++i) stats.steps.push_back(StepStats{});
  }
  EXPECT_EQ(testing::allocation_count(), before)
      << "reset + re-push within capacity must not touch the heap";
}

}  // namespace
}  // namespace fastbfs
