// perfbench_driver: one workload, one run, one JSON result line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--data-dir <dir>] [--source <id>]
//
// perfbench/run.py builds this binary and is the command users run; see
// perfbench/README.md for the workloads and metrics.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

namespace {

std::string g_source = "unknown";

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<rmat-graph500|grid-topdown|rmat-batch|serve-tcp> --seed <n> "
               "--seconds <s> --trace <0|1> [--data-dir <dir>] [--source <id>]\n",
               why);
  std::exit(2);
}

}  // namespace

std::string stamp_json(const Args& args, const std::string& isa) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"source\": \"%s\", "
                "\"build_type\": \"%s\", \"isa_level\": \"%s\", "
                "\"hardware_threads\": %u, \"nproc\": %u, \"trace\": %d}",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                g_source.c_str(), PERFBENCH_BUILD_TYPE, isa.c_str(),
                std::thread::hardware_concurrency(), affinity_cpus(),
                args.trace ? 1 : 0);
  return buf;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const char* key = argv[i];
    if (i + 1 >= argc) pb::usage("missing value");
    const std::string val = argv[++i];
    try {
      if (std::strcmp(key, "--workload") == 0) {
        args.workload = val;
      } else if (std::strcmp(key, "--seed") == 0) {
        args.seed = std::stoull(val);
      } else if (std::strcmp(key, "--seconds") == 0) {
        args.seconds = std::stod(val);
      } else if (std::strcmp(key, "--trace") == 0) {
        args.trace = std::stoi(val) != 0;
      } else if (std::strcmp(key, "--data-dir") == 0) {
        args.data_dir = val;
      } else if (std::strcmp(key, "--source") == 0) {
        pb::g_source = val;
      } else {
        pb::usage("unknown option");
      }
    } catch (const std::exception&) {
      pb::usage("bad number");
    }
  }
  if (args.seconds <= 0.0) pb::usage("--seconds must be positive");
  if (args.trace) pb::Recorder::get().enable();

  const std::string isa = fastbfs::isa_name(fastbfs::resolved_isa());
  const std::string stamp = pb::stamp_json(args, isa);
  std::printf("# stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  pb::Report report;
  try {
    if (args.workload == "rmat-graph500" || args.workload == "grid-topdown") {
      pb::run_bfs_workload(args, report);
    } else if (args.workload == "rmat-batch") {
      pb::run_batch_workload(args, report);
    } else if (args.workload == "serve-tcp") {
      pb::run_serve_workload(args, report);
    } else {
      pb::usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }

  if (args.trace) {
    const std::string path = args.data_dir + "/trace-" + args.workload + "-s" +
                             std::to_string(args.seed) + ".json";
    std::error_code ec;
    std::filesystem::create_directories(args.data_dir, ec);
    pb::Recorder::get().write_chrome_trace(path, stamp);
    std::printf("# trace %s\n", path.c_str());
  }
  report.print(args.trace);
  return 0;
}
