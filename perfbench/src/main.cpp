// perfbench_driver: runs one benchmark workload and prints its report as
// one JSON line on stdout. perfbench/run.py builds this binary, runs it and
// turns the report into the benchmark's result line.
//
//   perfbench_driver --workload kv-latency|kv-throughput|sim-ring
//                    --seed N --seconds S --trace 0|1 [--out-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "kv-latency|kv-throughput|sim-ring --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (!(args.seconds > 0)) usage("--seconds must be positive");

  perfbench::Report r;
  try {
    if (args.workload == "kv-latency") {
      perfbench::run_kv_latency(args, r);
    } else if (args.workload == "kv-throughput") {
      perfbench::run_kv_throughput(args, r);
    } else if (args.workload == "sim-ring") {
      perfbench::run_sim_ring(args, r);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  // peak_rss_mib itself is read when measuring starts: memory that grows
  // with the op count would make it follow co-tenant load.
  r.counts["peak_rss_mib_at_exit"] = perfbench::peak_rss_mib();
  r.metric("client.ops_failed_ratio",
           r.attempted == 0
               ? 1.0
               : static_cast<double>(r.failed) / static_cast<double>(r.attempted),
           "ratio");
  std::printf("%s\n", r.to_json(args).c_str());
  return r.correct() ? 0 : 1;
}
