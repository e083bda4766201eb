// End-to-end run of the stream-monitor benchmark: replays one workload
// through the engine's public API with no tracing and prints the
// end-to-end metrics as the last line of standard output.
//
// Usage: perfbench_e2e --workload <name> --seed <n> --seconds <s>

#include <cstdio>
#include <string>

#include "replay.h"
#include "report.h"
#include "workload.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", error.c_str());
    return 2;
  }
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(args.workload, args.seed, &workload)) {
    std::fprintf(stderr, "perfbench_e2e: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", perfbench::DescribeWorkload(workload).c_str());

  perfbench::RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  const perfbench::ReplayResult r = perfbench::RunReplay(workload, config, nullptr);
  if (!r.error.empty()) {
    std::fprintf(stderr, "perfbench_e2e: CHECK FAILED on %s seed %llu: %s\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 r.error.c_str());
    // The failed check ends the run: it counts as the one failed operation.
    std::printf("%s\n", perfbench::Report().Json(false, r.ticks > 0 ? r.ticks : 1, 1).c_str());
    return 1;
  }
  perfbench::PrintRunSummary(r);

  perfbench::Report report;
  report.Add("setup_s", r.setup_s, "s");
  report.Add("update_ops_per_s",
             static_cast<double>(workload.ops_per_round) / perfbench::Quantile(r.round_s, 0.5),
             "ops/s");
  report.Add("tick_p50_ms", perfbench::Quantile(r.tick_ms, 0.5), "ms");
  report.Add("tick_p99_ms", perfbench::Quantile(r.tick_ms, 0.99), "ms");
  report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  report.Add("candidate_pairs", static_cast<double>(r.candidate_pairs), "count");
  std::printf("%s\n", report.Json(true, r.ticks, 0).c_str());
  return 0;
}
