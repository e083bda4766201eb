// Replays a workload through the engine's public API, checks every output
// against the benchmark's own reference, and times the ticks.
//
// Every workload runs closed loop, on ContinuousQueryEngine or on
// PipelinedQueryEngine (one epoch per tick): a tick is due as soon as the
// previous one has been read, and its latency runs from then to when every
// stream's candidates and transitions have been read.
//
// Round 0 is untimed: it warms the engine and runs the reference checks on
// a seeded sample of ticks. Every later round must reproduce round 0's
// outputs exactly (a per-tick fingerprint of candidates and transitions),
// so the timed rounds are checked too.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  // A run never stops with fewer timed ticks than this, so the p99 tick
  // latency always has ten samples beyond it.
  int64_t min_ticks = 1000;
};

// Engine-boundary timers and counts, filled only by the traced run; the
// end-to-end run passes nullptr and pays for none of it.
struct EngineTrace {
  double apply_s = 0.0;       // ApplyChange, or Ingest + AdvanceEpoch.
  double candidates_s = 0.0;  // CandidatesForStream.
  double observe_s = 0.0;     // ObserveTransitions.
  double churn_s = 0.0;       // AddQueryDynamic / RemoveQueryDynamic.
  int64_t churn_ops = 0;
  int64_t transitions = 0;    // Appeared + disappeared events.
  // Pipelined engine only.
  double ingest_wait_s = 0.0;  // Time inside Ingest.
  double epoch_wait_s = 0.0;   // Main-thread time inside AdvanceEpoch.
  int64_t coalesced_events = 0;
  int64_t lane_depth_max = 0;
  double watermark_lag_p50_us = 0.0;
  double shard_ops_imbalance = 0.0;  // Max over mean applied events per shard.
};

struct ReplayResult {
  std::string error;  // Empty when every check passed.
  double setup_s = 0.0;
  int rounds = 0;  // Timed rounds.
  int64_t ticks = 0;
  int64_t ops = 0;
  double replay_s = 0.0;  // Wall time of the timed rounds.
  // Per timed round: from when its first tick was due to when its last
  // tick had been read. Every round is the same work.
  std::vector<double> round_s;
  std::vector<double> tick_ms;
  int64_t candidate_pairs = 0;  // (tick, stream, query) candidates per round.
  // Reference-check sample of round 0.
  int64_t checked_ticks = 0;
  int64_t verified_candidates = 0;
  int64_t true_matches = 0;
  int64_t non_candidates_checked = 0;
};

ReplayResult RunReplay(const Workload& workload, const RunConfig& config,
                       EngineTrace* trace);

// Prints the checks made and the timed work of a run, for the run log.
void PrintRunSummary(const ReplayResult& result);

// Seconds on a monotonic clock.
double Now();

// The q-quantile (0..1) of `values`, linearly interpolated.
double Quantile(std::vector<double> values, double q);

// Peak resident set of the process in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
