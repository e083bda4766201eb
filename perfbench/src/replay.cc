#include "replay.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <utility>

#include "gsps/engine/candidate_tracker.h"
#include "gsps/engine/continuous_query_engine.h"
#include "gsps/engine/pipelined_query_engine.h"
#include "gsps/iso/subgraph_isomorphism.h"
#include "gsps/obs/window.h"
#include "oracle.h"

namespace perfbench {
namespace {

// Every tick of round 0 is checked against the reference; at the start
// state and at kSampledTicks seeded ticks, pairs are also sampled for the
// exact checker.
constexpr int kSampledTicks = 4;
constexpr int kNonCandidateSamples = 6;
constexpr int kCandidateSamples = 12;

// Which workload query each engine id holds (-1 once retired), and back.
struct QuerySlots {
  std::vector<int> engine_to_query;
  std::vector<int> query_to_engine;

  explicit QuerySlots(int num_queries) {
    for (int q = 0; q < num_queries; ++q) {
      engine_to_query.push_back(q);
      query_to_engine.push_back(q);
    }
  }
};

// The outputs of one tick, per stream.
struct TickOutputs {
  std::vector<std::vector<int>> candidates;
  std::vector<gsps::CandidateTransitions> transitions;
  std::vector<int> scratch;

  explicit TickOutputs(int num_streams)
      : candidates(static_cast<size_t>(num_streams)),
        transitions(static_cast<size_t>(num_streams)) {}
};

template <typename Engine>
void ReadTick(Engine& engine, TickOutputs& out, EngineTrace* trace) {
  const int num_streams = static_cast<int>(out.candidates.size());
  for (int s = 0; s < num_streams; ++s) {
    std::vector<int>& candidates = out.candidates[static_cast<size_t>(s)];
    gsps::CandidateTransitions& events = out.transitions[static_cast<size_t>(s)];
    if (trace == nullptr) {
      engine.CandidatesForStream(s, &candidates);
      out.scratch = candidates;  // ObserveTransitions swaps its argument.
      engine.ObserveTransitions(s, &out.scratch, &events);
      continue;
    }
    const double a = Now();
    engine.CandidatesForStream(s, &candidates);
    const double b = Now();
    out.scratch = candidates;
    engine.ObserveTransitions(s, &out.scratch, &events);
    trace->candidates_s += b - a;
    trace->observe_s += Now() - b;
    trace->transitions += static_cast<int64_t>(events.appeared.size() + events.disappeared.size());
  }
}

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

uint64_t Fingerprint(const TickOutputs& out) {
  uint64_t h = 1;
  for (size_t s = 0; s < out.candidates.size(); ++s) {
    h = Mix(h, 0xc0ffee + s);
    for (const int q : out.candidates[s]) h = Mix(h, static_cast<uint64_t>(q));
    h = Mix(h, 0xa11);
    for (const int q : out.transitions[s].appeared) h = Mix(h, static_cast<uint64_t>(q));
    h = Mix(h, 0xd15);
    for (const int q : out.transitions[s].disappeared) h = Mix(h, static_cast<uint64_t>(q));
  }
  return h;
}

int64_t CountCandidates(const TickOutputs& out) {
  int64_t n = 0;
  for (const auto& c : out.candidates) n += static_cast<int64_t>(c.size());
  return n;
}

std::string Format(const char* fmt, long long a, long long b, long long c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// Retired queries never appear among the candidates.
std::string CheckNoRetired(const TickOutputs& out, const QuerySlots& slots) {
  for (size_t s = 0; s < out.candidates.size(); ++s) {
    for (const int e : out.candidates[s]) {
      if (e < 0 || e >= static_cast<int>(slots.engine_to_query.size()) ||
          slots.engine_to_query[static_cast<size_t>(e)] < 0) {
        return Format("stream %lld reports query id %lld, which is not registered",
                      static_cast<long long>(s), e);
      }
    }
  }
  return {};
}

// The reference state of round 0: the benchmark's own copy of every stream
// graph, the query NPVs, and the previous candidate lists.
class Checker {
 public:
  Checker(const Workload& w, int depth, uint64_t seed)
      : w_(w), depth_(depth), rng_(seed ^ 0x5eed0c4ecc5ULL) {
    for (const gsps::Graph& g : w.start) graphs_.emplace_back(g);
    for (const gsps::Graph& q : w.queries) queries_.push_back(ComputeQuery(q, depth));
    previous_.resize(w.start.size());
    std::vector<int> ticks(static_cast<size_t>(w.ticks_per_round()));
    for (int k = 0; k < w.ticks_per_round(); ++k) ticks[static_cast<size_t>(k)] = k;
    rng_.Shuffle(ticks);
    sampled_.assign(static_cast<size_t>(w.ticks_per_round()), 0);
    for (int i = 0; i < kSampledTicks && i < w.ticks_per_round(); ++i) {
      sampled_[static_cast<size_t>(ticks[static_cast<size_t>(i)])] = 1;
    }
  }

  void Apply(int tick) {
    for (size_t s = 0; s < graphs_.size(); ++s) graphs_[s].Apply(w_.ticks[static_cast<size_t>(tick)][s]);
  }

  bool Sampled(int tick) const { return tick < 0 || sampled_[static_cast<size_t>(tick)] != 0; }

  // The benchmark's own diff of consecutive candidate lists must equal the
  // engine's transition events.
  std::string CheckTransitions(const TickOutputs& out) {
    for (size_t s = 0; s < out.candidates.size(); ++s) {
      const std::vector<int>& now = out.candidates[s];
      std::vector<int> appeared, disappeared;
      std::set_difference(now.begin(), now.end(), previous_[s].begin(), previous_[s].end(),
                          std::back_inserter(appeared));
      std::set_difference(previous_[s].begin(), previous_[s].end(), now.begin(), now.end(),
                          std::back_inserter(disappeared));
      if (appeared != out.transitions[s].appeared || disappeared != out.transitions[s].disappeared) {
        return Format("stream %lld: transitions differ from the candidate diff "
                      "(%lld appeared expected)",
                      static_cast<long long>(s), static_cast<long long>(appeared.size()));
      }
      previous_[s] = now;
    }
    return {};
  }

  // Candidate definition; at a sampled tick also no false negatives and
  // real matches, whose iso samples are added to *result.
  std::string CheckCandidates(int tick, const TickOutputs& out, const QuerySlots& slots,
                              ReplayResult* result) {
    ++result->checked_ticks;
    std::vector<std::pair<int, int>> candidates, rejected;
    for (size_t s = 0; s < graphs_.size(); ++s) {
      const std::vector<RefNpv> npvs = ComputeNpvs(graphs_[s], depth_);
      std::vector<int> expected;
      for (size_t e = 0; e < slots.engine_to_query.size(); ++e) {
        const int q = slots.engine_to_query[e];
        if (q < 0) continue;
        if (IsCandidate(queries_[static_cast<size_t>(q)], npvs)) {
          expected.push_back(static_cast<int>(e));
          candidates.emplace_back(static_cast<int>(s), q);
        } else {
          rejected.emplace_back(static_cast<int>(s), q);
        }
      }
      if (expected != out.candidates[s]) {
        return Format("stream %lld: engine reports %lld candidates, the reference %lld",
                      static_cast<long long>(s),
                      static_cast<long long>(out.candidates[s].size()),
                      static_cast<long long>(expected.size()));
      }
    }
    if (!Sampled(tick)) return {};
    rng_.Shuffle(rejected);
    for (int i = 0; i < kNonCandidateSamples && i < static_cast<int>(rejected.size()); ++i) {
      const auto [s, q] = rejected[static_cast<size_t>(i)];
      ++result->non_candidates_checked;
      if (gsps::IsSubgraphIsomorphic(w_.queries[static_cast<size_t>(q)], graphs_[static_cast<size_t>(s)].ToGraph())) {
        return Format("false negative: query %lld embeds in stream %lld", q, s);
      }
    }
    rng_.Shuffle(candidates);
    for (int i = 0; i < kCandidateSamples && i < static_cast<int>(candidates.size()); ++i) {
      const auto [s, q] = candidates[static_cast<size_t>(i)];
      ++result->verified_candidates;
      if (gsps::IsSubgraphIsomorphic(w_.queries[static_cast<size_t>(q)], graphs_[static_cast<size_t>(s)].ToGraph())) {
        ++result->true_matches;
      }
    }
    return {};
  }

 private:
  const Workload& w_;
  int depth_;
  Rng rng_;
  std::vector<RefGraph> graphs_;
  std::vector<RefQuery> queries_;
  std::vector<std::vector<int>> previous_;
  std::vector<uint8_t> sampled_;
};

// Every check of one round-0 tick (tick -1 is the start state).
std::string CheckRoundZeroTick(int tick, const TickOutputs& out, const QuerySlots& slots,
                               Checker& checker, ReplayResult* result) {
  std::string error = CheckNoRetired(out, slots);
  if (error.empty()) error = checker.CheckTransitions(out);
  if (error.empty()) error = checker.CheckCandidates(tick, out, slots, result);
  if (!error.empty()) error = Format("tick %lld of round 0: ", tick, 0) + error;
  return error;
}

template <typename Engine>
void ApplyChurn(Engine& engine, const Workload& w, int tick, QuerySlots& slots,
                EngineTrace* trace) {
  if (w.churn.empty()) return;
  const ChurnStep& step = w.churn[static_cast<size_t>(tick)];
  if (step.retire.empty() && step.readd.empty()) return;
  const double a = Now();
  for (const int q : step.retire) {
    const int e = slots.query_to_engine[static_cast<size_t>(q)];
    engine.RemoveQueryDynamic(e);
    slots.engine_to_query[static_cast<size_t>(e)] = -1;
    slots.query_to_engine[static_cast<size_t>(q)] = -1;
  }
  for (const int q : step.readd) {
    const int e = engine.AddQueryDynamic(w.queries[static_cast<size_t>(q)]);
    if (e >= static_cast<int>(slots.engine_to_query.size())) {
      slots.engine_to_query.resize(static_cast<size_t>(e) + 1, -1);
    }
    slots.engine_to_query[static_cast<size_t>(e)] = q;
    slots.query_to_engine[static_cast<size_t>(q)] = e;
  }
  if (trace != nullptr) {
    trace->churn_s += Now() - a;
    trace->churn_ops += static_cast<int64_t>(step.retire.size() + step.readd.size());
  }
}

// Checks a timed tick against round 0's fingerprint.
std::string CheckTimedTick(int64_t g, int tick, const TickOutputs& out, const QuerySlots& slots,
                           const std::vector<uint64_t>& expected) {
  std::string error = CheckNoRetired(out, slots);
  if (error.empty() && Fingerprint(out) != expected[static_cast<size_t>(tick)]) {
    error = Format("timed tick %lld (tick %lld of its round) differs from round 0", g, tick);
  }
  return error;
}

ReplayResult RunSequential(const Workload& w, const RunConfig& config, EngineTrace* trace) {
  ReplayResult r;
  const gsps::EngineOptions options;
  const double setup_start = Now();
  gsps::ContinuousQueryEngine engine(options);
  for (const gsps::Graph& q : w.queries) engine.AddQuery(q);
  for (const gsps::Graph& g : w.start) engine.AddStream(g);
  engine.Start();
  r.setup_s = Now() - setup_start;

  const int num_ticks = w.ticks_per_round();
  QuerySlots slots(static_cast<int>(w.queries.size()));
  Checker checker(w, options.nnt_depth, config.seed);
  TickOutputs out(w.num_streams());
  std::vector<uint64_t> expected(static_cast<size_t>(num_ticks));

  // Round 0: warm-up and reference checks, untimed.
  ReadTick(engine, out, nullptr);
  r.error = CheckRoundZeroTick(-1, out, slots, checker, &r);
  for (int k = 0; k < num_ticks && r.error.empty(); ++k) {
    for (int s = 0; s < w.num_streams(); ++s) {
      const gsps::GraphChange& change = w.ticks[static_cast<size_t>(k)][static_cast<size_t>(s)];
      if (!change.empty()) engine.ApplyChange(s, change);
    }
    checker.Apply(k);
    ReadTick(engine, out, nullptr);
    expected[static_cast<size_t>(k)] = Fingerprint(out);
    r.candidate_pairs += CountCandidates(out);
    r.error = CheckRoundZeroTick(k, out, slots, checker, &r);
  }
  if (!r.error.empty()) return r;

  const double start = Now();
  while (r.error.empty()) {
    const double round_start = Now();
    for (int k = 0; k < num_ticks && r.error.empty(); ++k) {
      const double a = Now();
      for (int s = 0; s < w.num_streams(); ++s) {
        const gsps::GraphChange& change = w.ticks[static_cast<size_t>(k)][static_cast<size_t>(s)];
        if (change.empty()) continue;
        if (trace == nullptr) {
          engine.ApplyChange(s, change);
        } else {
          const double b = Now();
          engine.ApplyChange(s, change);
          trace->apply_s += Now() - b;
        }
      }
      ReadTick(engine, out, trace);
      r.tick_ms.push_back((Now() - a) * 1e3);
      r.error = CheckTimedTick(r.ticks, k, out, slots, expected);
      ++r.ticks;
    }
    ++r.rounds;
    r.round_s.push_back(Now() - round_start);
    if (Now() - start >= config.seconds && r.ticks >= config.min_ticks) break;
  }
  r.replay_s = Now() - start;
  r.ops = r.rounds * w.ops_per_round;
  return r;
}

// Pushes one tick: every stream gets its deletions and its insertions as
// two events of the same timestamp, as a producer sending fragments would,
// so the workers' coalescing of same-timestamp fragments has work; a
// stream with no change still gets one empty event, since the engine's
// delivery audit expects every timestamp of every stream.
void PushTick(gsps::PipelinedQueryEngine& engine, const Workload& w, int tick, int32_t timestamp,
              int64_t* pushed_events, double* wait_s) {
  gsps::GraphChange parts[2];
  for (int s = 0; s < w.num_streams(); ++s) {
    parts[0].ops.clear();
    parts[1].ops.clear();
    for (const gsps::EdgeOp& op : w.ticks[static_cast<size_t>(tick)][static_cast<size_t>(s)].ops) {
      parts[op.kind == gsps::EdgeOp::Kind::kDelete ? 0 : 1].ops.push_back(op);
    }
    for (int i = 0; i < 2; ++i) {
      if (parts[i].empty() && (i == 1 || !parts[1].empty())) continue;
      gsps::IngestEvent event;
      event.stream = s;
      event.timestamp = timestamp;
      event.change = parts[i];
      const double a = wait_s != nullptr ? Now() : 0.0;
      if (!engine.Ingest(std::move(event))) return;
      if (wait_s != nullptr) *wait_s += Now() - a;
      ++*pushed_events;
    }
  }
}

ReplayResult RunPipelined(const Workload& w, const RunConfig& config, EngineTrace* trace) {
  ReplayResult r;
  gsps::PipelinedEngineOptions options;
  options.num_threads = w.workers;
  const double setup_start = Now();
  gsps::PipelinedQueryEngine engine(options);
  for (const gsps::Graph& q : w.queries) engine.AddQuery(q);
  for (const gsps::Graph& g : w.start) engine.AddStream(g);
  engine.Start();
  r.setup_s = Now() - setup_start;

  const int num_ticks = w.ticks_per_round();
  QuerySlots slots(static_cast<int>(w.queries.size()));
  Checker checker(w, options.engine.nnt_depth, config.seed);
  TickOutputs out(w.num_streams());
  std::vector<uint64_t> expected(static_cast<size_t>(num_ticks));
  int32_t timestamp = 0;
  int64_t pushed_events = 0;

  // Round 0: warm-up and reference checks, pushed by the main thread, untimed.
  ReadTick(engine, out, nullptr);
  r.error = CheckRoundZeroTick(-1, out, slots, checker, &r);
  for (int k = 0; k < num_ticks && r.error.empty(); ++k) {
    PushTick(engine, w, k, ++timestamp, &pushed_events, nullptr);
    ApplyChurn(engine, w, k, slots, nullptr);
    engine.AdvanceEpoch(timestamp);
    checker.Apply(k);
    ReadTick(engine, out, nullptr);
    expected[static_cast<size_t>(k)] = Fingerprint(out);
    r.candidate_pairs += CountCandidates(out);
    r.error = CheckRoundZeroTick(k, out, slots, checker, &r);
  }
  if (!r.error.empty()) return r;

  // Timed rounds, closed loop like the sequential engine: tick k is pushed
  // as soon as tick k-1 has been read.
  double ingest_wait_s = 0.0;
  const double start = Now();
  while (r.error.empty()) {
    const double round_start = Now();
    for (int k = 0; k < num_ticks && r.error.empty(); ++k) {
      const double tick_start = Now();
      PushTick(engine, w, k, ++timestamp, &pushed_events,
               trace != nullptr ? &ingest_wait_s : nullptr);
      ApplyChurn(engine, w, k, slots, trace);
      if (trace == nullptr) {
        engine.AdvanceEpoch(timestamp);
      } else {
        const double c = Now();
        engine.AdvanceEpoch(timestamp);
        trace->epoch_wait_s += Now() - c;
      }
      ReadTick(engine, out, trace);
      r.tick_ms.push_back((Now() - tick_start) * 1e3);
      r.error = CheckTimedTick(r.ticks, k, out, slots, expected);
      ++r.ticks;
    }
    ++r.rounds;
    r.round_s.push_back(Now() - round_start);
    if (Now() - start >= config.seconds && r.ticks >= config.min_ticks) break;
  }
  r.replay_s = Now() - start;
  engine.Shutdown();
  if (!r.error.empty()) return r;
  r.ops = r.rounds * w.ops_per_round;

  // Pipeline delivery: every pushed event applied, none out of order.
  int64_t applied = 0, violations = 0, max_events = 0;
  gsps::obs::HistogramData lag;
  for (int s = 0; s < engine.num_shards(); ++s) {
    const gsps::PipelinedQueryEngine::LaneReport lane = engine.ReportLane(s);
    applied += lane.applied_events;
    violations += lane.order_violations;
    max_events = std::max(max_events, lane.applied_events);
    lag.MergeFrom(lane.watermark_lag_micros);
    if (trace != nullptr) {
      trace->coalesced_events += lane.coalesced_events;
      trace->lane_depth_max = std::max(trace->lane_depth_max, lane.lane.depth_high_water);
    }
  }
  if (applied != pushed_events || violations != 0) {
    r.error = Format("pipeline delivery: %lld events pushed, %lld applied, %lld order violations",
                     pushed_events, applied, violations);
    return r;
  }
  if (trace != nullptr) {
    trace->ingest_wait_s = ingest_wait_s;
    trace->apply_s = ingest_wait_s + trace->epoch_wait_s;
    trace->watermark_lag_p50_us = gsps::obs::HistogramQuantile(lag, 0.5);
    trace->shard_ops_imbalance = static_cast<double>(max_events) * engine.num_shards() /
                                 static_cast<double>(std::max<int64_t>(applied, 1));
  }
  return r;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintRunSummary(const ReplayResult& r) {
  std::printf("checks: %lld ticks against the reference, %lld non-candidates "
              "without embedding, %lld of %lld sampled candidates embed\n",
              static_cast<long long>(r.checked_ticks),
              static_cast<long long>(r.non_candidates_checked),
              static_cast<long long>(r.true_matches),
              static_cast<long long>(r.verified_candidates));
  std::printf("timed: %d rounds, %lld ticks, %lld edge ops in %.3f s; round_s "
              "p25 %.4f p50 %.4f p75 %.4f\n",
              r.rounds, static_cast<long long>(r.ticks), static_cast<long long>(r.ops),
              r.replay_s, Quantile(r.round_s, 0.25), Quantile(r.round_s, 0.5),
              Quantile(r.round_s, 0.75));
}

ReplayResult RunReplay(const Workload& workload, const RunConfig& config, EngineTrace* trace) {
  ReplayResult r = workload.pipelined ? RunPipelined(workload, config, trace)
                                      : RunSequential(workload, config, trace);
  if (r.error.empty() && r.true_matches == 0) {
    r.error = Format("real matches: none of %lld verified candidates embeds (%lld checked ticks)",
                     r.verified_candidates, r.checked_ticks);
  }
  return r;
}

}  // namespace perfbench
