// Traced run of the stream-monitor benchmark: prints the per-layer metrics
// of one workload as the last line of standard output.
//
// Three replays of the same inputs:
//   * the engine replay (replay.cc) untraced, then again with timers around
//     every engine call; the difference is the tracing overhead;
//   * a layer replay that drives the nnt and join layers through their
//     public functions, the way StreamShard's tick path does (NNT
//     maintenance, dirty-root drain, join vertex updates, candidate
//     refresh), and times each call from outside.
// Built apart from perfbench_e2e, so a change to a layer's interface can
// break this run but never the end-to-end one.
//
// Time metrics are per round: a round is a fixed amount of work, so the
// figures compare across runs however many rounds fit in --seconds.
//
// Usage: perfbench_trace --workload <name> --seed <n> --seconds <s>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gsps/engine/stream_shard.h"
#include "gsps/join/dominance.h"
#include "gsps/join/join_strategy.h"
#include "gsps/nnt/dimension.h"
#include "gsps/nnt/nnt_set.h"
#include "replay.h"
#include "report.h"
#include "workload.h"

namespace {

using perfbench::Now;

// Rounds of the layer replay after its warm-up round.
constexpr int kLayerRounds = 2;

struct LayerTrace {
  double nnt_build_s = 0.0;
  double join_build_s = 0.0;
  double nnt_maintain_s = 0.0;
  double nnt_drain_s = 0.0;
  double join_maintain_s = 0.0;
  double join_refresh_s = 0.0;
  int64_t ops = 0;
  int64_t nodes_changed = 0;
  int64_t dirty_roots = 0;
  int64_t vertex_updates = 0;
  int64_t candidate_pairs = 0;  // Per round.
  int64_t tree_nodes = 0;
  double state_mb = 0.0;
};

class LayerReplay {
 public:
  explicit LayerReplay(const perfbench::Workload& w) : w_(w) {}

  LayerTrace Run() {
    Setup();
    for (int round = 0; round <= kLayerRounds; ++round) {
      // Round 0 warms the layers; its figures are dropped.
      measuring_ = round > 0;
      int64_t candidates = 0;
      for (int k = 0; k < w_.ticks_per_round(); ++k) candidates += Tick(k);
      if (round == 0) t_.candidate_pairs = candidates;
    }
    for (const auto& nnts : nnts_) {
      t_.tree_nodes += nnts->TotalTreeNodes();
      t_.state_mb += static_cast<double>(nnts->StorageBytes()) / (1024.0 * 1024.0);
    }
    return t_;
  }

 private:
  gsps::QueryVectors Vectors(const gsps::Graph& query) {
    gsps::NntSet nnts(options_.nnt_depth, &dims_);
    nnts.Build(query);
    return gsps::BuildQueryVectors(nnts);
  }

  void Setup() {
    const double a = Now();
    std::vector<gsps::QueryVectors> vectors;
    for (const gsps::Graph& q : w_.queries) vectors.push_back(Vectors(q));
    graphs_ = w_.start;
    for (const gsps::Graph& g : graphs_) {
      nnts_.push_back(std::make_unique<gsps::NntSet>(options_.nnt_depth, &dims_));
      nnts_.back()->Build(g);
    }
    const double b = Now();
    strategy_ = gsps::MakeJoinStrategy(options_.join_kind);
    strategy_->SetQueries(std::move(vectors));
    strategy_->SetNumStreams(w_.num_streams());
    ReplayAllVertices();
    t_.nnt_build_s = b - a;
    t_.join_build_s = Now() - b;
    for (size_t q = 0; q < w_.queries.size(); ++q) query_to_local_.push_back(static_cast<int>(q));
  }

  void ReplayAllVertices() {
    for (int s = 0; s < w_.num_streams(); ++s) {
      gsps::NntSet& nnts = *nnts_[static_cast<size_t>(s)];
      nnts.TakeDirtyRoots(&dirty_);
      for (const gsps::VertexId root : nnts.Roots()) {
        strategy_->UpdateStreamVertex(s, root, nnts.NpvOf(root));
      }
    }
  }

  // Query churn at the join layer, timed as join maintenance.
  void Churn(int k) {
    if (w_.churn.empty()) return;
    const perfbench::ChurnStep& step = w_.churn[static_cast<size_t>(k)];
    if (step.retire.empty() && step.readd.empty()) return;
    const double a = Now();
    for (const int q : step.retire) strategy_->RemoveQuery(query_to_local_[static_cast<size_t>(q)]);
    for (const int q : step.readd) {
      bool grew_dims = false;
      query_to_local_[static_cast<size_t>(q)] =
          strategy_->AddQuery(Vectors(w_.queries[static_cast<size_t>(q)]), &grew_dims);
      if (grew_dims) ReplayAllVertices();
    }
    if (measuring_) t_.join_maintain_s += Now() - a;
  }

  int64_t Tick(int k) {
    Churn(k);
    for (int s = 0; s < w_.num_streams(); ++s) {
      gsps::Graph& graph = graphs_[static_cast<size_t>(s)];
      gsps::NntSet& nnts = *nnts_[static_cast<size_t>(s)];
      const gsps::GraphChange& change = w_.ticks[static_cast<size_t>(k)][static_cast<size_t>(s)];
      if (change.empty()) continue;
      for (const gsps::EdgeOp& op : change.ops) {
        if (op.kind != gsps::EdgeOp::Kind::kDelete || !graph.HasEdge(op.u, op.v)) continue;
        const int64_t before = measuring_ ? nnts.TotalTreeNodes() : 0;
        const double a = Now();
        nnts.DeleteEdge(op.u, op.v);
        Account(a, before, nnts);
        graph.RemoveEdge(op.u, op.v);
      }
      for (const gsps::EdgeOp& op : change.ops) {
        if (op.kind != gsps::EdgeOp::Kind::kInsert) continue;
        if (!graph.EnsureVertex(op.u, op.u_label) || !graph.EnsureVertex(op.v, op.v_label) ||
            !graph.AddEdge(op.u, op.v, op.edge_label)) {
          continue;
        }
        const int64_t before = measuring_ ? nnts.TotalTreeNodes() : 0;
        const double a = Now();
        nnts.InsertEdge(graph, op.u, op.v);
        Account(a, before, nnts);
      }
      double drain = 0.0, join = 0.0;
      double a = Now();
      nnts.TakeDirtyRoots(&dirty_);
      for (const gsps::VertexId root : dirty_) {
        const bool live = nnts.TreeOf(root) != nullptr;
        const gsps::Npv* npv = live ? &nnts.NpvOf(root) : nullptr;
        const double b = Now();
        if (live) {
          strategy_->UpdateStreamVertex(s, root, *npv);
        } else {
          strategy_->RemoveStreamVertex(s, root);
        }
        const double c = Now();
        drain += b - a;
        join += c - b;
        a = c;
      }
      drain += Now() - a;
      if (measuring_) {
        t_.nnt_drain_s += drain;
        t_.join_maintain_s += join;
        t_.dirty_roots += static_cast<int64_t>(dirty_.size());
        t_.vertex_updates += static_cast<int64_t>(dirty_.size());
      }
    }
    int64_t candidates = 0;
    const double a = Now();
    for (int s = 0; s < w_.num_streams(); ++s) {
      strategy_->CandidatesForStream(s, &candidates_);
      candidates += static_cast<int64_t>(candidates_.size());
    }
    if (measuring_) t_.join_refresh_s += Now() - a;
    return candidates;
  }

  void Account(double start, int64_t nodes_before, const gsps::NntSet& nnts) {
    if (!measuring_) return;
    t_.nnt_maintain_s += Now() - start;
    ++t_.ops;
    t_.nodes_changed += std::llabs(nnts.TotalTreeNodes() - nodes_before);
  }

  const perfbench::Workload& w_;
  const gsps::EngineOptions options_;
  gsps::DimensionTable dims_;
  std::vector<gsps::Graph> graphs_;
  std::vector<std::unique_ptr<gsps::NntSet>> nnts_;
  std::unique_ptr<gsps::JoinStrategy> strategy_;
  std::vector<int> query_to_local_;
  std::vector<gsps::VertexId> dirty_;
  std::vector<int> candidates_;
  bool measuring_ = false;
  LayerTrace t_;
};

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench_trace: %s\n", error.c_str());
    return 2;
  }
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(args.workload, args.seed, &workload)) {
    std::fprintf(stderr, "perfbench_trace: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("%s\n", perfbench::DescribeWorkload(workload).c_str());

  // The same replay untraced, then traced, each for half of --seconds: the
  // difference of their median tick latencies is the tracing overhead.
  perfbench::RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds / 2;
  const perfbench::ReplayResult plain = perfbench::RunReplay(workload, config, nullptr);
  perfbench::EngineTrace e;
  const perfbench::ReplayResult r =
      plain.error.empty() ? perfbench::RunReplay(workload, config, &e) : plain;
  if (r.error.empty()) {
    const LayerTrace l = LayerReplay(workload).Run();
    if (l.candidate_pairs != r.candidate_pairs) {
      error = "layer replay reports " + std::to_string(l.candidate_pairs) +
              " candidate pairs per round, the engine " + std::to_string(r.candidate_pairs);
    } else {
      perfbench::PrintRunSummary(r);
      const double plain_round = perfbench::Quantile(plain.round_s, 0.5);
      const double traced_round = perfbench::Quantile(r.round_s, 0.5);
      const double plain_tick = perfbench::Quantile(plain.tick_ms, 0.5);
      const double traced_tick = perfbench::Quantile(r.tick_ms, 0.5);
      std::printf("tracing overhead: median round %.4f s traced, %.4f s untraced (%+.4f s); "
                  "median tick %.4f ms traced, %.4f ms untraced (%+.4f ms)\n",
                  traced_round, plain_round, traced_round - plain_round, traced_tick, plain_tick,
                  traced_tick - plain_tick);
      const double layers = l.nnt_maintain_s + l.nnt_drain_s + l.join_maintain_s + l.join_refresh_s;
      std::printf("layer shares per round: nnt.maintain %.1f%%, nnt.drain %.1f%%, "
                  "join.maintain %.1f%%, join.refresh %.1f%% of %.4f s\n",
                  100 * l.nnt_maintain_s / layers, 100 * l.nnt_drain_s / layers,
                  100 * l.join_maintain_s / layers, 100 * l.join_refresh_s / layers,
                  layers / kLayerRounds);
      const double rounds = r.rounds;
      perfbench::Report report;
      report.Add("nnt.build_s", l.nnt_build_s, "s");
      report.Add("nnt.maintain_s", l.nnt_maintain_s / kLayerRounds, "s/round");
      report.Add("nnt.us_per_op", 1e6 * l.nnt_maintain_s / static_cast<double>(l.ops), "us");
      report.Add("nnt.tree_nodes_changed",
                 static_cast<double>(l.nodes_changed) / static_cast<double>(l.ops), "nodes/op");
      report.Add("nnt.state_mb", l.state_mb, "MB");
      report.Add("nnt.tree_nodes", static_cast<double>(l.tree_nodes), "count");
      report.Add("nnt.dirty_roots", static_cast<double>(l.dirty_roots) / kLayerRounds, "count/round");
      report.Add("nnt.drain_s", l.nnt_drain_s / kLayerRounds, "s/round");
      report.Add("join.build_s", l.join_build_s, "s");
      report.Add("join.vertex_updates", static_cast<double>(l.vertex_updates) / kLayerRounds,
                 "count/round");
      report.Add("join.maintain_s", l.join_maintain_s / kLayerRounds, "s/round");
      report.Add("join.refresh_s", l.join_refresh_s / kLayerRounds, "s/round");
      report.Add("join.precision",
                 static_cast<double>(r.true_matches) / static_cast<double>(r.verified_candidates),
                 "ratio");
      report.Add("engine.apply_s", e.apply_s / rounds, "s/round");
      report.Add("engine.candidates_s", e.candidates_s / rounds, "s/round");
      report.Add("engine.observe_s", e.observe_s / rounds, "s/round");
      report.Add("engine.transitions", static_cast<double>(e.transitions) / rounds, "count/round");
      report.Add("engine.churn_ops", static_cast<double>(e.churn_ops) / rounds, "count/round");
      report.Add("engine.churn_s", e.churn_s / rounds, "s/round");
      report.Add("pipeline.ingest_wait_s", e.ingest_wait_s / rounds, "s/round");
      report.Add("pipeline.epoch_wait_s", e.epoch_wait_s / rounds, "s/round");
      report.Add("pipeline.coalesced_events", static_cast<double>(e.coalesced_events) / rounds,
                 "count/round");
      report.Add("pipeline.lane_depth_max", static_cast<double>(e.lane_depth_max), "count");
      report.Add("pipeline.watermark_lag_p50_us", e.watermark_lag_p50_us, "us");
      report.Add("pipeline.shard_ops_imbalance", e.shard_ops_imbalance, "ratio");
      report.Add("trace.overhead_ms", traced_tick - plain_tick, "ms");
      std::printf("%s\n", report.Json(true, plain.ticks + r.ticks, 0).c_str());
      return 0;
    }
  } else {
    error = r.error;
  }
  std::fprintf(stderr, "perfbench_trace: CHECK FAILED on %s seed %llu: %s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), error.c_str());
  // The failed check ends the run: it counts as the one failed operation.
  std::printf("%s\n", perfbench::Report().Json(false, r.ticks > 0 ? r.ticks : 1, 1).c_str());
  return 1;
}
