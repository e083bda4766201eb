#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// One stream as a fixed vertex set and a fixed set of candidate vertex
// pairs, each an independent two-state coin-flip process (the paper's
// §V.B evolution): an absent pair appears with probability `appear`, a
// present one disappears with probability `disappear`.
struct StreamModel {
  std::vector<int> labels;
  std::vector<std::pair<int, int>> pairs;
  std::vector<double> appear;
  std::vector<double> disappear;
  // The stream changes only at ticks k with k % period == phase.
  int period = 1;
  int phase = 0;
  // Every burst_every-th change of the stream is a burst: each pair flips
  // with burst_factor times its usual probability (at most 1). Bursts are
  // input the monitor must absorb, and they put the p99 tick latency
  // inside their own population, where the input sets it, rather than
  // among the few ticks a host stall delays.
  int burst_every = 20;
  double burst_factor = 4.0;
};

// `count` distinct random pairs over `n` vertices, each vertex in about the
// same number of pairs.
std::vector<std::pair<int, int>> RandomPairs(int n, int count, Rng& rng) {
  std::vector<std::pair<int, int>> pairs;
  std::vector<uint8_t> used(static_cast<size_t>(n) * static_cast<size_t>(n), 0);
  std::vector<int> order;
  while (static_cast<int>(pairs.size()) < count) {
    if (order.size() < 2) {
      order.resize(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
      rng.Shuffle(order);
    }
    const int a = order.back();
    order.pop_back();
    const int b = order.back();
    order.pop_back();
    const int u = std::min(a, b), v = std::max(a, b);
    uint8_t& slot = used[static_cast<size_t>(u) * static_cast<size_t>(n) +
                         static_cast<size_t>(v)];
    if (slot != 0) continue;
    slot = 1;
    pairs.emplace_back(u, v);
  }
  return pairs;
}

gsps::Graph MakeGraph(const std::vector<int>& labels,
                      const std::vector<std::pair<int, int>>& edges) {
  gsps::Graph graph;
  for (const int label : labels) graph.AddVertex(label);
  for (const auto& [u, v] : edges) graph.AddEdge(u, v, 0);
  return graph;
}

// A connected query of `num_edges` edges grown from a random edge of the
// snapshot (labels + present edges), or an empty graph when the snapshot's
// component is too small. Extracted queries match their snapshot, so true
// matches occur.
gsps::Graph ExtractQuery(const std::vector<int>& labels,
                         const std::vector<std::pair<int, int>>& edges,
                         int num_edges, Rng& rng) {
  if (edges.empty()) return {};
  std::vector<std::pair<int, int>> chosen;
  std::vector<int> vertices;
  const auto has_vertex = [&](int x) {
    return std::find(vertices.begin(), vertices.end(), x) != vertices.end();
  };
  const auto& first = edges[static_cast<size_t>(rng.Below(static_cast<int>(edges.size())))];
  chosen.push_back(first);
  vertices = {first.first, first.second};
  while (static_cast<int>(chosen.size()) < num_edges) {
    std::vector<const std::pair<int, int>*> frontier;
    for (const auto& e : edges) {
      if (!has_vertex(e.first) && !has_vertex(e.second)) continue;
      if (std::find(chosen.begin(), chosen.end(), e) != chosen.end()) continue;
      frontier.push_back(&e);
    }
    if (frontier.empty()) return {};
    const auto& e = *frontier[static_cast<size_t>(rng.Below(static_cast<int>(frontier.size())))];
    chosen.push_back(e);
    if (!has_vertex(e.first)) vertices.push_back(e.first);
    if (!has_vertex(e.second)) vertices.push_back(e.second);
  }
  std::vector<int> query_labels;
  for (const int x : vertices) query_labels.push_back(labels[static_cast<size_t>(x)]);
  std::vector<std::pair<int, int>> query_edges;
  for (const auto& [u, v] : chosen) {
    const int a = static_cast<int>(std::find(vertices.begin(), vertices.end(), u) - vertices.begin());
    const int b = static_cast<int>(std::find(vertices.begin(), vertices.end(), v) - vertices.begin());
    query_edges.emplace_back(a, b);
  }
  return MakeGraph(query_labels, query_edges);
}

// A random connected graph of `num_edges` edges over `num_labels` labels.
gsps::Graph RandomQuery(int num_edges, int num_labels, Rng& rng) {
  std::vector<int> labels = {rng.Below(num_labels)};
  std::vector<std::pair<int, int>> edges;
  while (static_cast<int>(edges.size()) < num_edges) {
    const int n = static_cast<int>(labels.size());
    if (n < 3 || rng.Coin(0.6)) {
      labels.push_back(rng.Below(num_labels));
      edges.emplace_back(rng.Below(n), n);
      continue;
    }
    int a = rng.Below(n), b = rng.Below(n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (std::find(edges.begin(), edges.end(), std::make_pair(a, b)) != edges.end()) continue;
    edges.emplace_back(a, b);
  }
  return MakeGraph(labels, edges);
}

// Snapshot of one stream at one tick, kept for query extraction.
struct Snapshot {
  int stream = 0;
  std::vector<std::pair<int, int>> edges;
};

// Evolves every model for `num_ticks` ticks from a stationary start, then
// returns every stream to its start graph over the following ticks: each
// pair still away from its start state flips back at a uniformly chosen
// one of them. There are as many return ticks as keep their mean op count
// at the evolution's, so the way back adds no outlier tick to the latency
// tail. Fills the workload's start graphs and ticks, and returns the
// snapshots taken at `snapshot_ticks` (per stream).
std::vector<Snapshot> Evolve(const std::vector<StreamModel>& models,
                             int num_ticks, const std::vector<int>& snapshot_ticks,
                             Rng& rng, Workload* w) {
  std::vector<Snapshot> snapshots;
  const size_t num_streams = models.size();
  w->ticks.assign(static_cast<size_t>(num_ticks),
                  std::vector<gsps::GraphChange>(num_streams));
  w->start.clear();
  w->ops_per_round = 0;
  std::vector<std::vector<uint8_t>> present(num_streams), initial(num_streams);
  const auto op = [&](size_t s, size_t p, bool insert) {
    const StreamModel& m = models[s];
    const auto [u, v] = m.pairs[p];
    return insert ? gsps::EdgeOp::Insert(u, v, 0, m.labels[static_cast<size_t>(u)],
                                         m.labels[static_cast<size_t>(v)])
                  : gsps::EdgeOp::Delete(u, v);
  };
  for (size_t s = 0; s < num_streams; ++s) {
    const StreamModel& m = models[s];
    const size_t num_pairs = m.pairs.size();
    std::vector<uint8_t>& on = present[s];
    on.assign(num_pairs, 0);
    std::vector<std::pair<int, int>> edges;
    for (size_t p = 0; p < num_pairs; ++p) {
      on[p] = rng.Coin(m.appear[p] / (m.appear[p] + m.disappear[p])) ? 1 : 0;
      if (on[p] != 0) edges.push_back(m.pairs[p]);
    }
    initial[s] = on;
    w->start.push_back(MakeGraph(m.labels, edges));
    for (int k = 0; k < num_ticks; ++k) {
      gsps::GraphChange& change = w->ticks[static_cast<size_t>(k)][s];
      const bool burst = (k / m.period) % m.burst_every == m.burst_every - 1;
      for (size_t p = 0; p < num_pairs && k % m.period == m.phase; ++p) {
        const double flip = on[p] != 0 ? m.disappear[p] : m.appear[p];
        if (!rng.Coin(burst ? std::min(1.0, m.burst_factor * flip) : flip)) continue;
        on[p] ^= 1;
        change.ops.push_back(op(s, p, on[p] != 0));
      }
      w->ops_per_round += static_cast<int64_t>(change.ops.size());
      if (std::find(snapshot_ticks.begin(), snapshot_ticks.end(), k) != snapshot_ticks.end()) {
        Snapshot snap;
        snap.stream = static_cast<int>(s);
        for (size_t p = 0; p < num_pairs; ++p) {
          if (on[p] != 0) snap.edges.push_back(m.pairs[p]);
        }
        snapshots.push_back(std::move(snap));
      }
    }
  }
  int64_t away = 0;
  for (size_t s = 0; s < num_streams; ++s) {
    for (size_t p = 0; p < present[s].size(); ++p) away += present[s][p] != initial[s][p];
  }
  const int64_t per_tick = std::max<int64_t>(1, w->ops_per_round / num_ticks);
  const int return_ticks = static_cast<int>(std::max<int64_t>(1, (away + per_tick - 1) / per_tick));
  for (int r = 0; r < return_ticks; ++r) {
    w->ticks.emplace_back(num_streams);
    for (size_t s = 0; s < num_streams; ++s) {
      gsps::GraphChange& change = w->ticks.back()[s];
      for (size_t p = 0; p < present[s].size(); ++p) {
        if (present[s][p] == initial[s][p] || !rng.Coin(1.0 / (return_ticks - r))) continue;
        present[s][p] = initial[s][p];
        change.ops.push_back(op(s, p, present[s][p] != 0));
      }
      w->ops_per_round += static_cast<int64_t>(change.ops.size());
    }
  }
  return snapshots;
}

// Adds `count` queries extracted from snapshots, stratified so that the
// query mix varies little between seeds: query i comes from stream
// i % streams (at a random snapshot tick) and has min + i % (max - min + 1)
// edges.
void ExtractQueries(const std::vector<StreamModel>& models,
                    const std::vector<Snapshot>& snapshots, int count,
                    int min_edges, int max_edges, Rng& rng, Workload* w) {
  std::vector<std::vector<const Snapshot*>> by_stream(models.size());
  for (const Snapshot& snap : snapshots) by_stream[static_cast<size_t>(snap.stream)].push_back(&snap);
  int added = 0;
  for (int i = 0; added < count; ++i) {
    const auto& choices = by_stream[static_cast<size_t>(i) % models.size()];
    if (choices.empty()) continue;
    const Snapshot& snap = *choices[static_cast<size_t>(rng.Below(static_cast<int>(choices.size())))];
    const int edges = min_edges + added % (max_edges - min_edges + 1);
    gsps::Graph query = ExtractQuery(models[static_cast<size_t>(snap.stream)].labels,
                                     snap.edges, edges, rng);
    if (query.NumEdges() == 0) continue;
    w->queries.push_back(std::move(query));
    ++added;
  }
}

std::vector<int> SpreadTicks(int num_ticks, int count) {
  std::vector<int> ticks;
  for (int i = 0; i < count; ++i) ticks.push_back((2 * i + 1) * num_ticks / (2 * count));
  return ticks;
}

// dense-nnt: coin-flip streams of the paper's dense §V.B setting (4
// uniform labels, appear 0.2, disappear 0.15) and a handful of queries, so
// NNT maintenance dominates and the join stays light. 36 vertices and 252
// pairs are those of a §V.B stream derived from a 24-vertex, 35-edge base
// graph under the repository's dense calibration (7.2 candidate pairs per
// base edge, DESIGN.md). Each stream changes at every fourth tick, so
// each tick touches two streams while each stream still mixes fast: the
// run averages over many graph states, which keeps the cost steady across
// seeds.
void MakeDenseNnt(uint64_t seed, Workload* w) {
  constexpr int kStreams = 8, kVertices = 36, kLabels = 4, kTicks = 300, kPeriod = 4;
  constexpr int kPairsPerStream = 252;  // Mean degree ~8 at stationarity.
  Rng rng(seed);
  std::vector<StreamModel> models(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    StreamModel& m = models[static_cast<size_t>(s)];
    for (int v = 0; v < kVertices; ++v) m.labels.push_back(rng.Below(kLabels));
    m.pairs = RandomPairs(kVertices, kPairsPerStream, rng);
    m.appear.assign(m.pairs.size(), 0.2);
    m.disappear.assign(m.pairs.size(), 0.15);
    m.period = kPeriod;
    m.phase = s % kPeriod;
  }
  const std::vector<Snapshot> snaps = Evolve(models, kTicks, SpreadTicks(kTicks, 4), rng, w);
  ExtractQueries(models, snaps, 5, 4, 7, rng, w);
  for (int i = 0; i < 3; ++i) w->queries.push_back(RandomQuery(4 + i, kLabels, rng));
}

// many-queries: the repository's Reality-Mining-like proximity model
// (src/gsps/gen/reality_like.h, its defaults copied here so that a change
// there cannot change what is measured): one population of 97 users with
// Zipf(0.5) labels over 10 and a uniform group among 8, shared by the 25
// streams; every intra-group pair and 8% of the inter-group pairs may
// meet; intra-group contacts appear with 0.08 and disappear with 0.3,
// inter-group ones 0.002 and 0.6. Queries of 4..9 edges are extracted from
// stream snapshots. The model advances every stream at every timestamp;
// here each tick advances 5 of the 25 (stream s at ticks k = s mod 5), so
// that a tick costs a fifth of the model's timestamp and a run holds the
// 1000 ticks its p99 needs.
void MakeManyQueries(uint64_t seed, Workload* w) {
  constexpr int kStreams = 25, kUsers = 97, kLabels = 10, kGroups = 8;
  constexpr int kTicks = 250, kPeriod = 5, kQueries = 400;
  constexpr double kLabelSkew = 0.5, kInterPairs = 0.08;
  constexpr double kIntraAppear = 0.08, kIntraDisappear = 0.3;
  constexpr double kInterAppear = 0.002, kInterDisappear = 0.6;
  // The population is the dataset's one set of people, the same for every
  // seed: drawn from the model's default seed (11), not from `seed`. Drawn
  // per seed, its label and group mix alone spread candidate_pairs by 0.37
  // of the median over ten seeds.
  Rng people(11);
  StreamModel population;
  std::vector<int> group(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    population.labels.push_back(people.Zipf(kLabels, kLabelSkew));
    group[static_cast<size_t>(u)] = people.Below(kGroups);
  }
  for (int u = 0; u < kUsers; ++u) {
    for (int v = u + 1; v < kUsers; ++v) {
      const bool intra = group[static_cast<size_t>(u)] == group[static_cast<size_t>(v)];
      if (!intra && !people.Coin(kInterPairs)) continue;
      population.pairs.emplace_back(u, v);
      population.appear.push_back(intra ? kIntraAppear : kInterAppear);
      population.disappear.push_back(intra ? kIntraDisappear : kInterDisappear);
    }
  }
  std::vector<StreamModel> models(kStreams, population);
  for (int s = 0; s < kStreams; ++s) {
    models[static_cast<size_t>(s)].period = kPeriod;
    models[static_cast<size_t>(s)].phase = s % kPeriod;
  }
  Rng rng(seed);
  const std::vector<Snapshot> snaps = Evolve(models, kTicks, SpreadTicks(kTicks, 4), rng, w);
  ExtractQueries(models, snaps, kQueries, 4, 9, rng, w);
}

// pipelined-churn: a few hundred small streams of the paper's sparse §V.B
// setting (4 uniform labels, appear 0.1, disappear 0.3), whose vertex
// counts follow a Zipf law of exponent 1.0 (bench/micro_pipeline's skew),
// fed closed loop to the pipelined engine, with queries retired and
// registered again every few ticks. Each stream flips a fixed set of
// 2 x vertices random pairs, the size of the §V.B generator's set (the
// derived graph's edges plus as many random pairs) for a derived graph of
// mean degree 2. Streams of 16..240 vertices give every pushed event
// enough work that the thread wake-ups of a tick stay a small share of
// its latency, which would otherwise follow how fast the host wakes idle
// vCPUs.
//
// A burst here flips every pair of every stream, once in 50 ticks: a tick
// on this engine waits for the router, both workers and the main thread,
// so host stalls delay several per cent of the ticks by as much as the
// bursts of the other workloads cost. At 2% of the ticks, with each one
// several times a stall's length, the bursts hold the p99 at the middle
// of their own population.
void MakePipelinedChurn(uint64_t seed, Workload* w) {
  constexpr int kStreams = 200, kLabels = 4, kTicks = 200, kQueries = 160;
  constexpr int kLargest = 240, kSmallest = 16;
  constexpr double kSkew = 1.0, kAppear = 0.1, kDisappear = 0.3;
  constexpr int kBurstEvery = 50;
  constexpr int kChurnEvery = 4, kChurnGap = 2, kChurnBatch = 1;
  Rng rng(seed);
  std::vector<int> rank(kStreams);
  for (int i = 0; i < kStreams; ++i) rank[static_cast<size_t>(i)] = i + 1;
  rng.Shuffle(rank);
  std::vector<StreamModel> models(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    StreamModel& m = models[static_cast<size_t>(s)];
    const int n = std::max(kSmallest, static_cast<int>(std::lround(
                                          kLargest / std::pow(rank[static_cast<size_t>(s)], kSkew))));
    for (int v = 0; v < n; ++v) m.labels.push_back(rng.Below(kLabels));
    m.pairs = RandomPairs(n, 2 * n, rng);
    m.appear.assign(m.pairs.size(), kAppear);
    m.disappear.assign(m.pairs.size(), kDisappear);
    m.burst_every = kBurstEvery;
    m.burst_factor = 1.0 / std::min(kAppear, kDisappear);  // Every pair flips.
  }
  const std::vector<Snapshot> snaps = Evolve(models, kTicks, SpreadTicks(kTicks, 2), rng, w);
  std::vector<Snapshot> large;  // Extract from streams big enough to hold a query.
  for (const Snapshot& snap : snaps) {
    if (snap.edges.size() >= 12) large.push_back(snap);
  }
  ExtractQueries(models, large, kQueries, 3, 6, rng, w);

  w->pipelined = true;
  w->workers = 2;
  w->churn.assign(w->ticks.size(), ChurnStep{});
  w->churn_ops_per_round = 0;
  for (int k = kChurnEvery / 2; k + kChurnGap < kTicks; k += kChurnEvery) {
    std::vector<int> all(kQueries);
    for (int q = 0; q < kQueries; ++q) all[static_cast<size_t>(q)] = q;
    rng.Shuffle(all);
    ChurnStep& retire = w->churn[static_cast<size_t>(k)];
    retire.retire.assign(all.begin(), all.begin() + kChurnBatch);
    // Registered again in reverse order of retirement.
    ChurnStep& readd = w->churn[static_cast<size_t>(k + kChurnGap)];
    readd.readd.assign(retire.retire.rbegin(), retire.retire.rend());
    w->churn_ops_per_round += 2 * kChurnBatch;
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  *out = Workload{};
  out->name = name;
  if (name == "dense-nnt") {
    MakeDenseNnt(seed, out);
  } else if (name == "many-queries") {
    MakeManyQueries(seed, out);
  } else if (name == "pipelined-churn") {
    MakePipelinedChurn(seed, out);
  } else {
    return false;
  }
  return true;
}

std::string DescribeWorkload(const Workload& w) {
  int64_t vertices = 0, edges = 0, min_v = 1 << 30, max_v = 0;
  for (const gsps::Graph& g : w.start) {
    vertices += g.NumVertices();
    edges += g.NumEdges();
    min_v = std::min<int64_t>(min_v, g.NumVertices());
    max_v = std::max<int64_t>(max_v, g.NumVertices());
  }
  int64_t q_edges = 0;
  int min_q = 1 << 30, max_q = 0;
  for (const gsps::Graph& q : w.queries) {
    q_edges += q.NumEdges();
    min_q = std::min(min_q, q.NumEdges());
    max_q = std::max(max_q, q.NumEdges());
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "workload %s: %d streams (%lld..%lld vertices, %lld vertices and "
                "%lld edges at start), %zu queries of %d..%d edges (mean %.2f), "
                "%d ticks per round, %lld edge ops per round (%.1f per tick), "
                "%lld churn ops per round, %s",
                w.name.c_str(), w.num_streams(), static_cast<long long>(min_v),
                static_cast<long long>(max_v), static_cast<long long>(vertices),
                static_cast<long long>(edges), w.queries.size(), min_q, max_q,
                static_cast<double>(q_edges) / static_cast<double>(w.queries.size()),
                w.ticks_per_round(), static_cast<long long>(w.ops_per_round),
                static_cast<double>(w.ops_per_round) / w.ticks_per_round(),
                static_cast<long long>(w.churn_ops_per_round),
                w.pipelined ? "closed loop on the pipelined engine" : "closed loop on the sequential engine");
  return buf;
}

}  // namespace perfbench
