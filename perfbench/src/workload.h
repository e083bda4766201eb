// Seeded workload generator of the stream-monitor benchmark.
//
// The generator lives with the benchmark, not in the library, so a change
// to the program's own generators (src/gsps/gen) cannot change what is
// measured. It owns its random number generator for the same reason.
//
// A workload is one round of timestamps ("ticks") over a fixed set of
// streams. The last ticks of every round return each stream to its start
// graph, and every churn op of a round is undone within it, so the engine
// can replay the round any number of times and must give the same outputs
// each time: a run is a whole number of rounds.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gsps/graph/graph.h"
#include "gsps/graph/graph_change.h"

namespace perfbench {

// xoshiro256** seeded through splitmix64: small, fast, and fixed here so
// the inputs of a seed never change with the standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  bool Coin(double p) { return Uniform() < p; }

  // A value in [0, n) with P(k) proportional to 1 / (k + 1)^s.
  int Zipf(int n, double s) {
    double norm = 0.0;
    for (int k = 1; k <= n; ++k) norm += 1.0 / std::pow(k, s);
    const double target = Uniform() * norm;
    double acc = 0.0;
    for (int k = 1; k <= n; ++k) {
      acc += 1.0 / std::pow(k, s);
      if (target <= acc) return k - 1;
    }
    return n - 1;
  }

  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<size_t>(Below(static_cast<int>(i)))]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

// Query churn scheduled at one tick: queries (indices into
// Workload::queries) to retire, then queries to register again.
struct ChurnStep {
  std::vector<int> retire;
  std::vector<int> readd;
};

struct Workload {
  std::string name;
  // ContinuousQueryEngine, or PipelinedQueryEngine with `workers` shard
  // workers when `pipelined`.
  bool pipelined = false;
  int workers = 0;

  std::vector<gsps::Graph> queries;
  std::vector<gsps::Graph> start;  // Per stream: its timestamp-0 graph.
  // ticks[k][s]: the change of stream s at tick k of a round (possibly
  // empty). The last ticks return every stream to its start graph.
  std::vector<std::vector<gsps::GraphChange>> ticks;
  // churn[k]: churn at tick k; empty vector when the workload has none.
  std::vector<ChurnStep> churn;

  int64_t ops_per_round = 0;
  int64_t churn_ops_per_round = 0;

  int num_streams() const { return static_cast<int>(start.size()); }
  int ticks_per_round() const { return static_cast<int>(ticks.size()); }
};

// Builds workload `name` from `seed`; the same pair always gives the same
// inputs. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// One line per property of the generated inputs, for the run log.
std::string DescribeWorkload(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
