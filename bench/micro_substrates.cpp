// Google-benchmark microbenchmarks for the substrates: generator throughput,
// BFS, k-core decomposition, transition-matrix application, the Lanczos
// SLEM and random-route following.
#include <benchmark/benchmark.h>

#include <map>

#include "centrality/centrality.hpp"
#include "community/community.hpp"
#include "cores/kcore.hpp"
#include "expansion/expansion_profile.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "graph/traversal.hpp"
#include "markov/spectral.hpp"
#include "markov/transition.hpp"
#include "markov/walker.hpp"
#include "sybil/gatekeeper.hpp"

namespace {

using namespace sntrust;

const Graph& shared_graph(std::int64_t n) {
  static std::map<std::int64_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache
             .emplace(n, largest_component(
                             barabasi_albert(static_cast<VertexId>(n), 5, 42))
                             .graph)
             .first;
  }
  return it->second;
}

void BM_GenerateBarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(barabasi_albert(n, 5, 42));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GenerateBarabasiAlbert)->Arg(1000)->Arg(10000);

void BM_GeneratePlantedPartition(benchmark::State& state) {
  const auto n = static_cast<VertexId>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        planted_partition(n, 10, 40.0 / n * 10, 4.0 / n, 42));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GeneratePlantedPartition)->Arg(1000)->Arg(10000);

void BM_Bfs(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  BfsRunner runner{g};
  VertexId source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run(source));
    source = (source + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Bfs)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_CoreDecomposition(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(core_decomposition(g));
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CoreDecomposition)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TransitionStep(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  Distribution p = dirac(g.num_vertices(), 0);
  Distribution out(g.num_vertices());
  for (auto _ : state) {
    step_distribution(g, p, out);
    p.swap(out);
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_TransitionStep)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_RandomWalk(benchmark::State& state) {
  const Graph& g = shared_graph(10000);
  RandomWalker walker{g, 7};
  const auto length = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(walker.walk_endpoint(0, length));
  state.SetItemsProcessed(state.iterations() * length);
}
BENCHMARK(BM_RandomWalk)->Arg(10)->Arg(100)->Arg(1000);

void BM_HashedRouteTail(benchmark::State& state) {
  const Graph& g = shared_graph(10000);
  const HashedRoutes routes{g, 11};
  std::uint32_t instance = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(routes.route_tail(0, 0, 15, instance));
    ++instance;
  }
  state.SetItemsProcessed(state.iterations() * 15);
}
BENCHMARK(BM_HashedRouteTail);

void BM_Slem(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(second_largest_eigenvalue(g));
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Slem)->Arg(1000)->Arg(10000);

void BM_Louvain(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(louvain(g));
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Louvain)->Arg(1000)->Arg(10000);

void BM_BetweennessSampled(benchmark::State& state) {
  const Graph& g = shared_graph(10000);
  CentralityOptions options;
  options.num_sources = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(betweenness_centrality(g, options));
  state.SetItemsProcessed(state.iterations() * options.num_sources *
                          g.num_edges());
}
BENCHMARK(BM_BetweennessSampled)->Arg(16)->Arg(64);

void BM_TicketDistribution(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        distribute_tickets(g, 0, g.num_vertices()));
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TicketDistribution)->Arg(1000)->Arg(10000);

void BM_ExpansionSweep(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  ExpansionOptions options;
  options.num_sources = 100;
  for (auto _ : state)
    benchmark::DoNotOptimize(measure_expansion(g, options));
  state.SetItemsProcessed(state.iterations() * 100 * g.num_edges());
}
BENCHMARK(BM_ExpansionSweep)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
