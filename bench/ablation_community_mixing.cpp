// Ablation A1: community strength vs mixing. Holds n and average degree
// fixed in a planted-partition model and sweeps the cross-community edge
// budget; reports mu, sampled T(eps), max core count and spectral-sweep
// conductance. Quantifies the paper's qualitative claim that the social
// model (community confinement), not size, drives the mixing time.
#include <iostream>

#include "bench_common.hpp"
#include "community/community.hpp"
#include "cores/core_profile.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "markov/spectral.hpp"
#include "report/table.hpp"
#include "util/format.hpp"

int main() {
  using namespace sntrust;
  bench::Section section{"Ablation A1: community strength vs mixing"};

  const auto n = static_cast<VertexId>(4000 * bench_scale());
  Table table{{"cross-degree", "mu", "T(eps=1/n)", "max cores",
               "conductance"}};

  for (const double cross_degree : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    const double size = n / 20.0;
    const double p_in = 12.0 / (size - 1);
    const double p_out = cross_degree / (n - size);
    const Graph g = largest_component(
                        planted_partition(n, 20, p_in, p_out,
                                          bench::kBenchSeed))
                        .graph;

    SlemOptions slem_options;
    slem_options.seed = bench::kBenchSeed;
    const SlemResult slem = second_largest_eigenvalue(g, slem_options);

    MixingOptions mixing_options;
    mixing_options.num_sources = 10;
    mixing_options.max_walk_length = 300;
    mixing_options.seed = bench::kBenchSeed;
    const std::uint32_t t = mixing_time_estimate(
        measure_mixing(g, mixing_options), 1.0 / g.num_vertices());

    std::uint32_t max_cores = 0;
    for (const CoreLevel& level : core_profile(g))
      max_cores = std::max(max_cores, level.num_components);

    const double phi =
        conductance_sweep(g, fiedler_vector(g)).best_conductance;

    table.add_row({fixed(cross_degree, 2),
                   mu_cell(slem.mu, slem.converged),
                   t == 0xFFFFFFFFu ? "> 300" : std::to_string(t),
                   std::to_string(max_cores), fixed(phi, 4)});
    std::cerr << "  cross-degree " << cross_degree << " done\n";
  }

  table.print(std::cout);
  std::cout << "Expected shape: mu and T(eps) fall monotonically as cross-"
               "community edges are added; core count collapses to 1; "
               "conductance rises.\n";
  return 0;
}
