// The Lanczos SLEM engine against the dense Jacobi oracle: both ends of the
// spectrum and mu to 1e-8 on seeded random, near-bipartite,
// near-disconnected and |lambda_2| ~ |lambda_n| graphs; thread-count
// identity; and the spectra known in closed form.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "markov/dense_spectrum.hpp"
#include "markov/spectral.hpp"
#include "parallel/thread_pool.hpp"
#include "test_graphs.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::petersen_graph;
using testing::star_graph;
using testing::two_cliques;

/// Even cycle C_n (bipartite, lambda_n = -1) plus the chord {0, 2}, which
/// closes a triangle: lambda_n sits just above -1.
Graph even_cycle_with_chord(VertexId n) {
  GraphBuilder b{n};
  for (VertexId v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  b.add_edge(0, 2);
  return b.build();
}

/// K_{a,b} plus one edge inside the a side.
Graph complete_bipartite_plus_edge(VertexId a, VertexId b) {
  GraphBuilder builder{a + b};
  for (VertexId u = 0; u < a; ++u)
    for (VertexId v = 0; v < b; ++v) builder.add_edge(u, a + v);
  builder.add_edge(0, 1);
  return builder.build();
}

void expect_matches_dense(const Graph& g, const std::string& label) {
  SCOPED_TRACE(label);
  const DenseSpectrum dense = dense_spectrum(g);
  const SlemResult slem = second_largest_eigenvalue(g);
  EXPECT_TRUE(slem.converged) << slem.iterations << " iterations";
  EXPECT_NEAR(slem.lambda_2, dense.eigenvalues[1], 1e-8);
  EXPECT_NEAR(slem.lambda_n, dense.eigenvalues.back(), 1e-8);
  EXPECT_NEAR(slem.mu, exact_slem(dense), 1e-8);
}

TEST(SlemOracle, RandomErdosRenyi) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g =
        largest_component(erdos_renyi(40 + 20 * seed, 0.08, seed)).graph;
    expect_matches_dense(g, "erdos_renyi seed " + std::to_string(seed));
  }
}

TEST(SlemOracle, RandomBarabasiAlbert) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = barabasi_albert(50 + 30 * seed, 1 + seed % 3, seed);
    expect_matches_dense(g, "barabasi_albert seed " + std::to_string(seed));
  }
}

TEST(SlemOracle, NearBipartite) {
  for (const VertexId n : {10u, 40u, 120u})
    expect_matches_dense(even_cycle_with_chord(n),
                         "even cycle + chord, n " + std::to_string(n));
  expect_matches_dense(complete_bipartite_plus_edge(5, 7), "K_{5,7} + edge");
  expect_matches_dense(complete_bipartite_plus_edge(20, 30),
                       "K_{20,30} + edge");
  // The bipartite graphs themselves: lambda_n = -1 exactly, mu = 1. On K_2
  // and the star the Krylov space closes (beta = 0) within two steps.
  expect_matches_dense(cycle_graph(16), "C_16");
  expect_matches_dense(path_graph(2), "K_2");
  expect_matches_dense(star_graph(6), "star");
}

TEST(SlemOracle, NearDisconnectedBlockModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g =
        largest_component(planted_partition(200, 2 + seed % 3, 0.2, 0.002,
                                            seed))
            .graph;
    const SlemResult slem = second_largest_eigenvalue(g);
    EXPECT_GT(slem.lambda_2, 0.9) << "seed " << seed;  // a real bottleneck
    expect_matches_dense(g, "planted_partition seed " + std::to_string(seed));
  }
}

TEST(SlemOracle, NearTieOfTheTwoEnds) {
  // A G(n, p) spectrum is close to symmetric about 0; among seeds 1-60,
  // seed 44 puts the two ends closest in modulus (1.3e-5 apart). Power
  // iteration stalls on such a tie; Lanczos resolves each end on its own.
  const Graph g = largest_component(erdos_renyi(150, 0.1, 44)).graph;
  const DenseSpectrum dense = dense_spectrum(g);
  ASSERT_LT(std::fabs(dense.eigenvalues[1] + dense.eigenvalues.back()), 1e-4);
  expect_matches_dense(g, "near tie");
}

TEST(SlemOracle, BitwiseIdenticalAcrossThreadCounts) {
  // Large enough that the matvec splits into four row chunks.
  const Graph g =
      largest_component(planted_partition(10000, 4, 0.002, 0.0001, 3)).graph;
  SlemResult serial;
  {
    const parallel::ScopedThreadCount threads{1};
    serial = second_largest_eigenvalue(g);
  }
  const parallel::ScopedThreadCount threads{4};
  const SlemResult parallel_run = second_largest_eigenvalue(g);
  EXPECT_EQ(serial.mu, parallel_run.mu);
  EXPECT_EQ(serial.lambda_2, parallel_run.lambda_2);
  EXPECT_EQ(serial.lambda_n, parallel_run.lambda_n);
  EXPECT_EQ(serial.iterations, parallel_run.iterations);
}

// Spectra known in closed form (N's eigenvalues; P is similar to N).

TEST(Lanczos, PetersenSpectrumKnown) {
  // N = A/3 has eigenvalues {1, 1/3 (x5), -2/3 (x4)}.
  const SlemResult slem = second_largest_eigenvalue(petersen_graph());
  EXPECT_TRUE(slem.converged);
  EXPECT_NEAR(slem.lambda_2, 1.0 / 3.0, 1e-8);
  EXPECT_NEAR(slem.lambda_n, -2.0 / 3.0, 1e-8);
}

TEST(Lanczos, CompleteGraphSpectrumKnown) {
  // K_n: eigenvalues of N are {1, -1/(n-1) x (n-1)}, so both ends coincide.
  const SlemResult slem = second_largest_eigenvalue(complete_graph(8));
  EXPECT_TRUE(slem.converged);
  EXPECT_NEAR(slem.lambda_2, -1.0 / 7.0, 1e-8);
  EXPECT_NEAR(slem.lambda_n, -1.0 / 7.0, 1e-8);
}

TEST(Lanczos, CycleSecondEigenvalue) {
  // C_12: eigenvalues cos(2 pi k / 12); lambda_2 = sqrt(3)/2, lambda_n = -1.
  const SlemResult slem = second_largest_eigenvalue(cycle_graph(12));
  EXPECT_TRUE(slem.converged);
  EXPECT_NEAR(slem.lambda_2, std::sqrt(3.0) / 2.0, 1e-8);
  EXPECT_NEAR(slem.lambda_n, -1.0, 1e-8);
}

TEST(Lanczos, TwoCliquesNearDegenerateTop) {
  // A near-disconnected graph has lambda_2 close to 1.
  const SlemResult slem = second_largest_eigenvalue(two_cliques(8));
  EXPECT_TRUE(slem.converged);
  EXPECT_GT(slem.lambda_2, 0.9);
  EXPECT_LT(slem.lambda_2, 1.0);
}

}  // namespace
}  // namespace sntrust
