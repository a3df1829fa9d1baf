#include "markov/transition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "markov/dense_spectrum.hpp"
#include "parallel/thread_pool.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace sntrust {
namespace {

using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::star_graph;

TEST(Transition, PreservesMass) {
  const Graph g = testing::petersen_graph();
  Distribution p = dirac(10, 0);
  Distribution out;
  for (int s = 0; s < 20; ++s) {
    step_distribution(g, p, out);
    p.swap(out);
    EXPECT_NEAR(mass(p), 1.0, 1e-12);
  }
}

TEST(Transition, SplitsEvenlyAmongNeighbors) {
  const Graph g = star_graph(5);
  Distribution p = dirac(5, 0);
  Distribution out;
  step_distribution(g, p, out);
  for (VertexId leaf = 1; leaf < 5; ++leaf)
    EXPECT_DOUBLE_EQ(out[leaf], 0.25);
  EXPECT_DOUBLE_EQ(out[0], 0.0);
}

TEST(Transition, StarOscillates) {
  // From the hub: all mass to leaves, then all back.
  const Graph g = star_graph(5);
  Distribution p = dirac(5, 0);
  evolve(g, p, 2);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
}

TEST(Transition, LazyKillsOscillation) {
  const Graph g = star_graph(5);
  Distribution p = dirac(5, 0);
  evolve(g, p, 200, /*lazy=*/true);
  const Distribution pi = stationary_distribution(g);
  EXPECT_LT(total_variation(p, pi), 1e-6);
}

TEST(Transition, StationaryIsFixedPoint) {
  for (const Graph& g : {path_graph(7), cycle_graph(8), complete_graph(5),
                         testing::barbell_graph()}) {
    const Distribution pi = stationary_distribution(g);
    Distribution out;
    step_distribution(g, pi, out);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_NEAR(out[v], pi[v], 1e-12);
  }
}

TEST(Transition, ConvergesOnAperiodicGraph) {
  const Graph g = testing::barbell_graph();  // has triangles -> aperiodic
  Distribution p = dirac(6, 0);
  evolve(g, p, 500);
  const Distribution pi = stationary_distribution(g);
  EXPECT_LT(total_variation(p, pi), 1e-8);
}

TEST(Transition, SizeMismatchThrows) {
  const Graph g = path_graph(4);
  Distribution p(3, 0.0);
  Distribution out;
  EXPECT_THROW(step_distribution(g, p, out), std::invalid_argument);
}

TEST(Transition, AliasThrows) {
  const Graph g = path_graph(4);
  Distribution p = dirac(4, 0);
  EXPECT_THROW(step_distribution(g, p, p), std::invalid_argument);
}

TEST(Transition, IsolatedVertexKeepsNoMassFlowing) {
  // Vertex 2 isolated: mass on it stays only via the lazy self loop.
  GraphBuilder b{3};
  b.add_edge(0, 1);
  const Graph g = b.build();
  Distribution p = dirac(3, 2);
  Distribution out;
  step_distribution(g, p, out);
  EXPECT_DOUBLE_EQ(mass(out), 0.0);  // plain chain drops stranded mass
  step_distribution_lazy(g, p, out);
  EXPECT_DOUBLE_EQ(out[2], 0.5);
}

TEST(Transition, LazyIsAverageOfPlainAndIdentity) {
  const Graph g = cycle_graph(6);
  const Distribution p = dirac(6, 2);
  Distribution plain, lazy;
  step_distribution(g, p, plain);
  step_distribution_lazy(g, p, lazy);
  for (VertexId v = 0; v < 6; ++v)
    EXPECT_NEAR(lazy[v], 0.5 * plain[v] + 0.5 * p[v], 1e-15);
}

// --- The operator core against straight-line oracles ------------------------

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// K_{6,8} plus one edge inside the small side: one odd cycle, so the walk
/// is aperiodic but lambda_n sits close to -1.
Graph near_bipartite_graph() {
  GraphBuilder b{14};
  for (VertexId u = 0; u < 6; ++u)
    for (VertexId v = 6; v < 14; ++v) b.add_edge(u, v);
  b.add_edge(0, 1);
  return b.build();
}

/// Small graphs (dense_spectrum's range) of every required shape.
std::vector<NamedGraph> small_operator_graphs() {
  return {
      {"random", largest_component(erdos_renyi_gnm(60, 150, 3)).graph},
      {"star", star_graph(40)},
      {"near_bipartite", near_bipartite_graph()},
      {"sbm",
       largest_component(planted_partition(72, 3, 0.35, 0.02, 5)).graph},
  };
}

/// The same shapes large enough (n > 2 x 2048 rows) that the all-rows
/// passes split into several chunks at 4 threads.
std::vector<NamedGraph> large_operator_graphs() {
  return {
      {"random", largest_component(barabasi_albert(6000, 3, 11)).graph},
      {"star", star_graph(5000)},
      {"near_bipartite_cycle",
       [] {
         GraphBuilder b{6001};  // odd cycle: bipartite but for one edge
         for (VertexId v = 0; v < 6001; ++v) b.add_edge(v, (v + 1) % 6001);
         return b.build();
       }()},
      {"sbm",
       largest_component(planted_partition(6000, 4, 0.004, 0.0002, 13))
           .graph},
  };
}

std::vector<NamedGraph> all_operator_graphs() {
  std::vector<NamedGraph> graphs = small_operator_graphs();
  for (NamedGraph& large : large_operator_graphs())
    graphs.push_back(std::move(large));
  return graphs;
}

/// A distribution with zeros on roughly a third of the vertices.
Distribution sparse_random_distribution(VertexId n, std::uint64_t seed) {
  Rng rng{seed};
  Distribution p(n, 0.0);
  double total = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    if (rng.uniform(3) == 0) continue;
    p[v] = rng.uniform_real();
    total += p[v];
  }
  for (double& value : p) value /= total;
  return p;
}

/// The oracle: one straight-line loop that divides per edge and skips zero
/// entries, as the kernels did before the pre-divided core.
Distribution reference_step(const Graph& g, StepKind kind, double alpha,
                            const Distribution& p) {
  const auto offsets = g.offsets();
  const auto targets = g.targets();
  Distribution out(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    double acc = 0.0;
    for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = targets[i];
      if (p[w] == 0.0) continue;
      acc += p[w] / static_cast<double>(offsets[w + 1] - offsets[w]);
    }
    switch (kind) {
      case StepKind::kPlain: out[v] = acc; break;
      case StepKind::kLazy: out[v] = 0.5 * acc + 0.5 * p[v]; break;
      case StepKind::kModulated:
        out[v] = alpha * p[v] + (1.0 - alpha) * acc;
        break;
      case StepKind::kOriginatorBiased: out[v] = acc * (1.0 - alpha); break;
      case StepKind::kSymmetric: ADD_FAILURE() << "not a walk blend"; break;
    }
  }
  return out;
}

bool bitwise_equal(const Distribution& a, const Distribution& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr std::pair<StepKind, double> kWalkBlends[] = {
    {StepKind::kPlain, 0.0},
    {StepKind::kLazy, 0.0},
    {StepKind::kModulated, 0.15},
    {StepKind::kOriginatorBiased, 0.2},
};

TEST(TransitionOperator, WalkBlendsMatchPerEdgeOracle) {
  for (const NamedGraph& named : all_operator_graphs()) {
    const Graph& g = named.graph;
    const Distribution p = sparse_random_distribution(g.num_vertices(), 29);
    for (const auto& [kind, alpha] : kWalkBlends) {
      const Distribution want = reference_step(g, kind, alpha, p);
      for (const std::uint32_t threads : {1u, 4u}) {
        parallel::ScopedThreadCount scope{threads};
        TransitionOperator op{g};
        Distribution got;
        op.apply(kind, alpha, p, got);
        EXPECT_TRUE(bitwise_equal(want, got))
            << named.name << " kind " << static_cast<int>(kind) << " @ "
            << threads << " threads";
      }
    }
  }
}

TEST(TransitionOperator, SymmetricBlendMatchesDenseSpectrum) {
  for (const NamedGraph& named : small_operator_graphs()) {
    const Graph& g = named.graph;
    const VertexId n = g.num_vertices();
    const DenseSpectrum spectrum = dense_spectrum(g);
    Rng rng{17};
    std::vector<double> x(n);
    for (double& value : x) value = rng.uniform_real() - 0.5;
    // N x = sum_k lambda_k (v_k . x) v_k.
    std::vector<double> want(n, 0.0);
    for (std::size_t k = 0; k < spectrum.eigenvalues.size(); ++k) {
      const std::vector<double>& vec = spectrum.eigenvectors[k];
      double projection = 0.0;
      for (VertexId v = 0; v < n; ++v) projection += vec[v] * x[v];
      for (VertexId v = 0; v < n; ++v)
        want[v] += spectrum.eigenvalues[k] * projection * vec[v];
    }
    TransitionOperator op{g};
    std::vector<double> got;
    op.apply(StepKind::kSymmetric, 0.0, x, got);
    ASSERT_EQ(got.size(), want.size());
    for (VertexId v = 0; v < n; ++v)
      EXPECT_NEAR(got[v], want[v], 1e-12) << named.name << " row " << v;
  }
}

}  // namespace
}  // namespace sntrust
