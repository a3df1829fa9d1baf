#include "markov/frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "gen/generators.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "markov/transition.hpp"
#include "parallel/thread_pool.hpp"
#include "test_graphs.hpp"
#include "util/rng.hpp"

namespace sntrust {
namespace {

using testing::barbell_graph;
using testing::complete_graph;
using testing::cycle_graph;
using testing::path_graph;
using testing::petersen_graph;
using testing::star_graph;
using testing::two_cliques;

std::vector<Graph> seed_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(path_graph(12));
  graphs.push_back(cycle_graph(10));
  graphs.push_back(star_graph(9));
  graphs.push_back(complete_graph(8));
  graphs.push_back(barbell_graph());
  graphs.push_back(two_cliques(5));
  graphs.push_back(petersen_graph());
  return graphs;
}

MixingCurves run_with_kernel(const Graph& g, KernelMode mode, bool lazy,
                             double fraction = 0.5) {
  MixingOptions options;
  options.num_sources = 6;
  options.max_walk_length = 25;
  options.seed = 7;
  options.lazy = lazy;
  options.kernel = mode;
  options.kernel_dense_fraction = fraction;
  return measure_mixing(g, options);
}

void expect_bitwise_equal(const MixingCurves& a, const MixingCurves& b) {
  ASSERT_EQ(a.sources, b.sources);
  ASSERT_EQ(a.tvd.size(), b.tvd.size());
  for (std::size_t s = 0; s < a.tvd.size(); ++s) {
    ASSERT_EQ(a.tvd[s].size(), b.tvd[s].size());
    for (std::size_t t = 0; t < a.tvd[s].size(); ++t)
      // EXPECT_EQ on doubles is exact (bitwise for non-NaN) equality.
      EXPECT_EQ(a.tvd[s][t], b.tvd[s][t])
          << "source " << s << " step " << t;
  }
}

/// Straight-line per-source reference: the dense single-vector step, the
/// structural support by neighbour expansion, and support_tvd.
struct SourceOracle {
  SourceOracle(const Graph& graph, StepKind kind, double alpha,
               VertexId source)
      : g(graph), kind(kind), alpha(alpha), op(graph),
        p(dirac(graph.num_vertices(), source)), support{source} {}

  void step() {
    Distribution next;
    op.apply(kind, alpha, p, next);
    p.swap(next);
    std::vector<VertexId> reached;
    for (const VertexId v : support) {
      if (kind != StepKind::kPlain) reached.push_back(v);
      for (const VertexId w : g.neighbors(v)) reached.push_back(w);
    }
    std::sort(reached.begin(), reached.end());
    reached.erase(std::unique(reached.begin(), reached.end()), reached.end());
    support.swap(reached);
  }

  const Graph& g;
  StepKind kind;
  double alpha;
  TransitionOperator op;
  Distribution p;
  std::vector<VertexId> support;  // sorted
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Steps a lane walk over `sources` beside one oracle per source and checks
/// every lane against its oracle bit for bit at every step: the TVD, the
/// pre-scaled state (and p for self-weighted kinds), and the support while
/// the walk still tracks it.
void expect_lanes_match_oracles(const Graph& g, StepKind kind, double alpha,
                                const LaneWalk::Options& kernel,
                                const std::vector<VertexId>& sources,
                                std::uint32_t steps, const std::string& label) {
  SCOPED_TRACE(label);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  LaneWalk walk{g, pi, prefix, kind, alpha, kernel};
  walk.reset(sources);
  ASSERT_EQ(walk.lanes(), sources.size());
  std::vector<SourceOracle> oracles;
  for (const VertexId s : sources) oracles.emplace_back(g, kind, alpha, s);
  for (std::uint32_t t = 0; t <= steps; ++t) {
    if (t > 0) {
      walk.step();
      for (SourceOracle& oracle : oracles) oracle.step();
    }
    for (std::size_t l = 0; l < sources.size(); ++l) {
      const SourceOracle& oracle = oracles[l];
      const double want = support_tvd(oracle.p, oracle.support, pi, prefix);
      ASSERT_TRUE(same_bits(walk.tvd(l), want))
          << "lane " << l << " step " << t << ": " << walk.tvd(l)
          << " vs " << want;
      std::size_t cursor = 0;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const double scaled =
            oracle.p[v] / static_cast<double>(g.degree_unchecked(v));
        ASSERT_TRUE(same_bits(walk.scaled(l, v), scaled))
            << "lane " << l << " step " << t << " vertex " << v;
        if (kind != StepKind::kPlain) {
          ASSERT_TRUE(same_bits(walk.probability(l, v), oracle.p[v]))
              << "lane " << l << " step " << t << " vertex " << v;
        }
        const bool in = cursor < oracle.support.size() &&
                        oracle.support[cursor] == v;
        if (in) ++cursor;
        if (!walk.saturated()) {
          ASSERT_EQ(walk.in_support(l, v), in)
              << "lane " << l << " step " << t << " vertex " << v;
        }
      }
    }
  }
}

/// Even cycle plus the chord {0, 2}: one triangle away from bipartite.
Graph near_bipartite_graph() {
  GraphBuilder b{24};
  for (VertexId v = 0; v < 24; ++v) b.add_edge(v, (v + 1) % 24);
  b.add_edge(0, 2);
  return b.build();
}

TEST(KernelMode, ParseAndPrint) {
  EXPECT_EQ(parse_kernel_mode("auto"), KernelMode::kAuto);
  EXPECT_EQ(parse_kernel_mode("DENSE"), KernelMode::kDense);
  EXPECT_EQ(parse_kernel_mode("Sparse"), KernelMode::kSparse);
  EXPECT_FALSE(parse_kernel_mode("fast").has_value());
  EXPECT_FALSE(parse_kernel_mode("").has_value());
  for (const KernelMode mode :
       {KernelMode::kAuto, KernelMode::kDense, KernelMode::kSparse})
    EXPECT_EQ(parse_kernel_mode(to_string(mode)), mode);
}

TEST(KernelMode, ScopedOverrideRestores) {
  clear_kernel_mode_override();
  const KernelMode ambient = kernel_mode();
  {
    ScopedKernelMode scope{KernelMode::kSparse};
    EXPECT_EQ(kernel_mode(), KernelMode::kSparse);
    {
      ScopedKernelMode inner{KernelMode::kDense};
      EXPECT_EQ(kernel_mode(), KernelMode::kDense);
    }
    EXPECT_EQ(kernel_mode(), KernelMode::kSparse);
  }
  EXPECT_EQ(kernel_mode(), ambient);
}

TEST(SupportTvd, MatchesDenseTotalVariation) {
  for (const Graph& g : seed_graphs()) {
    const Distribution pi = stationary_distribution(g);
    const StationaryPrefix prefix{pi};
    // Evolve a point mass densely with its structural support and compare
    // the support-aware TVD against the plain full-range total variation.
    SourceOracle oracle{g, StepKind::kPlain, 0.0, 0};
    for (std::uint32_t t = 0; t <= 12; ++t) {
      if (t > 0) oracle.step();
      const double sparse = support_tvd(oracle.p, oracle.support, pi, prefix);
      const double dense = total_variation(oracle.p, pi);
      EXPECT_NEAR(sparse, dense, 1e-12) << "step " << t;
    }
  }
}

TEST(SupportTvd, FullSupportMatchesExactly) {
  const Graph g = petersen_graph();
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  const Distribution p = dirac(g.num_vertices(), 3);
  EXPECT_EQ(support_tvd(p, all, pi, prefix), total_variation(p, pi));
}

TEST(FrontierKernels, CurvesBitwiseIdenticalAcrossModes) {
  for (const Graph& g : seed_graphs()) {
    for (const bool lazy : {false, true}) {
      const MixingCurves dense = run_with_kernel(g, KernelMode::kDense, lazy);
      const MixingCurves sparse =
          run_with_kernel(g, KernelMode::kSparse, lazy);
      const MixingCurves automatic =
          run_with_kernel(g, KernelMode::kAuto, lazy);
      expect_bitwise_equal(dense, sparse);
      expect_bitwise_equal(dense, automatic);
    }
  }
}

TEST(FrontierKernels, CurvesBitwiseIdenticalOnGeneratedGraph) {
  const Graph g = largest_component(barabasi_albert(400, 3, 11)).graph;
  const MixingCurves dense = run_with_kernel(g, KernelMode::kDense, false);
  const MixingCurves sparse = run_with_kernel(g, KernelMode::kSparse, false);
  const MixingCurves automatic = run_with_kernel(g, KernelMode::kAuto, false);
  expect_bitwise_equal(dense, sparse);
  expect_bitwise_equal(dense, automatic);
}

TEST(FrontierKernels, ZeroThresholdForcesDenseFromFirstStep) {
  const Graph g = two_cliques(6);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  LaneWalk walk{g, pi, prefix, StepKind::kPlain, 0.0, {KernelMode::kAuto, 0.0}};
  const VertexId sources[] = {0, 7};
  walk.reset(sources);
  for (std::uint32_t t = 0; t < 5; ++t) {
    walk.step();
    EXPECT_TRUE(walk.last_step_dense()) << "step " << t;
  }
}

TEST(FrontierKernels, InfiniteThresholdStaysSparseUntilSaturation) {
  const Graph g = path_graph(16);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  LaneWalk walk{g, pi, prefix, StepKind::kLazy, 0.0,
                {KernelMode::kAuto, std::numeric_limits<double>::infinity()}};
  const VertexId source = 0;
  walk.reset({&source, 1});
  // The lazy chain's support is the ball of radius t around the source (the
  // path's endpoint), so it saturates exactly at t = eccentricity = 15; every
  // step before that must use the sparse pull.
  for (std::uint32_t t = 1; t <= 15; ++t) {
    walk.step();
    EXPECT_FALSE(walk.last_step_dense()) << "step " << t;
    EXPECT_EQ(walk.saturated(), t >= 15) << "step " << t;
    for (VertexId v = 0; v < 16; ++v)
      EXPECT_EQ(walk.in_support(0, v), v <= t) << "step " << t << " v " << v;
  }
  walk.step();
  EXPECT_TRUE(walk.last_step_dense());  // saturated: dense from here on
}

TEST(FrontierKernels, ForcedCrossoverModesAgree) {
  const Graph g = largest_component(barabasi_albert(300, 2, 5)).graph;
  const MixingCurves always_dense =
      run_with_kernel(g, KernelMode::kAuto, false, 0.0);
  const MixingCurves never_dense = run_with_kernel(
      g, KernelMode::kAuto, false, std::numeric_limits<double>::infinity());
  expect_bitwise_equal(always_dense, never_dense);
}

TEST(FrontierKernels, SparseSweepThreadCountInvariant) {
  const Graph g = largest_component(powerlaw_cluster(350, 3, 0.4, 17)).graph;
  MixingCurves serial, threaded;
  {
    parallel::ScopedThreadCount scope{1};
    serial = run_with_kernel(g, KernelMode::kSparse, false);
  }
  {
    parallel::ScopedThreadCount scope{4};
    threaded = run_with_kernel(g, KernelMode::kSparse, false);
  }
  expect_bitwise_equal(serial, threaded);
}

TEST(LaneWalk, SaturatedWalksSkipBookkeeping) {
  const Graph g = complete_graph(10);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  LaneWalk walk{g, pi, prefix, StepKind::kLazy, 0.0, {KernelMode::kAuto, 0.5}};
  const VertexId sources[] = {0, 4, 9};
  walk.reset(sources);
  // Lazy support = closed neighbourhood, so one step saturates K_10 in every
  // lane. (The plain chain would need two: a point mass's first support
  // excludes the source itself.)
  walk.step();
  EXPECT_TRUE(walk.saturated());
  walk.step();
  EXPECT_TRUE(walk.last_step_dense());
  EXPECT_EQ(walk.last_frontier_degree(), 0u);  // no candidate set built
}

TEST(LaneWalk, ResetReusesWorkspaceAcrossBlocks) {
  const Graph g = two_cliques(4);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  // A walk that ran dense (or sparse) must come back clean for the next
  // block, including a smaller one whose unused lanes held mass before.
  for (const KernelMode mode : {KernelMode::kSparse, KernelMode::kDense}) {
    LaneWalk walk{g, pi, prefix, StepKind::kPlain, 0.0, {mode, 0.5}};
    const std::vector<std::vector<VertexId>> blocks{{0, 7, 3, 5}, {6}, {2, 1}};
    for (const std::vector<VertexId>& sources : blocks) {
      walk.reset(sources);
      for (std::size_t l = 0; l < sources.size(); ++l)
        EXPECT_EQ(walk.scaled(l, sources[l]),
                  1.0 / static_cast<double>(g.degree(sources[l])));
      for (std::uint32_t t = 0; t < 6; ++t) walk.step();
      for (std::size_t l = 0; l < sources.size(); ++l) {
        Distribution expected = dirac(g.num_vertices(), sources[l]);
        Distribution scratch(expected.size());
        for (std::uint32_t t = 0; t < 6; ++t) {
          step_distribution(g, expected, scratch);
          expected.swap(scratch);
        }
        for (VertexId v = 0; v < g.num_vertices(); ++v)
          EXPECT_EQ(walk.scaled(l, v),
                    expected[v] / static_cast<double>(g.degree(v)))
              << "lane " << l << " vertex " << v;
      }
    }
  }
}

TEST(LaneWalk, BadArgumentsThrow) {
  const Graph g = path_graph(4);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  LaneWalk walk{g, pi, prefix, StepKind::kPlain};
  const VertexId out_of_range = 4;
  EXPECT_THROW(walk.reset({&out_of_range, 1}), std::out_of_range);
  EXPECT_THROW(walk.reset({}), std::invalid_argument);
  const std::vector<VertexId> five{0, 1, 2, 3, 0};
  EXPECT_THROW(walk.reset(five), std::invalid_argument);
  EXPECT_THROW((LaneWalk{g, pi, prefix, StepKind::kModulated, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((LaneWalk{g, pi, prefix, StepKind::kModulated, -0.1}),
               std::invalid_argument);
  EXPECT_THROW((LaneWalk{g, pi, prefix, StepKind::kOriginatorBiased, 0.2}),
               std::invalid_argument);
  EXPECT_THROW((LaneWalk{g, pi, prefix, StepKind::kSymmetric}),
               std::invalid_argument);
  const Distribution short_pi(3, 1.0 / 3.0);
  const StationaryPrefix short_prefix{short_pi};
  EXPECT_THROW((LaneWalk{g, short_pi, short_prefix, StepKind::kPlain}),
               std::invalid_argument);
}

struct OracleGraph {
  std::string name;
  Graph graph;
  std::uint32_t steps;
};

std::vector<OracleGraph> oracle_graphs() {
  std::vector<OracleGraph> graphs;
  graphs.push_back({"star", star_graph(40), 8});  // hub rows
  graphs.push_back({"even cycle", cycle_graph(20), 30});  // plain never saturates
  graphs.push_back({"near-bipartite", near_bipartite_graph(), 30});
  graphs.push_back(
      {"sbm", largest_component(planted_partition(400, 4, 0.06, 0.003, 13)).graph,
       25});
  graphs.push_back(
      {"n > 4096", largest_component(barabasi_albert(4500, 2, 21)).graph, 8});
  return graphs;
}

TEST(LaneWalk, LanesMatchPerSourceOracle) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, LaneWalk::Options>> kernels{
      {"dense", {KernelMode::kDense, 0.5}},
      {"sparse", {KernelMode::kSparse, 0.5}},
      {"auto", {KernelMode::kAuto, 0.5}},
      {"auto@0", {KernelMode::kAuto, 0.0}},
      {"auto@inf", {KernelMode::kAuto, inf}},
  };
  const std::vector<std::pair<StepKind, double>> chains{
      {StepKind::kPlain, 0.0}, {StepKind::kLazy, 0.0},
      {StepKind::kModulated, 0.3}};
  for (const OracleGraph& named : oracle_graphs()) {
    const Graph& g = named.graph;
    ASSERT_TRUE(is_connected(g)) << named.name;
    Rng rng{5};
    const std::vector<VertexId> picks =
        rng.sample_without_replacement(g.num_vertices(), kLanes);
    for (const auto& [kind, alpha] : chains) {
      for (const auto& [mode_name, kernel] : kernels) {
        // Full and partial blocks; the star's hub (vertex 0) starts one.
        for (std::size_t lanes = 1; lanes <= kLanes; ++lanes) {
          std::vector<VertexId> sources(picks.begin(), picks.begin() + lanes);
          if (lanes == 2) sources[0] = 0;
          for (const std::uint32_t threads : {1u, 4u}) {
            parallel::ScopedThreadCount scope{threads};
            expect_lanes_match_oracles(
                g, kind, alpha, kernel, sources, named.steps,
                named.name + " kind " + std::to_string(static_cast<int>(kind)) +
                    " " + mode_name + " lanes " + std::to_string(lanes) +
                    " threads " + std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(LaneWalk, PlainChainOnEvenCycleNeverSaturates) {
  const Graph g = cycle_graph(20);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  LaneWalk walk{g, pi, prefix, StepKind::kPlain, 0.0, {KernelMode::kAuto, 0.5}};
  const VertexId sources[] = {0, 5};
  walk.reset(sources);
  for (std::uint32_t t = 1; t <= 60; ++t) {
    walk.step();
    ASSERT_FALSE(walk.saturated()) << "step " << t;
    // Each lane stays in one parity class: the TVD never drops below 1/2.
    EXPECT_GE(walk.tvd(0), 0.5);
    EXPECT_GE(walk.tvd(1), 0.5);
  }
}

}  // namespace
}  // namespace sntrust
