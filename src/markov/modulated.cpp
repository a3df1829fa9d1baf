#include "markov/modulated.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "graph/components.hpp"
#include "markov/frontier.hpp"
#include "markov/transition.hpp"
#include "parallel/parallel.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

void check_alpha(double alpha, const char* who) {
  if (alpha < 0.0 || alpha >= 1.0)
    throw std::invalid_argument(std::string{who} + ": alpha must be in [0,1)");
}

}  // namespace

void step_modulated(const Graph& g, const Distribution& p, Distribution& out,
                    double alpha) {
  check_alpha(alpha, "step_modulated");
  TransitionOperator{g}.apply(StepKind::kModulated, alpha, p, out);
}

void step_originator_biased(const Graph& g, const Distribution& p,
                            Distribution& out, double alpha,
                            VertexId originator) {
  check_alpha(alpha, "step_originator_biased");
  if (originator >= g.num_vertices())
    throw std::out_of_range("step_originator_biased: originator out of range");
  TransitionOperator{g}.apply(StepKind::kOriginatorBiased, alpha, p, out);
  out[originator] += alpha;
}

Distribution originator_stationary(const Graph& g, VertexId originator,
                                   double alpha, double tolerance,
                                   std::uint32_t max_iterations) {
  if (!(alpha > 0.0) || alpha >= 1.0)
    throw std::invalid_argument(
        "originator_stationary: alpha must be in (0,1)");
  if (originator >= g.num_vertices())
    throw std::out_of_range("originator_stationary: originator out of range");
  TransitionOperator op{g};
  Distribution p = dirac(g.num_vertices(), originator);
  Distribution next(p.size());
  for (std::uint32_t it = 0; it < max_iterations; ++it) {
    op.apply(StepKind::kOriginatorBiased, alpha, p, next);
    next[originator] += alpha;
    const double distance = total_variation(p, next);
    p.swap(next);
    if (distance <= tolerance) break;
  }
  return p;
}

std::uint32_t modulated_mixing_time(const Graph& g, double alpha,
                                    double epsilon,
                                    std::uint32_t num_sources,
                                    std::uint32_t max_walk_length,
                                    std::uint64_t seed) {
  if (g.num_vertices() == 0 || g.num_edges() == 0)
    throw std::invalid_argument("modulated_mixing_time: graph must have edges");
  if (!is_connected(g))
    throw std::invalid_argument("modulated_mixing_time: graph must be connected");
  if (num_sources == 0)
    throw std::invalid_argument("modulated_mixing_time: need sources");

  Rng rng{seed};
  const std::uint32_t k =
      std::min<std::uint32_t>(num_sources, g.num_vertices());
  const std::vector<VertexId> sources =
      rng.sample_without_replacement(g.num_vertices(), k);
  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};

  // Evolve all sources in lockstep, kLanes per lane walk (the modulated
  // chain retains mass in place, so the support grows like the lazy chain),
  // and report the first t where the worst source is within epsilon. Blocks
  // step in parallel; each lane's TVD is bitwise independent of its block.
  const std::size_t blocks = (k + kLanes - 1) / kLanes;
  std::vector<LaneWalk> walks;
  walks.reserve(blocks);
  for (std::size_t first = 0; first < k; first += kLanes) {
    walks.emplace_back(g, pi, prefix, StepKind::kModulated, alpha);
    walks.back().reset({sources.data() + first,
                        std::min<std::size_t>(kLanes, k - first)});
  }

  const auto worst = [&]() {
    double value = 0.0;
    for (const LaneWalk& walk : walks)
      for (std::size_t l = 0; l < walk.lanes(); ++l)
        value = std::max(value, walk.tvd(l));
    return value;
  };
  if (worst() <= epsilon) return 0;
  for (std::uint32_t t = 1; t <= max_walk_length; ++t) {
    parallel::parallel_for(0, blocks, [&](std::size_t b, std::uint32_t) {
      walks[b].step();
    });
    if (worst() <= epsilon) return t;
  }
  return 0xFFFFFFFFu;
}

}  // namespace sntrust
