#include "anon/social_mix.hpp"

#include <cmath>
#include <stdexcept>

#include "graph/components.hpp"
#include "markov/transition.hpp"
#include "util/rng.hpp"

namespace sntrust {

double shannon_entropy_bits(const Distribution& d) {
  double entropy = 0.0;
  for (const double p : d)
    if (p > 0.0) entropy -= p * std::log2(p);
  return entropy;
}

AnonymityCurve measure_anonymity(const Graph& g, VertexId sender,
                                 std::uint32_t max_hops, bool lazy) {
  if (sender >= g.num_vertices())
    throw std::out_of_range("measure_anonymity: sender out of range");
  if (g.num_edges() == 0 || !is_connected(g))
    throw std::invalid_argument(
        "measure_anonymity: graph must be connected with edges");

  AnonymityCurve curve;
  curve.sender = sender;
  curve.max_entropy_bits = std::log2(static_cast<double>(g.num_vertices()));

  const Distribution pi = stationary_distribution(g);
  Distribution p = dirac(g.num_vertices(), sender);
  Distribution buffer(p.size());
  TransitionOperator op{g};
  curve.entropy_bits.push_back(shannon_entropy_bits(p));
  curve.leak_tvd.push_back(total_variation(p, pi));
  for (std::uint32_t t = 1; t <= max_hops; ++t) {
    op.apply(lazy ? StepKind::kLazy : StepKind::kPlain, 0.0, p, buffer);
    p.swap(buffer);
    curve.entropy_bits.push_back(shannon_entropy_bits(p));
    curve.leak_tvd.push_back(total_variation(p, pi));
  }
  return curve;
}

AnonymityTime anonymity_time(const Graph& g, double fraction,
                             std::uint32_t num_senders,
                             std::uint32_t max_hops, std::uint64_t seed) {
  if (fraction <= 0.0 || fraction > 1.0)
    throw std::invalid_argument("anonymity_time: fraction must be in (0,1]");
  if (num_senders == 0)
    throw std::invalid_argument("anonymity_time: need senders");
  if (g.num_edges() == 0 || !is_connected(g))
    throw std::invalid_argument(
        "anonymity_time: graph must be connected with edges");

  Rng rng{seed};
  AnonymityTime result;
  const std::uint32_t k =
      std::min<std::uint32_t>(num_senders, g.num_vertices());
  result.senders = rng.sample_without_replacement(g.num_vertices(), k);
  const double target =
      fraction * std::log2(static_cast<double>(g.num_vertices()));

  double total = 0.0;
  for (const VertexId sender : result.senders) {
    // Evolve with the lazy chain so entropy growth is monotone on
    // near-bipartite graphs too.
    const AnonymityCurve curve =
        measure_anonymity(g, sender, max_hops, /*lazy=*/true);
    std::uint32_t hops = 0xFFFFFFFFu;
    for (std::uint32_t t = 0; t < curve.entropy_bits.size(); ++t) {
      if (curve.entropy_bits[t] >= target) {
        hops = t;
        break;
      }
    }
    result.hops_to_target.push_back(hops);
    if (hops != 0xFFFFFFFFu) {
      total += hops;
      ++result.reached;
    }
  }
  result.mean_hops = result.reached == 0 ? 0.0 : total / result.reached;
  return result;
}

}  // namespace sntrust
