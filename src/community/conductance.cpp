#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "community/community.hpp"
#include "markov/transition.hpp"
#include "util/rng.hpp"

namespace sntrust {

std::vector<double> fiedler_vector(const Graph& g,
                                   std::uint32_t max_iterations,
                                   std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  if (n < 2 || g.num_edges() == 0)
    throw std::invalid_argument("fiedler_vector: graph too small");

  // Second eigenvector of N = D^{-1/2} A D^{-1/2}. Power-iterate the shifted
  // operator (I + N)/2 (spectrum in [0, 1]) with the principal direction
  // phi = D^{1/2} 1 deflated; the dominant remaining eigenvector is the
  // Fiedler direction of the normalized Laplacian.
  TransitionOperator op{g};  // y = N x, the symmetric blend
  const std::vector<double>& inv_sqrt_deg = op.inv_sqrt_degree();
  std::vector<double> phi(n);
  for (VertexId v = 0; v < n; ++v)
    phi[v] = std::sqrt(static_cast<double>(g.degree(v)));
  {
    double norm = std::sqrt(std::inner_product(phi.begin(), phi.end(),
                                               phi.begin(), 0.0));
    for (double& x : phi) x /= norm;
  }

  Rng rng{seed};
  std::vector<double> x(n), y(n);
  for (double& value : x) value = rng.uniform_real() - 0.5;

  const auto deflate = [&](std::vector<double>& vec) {
    const double proj =
        std::inner_product(vec.begin(), vec.end(), phi.begin(), 0.0);
    for (VertexId v = 0; v < n; ++v) vec[v] -= proj * phi[v];
  };
  const auto normalize = [&](std::vector<double>& vec) {
    const double norm = std::sqrt(
        std::inner_product(vec.begin(), vec.end(), vec.begin(), 0.0));
    if (norm > 0.0)
      for (double& value : vec) value /= norm;
  };

  deflate(x);
  normalize(x);
  for (std::uint32_t it = 0; it < max_iterations; ++it) {
    op.apply(StepKind::kSymmetric, 0.0, x, y);
    for (VertexId v = 0; v < n; ++v) y[v] = 0.5 * (y[v] + x[v]);
    deflate(y);
    normalize(y);
    x.swap(y);
  }

  // Return in vertex space: u = D^{-1/2} x, the smooth labeling.
  std::vector<double> out(n);
  for (VertexId v = 0; v < n; ++v) out[v] = x[v] * inv_sqrt_deg[v];
  return out;
}

CheegerBounds cheeger_bounds(double lambda_2) {
  if (lambda_2 < -1.0 - 1e-12 || lambda_2 > 1.0 + 1e-12)
    throw std::invalid_argument("cheeger_bounds: lambda_2 must be in [-1,1]");
  CheegerBounds bounds;
  const double gap = std::max(0.0, 1.0 - lambda_2);
  bounds.lower = gap / 2.0;
  bounds.upper = std::sqrt(2.0 * gap);
  return bounds;
}

SweepResult conductance_sweep(const Graph& g,
                              const std::vector<double>& ordering_values) {
  const VertexId n = g.num_vertices();
  if (ordering_values.size() != n)
    throw std::invalid_argument("conductance_sweep: values size mismatch");
  if (n < 2 || g.num_edges() == 0)
    throw std::invalid_argument("conductance_sweep: graph too small");

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return ordering_values[a] < ordering_values[b];
  });

  const std::uint64_t total_volume = g.targets().size();  // 2m
  std::vector<std::uint8_t> in_set(n, 0);
  std::uint64_t cut = 0;
  std::uint64_t vol = 0;

  SweepResult result;
  result.curve.reserve(n - 1);
  for (VertexId i = 0; i + 1 < n; ++i) {
    const VertexId v = order[i];
    in_set[v] = 1;
    vol += g.degree(v);
    // Adding v flips each incident edge: to-inside edges leave the cut,
    // to-outside edges join it.
    for (const VertexId w : g.neighbors(v)) {
      if (in_set[w]) --cut;
      else ++cut;
    }
    const std::uint64_t vol_other = total_volume - vol;
    const double phi =
        static_cast<double>(cut) /
        static_cast<double>(std::max<std::uint64_t>(1, std::min(vol, vol_other)));
    result.curve.push_back(phi);
    if (vol > 0 && vol_other > 0 && phi < result.best_conductance) {
      result.best_conductance = phi;
      result.best_prefix = i + 1;
    }
  }
  return result;
}

}  // namespace sntrust
