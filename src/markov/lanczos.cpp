#include "markov/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/components.hpp"
#include "markov/transition.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Eigenvalues of a symmetric tridiagonal matrix via QL-free bisection on
/// Sturm sequences — robust and dependency-free for the small sizes here.
std::vector<double> tridiagonal_eigenvalues(const std::vector<double>& diag,
                                            const std::vector<double>& off) {
  const std::size_t n = diag.size();
  // Gershgorin bounds.
  double lo = diag[0], hi = diag[0];
  for (std::size_t i = 0; i < n; ++i) {
    const double left = i > 0 ? std::fabs(off[i - 1]) : 0.0;
    const double right = i + 1 < n ? std::fabs(off[i]) : 0.0;
    lo = std::min(lo, diag[i] - left - right);
    hi = std::max(hi, diag[i] + left + right);
  }
  // Sturm count: number of eigenvalues < x.
  const auto count_below = [&](double x) {
    std::size_t count = 0;
    double q = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double off_sq = i > 0 ? off[i - 1] * off[i - 1] : 0.0;
      q = diag[i] - x - (q != 0.0 ? off_sq / q : off_sq / 1e-300);
      if (q < 0.0) ++count;
    }
    return count;
  };
  std::vector<double> values(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k-th smallest eigenvalue by bisection.
    double a = lo, b = hi;
    for (int iter = 0; iter < 200 && b - a > 1e-13 * std::max(1.0, std::fabs(b));
         ++iter) {
      const double mid = 0.5 * (a + b);
      if (count_below(mid) > k) b = mid;
      else a = mid;
    }
    values[k] = 0.5 * (a + b);
  }
  return values;  // ascending
}

}  // namespace

LanczosResult lanczos_spectrum(const Graph& g, const LanczosOptions& options) {
  const obs::Span span{"lanczos", "markov"};
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument("lanczos_spectrum: graph must have edges");
  if (!is_connected(g))
    throw std::invalid_argument("lanczos_spectrum: graph must be connected");
  if (options.num_eigenvalues == 0)
    throw std::invalid_argument("lanczos_spectrum: need >= 1 eigenvalue");

  std::uint32_t m = options.subspace;
  if (m == 0) m = std::min<std::uint32_t>(n, 4 * options.num_eigenvalues + 32);
  m = std::min<std::uint32_t>(m, n);

  TransitionOperator op{g};  // w = N q, the symmetric blend

  Rng rng{options.seed};
  std::vector<std::vector<double>> basis;
  basis.reserve(m);
  std::vector<double> diag, off;

  std::vector<double> q(n);
  for (double& value : q) value = rng.uniform_real() - 0.5;
  {
    const double norm = std::sqrt(dot(q, q));
    for (double& value : q) value /= norm;
  }

  std::vector<double> w(n);
  LanczosResult result;
  for (std::uint32_t j = 0; j < m; ++j) {
    basis.push_back(q);
    op.apply(StepKind::kSymmetric, 0.0, q, w);
    const double alpha = dot(w, q);
    diag.push_back(alpha);
    // w -= alpha q + beta q_{j-1}; then full reorthogonalization.
    for (VertexId v = 0; v < n; ++v) w[v] -= alpha * q[v];
    if (j > 0) {
      const double beta_prev = off.back();
      const auto& prev = basis[j - 1];
      for (VertexId v = 0; v < n; ++v) w[v] -= beta_prev * prev[v];
    }
    for (const auto& b : basis) {
      const double projection = dot(w, b);
      for (VertexId v = 0; v < n; ++v) w[v] -= projection * b[v];
    }
    const double beta = std::sqrt(dot(w, w));
    result.iterations = j + 1;
    if (beta < 1e-12 || j + 1 == m) break;
    off.push_back(beta);
    for (VertexId v = 0; v < n; ++v) q[v] = w[v] / beta;
  }

  obs::count("lanczos.iterations", result.iterations);

  // Diagnostics (SNTRUST_DIAG): the off-diagonal beta trajectory is the
  // Lanczos residual analogue — beta_j -> 0 means the Krylov space closed.
  // Exiting on the subspace cap is the normal operating mode (the subspace
  // is sized for the requested eigenvalue count), so a Lanczos run is never
  // flagged as non-converged.
  if (obs::diag_enabled() && !off.empty()) {
    obs::ConvergenceTrace betas;
    for (const double beta : off) betas.add(beta);
    obs::DiagRegistry::instance().record_trace(
        obs::summarize_trace("slem.lanczos", 0, betas, /*converged=*/true));
  }

  std::vector<double> values = tridiagonal_eigenvalues(diag, off);
  std::reverse(values.begin(), values.end());  // descending
  if (values.size() > options.num_eigenvalues)
    values.resize(options.num_eigenvalues);
  result.eigenvalues = std::move(values);
  return result;
}

}  // namespace sntrust
