#include "markov/spectral.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

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

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

}  // namespace

SlemResult second_largest_eigenvalue(const Graph& g,
                                     const SlemOptions& options) {
  const obs::Span span{"slem.power_iteration", "markov"};
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument(
        "second_largest_eigenvalue: graph must have edges");
  if (!is_connected(g))
    throw std::invalid_argument(
        "second_largest_eigenvalue: graph must be connected");

  // y = N x, with N = D^{-1/2} A D^{-1/2} (symmetric, same spectrum as P).
  TransitionOperator op{g};

  // Principal eigenvector of N (eigenvalue 1): phi_v = sqrt(deg v),
  // normalized.
  std::vector<double> phi(n);
  for (VertexId v = 0; v < n; ++v)
    phi[v] = std::sqrt(static_cast<double>(g.degree(v)));
  const double phi_norm = norm(phi);
  for (double& value : phi) value /= phi_norm;

  Rng rng{options.seed};
  std::vector<double> x(n);
  for (double& value : x) value = rng.uniform_real() - 0.5;

  const auto deflate = [&](std::vector<double>& vec) {
    const double projection = dot(vec, phi);
    for (VertexId v = 0; v < n; ++v) vec[v] -= projection * phi[v];
  };
  deflate(x);
  {
    const double x_norm = norm(x);
    if (x_norm == 0.0)
      throw std::logic_error("second_largest_eigenvalue: degenerate start");
    for (double& value : x) value /= x_norm;
  }

  SlemResult result;
  // Flush the iteration count into the metrics registry on every exit path.
  struct CountIterations {
    const std::uint32_t& iterations;
    ~CountIterations() {
      static obs::Counter& c = obs::metrics_counter("slem.iterations");
      c.add(iterations);
    }
  } count_iterations{result.iterations};
  // Diagnostics (SNTRUST_DIAG): residual trajectory |estimate - previous|
  // plus the estimate itself. Observes values the loop already computes —
  // the measurement is bitwise identical whether armed or not.
  const bool diag = obs::diag_enabled();
  obs::ConvergenceTrace residual_trace;
  struct RecordDiag {
    bool armed;
    const SlemResult& result;
    const obs::ConvergenceTrace& residuals;
    ~RecordDiag() {
      if (!armed) return;
      obs::DiagRegistry::instance().record_trace(obs::summarize_trace(
          "slem.power_iteration", 0, residuals, result.converged));
      obs::ConfidenceInterval mu;
      mu.mean = mu.lo = mu.hi = result.mu;
      mu.n = 1;
      mu.ess = 1.0;
      obs::DiagRegistry::instance().record_estimate("slem.mu", mu);
      obs::ConfidenceInterval gap = mu;
      gap.mean = gap.lo = gap.hi = 1.0 - result.mu;
      obs::DiagRegistry::instance().record_estimate("slem.spectral_gap", gap);
      if (!result.converged)
        obs::DiagRegistry::instance().record_nonconverged(
            "slem.power_iteration", 0, result.iterations, result.mu);
    }
  } record_diag{diag, result, residual_trace};
  std::vector<double> y;
  double previous = 0.0;
  for (std::uint32_t it = 1; it <= options.max_iterations; ++it) {
    op.apply(StepKind::kSymmetric, 0.0, x, y);
    deflate(y);  // re-deflate every step to kill numeric drift toward phi
    const double y_norm = norm(y);
    result.iterations = it;
    if (y_norm == 0.0) {  // x was (numerically) orthogonal to all of spectrum
      result.mu = 0.0;
      result.converged = true;
      return result;
    }
    // Rayleigh-style estimate of |lambda|: ||N x|| for unit x bounds the
    // dominant remaining modulus; the iterate converges to it.
    const double estimate = y_norm;
    if (diag) residual_trace.add(std::fabs(estimate - previous));
    for (VertexId v = 0; v < n; ++v) x[v] = y[v] / y_norm;
    if (std::fabs(estimate - previous) < options.tolerance) {
      result.mu = estimate;
      result.converged = true;
      return result;
    }
    previous = estimate;
  }
  result.mu = previous;
  result.converged = false;
  return result;
}

MixingBounds sinclair_bounds(double mu, double epsilon, VertexId n) {
  if (!(mu > 0.0) || !(mu < 1.0))
    throw std::invalid_argument("sinclair_bounds: mu must be in (0,1)");
  if (!(epsilon > 0.0) || !(epsilon < 1.0))
    throw std::invalid_argument("sinclair_bounds: epsilon must be in (0,1)");
  if (n < 2) throw std::invalid_argument("sinclair_bounds: n must be >= 2");
  MixingBounds bounds;
  bounds.lower = mu / (1.0 - mu) * std::log(1.0 / (2.0 * epsilon));
  bounds.upper =
      (std::log(static_cast<double>(n)) + std::log(1.0 / epsilon)) /
      (1.0 - mu);
  return bounds;
}

}  // namespace sntrust
