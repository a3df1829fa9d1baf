#include "markov/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// A Ritz value counts as converged once its residual is below this. N has
/// norm 1, so the bound is absolute.
constexpr double kResidualTolerance = 1e-9;
/// Bisection stops at this bracket width (absolute, as above).
constexpr double kBisectionWidth = 1e-15;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

/// A pivot to divide by, with an exact zero replaced by a tiny value (the
/// usual Sturm-sequence guard).
double nonzero(double pivot) { return pivot != 0.0 ? pivot : 1e-300; }

/// The Lanczos tridiagonal T_j: diagonal alpha_1..alpha_j, off-diagonal
/// beta_1..beta_{j-1}.
struct Tridiagonal {
  std::vector<double> alpha;
  std::vector<double> beta;

  /// Sturm ratios q_k = alpha_k - x - beta_{k-1}^2 / q_{k-1}
  /// (= det(T_k - x) / det(T_{k-1} - x)); the count of negative q_k is the
  /// number of eigenvalues below x.
  std::size_t count_below(double x) const {
    std::size_t count = 0;
    double q = 1.0;
    for (std::size_t i = 0; i < alpha.size(); ++i) {
      const double off_sq = i > 0 ? beta[i - 1] * beta[i - 1] : 0.0;
      q = alpha[i] - x - off_sq / nonzero(q);
      if (q < 0.0) ++count;
    }
    return count;
  }

  /// The largest (`top`) or smallest eigenvalue by bisection on Sturm
  /// counts, to kBisectionWidth. By Cauchy interlacing it lies at or beyond
  /// `previous`, the same end of T_{j-1}. The outer bound is `previous`
  /// moved out by `reach` when one Sturm count confirms it, else the
  /// Gershgorin bound `limit`: near convergence an end moves far less than
  /// its distance to `limit`, so the bracket starts many halvings narrower.
  double extreme_eigenvalue(double previous, double reach, double limit,
                            bool top) const {
    const double outward = top ? 1.0 : -1.0;
    const auto beyond_all = [&](double x) {
      const std::size_t below = count_below(x);
      return top ? below == alpha.size() : below == 0;
    };
    double inner = previous - outward * kBisectionWidth;
    const double probe = previous + outward * reach;
    double outer = beyond_all(probe) ? probe : limit;
    while (std::fabs(outer - inner) > kBisectionWidth) {
      const double mid = 0.5 * (inner + outer);
      if (beyond_all(mid)) outer = mid;
      else inner = mid;
    }
    return 0.5 * (inner + outer);
  }

  /// |last component| of the unit eigenvector for the eigenvalue theta,
  /// from the twisted factorization T - theta = N_r D_r N_r^T (Parlett and
  /// Dhillon): the top-down pivots d_plus (the Sturm ratios) and the
  /// bottom-up pivots d_minus meet at the twist r with the smallest
  /// |gamma_r|, and the eigenvector is then solved outward from z_r = 1,
  /// each half in its decaying direction. A formula in the last pivot alone
  /// loses every digit once the Ritz value has converged, because T_{j-1}
  /// then has an eigenvalue closer to theta than theta's own error.
  double last_component(double theta) const {
    const std::size_t j = alpha.size();
    std::vector<double> d_plus(j);
    std::vector<double> d_minus(j);
    for (std::size_t k = 0; k < j; ++k)
      d_plus[k] = alpha[k] - theta -
                  (k > 0 ? beta[k - 1] * beta[k - 1] / nonzero(d_plus[k - 1])
                         : 0.0);
    for (std::size_t k = j; k-- > 0;)
      d_minus[k] = alpha[k] - theta -
                   (k + 1 < j ? beta[k] * beta[k] / nonzero(d_minus[k + 1])
                              : 0.0);
    std::size_t twist = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < j; ++k) {
      const double gamma =
          std::fabs(d_plus[k] + d_minus[k] - (alpha[k] - theta));
      if (gamma < best) {
        best = gamma;
        twist = k;
      }
    }
    double norm_sq = 1.0;
    double z = 1.0;
    for (std::size_t k = twist; k-- > 0;) {
      z *= -beta[k] / nonzero(d_plus[k]);
      norm_sq += z * z;
    }
    z = 1.0;
    for (std::size_t k = twist; k + 1 < j; ++k) {
      z *= -beta[k] / nonzero(d_minus[k + 1]);
      norm_sq += z * z;
    }
    return std::fabs(z) / std::sqrt(norm_sq);
  }
};

}  // namespace

SlemResult second_largest_eigenvalue(const Graph& g,
                                     const SlemOptions& options) {
  const obs::Span span{"slem.lanczos", "markov"};
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument(
        "second_largest_eigenvalue: graph must have edges");
  if (!is_connected(g))
    throw std::invalid_argument(
        "second_largest_eigenvalue: graph must be connected");

  // w = N q, with N = D^{-1/2} A D^{-1/2} (symmetric, same spectrum as P).
  TransitionOperator op{g};

  // Principal eigenvector of N (eigenvalue 1): phi_v = sqrt(deg v),
  // normalized.
  std::vector<double> phi(n);
  for (VertexId v = 0; v < n; ++v)
    phi[v] = std::sqrt(static_cast<double>(g.degree(v)));
  const double phi_norm = norm(phi);
  for (double& value : phi) value /= phi_norm;

  const auto deflate = [&](std::vector<double>& vec) {
    const double projection = dot(vec, phi);
    for (VertexId v = 0; v < n; ++v) vec[v] -= projection * phi[v];
  };

  Rng rng{options.seed};
  std::vector<double> q(n);
  for (double& value : q) value = rng.uniform_real() - 0.5;
  deflate(q);
  {
    const double q_norm = norm(q);
    if (q_norm == 0.0)
      throw std::logic_error("second_largest_eigenvalue: degenerate start");
    for (double& value : q) value /= q_norm;
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
  // Diagnostics (SNTRUST_DIAG): the larger of the two extreme Ritz
  // residuals per step, plus the estimate itself. Observes values the loop
  // already computes — the measurement is bitwise identical whether armed
  // or not.
  const bool diag = obs::diag_enabled();
  obs::ConvergenceTrace residual_trace;
  struct RecordDiag {
    bool armed;
    const SlemResult& result;
    const obs::ConvergenceTrace& residuals;
    ~RecordDiag() {
      if (!armed) return;
      obs::DiagRegistry::instance().record_trace(obs::summarize_trace(
          "slem.lanczos", 0, residuals, result.converged));
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
            "slem.lanczos", 0, result.iterations, result.mu);
    }
  } record_diag{diag, result, residual_trace};

  // Three-term Lanczos: beta_j q_{j+1} = N q_j - alpha_j q_j - beta_{j-1}
  // q_{j-1}, every new vector deflated against phi.
  Tridiagonal t;
  std::vector<double> q_prev(n, 0.0);
  std::vector<double> w;
  // Gershgorin interval of T_j. The last row's radius also counts beta_j,
  // which only widens the bracket.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  // Each end latches once its residual has been below the tolerance: ghost
  // copies of a converged value can raise the residual again afterwards.
  bool top_converged = false;
  bool bottom_converged = false;
  double top_move = 0.0;
  double bottom_move = 0.0;
  for (std::uint32_t j = 1; j <= options.max_iterations; ++j) {
    op.apply(StepKind::kSymmetric, 0.0, q, w);
    deflate(w);
    const double alpha = dot(w, q);
    const double beta_prev = t.beta.empty() ? 0.0 : t.beta.back();
    for (VertexId v = 0; v < n; ++v)
      w[v] -= alpha * q[v] + beta_prev * q_prev[v];
    const double beta = norm(w);
    t.alpha.push_back(alpha);
    lo = std::min(lo, alpha - beta_prev - beta);
    hi = std::max(hi, alpha + beta_prev + beta);

    result.iterations = j;
    // Each end starts from where it was, with twice its last move as the
    // first guess of how far it goes (T_1 starts from the far Gershgorin
    // bound).
    const double top = t.extreme_eigenvalue(
        j == 1 ? lo : result.lambda_2, 2.0 * top_move, hi, /*top=*/true);
    const double bottom = t.extreme_eigenvalue(
        j == 1 ? hi : result.lambda_n, 2.0 * bottom_move, lo, /*top=*/false);
    top_move = std::fabs(top - result.lambda_2);
    bottom_move = std::fabs(bottom - result.lambda_n);
    result.lambda_2 = top;
    result.lambda_n = bottom;
    result.mu = std::max(std::fabs(result.lambda_2),
                         std::fabs(result.lambda_n));
    // Ritz residual ||N y - theta y|| = beta_j |s_j| for each end.
    const double top_residual = beta * t.last_component(result.lambda_2);
    const double bottom_residual = beta * t.last_component(result.lambda_n);
    if (diag) residual_trace.add(std::max(top_residual, bottom_residual));
    top_converged = top_converged || top_residual < kResidualTolerance;
    bottom_converged =
        bottom_converged || bottom_residual < kResidualTolerance;
    // beta == 0 (the Krylov space closed) makes both residuals 0, so the
    // division below never sees it.
    if (top_converged && bottom_converged) {
      result.converged = true;
      break;
    }
    t.beta.push_back(beta);
    q_prev.swap(q);
    for (VertexId v = 0; v < n; ++v) q[v] = w[v] / beta;
  }
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
