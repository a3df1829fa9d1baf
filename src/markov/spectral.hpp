// Spectral machinery: second largest eigenvalue modulus (SLEM) of the
// transition matrix and the Sinclair mixing-time bounds built from it
// (paper Sec. III-C and Table I).
#pragma once

#include <cstdint>

#include "graph/graph.hpp"

namespace sntrust {

struct SlemOptions {
  std::uint32_t max_iterations = 2000;
  std::uint64_t seed = 7;
};

struct SlemResult {
  /// mu = max(|lambda_2|, |lambda_n|) of P.
  double mu = 0.0;
  /// The two ends of P's spectrum below the principal eigenvalue 1.
  double lambda_2 = 0.0;
  double lambda_n = 0.0;
  std::uint32_t iterations = 0;
  /// Both extreme Ritz residuals fell below 1e-9 (or the Krylov space
  /// closed) within max_iterations.
  bool converged = false;
};

/// The SLEM of the random-walk matrix P = D^{-1} A by three-term Lanczos on
/// the similar symmetric operator N = D^{-1/2} A D^{-1/2}, with the known
/// principal eigenvector D^{1/2} 1 deflated from every new vector. Each step
/// takes the extreme eigenvalues of the tridiagonal T_j by Sturm bisection
/// and stops once both of their Ritz residuals are below 1e-9; at
/// max_iterations it returns the current values with converged = false.
/// There is no reorthogonalization: only the two extremes are needed, and
/// lost orthogonality only adds ghost copies of values already converged.
/// Bitwise identical at any thread count. Requires a connected graph with
/// >= 1 edge (throws std::invalid_argument otherwise).
SlemResult second_largest_eigenvalue(const Graph& g,
                                     const SlemOptions& options = {});

/// Sinclair bounds on the mixing time T(epsilon) from mu (paper Sec. III-C):
///   lower: (mu / (1 - mu)) * ln(1 / (2 epsilon))
///   upper: (ln n + ln(1 / epsilon)) / (1 - mu)
struct MixingBounds {
  double lower = 0.0;
  double upper = 0.0;
};

/// Preconditions: 0 < mu < 1, 0 < epsilon < 1, n >= 2.
MixingBounds sinclair_bounds(double mu, double epsilon, VertexId n);

}  // namespace sntrust
