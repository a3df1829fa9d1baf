// The random-walk transition operator P (Eq. 1) applied to distribution
// vectors, without ever materializing the n x n matrix — and its symmetric
// form N = D^{-1/2} A D^{-1/2} (same spectrum, Sec. III-C). Every CSR
// random-walk or spectral matvec in the repo runs through the one gather
// core below.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "markov/distribution.hpp"

namespace sntrust {

/// The blend a gather writes into each output row. `acc` is the row's sum of
/// pre-scaled terms s_w over its neighbours w, in stored CSR order.
enum class StepKind {
  kPlain,             ///< out_v = acc                    (s_w = p_w / deg w)
  kLazy,              ///< out_v = 0.5 acc + 0.5 p_v      (s_w = p_w / deg w)
  kModulated,         ///< out_v = alpha p_v + (1 - alpha) acc
  kOriginatorBiased,  ///< out_v = acc (1 - alpha); the caller adds the alpha
                      ///< point mass at the originator
  kSymmetric,         ///< out_v = acc / sqrt(deg v)  (s_w = x_w / sqrt(deg w)):
                      ///< y = N x; isolated vertices map to 0
};

/// The one CSR gather core. A step runs in two passes:
///
///   1. pre-scale once per vertex: s_w = p_w / deg(w) for the walk blends,
///      s_w = x_w * inv_sqrt_deg(w) for kSymmetric. Each s_w is the exact
///      double a per-edge expression would produce, computed n times
///      instead of m;
///   2. gather: acc += s_w over each row in stored order, then one blend
///      write per row.
///
/// Rows are independent and sum in a fixed order, so the result is bitwise
/// identical at any thread count. Terms with p_w == 0 contribute +0.0, which
/// cannot change an accumulator that starts at +0.0, so no zero guard is
/// needed for bitwise equality with a zero-skipping per-edge loop.
///
/// Holds one n-sized scratch vector (plus 1/sqrt(deg) once a kSymmetric
/// step has run). Not thread-safe; sweeps hold one per worker.
class TransitionOperator {
 public:
  explicit TransitionOperator(const Graph& g);

  /// All rows. `out` is resized and overwritten; it must not alias `p`
  /// (throws std::invalid_argument, as for a size mismatch). `alpha` is the
  /// kModulated / kOriginatorBiased weight.
  void apply(StepKind kind, double alpha, const Distribution& p,
             Distribution& out);

  /// Only the sorted `rows`, for a walk whose nonzeros all lie on the sorted
  /// `support`: pre-scales the support alone and writes out[v] for v in
  /// `rows` (other entries are untouched). Bitwise equal to the same rows of
  /// apply(). A row much longer than the support gathers row ∩ support by
  /// binary search, which visits the same nonzero terms in the same order.
  /// Walk blends only.
  void apply_rows(StepKind kind, double alpha, const Distribution& p,
                  std::span<const VertexId> support,
                  std::span<const VertexId> rows, Distribution& out);

  /// 1/sqrt(deg v), 0 for isolated vertices (the kSymmetric scaling).
  const std::vector<double>& inv_sqrt_degree();

 private:
  const Graph& graph_;
  std::vector<double> scaled_;        // s; zero off the support between
                                      // apply_rows calls
  bool scaled_dense_ = false;         // apply() filled every entry of s
  std::vector<double> inv_sqrt_deg_;  // built on first use
};

/// Applies one step of the simple random walk: out_w = sum_{v ~ w} p_v/deg(v).
/// `out` is resized and overwritten; `out` must not alias `p`. Allocates a
/// fresh operator: loops should hold a TransitionOperator instead.
void step_distribution(const Graph& g, const Distribution& p,
                       Distribution& out);

/// Lazy-walk step: out = 1/2 p + 1/2 pP. The lazy chain is aperiodic on any
/// connected graph, which the spectral machinery relies on for bipartite-ish
/// inputs.
void step_distribution_lazy(const Graph& g, const Distribution& p,
                            Distribution& out);

/// Evolves `p` for `steps` simple-walk steps in place (double buffering).
void evolve(const Graph& g, Distribution& p, std::uint32_t steps,
            bool lazy = false);

}  // namespace sntrust
