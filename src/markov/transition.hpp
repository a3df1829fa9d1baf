// The random-walk transition operator P (Eq. 1) applied to distribution
// vectors, without ever materializing the n x n matrix — and its symmetric
// form N = D^{-1/2} A D^{-1/2} (same spectrum, Sec. III-C). Every CSR
// random-walk or spectral matvec in the repo runs through the one gather
// core below, `gather_row`: TransitionOperator applies it to one vector,
// LaneWalk (markov/frontier.hpp) to kLanes lane-interleaved vectors at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
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

/// The blend write of row v (see StepKind). `self` is p_v for the
/// self-weighted walk blends and 1/sqrt(deg v) for kSymmetric; the other
/// blends ignore it.
template <StepKind kKind>
inline double blend(double acc, double alpha, double self) {
  if constexpr (kKind == StepKind::kPlain) return acc;
  else if constexpr (kKind == StepKind::kLazy) return 0.5 * acc + 0.5 * self;
  else if constexpr (kKind == StepKind::kModulated)
    return alpha * self + (1.0 - alpha) * acc;
  else if constexpr (kKind == StepKind::kOriginatorBiased)
    return acc * (1.0 - alpha);
  else return acc * self;
}

/// Sources one lane step evolves together (LaneWalk, markov/frontier.hpp).
/// A compile-time width, so the lane loops unroll into SIMD across lanes.
inline constexpr std::size_t kLanes = 4;

/// One bit per lane: a vertex's membership in each lane's support.
using LaneMask = std::uint8_t;

/// One vertex's value in every lane. Lane state is an array of these
/// (lane-interleaved), aligned so a vertex's lanes are one 32-byte load.
struct alignas(kLanes * sizeof(double)) LaneValues {
  double lane[kLanes];
};

/// The CSR gather core: acc[l] += s_w[l] for every neighbour w in the row
/// [first, last), in stored order. `Slot` is double for one vector and
/// LaneValues for a lane block. The lane loop is the only vectorized one —
/// SIMD runs across lanes, while each lane sums its own row in the same
/// order as a single-vector gather, so every lane is bitwise equal to it.
/// With kMask the gather also returns the OR of the neighbours' lane masks.
template <bool kMask, typename Slot>
inline LaneMask gather_row(const VertexId* first, const VertexId* last,
                           const Slot* s, const LaneMask* mask, double* acc) {
  LaneMask reached = 0;
  for (; first != last; ++first) {
    const VertexId w = *first;
    if constexpr (std::is_same_v<Slot, double>) {
      acc[0] += s[w];
    } else {
      for (std::size_t l = 0; l < kLanes; ++l) acc[l] += s[w].lane[l];
    }
    if constexpr (kMask) reached |= mask[w];
  }
  return reached;
}

/// The single-vector operator. A step runs in two passes:
///
///   1. pre-scale once per vertex: s_w = p_w / deg(w) for the walk blends,
///      s_w = x_w * inv_sqrt_deg(w) for kSymmetric. Each s_w is the exact
///      double a per-edge expression would produce, computed n times
///      instead of m;
///   2. gather_row over each row, then one blend write per row.
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

  /// 1/sqrt(deg v), 0 for isolated vertices (the kSymmetric scaling).
  const std::vector<double>& inv_sqrt_degree();

 private:
  const Graph& graph_;
  std::vector<double> scaled_;        // s
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
