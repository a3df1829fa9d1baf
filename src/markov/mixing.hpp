// The sampling method for measuring mixing time (paper Sec. III-C):
// evolve the exact walk distribution pi^{(i)} P^t from sampled source
// vertices i and record the total variation distance to the stationary
// distribution at each step.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "markov/distribution.hpp"
#include "markov/frontier.hpp"

namespace sntrust {

struct MixingOptions {
  /// Number of source vertices sampled uniformly at random (the paper uses
  /// 100). They are evolved kLanes at a time (LaneWalk): the cost is one
  /// row pass per block of sources per step — frontier-sparse for short
  /// walks, O(m) once the support saturates.
  std::uint32_t num_sources = 100;
  /// Maximum walk length to evolve.
  std::uint32_t max_walk_length = 100;
  /// Use the lazy chain (I + P)/2; keeps the TVD series monotone and handles
  /// near-bipartite graphs. The paper's plots use the plain chain.
  bool lazy = false;
  std::uint64_t seed = 1;
  /// Kernel selection for the distribution evolution; unset inherits the
  /// process-wide mode (SNTRUST_KERNEL / set_kernel_mode). Every mode is
  /// bitwise identical — this only trades bookkeeping for touched edges.
  std::optional<KernelMode> kernel;
  /// Auto-mode dense crossover as a fraction of 2m; unset inherits
  /// SNTRUST_KERNEL_THRESHOLD. 0 forces dense gathers from the first step,
  /// +infinity keeps the sparse pull until the support saturates.
  std::optional<double> kernel_dense_fraction;
};

/// TVD-vs-walk-length curves for a set of sources.
struct MixingCurves {
  std::vector<VertexId> sources;
  /// tvd[s][t] = || pi - pi^{(sources[s])} P^t ||_tv, t in [0, max_len].
  std::vector<std::vector<double>> tvd;

  /// Mean TVD over sources at step t.
  std::vector<double> mean_curve() const;
  /// Max TVD over sources at step t (the max_i of Eq. 2 restricted to the
  /// sampled sources).
  std::vector<double> max_curve() const;
};

/// Measures TVD curves from sampled sources. Requires a connected graph with
/// at least one edge (throws std::invalid_argument otherwise).
MixingCurves measure_mixing(const Graph& g, const MixingOptions& options);

/// Smallest t with max-over-sources TVD <= epsilon, or nullopt-like
/// UINT32_MAX when the curve never drops below epsilon within max_walk_length.
std::uint32_t mixing_time_estimate(const MixingCurves& curves, double epsilon);

/// Monte-Carlo variant of measure_mixing: instead of evolving the exact
/// distribution, sample `walks_per_point` independent walks per (source, t)
/// and compare the *empirical* endpoint distribution to pi. This is the
/// estimator a fully decentralized measurer would use; it carries O(1/sqrt(
/// walks)) sampling noise that floors the measured TVD (the tests pin the
/// bias against the exact curves).
MixingCurves measure_mixing_monte_carlo(const Graph& g,
                                        const MixingOptions& options,
                                        std::uint32_t walks_per_point);

}  // namespace sntrust
