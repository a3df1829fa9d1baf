// Frontier-sparse kernels for evolving walk distributions from point-mass
// sources (the regime of the paper's sampling method, Eq. 2): the support of
// pi^{(i)} P^t is tiny for the first many steps, so the O(m) dense gather and
// the O(n) total-variation pass waste almost all of their work. This layer
// tracks the distribution's support explicitly, computes each step as a pull
// restricted to frontier-adjacent rows, and measures TVD against the
// stationary distribution in O(|support|) with a precomputed pi prefix
// structure.
//
// Exactness contract: dense and sparse steps are the two entry points of one
// gather core (markov/transition.hpp), which sums the same pre-scaled terms
// of a row in the same order either way — so every kernel mode (dense,
// sparse, auto) produces bitwise identical distributions and TVD curves. The
// modes differ only in how much work they do, never in what they compute;
// `SNTRUST_KERNEL` selects the process-wide default and tests pin the
// identity.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "markov/distribution.hpp"
#include "markov/transition.hpp"

namespace sntrust {
namespace obs {
class Counter;
class QuantileHistogram;
}  // namespace obs

/// Kernel selection for distribution evolution. All modes are bitwise
/// identical; they trade bookkeeping for touched-edge savings.
enum class KernelMode {
  kAuto,    ///< sparse pull until the frontier degree crosses the dense
            ///< threshold, then dense gathers (the default)
  kDense,   ///< always the full parallel row gather
  kSparse,  ///< sparse pull until the support saturates to all vertices
};

std::string to_string(KernelMode mode);
/// Parses "auto" / "dense" / "sparse" (case-insensitive); nullopt otherwise.
std::optional<KernelMode> parse_kernel_mode(const std::string& text);

/// Process-wide kernel mode: the runtime override if set, else
/// SNTRUST_KERNEL (default auto).
KernelMode kernel_mode();
/// Runtime override of the process-wide mode (tests, --kernel).
void set_kernel_mode(KernelMode mode);
/// Drops the runtime override, restoring the SNTRUST_KERNEL default.
void clear_kernel_mode_override();

/// RAII kernel-mode override; restores the previous state on destruction.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode);
  ~ScopedKernelMode();
  ScopedKernelMode(const ScopedKernelMode&) = delete;
  ScopedKernelMode& operator=(const ScopedKernelMode&) = delete;

 private:
  int previous_;  // encoded previous override (-1 = none)
};

/// Auto-mode crossover threshold: a step uses the dense gather when the
/// summed degree of the frontier-adjacent candidate rows reaches
/// `fraction * 2m`. SNTRUST_KERNEL_THRESHOLD (default 0.5); 0 forces dense
/// from the first step, +inf keeps the sparse pull until saturation.
double kernel_dense_fraction();

/// Prefix sums of the stationary distribution: prefix(v) = sum_{u < v} pi_u.
/// The support-aware TVD charges the mass of every gap between consecutive
/// support vertices as one O(1) prefix difference instead of an O(gap) scan.
class StationaryPrefix {
 public:
  explicit StationaryPrefix(const Distribution& pi);

  /// sum_{v in [begin, end)} pi_v.
  double range_mass(VertexId begin, VertexId end) const {
    return prefix_[end] - prefix_[begin];
  }
  VertexId size() const { return static_cast<VertexId>(prefix_.size() - 1); }

 private:
  std::vector<double> prefix_;  // n + 1 entries
};

/// Support-aware total variation distance to the stationary distribution:
///   0.5 * ( sum_{v in supp} |p_v - pi_v|  +  sum_{v not in supp} pi_v )
/// with the complement mass folded gap-by-gap through `prefix` (ascending
/// order, so the grouping is deterministic). `support` must be sorted
/// ascending and cover every nonzero of `p`; vertices listed with p_v == 0
/// are harmless (their two contributions cancel exactly in real arithmetic).
double support_tvd(const Distribution& p, const std::vector<VertexId>& support,
                   const Distribution& pi, const StationaryPrefix& prefix);

/// Reusable frontier-walk workspace bound to one graph: a distribution, its
/// sorted support, and the scratch needed to expand the frontier. Sweeps
/// construct one per worker and reset() it per source.
///
/// Support evolution is structural (next support = candidate rows =
/// neighbours of the support, plus the support itself for self-weighted
/// kinds) and runs identically in every kernel mode, so TVD grouping — and
/// therefore every curve value — is mode-independent. Once the support
/// saturates to all n vertices (a fixed point of the expansion on any graph
/// without isolated vertices) the walk drops the bookkeeping and runs pure
/// dense steps.
class FrontierWalk {
 public:
  struct Options {
    KernelMode mode = KernelMode::kAuto;
    /// Dense crossover as a fraction of 2m (see kernel_dense_fraction()).
    double dense_fraction = 0.5;
  };

  /// Resolves mode / threshold from the process-wide defaults.
  explicit FrontierWalk(const Graph& g);
  FrontierWalk(const Graph& g, const Options& options);

  /// Re-points the walk at a point mass on `source`.
  void reset(VertexId source);

  /// Advances one step of the chosen chain (alpha is the kModulated retain
  /// weight, in [0, 1)). Walk kinds kPlain, kLazy and kModulated only.
  void step(StepKind kind, double alpha = 0.0);

  /// TVD of the current distribution against pi; support-aware until the
  /// walk saturates. `pi`/`prefix` must match the graph's vertex count.
  double tvd(const Distribution& pi, const StationaryPrefix& prefix) const;

  const Distribution& distribution() const { return p_; }
  /// Sorted structural support of the current distribution. Meaningful only
  /// while !saturated(); saturated walks cover every vertex.
  const std::vector<VertexId>& support() const { return support_; }
  bool saturated() const { return saturated_; }

  /// True when the most recent step() used the dense gather.
  bool last_step_dense() const { return last_step_dense_; }
  /// Summed degree of the candidate rows in the most recent step (0 for
  /// saturated dense steps — no candidate set is built).
  EdgeIndex last_frontier_degree() const { return last_frontier_degree_; }

 private:
  void build_candidates(bool include_support);
  void clear_buffer();
  void dense_step(StepKind kind, double alpha);
  void sparse_step(StepKind kind, double alpha);
  void commit_step();

  const Graph& graph_;
  KernelMode mode_;
  double dense_fraction_;
  TransitionOperator op_;

  Distribution p_, buffer_;
  std::vector<VertexId> support_;         // sorted support of p_
  std::vector<VertexId> buffer_support_;  // sorted support of buffer_
  std::vector<VertexId> candidates_;      // rows the pending step writes
  std::vector<std::uint32_t> seen_;       // epoch marks for frontier expansion
  std::uint32_t epoch_ = 0;
  bool saturated_ = false;
  bool buffer_saturated_ = false;

  bool last_step_dense_ = false;
  EdgeIndex last_frontier_degree_ = 0;

  obs::Counter& sparse_steps_;
  obs::Counter& dense_steps_;
  obs::Counter& frontier_edges_;
  obs::QuantileHistogram& step_latency_;
};

}  // namespace sntrust
