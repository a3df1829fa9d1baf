// Lane walks: the evolution of point-mass walk distributions pi^{(i)} P^t
// behind the paper's sampling method (Sec. III-C, Eq. 2). Two kinds of work
// are saved. The support of a point-mass walk is tiny for the first many
// steps, so a step pulls only the rows next to it and measures TVD against
// the stationary distribution gap by gap through a prefix of pi instead of
// over all n vertices. And independent sources share every row read: a
// LaneWalk evolves kLanes of them at once.
//
// Exactness contract: each lane sums the same pre-scaled terms of a row in
// the same order as a single-vector step (markov/transition.hpp's one gather
// core), in dense and sparse passes alike, and its support evolves
// structurally — the same in every mode — so every kernel mode (dense,
// sparse, auto), lane position and block make-up produces bitwise identical
// TVD curves. The modes differ only in how much work they do;
// `SNTRUST_KERNEL` selects the process-wide default and tests pin the
// identity.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
/// LaneWalk folds this same grouping into its row pass; this standalone form
/// is the reference its tests compare every lane against.
double support_tvd(const Distribution& p, const std::vector<VertexId>& support,
                   const Distribution& pi, const StationaryPrefix& prefix);

/// Evolves up to kLanes point-mass walks of one chain together: the lane
/// walk behind the sampling method (measure_mixing sweeps blocks of kLanes
/// sources, modulated_mixing_time steps its sources as blocks). Each step
/// reads every row it gathers once for all lanes.
///
/// Layout: the state is pre-scaled and lane-interleaved, s[v][l] =
/// p_l(v) / deg v — the division a single-vector step would make — in two
/// n x kLanes buffers (current and next); the self-weighted kinds (kLazy,
/// kModulated) keep a third, p, updated in place row by row. Per vertex a
/// LaneMask holds each lane's structural support (next support = neighbours
/// of the support, plus the support itself for self-weighted kinds).
///
/// One ascending pass per step, per row: gather_row (markov/transition.hpp)
/// with one accumulator per lane, each in stored CSR order; the blend;
/// the next pre-scaled lanes; the row's lane mask; and each lane's TVD
/// folded with exactly support_tvd's gap grouping. Once every lane's
/// support covers all vertices the mask work stops and the TVD takes the
/// plain 0.5 * sum |p - pi| form, which is bitwise equal (every gap is
/// empty). So every lane is bitwise equal to a single-source walk of the
/// same chain under any kernel mode.
///
/// Kernel modes act on the block: a sparse step gathers only the rows next
/// to the union of the lane supports; auto flips the block to dense passes
/// once the summed degree of those rows reaches dense_fraction * 2m, and
/// sparse once the union covers every vertex. A dense flip lasts until
/// reset().
///
/// A step runs on the calling thread; callers parallelize across blocks.
class LaneWalk {
 public:
  struct Options {
    KernelMode mode = KernelMode::kAuto;
    /// Dense crossover as a fraction of 2m (see kernel_dense_fraction()).
    double dense_fraction = 0.5;
  };

  /// Walks of `kind` (kPlain, kLazy or kModulated with alpha in [0, 1);
  /// throws std::invalid_argument otherwise) on `g`, with TVDs against `pi`
  /// (and its `prefix`), which must outlive the walk. The second form
  /// resolves the mode and threshold from the process-wide defaults.
  LaneWalk(const Graph& g, const Distribution& pi,
           const StationaryPrefix& prefix, StepKind kind, double alpha,
           const Options& options);
  LaneWalk(const Graph& g, const Distribution& pi,
           const StationaryPrefix& prefix, StepKind kind, double alpha = 0.0);

  /// Re-points lane l at a point mass on sources[l]; 1 to kLanes sources.
  void reset(std::span<const VertexId> sources);

  /// Advances every lane one step.
  void step();

  std::size_t lanes() const { return lanes_; }
  /// TVD of lane l's current distribution against pi.
  double tvd(std::size_t lane) const { return tvd_[lane]; }
  /// p_l(v) / deg v, the pre-scaled state the next step gathers.
  double scaled(std::size_t lane, VertexId v) const {
    return s_[v].lane[lane];
  }
  /// p_l(v); self-weighted kinds only (a plain walk keeps only s).
  double probability(std::size_t lane, VertexId v) const {
    return p_[v].lane[lane];
  }
  /// Whether v is in lane l's structural support; meaningful only while
  /// !saturated().
  bool in_support(std::size_t lane, VertexId v) const {
    return (mask_[v] >> lane) & 1u;
  }
  /// Every lane's support covers all vertices; the masks are no longer kept.
  bool saturated() const { return saturated_; }

  /// True when the most recent step() ran a dense pass.
  bool last_step_dense() const { return last_step_dense_; }
  /// Summed degree of the rows next to the union support in the most recent
  /// step (0 once the block runs dense: no candidate set is built).
  EdgeIndex last_frontier_degree() const { return last_frontier_degree_; }

 private:
  enum class Pass { kSparse, kDenseMasked, kDenseSaturated };
  template <StepKind kKind>
  void step_as();
  template <StepKind kKind, Pass kPass>
  void pass(std::span<const VertexId> rows);
  void build_candidates();

  const Graph& graph_;
  const Distribution& pi_;
  const StationaryPrefix& prefix_;
  StepKind kind_;
  double alpha_;
  KernelMode mode_;
  double dense_fraction_;

  std::size_t lanes_ = 0;
  LaneMask active_ = 0;                 // one bit per lane in use
  std::vector<LaneValues> s_, next_;    // pre-scaled state, current / next
  std::vector<LaneValues> p_;           // self-weighted kinds only
  std::vector<LaneMask> mask_, next_mask_;
  // Union supports while the block runs sparse: of s_ (support_) and of the
  // step before, whose stale values next_ still holds (stale_support_).
  std::vector<VertexId> support_, stale_support_, candidates_;
  bool dense_ = false;
  bool saturated_ = false;
  double tvd_[kLanes] = {};

  bool last_step_dense_ = false;
  EdgeIndex last_frontier_degree_ = 0;

  obs::Counter& sparse_steps_;
  obs::Counter& dense_steps_;
  obs::Counter& frontier_edges_;
  obs::QuantileHistogram& step_latency_;
};

}  // namespace sntrust
