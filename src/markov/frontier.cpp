#include "markov/frontier.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"

namespace sntrust {

namespace {

/// Runtime override of the process-wide kernel mode; -1 = none.
std::atomic<int> g_kernel_override{-1};

int env_kernel_mode() {
  static const int mode = [] {
    const std::optional<KernelMode> parsed =
        parse_kernel_mode(env_string("SNTRUST_KERNEL", "auto"));
    return static_cast<int>(parsed.value_or(KernelMode::kAuto));
  }();
  return mode;
}

}  // namespace

std::string to_string(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto: return "auto";
    case KernelMode::kDense: return "dense";
    case KernelMode::kSparse: return "sparse";
  }
  return "?";
}

std::optional<KernelMode> parse_kernel_mode(const std::string& text) {
  std::string value{text};
  std::transform(value.begin(), value.end(), value.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (value == "auto") return KernelMode::kAuto;
  if (value == "dense") return KernelMode::kDense;
  if (value == "sparse") return KernelMode::kSparse;
  return std::nullopt;
}

KernelMode kernel_mode() {
  const int override_mode =
      g_kernel_override.load(std::memory_order_relaxed);
  if (override_mode >= 0) return static_cast<KernelMode>(override_mode);
  return static_cast<KernelMode>(env_kernel_mode());
}

void set_kernel_mode(KernelMode mode) {
  g_kernel_override.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void clear_kernel_mode_override() {
  g_kernel_override.store(-1, std::memory_order_relaxed);
}

ScopedKernelMode::ScopedKernelMode(KernelMode mode)
    : previous_(g_kernel_override.load(std::memory_order_relaxed)) {
  set_kernel_mode(mode);
}

ScopedKernelMode::~ScopedKernelMode() {
  g_kernel_override.store(previous_, std::memory_order_relaxed);
}

double kernel_dense_fraction() {
  static const double fraction =
      std::max(0.0, env_double("SNTRUST_KERNEL_THRESHOLD", 0.5));
  return fraction;
}

StationaryPrefix::StationaryPrefix(const Distribution& pi)
    : prefix_(pi.size() + 1, 0.0) {
  for (std::size_t v = 0; v < pi.size(); ++v)
    prefix_[v + 1] = prefix_[v] + pi[v];
}

double support_tvd(const Distribution& p, const std::vector<VertexId>& support,
                   const Distribution& pi, const StationaryPrefix& prefix) {
  if (p.size() != pi.size() || prefix.size() != pi.size())
    throw std::invalid_argument("support_tvd: size mismatch");
  double diff = 0.0;  // sum over support of |p - pi|
  double tail = 0.0;  // stationary mass outside the support, gap by gap
  VertexId cursor = 0;
  for (const VertexId v : support) {
    tail += prefix.range_mass(cursor, v);
    diff += std::fabs(p[v] - pi[v]);
    cursor = v + 1;
  }
  tail += prefix.range_mass(cursor, static_cast<VertexId>(pi.size()));
  return 0.5 * (diff + tail);
}

FrontierWalk::FrontierWalk(const Graph& g)
    : FrontierWalk(g, Options{kernel_mode(), kernel_dense_fraction()}) {}

FrontierWalk::FrontierWalk(const Graph& g, const Options& options)
    : graph_(g),
      mode_(options.mode),
      dense_fraction_(options.dense_fraction),
      op_(g),
      p_(g.num_vertices(), 0.0),
      buffer_(g.num_vertices(), 0.0),
      seen_(g.num_vertices(), 0),
      sparse_steps_(obs::metrics_counter("kernel.sparse_steps")),
      dense_steps_(obs::metrics_counter("kernel.dense_steps")),
      frontier_edges_(obs::metrics_counter("kernel.frontier_edges")),
      step_latency_(obs::metrics_quantile("kernel.step_ms")) {}

void FrontierWalk::reset(VertexId source) {
  const VertexId n = graph_.num_vertices();
  if (source >= n)
    throw std::out_of_range("FrontierWalk::reset: source out of range");
  if (saturated_) {
    std::fill(p_.begin(), p_.end(), 0.0);
  } else {
    for (const VertexId v : support_) p_[v] = 0.0;
  }
  p_[source] = 1.0;
  support_.assign(1, source);
  saturated_ = n == 1;
  last_step_dense_ = false;
  last_frontier_degree_ = 0;
}

void FrontierWalk::build_candidates(bool include_support) {
  candidates_.clear();
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: clear markers and restart epochs
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const auto& offsets = graph_.offsets();
  const auto& targets = graph_.targets();
  if (include_support) {
    for (const VertexId v : support_) {
      seen_[v] = epoch_;
      candidates_.push_back(v);
    }
  }
  for (const VertexId v : support_) {
    for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i) {
      const VertexId w = targets[i];
      if (seen_[w] != epoch_) {
        seen_[w] = epoch_;
        candidates_.push_back(w);
      }
    }
  }
  // Large candidate sets are cheaper to re-collect in order by scanning the
  // epoch marks than to sort; both produce the same ascending list.
  const VertexId n = graph_.num_vertices();
  if (candidates_.size() >= n / 8) {
    candidates_.clear();
    for (VertexId v = 0; v < n; ++v)
      if (seen_[v] == epoch_) candidates_.push_back(v);
  } else {
    std::sort(candidates_.begin(), candidates_.end());
  }
  EdgeIndex degree = 0;
  for (const VertexId v : candidates_)
    degree += offsets[v + 1] - offsets[v];
  last_frontier_degree_ = degree;
}

void FrontierWalk::clear_buffer() {
  if (buffer_saturated_) {
    std::fill(buffer_.begin(), buffer_.end(), 0.0);
    buffer_saturated_ = false;
  } else {
    for (const VertexId v : buffer_support_) buffer_[v] = 0.0;
  }
}

void FrontierWalk::dense_step(StepKind kind, double alpha) {
  op_.apply(kind, alpha, p_, buffer_);
}

void FrontierWalk::sparse_step(StepKind kind, double alpha) {
  // Only the candidate rows can be nonzero after the step; the operator
  // pre-scales the support alone and gathers those rows.
  op_.apply_rows(kind, alpha, p_, support_, candidates_, buffer_);
}

void FrontierWalk::step(StepKind kind, double alpha) {
  if (kind == StepKind::kOriginatorBiased || kind == StepKind::kSymmetric)
    throw std::invalid_argument("FrontierWalk::step: not a walk step kind");
  if (kind == StepKind::kModulated && (alpha < 0.0 || alpha >= 1.0))
    throw std::invalid_argument("FrontierWalk::step: alpha must be in [0,1)");

  const obs::Stopwatch step_clock;
  if (saturated_) {
    // Full support is a fixed point of the frontier expansion (every vertex
    // of a graph without isolated vertices has a neighbour in it), so the
    // walk stays dense; the bookkeeping is dropped entirely.
    dense_step(kind, alpha);
    std::swap(p_, buffer_);
    buffer_saturated_ = true;
    dense_steps_.add(1);
    last_step_dense_ = true;
    last_frontier_degree_ = 0;
    step_latency_.record(step_clock.elapsed_ms());
    return;
  }

  // Structural support evolution: the next support is exactly the candidate
  // row set, computed identically in every kernel mode so TVD grouping (and
  // thus every curve value) never depends on the mode.
  build_candidates(/*include_support=*/kind != StepKind::kPlain);

  bool dense = false;
  switch (mode_) {
    case KernelMode::kDense:
      dense = true;
      break;
    case KernelMode::kSparse:
      dense = false;
      break;
    case KernelMode::kAuto:
      dense = static_cast<double>(last_frontier_degree_) >=
              dense_fraction_ * static_cast<double>(graph_.targets().size());
      break;
  }

  if (dense) {
    dense_step(kind, alpha);  // overwrites every row; no pre-clear needed
    buffer_saturated_ = false;
  } else {
    clear_buffer();
    sparse_step(kind, alpha);
    frontier_edges_.add(last_frontier_degree_);
  }

  std::swap(p_, buffer_);
  std::swap(support_, buffer_support_);  // buffer keeps the old support
  std::swap(support_, candidates_);      // p takes the candidate rows
  if (support_.size() == graph_.num_vertices()) saturated_ = true;

  if (dense) dense_steps_.add(1);
  else sparse_steps_.add(1);
  last_step_dense_ = dense;
  step_latency_.record(step_clock.elapsed_ms());
}

double FrontierWalk::tvd(const Distribution& pi,
                         const StationaryPrefix& prefix) const {
  if (!saturated_) return support_tvd(p_, support_, pi, prefix);
  if (p_.size() != pi.size() || prefix.size() != pi.size())
    throw std::invalid_argument("FrontierWalk::tvd: size mismatch");
  // Full-support fast path: bitwise equal to support_tvd over all vertices
  // (every gap is empty, so the tail term is exactly +0.0).
  double diff = 0.0;
  for (std::size_t v = 0; v < p_.size(); ++v)
    diff += std::fabs(p_[v] - pi[v]);
  return 0.5 * diff;
}

}  // namespace sntrust
