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

LaneWalk::LaneWalk(const Graph& g, const Distribution& pi,
                   const StationaryPrefix& prefix, StepKind kind, double alpha)
    : LaneWalk(g, pi, prefix, kind, alpha,
               Options{kernel_mode(), kernel_dense_fraction()}) {}

LaneWalk::LaneWalk(const Graph& g, const Distribution& pi,
                   const StationaryPrefix& prefix, StepKind kind, double alpha,
                   const Options& options)
    : graph_(g),
      pi_(pi),
      prefix_(prefix),
      kind_(kind),
      alpha_(alpha),
      mode_(options.mode),
      dense_fraction_(options.dense_fraction),
      s_(g.num_vertices()),
      next_(g.num_vertices()),
      mask_(g.num_vertices(), 0),
      next_mask_(g.num_vertices(), 0),
      sparse_steps_(obs::metrics_counter("kernel.sparse_steps")),
      dense_steps_(obs::metrics_counter("kernel.dense_steps")),
      frontier_edges_(obs::metrics_counter("kernel.frontier_edges")),
      step_latency_(obs::metrics_quantile("kernel.step_ms")) {
  if (kind != StepKind::kPlain && kind != StepKind::kLazy &&
      kind != StepKind::kModulated)
    throw std::invalid_argument("LaneWalk: not a walk step kind");
  if (kind == StepKind::kModulated && !(alpha >= 0.0 && alpha < 1.0))
    throw std::invalid_argument("LaneWalk: alpha must be in [0,1)");
  if (pi.size() != g.num_vertices() || prefix.size() != g.num_vertices())
    throw std::invalid_argument("LaneWalk: size mismatch");
  if (kind != StepKind::kPlain) p_.resize(g.num_vertices());
}

void LaneWalk::reset(std::span<const VertexId> sources) {
  const VertexId n = graph_.num_vertices();
  if (sources.empty() || sources.size() > kLanes)
    throw std::invalid_argument("LaneWalk::reset: need 1 to kLanes sources");
  for (const VertexId v : sources)
    if (v >= n) throw std::out_of_range("LaneWalk::reset: source out of range");

  // A dense pass wrote every row; sparse passes only the two union supports.
  if (dense_) {
    std::fill(s_.begin(), s_.end(), LaneValues{});
    std::fill(next_.begin(), next_.end(), LaneValues{});
    std::fill(p_.begin(), p_.end(), LaneValues{});
    std::fill(mask_.begin(), mask_.end(), 0);
    std::fill(next_mask_.begin(), next_mask_.end(), 0);
  } else {
    for (const VertexId v : support_) {
      s_[v] = LaneValues{};
      if (!p_.empty()) p_[v] = LaneValues{};
      mask_[v] = 0;
    }
    for (const VertexId v : stale_support_) {
      next_[v] = LaneValues{};
      next_mask_[v] = 0;
    }
  }

  lanes_ = sources.size();
  active_ = static_cast<LaneMask>((1u << lanes_) - 1);
  for (std::size_t l = 0; l < lanes_; ++l) {
    const VertexId v = sources[l];
    s_[v].lane[l] = 1.0 / static_cast<double>(graph_.degree_unchecked(v));
    if (!p_.empty()) p_[v].lane[l] = 1.0;
    mask_[v] |= static_cast<LaneMask>(1u << l);
    // support_tvd of the point mass: support {v}, grouped the same way.
    double diff = 0.0, tail = 0.0;
    tail += prefix_.range_mass(0, v);
    diff += std::fabs(1.0 - pi_[v]);
    tail += prefix_.range_mass(v + 1, n);
    tvd_[l] = 0.5 * (diff + tail);
  }
  support_.assign(sources.begin(), sources.end());
  std::sort(support_.begin(), support_.end());
  support_.erase(std::unique(support_.begin(), support_.end()),
                 support_.end());
  stale_support_.clear();
  // Auto at threshold 0 is dense from the first step (every degree >= 0).
  dense_ = mode_ == KernelMode::kDense ||
           (mode_ == KernelMode::kAuto && !(dense_fraction_ > 0.0));
  saturated_ = n == 1;
  last_step_dense_ = false;
  last_frontier_degree_ = 0;
}

void LaneWalk::build_candidates() {
  // next_ still holds the step before s_. Its values need no clearing: that
  // step's union support lies inside this step's candidate rows (a support
  // vertex's neighbours are in the next support, so it is next to it), and
  // the pass overwrites those rows. The masks, which the push ORs into, do.
  for (const VertexId v : stale_support_) next_mask_[v] = 0;
  // Push each support vertex's lane mask to the rows it reaches: the next
  // lane supports, and their union as the candidate rows.
  const EdgeIndex* const offsets = graph_.offsets().data();
  const VertexId* const targets = graph_.targets().data();
  candidates_.clear();
  const auto reach = [&](VertexId x, LaneMask m) {
    if (next_mask_[x] == 0) candidates_.push_back(x);
    next_mask_[x] |= m;
  };
  const bool self = kind_ != StepKind::kPlain;
  for (const VertexId w : support_) {
    const LaneMask m = mask_[w];
    if (self) reach(w, m);
    for (EdgeIndex i = offsets[w]; i < offsets[w + 1]; ++i) reach(targets[i], m);
  }
  // Large candidate sets are cheaper to re-collect in order by scanning the
  // masks than to sort; both produce the same ascending list.
  const VertexId n = graph_.num_vertices();
  if (candidates_.size() >= n / 8) {
    candidates_.clear();
    for (VertexId v = 0; v < n; ++v)
      if (next_mask_[v] != 0) candidates_.push_back(v);
  } else {
    std::sort(candidates_.begin(), candidates_.end());
  }
  EdgeIndex degree = 0;
  for (const VertexId v : candidates_) degree += offsets[v + 1] - offsets[v];
  last_frontier_degree_ = degree;
}

template <StepKind kKind, LaneWalk::Pass kPass>
void LaneWalk::pass(std::span<const VertexId> rows) {
  constexpr bool kSelf = kKind != StepKind::kPlain;
  constexpr bool kMasked = kPass != Pass::kDenseSaturated;
  const VertexId n = graph_.num_vertices();
  const EdgeIndex* const offsets = graph_.offsets().data();
  const VertexId* const targets = graph_.targets().data();
  const LaneValues* const s = s_.data();
  LaneValues* const next = next_.data();
  LaneValues* const p = p_.data();
  const LaneMask* const mask = mask_.data();
  LaneMask* const next_mask = next_mask_.data();
  const double* const pi = pi_.data();
  const std::span<const VertexId> support{support_};
  const double alpha = alpha_;

  double diff[kLanes] = {};
  double tail[kLanes] = {};
  VertexId cursor[kLanes] = {};
  LaneMask covered = active_;  // lanes whose support holds every row so far
  EdgeIndex gathered = 0;
  const std::size_t count = kPass == Pass::kSparse ? rows.size() : n;
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId v =
        kPass == Pass::kSparse ? rows[i] : static_cast<VertexId>(i);
    const VertexId* const first = targets + offsets[v];
    const VertexId* const last = targets + offsets[v + 1];
    double acc[kLanes] = {};
    LaneMask m = 0;
    if constexpr (kPass == Pass::kSparse) {
      m = next_mask[v];  // pushed by build_candidates
      if (support.size() * 4 < static_cast<std::size_t>(last - first)) {
        // Hub row: walk the ascending support and binary-search each vertex
        // in the sorted row — row ∩ support, in row order. The rest of the
        // row holds +0.0 in every lane, which would not change acc.
        const VertexId* lo = first;
        for (const VertexId w : support) {
          lo = std::lower_bound(lo, last, w);
          if (lo == last) break;
          if (*lo == w) gather_row<false>(lo, lo + 1, s, nullptr, acc);
        }
        gathered += support.size();
      } else {
        gather_row<false>(first, last, s, nullptr, acc);
        gathered += static_cast<EdgeIndex>(last - first);
      }
    } else if constexpr (kPass == Pass::kDenseMasked) {
      m = gather_row<true>(first, last, s, mask, acc);
      if constexpr (kSelf) m |= mask[v];
      next_mask[v] = m;
    } else {
      gather_row<false>(first, last, s, nullptr, acc);
    }

    const double degree = static_cast<double>(last - first);
    const double pi_v = pi[v];
    for (std::size_t l = 0; l < kLanes; ++l) {
      double out;
      if constexpr (kSelf) {
        out = blend<kKind>(acc[l], alpha, p[v].lane[l]);
        p[v].lane[l] = out;
      } else {
        out = blend<kKind>(acc[l], alpha, 0.0);
      }
      next[v].lane[l] = out / degree;
      // support_tvd's grouping: the gap's stationary mass, then |p - pi|.
      if constexpr (kMasked) {
        if ((m >> l) & 1u) {
          tail[l] += prefix_.range_mass(cursor[l], v);
          diff[l] += std::fabs(out - pi_v);
          cursor[l] = v + 1;
        }
      } else {
        diff[l] += std::fabs(out - pi_v);
      }
    }
    if constexpr (kMasked) covered &= m;
  }

  for (std::size_t l = 0; l < lanes_; ++l) {
    if constexpr (kMasked) {
      tail[l] += prefix_.range_mass(cursor[l], n);
      tvd_[l] = 0.5 * (diff[l] + tail[l]);
    } else {
      tvd_[l] = 0.5 * diff[l];
    }
  }
  if constexpr (kMasked)
    if (count == n && covered == active_) saturated_ = true;
  if constexpr (kPass == Pass::kSparse) frontier_edges_.add(gathered);
}

template <StepKind kKind>
void LaneWalk::step_as() {
  const obs::Stopwatch step_clock;
  bool dense = dense_;
  last_frontier_degree_ = 0;
  if (!dense) {
    build_candidates();
    dense = mode_ == KernelMode::kAuto &&
            static_cast<double>(last_frontier_degree_) >=
                dense_fraction_ * static_cast<double>(graph_.targets().size());
  }

  const bool masked = !dense || !saturated_;
  if (!dense) pass<kKind, Pass::kSparse>(candidates_);
  else if (!saturated_) pass<kKind, Pass::kDenseMasked>({});
  else pass<kKind, Pass::kDenseSaturated>({});

  std::swap(s_, next_);
  if (masked) std::swap(mask_, next_mask_);
  if (dense) {
    dense_ = true;
    dense_steps_.add(lanes_);
  } else {
    // The candidate rows are the new union support; the old one is stale.
    std::swap(stale_support_, support_);
    std::swap(support_, candidates_);
    // A saturated union has nothing left to skip: the rest runs dense.
    if (support_.size() == graph_.num_vertices()) dense_ = true;
    sparse_steps_.add(lanes_);
  }
  last_step_dense_ = dense;
  step_latency_.record(step_clock.elapsed_ms());
}

void LaneWalk::step() {
  switch (kind_) {
    case StepKind::kPlain: return step_as<StepKind::kPlain>();
    case StepKind::kLazy: return step_as<StepKind::kLazy>();
    default: return step_as<StepKind::kModulated>();
  }
}

}  // namespace sntrust
