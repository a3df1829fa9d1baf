#include "markov/transition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "parallel/parallel.hpp"

namespace sntrust {

namespace {

/// Rows (or vertices) per worker chunk for the all-rows passes: row work is
/// a short gather, so only large graphs benefit from fanning out.
constexpr std::size_t kMatvecGrain = 2048;
/// Rows per worker chunk for the row-subset entry: candidate sets are
/// usually small, so they stay inline until they are not.
constexpr std::size_t kRowSubsetGrain = 1024;

template <StepKind kKind>
using KindTag = std::integral_constant<StepKind, kKind>;

/// Calls f(KindTag<kind>{}) so every blend gets its own gather loop.
template <typename F>
void dispatch(StepKind kind, F&& f) {
  switch (kind) {
    case StepKind::kPlain: return f(KindTag<StepKind::kPlain>{});
    case StepKind::kLazy: return f(KindTag<StepKind::kLazy>{});
    case StepKind::kModulated: return f(KindTag<StepKind::kModulated>{});
    case StepKind::kOriginatorBiased:
      return f(KindTag<StepKind::kOriginatorBiased>{});
    case StepKind::kSymmetric: return f(KindTag<StepKind::kSymmetric>{});
  }
}

/// The blend write of row v (see StepKind): `p` is the step's input, read
/// at v by the self-weighted blends; `isd` is 1/sqrt(deg), read by
/// kSymmetric only.
template <StepKind kKind>
double blend(double acc, double alpha, const double* p, const double* isd,
             VertexId v) {
  if constexpr (kKind == StepKind::kPlain) return acc;
  else if constexpr (kKind == StepKind::kLazy) return 0.5 * acc + 0.5 * p[v];
  else if constexpr (kKind == StepKind::kModulated)
    return alpha * p[v] + (1.0 - alpha) * acc;
  else if constexpr (kKind == StepKind::kOriginatorBiased)
    return acc * (1.0 - alpha);
  else return acc * isd[v];
}

void check_step_args(const Graph& g, const Distribution& p,
                     const Distribution& out) {
  if (p.size() != g.num_vertices())
    throw std::invalid_argument("TransitionOperator: size mismatch");
  if (&p == &out)
    throw std::invalid_argument("TransitionOperator: out must not alias p");
}

}  // namespace

TransitionOperator::TransitionOperator(const Graph& g)
    : graph_(g), scaled_(g.num_vertices(), 0.0) {}

const std::vector<double>& TransitionOperator::inv_sqrt_degree() {
  const VertexId n = graph_.num_vertices();
  if (inv_sqrt_deg_.size() != n) {
    inv_sqrt_deg_.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId d = graph_.degree_unchecked(v);
      inv_sqrt_deg_[v] = d > 0 ? 1.0 / std::sqrt(static_cast<double>(d)) : 0.0;
    }
  }
  return inv_sqrt_deg_;
}

void TransitionOperator::apply(StepKind kind, double alpha,
                               const Distribution& p, Distribution& out) {
  check_step_args(graph_, p, out);
  const VertexId n = graph_.num_vertices();
  out.resize(n);
  const EdgeIndex* const offsets = graph_.offsets().data();
  const VertexId* const targets = graph_.targets().data();
  const double* const isd =
      kind == StepKind::kSymmetric ? inv_sqrt_degree().data() : nullptr;
  const double* const src = p.data();
  double* const s = scaled_.data();
  double* const dst = out.data();

  // Step 1. An isolated vertex scales to 0/0 or x/0 on the walk blends, but
  // it is nobody's neighbour, so that lane is never gathered.
  if (isd) {
    parallel::parallel_for(
        0, n, [&](std::size_t v, std::uint32_t) { s[v] = src[v] * isd[v]; },
        kMatvecGrain);
  } else {
    parallel::parallel_for(
        0, n,
        [&](std::size_t v, std::uint32_t) {
          s[v] = src[v] / static_cast<double>(offsets[v + 1] - offsets[v]);
        },
        kMatvecGrain);
  }
  scaled_dense_ = true;

  // Step 2: strict stored order per row (no SIMD reduction — reassociation
  // would break the bitwise contract).
  dispatch(kind, [&](auto tag) {
    parallel::parallel_for(
        0, n,
        [&](std::size_t v, std::uint32_t) {
          double acc = 0.0;
          for (EdgeIndex i = offsets[v]; i < offsets[v + 1]; ++i)
            acc += s[targets[i]];
          dst[v] = blend<decltype(tag)::value>(acc, alpha, src, isd,
                                               static_cast<VertexId>(v));
        },
        kMatvecGrain);
  });
}

void TransitionOperator::apply_rows(StepKind kind, double alpha,
                                    const Distribution& p,
                                    std::span<const VertexId> support,
                                    std::span<const VertexId> rows,
                                    Distribution& out) {
  if (kind == StepKind::kSymmetric)
    throw std::invalid_argument(
        "TransitionOperator::apply_rows: walk blends only");
  check_step_args(graph_, p, out);
  if (out.size() != p.size())
    throw std::invalid_argument("TransitionOperator::apply_rows: out size");
  const EdgeIndex* const offsets = graph_.offsets().data();
  const VertexId* const targets = graph_.targets().data();
  const double* const src = p.data();
  double* const s = scaled_.data();
  double* const dst = out.data();

  // Step 1 over the support only; s stays zero everywhere else, so a full
  // row scan reads exactly the support's terms (and +0.0 for the rest).
  if (scaled_dense_) {
    std::fill(scaled_.begin(), scaled_.end(), 0.0);
    scaled_dense_ = false;
  }
  for (const VertexId w : support)
    s[w] = src[w] / static_cast<double>(offsets[w + 1] - offsets[w]);

  const std::size_t support_size = support.size();
  dispatch(kind, [&](auto tag) {
    parallel::parallel_for(
        0, rows.size(),
        [&](std::size_t idx, std::uint32_t) {
          const VertexId v = rows[idx];
          const EdgeIndex row_begin = offsets[v];
          const EdgeIndex row_end = offsets[v + 1];
          double acc = 0.0;
          if (support_size * 4 < row_end - row_begin) {
            // Hub row: walk the ascending support and binary-search each
            // vertex in the sorted row — row ∩ support, in row order, at
            // O(|supp| log deg). Zero-mass support vertices are skipped
            // only to save the search; their +0.0 would not change acc.
            EdgeIndex lo = row_begin;
            for (const VertexId w : support) {
              if (s[w] == 0.0) continue;
              const VertexId* it =
                  std::lower_bound(targets + lo, targets + row_end, w);
              lo = static_cast<EdgeIndex>(it - targets);
              if (lo < row_end && targets[lo] == w) {
                acc += s[w];
                ++lo;
              }
            }
          } else {
            for (EdgeIndex i = row_begin; i < row_end; ++i)
              acc += s[targets[i]];
          }
          dst[v] = blend<decltype(tag)::value>(acc, alpha, src, nullptr, v);
        },
        kRowSubsetGrain);
  });

  for (const VertexId w : support) s[w] = 0.0;
}

void step_distribution(const Graph& g, const Distribution& p,
                       Distribution& out) {
  TransitionOperator{g}.apply(StepKind::kPlain, 0.0, p, out);
}

void step_distribution_lazy(const Graph& g, const Distribution& p,
                            Distribution& out) {
  TransitionOperator{g}.apply(StepKind::kLazy, 0.0, p, out);
}

void evolve(const Graph& g, Distribution& p, std::uint32_t steps, bool lazy) {
  TransitionOperator op{g};
  Distribution buffer(p.size());
  for (std::uint32_t s = 0; s < steps; ++s) {
    op.apply(lazy ? StepKind::kLazy : StepKind::kPlain, 0.0, p, buffer);
    p.swap(buffer);
  }
}

}  // namespace sntrust
