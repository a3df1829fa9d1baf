#include "markov/transition.hpp"

#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "parallel/parallel.hpp"

namespace sntrust {

namespace {

/// Rows (or vertices) per worker chunk for the all-rows passes: row work is
/// a short gather, so only large graphs benefit from fanning out.
constexpr std::size_t kMatvecGrain = 2048;

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

  // Step 2: strict stored order per row (no SIMD reduction — reassociation
  // would break the bitwise contract).
  dispatch(kind, [&](auto tag) {
    parallel::parallel_for(
        0, n,
        [&](std::size_t v, std::uint32_t) {
          constexpr StepKind kKind = decltype(tag)::value;
          double acc = 0.0;
          gather_row<false>(targets + offsets[v], targets + offsets[v + 1], s,
                            nullptr, &acc);
          dst[v] = blend<kKind>(
              acc, alpha, kKind == StepKind::kSymmetric ? isd[v] : src[v]);
        },
        kMatvecGrain);
  });
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
