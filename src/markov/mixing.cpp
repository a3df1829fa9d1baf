#include "markov/mixing.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "exec/checkpoint.hpp"
#include "exec/fault.hpp"
#include "exec/sweep.hpp"
#include "graph/components.hpp"
#include "markov/walker.hpp"
#include "obs/diag.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace sntrust {

namespace {

// Sweep payloads: the TVD curves of one item (a block of sources for the
// exact sweep, one source for the Monte-Carlo one) as a JSON array of
// arrays. Both fresh and restored curves pass through dump+parse (doubles
// are shortest-round-trip, so the trip is bitwise lossless), which is what
// makes a resumed sweep aggregate exactly what an uninterrupted one would.
// The format tag goes into both fingerprints, so a checkpoint written in
// another format is refused rather than decoded.
constexpr std::uint64_t kPayloadFormat = 2;

std::string encode_curves(const std::vector<std::vector<double>>& curves) {
  json::Array items;
  items.reserve(curves.size());
  for (const std::vector<double>& curve : curves) {
    json::Array values;
    values.reserve(curve.size());
    for (const double v : curve) values.push_back(json::Value::number(v));
    items.push_back(json::Value::array(std::move(values)));
  }
  return json::Value::array(std::move(items)).dump();
}

// Rebuilds (sources, tvd) keeping only the sources whose item's payload
// exists; item i holds sources [i * per_item, (i + 1) * per_item). A failed
// item's sources are dropped from the curve set, matching their absence
// from the aggregate a degraded run reports.
void collect_curves(const exec::SweepResult& swept, std::size_t per_item,
                    MixingCurves& out) {
  std::vector<VertexId> sources;
  std::vector<std::vector<double>> tvd;
  sources.reserve(out.sources.size());
  tvd.reserve(out.sources.size());
  for (std::size_t i = 0; i < swept.payloads.size(); ++i) {
    if (swept.payloads[i].empty()) continue;
    const json::Value value = json::Value::parse(swept.payloads[i]);
    const json::Array& curves = value.as_array();
    if (curves.size() !=
        std::min(per_item, out.sources.size() - i * per_item))
      throw std::runtime_error("mixing sweep: malformed payload for item " +
                               std::to_string(i));
    for (std::size_t l = 0; l < curves.size(); ++l) {
      sources.push_back(out.sources[i * per_item + l]);
      std::vector<double>& curve = tvd.emplace_back();
      curve.reserve(curves[l].as_array().size());
      for (const json::Value& v : curves[l].as_array())
        curve.push_back(v.as_number());
    }
  }
  out.sources = std::move(sources);
  out.tvd = std::move(tvd);
}

// Estimator diagnostics over the collected curves (SNTRUST_DIAG). Runs on
// the serial aggregation path after collect_curves, in source-index order,
// so the recorded traces are bitwise identical at any thread count and the
// measurement itself is untouched. A source "converged" when its TVD curve
// either crossed the diag epsilon or plateaued strictly before the walk
// cap; a curve still visibly decaying when the cap hit is flagged.
void record_mixing_diag(const std::string& kind, const MixingCurves& curves) {
  if (!obs::diag_enabled()) return;
  const double epsilon = obs::diag_epsilon();
  double final_sum = 0.0, final_sumsq = 0.0;
  double cross_sum = 0.0, cross_sumsq = 0.0;
  std::uint64_t crossed = 0;
  for (std::size_t i = 0; i < curves.tvd.size(); ++i) {
    const std::vector<double>& curve = curves.tvd[i];
    obs::ConvergenceTrace trace;
    for (const double v : curve) trace.add(v);
    bool crossed_eps = false;
    for (std::size_t t = 0; t < curve.size(); ++t) {
      if (curve[t] <= epsilon) {
        crossed_eps = true;
        cross_sum += static_cast<double>(t);
        cross_sumsq += static_cast<double>(t) * static_cast<double>(t);
        ++crossed;
        break;
      }
    }
    const bool plateaued =
        !trace.empty() && trace.plateau_iteration() + 1 < trace.iterations();
    const bool converged = crossed_eps || plateaued;
    obs::DiagRegistry::instance().record_trace(
        obs::summarize_trace(kind, curves.sources[i], trace, converged));
    if (!converged)
      obs::DiagRegistry::instance().record_nonconverged(
          kind, curves.sources[i], trace.iterations(), trace.final_value());
    final_sum += trace.final_value();
    final_sumsq += trace.final_value() * trace.final_value();
  }
  if (!curves.tvd.empty())
    obs::DiagRegistry::instance().record_estimate(
        kind + ".tvd_final",
        obs::mean_ci95(final_sum, final_sumsq, curves.tvd.size()));
  if (crossed > 0)
    obs::DiagRegistry::instance().record_estimate(
        kind + ".time_to_eps", obs::mean_ci95(cross_sum, cross_sumsq, crossed));
}

}  // namespace

std::vector<double> MixingCurves::mean_curve() const {
  if (tvd.empty()) return {};
  std::vector<double> mean(tvd.front().size(), 0.0);
  for (const auto& curve : tvd)
    for (std::size_t t = 0; t < curve.size(); ++t) mean[t] += curve[t];
  for (double& v : mean) v /= static_cast<double>(tvd.size());
  return mean;
}

std::vector<double> MixingCurves::max_curve() const {
  if (tvd.empty()) return {};
  std::vector<double> worst(tvd.front().size(), 0.0);
  for (const auto& curve : tvd)
    for (std::size_t t = 0; t < curve.size(); ++t)
      worst[t] = std::max(worst[t], curve[t]);
  return worst;
}

MixingCurves measure_mixing(const Graph& g, const MixingOptions& options) {
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument("measure_mixing: graph must have edges");
  if (options.num_sources == 0)
    throw std::invalid_argument("measure_mixing: need at least one source");
  if (!is_connected(g))
    throw std::invalid_argument("measure_mixing: graph must be connected");

  const obs::Span span{"measure_mixing", "markov"};
  Rng rng{options.seed};
  const std::uint32_t k = std::min<std::uint32_t>(options.num_sources, n);

  MixingCurves out;
  out.sources = rng.sample_without_replacement(n, k);

  const Distribution pi = stationary_distribution(g);
  const StationaryPrefix prefix{pi};
  const LaneWalk::Options kernel{
      options.kernel.value_or(kernel_mode()),
      options.kernel_dense_fraction.value_or(kernel_dense_fraction())};
  const StepKind kind = options.lazy ? StepKind::kLazy : StepKind::kPlain;
  // One sweep item per block of kLanes sources (the last may be partial),
  // one payload slot per block: workers write disjoint slots, so the result
  // is bitwise identical for any thread count. Neither the kernel mode nor
  // a source's lane changes the values (see markov/frontier.hpp), only how
  // much of the graph each step touches — which is also why the mode stays
  // out of the checkpoint fingerprint.
  const std::size_t blocks = (k + kLanes - 1) / kLanes;
  obs::ProgressMeter progress{"mixing sources", k};
  // One walk per worker, built up front on the calling thread, so an item
  // allocates only its curves.
  const std::uint32_t workers = parallel::plan_workers(blocks);
  std::vector<LaneWalk> walks;
  walks.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w)
    walks.emplace_back(g, pi, prefix, kind, 0.0, kernel);
  std::atomic<std::uint64_t> lanes_computed{0};

  exec::SweepOptions sweep;
  sweep.kind = "measure_mixing";
  // Fault trials stay per source: a block runs the `markov` trial of each
  // of its sources (index = source position) and fails if any fires.
  sweep.fault_site = nullptr;
  sweep.token = exec::process_token();
  sweep.fingerprint = exec::fingerprint(
      {n, g.num_edges(), k, options.max_walk_length,
       options.lazy ? 1ULL : 0ULL, options.seed, exec::graph_fingerprint(g),
       kLanes, kPayloadFormat});
  const exec::SweepResult swept = exec::run_sweep(
      blocks, sweep, [&](std::size_t b, std::uint32_t worker) {
        const std::size_t first = b * kLanes;
        const std::size_t lanes = std::min<std::size_t>(kLanes, k - first);
        for (std::size_t l = 0; l < lanes; ++l)
          exec::fault_point("markov", first + l);
        LaneWalk& walk = walks[worker];
        walk.reset({out.sources.data() + first, lanes});
        std::vector<std::vector<double>> curves(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
          curves[l].reserve(options.max_walk_length + 1);
          curves[l].push_back(walk.tvd(l));
        }
        for (std::uint32_t t = 1; t <= options.max_walk_length; ++t) {
          walk.step();
          for (std::size_t l = 0; l < lanes; ++l)
            curves[l].push_back(walk.tvd(l));
        }
        progress.tick(lanes);
        lanes_computed.fetch_add(lanes, std::memory_order_relaxed);
        return encode_curves(curves);
      });
  collect_curves(swept, kLanes, out);
  record_mixing_diag("mixing.tvd", out);
  obs::count("mixing.sources", out.sources.size());
  obs::count("mixing.distribution_steps",
             lanes_computed.load(std::memory_order_relaxed) *
                 options.max_walk_length);
  return out;
}

MixingCurves measure_mixing_monte_carlo(const Graph& g,
                                        const MixingOptions& options,
                                        std::uint32_t walks_per_point) {
  const VertexId n = g.num_vertices();
  if (n == 0 || g.num_edges() == 0)
    throw std::invalid_argument("measure_mixing_monte_carlo: graph must have edges");
  if (options.num_sources == 0 || walks_per_point == 0)
    throw std::invalid_argument(
        "measure_mixing_monte_carlo: need sources and walks");
  if (!is_connected(g))
    throw std::invalid_argument(
        "measure_mixing_monte_carlo: graph must be connected");

  Rng rng{options.seed};
  const std::uint32_t k = std::min<std::uint32_t>(options.num_sources, n);

  MixingCurves out;
  out.sources = rng.sample_without_replacement(n, k);
  const Distribution pi = stationary_distribution(g);

  // Each source gets a walk batch with its own Rng stream derived from the
  // source *position*, so curves depend only on (seed, i) — never on which
  // worker ran the batch or in what order.
  const std::uint64_t walker_base = rng();
  const obs::Span span{"measure_mixing_monte_carlo", "markov"};
  obs::ProgressMeter progress{"monte-carlo mixing sources", k};
  struct Scratch {
    std::vector<std::uint32_t> counts;
    Distribution empirical;
  };
  std::vector<Scratch> scratch(parallel::plan_workers(k));

  exec::SweepOptions sweep;
  sweep.kind = "measure_mixing_monte_carlo";
  sweep.fault_site = "markov";
  sweep.token = exec::process_token();
  sweep.fingerprint = exec::fingerprint(
      {n, g.num_edges(), k, options.max_walk_length, walks_per_point,
       options.seed, exec::graph_fingerprint(g), kPayloadFormat});
  const exec::SweepResult swept = exec::run_sweep(
      k, sweep, [&](std::size_t i, std::uint32_t worker) {
        Scratch& s = scratch[worker];
        s.counts.assign(n, 0u);
        if (s.empirical.size() != n) s.empirical.assign(n, 0.0);
        RandomWalker walker{g, stream_seed(walker_base, i)};
        const VertexId source = out.sources[i];
        std::vector<double> curve;
        curve.reserve(options.max_walk_length + 1);
        for (std::uint32_t t = 0; t <= options.max_walk_length; ++t) {
          std::fill(s.counts.begin(), s.counts.end(), 0u);
          for (std::uint32_t w = 0; w < walks_per_point; ++w)
            ++s.counts[walker.walk_endpoint(source, t)];
          for (VertexId v = 0; v < n; ++v)
            s.empirical[v] =
                static_cast<double>(s.counts[v]) / walks_per_point;
          curve.push_back(total_variation(s.empirical, pi));
        }
        progress.tick();
        return encode_curves({curve});
      });
  collect_curves(swept, 1, out);
  record_mixing_diag("mixing.monte_carlo", out);
  return out;
}

std::uint32_t mixing_time_estimate(const MixingCurves& curves, double epsilon) {
  const std::vector<double> worst = curves.max_curve();
  for (std::size_t t = 0; t < worst.size(); ++t)
    if (worst[t] <= epsilon) return static_cast<std::uint32_t>(t);
  return 0xFFFFFFFFu;
}

}  // namespace sntrust
