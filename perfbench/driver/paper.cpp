// `paper` workload: measure_properties with default options on the dblp
// (slow mixer) and epinion (fast mixer) analogues at bench scale 0.35.
//
// dblp drives the capped power iteration and the sparse-frontier kernel,
// epinion the saturated dense steps, so a kernel change that helps one mixing
// class and costs the other shows in wall_s.
//
// Untraced run: build both graphs several times (setup_s), then repeat the
// suite on both graphs until --seconds have passed (wall_s per repetition).
// Traced run: one untraced suite pass, then one pass that calls the public
// functions measure_properties composes, in its order and with its options,
// each timed here; the library tracer records its own spans beside them.
#include <cstring>
#include <stdexcept>

#include "common.hpp"
#include "core/property_suite.hpp"
#include "cores/kcore.hpp"
#include "gen/datasets.hpp"
#include "graph/components.hpp"
#include "graph/stats.hpp"
#include "obs/trace.hpp"
#include "util/format.hpp"

namespace perfbench {
namespace {

using namespace sntrust;

constexpr double kScale = 0.35;
const char* const kDatasets[] = {"dblp", "epinion"};
constexpr int kSetupRepetitions = 21;
/// Estimators per dataset, each one operation: stats, SLEM, mixing, cores,
/// expansion.
constexpr int kEstimators = 5;

/// FNV-1a over the exact bytes of the suite's deterministic outputs.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The outputs the identity contracts pin: graph fingerprint, mixing curves,
/// core levels and expansion profile. mu is left out so a converging SLEM
/// engine stays legal; it is range-checked instead.
std::string output_digest(const Graph& g, const MixingCurves& mixing,
                          const std::vector<CoreLevel>& cores,
                          const ExpansionProfile& expansion) {
  Digest d;
  d.add(g.fingerprint());
  for (const VertexId s : mixing.sources) d.add(s);
  for (const std::vector<double>& curve : mixing.tvd) {
    d.add(curve.size());
    for (const double x : curve) d.add(x);
  }
  for (const CoreLevel& level : cores) {
    d.add(level.k);
    d.add(level.vertices);
    d.add(level.edges);
    d.add(level.nu);
    d.add(level.tau);
    d.add(level.num_components);
    d.add(level.largest_component);
  }
  for (const ExpansionPoint& p : expansion.points) {
    d.add(p.set_size);
    d.add(p.min_neighbors);
    d.add(p.max_neighbors);
    d.add(p.mean_neighbors);
    d.add(p.observations);
  }
  d.add(expansion.sources_used);
  d.add(expansion.max_depth);
  return to_hex(d.value());
}

/// Range checks that hold for every seed: mu in (0, 1), variation distances
/// in [0, 1], core sizes within the graph.
bool outputs_in_range(const Graph& g, double mu, const MixingCurves& mixing,
                      const std::vector<CoreLevel>& cores) {
  if (!(mu > 0.0 && mu < 1.0)) return false;
  for (const std::vector<double>& curve : mixing.tvd)
    for (const double x : curve)
      if (!(x >= 0.0 && x <= 1.0)) return false;
  for (const CoreLevel& level : cores)
    if (level.vertices > g.num_vertices() || level.edges > g.num_edges())
      return false;
  return !mixing.tvd.empty() && !cores.empty();
}

struct DatasetRun {
  std::string digest;
  double mu = 0.0;
  bool in_range = false;
  bool converged = false;
  std::uint32_t iterations = 0;
};

DatasetRun suite_run(const Graph& g) {
  const PropertyReport report = measure_properties(g);
  return {output_digest(g, report.mixing, report.core_levels, report.expansion),
          report.slem.mu,
          outputs_in_range(g, report.slem.mu, report.mixing,
                           report.core_levels),
          report.slem.converged, report.slem.iterations};
}

/// One traced pass over one dataset: the calls measure_properties makes,
/// with its default options, each timed under its layer name.
DatasetRun traced_run(const std::string& id, const Graph& g, LayerTimes& layers,
                      double& edge_steps) {
  const PropertySuiteOptions options;
  layers.time("graph.stats_ms", [&] {
    if (!is_connected(g)) throw std::invalid_argument(id + " not connected");
    (void)average_local_clustering(g);
    (void)degree_assortativity(g);
    (void)double_sweep_diameter(g);
  });

  SlemOptions slem_options;
  slem_options.seed = options.seed ^ 0xa076bc9af7d1c8e3ULL;
  const SlemResult slem = layers.time("markov.slem_ms." + id, [&] {
    return second_largest_eigenvalue(g, slem_options);
  });

  MixingOptions mixing_options;
  mixing_options.num_sources = options.mixing_sources;
  mixing_options.max_walk_length = options.mixing_max_walk;
  mixing_options.seed = options.seed;
  mixing_options.kernel = options.kernel;
  const std::uint64_t frontier0 = counter("kernel.frontier_edges");
  const std::uint64_t dense0 = counter("kernel.dense_steps");
  const MixingCurves mixing = layers.time(
      "markov.mixing_ms", [&] { return measure_mixing(g, mixing_options); });
  // A dense step reads every half-edge; a sparse step reads the frontier's.
  edge_steps += static_cast<double>(counter("kernel.frontier_edges") - frontier0) +
                static_cast<double>(counter("kernel.dense_steps") - dense0) * 2.0 *
                    static_cast<double>(g.num_edges());

  const std::vector<CoreLevel> cores = layers.time("cores.profile_ms", [&] {
    const CoreDecomposition decomposition = core_decomposition(g);
    return core_profile(g, decomposition);
  });

  ExpansionOptions expansion_options;
  expansion_options.num_sources = options.expansion_sources;
  expansion_options.seed = options.seed ^ 0x51ed270b8a0f6d1fULL;
  const ExpansionProfile expansion = layers.time(
      "expansion.measure_ms", [&] { return measure_expansion(g, expansion_options); });

  return {output_digest(g, mixing, cores, expansion), slem.mu,
          outputs_in_range(g, slem.mu, mixing, cores), slem.converged,
          slem.iterations};
}

Value dataset_result(const DatasetRun& run) {
  return object_of({{"digest", Value::string(run.digest)},
                    {"mu", num(run.mu)},
                    {"in_range", Value::boolean(run.in_range)},
                    {"slem_converged", Value::boolean(run.converged)},
                    {"slem_iterations", Value::integer(run.iterations)}});
}

}  // namespace

Value run_paper(const Args& args) {
  // Set-up: build both analogues, several times, for a median.
  std::vector<double> setup_s;
  std::vector<Graph> graphs;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = now_s();
    std::vector<Graph> generated;
    for (const char* id : kDatasets)
      generated.push_back(seeded_analogue(id, kScale, args.seed));
    setup_s.push_back(now_s() - start);
    if (!graphs.empty())
      for (std::size_t i = 0; i < graphs.size(); ++i)
        if (generated[i].fingerprint() != graphs[i].fingerprint())
          throw std::runtime_error("graph generation is not deterministic");
    graphs = std::move(generated);
  }

  // Operations: one per (dataset, estimator); an unconverged SLEM fails.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  json::Array repetitions;  // per repetition: {dataset: run}
  std::vector<double> wall_s;
  const auto suite_pass = [&] {
    json::Object runs;
    const double start = now_s();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      DatasetRun run;
      attempted += kEstimators;
      try {
        run = suite_run(graphs[i]);
        if (!run.converged) ++failed;
      } catch (const std::exception& e) {
        ++failed;
        run.digest = std::string{"error: "} + e.what();
      }
      runs.emplace_back(kDatasets[i], dataset_result(run));
    }
    wall_s.push_back(now_s() - start);
    repetitions.push_back(Value::object(std::move(runs)));
  };

  std::vector<std::pair<std::string, Value>> result;
  if (!args.trace) {
    const double start = now_s();
    do suite_pass();
    while (now_s() - start < args.seconds);
  } else {
    suite_pass();  // untraced reference for bench.trace_overhead
    start_tracing();
    LayerTimes layers;
    json::Object traced_runs;
    double edge_steps = 0.0;
    const double start = now_s();
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const DatasetRun run =
          traced_run(kDatasets[i], graphs[i], layers, edge_steps);
      attempted += kEstimators;
      if (!run.converged) ++failed;
      traced_runs.emplace_back(kDatasets[i], dataset_result(run));
    }
    const double traced_s = now_s() - start;
    obs::Tracer::instance().disable();

    const double mixing_ms = layers.get("markov.mixing_ms");
    std::vector<double> generate_ms;
    for (const double s : setup_s) generate_ms.push_back(1e3 * s);
    result.emplace_back("traced_runs", Value::object(std::move(traced_runs)));
    result.emplace_back(
        "layers",
        object_of({
            {"graph.generate_ms", array_of(generate_ms)},
            {"graph.stats_ms", num(layers.get("graph.stats_ms"))},
            {"markov.slem_ms.dblp", num(layers.get("markov.slem_ms.dblp"))},
            {"markov.slem_ms.epinion", num(layers.get("markov.slem_ms.epinion"))},
            {"markov.mixing_ms", num(mixing_ms)},
            {"kernel.frontier_edges", num(counter("kernel.frontier_edges"))},
            {"kernel.sparse_steps", num(counter("kernel.sparse_steps"))},
            {"kernel.dense_steps", num(counter("kernel.dense_steps"))},
            {"markov.ns_per_edge_step",
             num(edge_steps > 0 ? 1e6 * mixing_ms / edge_steps : 0.0)},
            {"cores.profile_ms", num(layers.get("cores.profile_ms"))},
            {"expansion.measure_ms", num(layers.get("expansion.measure_ms"))},
            {"expansion.bfs_runs", num(counter("expansion.bfs_runs"))},
            {"bfs.top_down_levels", num(counter("bfs.top_down_levels"))},
            {"bfs.bottom_up_levels", num(counter("bfs.bottom_up_levels"))},
            {"parallel.utilization", num(gauge("parallel.utilization"))},
            {"parallel.region_ms.p99", num(histogram_quantile("parallel.region_ms", 0.99))},
            {"bench.unattributed_ms", num(1e3 * traced_s - layers.total_ms())},
            {"bench.trace_overhead", num(traced_s / wall_s.front())},
        }));
    result.emplace_back("library_spans", span_totals());
  }

  std::vector<std::pair<std::string, const Graph*>> named;
  for (std::size_t i = 0; i < graphs.size(); ++i)
    named.emplace_back(kDatasets[i], &graphs[i]);
  result.emplace_back("provenance", provenance(args, kScale, named));
  result.emplace_back("attempted", Value::integer(attempted));
  result.emplace_back("failed", Value::integer(failed));
  result.emplace_back("setup_s", array_of(setup_s));
  result.emplace_back("wall_s", array_of(wall_s));
  result.emplace_back("repetitions", Value::array(std::move(repetitions)));
  result.emplace_back("peak_rss_mb", num(peak_rss_mb()));
  return object_of(std::move(result));
}

}  // namespace perfbench
