// perfbench_driver --workload <paper|serve-read|serve-churn> --seed <n>
//                  --seconds <s> --trace <0|1> --out <raw.json>
//
// Runs one benchmark workload in this process and writes its raw samples to
// --out. Exit 0 when the run finished (its correctness verdict is inside the
// file), 2 on bad arguments, 1 when the workload threw.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "common.hpp"
#include "gen/datasets.hpp"
#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace perfbench {

sntrust::Graph seeded_analogue(const std::string& id, double scale,
                               std::uint64_t seed) {
  constexpr std::uint64_t kAnalogueSeed = 20110621;  // the repo benches' seed
  const sntrust::Graph g = sntrust::dataset_by_id(id).generate(scale, kAnalogueSeed);
  std::vector<sntrust::VertexId> label(g.num_vertices());
  for (sntrust::VertexId v = 0; v < label.size(); ++v) label[v] = v;
  sntrust::Rng rng{sntrust::stream_seed(seed, 0)};
  rng.shuffle(std::span<sntrust::VertexId>{label});
  std::vector<sntrust::Edge> edges = g.edges();
  for (sntrust::Edge& e : edges) e = {label[e.u], label[e.v]};
  return sntrust::graph_from_edges(g.num_vertices(), edges);
}

std::uint64_t counter(const std::string& name) {
  const auto snap = sntrust::obs::Metrics::instance().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double gauge(const std::string& name) {
  const auto snap = sntrust::obs::Metrics::instance().snapshot();
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

double quantile(const std::string& name, double q) {
  const auto snap = sntrust::obs::Metrics::instance().snapshot();
  const auto it = snap.quantiles.find(name);
  if (it == snap.quantiles.end() || it->second.count == 0) return 0.0;
  return it->second.value_at_quantile(q);
}

double histogram_mean(const std::string& name) {
  const auto snap = sntrust::obs::Metrics::instance().snapshot();
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.mean();
}

double histogram_quantile(const std::string& name, double q) {
  const auto snap = sntrust::obs::Metrics::instance().snapshot();
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
  return it->second.value_at_quantile(q);
}

double span_ms(const std::string& name) {
  double ms = 0.0;
  for (const sntrust::obs::TraceEvent& event :
       sntrust::obs::Tracer::instance().events())
    if (event.closed && event.name == name) ms += 1e-6 * event.duration_ns;
  return ms;
}

Value span_totals() {
  std::map<std::string, double> totals;
  for (const sntrust::obs::TraceEvent& event :
       sntrust::obs::Tracer::instance().events())
    if (event.closed) totals[event.name] += 1e-6 * event.duration_ns;
  sntrust::json::Object members;
  for (const auto& [name, ms] : totals) members.emplace_back(name, num(ms));
  return Value::object(std::move(members));
}

void start_tracing() {
  sntrust::obs::metrics_reset_all();
  sntrust::obs::Tracer::instance().reset();
  sntrust::obs::Tracer::instance().enable();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Value num(double v) { return Value::number(v); }

Value array_of(const std::vector<double>& values) {
  sntrust::json::Array items;
  items.reserve(values.size());
  for (const double v : values) items.push_back(Value::number(v));
  return Value::array(std::move(items));
}

Value object_of(std::vector<std::pair<std::string, Value>> members) {
  return Value::object(std::move(members));
}

Value provenance(const Args& args, double scale,
                 const std::vector<std::pair<std::string, const sntrust::Graph*>>&
                     graphs) {
  sntrust::json::Object fingerprints;
  for (const auto& [id, graph] : graphs)
    fingerprints.emplace_back(
        id, object_of({{"fingerprint",
                        Value::string(sntrust::to_hex(graph->fingerprint()))},
                       {"nodes", Value::integer(graph->num_vertices())},
                       {"edges", Value::integer(
                                     static_cast<std::int64_t>(
                                         graph->num_edges()))}}));
  return object_of(
      {{"workload", Value::string(args.workload)},
       {"seed", Value::integer(static_cast<std::int64_t>(args.seed))},
       {"seconds", num(args.seconds)},
       {"trace", Value::boolean(args.trace)},
       {"scale", num(scale)},
       {"library_threads", Value::integer(kLibraryThreads)},
       {"nproc", Value::integer(std::thread::hardware_concurrency())},
       {"build_type", Value::string(PERFBENCH_BUILD_TYPE)},
       {"build_flags", Value::string(PERFBENCH_BUILD_FLAGS)},
       {"compiler", Value::string(__VERSION__)},
       {"graphs", Value::object(std::move(fingerprints))}});
}

}  // namespace perfbench

namespace {

perfbench::Args parse_args(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out") args.out = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (argc % 2 != 1) throw std::invalid_argument("arguments come in pairs");
  if (args.workload.empty() || args.out.empty())
    throw std::invalid_argument("--workload and --out are required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  try {
    sntrust::parallel::set_thread_count(perfbench::kLibraryThreads);
    perfbench::Value result;
    if (args.workload == "paper") result = perfbench::run_paper(args);
    else if (args.workload == "serve-read") result = perfbench::run_serve_read(args);
    else if (args.workload == "serve-churn") result = perfbench::run_serve_churn(args);
    else {
      std::cerr << "perfbench_driver: unknown workload " << args.workload << "\n";
      return 2;
    }
    std::ofstream out{args.out};
    result.write(out);
    out << "\n";
    if (!out) throw std::runtime_error("cannot write " + args.out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
