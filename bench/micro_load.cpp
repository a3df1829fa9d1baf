// Graph-load microbench: the cold-start cost of getting one graph into
// memory three ways — text edge-list parse, binary CSR read, and the
// zero-copy mmap snapshot (graph/snapshot.hpp). Timings are best-of-3
// (deterministic work, so the fastest rep is the least-perturbed one).
// Prints one JSON object; run with SNTRUST_REPORT=<path> for the unified run
// report (bench/baselines/micro_load.json is produced that way, with the
// thread count and scale recorded in its config).
//
// The dataset is the largest bundled analogue (livejournal_a) at 2x the
// bench base scale, times SNTRUST_SCALE.
#include <cstdio>
#include <functional>
#include <string>

#include "bench_common.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"

namespace {

using namespace sntrust;

constexpr int kReps = 3;
constexpr double kBaseScale = 2.0;

double best_of(int reps, const std::function<double()>& leg) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double ms = leg();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  return sntrust::bench::guarded_main([] {
    const DatasetSpec& spec = dataset_by_id("livejournal_a");
    const Graph g = [&] {
      const bench::Section section{"generate"};
      return bench::dataset_graph(spec, kBaseScale);
    }();
    std::printf("graph: %s n=%u m=%llu\n\n", spec.id.c_str(),
                g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()));

    const std::string dir = env_string("TMPDIR", "/tmp");
    const std::string text_path = dir + "/micro_load_graph.txt";
    const std::string binary_path = dir + "/micro_load_graph.bin";
    const std::string snap_path = dir + "/micro_load_graph.snap";
    double text_ms = 0.0, binary_ms = 0.0, mmap_ms = 0.0;
    {
      const bench::Section section{"load (parse vs mmap)"};
      write_edge_list_file(g, text_path);
      write_binary_file(g, binary_path);
      write_snapshot(g, snap_path);
      text_ms = best_of(kReps, [&] {
        obs::Stopwatch clock;
        const Graph loaded = read_edge_list_file(text_path);
        return loaded.num_vertices() ? clock.elapsed_ms() : -1.0;
      });
      binary_ms = best_of(kReps, [&] {
        obs::Stopwatch clock;
        const Graph loaded = read_binary_file(binary_path);
        return loaded.num_vertices() ? clock.elapsed_ms() : -1.0;
      });
      // The mmap leg walks both mapped arrays inside the timed region so
      // every page is faulted in — the reported time is usable-graph time,
      // not lazy-map sleight of hand. (The binary leg's time includes the
      // full structural validation; the snapshot skips it by contract,
      // trusting the format CRC — that asymmetry is the design.)
      mmap_ms = best_of(kReps, [&] {
        obs::Stopwatch clock;
        const Graph loaded = load_snapshot(snap_path);
        std::uint64_t sink = 0;
        for (const EdgeIndex offset : loaded.offsets()) sink ^= offset;
        for (const VertexId target : loaded.targets()) sink ^= target;
        const double ms = clock.elapsed_ms();
        return sink != 0xffffffffffffffffULL ? ms : -1.0;
      });
    }

    obs::RunReporter& reporter = obs::RunReporter::instance();
    reporter.set_config("bench", "micro_load");
    reporter.set_config("dataset", spec.id);
    reporter.set_config("dataset_scale", bench::dataset_scale(kBaseScale));
    reporter.set_config("graph_n", g.num_vertices());
    reporter.set_config("graph_m", g.num_edges());
    reporter.set_config("load_speedup_mmap_vs_binary",
                        mmap_ms > 0.0 ? binary_ms / mmap_ms : 0.0);

    std::printf("{\n  \"bench\": \"micro_load\", \"dataset\": \"%s\",\n",
                spec.id.c_str());
    std::printf("  \"n\": %u, \"m\": %llu,\n", g.num_vertices(),
                static_cast<unsigned long long>(g.num_edges()));
    std::printf(
        "  \"load\": {\"text_parse_ms\": %.2f, \"binary_read_ms\": %.2f, "
        "\"mmap_load_ms\": %.3f,\n"
        "    \"mmap_vs_binary\": %.1f, \"mmap_vs_text\": %.1f}\n}\n",
        text_ms, binary_ms, mmap_ms, mmap_ms > 0.0 ? binary_ms / mmap_ms : 0.0,
        mmap_ms > 0.0 ? text_ms / mmap_ms : 0.0);

    std::remove(text_path.c_str());
    std::remove(binary_path.c_str());
    std::remove(snap_path.c_str());
    return 0;
  });
}
