// Shared conventions for the reproduction benches: every bench generates its
// datasets at `dataset_scale() * <paper scale>` and seeds all randomness
// from kBenchSeed so output is reproducible run-to-run.
//
// SNTRUST_SCALE scales all workloads (default 1.0; use 0.1 for a smoke run,
// >1 to push closer to the paper's raw sizes).
#pragma once

#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "exec/cancel.hpp"
#include "exec/sweep.hpp"
#include "gen/datasets.hpp"
#include "graph/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/format.hpp"

namespace sntrust::bench {

inline constexpr std::uint64_t kBenchSeed = 20110621;  // ICDCS'11 week

/// Additional scale factor the benches apply on top of each dataset's
/// default_scale, so the default full suite finishes in minutes on one core.
inline double dataset_scale(double base = 0.35) {
  return base * bench_scale();
}

/// SNTRUST_FULL_SCALE=1 runs every dataset at the paper's Table-I size
/// (DatasetSpec::generate_full), overriding dataset_scale/SNTRUST_SCALE.
/// The largest graphs take minutes to generate and gigabytes of CSR —
/// scripts/run_full_scale.sh documents the snapshot-backed workflow and the
/// scaled fallback for small machines.
inline bool full_scale() { return env_bool("SNTRUST_FULL_SCALE", false); }

/// Generates (or snapshot-loads) a bench dataset. With SNTRUST_SNAPSHOT set
/// to a directory, the graph is served from `<dir>/<id>_s<scale>.snap` when
/// present and written there after the first generation — so repeated bench
/// runs (and the CI snapshot job) mmap the CSR in milliseconds instead of
/// regenerating it. The snapshot header fingerprint keeps exec checkpoints
/// valid across the two load paths.
inline Graph dataset_graph(const DatasetSpec& spec, double base = 0.35) {
  // Provenance: the per-dataset structural fingerprint lands in the run
  // report's config so benchdiff/diag can refuse diffs between runs that
  // measured different graphs (changed generator, scale, or seed).
  const auto record_fingerprint = [&spec](const Graph& g) {
    obs::RunReporter::instance().set_config("graph." + std::string{spec.id},
                                            to_hex(g.fingerprint()));
  };
  const double scale =
      full_scale() ? 1.0 / spec.default_scale : dataset_scale(base);
  const std::string dir = env_string("SNTRUST_SNAPSHOT", "");
  if (dir.empty()) {
    Graph g = spec.generate(scale, kBenchSeed);
    record_fingerprint(g);
    return g;
  }
  char suffix[48];
  std::snprintf(suffix, sizeof suffix, "_s%g.snap", scale);
  const std::string path = dir + "/" + spec.id + suffix;
  if (is_snapshot_file(path)) {
    Graph g = load_snapshot(path);
    record_fingerprint(g);
    return g;
  }
  Graph g = spec.generate(scale, kBenchSeed);
  write_snapshot(g, path);
  record_fingerprint(g);
  return g;
}

/// Banner + wall-clock scope timer, built on the obs layer: the printed
/// elapsed time comes from obs::Stopwatch and the scope is recorded as a
/// trace span, so `SNTRUST_TRACE=<path> ./fig1_mixing_time` captures every
/// bench section alongside the library's own spans. Constructing a Section
/// also touches the run reporter, so `SNTRUST_REPORT=<path>` makes any
/// bench emit its unified JSON run report at exit (see obs/run_report.hpp).
class Section {
 public:
  explicit Section(std::string title)
      : title_(std::move(title)), span_(title_, "bench") {
    obs::RunReporter::instance();  // arms the SNTRUST_REPORT atexit export
    std::cout << "=== " << title_ << " ===\n";
  }
  ~Section() {
    const double elapsed_ms = stopwatch_.elapsed_ms();
    // Sections feed the telemetry quantiles too, so a long-running bench's
    // live frames (and the final report) carry per-section latency.
    obs::record_latency("bench.section_ms", elapsed_ms);
    std::cout << "[" << title_ << ": " << static_cast<long long>(elapsed_ms)
              << " ms]\n\n";
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

 private:
  std::string title_;
  obs::Span span_;
  obs::Stopwatch stopwatch_;
};

/// RAII per-dataset latency sample: the paper benches open one inside each
/// dataset iteration so `bench.dataset_ms` quantiles (p50/p99 across
/// datasets) land in the live telemetry frames and the final run report.
class DatasetTimer {
 public:
  DatasetTimer() = default;
  ~DatasetTimer() {
    obs::record_latency("bench.dataset_ms", stopwatch_.elapsed_ms());
  }
  DatasetTimer(const DatasetTimer&) = delete;
  DatasetTimer& operator=(const DatasetTimer&) = delete;

 private:
  obs::Stopwatch stopwatch_;
};

/// Standard bench entry point: installs the cooperative SIGINT/SIGTERM
/// handlers (and the SNTRUST_DEADLINE_MS deadline), runs `body`, and maps
/// the exec-layer outcomes to sysexits-style codes — 75 for an interrupted
/// or degraded run (the checkpoint, if armed, holds the completed sources
/// and the SNTRUST_REPORT artifact still fires at exit), 1 for anything
/// else. Wrap main as `return sntrust::bench::guarded_main([] { ...; return
/// 0; });`.
inline int guarded_main(const std::function<int()>& body) {
  exec::install_signal_handlers();
  try {
    return body();
  } catch (const exec::CancelledError& error) {
    std::cerr << "interrupted: " << error.what() << "\n";
    return 75;
  } catch (const exec::PartialFailureError& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 75;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}

}  // namespace sntrust::bench
