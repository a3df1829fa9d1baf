// Shared pieces of the benchmark driver: arguments, the steady clock, layer
// timers, library-metric readers, and the raw-result JSON builder.
//
// The driver only measures. It writes every raw sample it took (latencies,
// set-up times, per-layer timings, check outcomes, provenance) to one JSON
// file; perfbench/run.py turns those samples into the reported metrics, so
// the statistics live in one tested place.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/json.hpp"

namespace perfbench {

using sntrust::json::Value;

/// Library pool size in every workload (the calling thread plus one worker).
inline constexpr std::uint32_t kLibraryThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Benchmark-side layer timing: milliseconds summed per layer name, plus
/// the total of every timed call (for bench.unattributed_ms).
class LayerTimes {
 public:
  template <typename Fn>
  decltype(auto) time(const std::string& layer, Fn&& fn) {
    const double start = now_s();
    struct Record {
      LayerTimes* self;
      const std::string& layer;
      double start;
      ~Record() { self->add(layer, 1e3 * (now_s() - start)); }
    } record{this, layer, start};
    return fn();
  }
  void add(const std::string& layer, double ms) {
    ms_[layer] += ms;
    total_ms_ += ms;
  }
  double get(const std::string& layer) const {
    const auto it = ms_.find(layer);
    return it == ms_.end() ? 0.0 : it->second;
  }
  double total_ms() const { return total_ms_; }

 private:
  std::map<std::string, double> ms_;
  double total_ms_ = 0.0;
};

/// Library counter value (0 when never registered).
std::uint64_t counter(const std::string& name);
/// Library gauge value (0 when never registered).
double gauge(const std::string& name);
/// Quantile of a library latency histogram (0 when empty).
double quantile(const std::string& name, double q);
/// Mean of a library power-of-two histogram (0 when empty).
double histogram_mean(const std::string& name);
/// Quantile of a library power-of-two histogram (0 when empty).
double histogram_quantile(const std::string& name, double q);
/// Total wall milliseconds of every closed library span named `name`.
double span_ms(const std::string& name);
/// {span name: total wall ms} over every closed library span.
Value span_totals();

/// Zeroes the library metrics and starts recording library spans.
void start_tracing();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// JSON helpers.
Value num(double v);
Value array_of(const std::vector<double>& values);
Value object_of(std::vector<std::pair<std::string, Value>> members);

/// The dataset analogue every seed shares — generated at a fixed seed — with
/// its vertex ids permuted by `seed`. Each seed measures the same structure
/// under other ids, so a run's work does not hinge on one draw of the
/// generator (whose SLEM may or may not converge, for instance).
sntrust::Graph seeded_analogue(const std::string& id, double scale,
                               std::uint64_t seed);

/// Provenance every result carries (seed, scale, library threads, nproc,
/// build).
Value provenance(const Args& args, double scale,
                 const std::vector<std::pair<std::string, const sntrust::Graph*>>&
                     graphs);

/// Workload entry points; each returns the raw result document.
Value run_paper(const Args& args);
Value run_serve_read(const Args& args);
Value run_serve_churn(const Args& args);

}  // namespace perfbench
