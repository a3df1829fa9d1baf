#include "exec/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>

#include "exec/checkpoint.hpp"
#include "exec/fault.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/watchdog.hpp"
#include "parallel/parallel.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace sntrust::exec {

namespace {

std::atomic<double> g_max_failed_override{-1.0};

double resolve_max_failed_frac(const SweepOptions& options) {
  if (options.max_failed_frac >= 0.0) return options.max_failed_frac;
  const double override_frac =
      g_max_failed_override.load(std::memory_order_relaxed);
  if (override_frac >= 0.0) return override_frac;
  return env_double("SNTRUST_MAX_FAILED_FRAC", 0.0);
}

std::uint64_t resolve_flush_every(const SweepOptions& options,
                                  std::size_t items) {
  if (options.checkpoint_every > 0) return options.checkpoint_every;
  const std::int64_t env = env_int("SNTRUST_CHECKPOINT_EVERY", 0);
  if (env > 0) return static_cast<std::uint64_t>(env);
  return std::max<std::uint64_t>(1, items / 8);
}

}  // namespace

void set_max_failed_frac(double frac) {
  g_max_failed_override.store(frac, std::memory_order_relaxed);
}

std::int64_t source_budget_ms() {
  return std::max<std::int64_t>(0, env_int("SNTRUST_SOURCE_BUDGET_MS", 0));
}

std::uint64_t graph_fingerprint(const Graph& graph) {
  // Same splitmix64 chain as ever, now computed (and cached) by the graph
  // itself: snapshot loads seed the cache from their verified header, so a
  // mapped graph keys checkpoints identically to a parsed one without the
  // O(n + m) rescan.
  return graph.fingerprint();
}

SweepResult run_sweep(std::size_t items, const SweepOptions& options,
                      const std::function<std::string(
                          std::size_t, std::uint32_t)>& compute) {
  SweepResult result;
  result.payloads.assign(items, {});

  // The watchdog only watches while a sweep (or pool region) is live, and
  // every completed source below is a heartbeat.
  obs::WatchdogActivity watchdog_activity;
  obs::QuantileHistogram& source_latency = obs::metrics_quantile(
      options.kind.empty() ? "sweep.source_ms"
                           : "sweep." + options.kind + ".source_ms");
  obs::WindowedQuantileHistogram& source_latency_window =
      obs::metrics_windowed(options.kind.empty()
                                ? "sweep.source_ms"
                                : "sweep." + options.kind + ".source_ms");

  CheckpointStore& store = CheckpointStore::instance();
  const bool checkpointing = store.armed() && !options.kind.empty();
  if (checkpointing)
    result.restored = store.restore(options.kind, options.fingerprint, items,
                                    result.payloads);

  // Completion flags: release on payload write, acquire before a concurrent
  // flush reads the payload. Restored slots are done up front.
  std::vector<std::atomic<std::uint8_t>> done(items);
  for (std::size_t i = 0; i < items; ++i)
    if (!result.payloads[i].empty())
      done[i].store(1, std::memory_order_relaxed);

  std::mutex failures_mutex;
  std::vector<SourceFailure> failures;
  std::atomic<bool> cancel_seen{false};
  std::atomic<std::uint64_t> computed{0};
  const std::uint64_t flush_every = resolve_flush_every(options, items);
  const std::int64_t budget_ms = source_budget_ms();

  // Snapshot only slots whose done flag is visible; reading a payload that
  // another worker is still assigning would be a race.
  auto flush = [&] {
    std::vector<std::string> snapshot(items);
    for (std::size_t i = 0; i < items; ++i)
      if (done[i].load(std::memory_order_acquire))
        snapshot[i] = result.payloads[i];
    store.save(options.kind, options.fingerprint, items, snapshot);
  };

  auto body = [&](std::size_t i, std::uint32_t worker) {
    if (done[i].load(std::memory_order_relaxed)) return;  // restored
    if (cancel_seen.load(std::memory_order_relaxed)) return;  // draining
    if (options.token.cancelled()) {
      cancel_seen.store(true, std::memory_order_relaxed);
      return;
    }
    const auto start = std::chrono::steady_clock::now();
    try {
      if (options.fault_site != nullptr) fault_point(options.fault_site, i);
      std::string payload = compute(i, worker);
      if (budget_ms > 0) {
        const std::int64_t elapsed_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (elapsed_ms > budget_ms)
          throw std::runtime_error(
              "source budget exceeded (" + std::to_string(elapsed_ms) +
              "ms > " + std::to_string(budget_ms) + "ms)");
      }
      result.payloads[i] = std::move(payload);
      done[i].store(1, std::memory_order_release);
      const double elapsed_ms =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count() /
          1e6;
      source_latency.record(elapsed_ms);
      source_latency_window.record(elapsed_ms);
      obs::watchdog_heartbeat();
      const std::uint64_t n =
          computed.fetch_add(1, std::memory_order_relaxed) + 1;
      if (checkpointing && n % flush_every == 0) flush();
    } catch (const CancelledError&) {
      // A nested parallel region observed the cancellation first; this
      // source is unfinished, not failed.
      cancel_seen.store(true, std::memory_order_relaxed);
    } catch (const std::exception& error) {
      std::lock_guard<std::mutex> lock(failures_mutex);
      failures.push_back(SourceFailure{i, options.kind, error.what()});
    }
  };

  try {
    parallel::parallel_for(0, items, body);
  } catch (const CancelledError&) {
    // The pool's own chunk-boundary check fired before any source of some
    // chunk ran; everything completed so far is still valid.
    cancel_seen.store(true, std::memory_order_relaxed);
  } catch (...) {
    if (checkpointing) flush();
    throw;
  }

  // Single-threaded from here on: payloads and flags are stable.
  std::sort(failures.begin(), failures.end(),
            [](const SourceFailure& a, const SourceFailure& b) {
              return a.index < b.index;
            });
  result.failures = failures;
  result.computed = computed.load(std::memory_order_relaxed);

  obs::RunReporter& reporter = obs::RunReporter::instance();
  for (const SourceFailure& failure : failures)
    reporter.record_failure(failure.phase, failure.index, failure.reason);

  if (checkpointing)
    store.save(options.kind, options.fingerprint, items, result.payloads);

  obs::count("exec.sources_completed", result.computed);
  obs::count("exec.sources_restored", result.restored);
  obs::count("exec.source_failures", failures.size());

  const bool cancelled =
      cancel_seen.load(std::memory_order_relaxed) || options.token.cancelled();
  if (cancelled) {
    obs::count("exec.sweeps_cancelled", 1);
    std::string reason = options.token.reason();
    if (reason.empty()) reason = "cancelled";
    reporter.set_interrupted(reason);
    const std::uint64_t finished = result.restored + result.computed;
    throw CancelledError("sweep '" + options.kind + "' cancelled after " +
                         std::to_string(finished) + "/" +
                         std::to_string(items) + " items (" + reason + ")");
  }

  if (items > 0 && !failures.empty()) {
    const double failed_frac =
        static_cast<double>(failures.size()) / static_cast<double>(items);
    const double max_frac = resolve_max_failed_frac(options);
    if (failed_frac > max_frac)
      throw PartialFailureError(
          "sweep '" + options.kind + "': " + std::to_string(failures.size()) +
          " of " + std::to_string(items) + " items failed (first: " +
          failures.front().reason + "), exceeding max failed fraction " +
          std::to_string(max_frac));
  }

  return result;
}

}  // namespace sntrust::exec
