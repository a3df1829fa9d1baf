// `serve-read` and `serve-churn` workloads: a TrustService stood up with
// TrustService::open from a snapshot of the epinion analogue, written in an
// untimed preparation step, and driven by one sender thread.
//
// Reads are the app_serving mix: Zipf(0.99) targets, half admission, half
// read queries. Open-loop reads arrive as a seeded Poisson process; the
// sender sends every read that is due as one ask_batch and times each read
// from its due time, so a stall delays the reads behind it and that wait is
// counted.
//
// serve-read stresses the query path. GateKeeper and the markov kernels run
// only in set-up (cold start). Its wall_s is the cached answer path on the
// caller thread (answer_batch): on a shared virtual machine the pipelined
// path's thread hand-offs doubled or halved its time from run to run as the
// host's steal time came and went, so queue and batching are measured by the
// traced run (max_qps, read latency, serve.queue_ms) instead.
// serve-churn adds seeded EdgeBatches of joins and removals on a fixed
// schedule, issued by the same sender, on a graph small enough that many
// refreshes fit in one run: apply_edges and the artifact rebuild run beside
// the reads, on the same library pool. The schedule keeps the graph
// connected, as SybilRank requires, so every refresh can install fresh
// artifacts.
//
// Threads: the sender, the service's drain thread, its refresh thread
// (serve-churn, while a refresh runs) and one library pool worker.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "common.hpp"
#include "dynamic/evolution.hpp"
#include "graph/components.hpp"
#include "graph/snapshot.hpp"
#include "obs/trace.hpp"
#include "serve/trust_service.hpp"
#include "serve/zipf.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace sntrust;
using serve::Answer;
using serve::Defense;
using serve::Query;
using serve::QueryKind;
using serve::QueryStatus;
using serve::TrustService;

constexpr double kReadScale = 0.35;
constexpr double kChurnScale = 0.03;
constexpr double kZipfExponent = 0.99;
/// Set-ups per run, for setup_s's median: serve-read's cold start takes
/// about a second, serve-churn's a tenth of one.
constexpr int kReadSetupRepetitions = 7;
constexpr int kChurnSetupRepetitions = 21;
constexpr std::size_t kMaxSendBatch = 256;
/// Closed-loop bursts behind serve-read's wall_s.
constexpr std::size_t kBurstQueries = 1 << 20;
constexpr std::size_t kMinBursts = 3;
/// serve-read's reference rate (read_p50_ms, read_p99_ms) and the offered-
/// rate ladder behind max_qps, in reads per second. The ladder and the traced
/// reads take these shares of --seconds in the traced run.
constexpr double kReferenceRate = 50'000;
constexpr std::array<double, 7> kLadder = {50'000,  100'000,   200'000,  400'000,
                                           800'000, 1'600'000, 3'200'000};
constexpr double kLadderShare = 0.6;
constexpr double kTracedReadShare = 0.2;
/// serve-churn: read rate, and one edge batch every kChurnInterval seconds.
constexpr double kChurnReadRate = 20'000;
constexpr double kChurnInterval = 0.2;
constexpr VertexId kJoinsPerBatch = 4;
constexpr std::size_t kRemovalsPerBatch = 8;
/// Latency and lag samples kept per open-loop phase: every stride-th read
/// (stride = expected reads / kMaxSamples, rounded up) is recorded.
constexpr double kMaxSamples = 200'000;
constexpr double kFailedRead = -1.0;
/// Answers byte-checked against answer_uncached per query class (admission
/// and trust score under SybilRank and GateKeeper, coreness, landmark). The
/// GateKeeper classes get one each: an uncached GateKeeper answer rebuilds
/// the whole ticket distribution.
constexpr std::array<int, 6> kCheckQuota = {3, 1, 3, 1, 3, 3};

/// The app_serving query mix.
Query next_query(Rng& rng, const serve::ZipfGenerator& zipf) {
  Query query;
  query.vertex = static_cast<VertexId>(zipf(rng));
  const double mix = rng.uniform_real();
  if (mix < 0.5) {
    query.kind = QueryKind::kAdmission;
    query.defense = rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
  } else {
    const double read = (mix - 0.5) / 0.5;
    if (read < 0.4) {
      query.kind = QueryKind::kTrustScore;
      query.defense =
          rng.bernoulli(0.5) ? Defense::kSybilRank : Defense::kGateKeeper;
    } else if (read < 0.7) {
      query.kind = QueryKind::kCoreness;
    } else {
      query.kind = QueryKind::kLandmark;
    }
  }
  return query;
}

std::size_t query_class(const Query& q) {
  switch (q.kind) {
    case QueryKind::kAdmission:
      return q.defense == Defense::kSybilRank ? 0 : 1;
    case QueryKind::kTrustScore:
      return q.defense == Defense::kSybilRank ? 2 : 3;
    case QueryKind::kCoreness:
      return 4;
    case QueryKind::kLandmark:
      return 5;
  }
  return 0;
}

TrustService::Options service_options(std::uint64_t seed) {
  TrustService::Options options;
  options.config.seeds = {0, 1, 2, 3, 4};
  options.config.gatekeeper.seed = seed;
  options.precompute = false;
  return options;
}

std::string prepare_snapshot(const Args& args, double scale, Graph& graph) {
  graph = seeded_analogue("epinion", scale, args.seed);
  const std::string path = args.out + ".snap";
  write_snapshot(graph, path);
  return path;
}

/// open + warm, timed as graph.load_ms and serve.warm_ms.
std::unique_ptr<TrustService> stand_up(const std::string& path,
                                       std::uint64_t seed, LayerTimes& layers) {
  std::unique_ptr<TrustService> service{layers.time("graph.load_ms", [&] {
    return new TrustService(TrustService::open(path, service_options(seed)));
  })};
  layers.time("serve.warm_ms", [&] { service->warm(); });
  service->start();
  return service;
}

/// Repeated set-ups; returns the last service and each set-up's seconds.
std::unique_ptr<TrustService> stand_up_repeated(const std::string& path,
                                                std::uint64_t seed, int reps,
                                                std::vector<double>& setup_s) {
  std::unique_ptr<TrustService> service;
  for (int rep = 0; rep < reps; ++rep) {
    service.reset();
    LayerTimes untimed;
    const double start = now_s();
    service = stand_up(path, seed, untimed);
    setup_s.push_back(now_s() - start);
  }
  return service;
}

/// Operations offered (reads and edge batches) and reads failed (refused,
/// shed, expired or cancelled).
struct Operations {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Outcome of one open-loop phase at one offered rate.
struct OpenLoopStats {
  std::uint64_t stride = 1;  ///< one read in `stride` is sampled
  /// Sampled reads in due order: latency from the due time, or kFailedRead.
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  ///< sampled sends: now - oldest due time
  std::int64_t offered = 0;
  std::int64_t failed = 0;
  std::int64_t answered = 0;
  std::int64_t degraded = 0;
  double ask_ms = 0.0;   ///< time inside ask_batch
  double idle_ms = 0.0;  ///< time waiting for the next due read
  double first_quarter_lag_ms = 0.0;
  double last_quarter_lag_ms = 0.0;

  Value to_json(double rate) const {
    return object_of({{"rate", num(rate)},
                      {"stride", Value::integer(static_cast<std::int64_t>(stride))},
                      {"offered", Value::integer(offered)},
                      {"failed", Value::integer(failed)},
                      {"answered", Value::integer(answered)},
                      {"degraded", Value::integer(degraded)},
                      {"latency_ms", array_of(latency_ms)},
                      {"lag_ms", array_of(lag_ms)},
                      {"first_quarter_lag_ms", num(first_quarter_lag_ms)},
                      {"last_quarter_lag_ms", num(last_quarter_lag_ms)}});
  }
};

/// Offers reads as a Poisson process at `rate` for `duration_s`. `on_tick`
/// runs before every send and wait with the current time and returns the
/// time of its next event (serve-churn's edge batches). The sender stands in
/// for separate read and write clients: a read that falls due while on_tick
/// works is timed from when on_tick returned, and the wait shows as sender
/// lag instead.
OpenLoopStats open_loop(TrustService& service, double rate, double duration_s,
                        std::uint64_t seed, Operations& ops,
                        const std::function<double(double)>& on_tick = {}) {
  OpenLoopStats stats;
  stats.stride = static_cast<std::uint64_t>(std::ceil(rate * duration_s / kMaxSamples));
  stats.latency_ms.reserve(static_cast<std::size_t>(kMaxSamples) + kMaxSendBatch);
  stats.lag_ms.reserve(static_cast<std::size_t>(kMaxSamples) + kMaxSendBatch);
  Rng arrivals{stream_seed(seed, 1)};
  Rng queries{stream_seed(seed, 2)};
  const serve::ZipfGenerator zipf{service.graph().num_vertices(), kZipfExponent};
  const auto gap = [&] { return -std::log(1.0 - arrivals.uniform_real()) / rate; };

  std::vector<Query> batch;
  std::vector<double> due;
  std::vector<Answer> answers(kMaxSendBatch);
  std::uint64_t sends = 0;
  // Backlog growth: the sender's mean lateness early and late in the phase.
  double first_lag = 0.0, last_lag = 0.0;
  std::size_t first_n = 0, last_n = 0;
  double tick_start = 0.0, tick_end = 0.0;
  const double start = now_s();
  const double end = start + duration_s;
  double next_due = start + gap();
  while (next_due < end) {
    double now = now_s();
    double next_event = std::numeric_limits<double>::infinity();
    if (on_tick) {
      tick_start = now;
      next_event = on_tick(now);
      now = tick_end = now_s();
    }
    if (next_due > now) {
      // Sleep through long gaps, spin through short ones.
      const double wake = std::min(next_due, next_event);
      const double wait_start = now;
      while (now < wake) {
        if (wake - now > 1e-3)
          std::this_thread::sleep_for(
              std::chrono::duration<double>(wake - now - 5e-4));
        else
          std::this_thread::yield();
        now = now_s();
      }
      stats.idle_ms += 1e3 * (now - wait_start);
      continue;
    }
    batch.clear();
    due.clear();
    while (next_due <= now && next_due < end && batch.size() < kMaxSendBatch) {
      batch.push_back(next_query(queries, zipf));
      due.push_back(next_due);
      next_due += gap();
    }
    const double lag = 1e3 * (now - due.front());
    if (sends++ % stats.stride == 0) stats.lag_ms.push_back(lag);
    if (now - start < duration_s / 4) first_lag += lag, ++first_n;
    if (now - start >= 3 * duration_s / 4) last_lag += lag, ++last_n;
    service.ask_batch(batch, std::span<Answer>{answers.data(), batch.size()});
    const double done = now_s();
    stats.ask_ms += 1e3 * (done - now);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const bool ok = answers[i].status == QueryStatus::kOk;
      const double from =
          due[i] >= tick_start && due[i] < tick_end ? tick_end : due[i];
      if (stats.offered++ % stats.stride == 0)
        stats.latency_ms.push_back(ok ? 1e3 * (done - from) : kFailedRead);
      if (!ok) {
        ++stats.failed;
        continue;
      }
      ++stats.answered;
      if (answers[i].degraded) ++stats.degraded;
    }
  }
  stats.first_quarter_lag_ms = first_n ? first_lag / first_n : 0.0;
  stats.last_quarter_lag_ms = last_n ? last_lag / last_n : 0.0;
  ops.attempted += stats.offered;
  ops.failed += stats.failed;
  return stats;
}

/// Closed-loop bursts of the same kBurstQueries seeded reads through
/// answer_batch, kMaxSendBatch at a time, for `budget_s` seconds and at least
/// kMinBursts of them; seconds per burst. The reads are drawn once, so the
/// budget is spent answering, not drawing.
std::vector<double> bursts(TrustService& service, std::uint64_t seed,
                           double budget_s, Operations& ops) {
  Rng rng{stream_seed(seed, 4)};
  const serve::ZipfGenerator zipf{service.graph().num_vertices(), kZipfExponent};
  std::vector<Query> queries(kBurstQueries);
  for (Query& q : queries) q = next_query(rng, zipf);
  std::vector<Answer> answers(kMaxSendBatch);
  std::vector<double> seconds;
  const double first = now_s();
  while (seconds.size() < kMinBursts || now_s() - first < budget_s) {
    const double start = now_s();
    for (std::size_t i = 0; i < queries.size(); i += kMaxSendBatch) {
      const std::size_t take = std::min(kMaxSendBatch, queries.size() - i);
      service.answer_batch(std::span<const Query>{queries.data() + i, take},
                           std::span<Answer>{answers.data(), take});
      ops.attempted += static_cast<std::int64_t>(take);
      ops.failed += std::count_if(answers.begin(), answers.begin() + take,
                                  [](const Answer& a) { return a.status != QueryStatus::kOk; });
    }
    seconds.push_back(now_s() - start);
  }
  return seconds;
}

/// A seeded sweep through the pipelined path with no churn pending. Every
/// answer must be fresh (not_checked counts those that are not) and
/// byte-identical to answer_uncached.
Value sweep_check(TrustService& service, std::uint64_t seed) {
  Rng rng{stream_seed(seed, 5)};
  const serve::ZipfGenerator zipf{service.graph().num_vertices(), kZipfExponent};
  std::vector<Query> queries;
  std::array<int, kCheckQuota.size()> quota = kCheckQuota;
  while (std::any_of(quota.begin(), quota.end(), [](int q) { return q > 0; })) {
    const Query q = next_query(rng, zipf);
    if (quota[query_class(q)]-- > 0) queries.push_back(q);
  }
  std::vector<Answer> answers(queries.size());
  service.ask_batch(queries, answers);
  std::int64_t checked = 0, mismatched = 0, not_checked = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (answers[i].status != QueryStatus::kOk || answers[i].degraded) {
      ++not_checked;
      continue;
    }
    const Answer reference = service.answer_uncached(queries[i]);
    ++checked;
    if (std::memcmp(&reference, &answers[i], sizeof(Answer)) != 0) ++mismatched;
  }
  return object_of({{"checked", Value::integer(checked)},
                    {"mismatched", Value::integer(mismatched)},
                    {"not_checked", Value::integer(not_checked)}});
}

/// Library-side metrics over the phase since the last reset.
std::vector<std::pair<std::string, Value>> serve_library_layers() {
  const double hits = static_cast<double>(counter("serve.cache_hits"));
  const double misses = static_cast<double>(counter("serve.cache_misses"));
  return {
      {"serve.queue_ms.p50", num(quantile("serve.queue_ms", 0.5))},
      {"serve.queue_ms.p99", num(quantile("serve.queue_ms", 0.99))},
      {"serve.service_ms.p50", num(quantile("serve.service_ms", 0.5))},
      {"serve.service_ms.p99", num(quantile("serve.service_ms", 0.99))},
      {"serve.batch_occupancy", num(histogram_mean("serve.batch_occupancy"))},
      {"serve.cache_hit_ratio", num(hits + misses > 0 ? hits / (hits + misses) : 0.0)},
      {"serve.shed", num(counter("serve.shed"))},
      {"serve.degraded", num(counter("serve.degraded"))},
      {"sybil.gatekeeper_ms", num(span_ms("serve.compute_gatekeeper"))},
      {"sybil.sybilrank_ms", num(span_ms("serve.compute_sybilrank"))},
      {"gatekeeper.ticket_runs", num(counter("gatekeeper.ticket_runs"))},
      {"gatekeeper.tickets_sent", num(counter("gatekeeper.tickets_sent"))},
      {"parallel.utilization", num(gauge("parallel.utilization"))},
      {"parallel.region_ms.p99", num(histogram_quantile("parallel.region_ms", 0.99))},
  };
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0 : n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Fills `schedule` with seeded batches: kJoinsPerBatch new vertices joining
/// with two edges each to vertices of `initial`, and kRemovalsPerBatch
/// distinct edges of the graph as the batches before leave it. A removal
/// that would disconnect the graph is dropped. Times apply_edge_batch of each
/// batch (graph.apply_batch_ms) and returns the graph after the last one.
Graph churn_schedule(const Graph& initial, std::uint64_t seed,
                     std::span<EdgeBatch> schedule,
                     std::vector<double>& apply_batch_ms) {
  Rng rng{stream_seed(seed, 6)};
  Graph current = initial;
  VertexId next_vertex = initial.num_vertices();
  for (EdgeBatch& batch : schedule) {
    for (VertexId i = 0; i < kJoinsPerBatch; ++i, ++next_vertex)
      for (int e = 0; e < 2; ++e)
        batch.insertions.push_back(
            {next_vertex, static_cast<VertexId>(rng.uniform(initial.num_vertices()))});
    const std::vector<Edge> edges = current.edges();
    while (batch.removals.size() < kRemovalsPerBatch) {
      const Edge e = edges[rng.uniform(edges.size())];
      if (std::find(batch.removals.begin(), batch.removals.end(), e) ==
          batch.removals.end())
        batch.removals.push_back(e);
    }
    const double start = now_s();
    Graph next = apply_edge_batch(current, batch);
    apply_batch_ms.push_back(1e3 * (now_s() - start));
    if (!is_connected(next)) {
      // Keep, in order, each removal that leaves the graph connected.
      std::vector<Edge> candidates;
      candidates.swap(batch.removals);
      for (const Edge& e : candidates) {
        batch.removals.push_back(e);
        if (!is_connected(apply_edge_batch(current, batch))) batch.removals.pop_back();
      }
      next = apply_edge_batch(current, batch);
    }
    current = std::move(next);
  }
  return current;
}

struct ChurnStats {
  OpenLoopStats reads;
  std::vector<double> fresh_ms;    ///< per batch: apply_edges call to installed
  std::vector<double> apply_ms;    ///< per batch: the apply_edges call
  std::vector<double> refresh_ms;  ///< per refresh: last apply to installed
  std::size_t batches = 0;
  double unattributed_ms = 0.0;
};

/// Reads at kChurnReadRate beside `schedule`, batch k applied at start +
/// k * kChurnInterval by the sender. A batch's freshness runs from its
/// apply_edges call until the sender first sees no refresh in flight; a batch
/// applied while a refresh runs is covered by the coalesced refresh that
/// follows, so its freshness is an upper bound.
ChurnStats churn_phase(TrustService& service, std::span<const EdgeBatch> schedule,
                       double duration_s, std::uint64_t seed, Operations& ops) {
  ChurnStats stats;
  LayerTimes layers;
  std::vector<double> pending;  // apply start times not yet installed
  double apply_end = 0.0;
  const double start = now_s();
  const auto on_tick = [&](double now) {
    if (!pending.empty() && !service.refresh_in_flight()) {
      for (const double applied : pending)
        stats.fresh_ms.push_back(1e3 * (now - applied));
      stats.refresh_ms.push_back(1e3 * (now - apply_end));
      pending.clear();
    }
    if (stats.batches < schedule.size() &&
        now >= start + stats.batches * kChurnInterval) {
      pending.push_back(now);
      layers.time("serve.apply_ms",
                  [&] { service.apply_edges(schedule[stats.batches]); });
      apply_end = now_s();
      stats.apply_ms.push_back(1e3 * (apply_end - now));
      ++stats.batches;
      ++ops.attempted;
    }
    return stats.batches < schedule.size()
               ? start + stats.batches * kChurnInterval
               : std::numeric_limits<double>::infinity();
  };
  stats.reads = open_loop(service, kChurnReadRate, duration_s, seed, ops, on_tick);
  // A batch the sender had no tick left for is applied, on time, after the
  // reads.
  while (stats.batches < schedule.size()) {
    while (now_s() < start + stats.batches * kChurnInterval) std::this_thread::yield();
    on_tick(now_s());
  }
  layers.time("serve.wait_for_refresh_ms", [&] { service.wait_for_refresh(); });
  const double done = now_s();
  for (const double applied : pending) stats.fresh_ms.push_back(1e3 * (done - applied));
  if (!pending.empty()) stats.refresh_ms.push_back(1e3 * (done - apply_end));
  stats.unattributed_ms = 1e3 * (done - start) - layers.total_ms() -
                          stats.reads.ask_ms - stats.reads.idle_ms;
  return stats;
}

Value finish(std::vector<std::pair<std::string, Value>> result, const Args& args,
             double scale, const Graph& graph, const Operations& ops,
             const std::vector<double>& setup_s, double rss_mb) {
  result.emplace_back("provenance", provenance(args, scale, {{"epinion", &graph}}));
  result.emplace_back("attempted", Value::integer(ops.attempted));
  result.emplace_back("failed", Value::integer(ops.failed));
  result.emplace_back("setup_s", array_of(setup_s));
  result.emplace_back("peak_rss_mb", num(rss_mb));
  return object_of(std::move(result));
}

}  // namespace

Value run_serve_read(const Args& args) {
  Graph graph;
  const std::string path = prepare_snapshot(args, kReadScale, graph);
  std::vector<double> setup_s;
  std::unique_ptr<TrustService> service = stand_up_repeated(
      path, args.seed, args.trace ? 1 : kReadSetupRepetitions, setup_s);
  std::vector<std::pair<std::string, Value>> result;
  Operations ops;
  // Traced runs keep the bursts short: they are only the reference for
  // bench.trace_overhead.
  const std::vector<double> wall_s =
      bursts(*service, args.seed, args.trace ? 0.0 : args.seconds, ops);
  const double rss_mb = peak_rss_mb();
  result.emplace_back("wall_s", array_of(wall_s));

  if (args.trace) {
    // Untraced: the offered-rate ladder behind max_qps; its step at the
    // reference rate gives read_p50_ms and read_p99_ms.
    json::Array ladder;
    const double step_s = kLadderShare * args.seconds / kLadder.size();
    for (std::size_t i = 0; i < kLadder.size(); ++i) {
      const OpenLoopStats step = open_loop(*service, kLadder[i], step_s,
                                           stream_seed(args.seed, 100 + i), ops);
      if (kLadder[i] == kReferenceRate)
        result.emplace_back("reads", step.to_json(kLadder[i]));
      ladder.push_back(step.to_json(kLadder[i]));
    }
    result.emplace_back("ladder", Value::array(std::move(ladder)));

    // Traced: set-up, bursts and reads at the reference rate.
    service.reset();
    start_tracing();
    LayerTimes layers;
    const double start = now_s();
    service = stand_up(path, args.seed, layers);
    const std::vector<double> traced_wall_s = layers.time(
        "serve.answer_batch_ms", [&] { return bursts(*service, args.seed, 0.0, ops); });
    const OpenLoopStats reads = open_loop(
        *service, kReferenceRate, kTracedReadShare * args.seconds, args.seed, ops);
    layers.add("serve.ask_batch_ms", reads.ask_ms);
    const double traced_ms = 1e3 * (now_s() - start);
    obs::Tracer::instance().disable();

    std::vector<std::pair<std::string, Value>> layer_values = serve_library_layers();
    layer_values.insert(
        layer_values.end(),
        {{"graph.load_ms", num(layers.get("graph.load_ms"))},
         {"serve.warm_ms", num(layers.get("serve.warm_ms"))},
         {"serve.answer_batch_ms", num(layers.get("serve.answer_batch_ms"))},
         {"serve.ask_batch_ms", num(layers.get("serve.ask_batch_ms"))},
         {"bench.lag_ms", array_of(reads.lag_ms)},
         {"bench.unattributed_ms", num(traced_ms - layers.total_ms() - reads.idle_ms)},
         {"bench.trace_overhead", num(median(traced_wall_s) / median(wall_s))}});
    result.emplace_back("layers", object_of(std::move(layer_values)));
    result.emplace_back("library_spans", span_totals());
  }

  result.emplace_back("check_after", sweep_check(*service, args.seed));
  service->stop();
  return finish(std::move(result), args, kReadScale, graph, ops, setup_s, rss_mb);
}

Value run_serve_churn(const Args& args) {
  Graph graph;
  const std::string path = prepare_snapshot(args, kChurnScale, graph);
  std::vector<double> setup_s;
  std::unique_ptr<TrustService> service =
      stand_up_repeated(path, args.seed, kChurnSetupRepetitions, setup_s);
  std::vector<std::pair<std::string, Value>> result;
  result.emplace_back("check_before", sweep_check(*service, args.seed));

  std::vector<EdgeBatch> schedule(static_cast<std::size_t>(args.seconds / kChurnInterval));
  std::vector<double> apply_batch_ms;
  const Graph final_graph = churn_schedule(graph, args.seed, schedule, apply_batch_ms);

  Operations ops;
  double rss_mb = 0.0;
  if (!args.trace) {
    const ChurnStats churn = churn_phase(*service, schedule, args.seconds, args.seed, ops);
    rss_mb = peak_rss_mb();
    result.emplace_back("reads", churn.reads.to_json(kChurnReadRate));
    result.emplace_back("fresh_ms", array_of(churn.fresh_ms));
  } else {
    // Half the schedule untraced (freshness, read latency and the reference
    // for bench.trace_overhead), half traced.
    const std::size_t half = schedule.size() / 2;
    const ChurnStats untraced =
        churn_phase(*service, std::span{schedule}.first(half), args.seconds / 2,
                    args.seed, ops);
    start_tracing();
    const ChurnStats traced =
        churn_phase(*service, std::span{schedule}.subspan(half), args.seconds / 2,
                    stream_seed(args.seed, 7), ops);
    obs::Tracer::instance().disable();
    std::vector<std::pair<std::string, Value>> layer_values = serve_library_layers();
    layer_values.insert(
        layer_values.end(),
        {{"graph.apply_batch_ms", array_of(apply_batch_ms)},
         {"serve.apply_ms", array_of(traced.apply_ms)},
         {"serve.refresh_ms", array_of(traced.refresh_ms)},
         {"serve.ask_batch_ms", num(traced.reads.ask_ms)},
         {"bench.lag_ms", array_of(traced.reads.lag_ms)},
         {"bench.unattributed_ms", num(traced.unattributed_ms)},
         {"bench.trace_overhead",
          num(median(traced.fresh_ms) / median(untraced.fresh_ms))}});
    result.emplace_back("layers", object_of(std::move(layer_values)));
    result.emplace_back("library_spans", span_totals());
    result.emplace_back("reads", untraced.reads.to_json(kChurnReadRate));
    result.emplace_back("fresh_ms", array_of(untraced.fresh_ms));
  }

  result.emplace_back("final_graph_matches",
                      Value::boolean(service->graph().fingerprint() ==
                                     final_graph.fingerprint()));
  result.emplace_back("check_after", sweep_check(*service, args.seed + 1));
  service->stop();
  return finish(std::move(result), args, kChurnScale, graph, ops, setup_s, rss_mb);
}

}  // namespace perfbench
