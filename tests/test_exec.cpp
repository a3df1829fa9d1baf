// Tests for the exec fault-tolerance layer: cooperative cancellation,
// deterministic fault injection, checkpoint/resume, and the sweep harness —
// including the acceptance property that an interrupted measurement resumed
// from its checkpoint is bitwise identical to an uninterrupted run at any
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/cancel.hpp"
#include "exec/checkpoint.hpp"
#include "exec/fault.hpp"
#include "exec/sweep.hpp"
#include "gen/generators.hpp"
#include "graph/components.hpp"
#include "markov/mixing.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/watchdog.hpp"
#include "parallel/parallel.hpp"
#include "sybil/gatekeeper.hpp"
#include "test_graphs.hpp"
#include "util/json.hpp"

namespace sntrust {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Restores process-global exec state (fault plan, cancellation, checkpoint
/// path) no matter how a test exits.
struct ExecStateGuard {
  ~ExecStateGuard() {
    exec::clear_fault_plan();
    exec::reset_process_cancel();
    exec::set_process_deadline(exec::Deadline{});
    exec::set_max_failed_frac(-1.0);
    exec::CheckpointStore::instance().set_path("");
    obs::StallWatchdog::instance().stop();
  }
};

TEST(ExecCancel, DefaultDeadlineNeverExpires) {
  const exec::Deadline none;
  EXPECT_FALSE(none.armed());
  EXPECT_FALSE(none.expired());
  EXPECT_GT(none.remaining_ms(), 1'000'000'000LL);
}

TEST(ExecCancel, ExpiredDeadlineReports) {
  const exec::Deadline past = exec::Deadline::after_ms(0);
  EXPECT_TRUE(past.armed());
  EXPECT_TRUE(past.expired());
  EXPECT_LE(past.remaining_ms(), 0);
}

TEST(ExecCancel, CancelSourceFlowsToToken) {
  exec::CancelSource source;
  const exec::CancelToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());
  source.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "cancelled");
  EXPECT_THROW(token.check(), exec::CancelledError);
}

TEST(ExecCancel, TokenDeadlineCancels) {
  const exec::CancelToken token =
      exec::CancelToken{}.with_deadline(exec::Deadline::after_ms(0));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "deadline exceeded");
}

TEST(ExecCancel, ProcessCancelRequestAndReset) {
  ExecStateGuard guard;
  EXPECT_FALSE(exec::process_cancel_requested());
  exec::request_process_cancel("test stop");
  EXPECT_TRUE(exec::process_cancel_requested());
  EXPECT_EQ(exec::process_cancel_reason(), "test stop");
  EXPECT_TRUE(exec::process_token().cancelled());
  exec::reset_process_cancel();
  EXPECT_FALSE(exec::process_cancel_requested());
  EXPECT_EQ(exec::process_cancel_reason(), "");
}

TEST(ExecCancel, PoolStopsAtChunkBoundaries) {
  ExecStateGuard guard;
  exec::request_process_cancel("chunk boundary test");
  std::atomic<std::uint64_t> ran{0};
  EXPECT_THROW(parallel::parallel_for(
                   0, 128,
                   [&](std::size_t, std::uint32_t) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                   }),
               exec::CancelledError);
  // Every chunk checks before running its first item, so nothing executes.
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ExecFault, ParsesWellFormedSpecs) {
  const auto plan = exec::parse_fault_plan("markov:7:0.5");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->site, "markov");
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->prob, 0.5);
  EXPECT_EQ(plan->action, exec::FaultPlan::Action::kThrow);

  const auto sigterm = exec::parse_fault_plan("io:123:0.25:sigterm");
  ASSERT_TRUE(sigterm.has_value());
  EXPECT_EQ(sigterm->action, exec::FaultPlan::Action::kSigterm);
}

TEST(ExecFault, ParsesSleepActionWithOptionalDuration) {
  const auto plain = exec::parse_fault_plan("pool:1:1.0:sleep");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->action, exec::FaultPlan::Action::kSleep);
  EXPECT_EQ(plain->sleep_ms, 250u);  // documented default

  const auto timed = exec::parse_fault_plan("pool:1:1.0:sleep400");
  ASSERT_TRUE(timed.has_value());
  EXPECT_EQ(timed->action, exec::FaultPlan::Action::kSleep);
  EXPECT_EQ(timed->sleep_ms, 400u);

  EXPECT_FALSE(exec::parse_fault_plan("pool:1:1.0:sleepx").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("pool:1:1.0:sleep4x").has_value());
}

TEST(ExecFault, SleepActionBlocksWithoutFailing) {
  ExecStateGuard guard;
  exec::FaultPlan plan;
  plan.site = "unit.sleep";
  plan.seed = 1;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSleep;
  plan.sleep_ms = 60;
  exec::set_fault_plan(plan);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(exec::fault_point("unit.sleep", 0));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // A forced stall, not a failure: the call blocks, then returns normally.
  EXPECT_GE(elapsed.count(), 50);
}

TEST(ExecFault, RejectsMalformedSpecs) {
  EXPECT_FALSE(exec::parse_fault_plan("").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7").has_value());
  EXPECT_FALSE(exec::parse_fault_plan(":7:0.5").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:x:0.5").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:nope").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:1.5").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:-0.1").has_value());
  EXPECT_FALSE(exec::parse_fault_plan("markov:7:0.5:explode").has_value());
}

TEST(ExecFault, FiringIsDeterministicPerIndex) {
  ExecStateGuard guard;
  exec::FaultPlan plan;
  plan.site = "test.site";
  plan.seed = 42;
  plan.prob = 0.3;
  exec::set_fault_plan(plan);

  const auto fired_indices = [] {
    std::vector<std::uint64_t> fired;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      try {
        exec::fault_point("test.site", i);
      } catch (const exec::InjectedFault&) {
        fired.push_back(i);
      }
    }
    return fired;
  };
  const std::vector<std::uint64_t> first = fired_indices();
  const std::vector<std::uint64_t> second = fired_indices();
  EXPECT_EQ(first, second);
  // Bernoulli(0.3) over 1000 trials: generous envelope, deterministic seed.
  EXPECT_GT(first.size(), 200u);
  EXPECT_LT(first.size(), 400u);
}

TEST(ExecFault, OnlyMatchingSiteFires) {
  ExecStateGuard guard;
  exec::FaultPlan plan;
  plan.site = "only.this";
  plan.seed = 1;
  plan.prob = 1.0;
  exec::set_fault_plan(plan);
  EXPECT_NO_THROW(exec::fault_point("other.site", 0));
  EXPECT_THROW(exec::fault_point("only.this", 0), exec::InjectedFault);
}

TEST(ExecCheckpoint, Crc32MatchesReference) {
  EXPECT_EQ(exec::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(exec::crc32(""), 0u);
}

TEST(ExecCheckpoint, FingerprintDependsOnOrderAndContent) {
  const std::uint64_t a = exec::fingerprint({1, 2, 3});
  EXPECT_EQ(a, exec::fingerprint({1, 2, 3}));
  EXPECT_NE(a, exec::fingerprint({3, 2, 1}));
  EXPECT_NE(a, exec::fingerprint({1, 2}));
}

TEST(ExecCheckpoint, SaveRestoreRoundTripsThroughDisk) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_roundtrip.json");
  std::remove(path.c_str());
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  store.set_path(path);

  std::vector<std::string> payloads{"[1,2]", "", "[0.25,3]", ""};
  store.save("unit", 0xabcdULL, 4, payloads);

  // Re-entering the path drops in-memory state, forcing a reload from disk.
  store.set_path(path);
  std::vector<std::string> restored(4);
  EXPECT_EQ(store.restore("unit", 0xabcdULL, 4, restored), 2u);
  EXPECT_EQ(restored[0], "[1,2]");
  EXPECT_EQ(restored[1], "");
  EXPECT_EQ(restored[2], "[0.25,3]");

  // Fingerprint or item-count mismatch: treated as a different sweep.
  std::vector<std::string> other(4);
  EXPECT_EQ(store.restore("unit", 0x9999ULL, 4, other), 0u);
  EXPECT_EQ(store.restore("unit", 0xabcdULL, 5, other), 0u);
  std::remove(path.c_str());
}

TEST(ExecCheckpoint, CorruptOrMismatchedFilesStartFresh) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_corrupt.json");
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  std::vector<std::string> restored(2);

  const auto expects_fresh = [&](const std::string& contents) {
    std::ofstream out{path};
    out << contents;
    out.close();
    store.set_path(path);
    restored.assign(2, {});
    EXPECT_EQ(store.restore("unit", 1, 2, restored), 0u);
  };

  expects_fresh("not json at all {{{");
  expects_fresh("{\"schema_version\":1,\"sweeps\":{");  // truncated
  expects_fresh("{\"schema_version\":99,\"sweeps\":{},\"crc32\":\"0\"}");
  expects_fresh(  // valid shape, wrong CRC: corrupt payload
      "{\"schema_version\":1,\"sweeps\":{\"unit:0000000000000001\":"
      "{\"fingerprint\":\"0000000000000001\",\"items\":2,"
      "\"completed\":{\"0\":[1]}}},\"crc32\":\"00000000\"}");
  std::remove(path.c_str());
}

TEST(ExecSweep, ComputesEveryPayload) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_sweep";
  const exec::SweepResult result = exec::run_sweep(
      8, options, [](std::size_t i, std::uint32_t) {
        return json::Value::integer(static_cast<std::int64_t>(i * i)).dump();
      });
  ASSERT_EQ(result.payloads.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(result.payloads[i], std::to_string(i * i));
  EXPECT_EQ(result.computed, 8u);
  EXPECT_EQ(result.restored, 0u);
  EXPECT_TRUE(result.failures.empty());
}

TEST(ExecSweep, StrictModeAbortsOnAnyFailure) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_sweep_strict";
  options.max_failed_frac = 0.0;
  EXPECT_THROW(
      exec::run_sweep(8, options,
                      [](std::size_t i, std::uint32_t) -> std::string {
                        if (i == 3) throw std::runtime_error("boom");
                        return "[]";
                      }),
      exec::PartialFailureError);
}

TEST(ExecSweep, DegradedModeRecordsAndSkipsFailures) {
  ExecStateGuard guard;
  exec::SweepOptions options;
  options.kind = "unit_sweep_degraded";
  options.max_failed_frac = 0.5;
  const exec::SweepResult result = exec::run_sweep(
      8, options, [](std::size_t i, std::uint32_t) -> std::string {
        if (i == 2 || i == 5) throw std::runtime_error("boom " +
                                                       std::to_string(i));
        return "[]";
      });
  ASSERT_EQ(result.failures.size(), 2u);
  EXPECT_EQ(result.failures[0].index, 2u);
  EXPECT_EQ(result.failures[0].phase, "unit_sweep_degraded");
  EXPECT_EQ(result.failures[0].reason, "boom 2");
  EXPECT_EQ(result.failures[1].index, 5u);
  EXPECT_TRUE(result.payloads[2].empty());
  EXPECT_TRUE(result.payloads[5].empty());
  EXPECT_EQ(result.computed, 6u);
}

TEST(ExecSweep, CancelledTokenDrainsAndThrows) {
  ExecStateGuard guard;
  exec::CancelSource source;
  source.cancel();
  exec::SweepOptions options;
  options.kind = "unit_sweep_cancel";
  options.token = source.token();
  std::atomic<std::uint64_t> ran{0};
  EXPECT_THROW(exec::run_sweep(8, options,
                               [&](std::size_t, std::uint32_t) {
                                 ran.fetch_add(1);
                                 return std::string("[]");
                               }),
               exec::CancelledError);
  EXPECT_EQ(ran.load(), 0u);
}

TEST(ExecSweep, RestoredSourcesSkipCompute) {
  ExecStateGuard guard;
  const std::string path = temp_path("sntrust_exec_restore.json");
  std::remove(path.c_str());
  exec::CheckpointStore& store = exec::CheckpointStore::instance();
  store.set_path(path);

  exec::SweepOptions options;
  options.kind = "unit_sweep_restore";
  options.fingerprint = 7;
  std::atomic<std::uint64_t> computed{0};
  const auto compute = [&](std::size_t i, std::uint32_t) {
    computed.fetch_add(1);
    return json::Value::integer(static_cast<std::int64_t>(100 + i)).dump();
  };
  const exec::SweepResult first = exec::run_sweep(6, options, compute);
  EXPECT_EQ(computed.load(), 6u);

  store.set_path(path);  // force reload from disk
  computed.store(0);
  const exec::SweepResult second = exec::run_sweep(6, options, compute);
  EXPECT_EQ(computed.load(), 0u);
  EXPECT_EQ(second.restored, 6u);
  EXPECT_EQ(second.payloads, first.payloads);
  std::remove(path.c_str());
}

TEST(ExecSweep, ForcedStallFiresWatchdogAndCancelsDraining) {
  ExecStateGuard guard;

  // Force the stall: every source wedges for 400 ms inside the injected
  // sleep — far past the 50 ms no-progress threshold.
  exec::FaultPlan plan;
  plan.site = "unit.stall";
  plan.seed = 1;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSleep;
  plan.sleep_ms = 400;
  exec::set_fault_plan(plan);

  obs::WatchdogOptions watchdog;
  watchdog.stall_ms = 50;
  watchdog.check_period_ms = 10;
  watchdog.cancel = true;  // escalate the stall to cooperative cancel
  obs::StallWatchdog::instance().configure(watchdog);

  const std::uint64_t stalls_before =
      obs::StallWatchdog::instance().stalls_detected();
  obs::Counter& stalled_events =
      obs::Metrics::instance().counter("exec.stalled");
  const std::uint64_t events_before = stalled_events.value();

  exec::SweepOptions options;
  options.kind = "unit_sweep_stall";
  // run_sweep opens the watchdog activity scope itself; the wedged workers
  // never heartbeat, the watchdog fires, requests process cancellation, and
  // the sweep drains at the next chunk boundary into CancelledError — the
  // same draining shutdown an operator sees as exit code 75.
  EXPECT_THROW(exec::run_sweep(64, options,
                               [](std::size_t i, std::uint32_t) {
                                 exec::fault_point("unit.stall", i);
                                 return std::string("[]");
                               }),
               exec::CancelledError);

  EXPECT_GE(obs::StallWatchdog::instance().stalls_detected() - stalls_before,
            1u);
  EXPECT_GE(stalled_events.value() - events_before, 1u);
  EXPECT_TRUE(exec::process_cancel_requested());
  EXPECT_NE(exec::process_cancel_reason().find("stalled"), std::string::npos);
}

TEST(ExecReport, BuildEmitsExecSectionAfterFailures) {
  obs::RunReporter& reporter = obs::RunReporter::instance();
  reporter.record_failure("unit_phase", 7, "unit reason");
  const json::Value report = reporter.build();
  const json::Value* exec_section = report.find("exec");
  ASSERT_NE(exec_section, nullptr);
  const json::Value* partial = exec_section->find("partial");
  ASSERT_NE(partial, nullptr);
  EXPECT_TRUE(partial->as_bool());
  const json::Value* failures = exec_section->find("failures");
  ASSERT_NE(failures, nullptr);
  bool found = false;
  for (const json::Value& row : failures->as_array()) {
    if (row.find("phase")->as_string() == "unit_phase" &&
        row.find("index")->as_int() == 7 &&
        row.find("reason")->as_string() == "unit reason")
      found = true;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Acceptance: interrupted sweeps resume bitwise identically.

Graph acceptance_graph() {
  return largest_component(barabasi_albert(300, 3, 5)).graph;
}

MixingOptions acceptance_mixing_options() {
  MixingOptions options;
  options.num_sources = 12;
  options.max_walk_length = 40;
  options.seed = 77;
  return options;
}

TEST(ExecResume, MixingSigtermMidRunThenResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  const MixingOptions options = acceptance_mixing_options();

  // Uninterrupted baseline, serial, no checkpoint.
  MixingCurves baseline;
  {
    parallel::ScopedThreadCount serial{1};
    baseline = measure_mixing(g, options);
  }

  const std::string path = temp_path("sntrust_exec_mixing_resume.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);

  // Interrupt: the first markov fault point raises SIGTERM; the sweep
  // drains, writes the checkpoint, and surfaces CancelledError.
  exec::FaultPlan plan;
  plan.site = "markov";
  plan.seed = 9;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSigterm;
  exec::set_fault_plan(plan);
  EXPECT_THROW(measure_mixing(g, options), exec::CancelledError);
  EXPECT_TRUE(std::filesystem::exists(path));

  // Recover and resume at a different thread count: the restored payloads
  // plus the freshly computed remainder must equal the baseline exactly.
  exec::clear_fault_plan();
  exec::reset_process_cancel();
  exec::CheckpointStore::instance().set_path(path);  // reload from disk
  MixingCurves resumed;
  {
    parallel::ScopedThreadCount wide{4};
    resumed = measure_mixing(g, options);
  }
  EXPECT_EQ(resumed.sources, baseline.sources);
  EXPECT_EQ(resumed.tvd, baseline.tvd);
  std::remove(path.c_str());
}

TEST(ExecResume, MixingPartialFailureThenResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  const MixingOptions options = acceptance_mixing_options();

  MixingCurves baseline;
  {
    parallel::ScopedThreadCount serial{1};
    baseline = measure_mixing(g, options);
  }

  const std::string path = temp_path("sntrust_exec_mixing_degraded.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);

  // Degraded first pass: some sources fail (deterministically, by hash) and
  // are tolerated; the survivors land in the checkpoint. The sweep item is
  // a block of kLanes sources, failing when any of its sources' trials
  // fires: at this seed the first and last blocks fail and the middle one
  // survives, so the resume below both restores and recomputes.
  exec::FaultPlan plan;
  plan.site = "markov";
  plan.seed = 11;
  plan.prob = 0.4;
  exec::set_fault_plan(plan);
  exec::set_max_failed_frac(1.0);
  const MixingCurves degraded = measure_mixing(g, options);
  ASSERT_EQ(degraded.sources.size(), kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_EQ(degraded.sources[l], baseline.sources[kLanes + l]);
    EXPECT_EQ(degraded.tvd[l], baseline.tvd[kLanes + l]);
  }

  // Second pass heals: failed sources recompute cleanly, completed ones are
  // restored — the merged result must equal the baseline bitwise.
  exec::clear_fault_plan();
  exec::set_max_failed_frac(-1.0);
  exec::CheckpointStore::instance().set_path(path);
  MixingCurves healed;
  {
    parallel::ScopedThreadCount wide{3};
    healed = measure_mixing(g, options);
  }
  EXPECT_EQ(healed.sources, baseline.sources);
  EXPECT_EQ(healed.tvd, baseline.tvd);
  std::remove(path.c_str());
}

TEST(ExecResume, MixingRefusesPerSourceCheckpoint) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  MixingOptions options = acceptance_mixing_options();
  options.num_sources = 3;  // one block: the item count a per-source
                            // checkpoint of one source would also have
  const MixingCurves baseline = measure_mixing(g, options);

  // A checkpoint in the per-source layout: one bare curve per item, keyed
  // by the configuration words alone. With one source it has the block
  // sweep's item count; it must be refused, not decoded as a block.
  const std::string path = temp_path("sntrust_exec_mixing_per_source.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);
  options.num_sources = 1;
  const std::uint64_t per_source_fingerprint = exec::fingerprint(
      {g.num_vertices(), g.num_edges(), 1, options.max_walk_length, 0ULL,
       options.seed, exec::graph_fingerprint(g)});
  exec::CheckpointStore::instance().save("measure_mixing",
                                         per_source_fingerprint, 1,
                                         {"[0.5,0.25]"});
  exec::CheckpointStore::instance().set_path(path);  // reload from disk
  const std::uint64_t restored0 =
      obs::metrics_counter("exec.sources_restored").value();
  const MixingCurves resumed = measure_mixing(g, options);
  EXPECT_EQ(obs::metrics_counter("exec.sources_restored").value(), restored0);
  ASSERT_EQ(resumed.sources.size(), 1u);
  EXPECT_EQ(resumed.sources.front(), baseline.sources.front());
  EXPECT_EQ(resumed.tvd.front(), baseline.tvd.front());
  std::remove(path.c_str());
}

TEST(ExecResume, GatekeeperResumeIsBitwiseIdentical) {
  ExecStateGuard guard;
  const Graph g = acceptance_graph();
  GateKeeperParams params;
  params.seed = 2026;
  params.num_distributers = 10;

  GateKeeperResult baseline;
  {
    parallel::ScopedThreadCount serial{1};
    baseline = run_gatekeeper(g, 0, params);
  }

  const std::string path = temp_path("sntrust_exec_gatekeeper_resume.json");
  std::remove(path.c_str());
  exec::CheckpointStore::instance().set_path(path);

  exec::FaultPlan plan;
  plan.site = "sybil";
  plan.seed = 3;
  plan.prob = 1.0;
  plan.action = exec::FaultPlan::Action::kSigterm;
  exec::set_fault_plan(plan);
  EXPECT_THROW(run_gatekeeper(g, 0, params), exec::CancelledError);

  exec::clear_fault_plan();
  exec::reset_process_cancel();
  exec::CheckpointStore::instance().set_path(path);
  GateKeeperResult resumed;
  {
    parallel::ScopedThreadCount wide{4};
    resumed = run_gatekeeper(g, 0, params);
  }
  EXPECT_EQ(resumed.distributers, baseline.distributers);
  EXPECT_EQ(resumed.admissions, baseline.admissions);
  EXPECT_EQ(resumed.threshold, baseline.threshold);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sntrust
