#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <paper|serve-read|serve-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Builds perfbench_driver (and the library from ../src) into
.bench_build/perfbench, runs one workload in one process, checks its outputs,
and prints every metric by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. Exits 1 when a correctness check fails or the driver
cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
GOLDEN = os.path.join(HERE, "golden", "paper_digests.json")
WORKLOADS = ("paper", "serve-read", "serve-churn")
DATASETS = ("dblp", "epinion")
# serve-read's max_qps: the highest offered rate whose p99 read latency,
# failures counted as misses, stays under this limit without a growing
# backlog.
LATENCY_LIMIT_MS = 2.0
DRIVER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and brings the driver up to date (quick when it is)."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
              "-j", "4"]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError(f"build step failed: {' '.join(step)}")


def run_driver(args, out_path):
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", out_path]
    with subprocess.Popen(command, stdout=sys.stderr) as proc:
        try:
            code = proc.wait(timeout=DRIVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("driver timed out")
    if code != 0:
        raise RuntimeError(f"driver exited with {code}")
    with open(out_path) as f:
        return json.load(f)


# --- correctness --------------------------------------------------------

def check_paper(raw, seed, golden):
    """Every suite run of a dataset gives one digest, equal to the golden
    digest recorded for this seed when there is one; outputs are in range."""
    problems = []
    runs = list(raw["repetitions"])
    if "traced_runs" in raw:
        runs.append(raw["traced_runs"])
    reference = golden.get(str(seed), {})
    for dataset in DATASETS:
        digests = {run[dataset]["digest"] for run in runs}
        if len(digests) != 1:
            problems.append(f"{dataset}: runs disagree: {sorted(digests)}")
        expected = reference.get(dataset)
        if expected is not None and digests != {expected}:
            problems.append(f"{dataset}: digest {sorted(digests)} != golden {expected}")
        if not all(run[dataset]["in_range"] for run in runs):
            problems.append(f"{dataset}: output out of range (mu not in (0,1)?)")
    note = "golden digest compared" if reference else "no golden digest for this seed"
    return problems, note


def check_serve(raw):
    """Every sampled answer is fresh (no artifact left stale or degraded by a
    failed build or refresh) and byte-equal to answer_uncached; after churn
    the service serves the graph the schedule was built against."""
    problems = []
    checks = [raw[k] for k in ("check_before", "check_after") if k in raw]
    for check in checks:
        if check["checked"] < 1:
            problems.append("no answer was checked")
        if check["not_checked"]:
            problems.append(f"{check['not_checked']} sampled answers failed or "
                            "were degraded with no churn pending")
        if check["mismatched"]:
            problems.append(f"{check['mismatched']} of {check['checked']} sampled "
                            "answers differ from answer_uncached")
    if raw.get("final_graph_matches") is False:
        problems.append("the served graph after churn differs from the schedule's")
    checked = sum(c["checked"] for c in checks)
    return problems, f"{checked} sampled answers byte-compared with answer_uncached"


# --- metrics ------------------------------------------------------------

def end_to_end(workload, raw):
    values = {"setup_s": m.median(raw["setup_s"]), "peak_rss_mb": raw["peak_rss_mb"]}
    if workload == "serve-churn":
        values["wall_s"] = m.median(raw["fresh_ms"]) / 1e3
        counts = {"refreshes": len(raw["fresh_ms"])}
    elif workload == "serve-read":
        # The fastest burst. A burst is a fixed ~20 ms of caller-thread work,
        # and on shared hosts it runs ~1.5x slower for seconds at a time as
        # neighbours contend for the core; the median then tracks how long
        # a run spent slowed, the minimum the code's own cost.
        values["wall_s"] = min(raw["wall_s"])
        counts = {"wall_s units": len(raw["wall_s"])}
    else:
        values["wall_s"] = m.median(raw["wall_s"])
        counts = {"wall_s units": len(raw["wall_s"])}
    counts["set-ups"] = len(raw["setup_s"])
    return values, counts


def per_layer(workload, raw, names):
    """Every per-layer metric; a layer the workload does not run reads 0."""
    values = dict.fromkeys(names, 0.0)
    layers = dict(raw.get("layers", {}))
    for name, value in layers.items():
        if isinstance(value, list):
            if name == "bench.lag_ms":
                value = m.percentile(value, 99) if value else 0.0
            else:
                value = m.median(value) if value else 0.0
        values[name] = value
    values["error_rate"] = m.error_rate(raw["failed"], raw["attempted"])
    counts = {}
    if workload == "paper":
        for dataset, run in raw["traced_runs"].items():
            values[f"markov.slem_iterations.{dataset}"] = run["slem_iterations"]
            values[f"markov.slem_converged.{dataset}"] = 1.0 if run["slem_converged"] else 0.0
    else:
        # Reads at the reference rate, untraced, over every sampled answered
        # read. Failed reads count in `failed`, not here.
        reads = raw["reads"]
        answered = [x for x in reads["latency_ms"] if x >= 0]
        values["read_p50_ms"] = m.percentile(answered, 50)
        values["read_p99_ms"] = m.p99_with_support(answered)
        values["bench.read_samples"] = len(answered)
        values["degraded_frac"] = reads["degraded"] / max(1, reads["answered"])
    if workload == "serve-read":
        values["max_qps"] = m.max_qps(raw["ladder"], LATENCY_LIMIT_MS)
        counts["ladder"] = {
            int(s["rate"]): {"p99_ms": round(m.step_p99(s), 4),
                             "backlog_growing": m.backlog_growing(s, LATENCY_LIMIT_MS),
                             "failed": s["failed"]}
            for s in raw["ladder"]}
    if workload == "serve-churn":
        fresh = raw["fresh_ms"]
        values["fresh_ms_p50"] = m.median(fresh)
        t = m.tail(fresh)
        values["fresh_ms_tail"] = t[0] if t else max(fresh)
        values["bench.fresh_samples"] = len(fresh)
        if t:
            counts["fresh_ms_tail"] = f"p{t[1]:.1f} of {t[2]} samples"
    return values, counts


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            m.validate_name(metric["name"])
            m.validate_unit(metric["unit"])
    return spec


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_benchmark()
    group = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in group}

    build()
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(results_dir,
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    raw = run_driver(args, out_path)

    if args.workload == "paper":
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN) as f:
                golden = json.load(f)["seeds"]
        problems, note = check_paper(raw, args.seed, golden)
    else:
        problems, note = check_serve(raw)

    if args.trace:
        values, counts = per_layer(args.workload, raw, list(units))
    else:
        values, counts = end_to_end(args.workload, raw)
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")

    print(f"provenance: {json.dumps(raw['provenance'], sort_keys=True)}")
    print(f"correctness: {'ok' if not problems else 'FAILED'} ({note})")
    for problem in problems:
        print(f"  {problem}")
    print(f"operations: {raw['failed']} failed of {raw['attempted']} attempted "
          f"(error_rate {m.error_rate(raw['failed'], raw['attempted']):.4f})")
    for key, value in counts.items():
        print(f"samples: {key} = {value}")
    if "library_spans" in raw:
        spans = ", ".join(f"{k}={v:.1f}" for k, v in raw["library_spans"].items())
        print(f"library spans (ms): {spans}")
    for name in units:
        print(f"{name} = {values[name]:.6g} {units[name]}")

    result = {
        "correct": not problems,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as error:  # no result line: the run did not complete
        log(f"perfbench: {error}")
        sys.exit(1)
