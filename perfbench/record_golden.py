#!/usr/bin/env python3
"""Records the paper workload's golden output digests.

    python3 perfbench/record_golden.py

Runs one suite repetition for each seed 0-99 with the current library, two
driver processes at a time (each uses 2 threads), and writes
perfbench/golden/paper_digests.json, which run.py compares every paper run
against. Record it only from a commit whose outputs are known good: a later
change must reproduce these digests bit for bit.
"""

import concurrent.futures
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def digests(seed):
    out = os.path.join(run.BUILD_DIR, "results", f"golden-seed{seed}.json")
    subprocess.run([run.DRIVER, "--workload", "paper", "--seed", str(seed),
                    "--seconds", "0.001", "--trace", "0", "--out", out],
                   check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        raw = json.load(f)
    (rep,) = raw["repetitions"]
    return seed, {dataset: rep[dataset]["digest"] for dataset in run.DATASETS}


def main():
    run.build()
    os.makedirs(os.path.join(run.BUILD_DIR, "results"), exist_ok=True)
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        recorded = dict(pool.map(digests, range(100)))
    os.makedirs(os.path.dirname(run.GOLDEN), exist_ok=True)
    with open(run.GOLDEN, "w") as f:
        json.dump({"seeds": {str(s): recorded[s] for s in sorted(recorded)}},
                  f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
