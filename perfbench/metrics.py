"""Statistics and checks behind the benchmark's reported metrics.

Pure functions over the raw samples perfbench_driver writes; run.py applies
them and test_metrics.py pins them.
"""

import math
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def validate_name(name):
    """Raises ValueError unless `name` is a legal metric or workload name."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}: use [A-Za-z0-9_.-], "
                         "at most 64, starting with a letter or digit")
    return name


def validate_unit(unit):
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"illegal unit {unit!r}")
    return unit


def error_rate(failed, attempted):
    """failed / attempted, refusing counts that cannot be right."""
    if not (isinstance(failed, int) and isinstance(attempted, int)):
        raise TypeError("failed and attempted must be whole numbers")
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def percentile(values, q):
    """Nearest-rank percentile q in [0, 100]."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no samples")
    return values[max(1, math.ceil(q / 100 * len(values))) - 1]


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, samples); None with fewer than beyond + 1
    samples, where no such percentile exists.
    """
    values = sorted(values)
    n = len(values)
    if n <= beyond:
        return None
    return values[n - beyond - 1], 100.0 * (n - beyond) / n, n


def p99_with_support(values, beyond=TAIL_BEYOND):
    """p99, refusing it when fewer than `beyond` samples lie above it."""
    n = len(values)
    if n - math.ceil(0.99 * n) < beyond:
        raise ValueError(f"p99 of {n} samples has fewer than {beyond} beyond it")
    return percentile(values, 99)


def backlog_growing(step, limit_ms):
    """True when the sender fell further behind over an open-loop step."""
    return step["last_quarter_lag_ms"] > step["first_quarter_lag_ms"] + limit_ms / 2


def read_latencies(reads):
    """Latencies of the sampled reads in due order; a failed read (recorded
    as a negative latency) counts as an infinite one."""
    return [math.inf if x < 0 else x for x in reads["latency_ms"]]


def step_p99(step):
    """p99 of an open-loop step's sampled reads, failures counted as misses."""
    return p99_with_support(read_latencies(step))


def step_meets_limit(step, limit_ms):
    """A step meets the limit when its p99, failures counted as misses, stays
    under `limit_ms` and its backlog does not grow."""
    return step_p99(step) <= limit_ms and not backlog_growing(step, limit_ms)


def max_qps(steps, limit_ms):
    """Highest offered rate of an ascending ladder whose step, and every step
    below it, meets the limit; 0 when the lowest rate misses."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s["rate"]):
        if not step_meets_limit(step, limit_ms):
            break
        best = step["rate"]
    return best

