"""Statistics helpers of the benchmark: quartiles, the nearest-rank
tail, span self time, and pair wins for parent/change comparisons."""

import math
import statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 when the
    median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def nearest_rank(samples, pct):
    """Nearest-rank percentile (pct in (0, 100]) of samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples, beyond=10):
    """The highest nearest-rank percentile with at least `beyond`
    samples above it, as (percentile, value). With too few samples
    for any such percentile the median stands in."""
    ordered = sorted(samples)
    rank = len(ordered) - beyond
    if rank < 1:
        return 50.0, nearest_rank(ordered, 50.0)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval covered by its children. `spans` holds (parent, start,
    end) tuples, parent being an index into `spans` or -1."""
    children = [[] for _ in spans]
    for index, (parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    result = []
    for index, (_, start, end) in enumerate(spans):
        covered = 0
        reach = start
        for child in sorted(children[index], key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def pair_wins(parent, change, better):
    """Count (wins, losses, ties) of `change` over `parent`, pairing
    runs in order; `better` is "lower" or "higher". Ties count for
    neither side."""
    wins = losses = ties = 0
    for before, after in zip(parent, change):
        if after == before:
            ties += 1
        elif (after < before) == (better == "lower"):
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


def verdict(parent, change, better, bound):
    """Compare two sets of runs of one metric: "improved" when the
    change wins at least nine tenths of the pairs and the medians
    differ by more than the parent's interquartile distance;
    "regressed" when the change's
    median is worse by more than `bound`; "unresolved" when either
    side's spread exceeds the bound and not every change run beats
    every parent run; otherwise "within bound"."""
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    wins, _, _ = pair_wins(parent, change, better)
    pairs = min(len(parent), len(change))
    if pairs and wins >= 0.9 * pairs and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved"
    if bound is None:
        return "unchanged"
    dominates = all(sign * (c - p) < 0 for c in change for p in parent)
    if max(spread(parent), spread(change)) > bound and not dominates:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    return "within bound"
