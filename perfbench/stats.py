"""Order statistics, span self time and the pairwise verdict rule.

Pure functions over plain numbers so that ``test_perfbench.py`` can check
the arithmetic without running a model.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10          # samples that must lie beyond the reported tail


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def tail(samples, beyond: int = TAIL_BEYOND):
    """Highest-percentile sample with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n_beyond)``; ``percentile`` is the share
    of samples at or below ``value`` times 100. Needs ``beyond + 1`` samples.
    """
    s = sorted(samples)
    n = len(s)
    if n <= beyond:
        raise ValueError(f"tail needs at least {beyond + 1} samples, got {n}")
    r = n - beyond - 1
    while sum(1 for v in s if v > s[r]) < beyond:
        r -= 1                       # ties at s[r]: step down to a lower value
    at_or_below = sum(1 for v in s if v <= s[r])
    return s[r], 100.0 * at_or_below / n, n - at_or_below


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the part of ``[start, end]`` its children cover."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children
               if hi > start and lo < end]
    return (end - start) - covered(clipped)


def verdict(base, head, better: str, bound: float, base_seeds=None,
            head_seeds=None):
    """Compare two sets of runs of one metric.

    Pairs are matched by seed when both sides carry seeds, else by order.
    ``head`` is the change, ``base`` the parent. Returns a dict with both
    medians and quartiles, the share of pairs the change won, and one of
    ``improved``, ``unchanged``, ``worse`` or ``unresolved``:

    * improved: the change wins at least nine tenths of the pairs (ties
      count for neither) and its median beats the parent's by more than the
      parent's own quartile spread;
    * when either side's quartile spread exceeds ``bound`` (as a share of
      its median), the metric is unresolved, unless every run of the change
      is better than every run of the parent (unchanged) or every run is
      worse and the medians differ by more than ``bound`` (worse);
    * otherwise worse when the change's median is worse than the parent's
      by more than ``bound`` of the parent's median, else unchanged.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)

    if base_seeds is not None and head_seeds is not None:
        by_seed = dict(zip(base_seeds, base))
        pairs = [(by_seed[s], h) for s, h in zip(head_seeds, head) if s in by_seed]
    else:
        pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (b - h) > 0)
    won = wins / len(pairs) if pairs else 0.0

    worse_by = sign * (hmed - bmed) / bmed if bmed else float("inf")
    spread = max((bq3 - bq1) / bmed if bmed else float("inf"),
                 (hq3 - hq1) / hmed if hmed else float("inf"))
    all_better = all(sign * (b - h) > 0 for b in base for h in head)
    all_worse = all(sign * (h - b) > 0 for b in base for h in head)

    if pairs and won >= 0.9 and sign * (bmed - hmed) > (bq3 - bq1):
        call = "improved"
    elif spread > bound:
        if all_better:
            call = "unchanged"
        elif all_worse and worse_by > bound:
            call = "worse"
        else:
            call = "unresolved"
    elif worse_by > bound:
        call = "worse"
    else:
        call = "unchanged"
    return {"base": (bq1, bmed, bq3), "head": (hq1, hmed, hq3),
            "pairs": len(pairs), "won": won, "worse_by": worse_by,
            "verdict": call}
