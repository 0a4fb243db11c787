"""Pareto-front utilities for multi-objective design-space exploration."""

from __future__ import annotations

from operator import itemgetter


def dominates(a, b):
    """True if point ``a`` dominates ``b`` (all objectives minimized).

    ``a`` and ``b`` are equal-length metric tuples.
    """
    at_least_as_good = all(x <= y for x, y in zip(a, b))
    strictly_better = any(x < y for x, y in zip(a, b))
    return at_least_as_good and strictly_better


def pareto_front(points, key=None):
    """Non-dominated subset of ``points`` (minimization).

    ``key(point)`` extracts the metric tuple; defaults to identity, and
    runs once per point.  Returns the front sorted by the full metric
    tuple, ties in input order — a value-based order, so two runs that
    discover the same front in different completion orders (serial vs
    parallel workers, or a resumed service study) render it
    identically.  Metric ties are all kept.

    A dominating point sorts lexicographically before every point it
    dominates, so one pass over the sorted points that keeps each point
    no kept point dominates yields exactly the front.
    """
    key = key or (lambda p: p)
    ranked = sorted(((key(point), point) for point in points),
                    key=itemgetter(0))
    kept = []
    for metrics, point in ranked:
        if not any(dominates(front_metrics, metrics)
                   for front_metrics, _ in kept):
            kept.append((metrics, point))
    return [point for _, point in kept]


def hypervolume_2d(front, reference):
    """2-D hypervolume (area dominated up to ``reference``), for tests
    and convergence tracking."""
    points = sorted((tuple(p) for p in front))
    area = 0.0
    prev_x = None
    best_y = reference[1]
    for x, y in points:
        if x >= reference[0]:
            break
        if prev_x is not None:
            area += (x - prev_x) * max(0.0, reference[1] - best_y)
        prev_x = x
        best_y = min(best_y, y)
    if prev_x is not None:
        area += (reference[0] - prev_x) * max(0.0, reference[1] - best_y)
    return area
