"""Pareto-dominance utilities: domination tests and non-dominated sorting.

Objective vectors are plain tuples of floats; ``directions`` gives one
``"min"`` or ``"max"`` per position.  Equal vectors do not dominate each
other, so exact ties and duplicates land in the same front — the behaviour
the frontier reports rely on.
"""

from __future__ import annotations

from typing import Sequence


def dominates(
    a: Sequence[float], b: Sequence[float], directions: Sequence[str]
) -> bool:
    """True when ``a`` is at least as good as ``b`` everywhere and better once."""
    if len(a) != len(b) or len(a) != len(directions):
        raise ValueError("objective vectors and directions must have equal length")
    strictly_better = False
    for value_a, value_b, direction in zip(a, b, directions):
        if direction == "min":
            if value_a > value_b:
                return False
            strictly_better = strictly_better or value_a < value_b
        elif direction == "max":
            if value_a < value_b:
                return False
            strictly_better = strictly_better or value_a > value_b
        else:
            raise ValueError(f"unknown objective direction {direction!r}")
    return strictly_better


def non_dominated_sort(
    vectors: Sequence[Sequence[float]], directions: Sequence[str]
) -> list[list[int]]:
    """Partition vector indices into Pareto fronts (front 0 = non-dominated).

    The classic O(n^2 m) fast-non-dominated-sort of NSGA-II; within a front,
    indices keep their input order, which keeps downstream reports
    deterministic.
    """
    n = len(vectors)
    dominated_by: list[list[int]] = [[] for _ in range(n)]  # i dominates these
    domination_count = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(vectors[i], vectors[j], directions):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(vectors[j], vectors[i], directions):
                dominated_by[j].append(i)
                domination_count[i] += 1

    fronts: list[list[int]] = []
    current = [i for i in range(n) if domination_count[i] == 0]
    while current:
        fronts.append(current)
        upcoming: list[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    upcoming.append(j)
        current = sorted(upcoming)
    return fronts


def pareto_indices(
    vectors: Sequence[Sequence[float]], directions: Sequence[str]
) -> list[int]:
    """Indices of the non-dominated vectors, in input order."""
    if not vectors:
        return []
    return non_dominated_sort(vectors, directions)[0]
