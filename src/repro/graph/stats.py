"""Degree-distribution statistics of graphs.

GROW's HDN caching is motivated by the power-law degree distribution of
real-world graphs (paper Figure 11): a small number of high-degree nodes
account for most adjacency non-zeros.  These helpers quantify that skew for
both the synthetic datasets and arbitrary graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph


def degree_distribution(graph: Graph) -> np.ndarray:
    """Sorted (descending) degree of every node: the Figure 11 curve."""
    # Negated stable sort, not sort-then-reverse: [::-1] would invert the
    # order of equal degrees (VEC002).
    degrees = graph.degrees().astype(np.int64)
    return -np.sort(-degrees, kind="stable")


def degree_stats(graph: Graph) -> dict[str, float]:
    """Summary statistics of the degree distribution."""
    degrees = graph.degrees().astype(np.float64)
    if degrees.size == 0:
        return {"mean": 0.0, "median": 0.0, "max": 0.0, "min": 0.0, "std": 0.0}
    return {
        "mean": float(degrees.mean()),
        "median": float(np.median(degrees)),
        "max": float(degrees.max()),
        "min": float(degrees.min()),
        "std": float(degrees.std()),
    }


def top_degree_edge_coverage(graph: Graph, k: int) -> float:
    """Fraction of adjacency non-zeros incident to the top-``k`` degree nodes.

    This is the quantity the HDN cache exploits: for power-law graphs a small
    ``k`` covers a large fraction of edges.
    """
    degrees = graph.degrees()
    total = degrees.sum()
    if total == 0:
        return 0.0
    k = min(k, degrees.size)
    top = -np.sort(-degrees, kind="stable")[:k]
    return float(top.sum()) / float(total)


def gini_coefficient(graph: Graph) -> float:
    """Gini coefficient of the degree distribution (0 = uniform, 1 = maximally skewed)."""
    degrees = np.sort(graph.degrees().astype(np.float64), kind="stable")
    n = degrees.size
    if n == 0 or degrees.sum() == 0:
        return 0.0
    cum = np.cumsum(degrees)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def powerlaw_fit_exponent(graph: Graph, x_min: int = 1) -> float:
    """Maximum-likelihood power-law exponent of the degree distribution.

    Uses the discrete Hill estimator ``1 + n / sum(ln(d / (x_min - 0.5)))``
    over degrees ``>= x_min``.
    """
    degrees = graph.degrees().astype(np.float64)
    degrees = degrees[degrees >= x_min]
    if degrees.size == 0:
        return float("nan")
    return float(1.0 + degrees.size / np.sum(np.log(degrees / (x_min - 0.5))))
