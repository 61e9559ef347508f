"""Synthetic graph generators.

Real-world graphs studied by the paper follow power-law degree distributions
and exhibit community structure; both properties are what GROW's HDN cache
and graph-partitioning pass exploit.  The generators here produce graphs with
controlled node count, average degree, degree-distribution skew and
community structure so the dataset stand-ins in :mod:`repro.graph.datasets`
can mimic each of the paper's eight workloads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.graph.graph import Graph
from repro.sparse import blocks
from repro.sparse.unique import unique_in_place


def _edgeless_graph(name: str, communities: np.ndarray | None = None) -> Graph:
    """The degenerate single-node graph every generator collapses to."""
    empty = np.empty(0, dtype=np.int64)
    return Graph(
        num_nodes=1, src=empty, dst=empty, name=name, undirected=True,
        communities=communities,
    )


def powerlaw_degree_sequence(
    num_nodes: int,
    average_degree: float,
    exponent: float = 2.1,
    rng: np.random.Generator | None = None,
    max_degree: int | None = None,
) -> np.ndarray:
    """Draw a power-law degree sequence with a target mean.

    Degrees are sampled from a Pareto-like distribution with the given
    exponent and then rescaled so the empirical mean matches
    ``average_degree``.  The heaviest nodes are clipped to ``max_degree``
    (default: ``num_nodes - 1``), the lightest are floored to 1; the scale
    is then re-fit against the *quantised* sequence and any residual is
    redistributed one unit at a time, so the empirical mean lands on the
    target (to within 1/num_nodes) instead of drifting low whenever the
    clip shaves mass off the heavy tail.  Targets outside the reachable
    ``[1, max_degree]`` band saturate at the nearest bound.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if average_degree <= 0:
        raise ValueError("average_degree must be positive")
    cap = max_degree if max_degree is not None else num_nodes - 1
    cap = max(1, cap)
    target = min(max(average_degree, 1.0), float(cap))
    with np.errstate(over="ignore"):
        raw = (1.0 - rng.random(num_nodes)) ** (-1.0 / (exponent - 1.0))
    # Exponents near 1 overflow the Pareto transform to inf at large sizes;
    # a draw that deep in the tail lands on the cap after quantisation no
    # matter its exact value, so a huge finite stand-in is exact — and keeps
    # the mean/scale arithmetic below NaN-free.
    raw = np.minimum(raw, 1e18)

    def quantise(scale: float) -> np.ndarray:
        return np.minimum(np.maximum(1, np.round(raw * scale)).astype(np.int64), cap)

    # Multiplicative re-fit: the quantised mean is monotone in the scale, so
    # a few rounds of scale *= target/mean converge to the neighbourhood of
    # the target while preserving the distribution's shape.
    scale = target / raw.mean()
    degrees = quantise(scale)
    for _ in range(24):
        mean = degrees.mean()
        if abs(mean - target) <= 0.005 * target:
            break
        scale *= target / mean
        degrees = quantise(scale)

    # Exact redistribution of the residual quantisation error: add/remove
    # single units at randomly chosen nodes that have headroom.
    total_target = int(round(num_nodes * target))
    deficit = total_target - int(degrees.sum())
    while deficit != 0:
        if deficit > 0:
            eligible = np.where(degrees < cap)[0]
            step = 1
        else:
            eligible = np.where(degrees > 1)[0]
            step = -1
        if eligible.size == 0:
            break  # target saturates the reachable band
        chosen = rng.choice(eligible, size=min(abs(deficit), eligible.size), replace=False)
        degrees[chosen] += step
        deficit = total_target - int(degrees.sum())
    return degrees


def chung_lu_graph(
    num_nodes: int,
    average_degree: float,
    exponent: float = 2.1,
    num_communities: int = 1,
    intra_community_prob: float = 0.8,
    rng: np.random.Generator | None = None,
    name: str = "chung-lu",
) -> Graph:
    """Power-law graph with optional planted community structure.

    Edges are sampled with probability proportional to the product of the
    endpoints' target degrees (the Chung-Lu model).  When
    ``num_communities > 1``, a fraction ``intra_community_prob`` of each
    node's edges is drawn from its own community, giving the graph the
    clustered structure that makes graph partitioning effective.  The planted
    community of every node is recorded on the returned graph's
    ``communities`` attribute.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if num_nodes == 1:
        # A single node admits no self-loop-free edge; the self-loop
        # redirection below would otherwise draw from an empty range.
        return _edgeless_graph(name, communities=np.zeros(1, dtype=np.int64))
    # Cap hub degrees the way real graphs do: the heaviest node touches a
    # few percent of the graph, not (nearly) all of it.
    max_degree = int(min(num_nodes - 1, max(50, 12 * average_degree, num_nodes * 0.04)))
    degrees = powerlaw_degree_sequence(num_nodes, average_degree, exponent, rng, max_degree=max_degree)
    community = rng.integers(0, max(1, num_communities), size=num_nodes)

    # Pre-compute, per community, the node list and a degree-proportional
    # cumulative distribution so endpoint selection is a batched searchsorted.
    # Intra-community draws use a softened (square-root) degree bias so the
    # community structure is not washed out by the global hubs.
    weights = degrees.astype(np.float64)
    global_cdf = np.cumsum(weights)
    global_cdf /= global_cdf[-1]
    community_members: list[np.ndarray] = []
    community_cdfs: list[np.ndarray] = []
    for c in range(max(1, num_communities)):
        members = np.where(community == c)[0]
        if members.size == 0:
            members = np.arange(num_nodes)
        cdf = np.cumsum(np.sqrt(weights[members]))
        cdf /= cdf[-1]
        community_members.append(members)
        community_cdfs.append(cdf)

    # Degree-proportional sampling concentrates edges on hub nodes, so many
    # draws collide with already-sampled edges.
    src, dst = _unique_edges(
        rng,
        num_nodes,
        average_degree,
        oversample=1.5,
        sample_batch=lambda batch: _sample_batch(
            rng, batch, global_cdf, community, community_members, community_cdfs,
            intra_community_prob,
        ),
    )
    return Graph(
        num_nodes=num_nodes,
        src=src,
        dst=dst,
        name=name,
        undirected=True,
        communities=community.astype(np.int64),
    )


def _sample_batch(
    rng: np.random.Generator,
    batch_size: int,
    global_cdf: np.ndarray,
    community: np.ndarray,
    community_members: list[np.ndarray],
    community_cdfs: list[np.ndarray],
    intra_community_prob: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one batch of Chung-Lu candidate edges (may contain duplicates).

    Sources come from ``global_cdf``; a fraction ``intra_community_prob`` of
    destinations from the source's community, when there is more than one.
    Each purpose's uniforms are drawn in the order and number that one call
    per purpose draws them, a block at a time: ``Generator.random`` fills
    its output one double after another, so the stream is the same and the
    scratch is block-sized.
    """
    num_nodes = community.size
    clustered = len(community_cdfs) > 1
    src = np.empty(batch_size, dtype=np.int64)
    for lo, hi in blocks.spans(batch_size):
        src[lo:hi] = np.searchsorted(global_cdf, rng.random(hi - lo))
    intra = np.empty(batch_size, dtype=bool)
    for lo, hi in blocks.spans(batch_size):
        np.less(rng.random(hi - lo), intra_community_prob, out=intra[lo:hi])
    dst = np.empty(batch_size, dtype=np.int64)
    for lo, hi in blocks.spans(batch_size):
        inter = np.flatnonzero(~intra[lo:hi]) + lo if clustered else np.arange(lo, hi)
        dst[inter] = np.searchsorted(global_cdf, rng.random(inter.size))
    if clustered:
        # The intra draws grouped by their source's community, ascending
        # batch position within each (the order a stable sort by community
        # gives): one sort of (community, position) keys.
        grouped = np.empty(np.count_nonzero(intra), dtype=np.int64)
        filled = 0
        for lo, hi in blocks.spans(batch_size):
            at = np.flatnonzero(intra[lo:hi]) + lo
            slot = grouped[filled : filled + at.size]
            np.multiply(community[src[at]], batch_size, out=slot)
            slot += at
            filled += at.size
        grouped.sort()
        ends = np.searchsorted(grouped, np.arange(1, len(community_cdfs) + 1) * batch_size)
        np.remainder(grouped, batch_size, out=grouped)
        start = 0
        for members, cdf, end in zip(community_members, community_cdfs, ends.tolist()):
            for lo, hi in blocks.spans(end - start):
                picks = np.searchsorted(cdf, rng.random(hi - lo))
                dst[grouped[start + lo : start + hi]] = members[picks]
            start = end
    # Remove self loops by redirecting them to a random other node.
    loops = src == dst
    if loops.any():
        dst[loops] = (
            dst[loops] + 1 + rng.integers(0, num_nodes - 1, size=int(loops.sum()))
        ) % num_nodes
    return src, dst


def _unique_edges(
    rng: np.random.Generator,
    num_nodes: int,
    average_degree: float,
    oversample: float,
    sample_batch: Callable[[int], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Sources and destinations of the distinct undirected edges a sampler draws.

    Samples in rounds until the number of *unique* undirected edges reaches
    the target implied by ``average_degree`` (at most 12 rounds), each
    round ``oversample`` candidates per missing edge, then cuts a random
    subset down to the target.  Each candidate's key, ``lo * n + hi``, is
    written over its source, and the keys are deduplicated in place, so a
    round holds its batch and the kept keys, not copies of them.
    """
    target_edges = max(1, int(round(num_nodes * average_degree / 2)))
    unique_keys = np.empty(0, dtype=np.int64)
    for _round in range(12):
        remaining = target_edges - unique_keys.size
        if remaining <= 0:
            break
        src, dst = sample_batch(max(256, int(remaining * oversample)))
        for lo, hi in blocks.spans(src.size):
            low = np.minimum(src[lo:hi], dst[lo:hi])
            np.maximum(src[lo:hi], dst[lo:hi], out=src[lo:hi])
            low *= num_nodes
            src[lo:hi] += low
        del dst
        keys = np.concatenate([unique_keys, src]) if unique_keys.size else src
        unique_keys = unique_in_place(keys)
    if unique_keys.size > target_edges:
        # In place, the draws and order of rng.permutation(unique_keys).
        rng.shuffle(unique_keys)
        unique_keys = unique_keys[:target_edges]
    return np.divmod(unique_keys, num_nodes)


def erdos_renyi_graph(
    num_nodes: int,
    average_degree: float,
    rng: np.random.Generator | None = None,
    name: str = "erdos-renyi",
) -> Graph:
    """Uniform random graph (no power law); used for non-power-law studies."""
    if rng is None:
        rng = np.random.default_rng(0)
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if num_nodes == 1:
        return _edgeless_graph(name)
    num_edges = max(1, int(round(num_nodes * average_degree / 2)))
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    loops = src == dst
    if loops.any():
        dst[loops] = (dst[loops] + 1) % num_nodes
    return Graph(num_nodes=num_nodes, src=src, dst=dst, name=name, undirected=True)


#: Probability that a Holme-Kim newcomer's next edge closes a triangle.
_TRIANGLE_PROB = 0.3


def powerlaw_cluster_graph(
    num_nodes: int,
    average_degree: float,
    rng: np.random.Generator | None = None,
    name: str = "powerlaw-cluster",
) -> Graph:
    """Holme-Kim style preferential-attachment graph with triangle closure.

    Produces both a power-law degree distribution and high clustering, which
    is representative of citation networks (Cora/Citeseer/Pubmed).  After a
    newcomer's first edge, each further edge closes a triangle with
    probability ``_TRIANGLE_PROB``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if num_nodes == 1:
        return _edgeless_graph(name)
    # Like the other generators, degenerate sizes saturate instead of raising:
    # with fewer than m + 1 nodes each newcomer simply attaches to everyone
    # already present.
    m = min(max(1, int(round(average_degree / 2))), num_nodes - 1)
    src_list: list[int] = []
    dst_list: list[int] = []
    # Repeated-target array implements preferential attachment: nodes appear
    # once per incident edge, so sampling uniformly from it is degree-biased.
    # Preallocated at its final size (m seeds + 2 entries per edge) so each
    # draw is O(1) instead of re-materialising a growing Python list.
    repeated = np.empty(m + 2 * m * (num_nodes - m), dtype=np.int64)
    repeated[:m] = np.arange(m)
    repeated_size = m
    # Incremental adjacency: out_neighbors[x] then in_neighbors[x], each in
    # edge-insertion order, concatenate to exactly the neighbour pool the
    # original edge-list scan produced.
    out_neighbors: list[list[int]] = [[] for _ in range(num_nodes)]
    in_neighbors: list[list[int]] = [[] for _ in range(num_nodes)]
    for new_node in range(m, num_nodes):
        chosen: set[int] = set()
        first_target: int | None = None
        while len(chosen) < m:
            if first_target is not None and rng.random() < _TRIANGLE_PROB and repeated_size:
                # Triangle step: connect to a random neighbour of the previous target.
                neighbor_pool = out_neighbors[first_target] + in_neighbors[first_target]
                if neighbor_pool:
                    candidate = int(rng.choice(neighbor_pool))
                else:
                    candidate = int(rng.choice(repeated[:repeated_size]))
            else:
                candidate = (
                    int(rng.choice(repeated[:repeated_size]))
                    if repeated_size
                    else int(rng.integers(0, new_node))
                )
            if candidate != new_node and candidate not in chosen:
                chosen.add(candidate)
                if first_target is None:
                    first_target = candidate
        for target in chosen:
            src_list.append(new_node)
            dst_list.append(target)
            out_neighbors[new_node].append(target)
            in_neighbors[target].append(new_node)
            repeated[repeated_size] = new_node
            repeated[repeated_size + 1] = target
            repeated_size += 2
    return Graph(
        num_nodes=num_nodes,
        src=np.asarray(src_list, dtype=np.int64),
        dst=np.asarray(dst_list, dtype=np.int64),
        name=name,
        undirected=True,
    )


#: The Graph500 R-MAT quadrant probabilities ``(a, b, c)``; ``d = 1 - a - b - c``.
_RMAT_A, _RMAT_B, _RMAT_C = 0.57, 0.19, 0.19


def rmat_graph(
    num_nodes: int,
    average_degree: float,
    rng: np.random.Generator | None = None,
    name: str = "rmat",
    num_communities: int = 1,
) -> Graph:
    """Recursive-matrix (R-MAT / Graph500 style) power-law graph.

    Each edge picks one quadrant of the adjacency matrix per bit level with
    the Graph500 probabilities ``(a, b, c, d)``, which yields the skewed,
    self-similar degree distributions of web and social graphs.  Because the
    recursion concentrates edges hierarchically, nodes are labelled with
    ``num_communities`` contiguous id ranges on the returned graph's
    ``communities`` attribute — the natural community structure an R-MAT id
    encodes in its high bits.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    a, b, c = _RMAT_A, _RMAT_B, _RMAT_C
    communities = None
    if num_communities > 1:
        # Contiguous id ranges: the recursion's high bits.
        communities = (
            np.arange(num_nodes, dtype=np.int64) * min(num_communities, num_nodes)
        ) // num_nodes
    if num_nodes == 1:
        return _edgeless_graph(name, communities=np.zeros(1, dtype=np.int64))
    levels = max(1, int(np.ceil(np.log2(num_nodes))))

    def _sample_batch(batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        """The in-range candidates of ``batch_size`` R-MAT draws, in draw order.

        The uniforms are drawn a row block at a time: ``Generator.random``
        fills row-major, so the stream is that of one ``(batch_size,
        levels)`` call.  The self-loop redirection draws after all of them.
        """
        src = np.empty(batch_size, dtype=np.int64)
        dst = np.empty(batch_size, dtype=np.int64)
        filled = 0
        block_rows = max(1, blocks.BLOCK_ENTRIES // levels)
        for start in range(0, batch_size, block_rows):
            draws = rng.random((min(block_rows, batch_size - start), levels))
            block_src = np.zeros(draws.shape[0], dtype=np.int64)
            block_dst = np.zeros(draws.shape[0], dtype=np.int64)
            for level in range(levels):
                r = draws[:, level]
                # Quadrants in probability order: a=(0,0), b=(0,1), c=(1,0), d=(1,1).
                block_src <<= 1
                block_src |= r >= a + b
                block_dst <<= 1
                block_dst |= ((r >= a) & (r < a + b)) | (r >= a + b + c)
            in_range = (block_src < num_nodes) & (block_dst < num_nodes)
            kept = np.count_nonzero(in_range)
            src[filled : filled + kept] = block_src[in_range]
            dst[filled : filled + kept] = block_dst[in_range]
            filled += kept
        src, dst = src[:filled], dst[:filled]
        loops = src == dst
        if loops.any():
            dst[loops] = (
                dst[loops] + 1 + rng.integers(0, num_nodes - 1, size=int(loops.sum()))
            ) % num_nodes
        return src, dst

    # The recursion concentrates draws on hub quadrants, so duplicates are
    # common.
    src, dst = _unique_edges(rng, num_nodes, average_degree, 2.0, _sample_batch)
    return Graph(
        num_nodes=num_nodes,
        src=src,
        dst=dst,
        name=name,
        undirected=True,
        communities=communities,
    )
