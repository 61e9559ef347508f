"""Shared fixtures for the test suite.

Expensive objects (synthetic datasets, GCN models, preprocessing plans) are
built once per session at a reduced scale so the whole suite stays fast while
still exercising the real code paths end to end.
"""

from __future__ import annotations

import os

# Tests must never append to the repository's real run ledger
# (benchmarks/ledger.jsonl); ledger tests opt back in on tmp paths.
# Set before any repro import so CLI subprocesses inherit it too.
os.environ["REPRO_LEDGER"] = "0"

import numpy as np
import pytest

from repro.accelerators.base import AcceleratorConfig
from repro.accelerators.workload import build_model_workloads
from repro.core.config import GrowConfig
from repro.core.preprocess import GrowPreprocessor
from repro.gcn.layer import GCNLayer, build_model_for_dataset
from repro.graph.datasets import load_dataset
from repro.graph.generators import chung_lu_graph
from repro.graph.graph import Graph
from repro.sparse.convert import dense_to_csr


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for per-test randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_dense(rng) -> np.ndarray:
    """A small dense matrix with ~30% non-zeros."""
    matrix = rng.standard_normal((12, 9))
    matrix[rng.random((12, 9)) > 0.3] = 0.0
    return matrix


@pytest.fixture
def small_csr(small_dense):
    """CSR version of the small dense matrix."""
    return dense_to_csr(small_dense)


@pytest.fixture
def tiny_graph() -> Graph:
    """The 6-node example graph of the paper's Figure 12."""
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5), (0, 5)]
    return Graph.from_edge_list(6, edges, name="figure12")


@pytest.fixture(scope="session")
def community_graph() -> Graph:
    """A power-law graph with planted communities, shared across tests."""
    return chung_lu_graph(
        num_nodes=600,
        average_degree=8.0,
        exponent=2.1,
        num_communities=6,
        intra_community_prob=0.85,
        rng=np.random.default_rng(7),
        name="community",
    )


@pytest.fixture(scope="session")
def small_dataset():
    """A scaled-down Cora stand-in used by model/workload tests."""
    return load_dataset("cora", num_nodes=300, seed=3)


@pytest.fixture(scope="session")
def small_large_dataset():
    """A scaled-down Amazon stand-in (power-law, 64-wide features)."""
    return load_dataset("amazon", num_nodes=800, seed=3)


@pytest.fixture(scope="session")
def small_model(small_dataset):
    """GCN model of the scaled-down Cora stand-in."""
    return build_model_for_dataset(small_dataset, seed=3)


@pytest.fixture(scope="session")
def small_workloads(small_model):
    """Per-layer SpDeGEMM workloads of the small model."""
    return build_model_workloads(small_model)


@pytest.fixture(scope="session")
def large_model(small_large_dataset):
    return build_model_for_dataset(small_large_dataset, seed=3)


@pytest.fixture(scope="session")
def large_workloads(large_model):
    return build_model_workloads(large_model)


@pytest.fixture(scope="session")
def small_plan(small_dataset):
    """Partitioned preprocessing plan of the small dataset."""
    return GrowPreprocessor(target_cluster_nodes=100, seed=3).plan_from_graph(small_dataset.graph)


@pytest.fixture(scope="session")
def large_plan(small_large_dataset):
    return GrowPreprocessor(target_cluster_nodes=200, seed=3).plan_from_graph(
        small_large_dataset.graph
    )


@pytest.fixture
def scaled_arch() -> AcceleratorConfig:
    """Scaled architecture configuration used by simulator tests."""
    return AcceleratorConfig(num_macs=16, bandwidth_gbps=16.0)


@pytest.fixture
def grow_config(scaled_arch) -> GrowConfig:
    """GROW configuration bound to the scaled architecture."""
    return GrowConfig(arch=scaled_arch)


@pytest.fixture
def single_layer(small_model) -> GCNLayer:
    """The first layer of the small model."""
    return small_model.layers[0]


@pytest.fixture
def bench_workers(monkeypatch) -> list[str]:
    """Run ``repro bench``'s worker launches as in-process ``run_rung`` calls.

    Returns the list of rungs launched, one entry per launch, so a test can
    count the workers a bench run starts without paying an interpreter each.
    """
    from repro.bench import runner
    from repro.bench.ladder import run_rung

    launched: list[str] = []

    def launch(name: str) -> dict:
        launched.append(name)
        return run_rung(name)

    monkeypatch.setattr(runner, "_run_worker_once", launch)
    return launched
