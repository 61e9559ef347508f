"""GROW: the paper's row-stationary sparse-dense GEMM accelerator.

The package is organised the way the paper presents the design (Section V):

* :mod:`repro.core.config` — architecture configuration (Table III).
* :mod:`repro.core.hdn_profile` — the row-stationary stream of an
  aggregation, cluster by cluster, and the high-degree-node cache's
  accounting: one rank pass per (aggregation LHS, plan) answers every cache
  size.
* :mod:`repro.core.preprocess` — the software preprocessing pass: graph
  partitioning plus per-cluster HDN ID list generation.
* :mod:`repro.core.runahead` — the latency model of multi-row-stationary
  runahead execution.
* :mod:`repro.core.accelerator` — the single-PE GROW simulator.
* :mod:`repro.core.multi_pe` — the multi-PE scaling model.
"""

from repro.core.config import GrowConfig
from repro.core.hdn_profile import HDNProfile
from repro.core.preprocess import GrowPreprocessor, PreprocessPlan
from repro.core.runahead import RunaheadModel
from repro.core.accelerator import GrowSimulator
from repro.core.multi_pe import MultiPEGrowSimulator

__all__ = [
    "GrowConfig",
    "HDNProfile",
    "GrowPreprocessor",
    "PreprocessPlan",
    "RunaheadModel",
    "GrowSimulator",
    "MultiPEGrowSimulator",
]
