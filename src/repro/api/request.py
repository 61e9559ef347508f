"""The typed simulation request: one description of *what to simulate*.

A :class:`SimRequest` names a dataset, a backend (the GROW simulator, one of
the baseline accelerators, the multi-PE scaling model or the multi-chip
scale-out engine) and every knob that influences the simulation's outcome:
the experiment-level architecture parameters (bandwidth, MAC count, seed,
cluster target), simulator-config overrides, and — for scale-out systems —
the inter-chip fabric.  Because the request is validated and canonicalised
at construction, its JSON form is a *universal cache key*: two requests that
describe the same simulation always serialize to the same
:meth:`canonical_json` and therefore the same :meth:`cache_key`, no matter
how their overrides were ordered or whether numbers arrived as ``16`` or
``16.0``.

The request layer deliberately imports nothing from the harness at module
scope; the binding onto :class:`~repro.harness.config.ExperimentConfig`
happens at call time, which keeps ``repro.api`` importable from every layer
(including the harness itself) without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.api.errors import RequestError, unknown_name_message
from repro.graph import registry
from repro.graph.registry import DatasetSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.harness.config import ExperimentConfig

#: Topology kinds of the scale-out fabric (mirrors ``repro.scaleout.topology``,
#: restated here so request validation never has to import the engine stack).
TOPOLOGY_KINDS = ("ring", "mesh", "fully-connected")

#: Inter-chip exchange patterns understood by the scale-out engine.
EXCHANGE_PATTERNS = ("halo", "reduce", "auto")

#: Cluster-to-chip assignment methods of the shard planner.
SHARD_METHODS = ("metis", "greedy")

#: Scalar types allowed as simulator-config override values (JSON-safe).
_SCALAR_TYPES = (bool, int, float, str)


def _coerce_int(value: Any, name: str, minimum: int | None = None) -> int:
    try:
        coerced = int(value)
    except (TypeError, ValueError):
        raise RequestError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and coerced < minimum:
        raise RequestError(f"{name} must be at least {minimum}, got {coerced}")
    return coerced


def _coerce_float(value: Any, name: str, positive: bool = False) -> float:
    try:
        coerced = float(value)
    except (TypeError, ValueError):
        raise RequestError(f"{name} must be a number, got {value!r}") from None
    if positive and coerced <= 0:
        raise RequestError(f"{name} must be positive, got {coerced}")
    return coerced


def _choice(value: str, name: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise RequestError(unknown_name_message(name, str(value), choices))
    return value


@dataclass(frozen=True)
class ScaleOutSpec:
    """The inter-chip fabric of a ``scaleout`` request.

    Attributes:
        num_chips: number of chips in the system.
        topology: fabric kind (``ring``, ``mesh`` or ``fully-connected``).
        link_bandwidth_gbps: bandwidth of one inter-chip link.
        link_latency_cycles: per-hop latency in accelerator cycles.
        exchange: inter-chip exchange pattern (``halo``/``reduce``/``auto``).
        shard_method: cluster-to-chip assignment (``metis`` or ``greedy``).
    """

    num_chips: int = 1
    topology: str = "ring"
    link_bandwidth_gbps: float = 32.0
    link_latency_cycles: int = 50
    exchange: str = "halo"
    shard_method: str = "metis"

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_chips", _coerce_int(self.num_chips, "num_chips", 1))
        object.__setattr__(
            self,
            "link_bandwidth_gbps",
            _coerce_float(self.link_bandwidth_gbps, "link_bandwidth_gbps", positive=True),
        )
        object.__setattr__(
            self,
            "link_latency_cycles",
            _coerce_int(self.link_latency_cycles, "link_latency_cycles", 0),
        )
        _choice(self.topology, "topology", TOPOLOGY_KINDS)
        _choice(self.exchange, "exchange pattern", EXCHANGE_PATTERNS)
        _choice(self.shard_method, "shard method", SHARD_METHODS)

    def to_dict(self) -> dict[str, Any]:
        return {
            "num_chips": self.num_chips,
            "topology": self.topology,
            "link_bandwidth_gbps": self.link_bandwidth_gbps,
            "link_latency_cycles": self.link_latency_cycles,
            "exchange": self.exchange,
            "shard_method": self.shard_method,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScaleOutSpec":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


@dataclass(frozen=True)
class SimRequest:
    """One simulation, fully described.

    Attributes:
        dataset: registered dataset name, case-insensitive (the paper's
            built-ins, see ``repro.graph.registry.dataset_names``, or a
            runtime-registered scenario).
        backend: registered backend name (see ``repro.api.list_backends``).
        bandwidth_gbps: off-chip DRAM bandwidth of the design.
        num_macs: MAC count of the design.
        seed: RNG seed for dataset/model generation and preprocessing.
        target_cluster_nodes: partitioning pass's nodes-per-cluster target.
        gcnax_tile: GCNAX tile dimension (square tiles; gcnax backend only).
        num_nodes: optional synthetic node-count override for the dataset.
        partitioned: use the partitioned preprocessing plan (GROW backends).
        overrides: simulator-config field overrides (e.g.
            ``runahead_degree=32``); accepted as a mapping, stored
            canonically as a sorted tuple of pairs.
        fabric: the inter-chip fabric; required meaningfully only by (and
            only allowed with) the ``scaleout`` backend.
        scenario: the full synthetic-workload definition when ``dataset`` is
            not one of the paper's built-ins — a
            :class:`~repro.graph.registry.DatasetSpec` or a declarative
            scenario mapping (see ``repro.graph.registry.scenario_from_dict``).
            Auto-attached from the runtime registry when the dataset name is
            registered there, so the request (and hence its cache key and
            any worker process it is shipped to) is self-contained: two
            same-named scenarios with different parameters never share a key.
    """

    dataset: str
    backend: str = "grow"
    bandwidth_gbps: float = 16.0
    num_macs: int = 16
    seed: int = 0
    target_cluster_nodes: int = 600
    gcnax_tile: int = 32
    num_nodes: int | None = None
    partitioned: bool = True
    overrides: tuple[tuple[str, Any], ...] = ()
    fabric: ScaleOutSpec | None = None
    scenario: DatasetSpec | None = None

    def __post_init__(self) -> None:
        # -- canonicalise the dataset name (the loader is case-insensitive;
        # the facade must accept exactly the same spellings).
        object.__setattr__(self, "dataset", str(self.dataset).strip().lower())
        # -- canonicalise scalars so equivalent requests hash identically.
        object.__setattr__(
            self, "bandwidth_gbps", _coerce_float(self.bandwidth_gbps, "bandwidth_gbps", True)
        )
        object.__setattr__(self, "num_macs", _coerce_int(self.num_macs, "num_macs", 1))
        object.__setattr__(self, "seed", _coerce_int(self.seed, "seed"))
        object.__setattr__(
            self,
            "target_cluster_nodes",
            _coerce_int(self.target_cluster_nodes, "target_cluster_nodes", 1),
        )
        object.__setattr__(self, "gcnax_tile", _coerce_int(self.gcnax_tile, "gcnax_tile", 1))
        if self.num_nodes is not None:
            object.__setattr__(self, "num_nodes", _coerce_int(self.num_nodes, "num_nodes", 1))
        object.__setattr__(self, "partitioned", bool(self.partitioned))

        # -- canonicalise overrides: mapping or pair-iterable -> sorted tuple
        # (deduped through a dict first — last occurrence wins, matching the
        # JSON-object form — so equal cache keys imply equal requests).
        items = self.overrides.items() if isinstance(self.overrides, Mapping) else self.overrides
        try:
            pairs = sorted({str(key): value for key, value in items}.items())
        except (TypeError, ValueError):
            raise RequestError(
                f"overrides must be a mapping or iterable of (key, value) pairs, "
                f"got {self.overrides!r}"
            ) from None
        for key, value in pairs:
            if not isinstance(value, _SCALAR_TYPES):
                raise RequestError(
                    f"override {key!r} must be a JSON-safe scalar "
                    f"(bool/int/float/str), got {type(value).__name__}"
                )
        object.__setattr__(self, "overrides", tuple(pairs))

        if isinstance(self.fabric, Mapping):
            object.__setattr__(self, "fabric", ScaleOutSpec.from_dict(self.fabric))

        self._canonicalise_scenario()
        self._validate_names()
        self._validate_combination()
        self._canonicalise_irrelevant_fields()

    # -- validation --------------------------------------------------------

    def _canonicalise_scenario(self) -> None:
        """Normalise/auto-attach the scenario so the request is self-contained."""
        scenario = self.scenario
        if scenario is None:
            if registry.known_dataset(self.dataset) and not registry.is_builtin(self.dataset):
                # A runtime-registered scenario: embed its full definition so
                # the cache key, and any worker process the request is
                # shipped to, does not depend on this process's registry.
                scenario = registry.get_spec(self.dataset)
            else:
                return
        if isinstance(scenario, Mapping):
            scenario = dict(scenario)
            scenario.setdefault("name", self.dataset)
        try:
            scenario = registry.canonical_scenario(scenario)
        except ValueError as error:
            raise RequestError(str(error)) from None
        if registry.is_builtin(scenario.name):
            raise RequestError(
                f"scenario {scenario.name!r} cannot redefine a built-in dataset"
            )
        if self.dataset != scenario.name:
            raise RequestError(
                f"request dataset {self.dataset!r} does not match its scenario's "
                f"name {scenario.name!r}"
            )
        object.__setattr__(self, "scenario", scenario)

    def _validate_names(self) -> None:
        if self.scenario is None and not registry.known_dataset(self.dataset):
            raise RequestError(
                unknown_name_message("dataset", self.dataset, registry.dataset_names())
            )
        # Imported at call time: the backend registry lives one module over
        # and is populated when ``repro.api`` finishes importing.
        from repro.api.backends import known_backend, list_backends

        if not known_backend(self.backend):
            raise RequestError(
                unknown_name_message("backend", self.backend, list_backends())
            )

    def _validate_combination(self) -> None:
        if self.fabric is not None and self.backend != "scaleout":
            raise RequestError(
                f"a fabric spec only applies to the 'scaleout' backend, "
                f"not {self.backend!r}"
            )

    def _canonicalise_irrelevant_fields(self) -> None:
        """Reset fields the chosen backend provably ignores to their defaults.

        Two requests that describe the same simulation must hash to the same
        :meth:`cache_key`, so knobs with no effect on the outcome cannot be
        allowed into the canonical form: a ``scaleout`` request with no
        fabric means the default fabric; ``partitioned`` only reaches the
        plan selection of GROW-family runs (baselines never load a plan,
        scale-out always shards the partitioned one); ``gcnax_tile`` only
        reaches the ``gcnax`` backend; a ``num_nodes`` override equal to
        the embedded scenario's own size describes the same workload as no
        override.
        """
        if self.backend == "scaleout" and self.fabric is None:
            object.__setattr__(self, "fabric", ScaleOutSpec())
        if (
            self.scenario is not None
            and self.num_nodes == self.scenario.synthetic_nodes
        ):
            # An override equal to the scenario's own size is the default.
            object.__setattr__(self, "num_nodes", None)
        if self.backend not in ("grow", "multipe"):
            object.__setattr__(self, "partitioned", True)
        if self.backend != "gcnax":
            default_tile = type(self).__dataclass_fields__["gcnax_tile"].default
            object.__setattr__(self, "gcnax_tile", default_tile)

    # -- canonical forms ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form; :meth:`from_dict` round-trips it exactly."""
        return {
            "dataset": self.dataset,
            "backend": self.backend,
            "bandwidth_gbps": self.bandwidth_gbps,
            "num_macs": self.num_macs,
            "seed": self.seed,
            "target_cluster_nodes": self.target_cluster_nodes,
            "gcnax_tile": self.gcnax_tile,
            "num_nodes": self.num_nodes,
            "partitioned": self.partitioned,
            "overrides": dict(self.overrides),
            "fabric": self.fabric.to_dict() if self.fabric is not None else None,
            "scenario": (
                registry.scenario_to_dict(self.scenario)
                if self.scenario is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimRequest":
        """Rebuild a request from its :meth:`to_dict` (or hand-written) form."""
        known = {k: data[k] for k in cls.__dataclass_fields__ if k in data}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise RequestError(
                f"unknown request field(s) {unknown}; "
                f"valid fields are {sorted(cls.__dataclass_fields__)}"
            )
        if known.get("fabric") is not None:
            known["fabric"] = ScaleOutSpec.from_dict(known["fabric"])
        return cls(**known)

    def canonical_json(self) -> str:
        """Deterministic JSON encoding — the universal cache identity."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        """Hex digest of :meth:`canonical_json` (stable across processes)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    # -- bindings ----------------------------------------------------------

    def override_dict(self) -> dict[str, Any]:
        """The simulator-config overrides as a plain dict."""
        return dict(self.overrides)

    def experiment_config(self) -> "ExperimentConfig":
        """The single-dataset :class:`ExperimentConfig` this request binds to."""
        from repro.harness.config import ExperimentConfig

        return ExperimentConfig(
            datasets=(self.dataset,),
            bandwidth_gbps=self.bandwidth_gbps,
            num_macs=self.num_macs,
            seed=self.seed,
            target_cluster_nodes=self.target_cluster_nodes,
            gcnax_tile=self.gcnax_tile,
            num_nodes_override=(
                {self.dataset: self.num_nodes} if self.num_nodes is not None else {}
            ),
            scenarios=(self.scenario,) if self.scenario is not None else (),
        )

    @classmethod
    def from_experiment(
        cls,
        config: "ExperimentConfig",
        dataset: str,
        backend: str = "grow",
        overrides: Mapping[str, Any] | None = None,
        partitioned: bool = True,
        fabric: ScaleOutSpec | None = None,
    ) -> "SimRequest":
        """Build the request equivalent to running ``dataset`` under an
        existing experiment configuration (the bridge the harness, DSE and
        scale-out layers use).  Scenario definitions carried by the
        configuration travel into the request."""
        return cls(
            dataset=dataset,
            backend=backend,
            bandwidth_gbps=config.bandwidth_gbps,
            num_macs=config.num_macs,
            seed=config.seed,
            target_cluster_nodes=config.target_cluster_nodes,
            gcnax_tile=config.gcnax_tile,
            num_nodes=config.num_nodes_override.get(dataset),
            partitioned=partitioned,
            overrides=dict(overrides or {}),
            fabric=fabric,
            scenario=config.scenario_for(dataset),
        )
