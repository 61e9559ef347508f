"""Runtime dataset registry and declarative scenario specs.

Every layer that consumes graph workloads — the loader, the experiment
harness, the API facade, the DSE objective layer, the scale-out sharder —
resolves dataset names through this registry instead of a closed tuple.  The
paper's eight Table I datasets are registered as *built-ins* when
:mod:`repro.graph.datasets` is imported; any number of additional synthetic
*scenarios* can be registered at runtime, either programmatically
(:func:`register_dataset` / :func:`define_scenario`) or from a declarative
JSON spec (:func:`scenario_from_dict`)::

    {"name": "social100k", "generator": "chung-lu", "num_nodes": 100000,
     "average_degree": 12, "num_communities": 64,
     "feature_lengths": [128, 64, 32]}

A scenario names one of the :data:`GENERATOR_FAMILIES` plus the workload
knobs the generators expose: node count, target degree, power-law skew,
planted-community structure, feature widths/layer depth and feature
densities.  :func:`scenario_to_dict` is the exact inverse of
:func:`scenario_from_dict`, which is what lets the API layer embed a
scenario's full definition into a request's canonical JSON — cache keys stay
sound (two same-named scenarios with different parameters never collide) and
worker processes can rebuild the workload without sharing this process's
registry.

The registry itself is process-local by design: persistent identity lives in
the scenario dict, not in registration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: Synthetic-graph generator families a scenario may name (dispatched by
#: :func:`repro.graph.datasets.load_dataset`).
GENERATOR_FAMILIES = ("chung-lu", "erdos-renyi", "powerlaw-cluster", "rmat")


@dataclass(frozen=True)
class DatasetSpec:
    """Statistics and generator parameters of one registered dataset.

    For the paper's built-ins the published Table I statistics
    (``num_nodes``/``num_edges``/``feature_lengths``/densities) are carried
    alongside the scaled synthetic sizing actually generated
    (``synthetic_nodes``/``synthetic_degree``).  For runtime scenarios the
    published and synthetic sizings coincide: the scenario *is* the workload.

    Attributes:
        name: dataset name (lower-case; the registry key).
        num_nodes: number of graph nodes (published count for built-ins).
        num_edges: number of edges (non-zeros of the adjacency matrix).
        feature_lengths: GCN layer widths, e.g. ``(1433, 16, 7)`` means the
            input features have 1433 columns, the hidden layer 16, the output
            7; length minus one is the model depth.
        density_x0: density of the layer-0 input feature matrix X(0).
        density_x1: density of the deeper-layer input feature matrices.
        num_communities: number of planted communities used by the synthetic
            generator (larger graphs have more community structure).
        powerlaw_exponent: degree-distribution exponent of the generator.
        synthetic_nodes: default node count of the synthetic stand-in graph.
        synthetic_degree: default average degree of the synthetic stand-in.
        generator: generator family, one of :data:`GENERATOR_FAMILIES`.
        intra_community_prob: fraction of each node's edges drawn from its
            own community (``chung-lu`` only).
    """

    name: str
    num_nodes: int
    num_edges: int
    feature_lengths: tuple[int, ...]
    density_x0: float
    density_x1: float
    num_communities: int = 8
    powerlaw_exponent: float = 2.1
    synthetic_nodes: int = 1000
    synthetic_degree: float = 5.0
    generator: str = "chung-lu"
    intra_community_prob: float = 0.85

    @property
    def average_degree(self) -> float:
        """Average node degree implied by the node/edge counts."""
        return self.num_edges / self.num_nodes


# -- the registry -----------------------------------------------------------

_REGISTRY: dict[str, DatasetSpec] = {}
_BUILTINS: set[str] = set()


def register_dataset(
    spec: DatasetSpec, builtin: bool = False, replace: bool = False
) -> DatasetSpec:
    """Add a dataset to the registry, keyed by its (lower-case) name.

    Re-registering an identical spec is a no-op; a *different* spec under an
    existing name requires ``replace=True`` (and built-ins can never be
    replaced — the paper's Table I identities are fixed).
    """
    key = spec.name.lower()
    if key != spec.name:
        raise ValueError(f"dataset names must be lower-case, got {spec.name!r}")
    existing = _REGISTRY.get(key)
    if existing is not None and existing != spec:
        if key in _BUILTINS or not replace:
            raise ValueError(
                f"dataset {key!r} is already registered with different parameters"
                + ("" if key in _BUILTINS else "; pass replace=True to redefine it")
            )
    _REGISTRY[key] = spec
    if builtin:
        _BUILTINS.add(key)
    return spec


def unregister_dataset(name: str) -> None:
    """Remove a runtime-registered dataset (built-ins refuse)."""
    key = name.lower()
    if key in _BUILTINS:
        raise ValueError(f"built-in dataset {key!r} cannot be unregistered")
    _REGISTRY.pop(key, None)


def dataset_names() -> tuple[str, ...]:
    """Every registered dataset name, built-ins first, in registration order."""
    return tuple(_REGISTRY)


def known_dataset(name: str) -> bool:
    """Whether ``name`` (case-insensitive) is registered."""
    return str(name).lower() in _REGISTRY


def is_builtin(name: str) -> bool:
    """Whether ``name`` (case-insensitive) is one of the paper's built-ins."""
    return str(name).lower() in _BUILTINS


def get_spec(name: str) -> DatasetSpec:
    """Look up a registered dataset by (case-insensitive) name."""
    key = str(name).lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


# -- declarative scenario specs --------------------------------------------

#: Scenario-dict keys, their target DatasetSpec fields and coercions.
_SCENARIO_DEFAULTS: dict[str, Any] = {
    "generator": "chung-lu",
    "num_nodes": 1000,
    "average_degree": 8.0,
    "exponent": 2.1,
    "num_communities": 8,
    "intra_community_prob": 0.85,
    "density_x0": 0.5,
    "density_x1": 0.772,
}

#: Keys accepted instead of an explicit ``feature_lengths`` list.
_FEATURE_SHORTHAND = ("input_features", "hidden_features", "output_features", "num_layers")

_VALID_SCENARIO_KEYS = frozenset(
    ("name", "feature_lengths", *_SCENARIO_DEFAULTS, *_FEATURE_SHORTHAND)
)


def _scenario_error(message: str) -> ValueError:
    return ValueError(f"invalid scenario spec: {message}")


def _feature_lengths_from(data: Mapping[str, Any]) -> tuple[int, ...]:
    if "feature_lengths" in data:
        if any(key in data for key in _FEATURE_SHORTHAND):
            raise _scenario_error(
                "give either feature_lengths or the "
                f"{'/'.join(_FEATURE_SHORTHAND)} shorthand, not both"
            )
        try:
            widths = tuple(int(w) for w in data["feature_lengths"])
        except (TypeError, ValueError):
            raise _scenario_error(
                f"feature_lengths must be a list of integer widths, "
                f"got {data['feature_lengths']!r}"
            ) from None
    else:
        try:
            num_layers = int(data.get("num_layers", 2))
            input_width = int(data.get("input_features", 128))
            hidden_width = int(data.get("hidden_features", 64))
            output_width = int(data.get("output_features", 16))
        except (TypeError, ValueError):
            raise _scenario_error(
                f"{'/'.join(_FEATURE_SHORTHAND)} must be integers"
            ) from None
        if num_layers < 1:
            raise _scenario_error("num_layers must be at least 1")
        widths = (input_width,) + (hidden_width,) * (num_layers - 1) + (output_width,)
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise _scenario_error(
            f"feature_lengths needs at least two positive widths, got {list(widths)}"
        )
    return widths


def scenario_from_dict(data: Mapping[str, Any]) -> DatasetSpec:
    """Build a validated :class:`DatasetSpec` from a declarative scenario dict.

    Exact inverse of :func:`scenario_to_dict`.  Raises ``ValueError`` with an
    actionable message for unknown keys, unknown generator families or
    out-of-range parameters.
    """
    unknown = sorted(set(data) - _VALID_SCENARIO_KEYS)
    if unknown:
        raise _scenario_error(
            f"unknown key(s) {unknown}; valid keys are {sorted(_VALID_SCENARIO_KEYS)}"
        )
    if not data.get("name"):
        raise _scenario_error("a scenario needs a non-empty 'name'")
    name = str(data["name"]).lower()
    if not all(ch.isalnum() or ch in "-_." for ch in name):
        raise _scenario_error(
            f"name {name!r} may only contain letters, digits, '-', '_' and '.'"
        )
    merged = {**_SCENARIO_DEFAULTS, **{k: data[k] for k in _SCENARIO_DEFAULTS if k in data}}
    generator = str(merged["generator"])
    if generator not in GENERATOR_FAMILIES:
        raise _scenario_error(
            f"unknown generator {generator!r}; choose from {list(GENERATOR_FAMILIES)}"
        )
    try:
        num_nodes = int(merged["num_nodes"])
        average_degree = float(merged["average_degree"])
        exponent = float(merged["exponent"])
        num_communities = int(merged["num_communities"])
        intra = float(merged["intra_community_prob"])
        density_x0 = float(merged["density_x0"])
        density_x1 = float(merged["density_x1"])
    except (TypeError, ValueError):
        raise _scenario_error(f"non-numeric parameter in {dict(data)!r}") from None
    if num_nodes < 1:
        raise _scenario_error("num_nodes must be at least 1")
    if average_degree <= 0:
        raise _scenario_error("average_degree must be positive")
    if exponent <= 1.0:
        raise _scenario_error("exponent must exceed 1 (power-law sampling)")
    if num_communities < 1:
        raise _scenario_error("num_communities must be at least 1")
    if not 0.0 < intra <= 1.0:
        raise _scenario_error("intra_community_prob must be in (0, 1]")
    for label, density in (("density_x0", density_x0), ("density_x1", density_x1)):
        if not 0.0 < density <= 1.0:
            raise _scenario_error(f"{label} must be in (0, 1]")
    return DatasetSpec(
        name=name,
        num_nodes=num_nodes,
        num_edges=max(1, int(round(num_nodes * average_degree))),
        feature_lengths=_feature_lengths_from(data),
        density_x0=density_x0,
        density_x1=density_x1,
        num_communities=num_communities,
        powerlaw_exponent=exponent,
        synthetic_nodes=num_nodes,
        synthetic_degree=average_degree,
        generator=generator,
        intra_community_prob=intra,
    )


def scenario_to_dict(spec: DatasetSpec) -> dict[str, Any]:
    """The canonical JSON-safe scenario form of a spec.

    ``scenario_from_dict(scenario_to_dict(spec))`` reproduces ``spec``
    exactly for runtime scenarios, which is what makes this dict a sound
    cache-key component (see ``repro.api.request``).
    """
    return {
        "name": spec.name,
        "generator": spec.generator,
        "num_nodes": spec.synthetic_nodes,
        "average_degree": spec.synthetic_degree,
        "exponent": spec.powerlaw_exponent,
        "num_communities": spec.num_communities,
        "intra_community_prob": spec.intra_community_prob,
        "feature_lengths": list(spec.feature_lengths),
        "density_x0": spec.density_x0,
        "density_x1": spec.density_x1,
    }


def canonical_scenario(spec_or_dict: "DatasetSpec | Mapping[str, Any]") -> DatasetSpec:
    """Normalise a spec or scenario dict through the canonical round-trip."""
    if isinstance(spec_or_dict, DatasetSpec):
        return scenario_from_dict(scenario_to_dict(spec_or_dict))
    return scenario_from_dict(spec_or_dict)


def define_scenario(replace: bool = False, **params: Any) -> DatasetSpec:
    """Build a scenario spec from keyword parameters and register it.

    The programmatic twin of the ``--scenario``/``--define`` CLI flags::

        define_scenario(name="social100k", generator="chung-lu",
                        num_nodes=100_000, average_degree=12,
                        num_communities=64)
    """
    spec = scenario_from_dict(params)
    return register_dataset(spec, replace=replace)
