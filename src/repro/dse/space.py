"""Typed, deterministic parameter spaces over accelerator configurations.

A :class:`ParameterSpace` declares the knobs a design-space search may turn:
numeric ranges (:class:`NumericRange`), categorical choices
(:class:`Categorical`) and conditionally active parameters
(:class:`Conditional`, e.g. a runahead degree that only exists while runahead
execution is enabled).  Candidates are plain ``{name: value}`` dicts whose
keys are exactly the *active* parameters, which keeps them JSON-serialisable
— the property the result cache and the report files rely on.

The space itself carries every structure-aware operation the samplers need:
deterministic grid enumeration, seeded random sampling, mutation and
crossover (both of which re-resolve conditional activation), validation, and
a JSON-safe fingerprint.

Named spaces (the paper's sweep studies, the CLI presets) live in a registry
populated by :mod:`repro.dse.presets`; see :func:`register_space`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Iterator, Union


@dataclass(frozen=True)
class Categorical:
    """A parameter drawn from an explicit tuple of choices.

    Attributes:
        name: candidate-dict key (also the simulator/config field it binds to).
        choices: allowed values, in deterministic enumeration order.
    """

    name: str
    choices: tuple

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"parameter {self.name!r} needs at least one choice")
        if len(set(self.choices)) != len(self.choices):
            raise ValueError(f"parameter {self.name!r} has duplicate choices")


@dataclass(frozen=True)
class NumericRange:
    """A numeric parameter over ``[low, high]``.

    Grid enumeration places ``num_points`` values linearly (or
    logarithmically when ``log``) across the range; random sampling draws
    uniformly (or log-uniformly).  ``integer`` rounds every produced value.

    Attributes:
        name: candidate-dict key.
        low / high: inclusive bounds.
        num_points: grid resolution used by deterministic enumeration.
        log: space the grid / sample logarithmically (requires ``low > 0``).
        integer: round produced values to ints (duplicates after rounding
            are collapsed during enumeration).
    """

    name: str
    low: float
    high: float
    num_points: int = 5
    log: bool = False
    integer: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"parameter {self.name!r} needs low < high")
        if self.num_points < 2:
            raise ValueError(f"parameter {self.name!r} needs num_points >= 2")
        if self.log and self.low <= 0:
            raise ValueError(f"parameter {self.name!r} is log-spaced and needs low > 0")
        if self.integer and math.ceil(self.low) > math.floor(self.high):
            raise ValueError(f"parameter {self.name!r} contains no integer")

    def _round(self, value: float) -> int:
        """Round to an integer, clamped so the result stays inside the range."""
        return min(max(round(value), math.ceil(self.low)), math.floor(self.high))

    def grid(self) -> tuple:
        """The deterministic enumeration values of this range."""
        steps = []
        for i in range(self.num_points):
            t = i / (self.num_points - 1)
            if self.log:
                value = self.low * (self.high / self.low) ** t
            else:
                value = self.low + (self.high - self.low) * t
            steps.append(self._round(value) if self.integer else value)
        unique = []
        for value in steps:
            if value not in unique:
                unique.append(value)
        return tuple(unique)

    def sample(self, rng: random.Random):
        """One seeded random value from the range."""
        if self.log:
            value = math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        else:
            value = rng.uniform(self.low, self.high)
        return self._round(value) if self.integer else value

    def contains(self, value) -> bool:
        """Whether ``value`` is a legal setting of this parameter."""
        if self.integer and value != int(value):
            return False
        return self.low <= value <= self.high


@dataclass(frozen=True)
class Conditional:
    """A parameter that is only active when another parameter takes a value.

    Attributes:
        param: the wrapped parameter (categorical or numeric).
        depends_on: name of an *earlier* parameter in the space.
        equals: the wrapped parameter is active iff the candidate's
            ``depends_on`` value equals this.
    """

    param: Union[Categorical, NumericRange]
    depends_on: str
    equals: Any


Parameter = Union[Categorical, NumericRange, Conditional]


def base_param(param: Parameter) -> Union[Categorical, NumericRange]:
    """The underlying categorical/numeric parameter (unwraps conditionals)."""
    return param.param if isinstance(param, Conditional) else param


def candidate_key(candidate: dict) -> str:
    """Canonical string identity of a candidate (dict-order independent)."""
    return json.dumps(candidate, sort_keys=True)


@dataclass(frozen=True)
class ParameterSpace:
    """A named, validated set of parameters over one accelerator's config.

    Attributes:
        name: space identifier (used in report/cache file names).
        params: parameters in declaration order; conditionals must depend on
            an earlier parameter.
        accelerator: which simulator evaluates candidates (``"grow"``,
            ``"gcnax"`` or the multi-chip ``"scaleout"`` system); see
            :mod:`repro.dse.objectives` for the binding rules of candidate
            keys onto configuration fields.
        description: one-line summary shown by ``repro dse --list-spaces``.
    """

    name: str
    params: tuple  # tuple[Parameter, ...]
    accelerator: str = "grow"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a parameter space needs a name")
        if not self.params:
            raise ValueError(f"space {self.name!r} declares no parameters")
        if self.accelerator not in ("grow", "gcnax", "scaleout"):
            raise ValueError(f"space {self.name!r}: unknown accelerator {self.accelerator!r}")
        seen: set[str] = set()
        for param in self.params:
            inner = base_param(param)
            if inner.name in seen:
                raise ValueError(f"space {self.name!r}: duplicate parameter {inner.name!r}")
            if isinstance(param, Conditional) and param.depends_on not in seen:
                raise ValueError(
                    f"space {self.name!r}: conditional {inner.name!r} depends on "
                    f"{param.depends_on!r}, which is not an earlier parameter"
                )
            seen.add(inner.name)

    # -- structure ---------------------------------------------------------

    @property
    def param_names(self) -> tuple[str, ...]:
        """Names of every parameter (active or not), in declaration order."""
        return tuple(base_param(p).name for p in self.params)

    def is_active(self, param: Parameter, partial: dict) -> bool:
        """Whether ``param`` is active given the earlier-parameter values."""
        if isinstance(param, Conditional):
            return partial.get(param.depends_on) == param.equals
        return True

    def grid_values(self, param: Parameter) -> tuple:
        """Deterministic enumeration values of one parameter."""
        inner = base_param(param)
        return inner.choices if isinstance(inner, Categorical) else inner.grid()

    def sample_value(self, param: Parameter, rng: random.Random):
        """One seeded random value of one parameter."""
        inner = base_param(param)
        if isinstance(inner, Categorical):
            return inner.choices[rng.randrange(len(inner.choices))]
        return inner.sample(rng)

    def value_ok(self, param: Parameter, value) -> bool:
        """Whether ``value`` is legal for ``param``."""
        inner = base_param(param)
        if isinstance(inner, Categorical):
            return value in inner.choices
        try:
            return inner.contains(value)
        except TypeError:
            return False

    # -- enumeration and sampling -----------------------------------------

    def enumerate(self) -> Iterator[dict]:
        """Every grid candidate, depth-first in declaration order."""

        def recurse(index: int, partial: dict) -> Iterator[dict]:
            if index == len(self.params):
                yield dict(partial)
                return
            param = self.params[index]
            if not self.is_active(param, partial):
                yield from recurse(index + 1, partial)
                return
            name = base_param(param).name
            for value in self.grid_values(param):
                partial[name] = value
                yield from recurse(index + 1, partial)
                del partial[name]

        yield from recurse(0, {})

    @property
    def size(self) -> int:
        """Number of grid candidates (conditionals collapse inactive branches)."""
        return sum(1 for _ in self.enumerate())

    def random_candidate(self, rng: random.Random) -> dict:
        """One seeded random candidate (conditionals resolved in order)."""
        candidate: dict = {}
        for param in self.params:
            if self.is_active(param, candidate):
                candidate[base_param(param).name] = self.sample_value(param, rng)
        return candidate

    # -- evolutionary operators -------------------------------------------

    def mutate(self, candidate: dict, rng: random.Random, rate: float = 0.3) -> dict:
        """Copy of ``candidate`` with each active parameter resampled w.p. ``rate``.

        Activation is re-resolved front to back, so mutating a gating
        parameter (dis)activates its dependents consistently.
        """
        mutated: dict = {}
        for param in self.params:
            if not self.is_active(param, mutated):
                continue
            name = base_param(param).name
            if name not in candidate or rng.random() < rate:
                mutated[name] = self.sample_value(param, rng)
            else:
                mutated[name] = candidate[name]
        return mutated

    def crossover(self, parent_a: dict, parent_b: dict, rng: random.Random) -> dict:
        """Uniform crossover: each active parameter from a random parent."""
        child: dict = {}
        for param in self.params:
            if not self.is_active(param, child):
                continue
            name = base_param(param).name
            first, second = (parent_a, parent_b) if rng.random() < 0.5 else (parent_b, parent_a)
            if name in first:
                child[name] = first[name]
            elif name in second:
                child[name] = second[name]
            else:
                child[name] = self.sample_value(param, rng)
        return child

    # -- validation and identity ------------------------------------------

    def validate(self, candidate: dict) -> None:
        """Raise ``ValueError`` unless ``candidate`` is exactly one point of the space."""
        expected: dict = {}
        for param in self.params:
            if not self.is_active(param, expected):
                continue
            name = base_param(param).name
            if name not in candidate:
                raise ValueError(f"space {self.name!r}: candidate is missing {name!r}")
            if not self.value_ok(param, candidate[name]):
                raise ValueError(
                    f"space {self.name!r}: {candidate[name]!r} is not a legal value "
                    f"of parameter {name!r}"
                )
            expected[name] = candidate[name]
        extra = set(candidate) - set(expected)
        if extra:
            raise ValueError(
                f"space {self.name!r}: candidate has inactive/unknown keys {sorted(extra)}"
            )

    def fingerprint(self) -> dict:
        """JSON-safe description of the space (part of report metadata)."""
        params = []
        for param in self.params:
            inner = base_param(param)
            entry: dict[str, Any] = {"name": inner.name}
            if isinstance(inner, Categorical):
                entry["choices"] = list(inner.choices)
            else:
                entry.update(
                    low=inner.low,
                    high=inner.high,
                    num_points=inner.num_points,
                    log=inner.log,
                    integer=inner.integer,
                )
            if isinstance(param, Conditional):
                entry["depends_on"] = param.depends_on
                entry["equals"] = param.equals
            params.append(entry)
        return {"name": self.name, "accelerator": self.accelerator, "params": params}


# -- named-space registry --------------------------------------------------

_SPACES: dict[str, ParameterSpace] = {}


def register_space(space: ParameterSpace) -> ParameterSpace:
    """Add a named space to the registry (used by the CLI's ``--space``)."""
    if space.name in _SPACES:
        raise ValueError(f"space {space.name!r} is already registered")
    _SPACES[space.name] = space
    return space


def list_spaces() -> list[str]:
    """Names of all registered spaces, sorted."""
    return sorted(_SPACES)


def get_space(name: str) -> ParameterSpace:
    """Look up a registered space by name."""
    if name not in _SPACES:
        raise KeyError(f"unknown space {name!r}; known: {list_spaces()}")
    return _SPACES[name]
