"""Declarative campaign specifications.

A *campaign* is a data-driven description of a sweep: one or more
:class:`ScenarioSpec` entries (a builder name plus a parameter grid) and
per-scale :class:`MeasurementSpec` settings.  The spec layer owns three
jobs that used to be scattered through ``analysis/experiments.py``:

1. **Grids** — each scenario holds per-scale axes (cartesian product)
   and explicit case lists; :meth:`ScenarioSpec.grid_for` materializes
   the concrete case dicts for a scale.  A tier is one
   ``axes[scale] = {...}`` entry (the built-ins declare ``quick`` and
   ``full``) — a lookup for a scale the mapping lacks falls back to
   ``"*"`` and then ``"full"``, but a scale that no tier or grid of the
   campaign names is refused (:class:`UnknownScaleError`).
2. **Seeds** — every trial gets a deterministic seed.  A case may pin
   its own ``seed``; otherwise one is derived from the campaign seed,
   the builder name, and the *canonical* form of the case, so the seed
   is independent of dict-key ordering and of execution order.
3. **Identity** — :func:`stable_hash` over canonical JSON gives every
   trial a ``case_key`` and every (campaign, scale) a ``spec_key``; the
   result store is content-addressed by these, enabling cache hits and
   resume.  The spec key deliberately excludes the grid itself so that
   *extending* a grid resumes into the same store file and only the
   missing cases run.

Scenario axes (``adversary``, ``delay``, ``topology``, ``drift``) name
entries of the scenario registry (:mod:`repro.scenarios`); their string
values are validated at plan time (:data:`SCENARIO_CASE_KEYS`), so a
grid can reference any registered behaviour and a typo fails before a
single trial runs.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro import did_you_mean

CaseDict = Dict[str, Any]

#: Fallback chain for per-scale lookups: exact scale, wildcard, "full".
SCALE_FALLBACK: Tuple[str, ...] = ("*", "full")

#: Case keys whose string values name scenario-registry entries; each
#: maps to the registry kind it resolves against.  ``trials_for``
#: validates these at plan time, so a misspelled scenario key fails
#: with a did-you-mean hint before any trial executes.
SCENARIO_CASE_KEYS: Dict[str, str] = {
    "adversary": "adversary",
    "delay": "delay",
    "topology": "topology",
    "drift": "drift",
    "churn": "churn",
}


class UnknownScaleError(ValueError):
    """A scale no tier or grid of the campaign names, with a
    did-you-mean hint."""


def validate_scenario_names(pairs: Iterable[Tuple[str, Any]]) -> None:
    """Check scenario-typed ``(case_key, value)`` pairs against the
    registry, in the order given.

    Only string values are checked (non-registry experiment axes such
    as E5's ``algorithm`` use their own names and other types pass
    through untouched); each distinct pair is looked up once.  Raises
    :class:`~repro.scenarios.registry.UnknownScenarioError` on the
    first unknown pair (:meth:`ScenarioSpec.scenario_values` orders a
    grid's pairs so that it is the grid's first).
    """
    # Imported lazily: the spec layer is plain data and the registry
    # pulls in protocol modules; only plan-time validation needs it.
    from repro.scenarios import REGISTRY

    checked = set()
    for case_key, value in pairs:
        if isinstance(value, str) and (case_key, value) not in checked:
            REGISTRY.get(SCENARIO_CASE_KEYS[case_key], value)
            checked.add((case_key, value))


def _jsonable(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if hasattr(value, "as_dict"):
        return value.as_dict()
    raise TypeError(f"not canonicalizable: {value!r}")


#: The one encoder behind :func:`canonical_json` (``json.dumps`` would
#: build a new one per call).
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_jsonable
)


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return _ENCODER.encode(value)


def _digest(*parts: Any) -> Any:
    """A sha256 fed each part's canonical JSON plus a NUL separator —
    the definition :func:`stable_hash` and :func:`derive_seed` read
    out, and a prefix :meth:`CampaignSpec.trials_for` extends."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(_part(part))
    return digest


def _part(value: Any) -> bytes:
    return canonical_json(value).encode("utf-8") + b"\x00"


def stable_hash(*parts: Any) -> str:
    """Hex digest of the canonical JSON of ``parts`` (stable across runs,
    unlike the salted builtin ``hash``)."""
    return _digest(*parts).hexdigest()


def derive_seed(campaign_seed: int, builder: str, case: Mapping[str, Any]) -> int:
    """Deterministic 32-bit per-case seed.

    Depends only on canonical content — reordering the case dict's keys
    or the execution schedule cannot change it, which is what makes
    serial and parallel campaign runs produce identical records.
    """
    return int(stable_hash(campaign_seed, builder, dict(case))[:8], 16)


def _for_scale(mapping: Mapping[str, Any], scale: str) -> Any:
    for key in (scale, *SCALE_FALLBACK):
        if key in mapping:
            return mapping[key]
    return None


@dataclass(frozen=True)
class MeasurementSpec:
    """How each trial is measured.

    ``liveness`` selects the policy applied by pulse-trial builders:
    ``"tabulate"`` records dead runs as rows (NaN/inf skews, ``live``
    False) while ``"require"`` turns them into error records.

    ``backend`` selects the execution engine
    (:data:`repro.build.BACKENDS`); ``"event"`` is the historical
    default and is omitted from :meth:`as_dict` so that every
    pre-existing case key and spec key hashes unchanged.
    """

    pulses: int = 10
    warmup: int = 2
    liveness: str = "tabulate"  # "tabulate" | "require"
    backend: str = "event"  # see repro.build.BACKENDS

    def __post_init__(self) -> None:
        if self.liveness not in ("tabulate", "require"):
            raise ValueError(
                f"liveness must be 'tabulate' or 'require', "
                f"got {self.liveness!r}"
            )
        from repro.build import resolve_backend

        resolve_backend(self.backend)

    def as_dict(self) -> Dict[str, Any]:
        payload = {
            "pulses": self.pulses,
            "warmup": self.warmup,
            "liveness": self.liveness,
            # Hash compatibility: the campaign trace level this field
            # once named is gone (builders record no trace), but every
            # committed case/spec key hashes it.
            "trace": "pulses",
        }
        # Hash compatibility: the default backend stays implicit so
        # that committed case/spec keys predating the facade are
        # byte-identical.
        if self.backend != "event":
            payload["backend"] = self.backend
        return payload


@dataclass(frozen=True)
class ScenarioSpec:
    """One builder plus its per-scale parameter grid.

    ``base`` holds parameters common to every case.  ``axes`` maps a
    scale to ``{axis_name: values}``; the grid is the cartesian product
    of the axes in insertion order (later axes vary fastest).  ``cases``
    maps a scale to an explicit case list; when both are present the
    grid is ``cases x axes`` (cases outermost), which is how paired
    parameters like ``(n, u, theta)`` systems combine with an adversary
    axis without a full product.
    """

    builder: str
    base: Mapping[str, Any] = field(default_factory=dict)
    axes: Mapping[str, Mapping[str, Sequence[Any]]] = field(
        default_factory=dict
    )
    cases: Mapping[str, Sequence[Mapping[str, Any]]] = field(
        default_factory=dict
    )

    def axes_for(self, scale: str) -> Mapping[str, Sequence[Any]]:
        return _for_scale(self.axes, scale) or {}

    def cases_for(self, scale: str) -> Sequence[Mapping[str, Any]]:
        return _for_scale(self.cases, scale) or ({},)

    def grid_for(self, scale: str) -> List[CaseDict]:
        """Materialize the concrete case dicts for ``scale``."""
        axes = self.axes_for(scale)
        names = list(axes)
        grid: List[CaseDict] = []
        for explicit in self.cases_for(scale):
            for combo in itertools.product(*(axes[k] for k in names)):
                case = dict(self.base)
                case.update(explicit)
                case.update(zip(names, combo))
                grid.append(case)
        return grid

    def scenario_values(self, scale: str) -> Iterator[Tuple[str, Any]]:
        """The scenario-typed ``(case_key, value)`` pairs of
        :meth:`grid_for`'s cases, without building the grid.

        An explicit case contributes its block's first case (axes at
        their first values); the first block then contributes the
        other values of each scenario-typed axis, last axis first.
        In that order the first unknown pair is the first a walk of
        the grid in order meets: a block whose first case is clean
        first goes wrong where the last axis holding an unknown
        reaches it, every other axis still at its first value.  An
        empty axis makes the grid, and so the pairs, empty.
        """
        axes = self.axes_for(scale)
        if not all(axes.values()):
            return
        names = list(axes)
        first = {name: next(iter(axes[name])) for name in names}
        for block, explicit in enumerate(self.cases_for(scale)):
            case = {**self.base, **explicit, **first}
            for case_key in SCENARIO_CASE_KEYS:
                if case_key in case:
                    yield case_key, case[case_key]
            if block == 0:
                for name in reversed(names):
                    if name in SCENARIO_CASE_KEYS:
                        for value in itertools.islice(axes[name], 1, None):
                            yield name, value


@dataclass
class TrialPlan:
    """One fully-resolved trial: what to run, with what, keyed how.

    Not frozen: planning builds one per trial, and a frozen
    ``__init__`` assigns each field through ``object.__setattr__``,
    which makes the construction about three times as slow (≈ 610 ns
    against 200 ns on an AMD EPYC core, Python 3.11).  Nothing hashes
    or mutates a plan.  No ``slots`` either: the pool ships every
    plan, and a slots dataclass's pickle round trip is ≈ 35 % slower.
    """

    campaign: str
    scenario: int
    builder: str
    case: CaseDict
    measurement: MeasurementSpec
    seed: int
    case_key: str
    index: int


@dataclass(frozen=True)
class CampaignSpec:
    """A named, seeded collection of scenarios plus measurement tiers."""

    name: str
    scenarios: Tuple[ScenarioSpec, ...]
    measurements: Mapping[str, MeasurementSpec] = field(
        default_factory=lambda: {"*": MeasurementSpec()}
    )
    seed: int = 0
    description: str = ""

    def measurement_for(self, scale: str) -> MeasurementSpec:
        # A spec that names no scale (only "*") serves any scale.
        scales = scales_of(self)
        if scales and scale not in scales:
            hint = did_you_mean(scale, scales)
            raise UnknownScaleError(
                f"campaign {self.name!r} has no scale {scale!r}{hint} "
                f"(available: {', '.join(scales)})"
            )
        found = _for_scale(self.measurements, scale)
        if found is None:
            raise KeyError(
                f"campaign {self.name!r} has no measurement for scale "
                f"{scale!r} (and no '*'/'full' fallback)"
            )
        return found

    def trials_for(self, scale: str) -> List[TrialPlan]:
        """Flatten every scenario grid into an ordered trial list."""
        measurement = self.measurement_for(scale)
        # The same bytes stable_hash/derive_seed would hash, fed
        # once: a per-scenario sha256 prefix for the seed
        # (campaign seed, builder) and for the key (builder), and each
        # case encoded once for both.
        measurement_part = _part(measurement.as_dict())
        plans: List[TrialPlan] = []
        for scenario_index, scenario in enumerate(self.scenarios):
            grid = scenario.grid_for(scale)
            validate_scenario_names(scenario.scenario_values(scale))
            seed_prefix = _digest(self.seed, scenario.builder)
            key_prefix = _digest(scenario.builder)
            for case in grid:
                case_part = _part(case)
                if "seed" in case:
                    seed = int(case["seed"])
                else:
                    digest = seed_prefix.copy()
                    digest.update(case_part)
                    seed = int(digest.hexdigest()[:8], 16)
                digest = key_prefix.copy()
                digest.update(case_part)
                digest.update(measurement_part)
                # _part(seed): an int's canonical JSON is its decimal repr.
                digest.update(b"%d\x00" % seed)
                plans.append(
                    TrialPlan(
                        campaign=self.name,
                        scenario=scenario_index,
                        builder=scenario.builder,
                        case=case,
                        measurement=measurement,
                        seed=seed,
                        case_key=digest.hexdigest(),
                        index=len(plans),
                    )
                )
        return plans

    def spec_key(self, scale: str) -> str:
        """Content address of this (campaign, scale) in a result store.

        Excludes the grid on purpose: extending an axis keeps the same
        store file, so a re-run with the store only runs the missing
        cases.
        Per-case identity lives in each trial's ``case_key``.
        """
        return stable_hash(
            {
                "name": self.name,
                "scale": scale,
                "seed": self.seed,
                "measurement": self.measurement_for(scale).as_dict(),
                "builders": [s.builder for s in self.scenarios],
            }
        )

    def describe(self, scale: str) -> Dict[str, Any]:
        """Human-oriented summary used by ``repro campaign show``."""
        plans = self.trials_for(scale)
        cases = collections.Counter(plan.scenario for plan in plans)
        return {
            "name": self.name,
            "description": self.description,
            "scale": scale,
            "seed": self.seed,
            "measurement": self.measurement_for(scale).as_dict(),
            "spec_key": self.spec_key(scale),
            "scenarios": [
                {"builder": scenario.builder, "cases": cases[index]}
                for index, scenario in enumerate(self.scenarios)
            ],
            "trials": len(plans),
        }


def scales_of(spec: CampaignSpec) -> List[str]:
    """Every scale named anywhere in the spec (wildcards excluded)."""
    names = set(spec.measurements)
    for scenario in spec.scenarios:
        names.update(scenario.axes)
        names.update(scenario.cases)
    return sorted(n for n in names if n != "*")
