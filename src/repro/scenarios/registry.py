"""The scenario registry: pluggable behaviours under stable string keys.

The campaign engine references everything by plain data — builder names,
case dicts — so that trial plans can be hashed, cached, and shipped to
pool workers.  The registry extends that principle to the *scenario*
axis: adversary behaviours, delay policies, topologies, and clock-drift
profiles register here under ``(kind, key)`` with metadata (one-line
description, paper reference, parameter schema), and campaign cases name
them by key instead of constructing objects.

Kinds and factory conventions
-----------------------------

Every kind fixes the positional context its factories receive, so a key
can be resolved uniformly from a case dict:

``adversary``
    ``factory(params, **overrides) -> ByzantineBehavior`` where
    ``params`` is the run's :class:`~repro.core.params.ProtocolParameters`
    (protocol-agnostic behaviours ignore it; it may be ``None``).
``delay``
    ``factory(n, **overrides) -> DelayPolicy`` where ``n`` is the system
    size (group-based policies derive their default groups from it).
``topology``
    ``factory(n, **overrides) -> networkx.Graph`` — the physical network
    the Appendix A translation turns into a virtual clique.
``drift``
    ``factory(params, seed, **overrides) -> list[HardwareClock]`` — one
    clock per node, honouring ``H_v(0) in [0, S]`` and rates in
    ``[1, theta]``.
``churn``
    ``factory(params, **overrides) -> FaultSchedule`` — the membership
    dynamics of a run (crashes, recoveries, late joins, Byzantine
    flips), sized from ``params.n`` / ``params.f`` so one profile
    composes with any deployment.
Keyword ``overrides`` correspond to the entry's declared
:class:`ParamSpec` list; unknown keywords raise ``TypeError`` from the
factory itself, so schema drift is caught at call time.

Lookups of unknown keys raise :class:`UnknownScenarioError` carrying
close-match suggestions — campaign specs validate their scenario axes at
plan time (see :meth:`~repro.campaigns.spec.CampaignSpec.trials_for`),
so a typo fails before any trial runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import did_you_mean

#: The scenario kinds the registry accepts, in display order.
KINDS: Tuple[str, ...] = (
    "adversary",
    "delay",
    "topology",
    "drift",
    "churn",
)


class UnknownScenarioError(KeyError):
    """Raised for lookups of unregistered ``(kind, key)`` pairs.

    The message lists registered keys of the kind and, when the unknown
    key is a near-miss, a "did you mean" suggestion.
    """


@dataclass(frozen=True)
class ParamSpec:
    """One tunable parameter of a scenario entry.

    ``default`` documents the value the factory uses when a case omits
    the parameter (factories own the actual defaulting; the spec is
    metadata for the CLI and the generated docs).  ``unit`` is
    ``"time"`` for a real-time length, which scales with ``d`` and
    ``u`` (the model has no time unit), and empty otherwise.
    """

    name: str
    default: Any = None
    doc: str = ""
    unit: str = ""

    def render(self) -> str:
        """``name=default`` form used by ``repro scenarios show``."""
        return f"{self.name}={self.default!r}"


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: factory plus catalog metadata."""

    kind: str
    key: str
    factory: Callable[..., Any]
    description: str
    paper_ref: str = ""
    params: Tuple[ParamSpec, ...] = ()
    tags: frozenset = frozenset()

    @property
    def qualified(self) -> str:
        """The unambiguous ``kind:key`` name."""
        return f"{self.kind}:{self.key}"


class ScenarioRegistry:
    """A catalog of :class:`ScenarioEntry` keyed by ``(kind, key)``.

    Registration order is preserved per kind (dict semantics), which is
    what keeps campaign grids — and therefore experiment tables — stable
    when entries are ported from hand-wired dicts.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str], ScenarioEntry] = {}

    # ------------------------------------------------------------------
    # Registration

    def register(
        self,
        kind: str,
        key: str,
        *,
        description: str,
        paper_ref: str = "",
        params: Sequence[ParamSpec] = (),
        tags: Iterable[str] = (),
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``factory`` under ``(kind, key)``.

        Re-registering an existing key raises — scenario keys are part
        of the cache identity of stored campaign results, so silently
        replacing one would corrupt replay semantics.
        """
        if kind not in KINDS:
            raise ValueError(
                f"unknown scenario kind {kind!r}; kinds: {KINDS}"
            )
        if (kind, key) in self._entries:
            raise ValueError(
                f"scenario {kind}:{key} is already registered"
            )

        def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            self._entries[(kind, key)] = ScenarioEntry(
                kind=kind,
                key=key,
                factory=factory,
                description=description,
                paper_ref=paper_ref,
                params=tuple(params),
                tags=frozenset(tags),
            )
            return factory

        return decorate

    # ------------------------------------------------------------------
    # Lookup

    def get(self, kind: str, key: str) -> ScenarioEntry:
        """The entry for ``(kind, key)``, or :class:`UnknownScenarioError`."""
        try:
            return self._entries[(kind, key)]
        except KeyError:
            pass
        known = self.keys(kind)
        raise UnknownScenarioError(
            f"unknown {kind} scenario {key!r}{did_you_mean(key, known)} "
            f"(registered: {known})"
        )

    def create(self, kind: str, key: str, *context: Any, **overrides: Any):
        """Instantiate ``(kind, key)`` with its kind's positional context."""
        return self.get(kind, key).factory(*context, **overrides)

    def has(self, kind: str, key: str) -> bool:
        return (kind, key) in self._entries

    def keys(self, kind: Optional[str] = None) -> List[str]:
        """Registered keys of ``kind`` (or every kind), in catalog order."""
        return [
            entry_key
            for (entry_kind, entry_key) in self._entries
            if kind is None or entry_kind == kind
        ]

    def entries(self, kind: Optional[str] = None) -> List[ScenarioEntry]:
        """Entries in display order: kind (catalog order), then key."""
        selected = [
            entry
            for entry in self._entries.values()
            if kind is None or entry.kind == kind
        ]
        return sorted(
            selected, key=lambda entry: (KINDS.index(entry.kind), entry.key)
        )

    def find(self, key: str) -> List[ScenarioEntry]:
        """Every entry registered under ``key``, across kinds.

        ``key`` may be qualified as ``kind:key`` to disambiguate.
        """
        if ":" in key:
            kind, _, bare = key.partition(":")
            if kind in KINDS and self.has(kind, bare):
                return [self.get(kind, bare)]
            return []
        return [
            entry for (_, entry_key), entry in self._entries.items()
            if entry_key == key
        ]

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide registry every catalog module registers into.
REGISTRY = ScenarioRegistry()

register_scenario = REGISTRY.register
