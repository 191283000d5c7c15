"""The monitor catalog: what each conformance monitor claims, and which
registry scenarios it judges.

The one source of these facts.  Each monitor class in
:mod:`repro.checks.monitors` reads its ``claim`` from
:data:`MONITOR_CATALOG` under its ``name``; :mod:`repro.checks.conformance`
reads the modes from here; and ``repro check list`` reads this module
and the scenario registry alone, so listing the monitors loads no
monitor, engine or bound.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Monitor name -> claim, in display order (the matrix columns).
MONITOR_CATALOG: Dict[str, str] = {
    "skew": "Theorem 17: pulse skew <= S",
    "period": "Theorem 17: periods within [P_min, P_max]",
    "progress": "Theorem 17 (liveness): every honest node pulses each round",
    "tcb-consistency": "Lemma 11: acceptances of a dealer within the window",
    "apa-contraction": "Theorem 9: honest range halves per APA iteration",
    "stabilization": (
        "Churn: scheduled recoveries occur and disrupted nodes "
        "re-stabilize to the cohort"
    ),
}

#: Monitors applicable to each execution mode.
CPS_MONITORS: Tuple[str, ...] = (
    "skew",
    "period",
    "progress",
    "tcb-consistency",
)
APA_MONITORS: Tuple[str, ...] = ("apa-contraction",)
CHURN_MONITORS: Tuple[str, ...] = ("stabilization",)

#: Monitors per execution mode (used by the matrix renderer too).
MODE_MONITORS: Dict[str, Tuple[str, ...]] = {
    "cps": CPS_MONITORS,
    "apa": APA_MONITORS,
    "churn": CHURN_MONITORS,
}


def scenario_mode(kind: str, key: str) -> str:
    """``"cps"``, ``"apa"`` or ``"churn"`` — how a registry entry is
    conformance-run."""
    from repro.scenarios import REGISTRY

    entry = REGISTRY.get(kind, key)
    if entry.kind == "adversary" and "apa" in entry.tags:
        return "apa"
    if entry.kind == "churn":
        return "churn"
    return "cps"


def applicable_monitors(kind: str, key: str) -> Tuple[str, ...]:
    """Monitor names that apply to ``(kind, key)``."""
    return MODE_MONITORS[scenario_mode(kind, key)]
