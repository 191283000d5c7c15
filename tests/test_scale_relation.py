"""Scale invariance: a metamorphic relation both engines must meet.

The model has no natural time unit: the skew bound and every window
derived from it are homogeneous of degree 1 in ``(d, u)``.  So scaling
every time-valued input — ``d``, ``u``, ``u_tilde``, the
``dealer_send_offset`` override and each scenario parameter whose
:class:`~repro.scenarios.registry.ParamSpec` has ``unit="time"`` — by
``2^k`` must scale every pulse time and every monitor's observed and
bound values by exactly ``2^k``, and leave every verdict, check count
and headroom ratio as it was.  A power of two is
exact in binary floating point, so "the same" means bit-equal, and the
relation needs no reference output (Chen, Cheung & Yiu's metamorphic
testing).  It holds only because every "close enough" comparison is in
units of ``d`` (``ProtocolParameters.tolerance``).
"""

import ast
import functools
import json
import pathlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.build import MECHANISM_KEYS
from repro.checks.conformance import judged_run
from repro.fuzz.oracle import expectation_met, replay_fixture

ROOT = pathlib.Path(__file__).resolve().parent.parent
PULSES = 10
BASE = {
    "n": 7, "theta": 1.001, "d": 1.0, "u": 0.01,
    "adversary": "silent", "delay": "skewing", "drift": "extreme",
}
#: Nonzero values for the time-valued parameters whose default is 0 or
#: derived, so their scaling is exercised too.
TIMED = [
    {"adversary": "mimic-split", "adversary_params": {"stagger": 0.3}},
    {
        "adversary": "equivocating-subset",
        "adversary_params": {"lateness": 0.3},
    },
    {"adversary": "early-extreme", "adversary_params": {"margin": 0.05}},
    {"delay": "flicker-partition", "delay_params": {"period": 3.0}},
    {"echo_rejection": False, "dealer_send_offset": 0.05},
]


def _variants():
    """Every CPS adversary, delay, drift, topology and churn key, varied
    one at a time from :data:`BASE`, on each engine that supports the
    case (churn, active adversaries and ``CpsNode`` overrides run on
    the event engine only)."""
    cases = [dict(BASE)]
    for kind in ("adversary", "delay", "drift", "topology", "churn"):
        for entry in scenarios.entries(kind):
            if kind == "adversary" and "cps" not in entry.tags:
                continue  # round-model (APA) adversaries
            case = dict(BASE, **{kind: entry.key})
            if case not in cases:
                cases.append(case)
    cases += [dict(BASE, **timed) for timed in TIMED]
    return [
        (backend, case)
        for case in cases
        for backend in ("event", "vectorized")
        if backend == "event"
        or (
            case["adversary"] == "silent"
            and "churn" not in case
            and not set(MECHANISM_KEYS) & set(case)
        )
    ]


VARIANTS = _variants()


def scaled(case, k):
    """``case`` with every time-valued input multiplied by ``2^k``."""
    factor = 2.0**k
    out = dict(case)
    for key in ("d", "u", "u_tilde", "dealer_send_offset"):
        if case.get(key) is not None:
            out[key] = case[key] * factor
    for kind in scenarios.KINDS:
        if kind not in case:
            continue
        params = dict(case.get(f"{kind}_params", {}))
        for spec in scenarios.get(kind, case[kind]).params:
            value = params.get(spec.name, spec.default)
            if spec.unit == "time" and value is not None:
                params[spec.name] = value * factor
        if params:
            out[f"{kind}_params"] = params
    return out


def _fingerprint(run, k):
    """Everything the relation holds, with times divided by ``2^k``."""
    factor = 2.0**k
    pulses = run.result.pulses
    return (
        {v: [t / factor for t in times] for v, times in pulses.items()},
        [
            (
                verdict.monitor,
                verdict.ok,
                verdict.checked,
                len(verdict.violations),
                None if verdict.worst is None else (
                    verdict.worst.ratio,
                    verdict.worst.observed / factor,
                    verdict.worst.bound / factor,
                ),
            )
            for verdict in run.verdicts
        ],
    )


@functools.lru_cache(maxsize=None)
def _reference(index):
    backend, case = VARIANTS[index]
    return _fingerprint(judged_run(case, PULSES, 0, backend=backend), 0)


def test_the_sample_covers_every_key_on_both_engines():
    covered = {
        (backend, kind, case[kind])
        for backend, case in VARIANTS
        for kind in ("adversary", "delay", "drift", "topology", "churn")
        if kind in case
    }
    for kind in ("delay", "drift", "topology"):
        for key in scenarios.keys(kind):
            assert ("event", kind, key) in covered
            assert ("vectorized", kind, key) in covered
    for key in scenarios.keys("churn"):
        assert ("event", "churn", key) in covered
    for entry in scenarios.entries("adversary"):
        assert ("cps" in entry.tags) == (
            ("event", "adversary", entry.key) in covered
        )


def _variant_id(index):
    backend, case = VARIANTS[index]
    keys = [
        case.get(kind) or "-"
        for kind in ("delay", "drift", "topology", "churn")
    ]
    timed = [
        name for name in case
        if name.endswith("_params") or name in MECHANISM_KEYS
    ]
    return "/".join([backend, case["adversary"], *keys, *timed])


@pytest.mark.parametrize("index", range(len(VARIANTS)), ids=_variant_id)
@settings(max_examples=3)
@given(k=st.integers(min_value=-30, max_value=30))
@example(k=-30)
@example(k=30)
def test_a_run_scaled_by_a_power_of_two_scales_exactly(index, k):
    backend, case = VARIANTS[index]
    run = judged_run(scaled(case, k), PULSES, 0, backend=backend)
    assert _fingerprint(run, k) == _reference(index)


KNOWN_BAD = sorted(
    (ROOT / "results" / "fuzz" / "promoted").glob("*.json")
)


@pytest.mark.parametrize("k", [-30, -25, 0, 20, 30])
@pytest.mark.parametrize(
    "path",
    [
        path for path in KNOWN_BAD
        if json.loads(path.read_text())["case"].get("adversary")
        == "rushing-echo"
    ],
    ids=lambda path: path.stem,
)
def test_the_rushing_echo_fixtures_fail_at_every_scale(path, k):
    fixture = json.loads(path.read_text())
    fixture["case"] = scaled(fixture["case"], k)
    run = replay_fixture(fixture)
    assert fixture["expect"] == "violation"
    assert expectation_met(fixture, run)


#: The tolerance's one home: the module that says how close counts as
#: equal (``RELATIVE_TOLERANCE`` and ``ProtocolParameters.tolerance``).
HOME = ROOT / "src" / "repro" / "core" / "params.py"
TOLERANCE_NAME = re.compile(r"(^|_)(EPS(ILON)?|TOL(ERANCE)?)(_|$)")


def test_the_tolerance_has_one_home():
    # An absolute slack elsewhere would break the relation above at
    # some scale: no float literal <= 1e-6 and no module-level EPS /
    # TOL* constant outside the home.
    hits = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if path == HOME:
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0.0 < abs(node.value) <= 1e-6
            ):
                hits.append(f"{path.name}:{node.lineno} {node.value!r}")
        for node in tree.body:
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            hits += [
                f"{path.name}:{node.lineno} {target.id}"
                for target in targets
                if isinstance(target, ast.Name)
                and TOLERANCE_NAME.search(target.id)
            ]
    assert hits == []
