"""Randomized robustness sweep: Theorem 17 must hold for *every*
model-compliant configuration the generator can produce.

This is the closest thing to an executable proof check we can run: random
system sizes, fault sets, clock ensembles, delay policies, and adversary
choices — every draw must keep skew, periods, and liveness within the
derived bounds.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.analysis.metrics import (
    check_liveness,
    max_period,
    max_skew,
    min_period,
)
from repro.core.attacks import (
    CpsEquivocatingSubsetAttack,
    CpsMimicDealerAttack,
)
from repro.core.cps import assemble_cps_simulation
from repro.core.params import derive_parameters
from repro.sim.adversary import ReplayAdversary, SilentAdversary
from repro.sim.clocks import HardwareClock
from repro.sim.network import (
    BiasedPartitionDelayPolicy,
    ConstantFractionDelayPolicy,
    MaximumDelayPolicy,
    RandomDelayPolicy,
    SkewingDelayPolicy,
)

PULSES = 8


def make_adversary(kind, params, group):
    if kind == "silent":
        return SilentAdversary()
    if kind == "mimic":
        return CpsMimicDealerAttack(params, group)
    if kind == "subset":
        return CpsEquivocatingSubsetAttack(params)
    return ReplayAdversary(seed=1)


def make_policy(kind, group, seed):
    if kind == "max":
        return MaximumDelayPolicy()
    if kind == "half":
        return ConstantFractionDelayPolicy(0.5)
    if kind == "random":
        return RandomDelayPolicy(seed=seed)
    if kind == "biased":
        return BiasedPartitionDelayPolicy(group)
    return SkewingDelayPolicy(group)


def make_clocks(params, rng):
    clocks = []
    for _ in range(params.n):
        style = rng.randrange(3)
        if style == 0:
            clocks.append(
                HardwareClock.constant_rate(
                    rng.uniform(1.0, params.theta),
                    offset=rng.uniform(0.0, params.S),
                    theta=params.theta,
                )
            )
        elif style == 1:
            clocks.append(
                HardwareClock.random_drift(
                    rng,
                    params.theta,
                    offset=rng.uniform(0.0, params.S),
                    horizon=60.0 * params.d,
                    segment_length=3.0 * params.d,
                )
            )
        else:
            clocks.append(
                HardwareClock.fast_then_shifted(
                    params.theta,
                    shift=rng.uniform(0.0, params.S / 2),
                    offset=rng.uniform(0.0, params.S / 2),
                )
            )
    return clocks


@settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=4, max_value=10),
    theta=st.sampled_from([1.0005, 1.001, 1.005]),
    u_fraction=st.sampled_from([0.005, 0.02, 0.1]),
    adversary_kind=st.sampled_from(["silent", "mimic", "subset", "replay"]),
    policy_kind=st.sampled_from(["max", "half", "random", "biased", "skew"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_theorem17_holds_for_random_configurations(
    n, theta, u_fraction, adversary_kind, policy_kind, seed
):
    rng = random.Random(seed)
    params = derive_parameters(theta, 1.0, u_fraction, n)
    f_actual = rng.randint(0, params.f)
    faulty = sorted(rng.sample(range(n), f_actual))
    honest = [v for v in range(n) if v not in faulty]
    group = [v for v in honest if rng.random() < 0.5] or honest[:1]
    simulation = assemble_cps_simulation(
        params,
        clocks=make_clocks(params, rng),
        faulty=faulty,
        behavior=make_adversary(adversary_kind, params, group),
        delay_policy=make_policy(policy_kind, group, seed),
        seed=seed,
        trace="none",
    )
    result = simulation.run(max_pulses=PULSES)
    pulses = result.honest_pulses()
    assert check_liveness(pulses, PULSES), (
        f"liveness broken: n={n} faulty={faulty} adversary={adversary_kind}"
    )
    assert max_skew(pulses) <= params.S + 1e-9
    assert min_period(pulses) >= params.p_min_bound - 1e-9
    assert max_period(pulses) <= params.p_max_bound + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_larger_system_spot_checks(seed):
    """n up to 14 at full resilience with the strongest attack mix."""
    rng = random.Random(seed)
    n = rng.choice([12, 13, 14])
    params = derive_parameters(1.001, 1.0, 0.02, n)
    faulty = list(range(n - params.f, n))
    group = [v for v in range(n) if v % 2 == 0]
    simulation = assemble_cps_simulation(
        params,
        faulty=faulty,
        behavior=CpsMimicDealerAttack(params, group),
        delay_policy=SkewingDelayPolicy(group),
        seed=seed,
        clocks=scenarios.create("drift", "extreme", params),
        trace="none",
    )
    result = simulation.run(max_pulses=8)
    pulses = result.honest_pulses()
    assert check_liveness(pulses, 8)
    assert max_skew(pulses) <= params.S + 1e-9


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Every tree whose code may import through a package.
CALLER_TREES = ("src", "tests", "bench", "examples", "scripts", "benchmarks")


def _modules():
    """``repro`` and every module under it."""
    import importlib
    import pkgutil

    import repro

    return [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


def _packages():
    """The root and every ``repro.*`` package that declares exports."""
    return [
        module
        for module in _modules()
        if hasattr(module, "__path__") and hasattr(module, "__all__")
    ]


def _imported_through(packages):
    """``{package: names}`` that some caller under :data:`CALLER_TREES`
    reads through the package: ``from repro.pkg import name``, or
    ``pkg.name`` on a module bound by ``import repro.pkg`` / ``import
    repro.pkg as alias`` / ``from repro import pkg``."""
    import ast
    import glob

    used = {package: set() for package in packages}
    for tree in CALLER_TREES:
        pattern = os.path.join(ROOT, tree, "**", "*.py")
        for path in glob.glob(pattern, recursive=True):
            with open(path) as handle:
                nodes = list(ast.walk(ast.parse(handle.read())))
            bound = {}  # local dotted name -> package
            for node in nodes:
                if isinstance(node, ast.ImportFrom) and not node.level:
                    for alias in node.names:
                        if node.module in used:
                            used[node.module].add(alias.name)
                        full = f"{node.module}.{alias.name}"
                        if full in used:
                            bound[alias.asname or alias.name] = full
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.asname:
                            bound[alias.asname] = alias.name
                            continue
                        parts = alias.name.split(".")
                        for end in range(1, len(parts) + 1):
                            prefix = ".".join(parts[:end])
                            bound[prefix] = prefix
            for node in nodes:
                if not isinstance(node, ast.Attribute):
                    continue
                owner, chain = node.value, []
                while isinstance(owner, ast.Attribute):
                    chain.append(owner.attr)
                    owner = owner.value
                if isinstance(owner, ast.Name):
                    dotted = ".".join([owner.id, *reversed(chain)])
                    if bound.get(dotted) in used:
                        used[bound[dotted]].add(node.attr)
    return used


def _type_checking_namespace(module):
    """What a type checker sees in ``module`` beyond its globals: the
    imports under its top-level ``if TYPE_CHECKING:`` blocks (deferred
    there for cold start)."""
    import ast
    import inspect

    namespace = {}
    for node in ast.parse(inspect.getsource(module)).body:
        test = ast.unparse(node.test) if isinstance(node, ast.If) else ""
        if test == "TYPE_CHECKING":
            code = compile(ast.Module(node.body, []), module.__file__, "exec")
            exec(code, namespace)
    return namespace


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        # A lazy name is read off the module its table lists it under,
        # so resolving it proves that module really defines it.
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports(self):
        """Exactly the lazy tables and the two packages with a body
        export; every ``__all__`` entry resolves and none is listed
        twice — a re-export of a deleted name cannot linger."""
        from test_cli_imports import LAZY_PACKAGES

        packages = _packages()
        assert sorted(p.__name__ for p in packages) == sorted(
            [*LAZY_PACKAGES, "repro.scenarios", "repro.sim.vectorized"]
        )
        for package in packages:
            names = list(package.__all__)
            assert len(set(names)) == len(names), package.__name__
            for name in names:
                assert getattr(package, name) is not None, (
                    package.__name__,
                    name,
                )

    def test_every_export_has_an_importer(self):
        """A package lists a name only if some caller imports it
        through the package; every other caller imports the name from
        the submodule that defines it, its one home."""
        packages = {p.__name__: set(p.__all__) for p in _packages()}
        used = _imported_through(packages)
        unused = {
            package: sorted(names - used[package])
            for package, names in packages.items()
            if names - used[package]
        }
        assert unused == {}

    def test_exported_functions_resolve_their_annotations(self):
        """``typing.get_type_hints`` works on every public function of
        every module: an annotation naming something the module never
        imported (ruff's F821, which no tier-1 tool reports) fails
        here."""
        import inspect
        import typing

        checked = set()
        for module in _modules():
            deferred = None
            for name, value in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                if deferred is None:
                    deferred = _type_checking_namespace(module)
                typing.get_type_hints(value, localns=deferred)
                checked.add(value)
        for package in _packages():
            for name in package.__all__:
                exported = getattr(package, name)
                if inspect.isfunction(exported):
                    assert exported in checked, (package.__name__, name)

    def test_version(self):
        # pyproject.toml reads the version from the package (one
        # source), and `repro --version` prints the same string.
        import re

        import repro

        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
        with open(os.path.join(ROOT, "pyproject.toml")) as handle:
            pyproject = handle.read()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = {attr = "repro.__version__"}' in pyproject
