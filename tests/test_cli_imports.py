"""Import hygiene: a command imports its own subsystem and nothing else,
and a listing imports its catalog and nothing behind it.

Each case starts a fresh interpreter (``sys.modules`` of the test
process says nothing about cold start), runs ``python -m repro ...``
in it and reads back the child's ``sys.modules``.  (``-X importtime``
would miss the group modules: it does not see ``importlib.import_module``.)
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

#: ``python -m repro ARGS`` followed by a dump of ``sys.modules``.
_DRIVER = """
import json, runpy, sys
sys.argv[0] = "repro"
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exit_:
    assert not exit_.code, exit_.code
finally:
    print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""

GRAPH_AND_NUMERIC = ("networkx", "numpy", "hypothesis")
ENGINE = (
    "multiprocessing", "concurrent.futures", "repro.sim.scheduler",
    "repro.campaigns",
)
#: What stands behind a catalog: the engines, the pool and the campaign
#: layer's execution half.  Listing a catalog loads none of it.
BEHIND_CATALOGS = (
    "multiprocessing", "concurrent.futures", "repro.sim.scheduler",
    "repro.sim.vectorized", "repro.core.cps", "repro.campaigns.executor",
    "repro.campaigns.builders",
)
LISTINGS = [
    ("scenarios", "list"), ("check", "list"), ("campaign", "list"),
    ("list",),
]

#: Every package whose ``__init__`` holds a ``lazy_exports`` table
#: (``analysis``, ``baselines``, ``core``, ``crypto``, ``sim`` and
#: ``sync`` re-list no name: their ``__init__`` is a docstring).
LAZY_PACKAGES = (
    "repro", "repro.ablation", "repro.campaigns", "repro.checks",
    "repro.dynamics", "repro.fuzz", "repro.telemetry",
)


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )


def _repro(*argv):
    """``(stdout, imported module names)`` of one cold ``repro`` run."""
    done = _python("-c", _DRIVER, *argv)
    assert done.returncode == 0, done.stderr[-2000:]
    imported = set(json.loads(done.stderr.splitlines()[-1]))
    assert "repro.cli" in imported
    return done.stdout, imported


def _loaded(imported, names):
    return sorted(
        module for module in imported
        if any(module == n or module.startswith(n + ".") for n in names)
    )


class TestColdStartImports:
    def test_help_is_answered_from_the_table_alone(self):
        out, imported = _repro("--help")
        for command in ("campaign", "scenarios", "check", "ablate", "perf"):
            assert command in out
        assert _loaded(imported, GRAPH_AND_NUMERIC + ENGINE) == []

    def test_version_loads_the_root_and_the_cli_only(self):
        out, imported = _repro("--version")
        assert out == f"repro {repro.__version__}\n"
        assert _loaded(imported, GRAPH_AND_NUMERIC + ENGINE) == []
        assert _loaded(imported, ("repro",)) == ["repro", "repro.cli"]

    @pytest.mark.parametrize("argv", LISTINGS, ids=" ".join)
    def test_listings_load_no_graph_or_numeric_library(self, argv):
        _out, imported = _repro(*argv)
        assert _loaded(imported, GRAPH_AND_NUMERIC) == []
        assert _loaded(imported, BEHIND_CATALOGS) == []

    def test_the_scenario_listing_reads_its_catalog_alone(self):
        _out, imported = _repro("scenarios", "list")
        assert [
            module for module in _loaded(imported, ("repro",))
            if module != "repro"
            and not module.startswith(("repro.cli", "repro.scenarios"))
        ] == []

    def test_the_check_listing_reads_its_catalog_alone(self):
        _out, imported = _repro("check", "list")
        assert [
            module for module in _loaded(imported, ("repro",))
            if not module.startswith("repro.scenarios")
        ] == [
            "repro", "repro.checks", "repro.checks.catalog", "repro.cli",
            "repro.cli.check", "repro.cli.shared",
        ]

    @pytest.mark.parametrize(
        "argv", [("campaign", "list"), ("list",)], ids=" ".join
    )
    def test_the_campaign_listings_build_no_experiment(self, argv):
        # The ids and descriptions are a literal table in
        # repro.campaigns; the specs behind them are not loaded.
        _out, imported = _repro(*argv)
        assert _loaded(imported, ("repro.analysis", "repro.core")) == []

    def test_a_command_imports_only_its_own_group(self):
        _out, imported = _repro("scenarios", "list")
        assert _loaded(imported, ("repro.cli",)) == [
            "repro.cli", "repro.cli.scenarios", "repro.cli.shared",
        ]
        assert _loaded(imported, ("repro.campaigns",)) == []

    def test_the_perf_gate_reads_files_and_runs_nothing(self):
        # ``perf list`` reads results/perf_history.jsonl of the cwd.
        out, imported = _repro("perf", "list")
        assert "| workload | # | date |" in out
        assert _loaded(imported, GRAPH_AND_NUMERIC + ENGINE) == []
        assert _loaded(imported, ("repro",)) == [
            "repro", "repro.cli", "repro.cli.perf", "repro.perf",
            "repro.perf.history",
        ]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPackageRoot:
    def test_import_executes_no_submodule(self, package):
        done = _python(
            "-c",
            "import importlib, sys\n"
            f"package = importlib.import_module({package!r})\n"
            "loaded = {m for m in sys.modules if m.startswith('repro')}\n"
            f"assert loaded == {{'repro', {package!r}}}, loaded\n"
            "for name in package.__all__:\n"
            "    assert getattr(package, name) is not None, name\n",
        )
        assert done.returncode == 0, done.stderr

    def test_dir_and_star_import_cover_all(self, package):
        module = importlib.import_module(package)
        assert set(dir(module)) >= set(module.__all__)
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_unknown_attribute_names_itself(self, package):
        module = importlib.import_module(package)
        with pytest.raises(
            AttributeError, match=f"'{package}' has no attribute 'nope'"
        ):
            module.nope
